//! Fast-forward speedup observability: times `MultiNoc::step_until` on
//! the workload the quiescence engine targets — a light, intermittent
//! load on the gated 4NT-128b configuration — against the per-cycle
//! baseline (a `drive(); step_reference()` loop, the oracle that takes
//! no shortcut), and writes `bench_out/perf_fastforward.json`.
//!
//! The two runs are the same simulation: same config, same seed, same
//! arrivals. The baseline executes every one of the cycles; the fast run
//! collapses quiescent stretches into O(routers) arithmetic skips. The
//! bench asserts they end bit-identical (snapshot and final report) and
//! that the fast run is at least 5x quicker end-to-end — the
//! acceptance floor for the engine. A second, busy scenario (one subnet
//! near saturation, three gated) times the event/wakeup scheduler
//! against the same per-cycle baseline when there is nothing quiescent
//! to skip.

use catnap::{MultiNoc, MultiNocConfig, SkipStats, Snapshot};
use catnap_bench::{emit_json, print_banner, Table};
use catnap_traffic::{SyntheticPattern, SyntheticWorkload};
use std::hint::black_box;
use std::time::Instant;

/// One timed `step_until` run.
#[derive(Clone, Debug)]
struct Scenario {
    scenario: String,
    cycles: u64,
    wall_ns: u64,
    cycles_per_sec: f64,
    packets_delivered: u64,
    skips: u64,
    skipped_cycles: u64,
}

catnap_util::impl_to_json_struct!(Scenario {
    scenario,
    cycles,
    wall_ns,
    cycles_per_sec,
    packets_delivered,
    skips,
    skipped_cycles,
});

/// The whole report written to `bench_out/perf_fastforward.json`.
#[derive(Clone, Debug)]
struct PerfFastForward {
    fastforward_speedup: f64,
    skipped_fraction: f64,
    quiescent_assessment_fraction: f64,
    busy_eventdriven_speedup: f64,
    scenarios: Vec<Scenario>,
}

catnap_util::impl_to_json_struct!(PerfFastForward {
    fastforward_speedup,
    skipped_fraction,
    quiescent_assessment_fraction,
    busy_eventdriven_speedup,
    scenarios,
});

/// Drives uniform-random traffic through `step_until` for `cycles`
/// cycles and times the whole run. With `reference` every cycle is a
/// `step_reference` instead — the baseline the speedup is measured
/// against; the simulation itself is identical either way.
fn run_timed(scenario: &str, offered: f64, cycles: u64, reference: bool) -> (Scenario, SkipStats, Snapshot, u64) {
    let cfg = MultiNocConfig::catnap_4x128().gating(true).seed(7);
    let mut net = MultiNoc::new(cfg);
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, offered, 512, net.dims(), 7);
    let start = Instant::now();
    if reference {
        while net.cycle() < cycles {
            load.drive(&mut net);
            net.step_reference();
        }
    } else {
        net.step_until(&mut load, cycles);
    }
    let wall = start.elapsed();
    black_box(net.cycle());
    let stats = net.skip_stats();
    let snap = net.snapshot();
    let delivered = net.finish().packets_delivered;
    let secs = wall.as_secs_f64().max(1e-12);
    let s = Scenario {
        scenario: scenario.to_string(),
        cycles,
        wall_ns: wall.as_nanos() as u64,
        cycles_per_sec: cycles as f64 / secs,
        packets_delivered: delivered,
        skips: stats.skips,
        skipped_cycles: stats.skipped_cycles,
    };
    (s, stats, snap, delivered)
}

fn main() {
    print_banner(
        "perf_fastforward",
        "quiescence fast-forward speedup vs the per-cycle reference step",
    );

    // --- Light intermittent load: the engine's target regime ---
    // 5e-5 packets/node/cycle on 64 nodes is one packet every ~300
    // cycles system-wide; the network drains and goes quiescent between
    // arrivals, so nearly the whole run is skippable.
    const LIGHT_OFFERED: f64 = 5e-5;
    const LIGHT_CYCLES: u64 = 200_000;
    let (full, _, snap_full, del_full) = run_timed("light_gated_reference", LIGHT_OFFERED, LIGHT_CYCLES, true);
    let (fast, stats, snap_fast, del_fast) = run_timed("light_gated_fastforward", LIGHT_OFFERED, LIGHT_CYCLES, false);
    assert_eq!(
        snap_full, snap_fast,
        "fast-forward must be bit-identical to per-cycle stepping"
    );
    assert_eq!(del_full, del_fast, "fast-forward must deliver the same packets");
    let fastforward_speedup = fast.cycles_per_sec / full.cycles_per_sec;
    let skipped_fraction = stats.skipped_cycles as f64 / LIGHT_CYCLES as f64;
    let quiescent_assessment_fraction = if stats.assessments == 0 {
        0.0
    } else {
        stats.quiescent_assessments as f64 / stats.assessments as f64
    };
    assert!(
        fastforward_speedup >= 5.0,
        "fast-forward speedup {fastforward_speedup:.2}x is below the 5x acceptance floor"
    );

    // --- Busy load: the event-driven core's regime ---
    // At 0.05 packets/node/cycle one subnet runs near saturation (the
    // other three stay gated) and the system is almost never quiescent,
    // so the fast-forward layer contributes nothing; the ratio measures
    // what the event/wakeup scheduler and the mask-driven allocator buy
    // over the scan-everything reference step when there is real work
    // every cycle. The win is bounded by Amdahl: the saturated subnet's
    // router work is shared by both modes, and only the gated subnets'
    // scan cost is eliminated outright.
    const BUSY_OFFERED: f64 = 0.05;
    const BUSY_CYCLES: u64 = 20_000;
    let (busy_full, _, busy_snap_full, busy_del_full) =
        run_timed("busy_gated_reference", BUSY_OFFERED, BUSY_CYCLES, true);
    let (busy_fast, _, busy_snap_fast, busy_del_fast) =
        run_timed("busy_gated_eventdriven", BUSY_OFFERED, BUSY_CYCLES, false);
    assert_eq!(busy_snap_full, busy_snap_fast, "busy runs must also be bit-identical");
    assert_eq!(busy_del_full, busy_del_fast);
    let busy_eventdriven_speedup = busy_fast.cycles_per_sec / busy_full.cycles_per_sec;

    let scenarios = vec![full, fast, busy_full, busy_fast];
    let mut table = Table::new(["scenario", "cycles", "Mcycles/s", "skipped", "skips"]);
    for s in &scenarios {
        table.row([
            s.scenario.clone(),
            s.cycles.to_string(),
            format!("{:.3}", s.cycles_per_sec / 1e6),
            s.skipped_cycles.to_string(),
            s.skips.to_string(),
        ]);
    }
    table.print();
    println!("\nfast-forward speedup:      {fastforward_speedup:.2}x (floor 5x)");
    println!("skipped fraction:          {:.1}% of cycles", skipped_fraction * 100.0);
    println!(
        "quiescent assessments:     {:.1}% ({} of {})",
        quiescent_assessment_fraction * 100.0,
        stats.quiescent_assessments,
        stats.assessments
    );
    println!("busy event-driven speedup: {busy_eventdriven_speedup:.2}x (saturated subnet, nothing quiescent)");

    let report = PerfFastForward {
        fastforward_speedup,
        skipped_fraction,
        quiescent_assessment_fraction,
        busy_eventdriven_speedup,
        scenarios,
    };
    emit_json("perf_fastforward", &report);
}
