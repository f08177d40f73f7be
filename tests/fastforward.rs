//! Equivalence suite for the quiescence-driven multi-cycle fast-forward
//! (`MultiNoc::step_until`).
//!
//! The engine's contract is *bit-identity*: a run driven through
//! `step_until` must be indistinguishable — counters, event traces,
//! exported timelines, ejection streams — from the canonical per-cycle
//! `drive(); step()` loop. This suite checks that contract three ways:
//! against the pinned determinism goldens (real load, skips rare),
//! against telemetry traces at light load (skips dominant), and under
//! randomized configurations on the mini-proptest runner.

use catnap_repro::catnap::{
    CongestionMetric, GatingPolicy, MetricKind, MultiNoc, MultiNocConfig, SelectorKind, SkipStats,
};
use catnap_repro::noc::{MeshDims, MessageClass};
use catnap_repro::telemetry::{diff_csv_timelines, diff_traces, power_timeline_csv, RecordingSink};
use catnap_repro::traffic::trace::{TracePlayer, TraceRecord};
use catnap_repro::traffic::{SyntheticPattern, SyntheticWorkload};
use catnap_repro::util::check::Checker;

/// The determinism goldens' scenario, driven through `step_until`
/// instead of the per-cycle loop.
fn golden_fingerprint_step_until(selector: SelectorKind, gating: bool) -> (u64, u64, u64) {
    let cfg = MultiNocConfig::catnap_4x128().selector(selector).gating(gating).seed(7);
    let mut net = MultiNoc::new(cfg);
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.08, 512, net.dims(), 7);
    net.step_until(&mut load, 1_500);
    let snap = net.snapshot();
    let report = net.finish();
    (report.packets_delivered, snap.latency_sum, snap.or_switch_events)
}

/// All six pinned goldens (see `tests/determinism.rs`) must come out
/// bit-identical through `step_until`. At 0.08 packets/node/cycle the
/// system is almost never quiescent, so this primarily proves that the
/// skip *assessment* and the traffic source's arrival pre-scan perturb
/// nothing — neither an RNG draw nor a cycle of timing.
#[test]
fn goldens_bit_identical_through_step_until() {
    if std::env::var_os("CATNAP_PRINT_GOLDENS").is_some() {
        return; // goldens are being re-pinned; determinism.rs prints them
    }
    let pinned = [
        (SelectorKind::RoundRobin, true, (7416, 290007, 325)),
        (SelectorKind::RoundRobin, false, (7502, 167583, 0)),
        (SelectorKind::Random, true, (7430, 288557, 331)),
        (SelectorKind::Random, false, (7504, 168413, 0)),
        (SelectorKind::CatnapPriority, true, (7443, 248092, 222)),
        (SelectorKind::CatnapPriority, false, (7447, 225011, 99)),
    ];
    for (selector, gating, want) in pinned {
        let got = golden_fingerprint_step_until(selector, gating);
        assert_eq!(
            got, want,
            "step_until changed the golden for {selector:?} gating={gating}"
        );
    }
}

/// Light-load gated run with recording telemetry on every scope: the
/// fast-forwarded run must skip a large share of the cycles *and*
/// produce byte-identical traces and CSV timelines (every epoch row
/// present, no event lost or moved). Divergences are reported through
/// the trace-diff tooling so a failure names the first bad cycle.
#[test]
fn fast_forward_preserves_traces_and_timelines() {
    const CYCLES: u64 = 20_000;
    let cfg = || MultiNocConfig::catnap_4x128().gating(true).seed(23);
    let load = |dims| SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.0005, 512, dims, 23);

    let mut baseline = MultiNoc::with_sinks(cfg(), |_| RecordingSink::new());
    let mut lb = load(baseline.dims());
    while baseline.cycle() < CYCLES {
        lb.drive(&mut baseline);
        baseline.step_reference();
    }
    assert_eq!(
        baseline.skip_stats(),
        SkipStats::default(),
        "reference baseline must not skip"
    );

    let mut fast = MultiNoc::with_sinks(cfg(), |_| RecordingSink::new());
    let mut lf = load(fast.dims());
    fast.step_until(&mut lf, CYCLES);
    let stats = fast.skip_stats();
    assert!(
        stats.skipped_cycles > CYCLES / 10,
        "light load must fast-forward a large share of the run: {stats:?}"
    );
    assert_eq!(fast.cycle(), baseline.cycle());

    let trace_base = baseline.take_trace();
    let trace_fast = fast.take_trace();
    let d = diff_traces(&trace_base, &trace_fast);
    assert!(d.is_identical(), "event traces diverged:\n{d}");
    for epoch in [64u64, 512, 4096] {
        let cd = diff_csv_timelines(
            &power_timeline_csv(&trace_base, epoch),
            &power_timeline_csv(&trace_fast, epoch),
        );
        assert!(cd.is_identical(), "CSV timelines diverged at epoch {epoch}:\n{cd}");
    }
    assert_eq!(fast.snapshot(), baseline.snapshot());
    assert_eq!(fast.finish(), baseline.finish());
}

/// The trace-driven source skips between bursts exactly like the
/// synthetic one: a bursty hand-built trace with long silent gaps must
/// fast-forward most of the run and still match per-cycle replay.
#[test]
fn trace_replay_skips_gaps_and_matches_percycle() {
    const CYCLES: u64 = 15_000;
    let mut records = Vec::new();
    for burst in 0..6u64 {
        let start = burst * 2_400;
        for i in 0..5u64 {
            let src = ((11 * i + 3 * burst) % 64) as u16;
            records.push(TraceRecord {
                cycle: start + i,
                src,
                dst: (src + 17) % 64,
                bits: 512,
                class: MessageClass::Synthetic,
            });
        }
    }
    let cfg = || MultiNocConfig::catnap_4x128().gating(true);

    let mut stepped = MultiNoc::new(cfg());
    let mut ps = TracePlayer::new(records.clone());
    for _ in 0..CYCLES {
        ps.drive(&mut stepped);
        stepped.step();
    }

    let mut skipped = MultiNoc::new(cfg());
    let mut pk = TracePlayer::new(records);
    skipped.step_until(&mut pk, CYCLES);

    assert!(pk.is_done());
    let stats = skipped.skip_stats();
    assert!(
        stats.skipped_cycles > CYCLES / 2,
        "inter-burst gaps must be skipped: {stats:?}"
    );
    assert_eq!(skipped.snapshot(), stepped.snapshot());
    assert_eq!(skipped.finish(), stepped.finish());
}

/// Property: for arbitrary topology / subnet count / selector / gating
/// policy / congestion metric / injection rate, `step_until` yields the
/// same ejection stream (every tail flit, in order) and the same final
/// report as per-cycle stepping.
#[test]
fn prop_step_until_equals_percycle() {
    #[derive(Debug)]
    struct Input {
        subnets: usize,
        selector: SelectorKind,
        policy: GatingPolicy,
        metric: MetricKind,
        rate: f64,
        seed: u64,
    }
    const CYCLES: u64 = 2_500;
    Checker::new("prop_step_until_equals_percycle").cases(12).run(
        |rng| Input {
            subnets: *rng.choose(&[1usize, 2, 4]),
            selector: *rng.choose(&[
                SelectorKind::RoundRobin,
                SelectorKind::Random,
                SelectorKind::CatnapPriority,
            ]),
            policy: *rng.choose(&[
                GatingPolicy::None,
                GatingPolicy::LocalIdle,
                GatingPolicy::LocalIdlePort,
                GatingPolicy::CatnapRcs,
            ]),
            metric: *rng.choose(&[
                MetricKind::Bfm,
                MetricKind::Bfa,
                MetricKind::InjectionRate,
                MetricKind::IqOcc,
                MetricKind::Delay,
            ]),
            rate: rng.gen::<f64>() * 0.01,
            seed: rng.gen_range(0u64..10_000),
        },
        |input| {
            let cfg = || {
                let mut cfg = MultiNocConfig::bandwidth_equivalent(input.subnets)
                    .selector(input.selector)
                    .gating_policy(input.policy)
                    .metric(CongestionMetric::paper_default(input.metric))
                    .seed(input.seed);
                cfg.dims = MeshDims::new(4, 4);
                cfg
            };
            let load =
                |dims| SyntheticWorkload::new(SyntheticPattern::UniformRandom, input.rate, 512, dims, input.seed);

            let mut stepped = MultiNoc::new(cfg());
            stepped.set_track_deliveries(true);
            let mut ls = load(stepped.dims());
            for _ in 0..CYCLES {
                ls.drive(&mut stepped);
                stepped.step();
            }

            let mut skipped = MultiNoc::new(cfg());
            skipped.set_track_deliveries(true);
            let mut lk = load(skipped.dims());
            skipped.step_until(&mut lk, CYCLES);

            if skipped.drain_delivered() != stepped.drain_delivered() {
                return Err("ejection streams diverged".into());
            }
            if skipped.snapshot() != stepped.snapshot() {
                return Err(format!(
                    "counters diverged: {:?} vs {:?}",
                    skipped.snapshot(),
                    stepped.snapshot()
                ));
            }
            if skipped.finish() != stepped.finish() {
                return Err("final reports diverged".into());
            }
            Ok(())
        },
    );
}
