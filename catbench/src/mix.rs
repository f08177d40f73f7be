//! `mix_heavy`: the paper's headline path, closed loop, in-process.
//!
//! One op is one `catnap_bench::run_mix` run, step by step: a fresh
//! `System` running the Heavy Table-3 mix (MPKI 39, 256 cores) on gated
//! `catnap-4x128` with its stepping pool auto-sized, [`WARMUP`] cycles,
//! then [`MEASURE`] measured cycles, network power over the measured
//! window, and the system report. Op `i` runs system seed
//! `i mod MIX_SYSTEMS` of the seed-drawn set, so each system runs
//! several times, and every op's report and power must repeat the bytes
//! of that system's first op exactly; an op that does not counts as
//! failed. The modelled outputs are reported as means over the systems.
//! A job, for `jobs_per_s`, is one whole op.

use crate::gen::{mix_seeds, MIX_SYSTEMS};
use crate::replay::{self, census};
use crate::trace::Tracer;
use crate::{host, stats, Ctx, Metric, Outcome};
use catnap::{DispatchStats, MultiNocConfig};
use catnap_multicore::{System, SystemConfig};
use catnap_power::TechParams;
use catnap_traffic::WorkloadMix;
use catnap_util::ToJson;
use std::time::Instant;

/// Cycles run before the measured window of every op (as in `fig08`).
pub const WARMUP: u64 = 3_000;
/// Measured cycles of every op (as in `fig08`).
pub const MEASURE: u64 = 15_000;
/// `System::new` calls timed for `setup_s` before each op.
const SETUPS_PER_OP: usize = 40;
/// Fewest ops a run makes, however short `--seconds` is: every system
/// twice.
const MIN_OPS: usize = 2 * MIX_SYSTEMS;

fn build(seed: u64) -> System {
    System::new(
        SystemConfig::paper(),
        MultiNocConfig::catnap_4x128().gating(true),
        WorkloadMix::Heavy,
        seed,
    )
}

/// What one op measured and produced.
pub struct Op {
    /// Wall time of the whole op, set-up to report.
    op_s: f64,
    /// Wall time of the measured window.
    window_s: f64,
    /// The report and power, serialized: the op's result bytes.
    pub bytes: String,
    ipc: f64,
    power_w: f64,
    miss_latency: f64,
    misses_completed: u64,
    dispatch: DispatchStats,
}

fn advance(sys: &mut System, cycles: u64, request: u64, tracer: &mut Tracer) {
    if !tracer.enabled() {
        sys.run(cycles);
        return;
    }
    for _ in 0..cycles {
        tracer.span("system.step", request, || sys.step());
        if sys.net.cycle().is_multiple_of(replay::CENSUS_EVERY) {
            census(&sys.net, tracer);
        }
    }
}

/// Runs one op of `warmup` + `measure` cycles.
pub fn run_op(seed: u64, warmup: u64, measure: u64, request: u64, tracer: &mut Tracer) -> Op {
    let op_start = Instant::now();
    let open = tracer.begin("mix.op", request);
    let mut sys = tracer.span("system.new", request, || build(seed));
    advance(&mut sys, warmup, request, tracer);
    let start = sys.net.snapshot();
    let t = Instant::now();
    advance(&mut sys, measure, request, tracer);
    let window_s = t.elapsed().as_secs_f64();
    let end = sys.net.snapshot();
    let power = tracer.span("power.accounting", request, || {
        sys.net.power_between(&start, &end, TechParams::catnap_32nm())
    });
    let dispatch = sys.net.dispatch_stats();
    let report = sys.report();
    tracer.end(open);
    Op {
        op_s: op_start.elapsed().as_secs_f64(),
        window_s,
        bytes: format!(
            "{}{}",
            report.to_json().to_compact_string(),
            power.to_json().to_compact_string()
        ),
        ipc: report.ipc,
        power_w: power.total(),
        miss_latency: report.avg_miss_latency,
        misses_completed: report.misses_completed,
        dispatch,
    }
}

/// Ops whose bytes differ from their system's first op. Ops come in
/// rounds over the systems: op `i` repeats op `i mod MIX_SYSTEMS`.
fn mismatches(ops: &[Op]) -> u64 {
    ops.iter()
        .enumerate()
        .filter(|(i, o)| o.bytes != ops[i % MIX_SYSTEMS].bytes)
        .count() as u64
}

/// Mean of `f` over the first op of each system.
fn per_system(ops: &[Op], f: impl Fn(&Op) -> f64) -> f64 {
    ops[..MIX_SYSTEMS].iter().map(f).sum::<f64>() / MIX_SYSTEMS as f64
}

fn frac(part: u64, whole: u64) -> Option<f64> {
    Some(if whole == 0 { 0.0 } else { part as f64 / whole as f64 })
}

/// Runs the workload.
///
/// # Errors
///
/// Never; the signature matches the other workloads.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let seeds = mix_seeds(ctx.seed);
    let mut metrics = Vec::new();
    let (attempted, failed, tracer) = if ctx.trace {
        // Untraced and traced ops alternate, so drift in host speed
        // weighs on both sides of `trace_overhead` alike.
        let mut tracer = Tracer::new(true);
        let (mut untraced, mut traced) = (Vec::new(), Vec::new());
        let t = Instant::now();
        while untraced.len() < MIX_SYSTEMS || t.elapsed().as_secs_f64() < ctx.seconds {
            let request = untraced.len() as u64;
            let seed = seeds[untraced.len() % MIX_SYSTEMS];
            untraced.push(run_op(seed, WARMUP, MEASURE, request, &mut Tracer::new(false)));
            traced.push(run_op(seed, WARMUP, MEASURE, request, &mut tracer));
        }
        let window = |ops: &[Op]| ops.iter().map(|o| o.window_s).sum::<f64>();
        let d = traced.iter().fold(DispatchStats::default(), |mut acc, o| {
            let s = &o.dispatch;
            acc.phase_serial += s.phase_serial;
            acc.phase_parallel += s.phase_parallel;
            acc.subnet_serial += s.subnet_serial;
            acc.subnet_parallel += s.subnet_parallel;
            acc.pool_steals += s.pool_steals;
            acc.pool_failed_steals += s.pool_failed_steals;
            acc.pool_park_waits += s.pool_park_waits;
            acc
        });
        metrics.extend([
            Metric::new("system.step_us", tracer.median_us("system.step"), "us"),
            Metric::new("sim_ipc", Some(per_system(&traced, |o| o.ipc)), "instr/cycle"),
            Metric::new(
                "sim_miss_latency_cycles",
                Some(per_system(&traced, |o| o.miss_latency)),
                "cycles",
            ),
            Metric::new(
                "system.misses_completed",
                Some(per_system(&traced, |o| o.misses_completed as f64)),
                "count",
            ),
            Metric::new(
                "dispatch.phase_parallel_frac",
                frac(d.phase_parallel, d.phase_serial + d.phase_parallel),
                "ratio",
            ),
            Metric::new(
                "dispatch.subnet_parallel_frac",
                frac(d.subnet_parallel, d.subnet_serial + d.subnet_parallel),
                "ratio",
            ),
            Metric::new(
                "pool.steal_success_ratio",
                frac(d.pool_steals, d.pool_steals + d.pool_failed_steals),
                "ratio",
            ),
            Metric::new(
                "pool.park_waits",
                Some(d.pool_park_waits as f64 / traced.len() as f64),
                "count/op",
            ),
            Metric::new("multinoc.sleep_frac", replay::sleep_frac(&tracer), "ratio"),
            Metric::new("power.accounting_us", tracer.median_us("power.accounting"), "us"),
            Metric::new("trace_overhead", Some(window(&traced) / window(&untraced)), "ratio"),
        ]);
        let diverged = traced.iter().zip(&untraced).filter(|(t, u)| t.bytes != u.bytes).count();
        let failed = mismatches(&untraced) + diverged as u64;
        ((untraced.len() + traced.len()) as u64, failed, tracer)
    } else {
        // Set-ups are timed in batches between the ops, so the median
        // samples the host over the whole run rather than its start.
        let mut setup = Vec::new();
        let mut tracer = Tracer::new(false);
        let t = Instant::now();
        let mut ops = Vec::new();
        while ops.len() < MIN_OPS || t.elapsed().as_secs_f64() < ctx.seconds {
            for k in 0..SETUPS_PER_OP {
                let t = Instant::now();
                let sys = build(seeds[k % MIX_SYSTEMS]);
                setup.push(t.elapsed().as_secs_f64());
                drop(sys);
            }
            let seed = seeds[ops.len() % MIX_SYSTEMS];
            ops.push(run_op(seed, WARMUP, MEASURE, ops.len() as u64, &mut tracer));
        }
        let rates: Vec<f64> = ops.iter().map(|o| MEASURE as f64 / o.window_s).collect();
        let op_rates: Vec<f64> = ops.iter().map(|o| 1.0 / o.op_s).collect();
        metrics.extend([
            Metric::new("setup_s", stats::median(&setup), "s"),
            Metric::new("jobs_per_s", stats::median(&op_rates), "1/s"),
            Metric::new("sim_cycles_per_s", stats::median(&rates), "cycles/s"),
            Metric::new("peak_rss_mb", host::peak_rss_mb(None), "MiB"),
            Metric::new("sim_net_power_w", Some(per_system(&ops, |o| o.power_w)), "W"),
        ]);
        (ops.len() as u64, mismatches(&ops), tracer)
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_ops_give_identical_result_bytes() {
        let mut tracer = Tracer::new(true);
        let traced = run_op(3, 100, 200, 0, &mut tracer);
        let untraced = run_op(3, 100, 200, 0, &mut Tracer::new(false));
        assert_eq!(traced.bytes, untraced.bytes);
        assert_eq!(tracer.count("system.step"), 300);
        assert_ne!(run_op(4, 100, 200, 0, &mut Tracer::new(false)).bytes, untraced.bytes);
    }
}
