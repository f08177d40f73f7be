//! The simulator core under one job, replayed in-process with spans.
//!
//! A job's cycles are re-run the way `catnap_bench::run_job_uncached`
//! runs them — `SyntheticWorkload::drive` then `MultiNoc::step`, once per
//! cycle — with a span around each call, a `power_state_census` sample
//! every [`CENSUS_EVERY`] cycles, and `power_between` over the measured
//! window. With a cache given, the warm-up is also checkpointed, stored,
//! read back and resumed from (the path a cache `resume` takes), and the
//! rest of the job runs on the resumed network.

use crate::trace::Tracer;
use crate::Metric;
use catnap::{MultiNoc, SimCache};
use catnap_bench::cached::warmup_fingerprint;
use catnap_bench::SimJob;
use catnap_power::TechParams;
use catnap_traffic::SyntheticWorkload;

/// Cycles between two router power-state census samples.
pub const CENSUS_EVERY: u64 = 16;

/// Adds one census sample of `net`'s routers to the tracer's counters.
pub fn census(net: &MultiNoc, tracer: &mut Tracer) {
    let (active, sleeping, waking) = net.power_state_census();
    tracer.registry.inc("census.sleeping", sleeping as u64);
    tracer.registry.inc("census.routers", (active + sleeping + waking) as u64);
}

fn run_cycles(net: &mut MultiNoc, load: &mut SyntheticWorkload, cycles: u64, request: u64, tracer: &mut Tracer) {
    for _ in 0..cycles {
        tracer.span("traffic.drive", request, || load.drive(net));
        tracer.span("multinoc.step", request, || net.step());
        if net.cycle().is_multiple_of(CENSUS_EVERY) {
            census(net, tracer);
        }
    }
}

/// Replays `job` under span `replay.job` for `request`.
///
/// # Errors
///
/// A description of the failure if the checkpoint round trip through
/// `cache` does not restore the simulation.
pub fn replay(job: &SimJob, request: u64, tracer: &mut Tracer, cache: Option<&mut SimCache>) -> Result<(), String> {
    let open = tracer.begin("replay.job", request);
    let mut net = MultiNoc::new(job.cfg.clone());
    let mut load =
        SyntheticWorkload::with_schedule(job.pattern, job.schedule.clone(), job.packet_bits, net.dims(), job.seed);
    let start = net.snapshot();
    run_cycles(&mut net, &mut load, job.warmup, request, tracer);
    if let Some(cache) = cache {
        let blob = tracer.span("checkpoint.save", request, || {
            net.save_checkpoint(&load.encode_position())
        });
        tracer.registry.inc("checkpoint.saves", 1);
        tracer.registry.inc("checkpoint.bytes", blob.len() as u64);
        let key = warmup_fingerprint(job);
        tracer
            .span("cache.put_checkpoint", request, || cache.put_checkpoint(key, &blob))
            .map_err(|e| format!("storing a checkpoint: {e}"))?;
        let stored = tracer
            .span("cache.get_checkpoint", request, || cache.get_checkpoint(key))
            .ok_or("a stored checkpoint could not be read back")?;
        let (resumed, driver) = tracer
            .span("checkpoint.resume", request, || {
                MultiNoc::resume_from(job.cfg.clone(), &stored)
            })
            .map_err(|e| format!("resuming a checkpoint: {e}"))?;
        load =
            SyntheticWorkload::decode_position(job.pattern, job.schedule.clone(), job.packet_bits, net.dims(), &driver)
                .map_err(|e| format!("decoding a traffic position: {e}"))?;
        net = resumed;
    }
    let window_start = net.snapshot();
    run_cycles(&mut net, &mut load, job.measure, request, tracer);
    let end = net.snapshot();
    tracer.span("power.accounting", request, || {
        net.power_between(&window_start, &end, TechParams::catnap_32nm())
    });
    let d = end.delta(&start);
    let hops: u64 = d.activity_per_subnet.iter().map(|a| a.xbar_traversals).sum();
    tracer.registry.inc("multinoc.cycles", d.cycle);
    tracer.registry.inc("multinoc.flit_hops", hops);
    tracer.end(open);
    Ok(())
}

/// Share of sampled routers that were asleep.
pub fn sleep_frac(tracer: &Tracer) -> Option<f64> {
    let routers = tracer.registry.counter("census.routers");
    (routers > 0).then(|| tracer.registry.counter("census.sleeping") as f64 / routers as f64)
}

/// The simulator-core layer metrics of replayed jobs.
pub fn core_metrics(tracer: &Tracer, out: &mut Vec<Metric>) {
    let r = &tracer.registry;
    let hops = r.counter("multinoc.flit_hops");
    let cycles = r.counter("multinoc.cycles");
    let step_ns = tracer.total_ms("multinoc.step") * 1e6;
    out.push(Metric::new("multinoc.step_us", tracer.median_us("multinoc.step"), "us"));
    out.push(Metric::new("traffic.drive_us", tracer.median_us("traffic.drive"), "us"));
    out.push(Metric::new(
        "multinoc.flit_hops_per_cycle",
        (cycles > 0).then(|| hops as f64 / cycles as f64),
        "1/cycle",
    ));
    out.push(Metric::new(
        "multinoc.ns_per_flit_hop",
        (hops > 0).then(|| step_ns / hops as f64),
        "ns",
    ));
    out.push(Metric::new("multinoc.sleep_frac", sleep_frac(tracer), "ratio"));
    out.push(Metric::new(
        "power.accounting_us",
        tracer.median_us("power.accounting"),
        "us",
    ));
}

/// The checkpoint and checkpoint-cache layer metrics of replayed jobs.
pub fn checkpoint_metrics(tracer: &Tracer, out: &mut Vec<Metric>) {
    let saves = tracer.registry.counter("checkpoint.saves");
    out.push(Metric::new(
        "checkpoint.save_ms",
        tracer.median_ms("checkpoint.save"),
        "ms",
    ));
    out.push(Metric::new(
        "checkpoint.resume_ms",
        tracer.median_ms("checkpoint.resume"),
        "ms",
    ));
    out.push(Metric::new(
        "checkpoint.bytes",
        (saves > 0).then(|| tracer.registry.counter("checkpoint.bytes") as f64 / saves as f64),
        "bytes",
    ));
    out.push(Metric::new(
        "cache.put_checkpoint_ms",
        tracer.median_ms("cache.put_checkpoint"),
        "ms",
    ));
    out.push(Metric::new(
        "cache.get_checkpoint_ms",
        tracer.median_ms("cache.get_checkpoint"),
        "ms",
    ));
}
