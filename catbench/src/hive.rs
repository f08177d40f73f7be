//! `hive_sweep`: `catnap_hive::run_sweep` over two spawned workers.
//!
//! Each sweep runs on a fresh `ProcessFleet` of [`WORKERS`]
//! `catnap-serve --tcp` processes sharing one fresh cache directory. Each sweep is a constant-load
//! uniform-random latency sweep on gated `catnap-4x128` from light load
//! to past saturation, its loads in a seed-drawn order and its job seed
//! its own, so every job of the run is unique and the cache is only
//! written. Sweeps repeat for `--seconds` (at least [`MIN_SWEEPS`]).
//! Every result must equal its reference bytes (`check::references`).
//! A dispatch a worker fails (a transport failure, or a worker that dies
//! with the job) counts as failed even when the job then succeeds on
//! another worker; a sweep that fails loses all its jobs. A job is one
//! sweep point; `sim_cycles_per_s` counts the warm-up and measured
//! cycles of a sweep's points, and `sim_net_power_w` is the mean
//! modelled network power of their results.
//!
//! The traced run alternates untraced and traced sweeps, each on a
//! fresh fleet, for `--seconds` (at least [`MIN_SWEEPS`] of each), so
//! drift in host speed weighs on both sides of `trace_overhead` alike.
//! The workers are other processes, so a traced sweep carries one span
//! around `run_sweep`; `trace_overhead` shows that the harness adds
//! nothing there. It pings each worker of the first traced fleet, and
//! replays the first traced sweep's jobs in-process (`replay`) to weigh
//! the workers' busy time.

use crate::check::{net_power_w, references};
use crate::gen;
use crate::replay;
use crate::trace::Tracer;
use crate::{host, stats, Ctx, Metric, Outcome};
use catnap_bench::JobRequest;
use catnap_hive::{ping, run_sweep, Connection, HiveConfig, ProcessFleet, SweepOutcome};
use catnap_serve::parse_job;
use catnap_util::SimRng;
use std::time::{Duration, Instant};

/// Workers in the fleet.
pub const WORKERS: usize = 2;
/// Fewest sweeps a measured run makes.
const MIN_SWEEPS: usize = 2;
/// Fleet start-ups timed for `setup_s` before each sweep.
const SETUPS_PER_SWEEP: usize = 12;
/// Pings per worker timed for `hive.ping_ms`.
const PINGS: usize = 20;
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Spawns the fleet on a fresh cache directory `name` and pings every
/// worker once. Returns the seconds that took.
fn start(ctx: &Ctx, name: &str, tracer: &mut Tracer) -> Result<(ProcessFleet, f64), String> {
    let cache = ctx.fresh_dir(name);
    let t = Instant::now();
    let open = tracer.begin("hive.spawn", 0);
    let fleet =
        ProcessFleet::spawn(WORKERS, &ctx.serve_bin, &cache).map_err(|e| format!("cannot spawn the fleet: {e}"))?;
    tracer.end(open);
    for addr in fleet.addrs() {
        let mut conn = Connection::open(&addr, CONNECT_TIMEOUT, REQUEST_TIMEOUT)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        tracer
            .span("hive.ping", 0, || ping(&mut conn))
            .map_err(|e| format!("ping {addr}: {e}"))?;
    }
    Ok((fleet, t.elapsed().as_secs_f64()))
}

fn stop(fleet: ProcessFleet) {
    fleet.shutdown(Duration::from_secs(5));
}

fn hive_config(seed: u64) -> HiveConfig {
    HiveConfig {
        request_timeout: REQUEST_TIMEOUT,
        seed: SimRng::stream(seed, "hive_backoff").next_u64(),
        ..HiveConfig::default()
    }
}

/// One sweep: its requests, outcome and wall time.
struct Sweep {
    requests: Vec<JobRequest>,
    outcome: Result<SweepOutcome, String>,
    wall_s: f64,
}

fn sweep(fleet: &ProcessFleet, ctx: &Ctx, index: u64, tracer: &mut Tracer) -> Sweep {
    let requests = gen::hive_sweep(ctx.seed, index);
    let cfg = hive_config(ctx.seed);
    let addrs = fleet.addrs();
    let t = Instant::now();
    let outcome = tracer.span("hive.sweep", index, || run_sweep(&addrs, &requests, &cfg));
    let wall_s = t.elapsed().as_secs_f64();
    Sweep {
        requests,
        outcome: outcome.map_err(|e| e.to_string()),
        wall_s,
    }
}

/// Dispatches of a sweep: one per job, plus one per job handed back to
/// the queue after a worker failed it.
fn dispatches(s: &Sweep) -> u64 {
    s.requests.len() as u64 + s.outcome.as_ref().map_or(0, |o| o.stats.redispatches)
}

/// Failed dispatches among `sweeps`: jobs a worker failed or took down
/// with it, and results that are missing or differ from the reference.
fn count_bad(sweeps: &[&Sweep]) -> Result<u64, String> {
    let refs = references(&sweeps.iter().flat_map(|s| &s.requests).collect::<Vec<_>>())?;
    let mut bad = 0;
    for s in sweeps {
        match &s.outcome {
            Err(e) => {
                eprintln!("catbench: hive_sweep: sweep failed: {e}");
                bad += s.requests.len() as u64;
            }
            Ok(out) => {
                if out.stats.redispatches > 0 {
                    eprintln!(
                        "catbench: hive_sweep: {} dispatches failed, {} workers died",
                        out.stats.redispatches, out.stats.dead_workers
                    );
                }
                bad += out.stats.redispatches;
                for (i, r) in s.requests.iter().enumerate() {
                    let expected = &refs[&r.to_job_json().to_compact_string()];
                    if out.results.get(i).map(|j| j.to_compact_string()).as_ref() != Some(expected) {
                        bad += 1;
                    }
                }
            }
        }
    }
    Ok(bad)
}

/// Mean modelled network power over the results of `sweeps`; `None` if
/// a sweep failed or a result carries none.
fn mean_power_w(sweeps: &[Sweep]) -> Option<f64> {
    let mut powers = Vec::new();
    for s in sweeps {
        for r in &s.outcome.as_ref().ok()?.results {
            powers.push(net_power_w(r)?);
        }
    }
    (!powers.is_empty()).then(|| powers.iter().sum::<f64>() / powers.len() as f64)
}

/// Runs the workload.
///
/// # Errors
///
/// Why the fleet could not be started.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.trace {
        return run_traced(ctx);
    }
    let mut off = Tracer::new(false);
    let mut setup = Vec::new();
    // Each sweep gets a fleet of its own, as `catnap-hive sweep --spawn`
    // does, so a worker lost in one sweep does not slow the next.
    let (mut sweeps, mut rss, mut measured) = (Vec::new(), None::<f64>, 0.0);
    while sweeps.len() < MIN_SWEEPS || measured < ctx.seconds {
        // Start-ups are timed in batches between the sweeps, so the
        // median samples the host over the whole run: timed in one burst,
        // its median moved by half between two runs of the same seed.
        for _ in 0..SETUPS_PER_SWEEP {
            let (fleet, secs) = start(ctx, &format!("setup-{}", setup.len()), &mut off)?;
            setup.push(secs);
            stop(fleet);
        }
        let (fleet, _) = start(ctx, &format!("sweep-{}", sweeps.len()), &mut off)?;
        let s = sweep(&fleet, ctx, sweeps.len() as u64, &mut off);
        measured += s.wall_s;
        rss = host::children_peak_rss_mb("catnap-serve")
            .into_iter()
            .chain(rss)
            .reduce(f64::max);
        stop(fleet);
        sweeps.push(s);
    }

    let failed = count_bad(&sweeps.iter().collect::<Vec<_>>())?;
    let rates: Vec<f64> = sweeps.iter().map(|s| s.requests.len() as f64 / s.wall_s).collect();
    let cycle_rates: Vec<f64> = sweeps
        .iter()
        .map(|s| s.requests.iter().map(|r| r.warmup + r.measure).sum::<u64>() as f64 / s.wall_s)
        .collect();
    let metrics = vec![
        Metric::new("setup_s", stats::median(&setup), "s"),
        Metric::new("jobs_per_s", stats::median(&rates), "1/s"),
        Metric::new("sim_cycles_per_s", stats::median(&cycle_rates), "cycles/s"),
        Metric::new("peak_rss_mb", rss, "MiB"),
        Metric::new("sim_net_power_w", mean_power_w(&sweeps), "W"),
    ];
    Ok(Outcome {
        attempted: sweeps.iter().map(dispatches).sum(),
        failed,
        metrics,
        tracer: off,
    })
}

fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let t = Instant::now();
    while traced.len() < MIN_SWEEPS || t.elapsed().as_secs_f64() < ctx.seconds {
        let index = traced.len() as u64;
        let (fleet, _) = start(ctx, &format!("untraced-{index}"), &mut off)?;
        untraced.push(sweep(&fleet, ctx, index, &mut off));
        stop(fleet);
        let (fleet, _) = start(ctx, &format!("traced-{index}"), &mut tracer)?;
        traced.push(sweep(&fleet, ctx, index, &mut tracer));
        if index == 0 {
            for addr in fleet.addrs() {
                let mut conn = Connection::open(&addr, CONNECT_TIMEOUT, REQUEST_TIMEOUT)
                    .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
                for i in 0..PINGS {
                    tracer
                        .span("hive.ping", i as u64, || ping(&mut conn))
                        .map_err(|e| format!("ping {addr}: {e}"))?;
                }
            }
        }
        stop(fleet);
    }

    let first = &traced[0];
    let mut replay_failed = 0;
    for (i, r) in first.requests.iter().enumerate() {
        let job = parse_job(&r.to_job_json())?;
        if let Err(e) = replay::replay(&job, i as u64, &mut tracer, None) {
            eprintln!("catbench: hive_sweep: replay: {e}");
            replay_failed += 1;
        }
    }
    let failed = count_bad(&untraced.iter().chain(&traced).collect::<Vec<_>>())? + replay_failed;

    let busy_s = tracer.total_ms("replay.job") / 1e3;
    let mut metrics = vec![
        Metric::new("hive.ping_ms", tracer.median_ms("hive.ping"), "ms"),
        Metric::new(
            "hive.worker_busy_frac",
            Some(busy_s / (WORKERS as f64 * first.wall_s)),
            "ratio",
        ),
    ];
    let stats = first.outcome.as_ref().ok().map(|o| &o.stats);
    let balance = stats.and_then(|s| {
        let (lo, hi) = (s.per_worker.iter().min()?, s.per_worker.iter().max()?);
        (*hi > 0).then(|| *lo as f64 / *hi as f64)
    });
    metrics.extend([
        Metric::new("hive.balance", balance, "ratio"),
        Metric::new("hive.retries", stats.map(|s| s.retries as f64), "count"),
        Metric::new(
            "hive.useful_ratio",
            stats.map(|s| s.jobs as f64 / (s.jobs as u64 + s.duplicates) as f64),
            "ratio",
        ),
    ]);
    replay::core_metrics(&tracer, &mut metrics);
    let wall = |sweeps: &[Sweep]| sweeps.iter().map(|s| s.wall_s).sum::<f64>();
    metrics.push(Metric::new(
        "trace_overhead",
        Some(wall(&traced) / wall(&untraced)),
        "ratio",
    ));
    Ok(Outcome {
        attempted: untraced.iter().chain(&traced).map(dispatches).sum::<u64>() + first.requests.len() as u64,
        failed,
        metrics,
        tracer,
    })
}
