//! Serving-layer perf: what checkpoint resume and result memoization
//! buy on a batch sweep, written to `bench_out/perf_serve.json`.
//!
//! The workload is the serving-path archetype: a 16-point sweep whose
//! points share an expensive warm-up prefix (high load, slow per-cycle)
//! and differ only in a light measurement phase. Three passes over the
//! same jobs are timed:
//!
//! * **uncached** — every point simulates warm-up + measurement from
//!   cycle 0 (the pre-caching behaviour).
//! * **cold cache** — the first point simulates and checkpoints its
//!   warm-up; the other fifteen resume from it and simulate only their
//!   measurement windows.
//! * **warm cache** — every point is a fingerprint-keyed result hit;
//!   nothing simulates.
//!
//! Every cached point is asserted byte-identical to its uncached
//! counterpart before any timing is reported — the speedups are for
//! *the same answers*.

use catnap::{MultiNocConfig, SimCache};
use catnap_bench::{emit_json, print_banner, run_job_uncached, sweep_cached, CacheOutcome, SimJob, Table};
use catnap_traffic::{LoadSchedule, SyntheticPattern};
use catnap_util::json::ToJson;
use std::time::Instant;

/// The report written to `bench_out/perf_serve.json`.
#[derive(Clone, Debug)]
struct PerfServe {
    points: u64,
    warmup_cycles: u64,
    measure_cycles: u64,
    uncached_ms: f64,
    cold_cache_ms: f64,
    warm_cache_ms: f64,
    warm_resume_speedup: f64,
    cache_hit_speedup: f64,
    cold_misses: u64,
    cold_resumes: u64,
    warm_hits: u64,
}

catnap_util::impl_to_json_struct!(PerfServe {
    points,
    warmup_cycles,
    measure_cycles,
    uncached_ms,
    cold_cache_ms,
    warm_cache_ms,
    warm_resume_speedup,
    cache_hit_speedup,
    cold_misses,
    cold_resumes,
    warm_hits,
});

const POINTS: usize = 16;
const WARMUP: u64 = 1_500;
const MEASURE: u64 = 500;
const WARM_RATE: f64 = 0.25;

fn jobs() -> Vec<SimJob> {
    (0..POINTS)
        .map(|i| {
            let rate = 0.005 + 0.0025 * i as f64;
            SimJob {
                cfg: MultiNocConfig::catnap_4x128().gating(true),
                pattern: SyntheticPattern::UniformRandom,
                schedule: LoadSchedule::piecewise(vec![(0, WARM_RATE), (WARMUP, rate)]),
                packet_bits: 512,
                warmup: WARMUP,
                measure: MEASURE,
                seed: 7,
            }
        })
        .collect()
}

fn main() {
    print_banner(
        "perf_serve",
        "checkpoint-resume and result-cache speedups on a shared-warm-up sweep",
    );

    let jobs = jobs();
    let cache_dir = std::env::temp_dir().join(format!("catnap-perf-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let mut cache = SimCache::new(&cache_dir, 64).expect("create bench cache");

    let t0 = Instant::now();
    let uncached: Vec<_> = jobs.iter().map(run_job_uncached).collect();
    let uncached_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let cold = sweep_cached(&mut cache, &jobs);
    let cold_cache_ms = t1.elapsed().as_secs_f64() * 1e3;

    let t2 = Instant::now();
    let warm = sweep_cached(&mut cache, &jobs);
    let warm_cache_ms = t2.elapsed().as_secs_f64() * 1e3;

    // Correctness before speed: every cached answer must be the
    // uncached answer, byte for byte.
    for (i, (reference, (point, _))) in uncached.iter().zip(&cold).enumerate() {
        assert_eq!(
            reference.to_json().to_compact_string(),
            point.to_json().to_compact_string(),
            "resumed point {i} diverged from straight-through"
        );
    }
    for (i, (reference, (point, _))) in uncached.iter().zip(&warm).enumerate() {
        assert_eq!(
            reference.to_json().to_compact_string(),
            point.to_json().to_compact_string(),
            "cache-hit point {i} diverged from straight-through"
        );
    }
    let cold_misses = cold.iter().filter(|(_, o)| *o == CacheOutcome::Miss).count() as u64;
    let cold_resumes = cold.iter().filter(|(_, o)| *o == CacheOutcome::Resume).count() as u64;
    let warm_hits = warm.iter().filter(|(_, o)| *o == CacheOutcome::Hit).count() as u64;
    assert_eq!(cold_misses, 1, "exactly one point should pay the warm-up");
    assert_eq!(cold_resumes, POINTS as u64 - 1, "all other points should resume");
    assert_eq!(warm_hits, POINTS as u64, "second submission should be all hits");

    let warm_resume_speedup = uncached_ms / cold_cache_ms.max(1e-9);
    let cache_hit_speedup = uncached_ms / warm_cache_ms.max(1e-9);

    let mut table = Table::new(["pass", "wall ms", "speedup", "outcomes"]);
    table
        .row([
            "uncached".to_string(),
            format!("{uncached_ms:.1}"),
            "1.00x".to_string(),
            format!("{POINTS} full runs"),
        ])
        .row([
            "cold cache".to_string(),
            format!("{cold_cache_ms:.1}"),
            format!("{warm_resume_speedup:.2}x"),
            format!("{cold_misses} miss + {cold_resumes} resume"),
        ])
        .row([
            "warm cache".to_string(),
            format!("{warm_cache_ms:.1}"),
            format!("{cache_hit_speedup:.2}x"),
            format!("{warm_hits} hits"),
        ]);
    table.print();
    println!("\nwarm-resume speedup: {warm_resume_speedup:.2}x (target >= 5x)");
    println!("cache-hit speedup:   {cache_hit_speedup:.2}x (target >= 50x)");

    assert!(
        warm_resume_speedup >= 5.0,
        "shared warm-up resume must be >= 5x; got {warm_resume_speedup:.2}x"
    );
    assert!(
        cache_hit_speedup >= 50.0,
        "result-cache hits must be >= 50x; got {cache_hit_speedup:.2}x"
    );

    let report = PerfServe {
        points: POINTS as u64,
        warmup_cycles: WARMUP,
        measure_cycles: MEASURE,
        uncached_ms,
        cold_cache_ms,
        warm_cache_ms,
        warm_resume_speedup,
        cache_hit_speedup,
        cold_misses,
        cold_resumes,
        warm_hits,
    };
    emit_json("perf_serve", &report);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
