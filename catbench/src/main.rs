//! `catbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! catbench --workload NAME --seed N --seconds S --trace 0|1 [--serve-bin PATH]
//! ```
//!
//! Drives one of the three user paths from outside, through public
//! functions only, for `--seconds` seconds of measurement:
//!
//! * `mix_heavy` — the closed-loop Heavy Table-3 mix on gated
//!   `catnap-4x128`, in-process, as `catnap_bench::run_mix` runs it;
//! * `serve_light` — one closed-loop client over TCP to a spawned
//!   `catnap-serve --tcp`, sending light jobs that miss, resume and
//!   repeat;
//! * `hive_sweep` — `catnap_hive::run_sweep` over two spawned workers.
//!
//! Inputs come from `--seed` alone. Every result is checked (see each
//! workload). With `--trace 0` the end-to-end metrics are measured with
//! tracing off; with `--trace 1` a separate traced run records spans
//! around the calls into each layer and reports the per-layer metrics
//! plus `trace_overhead`, and writes every span to
//! `.catbench/trace-<workload>-<seed>.json`. The provenance line comes
//! first; the last stdout line is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! It holds every metric of its kind that `BENCHMARK.json` lists, on
//! every workload (see `manifest`).
//! `layers.json` beside this package maps each per-layer metric to the
//! end-to-end metrics it should move.

mod check;
mod gen;
mod hive;
mod host;
mod manifest;
mod mix;
mod replay;
mod serve;
mod stats;
mod trace;

use catnap_util::Json;
use std::path::{Path, PathBuf};
use std::process::exit;
use trace::Tracer;

/// One reported figure. `value` is `None` when the run could not
/// measure it; the result is then marked incorrect.
pub struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
}

impl Metric {
    /// A metric named `name` in `unit`.
    pub fn new(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted (ops, jobs).
    pub attempted: u64,
    /// Operations that failed: wrong bytes, error responses, transport
    /// failures, jobs lost with a dead worker.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The spans and counters of a traced run.
    pub tracer: Tracer,
}

/// The run's settings.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `catnap-serve` binary.
    pub serve_bin: PathBuf,
    /// Scratch directory of this run (removed at the end).
    pub work: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory `name` under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: catbench --workload mix_heavy|serve_light|hive_sweep --seed N --seconds S --trace 0|1 \
         [--serve-bin PATH]"
    );
    exit(2);
}

fn parse<T: std::str::FromStr>(value: Option<String>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut serve_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = Some(parse::<u64>(args.next())),
            "--seconds" => seconds = Some(parse::<f64>(args.next())),
            "--trace" => trace = Some(parse::<u8>(args.next())),
            "--serve-bin" => serve_bin = args.next().map(PathBuf::from),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace @ (0 | 1))) = (workload, seed, seconds, trace) else {
        usage()
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    let serve_bin = serve_bin.unwrap_or_else(catnap_hive::default_worker_bin);
    let out_dir = PathBuf::from(".catbench");
    let ctx = Ctx {
        seed,
        seconds,
        trace: trace == 1,
        serve_bin,
        work: out_dir.join(format!("run-{}", std::process::id())),
    };
    let run: fn(&Ctx) -> Result<Outcome, String> = match workload.as_str() {
        "mix_heavy" => mix::run,
        "serve_light" => serve::run,
        "hive_sweep" => hive::run,
        _ => usage(),
    };

    let provenance = host::provenance(Path::new("."));
    println!(
        "{}",
        Json::Obj(vec![
            ("workload".to_string(), Json::Str(workload.clone())),
            ("seed".to_string(), Json::Int(seed as i64)),
            ("trace".to_string(), Json::Bool(ctx.trace)),
            ("provenance".to_string(), provenance.clone()),
        ])
        .to_compact_string()
    );

    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut outcome = result.unwrap_or_else(|e| {
        eprintln!("catbench: {workload}: {e}");
        exit(1);
    });

    if ctx.trace {
        let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        outcome.metrics.push(Metric::new("error_rate", Some(error_rate), "ratio"));
        for (name, (count, total, self_ms)) in outcome.tracer.summary() {
            eprintln!("span {name:<24} n={count:<8} total={total:>10.2}ms self={self_ms:>10.2}ms");
        }
        let path = out_dir.join(format!("trace-{workload}-{seed}.json"));
        let written = std::fs::create_dir_all(&out_dir).and_then(|()| outcome.tracer.write_chrome(&path, &provenance));
        if let Err(e) = written {
            eprintln!("catbench: cannot write {}: {e}", path.display());
        }
    }

    let (metrics, problems) = manifest::result_metrics(&workload, ctx.trace, &outcome.metrics);
    for p in &problems {
        eprintln!("catbench: {workload}: {p}");
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0 && problems.is_empty();
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::Int(outcome.attempted as i64)),
            ("failed".to_string(), Json::Int(outcome.failed as i64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_compact_string()
    );
}
