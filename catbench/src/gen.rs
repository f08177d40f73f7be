//! Workload inputs, generated from the run's `--seed` alone.
//!
//! Each workload draws from its own named stream of the seed, so the
//! same seed always yields the same job lines, load orders and system
//! seed, and the programs under test see only those generated inputs.

use catnap_bench::{sweep_requests, JobRequest};
use catnap_traffic::{LoadSchedule, SyntheticPattern};
use catnap_util::{Json, SimRng};
use std::collections::VecDeque;

/// Systems a `mix_heavy` run cycles through.
pub const MIX_SYSTEMS: usize = 4;

/// The `System` seeds of `mix_heavy`.
pub fn mix_seeds(seed: u64) -> [u64; MIX_SYSTEMS] {
    let mut rng = SimRng::stream(seed, "mix_heavy");
    std::array::from_fn(|_| rng.next_u64())
}

/// One `catnap-serve` request.
#[derive(Clone, Debug)]
pub struct ServeJob {
    /// Request id, in send order.
    pub id: u64,
    /// The job as sent.
    pub request: JobRequest,
    /// The full request line (no newline).
    pub line: String,
}

/// Request line for job `id`: `{"id": id, "job": {…}}`.
pub fn request_line(id: u64, request: &JobRequest) -> String {
    Json::Obj(vec![
        ("id".to_string(), Json::Int(id as i64)),
        ("job".to_string(), request.to_job_json()),
    ])
    .to_compact_string()
}

/// Jobs of one block after its first-time job: resumes of its warm-up,
/// then exact repeats of earlier jobs. One of each, so the three cache
/// outcomes are equal shares of the stream (see [`ServeJobs`]).
const RESUMES_PER_BLOCK: usize = 1;
const REPEATS_PER_BLOCK: usize = 1;
/// Offered loads a light job draws from (packets/node/cycle, ≤ 0.04).
const LIGHT_RATES: [f64; 8] = [0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04];
/// Configurations a block runs on.
const LIGHT_CONFIGS: [&str; 2] = ["catnap-2x128-64core", "catnap-4x128"];
/// Warm-up lengths a block uses; its measured window makes the job
/// [`LIGHT_CYCLES`] long.
const LIGHT_WARMUPS: [u64; 5] = [200, 250, 300, 350, 400];
/// Cycles of every job, warm-up plus measurement.
const LIGHT_CYCLES: u64 = 600;

/// The endless `serve_light` job stream, made in blocks of three: one
/// job the server has never seen (a cache miss), one that shares its
/// warm-up prefix and differs only after it (a checkpoint resume), and
/// one exact repeat of a job sent earlier (an in-memory memo answer).
///
/// The equal shares are an assumption, not a measured client mix: the
/// repository holds no client trace, and `perf_serve`'s shape (one
/// warm-up shared by fifteen resumes, then the whole sweep again) is one
/// sweep rather than a stream. Equal shares favour no outcome in
/// `job_p50_ms`/`job_p95_ms`, and give each outcome enough samples for
/// a p95 of its own in the traced run, so a later gain can be placed on
/// the outcome it speeds up whatever the mix. Every ten blocks cover
/// each configuration × warm-up pair once, in a seed-drawn order, so the
/// mix of job sizes is the same for every seed and only its order, rates
/// and simulation seeds vary.
pub struct ServeJobs {
    rng: SimRng,
    next_id: u64,
    shapes: Vec<(&'static str, u64)>,
    sent: Vec<JobRequest>,
    pending: VecDeque<JobRequest>,
}

impl ServeJobs {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> ServeJobs {
        ServeJobs {
            rng: SimRng::stream(seed, "serve_light"),
            next_id: 0,
            shapes: Vec::new(),
            sent: Vec::new(),
            pending: VecDeque::new(),
        }
    }

    fn refill(&mut self) {
        let rng = &mut self.rng;
        if self.shapes.is_empty() {
            self.shapes = LIGHT_CONFIGS
                .iter()
                .flat_map(|&c| LIGHT_WARMUPS.iter().map(move |&w| (c, w)))
                .collect();
            rng.shuffle(&mut self.shapes);
        }
        let (config, warmup) = self.shapes.pop().expect("refilled above");
        let measure = LIGHT_CYCLES - warmup;
        let seed = rng.u64_below(1 << 32);
        let warm_rate = *rng.choose(&LIGHT_RATES);
        let mut rates = LIGHT_RATES;
        rng.shuffle(&mut rates);
        let block: Vec<JobRequest> = rates[..=RESUMES_PER_BLOCK]
            .iter()
            .map(|&rate| JobRequest {
                config: config.to_string(),
                gating: true,
                threads: 1,
                pattern: SyntheticPattern::UniformRandom,
                schedule: LoadSchedule::piecewise(vec![(0, warm_rate), (warmup, rate)]),
                packet_bits: 512,
                warmup,
                measure,
                seed,
            })
            .collect();
        self.sent.extend(block.iter().cloned());
        self.pending.extend(block);
        for _ in 0..REPEATS_PER_BLOCK {
            let earlier = self.rng.choose(&self.sent).clone();
            self.pending.push_back(earlier);
        }
    }
}

impl Iterator for ServeJobs {
    type Item = ServeJob;

    fn next(&mut self) -> Option<ServeJob> {
        if self.pending.is_empty() {
            self.refill();
        }
        let request = self.pending.pop_front()?;
        let id = self.next_id;
        self.next_id += 1;
        let line = request_line(id, &request);
        Some(ServeJob { id, request, line })
    }
}

/// Loads of a `hive_sweep` sweep: 0.02 to 0.32 in steps of 0.02, from
/// light load to past saturation.
pub const HIVE_LOADS: usize = 16;
/// Warm-up and measured cycles of every sweep point.
pub const HIVE_WARMUP: u64 = 1_000;
/// Measured cycles of every sweep point.
pub const HIVE_MEASURE: u64 = 2_000;

/// Sweep number `sweep` of a `hive_sweep` run: a constant-load
/// uniform-random sweep on gated `catnap-4x128`, its loads in a
/// seed-drawn order, under a job seed of its own so no job repeats
/// across sweeps.
pub fn hive_sweep(seed: u64, sweep: u64) -> Vec<JobRequest> {
    let mut rng = SimRng::stream(seed, &format!("hive_sweep/{sweep}"));
    let mut loads: Vec<f64> = (1..=HIVE_LOADS).map(|i| (2 * i) as f64 / 100.0).collect();
    rng.shuffle(&mut loads);
    let job_seed = rng.u64_below(1 << 32);
    sweep_requests(
        "catnap-4x128",
        true,
        SyntheticPattern::UniformRandom,
        &loads,
        512,
        HIVE_WARMUP,
        HIVE_MEASURE,
        job_seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64, n: usize) -> Vec<String> {
        ServeJobs::new(seed).take(n).map(|j| j.line).collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_job_lines() {
        assert_eq!(lines(11, 240), lines(11, 240));
        assert_ne!(lines(11, 240), lines(12, 240));
        let sweep = |seed, i| hive_sweep(seed, i).iter().map(|r| request_line(0, r)).collect::<Vec<_>>();
        assert_eq!(sweep(3, 1), sweep(3, 1));
        assert_ne!(sweep(3, 1), sweep(3, 2));
        assert_eq!(mix_seeds(5), mix_seeds(5));
        assert_ne!(mix_seeds(5), mix_seeds(6));
    }

    #[test]
    fn serve_blocks_mix_first_time_resumed_and_repeated_jobs() {
        let jobs: Vec<ServeJob> = ServeJobs::new(1).take(60).collect();
        let distinct: std::collections::HashSet<String> =
            jobs.iter().map(|j| j.request.to_job_json().to_compact_string()).collect();
        // Twenty blocks: two distinct jobs and one repeat each.
        assert_eq!(distinct.len(), 40);
        for (k, block) in jobs.chunks(3).enumerate() {
            let warm = |j: &ServeJob| (j.request.seed, j.request.schedule.segments()[0]);
            assert_eq!(warm(&block[1]), warm(&block[0]));
            assert_ne!(block[1].line, block[0].line);
            let key = |j: &ServeJob| j.request.to_job_json().to_compact_string();
            assert!(jobs[..3 * k + 2].iter().any(|j| key(j) == key(&block[2])));
        }
        assert!(jobs
            .iter()
            .all(|j| j.request.schedule.segments().iter().all(|&(_, r)| r <= 0.04)));
    }

    #[test]
    fn hive_sweep_covers_every_load_once() {
        let mut loads: Vec<f64> = hive_sweep(9, 0).iter().map(|r| r.schedule.rate_at(0)).collect();
        loads.sort_by(f64::total_cmp);
        assert_eq!(loads.len(), HIVE_LOADS);
        assert_eq!((loads[0], loads[HIVE_LOADS - 1]), (0.02, 0.32));
    }
}
