//! `serve_light`: one closed-loop client over TCP to a spawned
//! `catnap-serve --tcp`.
//!
//! The server starts on an empty cache directory. The client sends the
//! seed's job stream (see `gen::ServeJobs`: first-time jobs, resumes of
//! their warm-up, exact repeats), one request at a time, each after the
//! previous answer — at least [`MIN_JOBS`] jobs and for at least
//! `--seconds`. Every answer must carry the reference result bytes
//! (`check::references`); a wrong, error or lost answer counts as
//! failed. A job is one request; `sim_cycles_per_s` counts the warm-up
//! and measured cycles of the answered jobs, and `sim_net_power_w` is
//! the mean modelled network power of their results.
//!
//! The traced run sends the stream's first [`MIN_JOBS`] jobs untraced
//! to one fresh server, then its first `TRACED_JOBS` (two hundred of
//! each cache outcome) to another with a span per round trip, and
//! reports each outcome's p50 and p95 besides the layer figures, and
//! the untraced pass's `job_p50_ms` and `job_p95_ms`. It
//! then sends the traced lines through an in-process `Server`, a
//! `catnap-serve` child over stdin, and the parser alone, and replays
//! each distinct job's cycles in-process (`replay`).

use crate::check::{net_power_w, references, response_ok};
use crate::gen::{ServeJob, ServeJobs};
use crate::replay;
use crate::trace::Tracer;
use crate::{host, stats, Ctx, Metric, Outcome};
use catnap::SimCache;
use catnap_hive::ProcessFleet;
use catnap_serve::{parse_job, Server};
use catnap_util::Json;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Fewest jobs a measured run sends: enough for ten samples beyond its
/// p95.
pub const MIN_JOBS: usize = 200;
/// Jobs of the traced pass: [`MIN_JOBS`] of each cache outcome, so each
/// outcome's p95 has ten samples beyond it.
const TRACED_JOBS: usize = 3 * MIN_JOBS;
/// Server start-ups timed for `setup_s` before every
/// [`JOBS_PER_SETUPS`] jobs.
const SETUPS_PER_BATCH: usize = 10;
const JOBS_PER_SETUPS: usize = 50;
/// Longest a single round trip may take before it counts as lost.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// The server's default cache capacity (`catnap-serve --max-entries`).
const CACHE_ENTRIES: usize = 512;

/// Sends one line, reads one line.
fn exchange(w: &mut impl Write, r: &mut impl BufRead, line: &str) -> io::Result<String> {
    let mut request = String::with_capacity(line.len() + 1);
    request.push_str(line);
    request.push('\n');
    w.write_all(request.as_bytes())?;
    w.flush()?;
    let mut reply = String::new();
    if r.read_line(&mut reply)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the stream"));
    }
    Ok(reply)
}

/// A `catnap-serve` child over stdin/stdout, the reference transport
/// for the TCP one; killed and reaped if dropped while still running.
pub struct StdinWorker {
    child: Child,
    pipe: Option<(ChildStdin, BufReader<ChildStdout>)>,
}

impl StdinWorker {
    /// Spawns `catnap-serve` over stdin/stdout on `cache`.
    ///
    /// # Errors
    ///
    /// Why the server could not be started.
    pub fn spawn(bin: &Path, cache: &Path) -> Result<StdinWorker, String> {
        let mut child = Command::new(bin)
            .arg("--cache")
            .arg(cache)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(StdinWorker {
            child,
            pipe: Some((stdin, stdout)),
        })
    }

    /// One round trip over the pipes.
    fn exchange(&mut self, line: &str) -> io::Result<String> {
        let (w, r) = self.pipe.as_mut().expect("pipes are open until finish");
        exchange(w, r, line)
    }

    /// Closes stdin and waits up to five seconds for the process to
    /// exit, then kills it.
    pub fn finish(mut self) {
        self.pipe = None;
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills it if it is still running and reaps it.
    }
}

impl Drop for StdinWorker {
    fn drop(&mut self) {
        self.pipe = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A TCP client of one `catnap-serve`: each request goes out in one
/// write. It is the benchmark's own rather than `catnap_hive::Connection`
/// so that `serve_light` measures the server alone.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from connecting.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request line and reads its answer.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on a transport failure or a closed stream.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        exchange(&mut self.stream, &mut self.reader, line)
    }
}

/// Starts a TCP server (a one-worker `ProcessFleet`) on a fresh cache
/// directory `name` and waits for its first `ping` answer. Returns the
/// seconds that took.
fn start(ctx: &Ctx, name: &str) -> Result<(ProcessFleet, Client, f64), String> {
    let cache = ctx.fresh_dir(name);
    let t = Instant::now();
    let fleet = ProcessFleet::spawn(1, &ctx.serve_bin, &cache).map_err(|e| format!("cannot start the server: {e}"))?;
    let addr = &fleet.addrs()[0];
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let pong = client
        .roundtrip(r#"{"id":"ping","cmd":"ping"}"#)
        .map_err(|e| format!("ping failed: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if Json::parse(&pong).ok().and_then(|j| j.get("pong").and_then(Json::as_bool)) != Some(true) {
        return Err(format!("malformed pong: {}", pong.trim()));
    }
    Ok((fleet, client, secs))
}

/// Closes the connection (the server takes one at a time), then asks
/// the server to exit and waits for it.
fn stop(fleet: ProcessFleet, client: Client) {
    drop(client);
    fleet.shutdown(Duration::from_secs(5));
}

/// The server's running counters, from `{"cmd": "stats"}`.
fn server_stats(client: &mut Client) -> Result<Json, String> {
    let reply = client
        .roundtrip(r#"{"id":"stats","cmd":"stats"}"#)
        .map_err(|e| format!("stats failed: {e}"))?;
    Json::parse(&reply)
        .ok()
        .and_then(|j| j.get("stats").cloned())
        .ok_or_else(|| format!("malformed stats reply: {}", reply.trim()))
}

/// A closed-loop pass: the jobs sent, in order, with the answers and
/// round-trip times of those answered.
#[derive(Default)]
struct Pass {
    jobs: Vec<ServeJob>,
    answers: Vec<String>,
    rtt_ms: Vec<f64>,
    /// Sum of the round trips, in seconds.
    busy_s: f64,
}

/// Cache outcomes a `serve_light` job can have, as the answer's `cache`
/// field names them, with the names of their per-outcome metrics.
const OUTCOMES: [(&str, &str, &str); 3] = [
    ("miss", "serve.miss_p50_ms", "serve.miss_p95_ms"),
    ("resume", "serve.resume_p50_ms", "serve.resume_p95_ms"),
    ("memo", "serve.memo_p50_ms", "serve.memo_p95_ms"),
];

impl Pass {
    /// Sends `job` and waits for its answer. Returns `false` if the job
    /// was lost to a transport failure.
    fn send(&mut self, client: &mut Client, job: ServeJob, tracer: &mut Tracer) -> bool {
        let sent = Instant::now();
        let answer = tracer.span("serve.request", job.id, || client.roundtrip(&job.line));
        let rtt = sent.elapsed().as_secs_f64();
        self.jobs.push(job);
        self.busy_s += rtt;
        match answer {
            Ok(a) => {
                self.answers.push(a);
                self.rtt_ms.push(rtt * 1e3);
                true
            }
            Err(e) => {
                eprintln!("catbench: serve_light: job lost: {e}");
                false
            }
        }
    }

    /// Round trips of the answers whose `cache` field is `outcome`.
    fn rtt_ms_of(&self, outcome: &str) -> Vec<f64> {
        self.answers
            .iter()
            .zip(&self.rtt_ms)
            .filter(|(a, _)| Json::parse(a).is_ok_and(|j| j.get("cache").and_then(Json::as_str) == Some(outcome)))
            .map(|(_, &rtt)| rtt)
            .collect()
    }
}

/// Mean modelled network power over the results of `answers`; `None`
/// if an answer carries none.
fn mean_power_w(answers: &[String]) -> Option<f64> {
    let powers = answers
        .iter()
        .map(|a| net_power_w(Json::parse(a).ok()?.get("result")?))
        .collect::<Option<Vec<f64>>>()?;
    (!powers.is_empty()).then(|| powers.iter().sum::<f64>() / powers.len() as f64)
}

/// Answers that are wrong or missing among `jobs`.
fn count_bad(jobs: &[ServeJob], answers: &[String], refs: &HashMap<String, String>) -> u64 {
    jobs.iter()
        .enumerate()
        .filter(|(i, job)| {
            let expected = &refs[&job.request.to_job_json().to_compact_string()];
            answers.get(*i).is_none_or(|a| !response_ok(a, job.id, expected))
        })
        .count() as u64
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

/// Runs the workload.
///
/// # Errors
///
/// Why a server could not be started or queried.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.trace {
        return run_traced(ctx);
    }
    // Start-ups are timed in batches between the jobs, so the median
    // samples the host over the whole run rather than at its ends.
    let mut setup = Vec::new();
    let (fleet, mut client, _) = start(ctx, "serve")?;
    let mut pass = Pass::default();
    let mut off = Tracer::new(false);
    let t = Instant::now();
    for job in ServeJobs::new(ctx.seed) {
        if pass.jobs.len() >= MIN_JOBS && t.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        if pass.jobs.len().is_multiple_of(JOBS_PER_SETUPS) {
            for _ in 0..SETUPS_PER_BATCH {
                let (fleet, client, secs) = start(ctx, &format!("setup-{}", setup.len()))?;
                setup.push(secs);
                stop(fleet, client);
            }
        }
        if !pass.send(&mut client, job, &mut off) {
            break;
        }
    }
    let rss = host::children_peak_rss_mb("catnap-serve");
    stop(fleet, client);

    let refs = references(&pass.jobs.iter().map(|j| &j.request).collect::<Vec<_>>())?;
    let failed = count_bad(&pass.jobs, &pass.answers, &refs);
    let answered = &pass.jobs[..pass.answers.len()];
    let cycles: u64 = answered.iter().map(|j| j.request.warmup + j.request.measure).sum();
    let metrics = vec![
        Metric::new("setup_s", stats::median(&setup), "s"),
        Metric::new("jobs_per_s", Some(pass.answers.len() as f64 / pass.busy_s), "1/s"),
        Metric::new("sim_cycles_per_s", Some(cycles as f64 / pass.busy_s), "cycles/s"),
        Metric::new("peak_rss_mb", rss, "MiB"),
        Metric::new("sim_net_power_w", mean_power_w(&pass.answers), "W"),
    ];
    Ok(Outcome {
        attempted: pass.jobs.len() as u64,
        failed,
        metrics,
        tracer: Tracer::new(false),
    })
}

/// Sends the first `n` jobs of the seed's stream to a fresh server on
/// cache directory `name`. Returns the pass and, if asked, the server's
/// counters at its end.
fn pass(ctx: &Ctx, name: &str, n: usize, tracer: &mut Tracer, counts: bool) -> Result<(Pass, Option<Json>), String> {
    let (fleet, mut client, _) = start(ctx, name)?;
    let mut pass = Pass::default();
    for job in ServeJobs::new(ctx.seed).take(n) {
        if !pass.send(&mut client, job, tracer) {
            break;
        }
    }
    let counts = if counts { Some(server_stats(&mut client)?) } else { None };
    stop(fleet, client);
    Ok((pass, counts))
}

fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    // The first MIN_JOBS jobs go untraced to one fresh server, then all
    // TRACED_JOBS traced to another, and `trace_overhead` compares the
    // two over the jobs they share. (Alternating one connection's jobs
    // with the other's changes when TCP acknowledges, and with it the
    // round trips.)
    let (untraced, _) = pass(ctx, "untraced", MIN_JOBS, &mut Tracer::new(false), false)?;
    let mut tracer = Tracer::new(true);
    let (traced, counts) = pass(ctx, "traced", TRACED_JOBS, &mut tracer, true)?;
    let counts = counts.expect("asked for");
    let jobs = &traced.jobs;
    let n = jobs.len();

    let mut process_ms = Vec::with_capacity(n);
    let mut in_process = Vec::with_capacity(n);
    let mut server = Server::new(SimCache::new(ctx.fresh_dir("in-process"), CACHE_ENTRIES).map_err(|e| e.to_string())?);
    for job in jobs {
        let t = Instant::now();
        in_process.push(tracer.span("serve.process_line", job.id, || server.process_line(&job.line)));
        process_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    for job in jobs {
        let parsed = tracer.span("serve.parse", job.id, || {
            Json::parse(&job.line)
                .ok()
                .and_then(|j| j.get("job").cloned())
                .map(|j| parse_job(&j))
        });
        std::hint::black_box(parsed);
    }
    let mut stdin_worker = StdinWorker::spawn(&ctx.serve_bin, &ctx.fresh_dir("stdin"))?;
    let mut over_stdin = Vec::with_capacity(n);
    for job in jobs {
        match tracer.span("serve.stdin_request", job.id, || stdin_worker.exchange(&job.line)) {
            Ok(a) => over_stdin.push(a),
            Err(e) => {
                eprintln!("catbench: serve_light: stdin job lost: {e}");
                break;
            }
        }
    }
    stdin_worker.finish();

    let mut cache = SimCache::new(ctx.fresh_dir("replay"), CACHE_ENTRIES).map_err(|e| e.to_string())?;
    let mut replay_failed = 0;
    let mut replayed = std::collections::HashSet::new();
    for job in jobs {
        if replayed.insert(job.request.to_job_json().to_compact_string()) {
            let sim = parse_job(&job.request.to_job_json())?;
            if let Err(e) = replay::replay(&sim, job.id, &mut tracer, Some(&mut cache)) {
                eprintln!("catbench: serve_light: replay: {e}");
                replay_failed += 1;
            }
        }
    }

    let refs = references(&jobs.iter().map(|j| &j.request).collect::<Vec<_>>())?;
    let failed = count_bad(&untraced.jobs, &untraced.answers, &refs)
        + count_bad(jobs, &traced.answers, &refs)
        + count_bad(jobs, &in_process, &refs)
        + count_bad(jobs, &over_stdin, &refs)
        + replay_failed;

    // A difference of two timings of the same job, so it can fall below
    // zero and is not a span: its median is taken over the raw pairs.
    let transport: Vec<f64> = traced.rtt_ms.iter().zip(&process_ms).map(|(t, p)| t - p).collect();
    let jobs_done = counter(&counts, "jobs");
    let reused = counter(&counts, "resumes") + counter(&counts, "memo") + counter(&counts, "hits");
    let mut metrics = vec![
        Metric::new("serve.parse_us", tracer.median_us("serve.parse"), "us"),
        Metric::new("serve.process_ms", tracer.median_ms("serve.process_line"), "ms"),
        Metric::new("serve.tcp_rtt_ms", tracer.median_ms("serve.request"), "ms"),
        Metric::new("serve.stdin_rtt_ms", tracer.median_ms("serve.stdin_request"), "ms"),
        Metric::new("serve.transport_ms", stats::median(&transport), "ms"),
    ];
    // The client-side round trips of the untraced pass, as a user sees
    // them.
    metrics.push(Metric::new(
        "job_p50_ms",
        stats::percentile(&untraced.rtt_ms, 50.0),
        "ms",
    ));
    metrics.push(Metric::new(
        "job_p95_ms",
        stats::percentile(&untraced.rtt_ms, 95.0),
        "ms",
    ));
    for (outcome, p50, p95) in OUTCOMES {
        let rtt = traced.rtt_ms_of(outcome);
        metrics.push(Metric::new(p50, stats::percentile(&rtt, 50.0), "ms"));
        metrics.push(Metric::new(p95, stats::percentile(&rtt, 95.0), "ms"));
    }
    metrics.extend([
        Metric::new("cache.miss", Some(counter(&counts, "misses")), "count"),
        Metric::new("cache.resume", Some(counter(&counts, "resumes")), "count"),
        Metric::new("cache.memo", Some(counter(&counts, "memo")), "count"),
        Metric::new("cache.hit", Some(counter(&counts, "hits")), "count"),
        Metric::new(
            "cache.reuse_ratio",
            (jobs_done > 0.0).then(|| reused / jobs_done),
            "ratio",
        ),
    ]);
    replay::checkpoint_metrics(&tracer, &mut metrics);
    replay::core_metrics(&tracer, &mut metrics);
    let shared = untraced.rtt_ms.len().min(traced.rtt_ms.len());
    let busy = |p: &Pass| p.rtt_ms[..shared].iter().sum::<f64>();
    metrics.push(Metric::new(
        "trace_overhead",
        (shared > 0).then(|| busy(&traced) / busy(&untraced)),
        "ratio",
    ));
    Ok(Outcome {
        attempted: (untraced.jobs.len() + 4 * n + replayed.len()) as u64,
        failed,
        metrics,
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_in_process_passes_give_identical_result_bytes() {
        let dir = std::env::temp_dir().join(format!("catbench-serve-test-{}", std::process::id()));
        let jobs: Vec<ServeJob> = ServeJobs::new(5).take(12).collect();
        let mut answers = Vec::new();
        for (k, traced) in [false, true].into_iter().enumerate() {
            let cache = SimCache::new(dir.join(k.to_string()), CACHE_ENTRIES).unwrap();
            let mut server = Server::new(cache);
            let mut tracer = Tracer::new(traced);
            let lines: Vec<String> = jobs
                .iter()
                .map(|j| tracer.span("serve.process_line", j.id, || server.process_line(&j.line)))
                .collect();
            assert_eq!(tracer.spans().len(), if traced { 12 } else { 0 });
            answers.push(lines);
        }
        assert_eq!(answers[0], answers[1]);
        let refs = references(&jobs.iter().map(|j| &j.request).collect::<Vec<_>>()).unwrap();
        assert_eq!(count_bad(&jobs, &answers[0], &refs), 0);
        assert_eq!(
            count_bad(&jobs, &answers[0][..11], &refs),
            1,
            "a missing answer is a failure"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
