#![warn(missing_docs)]

//! # catnap-serve
//!
//! A batch front-end for Catnap simulations: a JSON-lines job queue
//! served over stdin/stdout or TCP, with every job routed through the
//! fingerprint-keyed result cache (`catnap::SimCache` +
//! `catnap_bench::run_synthetic_cached`).
//!
//! One request per line, one response per line:
//!
//! ```text
//! {"id": "p1", "job": {"config": "catnap-4x128", "pattern": "uniform-random",
//!                      "rate": 0.05, "warmup": 500, "measure": 1500, "seed": 7}}
//! ```
//!
//! ```text
//! {"id": "p1", "status": "ok", "cache": "miss", "fingerprint": "…",
//!  "result": {"config": "4NT-128b", "offered": 0.05, "accepted": …}}
//! ```
//!
//! The `cache` field reports how the job was satisfied: `"miss"` (full
//! simulation; result and warm-up checkpoint stored), `"resume"`
//! (warm-up restored from a checkpoint shared with an earlier job),
//! `"hit"` (result read back from disk), or `"memo"` (duplicate of a
//! job already completed on this connection stream — answered from
//! memory without touching the disk cache). A `{"cmd": "stats"}` line
//! streams the running hit/miss/resume counters.
//!
//! Besides job lines, three command lines are recognized:
//!
//! * `{"cmd": "stats"}` — the running counters, as above.
//! * `{"cmd": "ping"}` — liveness/compatibility probe. Responds
//!   `{"status": "ok", "pong": true, "version": …, "protocol": …,
//!   "fingerprint_schema": …}` where `version` is the crate version,
//!   `protocol` is [`PROTOCOL_VERSION`], and `fingerprint_schema` is
//!   [`catnap::FINGERPRINT_SCHEMA_VERSION`] — a coordinator must refuse
//!   a worker whose schema disagrees with its own, because the two
//!   builds would key caches with incompatible fingerprints.
//! * `{"cmd": "shutdown"}` — acknowledges with
//!   `{"status": "ok", "bye": true}`, then ends the current stream (and,
//!   under `--tcp`, the accept loop), letting the process exit cleanly.
//!   This is how `catnap-hive` retires the local workers it spawned.
//!
//! Malformed lines never kill the server: they produce
//! `{"status": "error", …}` responses with the parse failure.

use catnap::{MultiNocConfig, SimCache, FINGERPRINT_SCHEMA_VERSION};
use catnap_bench::{job_fingerprint, run_synthetic_cached, CacheOutcome, SimJob};
use catnap_noc::NodeId;
use catnap_traffic::{LoadSchedule, SyntheticPattern};
use catnap_util::json::ToJson;
use catnap_util::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

/// Version of the line protocol itself: the command set and response
/// fields. Bumped when either changes shape (v1: jobs + `stats`;
/// v2: adds `ping` and `shutdown`). Reported by `ping` so a coordinator
/// can tell what a worker speaks before relying on it.
pub const PROTOCOL_VERSION: u32 = 2;

/// Parses the `"job"` object of a request into a resolved [`SimJob`].
///
/// Recognized fields: `config` (preset name: `catnap-4x128`,
/// `catnap-2x128-64core`, `single-noc-512b`, `single-noc-128b`,
/// `single-noc-256b-64core`), `gating` (bool, default `true`),
/// `pattern` (`uniform-random`, `transpose`, `bit-complement`,
/// `tornado`, `neighbor`, or `hotspot` with `hotspot` node index and
/// optional `hotspot_per_mille`), either `rate` (constant load) or
/// `schedule` (`[[from_cycle, rate], …]`), `packet_bits` (default 512),
/// `warmup`, `measure`, `seed` (default 7), and `threads`. `threads`
/// must be an integer >= 1 or the string `"auto"` and is otherwise
/// ignored: it no longer changes execution (a job's subnets always step
/// serially), so results and cache keys are the same at every value.
/// It is still validated so the clients that send it keep a stable
/// contract.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn parse_job(j: &Json) -> Result<SimJob, String> {
    let config = j.get("config").and_then(Json::as_str).ok_or("missing 'config' preset name")?;
    let cfg = match config {
        "catnap-4x128" => MultiNocConfig::catnap_4x128(),
        "catnap-2x128-64core" => MultiNocConfig::catnap_2x128_64core(),
        "single-noc-512b" => MultiNocConfig::single_noc_512b(),
        "single-noc-128b" => MultiNocConfig::single_noc_128b(),
        "single-noc-256b-64core" => MultiNocConfig::single_noc_256b_64core(),
        other => return Err(format!("unknown config preset '{other}'")),
    };
    let gating = match j.get("gating") {
        None => true,
        Some(v) => v.as_bool().ok_or("'gating' must be a bool")?,
    };
    // `threads` no longer changes execution but keeps its wire contract.
    if let Some(v) = j.get("threads") {
        let auto = matches!(v, Json::Str(s) if s == "auto");
        if !auto && v.as_u64().is_none_or(|t| t == 0) {
            return Err("'threads' must be an integer >= 1 or \"auto\"".into());
        }
    }
    let cfg = cfg.gating(gating);
    let nodes = cfg.dims.num_nodes() as u16;

    let pattern = match j.get("pattern").and_then(Json::as_str).unwrap_or("uniform-random") {
        "uniform-random" => SyntheticPattern::UniformRandom,
        "transpose" => SyntheticPattern::Transpose,
        "bit-complement" => SyntheticPattern::BitComplement,
        "tornado" => SyntheticPattern::Tornado,
        "neighbor" => SyntheticPattern::NeighborExchange,
        "hotspot" => {
            let hotspot = j
                .get("hotspot")
                .and_then(Json::as_u64)
                .ok_or("hotspot pattern needs a 'hotspot' node")?;
            if hotspot >= u64::from(nodes) {
                return Err(format!("hotspot node {hotspot} outside the {nodes}-node mesh"));
            }
            let per_mille = match j.get("hotspot_per_mille") {
                None => 100,
                Some(v) => v
                    .as_u64()
                    .filter(|&p| p <= 1000)
                    .ok_or("'hotspot_per_mille' must be 0..=1000")?,
            };
            SyntheticPattern::HotSpot {
                hotspot: NodeId(hotspot as u16),
                per_mille: per_mille as u16,
            }
        }
        other => return Err(format!("unknown pattern '{other}'")),
    };

    let schedule = match (j.get("rate"), j.get("schedule")) {
        (Some(_), Some(_)) => return Err("give either 'rate' or 'schedule', not both".to_string()),
        (Some(r), None) => {
            let rate = r.as_f64().filter(|r| *r >= 0.0).ok_or("'rate' must be a non-negative number")?;
            LoadSchedule::constant(rate)
        }
        (None, Some(s)) => {
            let rows = s.as_array().ok_or("'schedule' must be an array of [from_cycle, rate] pairs")?;
            let mut segments = Vec::with_capacity(rows.len());
            for row in rows {
                let pair = row
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or("schedule rows must be [from_cycle, rate]")?;
                let from = pair[0].as_u64().ok_or("schedule from_cycle must be a non-negative integer")?;
                let rate = pair[1]
                    .as_f64()
                    .filter(|r| *r >= 0.0)
                    .ok_or("schedule rate must be non-negative")?;
                segments.push((from, rate));
            }
            let sorted = !segments.is_empty() && segments[0].0 == 0 && segments.windows(2).all(|w| w[0].0 < w[1].0);
            if !sorted {
                return Err("schedule must start at cycle 0 with strictly increasing cycles".to_string());
            }
            LoadSchedule::piecewise(segments)
        }
        (None, None) => return Err("missing offered load: give 'rate' or 'schedule'".to_string()),
    };

    let packet_bits = match j.get("packet_bits") {
        None => 512,
        Some(v) => v
            .as_u64()
            .filter(|&b| (1..=65_536).contains(&b))
            .ok_or("'packet_bits' must be 1..=65536")? as u32,
    };
    let warmup = j.get("warmup").and_then(Json::as_u64).ok_or("missing 'warmup' cycles")?;
    let measure = j.get("measure").and_then(Json::as_u64).ok_or("missing 'measure' cycles")?;
    if measure == 0 {
        return Err("'measure' must be non-zero".to_string());
    }
    if warmup + measure > 10_000_000 {
        return Err("job horizon above 10M cycles".to_string());
    }
    let seed = match j.get("seed") {
        None => 7,
        Some(v) => v.as_u64().ok_or("'seed' must be a non-negative integer")?,
    };

    Ok(SimJob {
        cfg,
        pattern,
        schedule,
        packet_bits,
        warmup,
        measure,
        seed,
    })
}

/// Running counters for one [`Server`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Jobs answered (excluding errors).
    pub jobs: u64,
    /// Duplicate jobs answered from the in-process memo.
    pub memo: u64,
    /// Jobs answered from the disk result cache.
    pub hits: u64,
    /// Jobs that resumed a shared warm-up checkpoint.
    pub resumes: u64,
    /// Jobs simulated in full.
    pub misses: u64,
    /// Lines rejected with an error response.
    pub errors: u64,
}

catnap_util::impl_to_json_struct!(ServeStats {
    jobs,
    memo,
    hits,
    resumes,
    misses,
    errors
});

/// The batch server: a disk-backed [`SimCache`] plus an in-process memo
/// deduplicating repeated jobs within the served stream.
pub struct Server {
    cache: SimCache,
    memo: HashMap<u64, Json>,
    stats: ServeStats,
    shutting_down: bool,
}

impl Server {
    /// Creates a server over the given cache.
    pub fn new(cache: SimCache) -> Self {
        Server {
            cache,
            memo: HashMap::new(),
            stats: ServeStats::default(),
            shutting_down: false,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Whether a `{"cmd": "shutdown"}` line has been processed. Once
    /// set, [`Server::serve_lines`] returns after the acknowledging
    /// response and [`Server::serve_listener`] stops accepting.
    pub fn shutdown_requested(&self) -> bool {
        self.shutting_down
    }

    /// Processes one request line into one response line (no trailing
    /// newline). Never panics on malformed input — parse and job errors
    /// come back as `"status": "error"` responses.
    pub fn process_line(&mut self, line: &str) -> String {
        let parsed = Json::parse(line);
        let id = parsed.as_ref().ok().and_then(|j| j.get("id").cloned()).unwrap_or(Json::Null);
        let response = match parsed {
            Err(e) => self.error_response(id, format!("bad request line: {e}")),
            Ok(req) => match req.get("cmd").and_then(Json::as_str) {
                Some("stats") => Json::Obj(vec![
                    ("id".to_string(), id),
                    ("status".to_string(), Json::Str("ok".to_string())),
                    ("stats".to_string(), self.stats.to_json()),
                ]),
                Some("ping") => Json::Obj(vec![
                    ("id".to_string(), id),
                    ("status".to_string(), Json::Str("ok".to_string())),
                    ("pong".to_string(), Json::Bool(true)),
                    ("version".to_string(), Json::Str(env!("CARGO_PKG_VERSION").to_string())),
                    ("protocol".to_string(), Json::Int(i64::from(PROTOCOL_VERSION))),
                    (
                        "fingerprint_schema".to_string(),
                        Json::Int(i64::from(FINGERPRINT_SCHEMA_VERSION)),
                    ),
                ]),
                Some("shutdown") => {
                    self.shutting_down = true;
                    Json::Obj(vec![
                        ("id".to_string(), id),
                        ("status".to_string(), Json::Str("ok".to_string())),
                        ("bye".to_string(), Json::Bool(true)),
                    ])
                }
                Some(other) => self.error_response(id, format!("unknown command '{other}'")),
                None => match req.get("job").ok_or("missing 'job' object".to_string()).and_then(parse_job) {
                    Err(e) => self.error_response(id, e),
                    Ok(job) => self.run_job(id, &job),
                },
            },
        };
        response.to_compact_string()
    }

    fn error_response(&mut self, id: Json, error: String) -> Json {
        self.stats.errors += 1;
        Json::Obj(vec![
            ("id".to_string(), id),
            ("status".to_string(), Json::Str("error".to_string())),
            ("error".to_string(), Json::Str(error)),
        ])
    }

    fn run_job(&mut self, id: Json, job: &SimJob) -> Json {
        let key = job_fingerprint(job);
        self.stats.jobs += 1;
        let (result, cache) = if let Some(result) = self.memo.get(&key) {
            self.stats.memo += 1;
            (result.clone(), "memo")
        } else {
            let (point, outcome) = run_synthetic_cached(&mut self.cache, job);
            match outcome {
                CacheOutcome::Hit => self.stats.hits += 1,
                CacheOutcome::Resume => self.stats.resumes += 1,
                CacheOutcome::Miss => self.stats.misses += 1,
            }
            let result = point.to_json();
            self.memo.insert(key, result.clone());
            (result, outcome.name())
        };
        Json::Obj(vec![
            ("id".to_string(), id),
            ("status".to_string(), Json::Str("ok".to_string())),
            ("cache".to_string(), Json::Str(cache.to_string())),
            ("fingerprint".to_string(), Json::Str(format!("{key:016x}"))),
            ("result".to_string(), result),
        ])
    }

    /// Serves a whole request stream: one response line per non-empty
    /// request line, flushed after each so a pipelined client sees
    /// results as they complete. Returns early (after responding) when a
    /// `shutdown` command arrives.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] from the underlying reader or writer.
    pub fn serve_lines<R: BufRead, W: Write>(&mut self, reader: R, mut writer: W) -> std::io::Result<()> {
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            writeln!(writer, "{}", self.process_line(&line))?;
            writer.flush()?;
            if self.shutting_down {
                break;
            }
        }
        Ok(())
    }

    /// Serves connections from a TCP listener, one at a time, until a
    /// connection delivers a `shutdown` command (callers wanting a
    /// bounded accept loop can drive [`Server::serve_lines`]
    /// themselves). The cache and memo persist across connections, so a
    /// reconnecting client still dedupes against everything served
    /// before.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] from `accept`; per-connection I/O errors only
    /// end that connection.
    pub fn serve_listener(&mut self, listener: &TcpListener) -> std::io::Result<()> {
        while !self.shutting_down {
            let (stream, _) = listener.accept()?;
            let reader = BufReader::new(stream.try_clone()?);
            let _ = self.serve_lines(reader, &stream);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server(tag: &str) -> (Server, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("catnap-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (Server::new(SimCache::new(&dir, 64).unwrap()), dir)
    }

    #[test]
    fn parse_job_rejects_bad_requests() {
        let cases = [
            (r#"{}"#, "missing 'config'"),
            (r#"{"config":"no-such"}"#, "unknown config"),
            (r#"{"config":"catnap-4x128"}"#, "missing offered load"),
            (
                r#"{"config":"catnap-4x128","rate":-0.1,"warmup":1,"measure":1}"#,
                "non-negative",
            ),
            (
                r#"{"config":"catnap-4x128","rate":0.1,"warmup":1,"measure":0}"#,
                "non-zero",
            ),
            (
                r#"{"config":"catnap-4x128","rate":0.1,"schedule":[[0,0.1]],"warmup":1,"measure":1}"#,
                "not both",
            ),
            (
                r#"{"config":"catnap-4x128","schedule":[[5,0.1]],"rate2":1,"warmup":1,"measure":1}"#,
                "start at cycle 0",
            ),
            (
                r#"{"config":"catnap-4x128","pattern":"hotspot","rate":0.1,"warmup":1,"measure":1}"#,
                "hotspot",
            ),
        ];
        for (text, needle) in cases {
            let err = parse_job(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn parse_job_resolves_schedule_and_defaults() {
        let j = Json::parse(
            r#"{"config":"catnap-2x128-64core","schedule":[[0,0.2],[100,0.01]],"warmup":100,"measure":50}"#,
        )
        .unwrap();
        let job = parse_job(&j).unwrap();
        assert_eq!(job.packet_bits, 512);
        assert_eq!(job.seed, 7);
        assert_eq!(job.schedule.rate_at(0), 0.2);
        assert_eq!(job.schedule.rate_at(100), 0.01);
        assert_eq!(job.cfg.subnets, 2);
    }

    #[test]
    fn batch_stream_dedupes_and_reports_cache_outcomes() {
        let (mut server, dir) = test_server("batch");
        let req = |id: &str, rate: f64| {
            format!(
                r#"{{"id":"{id}","job":{{"config":"catnap-2x128-64core","pattern":"uniform-random","schedule":[[0,0.15],[120,{rate}]],"warmup":120,"measure":80,"seed":7}}}}"#
            )
        };
        let input = format!(
            "{}\n{}\n{}\n\n{}\n{{\"id\":\"s\",\"cmd\":\"stats\"}}\n{{\"id\":\"bad\",\"job\":{{}}}}\nnot json\n",
            req("a", 0.01),
            req("b", 0.04),
            req("a2", 0.01), // duplicate of "a" under a different id
            req("c", 0.02),
        );
        let mut out = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 7);

        let cache_of = |i: usize| lines[i].get("cache").unwrap().as_str().unwrap().to_string();
        assert_eq!(cache_of(0), "miss", "first job pays the warm-up");
        assert_eq!(cache_of(1), "resume", "same warm-up prefix resumes");
        assert_eq!(cache_of(2), "memo", "duplicate job answered from memory");
        assert_eq!(
            lines[2].get("result").unwrap(),
            lines[0].get("result").unwrap(),
            "dedupe returns the identical result"
        );
        assert_eq!(cache_of(3), "resume");

        let stats = lines[4].get("stats").unwrap();
        assert_eq!(stats.get("jobs").unwrap().as_u64(), Some(4));
        assert_eq!(stats.get("memo").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("resumes").unwrap().as_u64(), Some(2));

        assert_eq!(lines[5].get("status").unwrap().as_str(), Some("error"));
        assert_eq!(lines[5].get("id").unwrap().as_str(), Some("bad"));
        assert_eq!(lines[6].get("status").unwrap().as_str(), Some("error"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_request_encoding_roundtrips_through_parse_job() {
        use catnap_bench::JobRequest;
        let requests = [
            JobRequest {
                config: "catnap-2x128-64core".to_string(),
                gating: true,
                threads: 1,
                pattern: SyntheticPattern::UniformRandom,
                schedule: LoadSchedule::constant(0.035),
                packet_bits: 512,
                warmup: 120,
                measure: 80,
                seed: 7,
            },
            JobRequest {
                config: "single-noc-128b".to_string(),
                gating: false,
                threads: 2,
                pattern: SyntheticPattern::HotSpot {
                    hotspot: NodeId(5),
                    per_mille: 250,
                },
                schedule: LoadSchedule::piecewise(vec![(0, 0.2), (100, 0.01)]),
                packet_bits: 128,
                warmup: 100,
                measure: 50,
                seed: 99,
            },
        ];
        for req in requests {
            let parsed = parse_job(&req.to_job_json()).expect("encoded request must parse");
            // The encoded wire form resolves to the same job: equal
            // result-cache and warm-up fingerprints.
            let direct = SimJob {
                cfg: match req.config.as_str() {
                    "catnap-2x128-64core" => MultiNocConfig::catnap_2x128_64core(),
                    "single-noc-128b" => MultiNocConfig::single_noc_128b(),
                    other => panic!("unexpected preset {other}"),
                }
                .gating(req.gating),
                pattern: req.pattern,
                schedule: req.schedule.clone(),
                packet_bits: req.packet_bits,
                warmup: req.warmup,
                measure: req.measure,
                seed: req.seed,
            };
            assert_eq!(job_fingerprint(&parsed), job_fingerprint(&direct));
        }
    }

    #[test]
    fn ping_reports_versions_and_shutdown_ends_the_stream() {
        let (mut server, dir) = test_server("ping");
        let pong = Json::parse(&server.process_line(r#"{"id":"p","cmd":"ping"}"#)).unwrap();
        assert_eq!(pong.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(pong.get("pong").unwrap().as_bool(), Some(true));
        assert_eq!(pong.get("version").unwrap().as_str(), Some(env!("CARGO_PKG_VERSION")));
        assert_eq!(
            pong.get("protocol").unwrap().as_u64(),
            Some(u64::from(PROTOCOL_VERSION))
        );
        assert_eq!(
            pong.get("fingerprint_schema").unwrap().as_u64(),
            Some(u64::from(FINGERPRINT_SCHEMA_VERSION))
        );
        assert!(!server.shutdown_requested(), "ping must not stop the server");

        let unknown = Json::parse(&server.process_line(r#"{"id":"u","cmd":"reboot"}"#)).unwrap();
        assert_eq!(unknown.get("status").unwrap().as_str(), Some("error"));

        // A stream with lines after the shutdown command: the server
        // acknowledges the shutdown and never reads further lines.
        let input = "{\"id\":1,\"cmd\":\"ping\"}\n{\"id\":2,\"cmd\":\"shutdown\"}\n{\"id\":3,\"cmd\":\"ping\"}\n";
        let mut out = Vec::new();
        server.serve_lines(input.as_bytes(), &mut out).unwrap();
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2, "no responses after the shutdown ack");
        assert_eq!(lines[1].get("bye").unwrap().as_bool(), Some(true));
        assert!(server.shutdown_requested());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_ends_the_tcp_accept_loop() {
        use std::io::{BufRead, Write};
        let (server, dir) = test_server("tcp-shutdown");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut server = server;
            server.serve_listener(&listener).unwrap();
            server.shutdown_requested()
        });
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        writeln!(stream, "{{\"id\":\"bye\",\"cmd\":\"shutdown\"}}").unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("\"bye\": true") || line.contains("\"bye\":true"),
            "{line}"
        );
        assert!(
            handle.join().unwrap(),
            "serve_listener must return with the shutdown flag set"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_server_over_same_cache_dir_hits() {
        let (mut server, dir) = test_server("persist");
        let req = r#"{"id":1,"job":{"config":"catnap-2x128-64core","rate":0.05,"warmup":60,"measure":60}}"#;
        let first = Json::parse(&server.process_line(req)).unwrap();
        assert_eq!(first.get("cache").unwrap().as_str(), Some("miss"));

        let mut fresh = Server::new(SimCache::new(&dir, 64).unwrap());
        let second = Json::parse(&fresh.process_line(req)).unwrap();
        assert_eq!(
            second.get("cache").unwrap().as_str(),
            Some("hit"),
            "results persist across processes"
        );
        assert_eq!(second.get("result").unwrap(), first.get("result").unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
