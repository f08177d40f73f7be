//! Reference results: what every job must come back as.
//!
//! The reference for a job is `run_job_uncached(job).to_json()` — a
//! straight simulation with no cache, computed outside any timed region
//! on at most `nproc` threads. A served result is correct only if its
//! compact JSON equals the reference's byte for byte.

use catnap_bench::{run_job_uncached, JobRequest};
use catnap_serve::parse_job;
use catnap_util::{Json, ToJson};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The reference result bytes of every distinct job in `requests`,
/// keyed by the job's compact JSON.
///
/// # Errors
///
/// The parse error of a job `catnap-serve` would refuse.
pub fn references(requests: &[&JobRequest]) -> Result<HashMap<String, String>, String> {
    let mut distinct = Vec::new();
    let mut seen = HashSet::new();
    for r in requests {
        let key = r.to_job_json().to_compact_string();
        if seen.insert(key.clone()) {
            distinct.push((key, parse_job(&r.to_job_json())?));
        }
    }
    let lanes = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(distinct.len())
        .max(1);
    // Jobs differ widely in cost, so lanes take the next job as they
    // free up rather than fixed shares.
    let next = AtomicUsize::new(0);
    let mut out = HashMap::with_capacity(distinct.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some((key, job)) = distinct.get(next.fetch_add(1, Ordering::Relaxed)) {
                        done.push((key.clone(), run_job_uncached(job).to_json().to_compact_string()));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("reference simulation panicked"));
        }
    });
    Ok(out)
}

/// Whether `response` is the `ok` answer to request `id` carrying
/// exactly the `expected` result bytes.
pub fn response_ok(response: &str, id: u64, expected: &str) -> bool {
    let Ok(j) = Json::parse(response) else {
        return false;
    };
    j.get("id").and_then(Json::as_u64) == Some(id)
        && j.get("status").and_then(Json::as_str) == Some("ok")
        && j.get("result").map(Json::to_compact_string).as_deref() == Some(expected)
}

/// The modelled network power of a job's `result` object, static plus
/// dynamic, in watts.
pub fn net_power_w(result: &Json) -> Option<f64> {
    Some(result.get("dynamic_w")?.as_f64()? + result.get("static_w")?.as_f64()?)
}
