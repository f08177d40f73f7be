//! An order-preserving scoped fan-out built on `std::thread::scope`,
//! keeping the workspace's hermetic zero-dependency policy.
//!
//! [`fan_out`] runs a batch of independent closures — which may borrow
//! from the caller's stack — on up to `lanes` threads and returns their
//! results **in submission order**, whichever thread finished first, so
//! a parallel fan-out is deterministic for the caller. The calling
//! thread is one of the lanes; at one lane (or with the
//! `CATNAP_THREADS=1` override) every job runs inline, in order, on the
//! caller. A panicking job does not stop the others: the batch still
//! completes and the job's panic payload is re-raised on the caller.

use std::panic::resume_unwind;
use std::sync::Mutex;

/// Name of the environment variable overriding worker parallelism
/// (`1` forces the serial path; unset or unparsable falls back to the
/// caller's default, typically [`std::thread::available_parallelism`]).
pub const THREADS_ENV: &str = "CATNAP_THREADS";

/// Parses a `CATNAP_THREADS`-style override. Returns `None` for absent,
/// empty, unparsable, or zero values (zero threads cannot run anything,
/// so it is treated as "no override").
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    value.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

/// Reads the [`THREADS_ENV`] override from the process environment.
pub fn env_threads() -> Option<usize> {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

/// Effective parallelism for a job that can use up to `max_useful`
/// lanes: the env override if set, else the machine parallelism, capped
/// at `max_useful` and floored at 1.
pub fn effective_parallelism(max_useful: usize) -> usize {
    let machine = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    env_threads().unwrap_or(machine).min(max_useful).max(1)
}

/// Runs `jobs` on up to `lanes` scoped threads (the caller included)
/// and returns their results in submission order. Lanes pull the next
/// unstarted job from a shared queue, so one long job does not strand
/// the short ones behind it. At one lane, or for a single job, every
/// job runs inline on the caller in order.
///
/// # Panics
///
/// Re-raises a job's panic, with its payload, on the caller after
/// every other job has run.
pub fn fan_out<T, F>(lanes: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let lanes = lanes.min(n);
    if lanes <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            // The guard drops at the end of this statement, so jobs
            // (panicking ones included) run without holding the lock.
            let next = queue.lock().expect("no job runs under the queue lock").next();
            match next {
                Some((i, job)) => done.push((i, job())),
                None => return done,
            }
        }
    };
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    // A panic on any lane leaves the scope only after every spawned lane
    // has drained the queue and been joined.
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..lanes).map(|_| s.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            done.extend(helper.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        for (i, value) in done {
            slots[i] = Some(value);
        }
    });
    slots.into_iter().map(|v| v.expect("every job ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<_> = (0..64usize)
            .map(|i| {
                move || {
                    // Earlier jobs spin longer, so completion order is
                    // roughly reversed — results must still be ordered.
                    let mut acc = 0u64;
                    for k in 0..(64 - i) * 500 {
                        acc = acc.wrapping_add(k as u64);
                    }
                    std::hint::black_box(acc);
                    i * i
                }
            })
            .collect();
        let want: Vec<usize> = (0..64).map(|i| i * i).collect();
        assert_eq!(fan_out(4, jobs), want);
    }

    #[test]
    fn borrows_mutable_slices_disjointly() {
        let mut data = vec![0u64; 16];
        let jobs: Vec<_> = data
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| move || *slot = i as u64 + 1)
            .collect();
        fan_out(3, jobs);
        assert_eq!(data, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn one_lane_runs_inline_in_order() {
        let order = Mutex::new(Vec::new());
        let jobs: Vec<_> = (0..8usize)
            .map(|i| {
                let order = &order;
                move || {
                    order.lock().unwrap().push(i);
                    i
                }
            })
            .collect();
        assert_eq!(fan_out(1, jobs), (0..8).collect::<Vec<usize>>());
        assert_eq!(
            *order.lock().unwrap(),
            (0..8).collect::<Vec<usize>>(),
            "serial path preserves submission order exactly"
        );
    }

    #[test]
    fn panic_propagates_after_the_batch_completes() {
        let completed = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                let completed = &completed;
                let job: Box<dyn FnOnce() -> usize + Send> = if i == 3 {
                    Box::new(|| panic!("job 3 exploded"))
                } else {
                    Box::new(move || {
                        completed.fetch_add(1, Ordering::SeqCst);
                        i
                    })
                };
                job
            })
            .collect();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fan_out(4, jobs)))
            .expect_err("panic must propagate to the caller");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "job 3 exploded");
        assert_eq!(completed.load(Ordering::SeqCst), 7, "non-panicking jobs all ran");
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let got: Vec<u32> = fan_out(2, Vec::<fn() -> u32>::new());
        assert!(got.is_empty());
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("banana")), None);
        assert_eq!(parse_threads(Some("0")), None, "zero lanes treated as unset");
        assert_eq!(parse_threads(Some("1")), Some(1));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
    }

    #[test]
    fn effective_parallelism_is_capped_and_floored() {
        // Independent of the machine: capping at 1 always yields 1.
        assert_eq!(effective_parallelism(1), 1);
        assert!(effective_parallelism(4) >= 1);
        assert!(effective_parallelism(4) <= 4);
    }
}
