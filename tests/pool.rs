//! Integration tests for the scoped fan-out (`catnap_util::pool::fan_out`)
//! and for what runs on it: the fan-out must behave like a scoped
//! spawn/join with deterministic result ordering and panic propagation,
//! a latency sweep must give byte-identical points at any lane count,
//! and `MultiNoc` subnet stepping — serial whatever `CATNAP_THREADS`
//! says (ci.sh also runs this suite at `CATNAP_THREADS=4`) — must
//! reproduce the pinned golden fingerprints of `tests/determinism.rs`.

use catnap_repro::bench::runs::{latency_sweep, run_synthetic};
use catnap_repro::catnap::{MultiNoc, MultiNocConfig, SelectorKind};
use catnap_repro::traffic::{SyntheticPattern, SyntheticWorkload};
use catnap_repro::util::pool::{fan_out, parse_threads};
use catnap_repro::util::ToJson;

// ---------------------------------------------------------------------
// Fan-out semantics
// ---------------------------------------------------------------------

#[test]
fn scoped_spawn_join_borrows_caller_state() {
    let inputs: Vec<u64> = (0..100).collect();
    let mut outputs = vec![0u64; 100];
    let jobs: Vec<_> = outputs
        .iter_mut()
        .zip(&inputs)
        .map(|(slot, &x)| move || *slot = x * x)
        .collect();
    fan_out(4, jobs);
    // `fan_out` returned, so every borrow of `outputs` has ended.
    assert_eq!(outputs[99], 99 * 99);
    assert!(outputs.iter().enumerate().all(|(i, &v)| v == (i * i) as u64));
}

#[test]
fn results_ordered_by_submission_not_completion() {
    for round in 0..20 {
        let jobs: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    let mut acc = round as u64;
                    for k in 0..(32 - i) * 200 {
                        acc = acc.wrapping_mul(31).wrapping_add(k as u64);
                    }
                    std::hint::black_box(acc);
                    i
                }
            })
            .collect();
        assert_eq!(fan_out(4, jobs), (0..32).collect::<Vec<usize>>());
    }
}

#[test]
fn panic_in_worker_reaches_submitter() {
    let result = std::panic::catch_unwind(|| {
        fan_out(
            3,
            (0..6usize)
                .map(|i| move || if i == 4 { panic!("boom {i}") } else { i })
                .collect::<Vec<_>>(),
        )
    });
    let payload = result.expect_err("worker panic must propagate");
    let msg = payload.downcast_ref::<String>().map(String::as_str).unwrap_or("");
    assert_eq!(msg, "boom 4", "the job's own payload reaches the caller");
    // Nothing is left behind: the next fan-out runs normally.
    assert_eq!(fan_out(3, vec![|| 7usize, || 8]), vec![7, 8]);
}

#[test]
fn serial_fallback_parallelism_one() {
    // CATNAP_THREADS=1 resolves to one lane: jobs run inline on the
    // caller in submission order.
    assert_eq!(parse_threads(Some("1")), Some(1));
    let lanes = parse_threads(Some("1")).unwrap();
    let current = std::thread::current().id();
    let ids = fan_out(
        lanes,
        (0..4).map(|_| move || std::thread::current().id()).collect::<Vec<_>>(),
    );
    assert!(
        ids.iter().all(|&id| id == current),
        "serial fallback must run on the caller"
    );
}

// ---------------------------------------------------------------------
// Sweep points: the one fan-out in the simulator
// ---------------------------------------------------------------------

#[test]
fn latency_sweep_points_identical_at_one_and_four_lanes() {
    let cfg = MultiNocConfig::catnap_2x128_64core().gating(true);
    let loads = [0.02, 0.05, 0.08, 0.11];
    let points_at = |lanes: usize| {
        let jobs: Vec<_> = loads
            .iter()
            .map(|&l| {
                let cfg = cfg.clone();
                move || run_synthetic(cfg, SyntheticPattern::UniformRandom, l, 512, 150, 150, 9)
            })
            .collect();
        fan_out(lanes, jobs)
            .iter()
            .map(|p| p.to_json().to_compact_string())
            .collect::<Vec<_>>()
    };
    let serial = points_at(1);
    assert_eq!(serial, points_at(4), "points must not depend on the lane count");
    let swept: Vec<_> = latency_sweep(&cfg, SyntheticPattern::UniformRandom, &loads, 512, 150, 150, 9)
        .iter()
        .map(|p| p.to_json().to_compact_string())
        .collect();
    assert_eq!(serial, swept, "latency_sweep returns the same points in load order");
}

// ---------------------------------------------------------------------
// Serial subnet stepping against the pinned goldens
// ---------------------------------------------------------------------

/// Same fixture as `tests/determinism.rs::golden_fingerprint`.
fn golden_fingerprint(selector: SelectorKind, gating: bool) -> (u64, u64, u64) {
    let cfg = MultiNocConfig::catnap_4x128().selector(selector).gating(gating).seed(7);
    let mut net = MultiNoc::new(cfg);
    let mut load = SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.08, 512, net.dims(), 7);
    for _ in 0..1_500 {
        load.drive(&mut net);
        net.step();
    }
    let snap = net.snapshot();
    let report = net.finish();
    (report.packets_delivered, snap.latency_sum, snap.or_switch_events)
}

/// The pinned goldens from `tests/determinism.rs` — kept literally in
/// sync so a re-pin there must be mirrored here.
const GOLDENS: [(SelectorKind, bool, (u64, u64, u64)); 6] = [
    (SelectorKind::RoundRobin, true, (7416, 290007, 325)),
    (SelectorKind::RoundRobin, false, (7502, 167583, 0)),
    (SelectorKind::Random, true, (7430, 288557, 331)),
    (SelectorKind::Random, false, (7504, 168413, 0)),
    (SelectorKind::CatnapPriority, true, (7443, 248092, 222)),
    (SelectorKind::CatnapPriority, false, (7447, 225011, 99)),
];

#[test]
fn serial_threads_one_reproduces_pinned_goldens() {
    for (selector, gating, want) in GOLDENS {
        let got = golden_fingerprint(selector, gating);
        assert_eq!(got, want, "serial golden changed for {selector:?} gating={gating}");
    }
}
