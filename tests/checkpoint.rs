//! Checkpoint/resume round-trips for every determinism golden.
//!
//! For each pinned `(selector, gating)` golden from `tests/determinism.rs`
//! the run is split at cycle 750 of 1500: the full simulator state plus
//! the workload position is sealed into a checkpoint blob, a fresh
//! simulator is rebuilt from the blob, and both halves are driven to the
//! end. The resumed run must be **bit-identical** to the straight-through
//! run — same golden fingerprint tuple, same full [`Snapshot`], and (with
//! recording sinks attached) a telemetry trace whose concatenation with
//! the pre-checkpoint prefix reproduces the straight-through trace event
//! for event. Malformed blobs must be rejected, never misparsed.
//!
//! [`Snapshot`]: catnap_repro::catnap::Snapshot

use catnap_repro::bench::{run_job_uncached, run_synthetic_cached, CacheOutcome};
use catnap_repro::catnap::{config_fingerprint, MultiNoc, MultiNocConfig, SelectorKind, SimCache, CHECKPOINT_VERSION};
use catnap_repro::serve::parse_job;
use catnap_repro::telemetry::RecordingSink;
use catnap_repro::traffic::{LoadSchedule, SyntheticPattern, SyntheticWorkload};
use catnap_repro::util::codec::{self, CodecError};
use catnap_repro::util::{Json, ToJson};

/// The six pinned goldens from `tests/determinism.rs`. Kept in sync by
/// hand: if a legitimate change re-pins the determinism goldens, this
/// table must be updated with the same tuples.
const PINNED: [(SelectorKind, bool, (u64, u64, u64)); 6] = [
    (SelectorKind::RoundRobin, true, (7416, 290007, 325)),
    (SelectorKind::RoundRobin, false, (7502, 167583, 0)),
    (SelectorKind::Random, true, (7430, 288557, 331)),
    (SelectorKind::Random, false, (7504, 168413, 0)),
    (SelectorKind::CatnapPriority, true, (7443, 248092, 222)),
    (SelectorKind::CatnapPriority, false, (7447, 225011, 99)),
];

const TOTAL_CYCLES: u64 = 1_500;
const SPLIT_CYCLE: u64 = 750;

fn golden_cfg(selector: SelectorKind, gating: bool) -> MultiNocConfig {
    MultiNocConfig::catnap_4x128().selector(selector).gating(gating).seed(7)
}

fn golden_load<S: catnap_repro::telemetry::Sink>(net: &MultiNoc<S>) -> SyntheticWorkload {
    SyntheticWorkload::new(SyntheticPattern::UniformRandom, 0.08, 512, net.dims(), 7)
}

/// Cycles between the extra checkpoints the straight-through run saves
/// and discards: saving is observation-only, so the run must still
/// reproduce the goldens pinned by runs that never save.
const SAVE_EVERY: u64 = 97;

/// Save → resume at `SPLIT_CYCLE` must reproduce the straight-through
/// run exactly, for every golden: the pinned fingerprint tuple, and the
/// complete cumulative `Snapshot` (per-subnet flit counts included).
#[test]
fn resume_is_bit_identical_to_straight_through_for_every_golden() {
    for (selector, gating, want) in PINNED {
        let cfg = golden_cfg(selector, gating);

        // Straight-through run, checkpointing at the split (so both runs
        // share one code path up to it) and every `SAVE_EVERY` cycles,
        // using none of the blobs.
        let mut net = MultiNoc::new(cfg.clone());
        let mut load = golden_load(&net);
        let mut blob = Vec::new();
        for cycle in 1..=TOTAL_CYCLES {
            load.drive(&mut net);
            net.step();
            if cycle == SPLIT_CYCLE {
                blob = net.save_checkpoint(&load.encode_position());
            } else if cycle % SAVE_EVERY == 0 {
                let _ = net.save_checkpoint(&load.encode_position());
            }
        }
        let straight_snap = net.snapshot();
        let straight = (
            net.finish().packets_delivered,
            straight_snap.latency_sum,
            straight_snap.or_switch_events,
        );

        // Resumed run: fresh simulator and workload rebuilt from the blob.
        let (mut resumed, driver) = MultiNoc::resume_from(cfg.clone(), &blob)
            .unwrap_or_else(|e| panic!("resume failed for {selector:?} gating={gating}: {e:?}"));
        assert_eq!(
            resumed.cycle(),
            SPLIT_CYCLE,
            "checkpoint cycle for {selector:?} gating={gating}"
        );
        let mut rload = SyntheticWorkload::decode_position(
            SyntheticPattern::UniformRandom,
            LoadSchedule::constant(0.08),
            512,
            resumed.dims(),
            &driver,
        )
        .expect("workload position decodes");
        for _ in SPLIT_CYCLE..TOTAL_CYCLES {
            rload.drive(&mut resumed);
            resumed.step();
        }
        let resumed_snap = resumed.snapshot();
        assert_eq!(
            resumed_snap, straight_snap,
            "resumed snapshot diverged from straight-through for {selector:?} gating={gating}"
        );
        let got = (
            resumed.finish().packets_delivered,
            resumed_snap.latency_sum,
            resumed_snap.or_switch_events,
        );
        assert_eq!(
            got, straight,
            "resumed fingerprint diverged for {selector:?} gating={gating}"
        );

        if std::env::var_os("CATNAP_PRINT_GOLDENS").is_none() {
            assert_eq!(got, want, "golden fingerprint changed for {selector:?} gating={gating}");
        }
    }
}

/// A served first-time job takes the cache's miss path: warm up, save
/// the warm-up checkpoint, keep stepping through the measured window.
/// This job used to panic there ("fast-forward ... across a wake-up
/// completion") because the save dropped a pending wake-up from the
/// scheduler's queue; its answer must equal the never-saved run's.
#[test]
fn cached_miss_path_matches_the_uncached_run() {
    let request = r#"{"config":"catnap-4x128","gating":true,"threads":1,"pattern":"uniform-random","schedule":[[0,0.035],[200,0.035]],"packet_bits":512,"warmup":200,"measure":400,"seed":3827578331}"#;
    let job = parse_job(&Json::parse(request).unwrap()).expect("job parses");
    let dir = std::env::temp_dir().join(format!("catnap-checkpoint-miss-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cache = SimCache::new(&dir, 64).expect("temp cache");
    let (point, outcome) = run_synthetic_cached(&mut cache, &job);
    assert_eq!(outcome, CacheOutcome::Miss);
    assert_eq!(
        point.to_json().to_compact_string(),
        run_job_uncached(&job).to_json().to_compact_string()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// With recording sinks on both halves, the pre-checkpoint trace plus
/// the resumed trace must equal the straight-through trace event for
/// event — checkpointing may not drop, duplicate, or reorder telemetry.
/// (Sink contents are deliberately not checkpointed: the resumed trace
/// covers only the suffix, which is exactly what this splices back.)
#[test]
fn recorded_trace_prefix_plus_resumed_suffix_equals_straight_through() {
    for (selector, gating, _) in PINNED {
        let cfg = golden_cfg(selector, gating);

        let mut net = MultiNoc::with_sinks(cfg.clone(), |_| RecordingSink::new());
        let mut load = golden_load(&net);
        for _ in 0..TOTAL_CYCLES {
            load.drive(&mut net);
            net.step();
        }
        let full = net.take_trace();
        assert!(
            full.num_events() > 0,
            "straight-through trace is empty for {selector:?} gating={gating}"
        );

        let mut net = MultiNoc::with_sinks(cfg.clone(), |_| RecordingSink::new());
        let mut load = golden_load(&net);
        for _ in 0..SPLIT_CYCLE {
            load.drive(&mut net);
            net.step();
        }
        let blob = net.save_checkpoint(&load.encode_position());
        let prefix = net.take_trace();

        let (mut resumed, driver) =
            MultiNoc::resume_with_sinks(cfg, |_| RecordingSink::new(), &blob).expect("recorded resume");
        let mut rload = SyntheticWorkload::decode_position(
            SyntheticPattern::UniformRandom,
            LoadSchedule::constant(0.08),
            512,
            resumed.dims(),
            &driver,
        )
        .expect("workload position decodes");
        for _ in SPLIT_CYCLE..TOTAL_CYCLES {
            rload.drive(&mut resumed);
            resumed.step();
        }
        let suffix = resumed.take_trace();

        let mut spliced_policy = prefix.policy.clone();
        spliced_policy.extend_from_slice(&suffix.policy);
        assert_eq!(
            spliced_policy, full.policy,
            "policy-layer trace diverged across the checkpoint for {selector:?} gating={gating}"
        );
        assert_eq!(prefix.subnets.len(), full.subnets.len());
        assert_eq!(suffix.subnets.len(), full.subnets.len());
        for (s, whole) in full.subnets.iter().enumerate() {
            let mut spliced = prefix.subnets[s].clone();
            spliced.extend_from_slice(&suffix.subnets[s]);
            assert_eq!(
                &spliced, whole,
                "subnet {s} trace diverged across the checkpoint for {selector:?} gating={gating}"
            );
        }
    }
}

/// Malformed checkpoints are rejected with a typed error before any
/// payload byte reaches the simulator: corruption anywhere in the blob,
/// a future format version, and a config whose fingerprint differs.
#[test]
fn rejects_corrupted_version_mismatched_and_foreign_checkpoints() {
    let cfg = golden_cfg(SelectorKind::CatnapPriority, true);
    let mut net = MultiNoc::new(cfg.clone());
    let mut load = golden_load(&net);
    for _ in 0..100 {
        load.drive(&mut net);
        net.step();
    }
    let blob = net.save_checkpoint(&load.encode_position());

    // Flip one bit at several positions spread across the blob: header,
    // payload, and checksum corruption must all be caught.
    for at in [9, blob.len() / 3, blob.len() / 2, blob.len() - 1] {
        let mut bad = blob.clone();
        bad[at] ^= 0x10;
        assert!(
            matches!(
                MultiNoc::resume_from(cfg.clone(), &bad),
                Err(CodecError::ChecksumMismatch)
            ),
            "corruption at byte {at} went undetected"
        );
    }

    // A truncated blob never passes the checksum either.
    assert!(MultiNoc::resume_from(cfg.clone(), &blob[..blob.len() - 7]).is_err());

    // Same payload re-sealed under a future version: rejected by the
    // version check, not misparsed.
    let fp = config_fingerprint(&cfg);
    let payload = codec::open(&blob, CHECKPOINT_VERSION, fp).expect("blob opens under current version");
    let future = codec::seal(CHECKPOINT_VERSION + 1, fp, payload);
    assert!(matches!(
        MultiNoc::resume_from(cfg.clone(), &future),
        Err(CodecError::UnsupportedVersion { found, expected }) if found == CHECKPOINT_VERSION + 1
            && expected == CHECKPOINT_VERSION
    ));

    // A different configuration (here: different seed) must refuse the
    // blob outright via the embedded fingerprint.
    let foreign = golden_cfg(SelectorKind::CatnapPriority, true).seed(8);
    assert!(matches!(
        MultiNoc::resume_from(foreign, &blob),
        Err(CodecError::FingerprintMismatch { .. })
    ));
}
