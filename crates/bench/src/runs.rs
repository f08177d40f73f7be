//! Common measurement procedures shared by the figure benches.

use crate::cached::{sweep_cached, SimJob};
use catnap::{MultiNoc, MultiNocConfig, MultiNocPowerReport, SimCache};
use catnap_multicore::{System, SystemConfig, SystemReport};
use catnap_power::TechParams;
use catnap_telemetry::{RecordingSink, Trace};
use catnap_traffic::{LoadSchedule, SyntheticPattern, SyntheticWorkload, WorkloadMix};
use catnap_util::pool::{effective_parallelism, fan_out};
use catnap_util::{impl_from_json_struct, impl_to_json_struct};

/// One point of a synthetic-traffic measurement.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Configuration name.
    pub config: String,
    /// Offered load, packets per node per cycle.
    pub offered: f64,
    /// Accepted throughput, packets per node per cycle.
    pub accepted: f64,
    /// Mean end-to-end packet latency in cycles.
    pub latency: f64,
    /// Compensated-sleep-cycle fraction in the measurement window.
    pub csc: f64,
    /// Dynamic network power, watts.
    pub dynamic_w: f64,
    /// Static network power (after gating), watts.
    pub static_w: f64,
}

impl_to_json_struct!(SweepPoint {
    config,
    offered,
    accepted,
    latency,
    csc,
    dynamic_w,
    static_w
});
impl_from_json_struct!(SweepPoint {
    config,
    offered,
    accepted,
    latency,
    csc,
    dynamic_w,
    static_w
});

impl SweepPoint {
    /// Total power.
    pub fn total_w(&self) -> f64 {
        self.dynamic_w + self.static_w
    }
}

/// Runs synthetic traffic at a constant offered load: `warmup` cycles
/// excluded, `measure` cycles measured.
pub fn run_synthetic(
    cfg: MultiNocConfig,
    pattern: SyntheticPattern,
    offered: f64,
    packet_bits: u32,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> SweepPoint {
    let name = cfg.name.clone();
    let tech = TechParams::catnap_32nm();
    let mut net = MultiNoc::new(cfg);
    let mut load = SyntheticWorkload::new(pattern, offered, packet_bits, net.dims(), seed);
    for _ in 0..warmup {
        load.drive(&mut net);
        net.step();
    }
    let start = net.snapshot();
    for _ in 0..measure {
        load.drive(&mut net);
        net.step();
    }
    let end = net.snapshot();
    let d = end.delta(&start);
    let power = net.power_between(&start, &end, tech);
    let nodes = net.dims().num_nodes();
    SweepPoint {
        config: name,
        offered,
        accepted: d.accepted_packets_per_node_cycle(nodes),
        latency: d.avg_latency(),
        csc: d.total_gating().csc_fraction(),
        dynamic_w: power.dynamic.total(),
        static_w: power.static_.total(),
    }
}

/// Runs synthetic traffic with recording sinks attached to every subnet
/// and the policy layer, returning the collected [`Trace`]. Feed the
/// result to [`crate::harness::emit_trace`] (Chrome `trace_event` JSON)
/// or [`crate::harness::emit_csv_timeline`] (per-epoch CSV).
///
/// The simulation itself is bit-identical to [`run_synthetic`] at the
/// same inputs — sinks only observe (see `tests/determinism.rs`).
pub fn trace_synthetic(
    cfg: MultiNocConfig,
    pattern: SyntheticPattern,
    offered: f64,
    packet_bits: u32,
    cycles: u64,
    seed: u64,
) -> Trace {
    let mut net = MultiNoc::with_sinks(cfg, |_| RecordingSink::new());
    let mut load = SyntheticWorkload::new(pattern, offered, packet_bits, net.dims(), seed);
    for _ in 0..cycles {
        load.drive(&mut net);
        net.step();
    }
    net.take_trace()
}

/// Latency/throughput sweep over offered loads.
///
/// Sweep points are independent simulations, so they fan out over
/// [`fan_out`] lanes (respecting the `CATNAP_THREADS` override); results
/// come back in load order, and each point is a deterministic function
/// of its inputs, so the output is identical to the serial sweep.
///
/// When `CATNAP_CACHE_DIR` is set, the sweep routes through the
/// fingerprint-keyed [`SimCache`] instead ([`latency_sweep_cached`]):
/// regenerating a figure whose points are already cached becomes O(1)
/// disk reads, and results are bit-identical either way.
pub fn latency_sweep(
    cfg: &MultiNocConfig,
    pattern: SyntheticPattern,
    loads: &[f64],
    packet_bits: u32,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    if std::env::var_os("CATNAP_CACHE_DIR").is_some() {
        let mut cache = SimCache::from_env_or("catnap-cache").expect("CATNAP_CACHE_DIR must be a writable directory");
        return latency_sweep_cached(&mut cache, cfg, pattern, loads, packet_bits, warmup, measure, seed);
    }
    let jobs: Vec<_> = loads
        .iter()
        .map(|&l| {
            let cfg = cfg.clone();
            move || run_synthetic(cfg, pattern, l, packet_bits, warmup, measure, seed)
        })
        .collect();
    fan_out(effective_parallelism(loads.len()), jobs)
}

/// [`latency_sweep`] through an explicit result cache: each point is an
/// O(1) read when previously computed, a checkpoint resume when another
/// job shares its warm-up prefix, and a full (stored) simulation
/// otherwise. Points run serially — the cache is the speedup here, and
/// misses at different constant rates do not share a warm-up prefix
/// anyway (a warm-up at rate 0.02 is a different warm-up than at 0.05;
/// use a piecewise [`LoadSchedule`] via [`crate::cached::SimJob`] to
/// share one).
#[allow(clippy::too_many_arguments)]
pub fn latency_sweep_cached(
    cache: &mut SimCache,
    cfg: &MultiNocConfig,
    pattern: SyntheticPattern,
    loads: &[f64],
    packet_bits: u32,
    warmup: u64,
    measure: u64,
    seed: u64,
) -> Vec<SweepPoint> {
    let jobs: Vec<SimJob> = loads
        .iter()
        .map(|&l| SimJob {
            cfg: cfg.clone(),
            pattern,
            schedule: LoadSchedule::constant(l),
            packet_bits,
            warmup,
            measure,
            seed,
        })
        .collect();
    sweep_cached(cache, &jobs).into_iter().map(|(point, _)| point).collect()
}

/// Result of a closed-loop multiprogrammed run.
#[derive(Clone, Debug)]
pub struct MixResult {
    /// Network configuration name.
    pub config: String,
    /// Workload mix name.
    pub mix: String,
    /// System report (IPC etc.).
    pub system: SystemReport,
    /// Network power over the measured window.
    pub power: MultiNocPowerReport,
}

impl_to_json_struct!(MixResult {
    config,
    mix,
    system,
    power
});

/// Runs a workload mix on a network design: `warmup` + `measure` cycles;
/// power and CSC measured over the `measure` window only.
pub fn run_mix(net_cfg: MultiNocConfig, mix: WorkloadMix, warmup: u64, measure: u64, seed: u64) -> MixResult {
    let config = net_cfg.name.clone();
    let tech = TechParams::catnap_32nm();
    let mut sys = System::new(SystemConfig::paper(), net_cfg, mix, seed);
    sys.run(warmup);
    let start = sys.net.snapshot();
    sys.run(measure);
    let end = sys.net.snapshot();
    let power = sys.net.power_between(&start, &end, tech);
    let system = sys.report();
    MixResult {
        config,
        mix: mix.name().to_string(),
        system,
        power,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_point_sane() {
        let p = run_synthetic(
            MultiNocConfig::catnap_4x128(),
            SyntheticPattern::UniformRandom,
            0.05,
            512,
            500,
            1_500,
            3,
        );
        assert!(p.accepted > 0.03 && p.accepted <= 0.06, "accepted {}", p.accepted);
        assert!(p.latency > 10.0 && p.latency < 200.0);
        assert!(p.total_w() > 1.0);
    }

    #[test]
    fn traced_run_collects_all_event_streams() {
        let t = trace_synthetic(
            MultiNocConfig::catnap_2x128_64core().gating(true),
            SyntheticPattern::UniformRandom,
            0.05,
            512,
            800,
            3,
        );
        assert_eq!(t.meta.cycles, 800);
        assert_eq!(t.subnets.len(), 2);
        assert!(
            !t.policy.is_empty(),
            "policy stream must carry select/inject/eject events"
        );
        let kinds = t.kind_counts();
        assert!(kinds[3] > 0, "no select events");
        assert!(kinds[4] > 0, "no inject events");
        assert!(kinds[5] > 0, "no eject events");
        assert!(kinds[0] > 0, "gating enabled but no power transitions");
    }

    #[test]
    fn mix_result_sane() {
        let r = run_mix(MultiNocConfig::single_noc_512b(), WorkloadMix::Light, 500, 1_000, 5);
        assert!(r.system.ipc > 10.0);
        assert!(r.power.total() > 10.0);
        assert_eq!(r.mix, "Light");
    }

    /// A serialized [`SweepPoint`] must keep the exact key set and order
    /// of the committed `bench_out/fig06.json` series, so regenerated
    /// figures stay diffable against the checked-in outputs.
    #[test]
    fn sweep_point_matches_fig06_fixture_shape() {
        use catnap_util::{Json, ToJson};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_out/fig06.json");
        let text = std::fs::read_to_string(path).expect("read fig06 fixture");
        let fixture = Json::parse(&text).expect("parse fig06 fixture");
        let Json::Arr(rows) = &fixture else {
            panic!("fig06 must be a JSON array")
        };
        assert!(!rows.is_empty());
        let Json::Obj(first) = &rows[0] else {
            panic!("fig06 rows must be objects")
        };
        let fixture_keys: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();

        let p = SweepPoint {
            config: "4NT-128b".to_string(),
            offered: 0.6,
            accepted: 0.394771484375,
            latency: 2170.1624406920537,
            csc: 0.0,
            dynamic_w: 19.643057834498343,
            static_w: 22.0,
        };
        let Json::Obj(ours) = p.to_json() else {
            panic!("SweepPoint must serialize to an object")
        };
        let our_keys: Vec<&str> = ours.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            our_keys, fixture_keys,
            "SweepPoint keys drifted from the fig06 series shape"
        );
    }

    /// The cached sweep path must be a pure wall-clock optimization:
    /// byte-identical points to the plain pooled sweep, and a repeated
    /// sweep served entirely from the result cache.
    #[test]
    fn cached_sweep_is_bit_identical_to_plain_sweep() {
        use catnap_util::ToJson;
        let dir = std::env::temp_dir().join(format!("catnap-runs-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = SimCache::new(&dir, 64).unwrap();
        let cfg = MultiNocConfig::catnap_2x128_64core().gating(true);
        let loads = [0.02, 0.05];
        let canon = |pts: &[SweepPoint]| pts.iter().map(|p| p.to_json().to_compact_string()).collect::<Vec<_>>();

        let plain = latency_sweep(&cfg, SyntheticPattern::UniformRandom, &loads, 512, 200, 200, 7);
        let first = latency_sweep_cached(
            &mut cache,
            &cfg,
            SyntheticPattern::UniformRandom,
            &loads,
            512,
            200,
            200,
            7,
        );
        let second = latency_sweep_cached(
            &mut cache,
            &cfg,
            SyntheticPattern::UniformRandom,
            &loads,
            512,
            200,
            200,
            7,
        );
        assert_eq!(canon(&plain), canon(&first), "cached sweep altered results");
        assert_eq!(canon(&plain), canon(&second), "cache replay altered results");
        assert_eq!(cache.stats().result_hits, 2, "second sweep must be all hits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// serialize ∘ parse is a string-level fixed point on the committed
    /// fig06 series (the in-tree writer reproduces the fixture verbatim).
    #[test]
    fn fig06_fixture_roundtrips_verbatim() {
        use catnap_util::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_out/fig06.json");
        let text = std::fs::read_to_string(path).expect("read fig06 fixture");
        let parsed = Json::parse(&text).expect("parse fig06 fixture");
        assert_eq!(parsed.to_pretty_string(), text.trim_end());
    }
}
