//! The metric lists a result line must hold.
//!
//! `BENCHMARK.json` names every end-to-end and every per-layer metric
//! with its unit, and every run prints all of the list it reports (the
//! end-to-end one untraced, the per-layer one traced), whatever the
//! workload. `layers.json` lists, per workload, the metrics that
//! workload measures. An end-to-end metric is measured by every
//! workload; a per-layer metric the workload does not measure is
//! reported as 0 (`layers.json`'s `result_line` says why each is not).

use crate::Metric;
use catnap_util::Json;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");
const LAYERS: &str = include_str!("../layers.json");

fn parse(text: &str, what: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{what} does not parse: {e:?}"))
}

fn names(list: Option<&Json>) -> Vec<String> {
    list.and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|j| j.as_str().map(str::to_string))
        .collect()
}

fn kind(trace: bool) -> &'static str {
    if trace {
        "per_layer"
    } else {
        "end_to_end"
    }
}

/// The `(name, unit)` of every metric a run of this kind reports, in
/// manifest order.
pub fn listed(trace: bool) -> Vec<(String, String)> {
    let manifest = parse(MANIFEST, "BENCHMARK.json");
    let entries = manifest.get(kind(trace)).and_then(Json::as_array).unwrap_or(&[]);
    entries
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?;
            let unit = m.get("unit")?.as_str()?;
            Some((name.to_string(), unit.to_string()))
        })
        .collect()
}

/// The workloads of the manifest.
#[cfg(test)]
pub fn workloads() -> Vec<String> {
    let manifest = parse(MANIFEST, "BENCHMARK.json");
    let entries = manifest.get("workloads").and_then(Json::as_array).unwrap_or(&[]);
    entries
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
        .collect()
}

/// The metrics of this kind that `workload` measures, per `layers.json`.
pub fn measured(workload: &str, trace: bool) -> Vec<String> {
    let layers = parse(LAYERS, "layers.json");
    names(
        layers
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get(kind(trace))),
    )
}

/// The result's `metrics` object for a run of `workload`: every listed
/// metric of its kind, in manifest order. Also returns what is wrong:
/// a measured metric without a value or in another unit, or one the
/// manifest does not list. Anything wrong makes the result incorrect.
pub fn result_metrics(workload: &str, trace: bool, produced: &[Metric]) -> (Vec<(String, Json)>, Vec<String>) {
    let listed = listed(trace);
    let measured = measured(workload, trace);
    let mut problems = Vec::new();
    for m in produced {
        if !listed.iter().any(|(name, _)| name == m.name) {
            problems.push(format!("{} is not a {} metric of BENCHMARK.json", m.name, kind(trace)));
        }
    }
    let mut out = Vec::new();
    for (name, unit) in listed {
        let value = match produced.iter().find(|m| m.name == name) {
            Some(m) if m.unit != unit => {
                problems.push(format!("{name} is in {}, not {unit}", m.unit));
                continue;
            }
            Some(m) => m.value.filter(|v| v.is_finite()),
            None if trace && !measured.contains(&name) => Some(0.0),
            None => None,
        };
        let Some(value) = value else {
            problems.push(format!("no value for {name}"));
            continue;
        };
        let entry = Json::Obj(vec![
            ("value".to_string(), Json::Num(value)),
            ("unit".to_string(), Json::Str(unit)),
        ]);
        out.push((name, entry));
    }
    (out, problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_measures_every_end_to_end_metric() {
        let listed: Vec<String> = listed(false).into_iter().map(|(n, _)| n).collect();
        for w in workloads() {
            let mut measured = measured(&w, false);
            measured.sort();
            let mut want = listed.clone();
            want.sort();
            assert_eq!(measured, want, "{w}");
        }
    }

    #[test]
    fn every_per_layer_metric_is_measured_by_some_workload() {
        let listed: Vec<String> = listed(true).into_iter().map(|(n, _)| n).collect();
        let all: Vec<String> = workloads().iter().flat_map(|w| measured(w, true)).collect();
        for name in &listed {
            assert!(all.contains(name), "{name} is measured by no workload");
        }
        for name in &all {
            assert!(listed.contains(name), "{name} is not in BENCHMARK.json");
        }
    }

    #[test]
    fn unmeasured_layers_read_zero_and_gaps_are_problems() {
        let produced = [Metric::new("system.step_us", Some(2.5), "us")];
        let (out, problems) = result_metrics("mix_heavy", true, &produced);
        assert_eq!(out.len(), listed(true).len() - problems.len());
        let value = |name: &str| out.iter().find(|(n, _)| n == name).and_then(|(_, j)| j.get("value")?.as_f64());
        assert_eq!(value("system.step_us"), Some(2.5));
        assert_eq!(
            value("serve.parse_us"),
            Some(0.0),
            "mix_heavy makes no call into catnap-serve"
        );
        assert_eq!(value("power.accounting_us"), None);
        assert!(problems.contains(&"no value for power.accounting_us".to_string()));

        let wrong = [
            Metric::new("setup_s", Some(1.0), "ms"),
            Metric::new("bogus", Some(1.0), "s"),
        ];
        let (_, problems) = result_metrics("mix_heavy", false, &wrong);
        assert!(problems.iter().any(|p| p.starts_with("setup_s is in ms")));
        assert!(problems.iter().any(|p| p.starts_with("bogus is not")));
    }
}
