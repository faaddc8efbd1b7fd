//! The benchmark's contract, read from the committed `BENCHMARK.json`: run
//! length, the end-to-end metrics with their regression bounds, the
//! per-layer metrics. The file is compiled in, so a run needs no path to it.

use swap_store::json::{self, JsonValue};

use crate::stats::Better;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

#[derive(Debug)]
pub struct Spec {
    /// How long one run measures, in seconds (the default of `--seconds`).
    pub run_seconds: f64,
    /// What a user of the exchange sees. Every workload reports every one.
    pub end_to_end: Vec<Metric>,
    /// Single layers, named by module, from the traced run: `(a)` sums over
    /// the driver's spans, `(b)` direct timed probes of a layer's public
    /// functions, `(c)` counts read from reports and files.
    pub per_layer: Vec<Metric>,
}

/// `recovery_ms` is an end-to-end metric of `durable_deep_book` alone, and
/// `BENCHMARK.json` can bound only what every workload measures: it is
/// listed there per layer, printed by that workload's untraced run too, and
/// held to this bound by `agree`.
pub const RECOVERY_MS: &str = "recovery_ms";
pub const RECOVERY_BOUND: f64 = 0.10;

/// Counts that repeat exactly, on every run and seed: `agree` accepts no
/// difference at all, whatever tolerance `BENCHMARK.json` gives them.
pub const EXACT: [&str; 2] = ["sim_ticks_per_swap", "chain_bytes_per_swap"];

const TEXT: &str = include_str!("../../BENCHMARK.json");

/// Parses the compiled-in `BENCHMARK.json`; a malformed one is a broken
/// build, so this panics with what is wrong.
pub fn load() -> Spec {
    let doc = json::parse(TEXT).expect("BENCHMARK.json is valid JSON");
    let metrics = |key: &str| -> Vec<Metric> {
        let JsonValue::Array(items) = doc.get(key).expect("BENCHMARK.json lists its metrics")
        else {
            panic!("BENCHMARK.json: {key} is not a list");
        };
        let text = |m: &JsonValue, field: &str| {
            m.get(field).and_then(JsonValue::as_str).expect("a metric's text field").to_string()
        };
        items
            .iter()
            .map(|m| Metric {
                name: text(m, "name"),
                unit: text(m, "unit"),
                better: match text(m, "better").as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => panic!("BENCHMARK.json: better is {other:?}"),
                },
                bound: m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
            })
            .collect()
    };
    Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(JsonValue::as_f64)
            .expect("BENCHMARK.json gives run_seconds"),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_within_the_contract_limits() {
        let spec = load();
        let doc = json::parse(TEXT).expect("parses");
        let JsonValue::Object(fields) = &doc else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert!(TEXT.len() <= 64 * 1024);
        assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = spec.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up gets the largest bound");
        assert!(spec.end_to_end.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for name in EXACT {
            assert!(spec.end_to_end.iter().any(|m| m.name == name), "{name} is not end-to-end");
        }
        assert!(spec.per_layer.iter().any(|m| m.name == RECOVERY_MS));
    }

    #[test]
    fn workloads_are_the_five_the_crate_runs() {
        let doc = json::parse(TEXT).expect("parses");
        let Some(JsonValue::Array(listed)) = doc.get("workloads") else { panic!("no workloads") };
        let names: Vec<&str> =
            listed.iter().map(|w| w.get("name").and_then(JsonValue::as_str).unwrap()).collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        for w in listed {
            let why = w.get("why").and_then(JsonValue::as_str).expect("a why");
            assert!(why.len() <= 200 && !why.contains('\n'), "why too long: {why}");
        }
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let spec = load();
        let mut seen = BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(name_ok(&m.name), "bad name {}", m.name);
            assert!(unit_ok(&m.unit), "bad unit {}", m.unit);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()));
            assert!(seen.insert(w.name().to_string()), "duplicate {}", w.name());
        }
    }
}
