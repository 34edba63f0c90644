//! The benchmark's vocabulary, read from the `BENCHMARK.json` at the
//! repo root (compiled in, so the names a run prints and the names the
//! file declares cannot drift apart).

use crate::json::{as_f64, as_str, field};
use serde_json::Value;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base by which the metric may worsen; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    /// Workloads, in the order a full set runs them.
    pub workloads: Vec<String>,
    /// What `--trace 0` prints.
    pub end_to_end: Vec<Metric>,
    /// What `--trace 1` prints. The prefix is the module the number
    /// belongs to; a workload that does not load a layer reports 0.
    pub per_layer: Vec<Metric>,
}

fn items<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match field(doc, key) {
        Some(Value::Seq(items)) => items,
        _ => panic!("BENCHMARK.json: `{key}` is not a list"),
    }
}

fn text(item: &Value, key: &str) -> String {
    field(item, key)
        .and_then(as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks `{key}`"))
        .to_string()
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    items(doc, key)
        .iter()
        .map(|m| Metric {
            name: text(m, "name"),
            unit: text(m, "unit"),
            higher_is_better: text(m, "better") == "higher",
            bound: field(m, "bound").and_then(as_f64),
        })
        .collect()
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            workloads: items(&doc, "workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    })
}
