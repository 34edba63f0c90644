//! `compare A.json B.json`: two result sets against the bounds in
//! `BENCHMARK.json`. A is the base. For each workload and end-to-end
//! metric it prints both values, B ÷ A, the bound, and whether B is
//! worse than A by more than the bound. Two sets of the same seed and
//! `--steps` did the same work, so their digests and exact counts are
//! also held equal; time-bounded sets stop at different points and are
//! compared on the bounded metrics only.

use crate::json::{as_f64, as_str, entries, field};
use crate::set::SCHEMA;
use crate::spec::{spec, Metric};
use serde_json::Value;
use std::process::ExitCode;

/// Per-layer metrics that are exact counts of deterministic work.
const EXACT_LAYERS: [&str; 6] = [
    "nat.",
    "simnet.",
    "btdht.",
    "netalyzr.",
    "telemetry.",
    "metrics.",
];

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    match field(&doc, "schema").and_then(as_str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

fn value(workload: &Value, group: &str, metric: &str) -> Option<f64> {
    let m = field(field(workload, group)?, metric)?;
    field(m, "value").and_then(as_f64)
}

/// Whether `b` is worse than `a` by more than the metric's bound.
fn beyond_bound(metric: &Metric, a: f64, b: f64) -> bool {
    let bound = metric.bound.unwrap_or(0.0);
    if metric.higher_is_better {
        b < a * (1.0 - bound)
    } else {
        b > a * (1.0 + bound)
    }
}

/// Both sets fixed their work: same seed, same scale, same step count.
fn same_work(a: &Value, b: &Value) -> bool {
    let steps = field(a, "steps").and_then(as_f64);
    steps.is_some()
        && ["seed", "steps", "smoke"]
            .iter()
            .all(|k| field(a, k) == field(b, k))
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    let exact = same_work(&a, &b);
    let mut bad = 0u32;
    println!(
        "{:<15} {:<16} {:>16} {:>16} {:>8} {:>6}  status",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for workload in &spec().workloads {
        let (Some(wa), Some(wb)) = (
            field(&a, "workloads").and_then(|w| field(w, workload)),
            field(&b, "workloads").and_then(|w| field(w, workload)),
        ) else {
            println!("{workload:<15} missing from a set");
            bad += 1;
            continue;
        };
        for metric in &spec().end_to_end {
            let (Some(va), Some(vb)) = (
                value(wa, "end_to_end", &metric.name),
                value(wb, "end_to_end", &metric.name),
            ) else {
                println!("{workload:<15} {:<16} missing from a set", metric.name);
                bad += 1;
                continue;
            };
            let worse = beyond_bound(metric, va, vb);
            bad += worse as u32;
            println!(
                "{workload:<15} {:<16} {va:>16.6} {vb:>16.6} {:>8.4} {:>6.2}  {}",
                metric.name,
                vb / va,
                metric.bound.unwrap_or(0.0),
                if worse { "beyond-bound" } else { "ok" },
            );
        }
        if !exact {
            continue;
        }
        let mut differing: Vec<String> = Vec::new();
        if field(wa, "digest") != field(wb, "digest") {
            differing.push("digest".into());
        }
        let counts_b = field(wb, "counts");
        for (name, count) in field(wa, "counts").map_or(&[][..], entries) {
            if counts_b.and_then(|c| field(c, name)) != Some(count) {
                differing.push(name.clone());
            }
        }
        for metric in &spec().per_layer {
            let is_exact =
                metric.unit == "count" && EXACT_LAYERS.iter().any(|p| metric.name.starts_with(p));
            if is_exact
                && value(wa, "per_layer", &metric.name) != value(wb, "per_layer", &metric.name)
            {
                differing.push(metric.name.clone());
            }
        }
        if differing.is_empty() {
            println!("{workload:<15} digest and exact counts: equal");
        } else {
            println!("{workload:<15} differs in: {}", differing.join(", "));
            bad += 1;
        }
    }
    if !exact {
        println!(
            "exact counts not compared: the sets differ in seed, scale or --steps, or ran on a time budget"
        );
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".into(),
            unit: "1/s".into(),
            higher_is_better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn only_a_worse_b_is_beyond_the_bound() {
        assert!(!beyond_bound(&metric(true), 100.0, 91.0));
        assert!(beyond_bound(&metric(true), 100.0, 89.0));
        assert!(!beyond_bound(&metric(true), 100.0, 150.0));
        assert!(!beyond_bound(&metric(false), 100.0, 109.0));
        assert!(beyond_bound(&metric(false), 100.0, 111.0));
        assert!(!beyond_bound(&metric(false), 100.0, 50.0));
    }
}
