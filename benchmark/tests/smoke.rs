//! Runs the whole benchmark at `--smoke` scale, the way `run.sh all`
//! does, and holds its output to `BENCHMARK.json`: every workload and
//! every metric the file names is emitted exactly once, with the
//! declared unit, and the same seed gives the same digests and counts.

use json::entries;
use serde_json::Value;
use std::path::Path;
use std::process::Command;

#[path = "../src/json.rs"]
mod json;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    json::field(v, key).unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

fn text(v: &Value) -> &str {
    json::as_str(v).unwrap_or_else(|| panic!("not a string: {v:?}"))
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
}

/// One `all --smoke` set with fixed work, parsed.
fn smoke_set(seed: u64, set: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_cgn-benchmark"))
        .current_dir(repo_root())
        .args(["all", "--smoke", "--steps", "4", "--set", set])
        .args(["--seed", &seed.to_string()])
        .output()
        .expect("the benchmark starts");
    assert!(
        output.status.success(),
        "smoke set failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    serde_json::from_str(&String::from_utf8(output.stdout).expect("utf-8 output"))
        .expect("the set is one JSON document")
}

fn declared() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn seq<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match field(doc, key) {
        Value::Seq(items) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every declared workload once, every declared metric once per
/// workload, under its declared unit, with a finite value.
fn check_against_declaration(set: &Value) {
    let declared = declared();
    let workloads = entries(field(set, "workloads"));
    let declared_workloads: Vec<&str> = seq(&declared, "workloads")
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let emitted_workloads: Vec<&str> = workloads.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(emitted_workloads, declared_workloads);

    for (workload, result) in workloads {
        assert_eq!(field(result, "correct"), &Value::Bool(true), "{workload}");
        assert_eq!(field(result, "failed"), &Value::U64(0), "{workload}");
        for group in ["end_to_end", "per_layer"] {
            let emitted = entries(field(result, group));
            let declared_metrics = seq(&declared, group);
            let emitted_names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            let declared_names: Vec<&str> = declared_metrics
                .iter()
                .map(|m| text(field(m, "name")))
                .collect();
            assert_eq!(emitted_names, declared_names, "{workload} {group}");
            for ((name, metric), declared_metric) in emitted.iter().zip(declared_metrics) {
                assert!(name_ok(name), "metric name {name:?}");
                assert_eq!(
                    text(field(metric, "unit")),
                    text(field(declared_metric, "unit")),
                    "{workload} {name}"
                );
                let value = json::as_f64(field(metric, "value"))
                    .unwrap_or_else(|| panic!("{workload} {name} has no number"));
                assert!(value.is_finite(), "{workload} {name} = {value}");
                // An end-to-end metric of 0 has no ratio to bound.
                assert!(group == "per_layer" || value != 0.0, "{workload} {name}");
            }
        }
    }
}

fn fingerprints(set: &Value) -> Vec<(&String, &Value, &Value)> {
    entries(field(set, "workloads"))
        .iter()
        .map(|(name, r)| (name, field(r, "digest"), field(r, "counts")))
        .collect()
}

#[test]
fn smoke_set_emits_what_benchmark_json_declares() {
    let first = smoke_set(2016, "smoke-test-a");
    check_against_declaration(&first);

    // The same seed is the same work.
    let again = smoke_set(2016, "smoke-test-b");
    assert_eq!(fingerprints(&first), fingerprints(&again));

    // Another seed passes the same checks on other inputs.
    let other = smoke_set(7, "smoke-test-c");
    check_against_declaration(&other);
    assert_ne!(fingerprints(&first), fingerprints(&other));

    // `compare` accepts two sets of one seed: same digests and counts.
    let out = repo_root().join("benchmark/out");
    let status = Command::new(env!("CARGO_BIN_EXE_cgn-benchmark"))
        .current_dir(repo_root())
        .arg("compare")
        .arg(out.join("results-smoke-test-a.json"))
        .arg(out.join("results-smoke-test-b.json"))
        .output()
        .expect("compare starts");
    let table = String::from_utf8_lossy(&status.stdout);
    assert_eq!(
        table.matches("digest and exact counts: equal").count(),
        5,
        "{table}"
    );
    assert!(!table.contains("differs"), "{table}");
}
