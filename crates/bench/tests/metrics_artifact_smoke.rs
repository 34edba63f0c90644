//! End-to-end smoke test for `repro -- dimensioning --metrics`: spawn
//! the actual `repro` binary in a fresh working directory, as a user
//! would, and hold the two artifacts it leaves there
//! (`BENCH_metrics.json`, `BENCH_metrics.prom`) to their contract.

use cgn_bench::metrics_artifact::MetricsReport;
use std::process::Command;

#[test]
fn dimensioning_metrics_writes_both_artifacts() {
    let dir = std::env::temp_dir().join(format!("cgn-repro-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fresh working directory");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["tiny", "dimensioning", "--metrics"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    let json = std::fs::read_to_string(dir.join("BENCH_metrics.json"));
    let prom = std::fs::read_to_string(dir.join("BENCH_metrics.prom"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "repro exits cleanly: {out:?}");

    let report: MetricsReport =
        serde_json::from_str(&json.expect("BENCH_metrics.json written")).expect("artifact parses");
    assert_eq!(report.schema, "cgn-metrics/3");
    let mixes = cgn_study::DimensioningConfig::small(report.seed).mixes;
    assert_eq!(report.metrics.mixes.len(), mixes.len(), "one entry per mix");
    for (entry, mix) in report.metrics.mixes.iter().zip(&mixes) {
        assert_eq!(entry.mix, mix.name);
        assert!(!entry.metrics.windows.is_empty(), "{}: windows", mix.name);
    }

    let prom = prom.expect("BENCH_metrics.prom written");
    assert!(prom.contains("# mix "), "{prom}");
    assert!(
        prom.contains("# TYPE cgn_mappings_created_total counter"),
        "{prom}"
    );

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote BENCH_metrics.json"), "{stdout}");
    assert!(!stdout.contains("perf reference"), "{stdout}");
}
