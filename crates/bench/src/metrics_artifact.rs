//! The `repro -- dimensioning --metrics` artifact: the windowed
//! aggregates of a metrics-enabled dimensioning run
//! (`BENCH_metrics.json`, schema [`METRICS_SCHEMA`]), their Prometheus
//! text exposition (`BENCH_metrics.prom`).

use cgn_study::DimensioningReport;
use cgn_traffic::MetricsSummary;
use serde::{Deserialize, Serialize};

/// Schema tag of [`MetricsReport`]. `/2` dropped the overhead `rows`
/// and the `scale` the removed perf harness measured them at; `/3`
/// dropped the wall-clock `probe_latency`.
pub const METRICS_SCHEMA: &str = "cgn-metrics/3";

/// The windowed metrics of one workload mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsMixPerf {
    pub mix: String,
    pub metrics: MetricsSummary,
}

/// Per-mix window series of the run plus what summarises them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSection {
    pub subscribers: u32,
    /// Aggregation window (simulated seconds).
    pub window_secs: u64,
    /// Folded FNV digest of every mix's final metric snapshot.
    pub snapshot_digest: String,
    /// Worst per-window shard-flow skew across the mixes (`max/mean`).
    pub worst_window_flow_imbalance: f64,
    /// Start of that worst window (simulated seconds).
    pub worst_window_start_secs: u64,
    pub mixes: Vec<MetricsMixPerf>,
}

impl MetricsSection {
    /// Prometheus text-format exposition of every mix's final
    /// snapshot, one `# mix` stanza per workload mix.
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        for m in &self.mixes {
            out.push_str(&format!("# mix {}\n", m.mix));
            out.push_str(&cgn_metrics::expo::render(&m.metrics.last));
        }
        out
    }
}

/// Standalone machine-readable metrics artifact (`BENCH_metrics.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    pub schema: String,
    pub seed: u64,
    pub shards: u16,
    pub threads: usize,
    pub duration_secs: u64,
    pub metrics: MetricsSection,
}

impl MetricsReport {
    /// Build the artifact from a metrics-enabled dimensioning run:
    /// window aggregates, snapshot digest and worst-window skew.
    /// `None` unless the run had `metrics_window_secs` set.
    pub fn from_dimensioning(report: &DimensioningReport) -> Option<MetricsReport> {
        let window_secs = report.config.metrics_window_secs?;
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut worst = 0.0f64;
        let mut worst_start = 0u64;
        let mut mixes = Vec::new();
        for run in &report.runs {
            let m = run.metrics.as_ref()?;
            digest ^= m.last.digest();
            digest = digest.wrapping_mul(0x1000_0000_01b3);
            if m.worst_window_flow_imbalance > worst {
                worst = m.worst_window_flow_imbalance;
                worst_start = m.worst_window_start_secs;
            }
            mixes.push(MetricsMixPerf {
                mix: run.mix_name.clone(),
                metrics: m.clone(),
            });
        }
        Some(MetricsReport {
            schema: METRICS_SCHEMA.to_string(),
            seed: report.config.seed,
            shards: report.config.shards,
            threads: report.config.threads,
            duration_secs: report.config.duration_secs,
            metrics: MetricsSection {
                subscribers: report.config.subscribers,
                window_secs,
                snapshot_digest: format!("{digest:016x}"),
                worst_window_flow_imbalance: worst,
                worst_window_start_secs: worst_start,
                mixes,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgn_study::dimensioning::DimensioningConfig;
    use cgn_traffic::WorkloadMix;

    #[test]
    fn metrics_report_builds_from_dimensioning_run() {
        let mut config = DimensioningConfig::small(9);
        config.subscribers = 80;
        config.shards = 2;
        config.duration_secs = 60;
        config.mixes = vec![WorkloadMix::all()[0].clone()];
        assert!(
            MetricsReport::from_dimensioning(&cgn_study::run_dimensioning(&config)).is_none(),
            "no metrics window configured"
        );
        config.metrics_window_secs = Some(30);
        let report = cgn_study::run_dimensioning(&config);
        let artifact = MetricsReport::from_dimensioning(&report).expect("metrics attached");
        assert_eq!(artifact.schema, METRICS_SCHEMA);
        assert_eq!(artifact.metrics.window_secs, 30);
        assert_eq!(artifact.metrics.mixes.len(), 1);
        assert!(artifact.metrics.exposition().contains("# mix"));
    }
}
