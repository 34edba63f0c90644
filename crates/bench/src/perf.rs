//! Machine-readable perf harness for the CGN dimensioning sweep.
//!
//! This is the BENCH-trajectory instrument for the sharded engine: it
//! runs the dimensioning sweep at 1×/4×/16× subscriber scale, times
//! every workload mix, and emits a [`PerfReport`] that serializes to
//! `BENCH_dimensioning.json` — the artifact the CI `perf` job uploads
//! and diffs against the committed `bench/baseline.json`
//! ([`check_against_baseline`]).
//!
//! Two cross-cutting measurements ride along:
//!
//! * **speedup** — the middle scale is run twice, sequentially
//!   (`threads = 1`) and with worker threads, and the flows/sec ratio
//!   is reported (`parallel_speedup`);
//! * **determinism** — the two passes must produce bit-identical
//!   [`cgn_traffic::RunSummary`] digests per mix; the harness panics
//!   otherwise, so every perf run doubles as a sequential-vs-sharded
//!   cross-check.

use cgn_study::dimensioning::{probe_latency_histogram, DimensioningConfig};
use cgn_study::DimensioningReport;
use cgn_telemetry::Record;
use cgn_traffic::{MetricsSummary, WorkloadMix};
use nat_engine::telemetry::TelemetryMode;
use nat_engine::PortAllocation;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema tag stamped into every report, for forward compatibility of
/// the committed baseline. `/2` added per-shard imbalance metrics and
/// the machine-relative `scaling_ratio`; `/3` added the median-of-N
/// per-scale envelope (`flows_per_sec_min`/`_max`) and the batch
/// (burst-pipeline) section; `/4` added the per-window
/// [`MetricsWindow::arena_chunks`](cgn_traffic::MetricsWindow)
/// level embedded in metrics sections and switched the scale sweep
/// to an untimed warm-up run plus pass-major interleaving across
/// scales (clock drift no longer biases the scaling ratio).
pub const SCHEMA: &str = "cgn-dimensioning-perf/4";

/// Default regression tolerance: fail when a machine-relative ratio
/// (scaling ratio, parallel speedup) drops by more than 20% against
/// the baseline.
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Knobs of one harness run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfSettings {
    pub seed: u64,
    /// Subscribers at scale 1×.
    pub base_subscribers: u32,
    /// Scale multipliers to sweep (the middle one also measures the
    /// sequential-vs-parallel speedup).
    pub scales: Vec<u32>,
    /// Simulated seconds per mix.
    pub duration_secs: u64,
    /// NAT state shards (the parallelism axis).
    pub shards: u16,
    /// Worker threads: `0` = one per available core.
    pub threads: usize,
    /// Also measure the telemetry-sink overhead at the middle scale
    /// (sink off vs per-connection vs per-block) and attach a
    /// [`LoggingSection`] to the report. Costs two extra middle-scale
    /// sweeps, so it is opt-in (the CI logging leg turns it on).
    pub sink_overhead: bool,
    /// Also measure the runtime-metrics overhead at the middle scale
    /// (registries off vs windowed registries) and attach a
    /// [`MetricsSection`] to the report. Includes the cross-thread
    /// determinism check — the metrics-on pass is re-run sequentially
    /// and its snapshots must be bit-identical — plus a wall-clock
    /// [`TraceIndex`](cgn_telemetry::TraceIndex) probe-latency
    /// measurement. Costs up to three extra middle-scale passes, so it
    /// is opt-in (the CI `metrics` job turns it on).
    pub metrics_overhead: bool,
    /// Timed passes per scale: each scale is measured `passes` times,
    /// the median pass (by flows/sec) becomes the reported number and
    /// the min/max land in the artifact
    /// ([`ScalePerf::flows_per_sec_min`]/[`ScalePerf::flows_per_sec_max`]),
    /// so a gate trip is
    /// diagnosable from the JSON alone. Every pass must produce a
    /// bit-identical digest — the repeat doubles as a determinism
    /// check. `0` behaves like `1`.
    pub passes: usize,
    /// Also measure the burst-pipeline throughput at the middle scale
    /// ([`Nat::process_burst`](nat_engine::Nat::process_burst) at the
    /// [`BATCH_BURSTS`] sizes, digest-checked against the burst=1
    /// scalar-equivalent pass) and attach a [`BatchSection`]. Costs
    /// one extra middle-scale sweep per burst size, so it is opt-in
    /// (the CI `batch` job turns it on).
    pub batch_overhead: bool,
    /// Also measure the flow-tracing overhead at the middle scale
    /// (tracer off vs the flight recorder sampling 1-in-N flows with
    /// the phase profiler armed) and attach a [`TraceSection`] to the
    /// report. The traced pass must reproduce the untraced sweep's
    /// digest bit-for-bit — the leg doubles as the
    /// tracing-is-observation-only check. Costs one extra middle-scale
    /// sweep, so it is opt-in (the CI `trace` job turns it on).
    pub trace_overhead: bool,
}

impl PerfSettings {
    /// The configuration behind the committed baseline.
    pub fn standard() -> PerfSettings {
        PerfSettings {
            seed: 2016,
            base_subscribers: 1_000,
            scales: vec![1, 4, 16],
            duration_secs: 240,
            shards: 4,
            threads: 0,
            sink_overhead: false,
            metrics_overhead: false,
            passes: 3,
            batch_overhead: false,
            trace_overhead: false,
        }
    }

    /// A seconds-scale smoke configuration (CI sanity, unit tests).
    pub fn quick() -> PerfSettings {
        PerfSettings {
            seed: 2016,
            base_subscribers: 150,
            scales: vec![1, 4],
            duration_secs: 90,
            shards: 4,
            threads: 0,
            sink_overhead: false,
            metrics_overhead: false,
            passes: 1,
            batch_overhead: false,
            trace_overhead: false,
        }
    }

    fn dimensioning(&self, subscribers: u32, threads: usize) -> DimensioningConfig {
        let mut c = DimensioningConfig::small(self.seed);
        c.subscribers = subscribers;
        c.shards = self.shards;
        c.external_ips_per_shard = 2;
        c.threads = threads;
        c.duration_secs = self.duration_secs;
        c.sample_secs = 30;
        c.sweep_secs = 20;
        c.mixes = WorkloadMix::all();
        c
    }
}

/// Timing of one workload mix at one scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixPerf {
    pub mix: String,
    pub flows: u64,
    pub packets: u64,
    pub peak_mappings: u64,
    pub wall_secs: f64,
    pub flows_per_sec: f64,
    /// Per-shard flow skew (`max/mean`, 1.0 = balanced).
    pub flow_imbalance: f64,
    /// Per-shard peak-mapping skew (`max/mean`, 1.0 = balanced).
    pub mapping_imbalance: f64,
}

/// One scale step of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalePerf {
    pub scale: u32,
    pub subscribers: u32,
    pub flows: u64,
    pub peak_mappings: u64,
    pub wall_secs: f64,
    /// Flows/sec of the **median** pass (by throughput) out of
    /// [`PerfSettings::passes`] timed passes of this scale.
    pub flows_per_sec: f64,
    /// Slowest pass of the envelope (equals `flows_per_sec` on
    /// single-pass runs). A gate trip with a wide `[min, max]` spread
    /// is noise; a narrow spread below the floor is a real regression
    /// — diagnosable from the artifact alone.
    pub flows_per_sec_min: f64,
    /// Fastest pass of the envelope.
    pub flows_per_sec_max: f64,
    /// Worst per-shard flow skew across the mixes of this scale.
    pub flow_imbalance: f64,
    /// Worst per-shard peak-mapping skew across the mixes.
    pub mapping_imbalance: f64,
    pub mixes: Vec<MixPerf>,
}

/// One telemetry configuration's throughput at the middle scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SinkOverheadPerf {
    /// `off`, `per-connection` or `per-block`.
    pub mode: String,
    /// Allocation policy the leg ran (label).
    pub port_alloc: String,
    pub flows: u64,
    pub wall_secs: f64,
    pub flows_per_sec: f64,
    pub log_records: u64,
    pub log_bytes: u64,
    /// Flows/s relative to the sink-off pass of the same run
    /// (`1.0` = no overhead; self-relative, so machine-independent).
    pub relative_throughput: f64,
}

/// The sink-overhead section attached by [`PerfSettings::sink_overhead`]
/// runs: the zero-cost-when-disabled claim, measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoggingSection {
    /// Scale the overhead was measured at.
    pub scale: u32,
    pub subscribers: u32,
    pub rows: Vec<SinkOverheadPerf>,
}

/// Standalone machine-readable logging-leg artifact
/// (`BENCH_logging.json`): the sink-overhead rows plus enough
/// metadata to interpret them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoggingReport {
    pub schema: String,
    pub seed: u64,
    pub shards: u16,
    pub threads: usize,
    pub duration_secs: u64,
    pub logging: LoggingSection,
}

/// Schema tag of [`LoggingReport`].
pub const LOGGING_SCHEMA: &str = "cgn-logging-perf/1";

/// One metrics configuration's throughput at the middle scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsOverheadPerf {
    /// `off` (no registries installed), `windowed` (per-shard
    /// registries plus the sample-barrier window aggregator), or
    /// `windowed+scrape` (windowed registries behind a live
    /// `cgn_opsd::OpsServer` republished at every closed window while
    /// a client scrapes `/metrics` in a tight loop).
    pub mode: String,
    pub flows: u64,
    pub wall_secs: f64,
    pub flows_per_sec: f64,
    /// Flows/s relative to the metrics-off pass of the same run
    /// (`1.0` = no overhead; self-relative, so machine-independent).
    pub relative_throughput: f64,
}

/// The windowed metrics of one workload mix from the metrics-on pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsMixPerf {
    pub mix: String,
    pub metrics: MetricsSummary,
}

/// Wall-clock traceability-query latency: up to 512 evenly-sampled
/// `TraceIndex` probes over the reference mix's decoded log, bucketed
/// by [`probe_latency_histogram`]. Wall-clock numbers live only in
/// this artifact layer — never in [`cgn_traffic::RunSummary`], which
/// is compared bit-for-bit across machines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeLatency {
    pub probes: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub mean_ns: f64,
}

impl ProbeLatency {
    pub fn from_histogram(h: &cgn_metrics::Histogram) -> ProbeLatency {
        // Interpolated quantiles: a log2 bucket upper bound overstates
        // the latency by up to 2x; interpolating within the bucket
        // keeps the reported nanoseconds comparable across runs whose
        // distributions straddle a bucket edge differently.
        ProbeLatency {
            probes: h.count,
            p50_ns: h.quantile_interpolated(0.50).round() as u64,
            p95_ns: h.quantile_interpolated(0.95).round() as u64,
            p99_ns: h.quantile_interpolated(0.99).round() as u64,
            mean_ns: h.mean(),
        }
    }
}

/// The metrics-overhead section attached by
/// [`PerfSettings::metrics_overhead`] runs: the
/// disabled-registry-is-free claim measured, the cross-thread
/// snapshot-determinism check passed, and the full per-mix window
/// series for the standalone [`MetricsReport`] artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSection {
    /// Scale the overhead was measured at.
    pub scale: u32,
    pub subscribers: u32,
    /// Aggregation window of the metrics-on pass (simulated seconds).
    pub window_secs: u64,
    /// `off` vs `windowed` vs `windowed+scrape` throughput rows.
    pub rows: Vec<MetricsOverheadPerf>,
    /// Folded FNV digest of every mix's final metric snapshot. The
    /// harness asserts the same digest from a sequential re-run, so a
    /// report carrying this field has passed the cross-thread
    /// bit-identical check.
    pub snapshot_digest: String,
    /// Worst per-window shard-flow skew across the mixes (`max/mean`).
    pub worst_window_flow_imbalance: f64,
    /// Start of that worst window (simulated seconds).
    pub worst_window_start_secs: u64,
    /// Per-mix windowed metrics from the metrics-on pass.
    pub mixes: Vec<MetricsMixPerf>,
    /// Wall-clock `TraceIndex` probe latency over the reference mix.
    pub probe_latency: Option<ProbeLatency>,
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

/// Standalone machine-readable metrics artifact
/// (`BENCH_metrics.json`): the windowed aggregates and overhead rows
/// plus enough metadata to interpret them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    pub schema: String,
    pub seed: u64,
    pub shards: u16,
    pub threads: usize,
    pub duration_secs: u64,
    pub metrics: MetricsSection,
}

/// Schema tag of [`MetricsReport`].
pub const METRICS_SCHEMA: &str = "cgn-metrics/1";

impl MetricsReport {
    /// Build the artifact from a metrics-enabled dimensioning run (the
    /// `repro -- dimensioning --metrics` path): window aggregates,
    /// snapshot digest and worst-window skew, but no overhead rows —
    /// those need the timed off/on passes only [`run_perf`] does.
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
                scale: 1,
                subscribers: report.config.subscribers,
                window_secs,
                rows: Vec::new(),
                snapshot_digest: format!("{digest:016x}"),
                worst_window_flow_imbalance: worst,
                worst_window_start_secs: worst_start,
                mixes,
                probe_latency: None,
            },
        })
    }
}

/// Burst sizes the batch leg sweeps. The first entry (`1`) is the
/// scalar-equivalent reference every `relative_throughput` is measured
/// against, and the last (`128`) is the one the CI `batch` gate pins
/// to ≥ 1.0× scalar.
pub const BATCH_BURSTS: [usize; 4] = [1, 8, 32, 128];

/// One burst size's throughput at the middle scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BurstPerf {
    /// Packets per window the driver staged per shard
    /// ([`cgn_traffic::DriverConfig::burst`]).
    pub burst: usize,
    pub flows: u64,
    pub wall_secs: f64,
    pub flows_per_sec: f64,
    /// Flows/s relative to the burst=1 pass of the same run (`1.0` =
    /// parity with the scalar path; self-relative, so
    /// machine-independent).
    pub relative_throughput: f64,
}

/// The burst-pipeline section attached by
/// [`PerfSettings::batch_overhead`] runs: throughput per burst size,
/// with every row's [`cgn_traffic::RunSummary`] digest asserted
/// bit-identical to the burst=1 reference — a report carrying this
/// section has passed the scalar-vs-batched equivalence check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSection {
    /// Scale the leg was measured at.
    pub scale: u32,
    pub subscribers: u32,
    pub rows: Vec<BurstPerf>,
    /// Folded per-mix digest, identical across every burst size by
    /// construction (the leg panics otherwise).
    pub digest: String,
    /// Inbound-reply sweep + arena occupancy (schema `/2`; `None` in
    /// `/1` artifacts, which keeps them parseable).
    pub inbound: Option<InboundBatchSection>,
}

/// The inbound leg of the batch section (schema `/2`): the same burst
/// sizes re-swept with [`INBOUND_REPLY_PERMILLE`] of forwarded flows
/// answered in the same millisecond, so every bucket that drew a
/// reply also runs the engine's inbound burst halves
/// ([`Nat::stage_inbound_burst`](nat_engine::Nat::stage_inbound_burst)).
/// Rows are relative to the leg's own burst=1 pass (one bucket per
/// window), and every row's folded digest must match
/// that reference bit-for-bit — the sweep doubles as the
/// inbound scalar-vs-burst equivalence check. The CI `batch` gate
/// pins the burst-128 row to ≥ 1.0× scalar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InboundBatchSection {
    /// Permille of forwarded flows receiving an in-batch reply.
    pub reply_permille: u32,
    pub rows: Vec<BurstPerf>,
    /// Folded per-mix digest of the inbound-enabled runs, identical
    /// across burst sizes (differs from the outbound section's digest
    /// because the reply leg changes engine stats).
    pub digest: String,
    /// Arena occupancy at the largest (LLC-stress) scale.
    pub arena: ArenaPerf,
}

/// Before/after slab-arena occupancy from a full run at the largest
/// scale, reduced from the per-window
/// [`arena_chunks`](cgn_traffic::MetricsWindow::arena_chunks) series.
/// `chunks_grown_after_warmup` is the CI-gated number: `0` means the
/// chunked arena stopped allocating after warm-up, i.e. the steady
/// state that used to ride through `Vec` doubling copy-storms now
/// runs on stable 2 MiB chunks with zero slab reallocation copies
/// (arena growth appends a chunk and never moves a slot).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArenaPerf {
    pub scale: u32,
    pub subscribers: u32,
    /// Sim-seconds treated as warm-up (half the run).
    pub warmup_secs: u64,
    /// Chunks mapped across shards at the last window inside warm-up.
    pub chunks_warm: u64,
    /// Chunks mapped at run end.
    pub chunks_final: u64,
    /// `chunks_final - chunks_warm`; gated to `0`.
    pub chunks_grown_after_warmup: u64,
    /// Free (expired, reusable) slots at run end — churn headroom the
    /// address-ordered free list packs toward the arena front.
    pub slots_free_final: u64,
}

/// Standalone machine-readable batch artifact (`BENCH_batch.json`):
/// the burst-sweep rows plus enough metadata to interpret them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    pub schema: String,
    pub seed: u64,
    pub shards: u16,
    pub threads: usize,
    pub duration_secs: u64,
    pub batch: BatchSection,
}

/// Schema tag of [`BatchReport`]. `/2` added the inbound-reply sweep
/// and arena occupancy ([`BatchSection::inbound`]).
pub const BATCH_SCHEMA: &str = "cgn-batch-perf/2";

/// Permille of forwarded flows the inbound batch leg answers in-batch
/// — heavy enough that the reply path is a first-order cost, light
/// enough that the sweep still predominantly measures the outbound
/// pipeline it rides on.
pub const INBOUND_REPLY_PERMILLE: u32 = 250;

/// Measure the wall-clock [`TraceIndex`](cgn_telemetry::TraceIndex)
/// probe-latency histogram for a dimensioning configuration: run its
/// reference mix with per-connection logging, decode the shard logs,
/// and time evenly-sampled attribution queries. `None` when the
/// configuration has no mixes.
pub fn measure_probe_latency(config: &DimensioningConfig) -> Option<ProbeLatency> {
    let mix = config.mixes.first()?.clone();
    let mut config = config.clone();
    config.telemetry = TelemetryMode::PerConnection;
    let (_, logs) = cgn_traffic::run_with_logs(&config.driver_config(mix));
    let records: Vec<Record> = logs
        .iter()
        .flat_map(|l| l.decode().expect("self-produced log decodes"))
        .collect();
    Some(ProbeLatency::from_histogram(&probe_latency_histogram(
        &records,
    )))
}

/// Flow-sampling rate of the perf trace leg: 1-in-N flows land in
/// the flight recorder — dense enough that every phase and span kind
/// shows up at the quick scale, sparse enough that the sampled pass
/// still predominantly measures the pipeline it observes.
pub const TRACE_SAMPLE_ONE_IN: u32 = 64;

/// One tracer configuration's throughput at the middle scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceOverheadPerf {
    /// `off` (no tracer installed — the sweep's own pass) or
    /// `sampled` (flight recorder at 1-in-[`TRACE_SAMPLE_ONE_IN`]
    /// plus the wall-clock phase profiler).
    pub mode: String,
    pub flows: u64,
    pub wall_secs: f64,
    pub flows_per_sec: f64,
    /// Flows/s relative to the tracer-off pass of the same run
    /// (`1.0` = no overhead; self-relative, so machine-independent).
    pub relative_throughput: f64,
}

/// Interpolated wall-clock latency quantiles of one pipeline phase,
/// merged across every mix of the traced pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasePerf {
    /// [`Phase::name`](cgn_trace::Phase::name) of the region.
    pub phase: String,
    pub count: u64,
    pub p50_ns: f64,
    pub p95_ns: f64,
    pub p99_ns: f64,
}

/// The tracing-overhead section attached by
/// [`PerfSettings::trace_overhead`] runs: the
/// tracer-absent-costs-one-branch claim priced, the traced pass
/// digest-checked against the untraced sweep (tracing is observation
/// only), the merged phase-latency table, and the reference mix's
/// flight recorder as Chrome-trace JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSection {
    /// Scale the overhead was measured at.
    pub scale: u32,
    pub subscribers: u32,
    /// Flow-sampling rate of the traced pass (1-in-N).
    pub sample_one_in: u32,
    /// Per-shard flight-recorder ring capacity (events).
    pub ring_capacity: usize,
    /// `off` vs `sampled` throughput rows.
    pub rows: Vec<TraceOverheadPerf>,
    /// Folded per-mix digest of the traced runs. [`measure_trace_leg`]
    /// asserts it equals the untraced sweep's digest, so a report
    /// carrying this section has passed the observation-only check.
    pub digest: String,
    /// Flight-recorder events retained across all mixes.
    pub events: u64,
    /// Flows that fell into the 1-in-N sample across all mixes.
    pub sampled_flows: u64,
    /// Events overwritten by the bounded rings across all mixes.
    pub evicted: u64,
    /// Per-phase latency quantiles, merged across mixes and shards.
    pub phases: Vec<PhasePerf>,
    /// Chrome-trace JSON of the reference (first) mix's dump — the
    /// uploadable Perfetto artifact (`perf -- trace-chrome=PATH`).
    pub chrome: String,
}

/// Standalone machine-readable trace artifact (`BENCH_trace.json`):
/// the tracing rows plus enough metadata to interpret them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    pub schema: String,
    pub seed: u64,
    pub shards: u16,
    pub threads: usize,
    pub duration_secs: u64,
    pub trace: TraceSection,
}

/// Schema tag of [`TraceReport`].
pub const TRACE_SCHEMA: &str = "cgn-trace/1";

/// Time the dimensioning sweep at one scale with the flight recorder
/// sampling 1-in-[`TRACE_SAMPLE_ONE_IN`] flows and the phase profiler
/// armed. `off` is the tracer-free pass the sweep already timed;
/// `expected_digest` (when given) pins the traced pass to it — the
/// leg panics if installing the tracer changes any run digest.
pub fn measure_trace_leg(
    settings: &PerfSettings,
    scale: u32,
    threads: usize,
    off: &ScalePerf,
    expected_digest: Option<&str>,
) -> TraceSection {
    let subscribers = settings.base_subscribers * scale;
    let config = settings.dimensioning(subscribers, threads);
    let trace = cgn_traffic::TraceConfig::sampled(TRACE_SAMPLE_ONE_IN);
    let mut flows = 0u64;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut profile = cgn_trace::PhaseProfiler::new();
    let mut events = 0u64;
    let mut sampled_flows = 0u64;
    let mut evicted = 0u64;
    let mut chrome = None;
    let t0 = Instant::now();
    for mix in &config.mixes {
        let mut d = config.driver_config(mix.clone());
        d.trace = trace;
        let mut session = cgn_traffic::DriverSession::new(&d);
        while session.step().is_some() {}
        if let Some(p) = session.phase_profile() {
            profile.merge(&p);
        }
        let dump = session
            .trace_dump()
            .expect("tracer installed for the traced pass");
        events += dump.events.len() as u64;
        sampled_flows += dump.sampled_flows;
        evicted += dump.evicted;
        if chrome.is_none() {
            chrome = Some(cgn_trace::chrome_trace_json(&dump));
        }
        let (summary, _) = session.finish();
        flows += summary.flows_started;
        digest ^= summary.digest();
        digest = digest.wrapping_mul(0x1000_0000_01b3);
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    let digest = format!("{digest:016x}");
    if let Some(expected) = expected_digest {
        assert_eq!(
            digest, expected,
            "installing the tracer must not change any run digest              (tracing is observation only)"
        );
    }
    let fps = flows as f64 / wall_secs.max(1e-9);
    TraceSection {
        scale,
        subscribers,
        sample_one_in: trace.sample_one_in,
        ring_capacity: trace.ring_capacity,
        rows: vec![
            TraceOverheadPerf {
                mode: "off".to_string(),
                flows: off.flows,
                wall_secs: off.wall_secs,
                flows_per_sec: off.flows_per_sec,
                relative_throughput: 1.0,
            },
            TraceOverheadPerf {
                mode: "sampled".to_string(),
                flows,
                wall_secs,
                flows_per_sec: fps,
                relative_throughput: fps / off.flows_per_sec.max(1e-9),
            },
        ],
        digest,
        events,
        sampled_flows,
        evicted,
        phases: profile
            .percentile_rows()
            .into_iter()
            .map(|(phase, p50, p95, p99, count)| PhasePerf {
                phase: phase.name().to_string(),
                count,
                p50_ns: p50,
                p95_ns: p95,
                p99_ns: p99,
            })
            .collect(),
        chrome: chrome.expect("at least one mix ran"),
    }
}

/// The full machine-readable report (`BENCH_dimensioning.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    pub schema: String,
    pub seed: u64,
    pub shards: u16,
    /// Resolved worker-thread count used for the scale sweep.
    pub threads: usize,
    pub available_cores: usize,
    pub duration_secs: u64,
    pub scales: Vec<ScalePerf>,
    /// Flows/sec of the middle scale run with `threads = 1`.
    pub sequential_flows_per_sec: f64,
    /// Flows/sec of the middle scale run with worker threads.
    pub parallel_flows_per_sec: f64,
    /// `parallel / sequential`; 1.0 when only one core is available.
    pub parallel_speedup: f64,
    /// Flows/sec of the largest scale over the smallest — the
    /// state-table-growth degradation the slab store exists to fight.
    /// Self-measured per run, so it compares across machines.
    pub scaling_ratio: f64,
    /// Folded per-mix digest of the speedup scale — equal between the
    /// sequential and parallel pass by construction (the harness
    /// asserts it), and useful to diff across machines.
    pub digest: String,
    /// Sink-overhead measurement (only on [`PerfSettings::sink_overhead`]
    /// runs; absent from older baselines — `Option` keeps the
    /// committed `bench/baseline.json` parseable unchanged).
    pub logging: Option<LoggingSection>,
    /// Metrics-overhead measurement (only on
    /// [`PerfSettings::metrics_overhead`] runs; `Option` for the same
    /// baseline-compatibility reason as `logging`).
    pub metrics: Option<MetricsSection>,
    /// Burst-pipeline measurement (only on
    /// [`PerfSettings::batch_overhead`] runs; `Option` for the same
    /// baseline-compatibility reason as `logging`).
    pub batch: Option<BatchSection>,
    /// Tracing-overhead measurement (only on
    /// [`PerfSettings::trace_overhead`] runs; `Option` for the same
    /// baseline-compatibility reason as `logging`).
    pub trace: Option<TraceSection>,
}

impl PerfReport {
    /// The standalone `BENCH_logging.json` artifact, when this run
    /// measured sink overhead.
    pub fn logging_report(&self) -> Option<LoggingReport> {
        self.logging.as_ref().map(|section| LoggingReport {
            schema: LOGGING_SCHEMA.to_string(),
            seed: self.seed,
            shards: self.shards,
            threads: self.threads,
            duration_secs: self.duration_secs,
            logging: section.clone(),
        })
    }

    /// The standalone `BENCH_metrics.json` artifact, when this run
    /// measured metrics overhead.
    pub fn metrics_report(&self) -> Option<MetricsReport> {
        self.metrics.as_ref().map(|section| MetricsReport {
            schema: METRICS_SCHEMA.to_string(),
            seed: self.seed,
            shards: self.shards,
            threads: self.threads,
            duration_secs: self.duration_secs,
            metrics: section.clone(),
        })
    }

    /// The standalone `BENCH_batch.json` artifact, when this run
    /// measured the burst-pipeline sweep.
    pub fn batch_report(&self) -> Option<BatchReport> {
        self.batch.as_ref().map(|section| BatchReport {
            schema: BATCH_SCHEMA.to_string(),
            seed: self.seed,
            shards: self.shards,
            threads: self.threads,
            duration_secs: self.duration_secs,
            batch: section.clone(),
        })
    }

    /// The standalone `BENCH_trace.json` artifact, when this run
    /// measured the tracing overhead.
    pub fn trace_report(&self) -> Option<TraceReport> {
        self.trace.as_ref().map(|section| TraceReport {
            schema: TRACE_SCHEMA.to_string(),
            seed: self.seed,
            shards: self.shards,
            threads: self.threads,
            duration_secs: self.duration_secs,
            trace: section.clone(),
        })
    }
}

/// Measure one scale: [`PerfSettings::passes`] timed passes back to
/// back, folded by [`fold_passes`]. The scale sweep in [`run_perf`]
/// interleaves its passes across scales instead and folds the same
/// way; this consecutive variant serves the sequential speedup leg.
fn measure_scale(settings: &PerfSettings, scale: u32, threads: usize) -> (ScalePerf, u64) {
    let passes = settings.passes.max(1);
    fold_passes(
        scale,
        (0..passes)
            .map(|_| measure_scale_once(settings, scale, threads))
            .collect(),
    )
}

/// Fold repeated passes of one scale: median by flows/sec reported,
/// min/max recorded as the envelope, digests asserted bit-identical
/// across passes (the repeat is also a determinism check).
fn fold_passes(scale: u32, mut runs: Vec<(ScalePerf, u64)>) -> (ScalePerf, u64) {
    let digest = runs[0].1;
    assert!(
        runs.iter().all(|(_, d)| *d == digest),
        "every pass of scale {scale}x must produce a bit-identical digest"
    );
    runs.sort_by(|a, b| a.0.flows_per_sec.total_cmp(&b.0.flows_per_sec));
    let min = runs.first().map(|(p, _)| p.flows_per_sec).unwrap_or(0.0);
    let max = runs.last().map(|(p, _)| p.flows_per_sec).unwrap_or(0.0);
    let mut median = runs.swap_remove(runs.len() / 2).0;
    median.flows_per_sec_min = min;
    median.flows_per_sec_max = max;
    (median, digest)
}

/// One timed pass of the dimensioning sweep at one scale.
fn measure_scale_once(settings: &PerfSettings, scale: u32, threads: usize) -> (ScalePerf, u64) {
    let subscribers = settings.base_subscribers * scale;
    let config = settings.dimensioning(subscribers, threads);
    let mut mixes = Vec::new();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let t0 = Instant::now();
    for mix in &config.mixes {
        let m0 = Instant::now();
        let summary = cgn_traffic::run(&config.driver_config(mix.clone()));
        let wall = m0.elapsed().as_secs_f64();
        digest ^= summary.digest();
        digest = digest.wrapping_mul(0x1000_0000_01b3);
        mixes.push(MixPerf {
            mix: summary.mix_name.clone(),
            flows: summary.flows_started,
            packets: summary.packets_sent,
            peak_mappings: summary.report.peak_mappings,
            wall_secs: wall,
            flows_per_sec: summary.flows_started as f64 / wall.max(1e-9),
            flow_imbalance: summary.shard_load.flow_imbalance,
            mapping_imbalance: summary.shard_load.mapping_imbalance,
        });
    }
    let wall = t0.elapsed().as_secs_f64();
    let flows: u64 = mixes.iter().map(|m| m.flows).sum();
    let fps = flows as f64 / wall.max(1e-9);
    (
        ScalePerf {
            scale,
            subscribers,
            flows,
            peak_mappings: mixes.iter().map(|m| m.peak_mappings).max().unwrap_or(0),
            wall_secs: wall,
            flows_per_sec: fps,
            flows_per_sec_min: fps,
            flows_per_sec_max: fps,
            flow_imbalance: mixes.iter().map(|m| m.flow_imbalance).fold(0.0, f64::max),
            mapping_imbalance: mixes
                .iter()
                .map(|m| m.mapping_imbalance)
                .fold(0.0, f64::max),
            mixes,
        },
        digest,
    )
}

/// Run the harness: the scale sweep with worker threads, plus the
/// sequential pass of the middle scale for the speedup and determinism
/// cross-check.
pub fn run_perf(settings: &PerfSettings) -> PerfReport {
    assert!(!settings.scales.is_empty(), "need at least one scale");
    let available_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = match settings.threads {
        0 => available_cores,
        n => n,
    };

    // One untimed pass of the largest scale's first mix before any
    // timing: a fresh process gets its first seconds at boost clocks
    // on small containers, and whichever scale is measured first
    // pockets that turbo margin — the scaling ratio then tracks the
    // frequency governor, not the CGN. Burning the boost window up
    // front (and pre-faulting the largest working set) puts every
    // timed pass at sustained clocks.
    {
        let largest = *settings.scales.last().expect("scales non-empty");
        let config = settings.dimensioning(settings.base_subscribers * largest, threads);
        let mix = config.mixes.first().cloned().expect("mixes non-empty");
        let _ = cgn_traffic::run(&config.driver_config(mix));
    }

    // Pass-major, scale-minor: every scale is timed at every point of
    // any residual clock/thermal drift, so drift cancels out of the
    // scaling ratio instead of deflating whichever scale ran last.
    let passes = settings.passes.max(1);
    let mut per_scale: Vec<Vec<(ScalePerf, u64)>> =
        settings.scales.iter().map(|_| Vec::new()).collect();
    for _ in 0..passes {
        for (runs, &scale) in per_scale.iter_mut().zip(&settings.scales) {
            runs.push(measure_scale_once(settings, scale, threads));
        }
    }
    let mut scales = Vec::new();
    let mut digests = Vec::new();
    for (runs, &scale) in per_scale.into_iter().zip(&settings.scales) {
        let (perf, digest) = fold_passes(scale, runs);
        scales.push(perf);
        digests.push(digest);
    }

    // Speedup + determinism cross-check on the middle scale.
    let mid = settings.scales.len() / 2;
    let parallel_flows_per_sec = scales[mid].flows_per_sec;
    let (sequential_flows_per_sec, digest) = if threads <= 1 {
        (parallel_flows_per_sec, digests[mid])
    } else {
        let (seq, seq_digest) = measure_scale(settings, settings.scales[mid], 1);
        assert_eq!(
            seq_digest, digests[mid],
            "sequential and parallel runs must be bit-identical"
        );
        (seq.flows_per_sec, seq_digest)
    };

    let scaling_ratio = match (scales.first(), scales.last()) {
        (Some(first), Some(last)) if first.flows_per_sec > 0.0 => {
            last.flows_per_sec / first.flows_per_sec
        }
        _ => 1.0,
    };

    // Sink-overhead legs: the middle scale re-run with per-connection
    // and per-block logging, compared against the sink-off pass the
    // sweep already timed (self-relative, so machine-independent).
    let logging = settings.sink_overhead.then(|| {
        let mid_scale = settings.scales[mid];
        let off = &scales[mid];
        let mut rows = vec![SinkOverheadPerf {
            mode: "off".to_string(),
            port_alloc: "random (sink disabled)".to_string(),
            flows: off.flows,
            wall_secs: off.wall_secs,
            flows_per_sec: off.flows_per_sec,
            log_records: 0,
            log_bytes: 0,
            relative_throughput: 1.0,
        }];
        let legs: [(&str, &str, TelemetryMode, Option<PortAllocation>); 2] = [
            (
                "per-connection",
                "random",
                TelemetryMode::PerConnection,
                None,
            ),
            (
                "per-block",
                "port-block/1024",
                TelemetryMode::PerBlock,
                Some(PortAllocation::PortBlock { block_size: 1024 }),
            ),
        ];
        for (mode_name, alloc_name, mode, alloc) in legs {
            let (flows, wall, records, bytes) =
                measure_sink_leg(settings, mid_scale, threads, mode, alloc);
            let fps = flows as f64 / wall.max(1e-9);
            rows.push(SinkOverheadPerf {
                mode: mode_name.to_string(),
                port_alloc: alloc_name.to_string(),
                flows,
                wall_secs: wall,
                flows_per_sec: fps,
                log_records: records,
                log_bytes: bytes,
                relative_throughput: fps / off.flows_per_sec.max(1e-9),
            });
        }
        LoggingSection {
            scale: mid_scale,
            subscribers: settings.base_subscribers * mid_scale,
            rows,
        }
    });

    // Metrics-overhead legs: the middle scale re-run with windowed
    // registries (timed against the registry-free pass the sweep
    // already produced), then re-run sequentially to assert the
    // snapshots are bit-identical across thread counts.
    let metrics = settings.metrics_overhead.then(|| {
        let mid_scale = settings.scales[mid];
        let off = &scales[mid];
        let leg = measure_metrics_leg(settings, mid_scale, threads);
        if threads > 1 {
            let seq = measure_metrics_leg(settings, mid_scale, 1);
            assert_eq!(
                seq.mixes, leg.mixes,
                "metric snapshots must be bit-identical across thread counts"
            );
            assert_eq!(seq.digest, leg.digest);
        }
        let fps = leg.flows as f64 / leg.wall_secs.max(1e-9);
        let scrape = measure_scrape_leg(settings, mid_scale, threads);
        assert!(
            scrape.scrapes > 0,
            "the scrape client must complete pulls while the leg runs"
        );
        let scrape_fps = scrape.flows as f64 / scrape.wall_secs.max(1e-9);
        let probe_config = settings.dimensioning(settings.base_subscribers * mid_scale, threads);
        MetricsSection {
            scale: mid_scale,
            subscribers: settings.base_subscribers * mid_scale,
            window_secs: leg.window_secs,
            rows: vec![
                MetricsOverheadPerf {
                    mode: "off".to_string(),
                    flows: off.flows,
                    wall_secs: off.wall_secs,
                    flows_per_sec: off.flows_per_sec,
                    relative_throughput: 1.0,
                },
                MetricsOverheadPerf {
                    mode: "windowed".to_string(),
                    flows: leg.flows,
                    wall_secs: leg.wall_secs,
                    flows_per_sec: fps,
                    relative_throughput: fps / off.flows_per_sec.max(1e-9),
                },
                MetricsOverheadPerf {
                    mode: "windowed+scrape".to_string(),
                    flows: scrape.flows,
                    wall_secs: scrape.wall_secs,
                    flows_per_sec: scrape_fps,
                    relative_throughput: scrape_fps / off.flows_per_sec.max(1e-9),
                },
            ],
            snapshot_digest: format!("{:016x}", leg.digest),
            worst_window_flow_imbalance: leg.worst_window_flow_imbalance,
            worst_window_start_secs: leg.worst_window_start_secs,
            mixes: leg.mixes,
            probe_latency: measure_probe_latency(&probe_config),
        }
    });

    // Burst-pipeline leg: the middle scale swept across burst sizes,
    // digest-checked against the burst=1 scalar-equivalent pass.
    let batch = settings
        .batch_overhead
        .then(|| measure_batch_leg(settings, settings.scales[mid], threads));

    // Tracing leg: the middle scale re-run with the flight recorder
    // and phase profiler on, digest-pinned to the untraced sweep.
    let trace = settings.trace_overhead.then(|| {
        measure_trace_leg(
            settings,
            settings.scales[mid],
            threads,
            &scales[mid],
            Some(&format!("{digest:016x}")),
        )
    });

    PerfReport {
        schema: SCHEMA.to_string(),
        seed: settings.seed,
        shards: settings.shards,
        threads,
        available_cores,
        duration_secs: settings.duration_secs,
        scales,
        sequential_flows_per_sec,
        parallel_flows_per_sec,
        parallel_speedup: parallel_flows_per_sec / sequential_flows_per_sec.max(1e-9),
        scaling_ratio,
        digest: format!("{digest:016x}"),
        logging,
        metrics,
        batch,
        trace,
    }
}

/// Re-measure the registry-disabled scale sweep once and fold it into
/// `report` as an envelope: each scale keeps its fastest pass, and the
/// self-measured scaling ratio is recomputed from the envelope.
///
/// Exists for gates tighter than single-pass noise (the 2% metrics
/// gate): on shared hardware one pass carries several percent of
/// interference jitter, which only ever *subtracts* throughput, so the
/// best-of-N envelope converges on the machine's actual capability —
/// while a real code regression depresses every pass alike and still
/// trips the gate.
pub fn fold_best_scales(report: &mut PerfReport, settings: &PerfSettings) {
    for (i, &scale) in settings.scales.iter().enumerate() {
        // One fresh pass per scale (not a full median-of-N): the fold
        // only ever widens the envelope, so a single pass per retry is
        // enough and keeps gate retries cheap.
        let (perf, _) = measure_scale_once(settings, scale, report.threads);
        let cur = &mut report.scales[i];
        let min = cur.flows_per_sec_min.min(perf.flows_per_sec);
        let max = cur.flows_per_sec_max.max(perf.flows_per_sec);
        if perf.flows_per_sec > cur.flows_per_sec {
            *cur = perf;
        }
        cur.flows_per_sec_min = min;
        cur.flows_per_sec_max = max;
    }
    if let (Some(first), Some(last)) = (report.scales.first(), report.scales.last()) {
        if first.flows_per_sec > 0.0 {
            report.scaling_ratio = last.flows_per_sec / first.flows_per_sec;
        }
    }
}

/// Outcome of one timed metrics-on pass of the dimensioning sweep.
struct MetricsLeg {
    flows: u64,
    wall_secs: f64,
    window_secs: u64,
    /// Folded FNV digest of every mix's final snapshot.
    digest: u64,
    worst_window_flow_imbalance: f64,
    worst_window_start_secs: u64,
    mixes: Vec<MetricsMixPerf>,
}

/// Time the dimensioning sweep at one scale with windowed metric
/// registries installed (window = the sweep's sample interval).
fn measure_metrics_leg(settings: &PerfSettings, scale: u32, threads: usize) -> MetricsLeg {
    let subscribers = settings.base_subscribers * scale;
    let mut config = settings.dimensioning(subscribers, threads);
    config.metrics_window_secs = Some(config.sample_secs);
    let window_secs = config.sample_secs;
    let mut flows = 0u64;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut worst = 0.0f64;
    let mut worst_start = 0u64;
    let mut mixes = Vec::new();
    let t0 = Instant::now();
    for mix in &config.mixes {
        let summary = cgn_traffic::run(&config.driver_config(mix.clone()));
        flows += summary.flows_started;
        let m = summary
            .metrics
            .expect("metrics summary present when window is configured");
        digest ^= m.last.digest();
        digest = digest.wrapping_mul(0x1000_0000_01b3);
        if m.worst_window_flow_imbalance > worst {
            worst = m.worst_window_flow_imbalance;
            worst_start = m.worst_window_start_secs;
        }
        mixes.push(MetricsMixPerf {
            mix: summary.mix_name,
            metrics: m,
        });
    }
    MetricsLeg {
        flows,
        wall_secs: t0.elapsed().as_secs_f64(),
        window_secs,
        digest,
        worst_window_flow_imbalance: worst,
        worst_window_start_secs: worst_start,
        mixes,
    }
}

/// Outcome of the scrape-under-load pass: the metrics-on sweep with a
/// live operator endpoint being pulled throughout.
struct ScrapeLeg {
    flows: u64,
    wall_secs: f64,
    /// Successful `/metrics` pulls the client completed during the
    /// timed window (not asserted — load, not coverage).
    scrapes: u64,
}

/// Time the dimensioning sweep at one scale with windowed registries
/// *and* a live [`cgn_opsd::OpsServer`]: each mix runs through a
/// stepped [`cgn_traffic::DriverSession`] that drains its closed
/// windows and republishes the merged snapshot at every sample
/// barrier, while a background client scrapes `/metrics` in a tight
/// loop. The delta against the plain `windowed` row prices the whole
/// operator path — rendering, publishing, socket serving — under
/// constant pull pressure.
fn measure_scrape_leg(settings: &PerfSettings, scale: u32, threads: usize) -> ScrapeLeg {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let subscribers = settings.base_subscribers * scale;
    let mut config = settings.dimensioning(subscribers, threads);
    config.metrics_window_secs = Some(config.sample_secs);
    let server = cgn_opsd::OpsServer::bind("127.0.0.1:0").expect("bind scrape endpoint");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut ok = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if cgn_opsd::scrape(addr, "/metrics").is_ok() {
                    ok += 1;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            ok
        })
    };
    let mut flows = 0u64;
    let t0 = Instant::now();
    for mix in &config.mixes {
        let mut session = cgn_traffic::DriverSession::new(&config.driver_config(mix.clone()));
        while session.step().is_some() {
            let _ = session.drain_closed_windows();
            if let Some(snap) = session.latest_snapshot() {
                server.publish(snap, &session.health());
            }
        }
        let (summary, _) = session.finish();
        flows += summary.flows_started;
    }
    let wall_secs = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().unwrap_or(0);
    drop(server);
    ScrapeLeg {
        flows,
        wall_secs,
        scrapes,
    }
}

/// Time one telemetry configuration of the dimensioning sweep at one
/// scale; returns `(flows, wall seconds, log records, log bytes)`.
fn measure_sink_leg(
    settings: &PerfSettings,
    scale: u32,
    threads: usize,
    mode: TelemetryMode,
    alloc: Option<PortAllocation>,
) -> (u64, f64, u64, u64) {
    let subscribers = settings.base_subscribers * scale;
    let mut config = settings.dimensioning(subscribers, threads);
    config.telemetry = mode;
    if let Some(a) = alloc {
        config.nat.port_alloc = a;
    }
    let mut flows = 0u64;
    let mut records = 0u64;
    let mut bytes = 0u64;
    let t0 = Instant::now();
    for mix in &config.mixes {
        let summary = cgn_traffic::run(&config.driver_config(mix.clone()));
        flows += summary.flows_started;
        records += summary.telemetry.records;
        bytes += summary.telemetry.bytes;
    }
    (flows, t0.elapsed().as_secs_f64(), records, bytes)
}

/// Time the dimensioning sweep at one scale across the
/// [`BATCH_BURSTS`] burst sizes. The burst=1 pass stages one
/// millisecond bucket per [`Nat::stage_burst`](nat_engine::Nat::stage_burst)
/// call — the bucket-at-a-time reference — and every other burst size
/// must reproduce its folded digest bit-for-bit (the leg panics
/// otherwise), so the timing sweep doubles as the scalar-vs-batched
/// equivalence check.
pub fn measure_batch_leg(settings: &PerfSettings, scale: u32, threads: usize) -> BatchSection {
    let subscribers = settings.base_subscribers * scale;
    let (rows, digest) = sweep_bursts(settings, subscribers, threads, 0);
    let (in_rows, in_digest) = sweep_bursts(settings, subscribers, threads, INBOUND_REPLY_PERMILLE);
    BatchSection {
        scale,
        subscribers,
        rows,
        digest: format!("{digest:016x}"),
        inbound: Some(InboundBatchSection {
            reply_permille: INBOUND_REPLY_PERMILLE,
            rows: in_rows,
            digest: format!("{in_digest:016x}"),
            arena: measure_arena_leg(settings, threads),
        }),
    }
}

/// Time the dimensioning sweep across the [`BATCH_BURSTS`] sizes at a
/// fixed reply ratio; returns the rows (relative to the burst=1 pass)
/// and the folded digest every burst size reproduced.
fn sweep_bursts(
    settings: &PerfSettings,
    subscribers: u32,
    threads: usize,
    reply_permille: u32,
) -> (Vec<BurstPerf>, u64) {
    let mut rows = Vec::new();
    let mut ref_digest: Option<u64> = None;
    for &burst in &BATCH_BURSTS {
        let mut config = settings.dimensioning(subscribers, threads);
        config.burst = burst;
        config.inbound_reply_permille = reply_permille;
        let mut flows = 0u64;
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let t0 = Instant::now();
        for mix in &config.mixes {
            let summary = cgn_traffic::run(&config.driver_config(mix.clone()));
            flows += summary.flows_started;
            digest ^= summary.digest();
            digest = digest.wrapping_mul(0x1000_0000_01b3);
        }
        let wall = t0.elapsed().as_secs_f64();
        match ref_digest {
            None => ref_digest = Some(digest),
            Some(reference) => assert_eq!(
                digest, reference,
                "burst={burst} (reply_permille={reply_permille}) diverged \
                 from the scalar-equivalent burst=1 pass"
            ),
        }
        rows.push(BurstPerf {
            burst,
            flows,
            wall_secs: wall,
            flows_per_sec: flows as f64 / wall.max(1e-9),
            relative_throughput: 0.0,
        });
    }
    let reference = rows[0].flows_per_sec.max(1e-9);
    for row in &mut rows {
        row.relative_throughput = row.flows_per_sec / reference;
    }
    (rows, ref_digest.expect("BATCH_BURSTS is non-empty"))
}

/// One full run of the first mix at the **largest** scale — the
/// LLC-stress point the arena exists for — with windowed metrics on,
/// reduced to the before/after chunk counts of [`ArenaPerf`]. The
/// inbound-reply leg is enabled so the measurement covers the same
/// hot paths the batch gate times.
pub fn measure_arena_leg(settings: &PerfSettings, threads: usize) -> ArenaPerf {
    let scale = *settings.scales.last().expect("scales non-empty");
    let subscribers = settings.base_subscribers * scale;
    let mut config = settings.dimensioning(subscribers, threads);
    config.metrics_window_secs = Some(config.sample_secs);
    config.inbound_reply_permille = INBOUND_REPLY_PERMILLE;
    // Measuring slab reuse needs a workload whose mapping population
    // actually plateaus inside the run. Two things stop that at the
    // sweep's own horizon: the paper's CGN keeps established TCP
    // state for hours (idle mappings never expire), and the
    // streaming/P2P/gaming classes hold keepalive-refreshed flows
    // with mean durations of 120–300 s (the live population ramps for
    // minutes). The arena leg therefore clamps every idle timeout to
    // 60 s and runs a 20-minute horizon with the warm-up barrier at
    // three quarters: by then every class sits within a fraction of a
    // chunk of its steady state, so any chunk mapped after warm-up is
    // a genuine reuse failure (freed slots not recycled), not ramp.
    config.duration_secs = config.duration_secs.max(1_200);
    let timeout = netcore::SimDuration::from_secs(60.min(config.duration_secs / 4).max(1));
    config.nat.udp_timeout = timeout;
    config.nat.tcp_established_timeout = timeout;
    config.nat.tcp_transitory_timeout = timeout;
    let mix = config.mixes.first().cloned().expect("mixes non-empty");
    let summary = cgn_traffic::run(&config.driver_config(mix));
    let m = summary
        .metrics
        .expect("metrics summary present when a window is configured");
    let warmup_secs = (config.duration_secs * 3 / 4).max(config.sample_secs);
    // Sample barriers land exactly on window starts, so the window
    // starting at `warmup_secs` carries the chunk count at that
    // instant.
    let chunks_warm = m
        .windows
        .iter()
        .take_while(|w| w.start_secs <= warmup_secs)
        .last()
        .map(|w| w.arena_chunks)
        .unwrap_or(0);
    let chunks_final = m.last.scalar("cgn_arena_chunks");
    ArenaPerf {
        scale,
        subscribers,
        warmup_secs,
        chunks_warm,
        chunks_final,
        chunks_grown_after_warmup: chunks_final.saturating_sub(chunks_warm),
        slots_free_final: m.last.scalar("cgn_arena_slots_free"),
    }
}

/// Re-measure the batch leg once and fold it into `section` as an
/// envelope: each burst size keeps its fastest pass and the relative
/// throughputs are recomputed. Same rationale as [`fold_best_scales`]:
/// interference jitter only subtracts throughput, so best-of-N
/// converges on the machine's capability while a real regression
/// depresses every pass alike.
pub fn fold_best_batch(section: &mut BatchSection, settings: &PerfSettings, threads: usize) {
    let fold = |rows: &mut Vec<BurstPerf>, fresh: Vec<BurstPerf>| {
        for (row, new) in rows.iter_mut().zip(fresh) {
            if new.flows_per_sec > row.flows_per_sec {
                *row = new;
            }
        }
        let reference = rows[0].flows_per_sec.max(1e-9);
        for row in rows.iter_mut() {
            row.relative_throughput = row.flows_per_sec / reference;
        }
    };
    // Re-sweep only the timed rows; the digests and the arena row are
    // deterministic and keep their original values.
    let (fresh_out, _) = sweep_bursts(settings, section.subscribers, threads, 0);
    fold(&mut section.rows, fresh_out);
    if let Some(inbound) = &mut section.inbound {
        let (fresh_in, _) = sweep_bursts(
            settings,
            section.subscribers,
            threads,
            inbound.reply_permille,
        );
        fold(&mut inbound.rows, fresh_in);
    }
}

/// Compare a fresh report against the committed baseline using
/// **machine-relative** ratios, so that a CI-runner hardware change
/// cannot trip the gate (the ROADMAP follow-up to the absolute
/// flows/sec compare):
///
/// * **scaling ratio** — each scale's flows/sec relative to the
///   smallest scale of the *same* run, compared to the baseline's
///   ratio for the same scale. Catches state-table-growth slowdowns
///   regardless of how fast the machine is in absolute terms.
/// * **parallel speedup** — compared only when both the baseline and
///   the current machine had more than one core (a single-core run
///   measures 1.0 by construction and carries no signal).
///
/// Absolute flows/sec are reported as informational notes but never
/// fail the check. Returns `Ok(notes)` when every ratio holds within
/// `tolerance` (fractional allowed drop), `Err(failures)` otherwise.
/// Faster-than-baseline runs always pass.
pub fn check_against_baseline(
    current: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
) -> Result<Vec<String>, Vec<String>> {
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    if baseline.schema != current.schema {
        failures.push(format!(
            "schema mismatch: baseline {} vs current {}",
            baseline.schema, current.schema
        ));
        return Err(failures);
    }
    let Some(base_first) = baseline.scales.first() else {
        failures.push("baseline has no scales".to_string());
        return Err(failures);
    };
    // The ratio reference must be the *same* scale in both reports —
    // looked up by scale number, not position, so a current run with
    // extra leading scales cannot shift the denominator.
    let Some(cur_first) = current.scales.iter().find(|s| s.scale == base_first.scale) else {
        failures.push(format!(
            "reference scale {}x missing from current run",
            base_first.scale
        ));
        return Err(failures);
    };
    for base in &baseline.scales {
        let Some(cur) = current.scales.iter().find(|s| s.scale == base.scale) else {
            failures.push(format!("scale {}x missing from current run", base.scale));
            continue;
        };
        if cur.subscribers != base.subscribers {
            failures.push(format!(
                "scale {}x configuration mismatch: {} subscribers vs baseline {} \
                 (ratios are not comparable — e.g. a `quick` run against the standard baseline)",
                base.scale, cur.subscribers, base.subscribers
            ));
            continue;
        }
        notes.push(format!(
            "info scale {:>2}x: {:>10.0} flows/s (baseline machine: {:>10.0})",
            base.scale, cur.flows_per_sec, base.flows_per_sec
        ));
        if base.scale == base_first.scale {
            continue; // the reference point of every ratio
        }
        let cur_ratio = cur.flows_per_sec / cur_first.flows_per_sec.max(1e-9);
        let base_ratio = base.flows_per_sec / base_first.flows_per_sec.max(1e-9);
        let floor = base_ratio * (1.0 - tolerance);
        let line = format!(
            "scale {:>2}x/{}x throughput ratio: {:.3} vs baseline {:.3} (floor {:.3})",
            base.scale, base_first.scale, cur_ratio, base_ratio, floor
        );
        if cur_ratio < floor {
            failures.push(format!("REGRESSION {line}"));
        } else {
            notes.push(format!("ok {line}"));
        }
    }
    if current.available_cores > 1 {
        // Armed on any multi-core runner. Against a multi-core baseline
        // the floor is relative to its measured speedup; against a
        // single-core baseline (which records ~1.0 by construction and
        // carries no scaling signal) the floor degrades to break-even:
        // worker threads must at least not cost throughput.
        let reference = baseline.parallel_speedup.max(1.0);
        let floor = reference * (1.0 - tolerance);
        let line = format!(
            "parallel speedup: {:.2}x vs baseline {:.2}x (floor {:.2}x)",
            current.parallel_speedup, baseline.parallel_speedup, floor
        );
        if current.parallel_speedup < floor {
            failures.push(format!("REGRESSION {line}"));
        } else {
            notes.push(format!("ok {line}"));
        }
    } else {
        notes.push(format!(
            "info parallel speedup {:.2}x not gated (single core here, baseline speedup {:.2}x)",
            current.parallel_speedup, baseline.parallel_speedup
        ));
    }
    if failures.is_empty() {
        Ok(notes)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PerfSettings {
        PerfSettings {
            seed: 7,
            base_subscribers: 60,
            scales: vec![1, 2],
            duration_secs: 60,
            shards: 2,
            threads: 2,
            sink_overhead: false,
            metrics_overhead: false,
            passes: 1,
            batch_overhead: false,
            trace_overhead: false,
        }
    }

    #[test]
    fn harness_reports_every_scale_and_mix() {
        let r = run_perf(&tiny());
        assert_eq!(r.schema, SCHEMA);
        assert_eq!(r.scales.len(), 2);
        for s in &r.scales {
            assert_eq!(s.mixes.len(), WorkloadMix::all().len());
            assert!(s.flows > 0);
            assert!(s.flows_per_sec > 0.0);
        }
        assert!(r.parallel_speedup > 0.0);
        assert!(r.scaling_ratio > 0.0);
        assert!(
            r.scales
                .iter()
                .all(|s| s.flow_imbalance >= 1.0 && s.mapping_imbalance >= 1.0),
            "imbalance is max/mean over shards with load"
        );
        assert_eq!(r.scales[1].subscribers, 120);
        // The sequential cross-check inside run_perf did not panic:
        // parallel and sequential digests agreed.
        assert_eq!(r.digest.len(), 16);
    }

    #[test]
    fn sink_overhead_section_measures_all_modes() {
        let mut settings = tiny();
        settings.sink_overhead = true;
        let r = run_perf(&settings);
        let section = r.logging.as_ref().expect("overhead section attached");
        assert_eq!(section.scale, settings.scales[1], "middle scale");
        let modes: Vec<&str> = section.rows.iter().map(|row| row.mode.as_str()).collect();
        assert_eq!(modes, ["off", "per-connection", "per-block"]);
        assert_eq!(section.rows[0].relative_throughput, 1.0);
        assert_eq!(section.rows[0].log_bytes, 0, "disabled sink writes nothing");
        assert!(section.rows[1].log_bytes > 0, "per-connection log measured");
        assert!(section.rows[2].log_records > 0, "per-block log measured");
        assert!(
            section.rows[2].log_bytes < section.rows[1].log_bytes,
            "block logging must be smaller"
        );
        assert!(section.rows.iter().all(|row| row.relative_throughput > 0.0));
        // The standalone artifact carries the same rows.
        let standalone = r.logging_report().expect("logging report");
        assert_eq!(standalone.schema, LOGGING_SCHEMA);
        assert_eq!(standalone.logging, *section);
        let json = serde_json::to_string_pretty(&standalone).expect("serializable");
        let back: LoggingReport = serde_json::from_str(&json).expect("parseable");
        assert_eq!(standalone, back);
    }

    #[test]
    fn committed_baseline_parses_with_optional_sections() {
        // The committed baseline carries the batch section but not the
        // logging/metrics ones; the Option fields must absorb both the
        // present and the missing keys.
        let text = include_str!("../../../bench/baseline.json");
        let baseline: PerfReport = serde_json::from_str(text).expect("baseline parses");
        assert!(baseline.logging.is_none());
        assert!(baseline.metrics.is_none());
        assert!(
            baseline.trace.is_none(),
            "trace section is newer than the committed baseline"
        );
        assert_eq!(baseline.schema, SCHEMA);
        let batch = baseline
            .batch
            .as_ref()
            .expect("baseline has a batch section");
        let bursts: Vec<usize> = batch.rows.iter().map(|r| r.burst).collect();
        assert_eq!(bursts, BATCH_BURSTS);
        let inbound = batch
            .inbound
            .as_ref()
            .expect("baseline has an inbound batch sweep");
        let in_bursts: Vec<usize> = inbound.rows.iter().map(|r| r.burst).collect();
        assert_eq!(in_bursts, BATCH_BURSTS);
        assert_eq!(inbound.reply_permille, INBOUND_REPLY_PERMILLE);
        assert_eq!(
            inbound.arena.chunks_grown_after_warmup, 0,
            "committed baseline records zero slab growth after warm-up"
        );
        assert!(
            baseline
                .scales
                .iter()
                .all(|s| s.flows_per_sec_min <= s.flows_per_sec
                    && s.flows_per_sec <= s.flows_per_sec_max),
            "median sits inside the recorded envelope"
        );
    }

    #[test]
    fn median_of_passes_records_envelope() {
        let settings = PerfSettings {
            passes: 3,
            scales: vec![1],
            ..tiny()
        };
        // measure_scale also asserts the three passes were
        // bit-identical, so this doubles as a determinism check.
        let (perf, digest) = measure_scale(&settings, 1, 2);
        assert!(perf.flows_per_sec_min <= perf.flows_per_sec);
        assert!(perf.flows_per_sec <= perf.flows_per_sec_max);
        assert_ne!(digest, 0);
    }

    #[test]
    fn batch_leg_sweeps_bursts_and_checks_digests() {
        let mut settings = tiny();
        settings.batch_overhead = true;
        let r = run_perf(&settings);
        let section = r.batch.as_ref().expect("batch section attached");
        assert_eq!(section.scale, settings.scales[1], "middle scale");
        let bursts: Vec<usize> = section.rows.iter().map(|row| row.burst).collect();
        assert_eq!(bursts, BATCH_BURSTS);
        assert_eq!(section.rows[0].relative_throughput, 1.0);
        assert!(section.rows.iter().all(|row| row.flows > 0));
        assert!(section.rows.iter().all(|row| row.relative_throughput > 0.0));
        // measure_batch_leg panicked if any burst size diverged from
        // the scalar-equivalent digest, so reaching here means the
        // equivalence check passed — for the inbound sweep too.
        assert_eq!(section.digest.len(), 16);
        let inbound = section.inbound.as_ref().expect("inbound sweep attached");
        assert_eq!(inbound.reply_permille, INBOUND_REPLY_PERMILLE);
        let in_bursts: Vec<usize> = inbound.rows.iter().map(|row| row.burst).collect();
        assert_eq!(in_bursts, BATCH_BURSTS);
        assert_eq!(inbound.rows[0].relative_throughput, 1.0);
        assert!(inbound.rows.iter().all(|row| row.flows > 0));
        assert_eq!(inbound.digest.len(), 16);
        assert_ne!(
            inbound.digest, section.digest,
            "the reply leg must actually change the runs"
        );
        // Arena occupancy: measured at the largest scale, chunks only
        // ever grow, and the tiny config reaches steady state early.
        let arena = &inbound.arena;
        assert_eq!(arena.scale, *settings.scales.last().unwrap());
        assert!(arena.chunks_final >= arena.chunks_warm);
        assert!(arena.chunks_warm > 0, "warm run maps at least one chunk");
        assert_eq!(
            arena.chunks_grown_after_warmup,
            arena.chunks_final - arena.chunks_warm
        );
        // Folding keeps the burst axis and only ever speeds rows up.
        let mut folded = section.clone();
        fold_best_batch(&mut folded, &settings, r.threads);
        assert_eq!(folded.rows.len(), section.rows.len());
        for (new, old) in folded.rows.iter().zip(&section.rows) {
            assert_eq!(new.burst, old.burst);
            assert!(new.flows_per_sec >= old.flows_per_sec);
        }
        let folded_in = folded.inbound.as_ref().expect("inbound rows folded");
        for (new, old) in folded_in.rows.iter().zip(&inbound.rows) {
            assert_eq!(new.burst, old.burst);
            assert!(new.flows_per_sec >= old.flows_per_sec);
        }
        assert_eq!(
            folded_in.arena, inbound.arena,
            "arena row untouched by folds"
        );
        // The standalone artifact carries the same section and
        // round-trips through JSON.
        let standalone = r.batch_report().expect("batch report");
        assert_eq!(standalone.schema, BATCH_SCHEMA);
        assert_eq!(standalone.batch, *section);
        let json = serde_json::to_string_pretty(&standalone).expect("serializable");
        let back: BatchReport = serde_json::from_str(&json).expect("parseable");
        assert_eq!(standalone, back);
    }

    #[test]
    fn trace_leg_prices_overhead_and_pins_digests() {
        let mut settings = tiny();
        settings.trace_overhead = true;
        let r = run_perf(&settings);
        let section = r.trace.as_ref().expect("trace section attached");
        assert_eq!(section.scale, settings.scales[1], "middle scale");
        assert_eq!(section.sample_one_in, TRACE_SAMPLE_ONE_IN);
        let modes: Vec<&str> = section.rows.iter().map(|row| row.mode.as_str()).collect();
        assert_eq!(modes, ["off", "sampled"]);
        assert_eq!(section.rows[0].relative_throughput, 1.0);
        assert!(section.rows[1].relative_throughput > 0.0);
        // measure_trace_leg asserted the traced digest equals the
        // untraced sweep's: installing the tracer changed nothing.
        assert_eq!(section.digest, r.digest);
        assert!(section.sampled_flows > 0, "1-in-64 catches flows here");
        assert!(section.events > 0, "flight recorder retained events");
        assert!(!section.phases.is_empty(), "profiler armed during leg");
        for p in &section.phases {
            assert!(p.count > 0);
            assert!(p.p99_ns >= p.p50_ns, "{:?}", p);
        }
        // The embedded Chrome trace is structurally valid JSON.
        assert!(section.chrome.contains(cgn_trace::CHROME_SCHEMA));
        let parsed: serde_json::Value =
            serde_json::from_str(&section.chrome).expect("chrome JSON parses");
        drop(parsed);
        // The standalone artifact carries the same section and
        // round-trips through JSON (nested chrome string included).
        let standalone = r.trace_report().expect("trace report");
        assert_eq!(standalone.schema, TRACE_SCHEMA);
        assert_eq!(standalone.trace, *section);
        let json = serde_json::to_string_pretty(&standalone).expect("serializable");
        let back: TraceReport = serde_json::from_str(&json).expect("parseable");
        assert_eq!(standalone, back);
    }

    #[test]
    fn metrics_overhead_section_measures_and_cross_checks() {
        let mut settings = tiny();
        settings.metrics_overhead = true;
        // run_perf itself asserts the sequential re-run produces
        // bit-identical metric snapshots (threads = 2 here).
        let r = run_perf(&settings);
        let section = r.metrics.as_ref().expect("metrics section attached");
        assert_eq!(section.scale, settings.scales[1], "middle scale");
        let modes: Vec<&str> = section.rows.iter().map(|row| row.mode.as_str()).collect();
        assert_eq!(modes, ["off", "windowed", "windowed+scrape"]);
        assert_eq!(section.rows[0].relative_throughput, 1.0);
        assert!(section.rows[1].relative_throughput > 0.0);
        assert!(
            section.rows[2].relative_throughput > 0.0 && section.rows[2].flows > 0,
            "scrape-under-load row measured"
        );
        assert_eq!(section.snapshot_digest.len(), 16);
        assert_eq!(section.mixes.len(), WorkloadMix::all().len());
        for m in &section.mixes {
            assert!(!m.metrics.windows.is_empty(), "windows aggregated");
            assert!(m.metrics.last.scalar("cgn_mappings_created_total") > 0);
        }
        assert!(
            section.worst_window_flow_imbalance >= 1.0,
            "some window saw flows on both shards"
        );
        let probe = section.probe_latency.as_ref().expect("probes timed");
        assert!(probe.probes > 0);
        assert!(probe.p99_ns >= probe.p50_ns);
        // Exposition renders every mix stanza in Prometheus text format.
        let expo = section.exposition();
        assert!(expo.contains("# TYPE cgn_mappings_created_total counter"));
        for m in &section.mixes {
            assert!(expo.contains(&format!("# mix {}", m.mix)));
        }
        // The standalone artifact carries the same section and
        // round-trips through JSON.
        let standalone = r.metrics_report().expect("metrics report");
        assert_eq!(standalone.schema, METRICS_SCHEMA);
        assert_eq!(standalone.metrics, *section);
        let json = serde_json::to_string_pretty(&standalone).expect("serializable");
        let back: MetricsReport = serde_json::from_str(&json).expect("parseable");
        assert_eq!(standalone, back);
    }

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
        assert!(artifact.metrics.rows.is_empty(), "no timed overhead legs");
        assert_eq!(artifact.metrics.mixes.len(), 1);
        assert!(artifact.metrics.exposition().contains("# mix"));
        let probe = measure_probe_latency(&config).expect("reference mix probed");
        assert!(probe.probes > 0);
    }

    #[test]
    fn report_json_round_trips() {
        let r = run_perf(&PerfSettings {
            scales: vec![1],
            ..tiny()
        });
        let json = serde_json::to_string_pretty(&r).expect("serializable");
        let back: PerfReport = serde_json::from_str(&json).expect("parseable");
        assert_eq!(r, back);
    }

    #[test]
    fn baseline_check_is_machine_relative() {
        let mut base = run_perf(&tiny());
        // This test is about throughput ratios. The thread speed-up
        // `run_perf` measured on a run this small is wall-clock noise
        // (often below break-even on a multi-core box, which the
        // speed-up gate rejects even against itself), so pin it out.
        base.available_cores = 1;
        base.parallel_speedup = 1.0;
        // Identical run: passes.
        assert!(check_against_baseline(&base, &base, 0.2).is_ok());
        // A uniformly faster machine changes no ratio: still passes.
        let mut faster_machine = base.clone();
        for s in &mut faster_machine.scales {
            s.flows_per_sec *= 10.0;
        }
        assert!(
            check_against_baseline(&faster_machine, &base, 0.2).is_ok(),
            "absolute throughput must not gate"
        );
        // Degraded scaling (large scale got relatively slower) fails.
        let mut degraded = base.clone();
        degraded.scales[1].flows_per_sec = base.scales[1].flows_per_sec * 0.5;
        let err = check_against_baseline(&degraded, &base, 0.2).unwrap_err();
        assert!(err.iter().any(|m| m.contains("REGRESSION")));
        assert!(err.iter().any(|m| m.contains("throughput ratio")));
        // Missing scale in the current run fails too.
        let mut extra = base.clone();
        extra.scales[1].scale = 99;
        assert!(check_against_baseline(&base, &extra, 0.2).is_err());
        // A differently-sized population is incomparable, not a pass.
        let mut resized = base.clone();
        resized.scales[1].subscribers += 1;
        let err = check_against_baseline(&resized, &base, 0.2).unwrap_err();
        assert!(err.iter().any(|m| m.contains("configuration mismatch")));
    }

    #[test]
    fn speedup_gate_only_bites_on_multicore() {
        let mut base = run_perf(&PerfSettings {
            scales: vec![1],
            ..tiny()
        });
        base.parallel_speedup = 3.0;
        let mut cur = base.clone();
        cur.parallel_speedup = 1.0;
        cur.available_cores = 1;
        assert!(
            check_against_baseline(&cur, &base, 0.2).is_ok(),
            "single-core runs measure 1.0 by construction: no signal"
        );
        cur.available_cores = 8;
        let err = check_against_baseline(&cur, &base, 0.2).unwrap_err();
        assert!(err.iter().any(|m| m.contains("parallel speedup")));
        cur.parallel_speedup = 2.9;
        assert!(
            check_against_baseline(&cur, &base, 0.2).is_ok(),
            "within tolerance"
        );
    }

    /// The multi-core floor with constructed values only:
    /// `max(baseline speed-up, 1.0) × (1 − tolerance)`.
    #[test]
    fn multicore_floor_is_baseline_speedup_or_break_even() {
        let mut report = run_perf(&PerfSettings {
            scales: vec![1],
            ..tiny()
        });
        report.available_cores = 4;
        for (speedup, passes_against_itself) in
            [(2.5, true), (1.0, true), (0.85, true), (0.7, false)]
        {
            report.parallel_speedup = speedup;
            assert_eq!(
                check_against_baseline(&report, &report, 0.2).is_ok(),
                passes_against_itself,
                "speed-up {speedup} against itself: the floor never drops below 0.8"
            );
        }
        // Against a faster baseline the floor follows the baseline.
        let mut base = report.clone();
        base.parallel_speedup = 2.5;
        report.parallel_speedup = 2.1;
        assert!(check_against_baseline(&report, &base, 0.2).is_ok());
        report.parallel_speedup = 1.9;
        assert!(check_against_baseline(&report, &base, 0.2).is_err());
    }

    #[test]
    fn speedup_gate_arms_against_single_core_baseline() {
        // A baseline recorded on a 1-core runner measures speedup 1.0
        // by construction. A multi-core current run is still gated —
        // at break-even: threads must not cost more than the tolerance.
        let mut base = run_perf(&PerfSettings {
            scales: vec![1],
            ..tiny()
        });
        base.parallel_speedup = 1.0;
        base.available_cores = 1;
        let mut cur = base.clone();
        cur.available_cores = 8;
        cur.parallel_speedup = 0.7;
        let err = check_against_baseline(&cur, &base, 0.2).unwrap_err();
        assert!(
            err.iter()
                .any(|m| m.contains("REGRESSION") && m.contains("parallel speedup")),
            "threads costing 30% must trip the armed gate"
        );
        cur.parallel_speedup = 0.9;
        assert!(
            check_against_baseline(&cur, &base, 0.2).is_ok(),
            "break-even floor is 1.0 * (1 - tolerance)"
        );
    }
}
