//! The soak runner: an always-on operator session over the sharded
//! driver, with machine-checked leak gates.
//!
//! Richter et al. (IMC 2016, §2) report that CGNs are not batch
//! devices: operators run them for months, and the engineering risks
//! are the slow ones — state tables that creep, log volume that
//! outruns its budget, timer backlogs that surface as latency cliffs.
//! A batch [`cgn_traffic::run`] cannot observe any of that; it holds
//! every window and every log in memory and exits. The soak mode
//! holds the opposite contract:
//!
//! * the session advances epoch by epoch through a
//!   [`DriverSession`], **streaming** every closed metrics window out
//!   of the bounded ring (JSONL rows, one [`MetricsWindow`] per line)
//!   instead of accumulating them;
//! * event logs, when enabled, flow through one per-shard
//!   [`cgn_telemetry::RotatingFileSink`] — bounded generations on
//!   disk, bounded buffers in memory;
//! * a live [`OpsServer`] exposes `/metrics` and `/healthz`
//!   throughout, re-published at every closed window;
//! * at exit, [`GATES`](SoakReport::gates) check what a leak-free CGN
//!   must look like: zero arena-chunk growth after warm-up, slab
//!   slots recycled (high-water flat), timer wheel cascading with a
//!   bounded pending backlog, a flat RSS proxy, per-window shard
//!   balance, and a byte-exact scrape against the final merged
//!   snapshot.
//!
//! Determinism carries over from the driver: every field of the
//! report that derives from simulation (counters, digests, gate
//! observables) is bit-identical for every worker-thread count; only
//! the wall-clock fields vary run to run.

use crate::http::{self, OpsServer};
use cgn_metrics::Value;
use cgn_telemetry::RotatingFileSink;
use cgn_trace::TraceConfig;
use cgn_traffic::{DriverConfig, DriverSession, MetricsWindow, SessionHealth, WorkloadMix};
use nat_engine::telemetry::{EventSink, TelemetryMode};
use serde::{Deserialize, Serialize};
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// Schema tag of [`SoakReport`]; bump on any incompatible change.
pub const SOAK_SCHEMA: &str = "cgn-soak/1";

/// Bytes behind one full-size slab-arena chunk (`cgn_arena_chunks` is
/// a chunk count; the RSS proxy converts it to bytes).
pub use nat_engine::ARENA_CHUNK_BYTES;

/// Modeled resident bytes per retained metrics window (a normalized
/// snapshot of every instrument: tens of samples, each a name plus a
/// scalar or small histogram).
const WINDOW_RESIDENT_BYTES: u64 = 8 * 1024;

/// Modeled resident bytes per outstanding driver event-wheel entry.
const EVENT_RESIDENT_BYTES: u64 = 32;

/// Pass/fail thresholds of the exit gates. The defaults encode
/// "flat after warm-up": growth ratios are small multiplicative
/// slacks over the warm-up measurement, not absolute sizes, so one
/// threshold set serves every scale from the smoke test to the 1M
/// soak.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateThresholds {
    /// Arena chunks mapped after the warm-up barrier (chunks are a
    /// high-water mark, so any growth is a recycling failure).
    pub max_arena_chunk_growth: u64,
    /// `slots_final / slots_warm` — slab high-water growth after
    /// warm-up.
    pub max_slot_growth_ratio: f64,
    /// `timers_pending / slots` at exit: stale re-arm entries the
    /// wheel may carry per slot before cascading is judged broken.
    pub max_timers_per_slot: f64,
    /// `rss_proxy_final / rss_proxy_warm` — modeled resident-set
    /// growth after warm-up.
    pub max_rss_growth_ratio: f64,
    /// Worst per-window `max/mean` of per-shard flow starts.
    pub max_window_imbalance: f64,
}

impl Default for GateThresholds {
    fn default() -> GateThresholds {
        GateThresholds {
            max_arena_chunk_growth: 0,
            max_slot_growth_ratio: 1.02,
            max_timers_per_slot: 4.0,
            max_rss_growth_ratio: 1.05,
            max_window_imbalance: 2.0,
        }
    }
}

/// One exit gate's verdict: what was measured, what was allowed, and
/// a human-readable account of the inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateResult {
    pub name: String,
    pub observed: f64,
    pub limit: f64,
    pub passed: bool,
    pub detail: String,
}

impl GateResult {
    fn check(name: &str, observed: f64, limit: f64, detail: String) -> GateResult {
        GateResult {
            name: name.to_string(),
            observed,
            limit,
            passed: observed <= limit,
            detail,
        }
    }
}

/// Aggregate volume of the rotated event logs (present when
/// [`SoakConfig::event_log_stem`] was set).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventLogVolume {
    /// Closed + final generations across all shard sinks.
    pub generations: u64,
    pub records: u64,
    pub bytes: u64,
    /// `bytes × MODELED_COMPRESSION_RATIO`, summed per generation —
    /// the archived footprint an operator would provision for.
    pub compressed_bytes_modeled: u64,
}

/// Everything one soak run needs. Build from a preset
/// ([`SoakConfig::full`], [`SoakConfig::ci`], [`SoakConfig::smoke`])
/// and override fields as needed.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Preset name recorded in the report (`full`/`ci`/`smoke`/…).
    pub preset: String,
    pub subscribers: u32,
    pub shards: u16,
    pub external_ips_per_shard: u16,
    /// Worker threads (`0` = one per core). Report fields derived
    /// from simulation are identical for every value.
    pub threads: usize,
    pub duration_secs: u64,
    pub sample_secs: u64,
    pub sweep_secs: u64,
    /// Metrics aggregation window (also the publish cadence).
    pub window_secs: u64,
    /// Idle-timeout clamp applied to every NAT timeout (the arena
    /// leg's trick): the mapping population must plateau *inside* the
    /// run for "flat after warm-up" to be a meaningful gate. Clamped
    /// further to a quarter of the duration.
    pub timeout_clamp_secs: u64,
    /// Inbound-reply leg intensity (permille of forwarded packets).
    pub inbound_reply_permille: u32,
    pub seed: u64,
    pub mix: WorkloadMix,
    /// Scrape endpoint bind address (`None` disables the server).
    pub listen: Option<String>,
    /// JSONL destination for the streamed window rows.
    pub stats_path: Option<PathBuf>,
    /// Stem for per-shard rotating event logs
    /// (`<stem>.shard<N>.<generation>`); `None` disables event
    /// logging entirely (the zero-cost driver default).
    pub event_log_stem: Option<PathBuf>,
    /// Rotation threshold per generation.
    pub event_log_generation_bytes: u64,
    /// Flow-lifecycle tracing / phase profiling for the session
    /// ([`cgn_traffic::DriverConfig::trace`]). When enabled, phase
    /// percentiles ride the published `/metrics` exposition, the
    /// flight recorder serves on `/trace`, and a failing exit gate
    /// auto-dumps the recorder to
    /// [`trace_dump_path`](SoakConfig::trace_dump_path). `off` (the
    /// default) keeps the
    /// hot path on its untaken-branch cost.
    pub trace: TraceConfig,
    /// Destination for the gate-trip flight-recorder dump
    /// (Chrome-trace JSON). Only written when tracing is enabled and
    /// at least one exit gate fails.
    pub trace_dump_path: Option<PathBuf>,
    pub gates: GateThresholds,
}

impl SoakConfig {
    fn base(preset: &str, mix: WorkloadMix) -> SoakConfig {
        SoakConfig {
            preset: preset.to_string(),
            subscribers: 0,
            shards: 1,
            external_ips_per_shard: 16,
            threads: 0,
            duration_secs: 0,
            sample_secs: 60,
            sweep_secs: 30,
            window_secs: 60,
            timeout_clamp_secs: 60,
            inbound_reply_permille: 250,
            seed: 9,
            mix,
            listen: Some("127.0.0.1:0".to_string()),
            stats_path: None,
            event_log_stem: None,
            event_log_generation_bytes: 8 * 1024 * 1024,
            trace: TraceConfig::off(),
            trace_dump_path: None,
            gates: GateThresholds::default(),
        }
    }

    /// The headline soak: one simulated hour of a million-subscriber
    /// IoT-heavy population across 16 shards.
    pub fn full() -> SoakConfig {
        let mut c = SoakConfig::base("full", WorkloadMix::iot_fleet());
        c.subscribers = 1_000_000;
        c.shards = 16;
        c.duration_secs = 3_600;
        c
    }

    /// CI scale: the same shape at a fifth of the population and a
    /// third of the horizon, small enough for a shared runner.
    pub fn ci() -> SoakConfig {
        let mut c = SoakConfig::base("ci", WorkloadMix::iot_fleet());
        c.subscribers = 200_000;
        c.shards = 8;
        c.duration_secs = 1_200;
        c
    }

    /// Test scale: seconds of wall time, still enough windows past
    /// warm-up for every gate to measure something.
    pub fn smoke() -> SoakConfig {
        let mut c = SoakConfig::base("smoke", WorkloadMix::iot_fleet());
        c.subscribers = 4_000;
        c.shards = 4;
        c.external_ips_per_shard = 8;
        c.duration_secs = 600;
        c.sample_secs = 30;
        c.sweep_secs = 15;
        c.window_secs = 30;
        c
    }

    /// Simulated seconds after which the population is treated as
    /// warmed up (three quarters of the horizon, the arena-leg
    /// convention — every workload class with clamped timeouts sits
    /// at its plateau well before then).
    pub fn warmup_secs(&self) -> u64 {
        (self.duration_secs * 3 / 4).max(self.sample_secs)
    }

    /// Lower this config into the driver configuration it runs.
    pub fn driver_config(&self) -> DriverConfig {
        let mut d = DriverConfig::new(self.mix.clone(), self.seed);
        d.subscribers = self.subscribers;
        d.shards = self.shards;
        d.external_ips_per_shard = self.external_ips_per_shard;
        d.threads = self.threads;
        d.duration_secs = self.duration_secs;
        d.sample_secs = self.sample_secs;
        d.sweep_secs = self.sweep_secs;
        d.metrics_window_secs = Some(self.window_secs);
        d.inbound_reply_permille = self.inbound_reply_permille;
        d.trace = self.trace;
        // Event logs (if any) go through externally-installed rotating
        // sinks; the driver's own in-memory logging stays off.
        d.telemetry = TelemetryMode::Off;
        let clamp = self.timeout_clamp_secs.min(self.duration_secs / 4).max(1);
        let timeout = netcore::SimDuration::from_secs(clamp);
        d.nat.udp_timeout = timeout;
        d.nat.tcp_established_timeout = timeout;
        d.nat.tcp_transitory_timeout = timeout;
        d
    }
}

/// The machine-readable outcome of one soak run (`BENCH_soak.json`).
/// Everything except the `wall_*` fields and `scrapes_served` is a
/// deterministic function of [`SoakConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakReport {
    pub schema: String,
    pub preset: String,
    pub mix_name: String,
    pub subscribers: u32,
    pub shards: u16,
    pub duration_secs: u64,
    pub window_secs: u64,
    pub warmup_secs: u64,
    pub seed: u64,
    // Simulation totals.
    pub flows_started: u64,
    pub flows_blocked: u64,
    pub flows_completed: u64,
    pub packets_sent: u64,
    pub mappings_created: u64,
    pub mappings_expired: u64,
    // Streaming behaviour.
    /// Window rows streamed out of the bounded ring (drained during
    /// the run plus the retained tail at exit).
    pub windows_streamed: u64,
    /// FNV-1a over the streamed rows in order — the cross-thread
    /// determinism fingerprint of the whole stats stream.
    pub window_stream_digest: u64,
    /// Peak windows resident in the ring (≤ 2 when draining per
    /// epoch: the closing window plus the open one).
    pub max_windows_retained: u64,
    // Gate observables.
    pub chunks_warm: u64,
    pub chunks_final: u64,
    pub slots_warm: u64,
    pub slots_final: u64,
    pub free_slots_final: u64,
    pub rss_proxy_warm_bytes: u64,
    pub rss_proxy_final_bytes: u64,
    pub timer_cascades: u64,
    pub timers_pending_final: u64,
    pub worst_window_imbalance: f64,
    // Scrape endpoint.
    /// Requests the live endpoint answered during the run (0 when the
    /// server was disabled).
    pub scrapes_served: u64,
    /// The final `/metrics` scrape matched the end-of-run merged
    /// snapshot series-for-series (vacuously false when disabled).
    pub scrape_verified: bool,
    /// Series confirmed by that scrape.
    pub scrape_series_verified: u64,
    pub event_log: Option<EventLogVolume>,
    /// Where the flight recorder was dumped because a gate tripped
    /// (`None`: gates passed, tracing off, or no path configured).
    pub trace_dump_written: Option<String>,
    pub gates: Vec<GateResult>,
    pub all_gates_passed: bool,
    // Wall-clock (excluded from determinism comparisons).
    pub wall_secs: f64,
    /// Simulated seconds per wall second.
    pub sim_rate: f64,
}

/// FNV-1a fold of one `Debug`-rendered value into a running hash —
/// the same fingerprint family as `RunSummary::digest`.
fn fnv_fold(hash: u64, text: &str) -> u64 {
    let mut h = hash;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Modeled resident bytes — an upper bound on the slab's share: every
/// chunk is charged at full size, though a shard's first hot and cold
/// chunks are allocated smaller until they hold a chunkful of rows.
fn rss_proxy(chunks: u64, health: &SessionHealth) -> u64 {
    chunks * ARENA_CHUNK_BYTES as u64
        + health.windows_retained as u64 * WINDOW_RESIDENT_BYTES
        + health.event_wheel_depth * EVENT_RESIDENT_BYTES
}

/// Run one soak session to completion. Streams windows as they
/// close, keeps the scrape endpoint live throughout, and evaluates
/// every exit gate; I/O failures (stats file, event-log generations)
/// are errors, gate failures are reported in the returned
/// [`SoakReport`], not errors.
pub fn run(config: &SoakConfig) -> std::io::Result<SoakReport> {
    let started = std::time::Instant::now();
    let warmup_secs = config.warmup_secs();
    let mut session = DriverSession::new(&config.driver_config());

    let events_installed = match &config.event_log_stem {
        Some(stem) => {
            let sinks: Vec<Box<dyn EventSink>> = (0..config.shards)
                .map(|shard| {
                    let mut path = stem.clone().into_os_string();
                    path.push(format!(".shard{shard}"));
                    Box::new(RotatingFileSink::create(
                        TelemetryMode::PerConnection,
                        config.event_log_generation_bytes,
                        PathBuf::from(path),
                    )) as Box<dyn EventSink>
                })
                .collect();
            session.install_event_sinks(sinks);
            true
        }
        None => false,
    };

    let server = match &config.listen {
        Some(addr) => Some(OpsServer::bind(addr)?),
        None => None,
    };
    let mut stats_out = match &config.stats_path {
        Some(path) => Some(BufWriter::new(std::fs::File::create(path)?)),
        None => None,
    };

    let mut stream_digest = FNV_OFFSET;
    let mut windows_streamed = 0u64;
    let mut max_windows_retained = 0u64;
    let mut worst_window_imbalance = 0.0f64;
    let mut chunks_latest = 0u64;
    // Warm-up measurements: taken at the first barrier at or past the
    // warm-up boundary.
    let mut warm: Option<(u64, u64, u64)> = None; // (chunks, slots, rss_proxy)
    let mut midrun_scrape_ok = false;

    let emit_row = |row: &MetricsWindow,
                    out: &mut Option<BufWriter<std::fs::File>>|
     -> std::io::Result<()> {
        if let Some(w) = out {
            let line = serde_json::to_string(row)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        Ok(())
    };

    while let Some(now) = session.step() {
        let closed = session.drain_closed_windows();
        if !closed.is_empty() {
            let health = session.health();
            max_windows_retained =
                max_windows_retained.max(health.windows_retained as u64 + closed.len() as u64);
            for win in &closed {
                let row = session.metrics_row(win);
                stream_digest = fnv_fold(stream_digest, &format!("{row:?}"));
                worst_window_imbalance = worst_window_imbalance.max(row.shard_flow_imbalance);
                chunks_latest = row.arena_chunks;
                windows_streamed += 1;
                emit_row(&row, &mut stats_out)?;
            }
            if let (Some(server), Some(snap)) = (&server, session.latest_snapshot()) {
                // Wall-clock phase percentiles ride the published
                // exposition only — the windowed stream and its digest
                // stay deterministic.
                match session.phase_profile() {
                    Some(profile) => {
                        let mut published = snap.clone();
                        profile.render_into(&mut published);
                        server.publish(&published, &health);
                    }
                    None => server.publish(snap, &health),
                }
                if let Some(dump) = session.trace_dump() {
                    server.publish_trace(dump);
                }
            }
        }
        if warm.is_none() && now >= warmup_secs {
            let health = session.health();
            let chunks = session
                .latest_snapshot()
                .map(|s| s.scalar("cgn_arena_chunks"))
                .unwrap_or(chunks_latest);
            warm = Some((chunks, health.store.slots, rss_proxy(chunks, &health)));
            // Liveness probe while the run is hot: the endpoint must
            // serve parseable text mid-run, not just at exit.
            if let Some(server) = &server {
                if let Ok(body) = http::scrape(server.local_addr(), "/metrics") {
                    midrun_scrape_ok = !http::parse_scalars(&body).is_empty();
                }
            }
        }
    }

    let final_health = session.health();
    let mut final_snapshot = session.latest_snapshot().cloned().unwrap_or_default();
    let chunks_final = final_snapshot.scalar("cgn_arena_chunks");
    let rss_final = rss_proxy(chunks_final, &final_health);
    let (chunks_warm, slots_warm, rss_warm) =
        warm.unwrap_or((chunks_final, final_health.store.slots, rss_final));

    // Recover the rotating sinks before `finish` tears the shards
    // down (the driver only recovers sinks it installed itself). Done
    // before the final scrape so the log-rotation counter rides the
    // last exposition; the sinks' live throughput was already scraped
    // all run long as `cgn_sink_records_total`/`cgn_sink_bytes_total`.
    let event_log = if events_installed {
        let mut volume = EventLogVolume {
            generations: 0,
            records: 0,
            bytes: 0,
            compressed_bytes_modeled: 0,
        };
        let mut rotations = 0u64;
        for sink in session.take_event_sinks().into_iter().flatten() {
            let sink = sink
                .into_any()
                .downcast::<RotatingFileSink>()
                .expect("soak installs rotating file sinks");
            rotations += sink.rotations();
            for g in sink.finish()? {
                volume.generations += 1;
                volume.records += g.records;
                volume.bytes += g.bytes;
                volume.compressed_bytes_modeled += g.compressed_bytes_modeled();
            }
        }
        final_snapshot.push("cgn_log_rotations_total", Value::Counter(rotations));
        final_snapshot.normalize();
        Some(volume)
    } else {
        None
    };

    // The final scrape happens while the session is still live — the
    // endpoint is serving, the run just has no epochs left — and is
    // checked series-for-series against the merged snapshot.
    let (scrape_verified, scrape_series_verified) = match &server {
        Some(server) => {
            // Same overlay at exit: extra phase lines never break the
            // snapshot-subset check in `verify_scrape`.
            match session.phase_profile() {
                Some(profile) => {
                    let mut published = final_snapshot.clone();
                    profile.render_into(&mut published);
                    server.publish(&published, &final_health);
                }
                None => server.publish(&final_snapshot, &final_health),
            }
            match http::scrape(server.local_addr(), "/metrics") {
                Ok(body) => match http::verify_scrape(&body, &final_snapshot) {
                    Ok(n) => (midrun_scrape_ok, n),
                    Err(_) => (false, 0),
                },
                Err(_) => (false, 0),
            }
        }
        None => (false, 0),
    };

    let trace_dump = session.trace_dump();
    let (summary, _logs) = session.finish();

    // Stream the retained tail (the windows still in the ring at
    // exit, ending with the open final window) so the JSONL file and
    // the digest cover the run end to end.
    if let Some(metrics) = &summary.metrics {
        for row in &metrics.windows {
            stream_digest = fnv_fold(stream_digest, &format!("{row:?}"));
            worst_window_imbalance = worst_window_imbalance.max(row.shard_flow_imbalance);
            windows_streamed += 1;
            emit_row(row, &mut stats_out)?;
        }
    }
    if let Some(mut w) = stats_out {
        w.flush()?;
    }

    let timer_cascades = final_snapshot.scalar("cgn_timer_cascades_total");
    let slots_final = final_health.store.slots;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let t = &config.gates;
    let mut gates = vec![
        GateResult::check(
            "arena-chunks-flat",
            chunks_final.saturating_sub(chunks_warm) as f64,
            t.max_arena_chunk_growth as f64,
            format!("chunks {chunks_warm} at warm-up ({warmup_secs}s) -> {chunks_final} at exit"),
        ),
        GateResult::check(
            "slab-slots-recycled",
            ratio(slots_final, slots_warm),
            t.max_slot_growth_ratio,
            format!(
                "slot high-water {slots_warm} -> {slots_final}, {} on the free-list at exit",
                final_health.store.free
            ),
        ),
        {
            let mut g = GateResult::check(
                "timer-wheel-bounded",
                ratio(final_health.store.timers, slots_final),
                t.max_timers_per_slot,
                format!(
                    "{} timers pending over {slots_final} slots, {timer_cascades} cascades",
                    final_health.store.timers
                ),
            );
            // A wheel that never cascaded never aged anything out;
            // bounded-pending alone would pass vacuously.
            g.passed = g.passed && timer_cascades > 0;
            g
        },
        GateResult::check(
            "rss-proxy-flat",
            ratio(rss_final, rss_warm),
            t.max_rss_growth_ratio,
            format!("modeled resident bytes {rss_warm} at warm-up -> {rss_final} at exit"),
        ),
        GateResult::check(
            "shard-balance",
            worst_window_imbalance,
            t.max_window_imbalance,
            format!(
                "worst per-window max/mean of shard flow starts across {windows_streamed} windows"
            ),
        ),
    ];
    if config.listen.is_some() {
        gates.push(GateResult {
            name: "scrape-verified".to_string(),
            observed: if scrape_verified { 1.0 } else { 0.0 },
            limit: 1.0,
            passed: scrape_verified,
            detail: format!(
                "{scrape_series_verified} series matched the final merged snapshot \
                 (mid-run liveness probe {})",
                if midrun_scrape_ok { "ok" } else { "failed" }
            ),
        });
    }
    let all_gates_passed = gates.iter().all(|g| g.passed);

    // Flight-recorder post-mortem: a tripped gate dumps the sampled
    // flow history (Chrome-trace JSON) for offline triage.
    let trace_dump_written = match (&trace_dump, &config.trace_dump_path, all_gates_passed) {
        (Some(dump), Some(path), false) => {
            std::fs::write(path, cgn_trace::chrome_trace_json(dump))?;
            Some(path.display().to_string())
        }
        _ => None,
    };

    let scrapes_served = server.map(OpsServer::shutdown).unwrap_or(0);
    let wall_secs = started.elapsed().as_secs_f64();
    Ok(SoakReport {
        schema: SOAK_SCHEMA.to_string(),
        preset: config.preset.clone(),
        mix_name: summary.mix_name.clone(),
        subscribers: config.subscribers,
        shards: config.shards,
        duration_secs: config.duration_secs,
        window_secs: config.window_secs,
        warmup_secs,
        seed: config.seed,
        flows_started: summary.flows_started,
        flows_blocked: summary.flows_blocked,
        flows_completed: summary.flows_completed,
        packets_sent: summary.packets_sent,
        mappings_created: summary.stats.mappings_created,
        mappings_expired: summary.stats.mappings_expired,
        windows_streamed,
        window_stream_digest: stream_digest,
        max_windows_retained,
        chunks_warm,
        chunks_final,
        slots_warm,
        slots_final,
        free_slots_final: final_health.store.free,
        rss_proxy_warm_bytes: rss_warm,
        rss_proxy_final_bytes: rss_final,
        timer_cascades,
        timers_pending_final: final_health.store.timers,
        worst_window_imbalance,
        scrapes_served,
        scrape_verified,
        scrape_series_verified,
        event_log,
        trace_dump_written,
        gates,
        all_gates_passed,
        wall_secs,
        sim_rate: config.duration_secs as f64 / wall_secs.max(1e-9),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(threads: usize) -> SoakConfig {
        let mut c = SoakConfig::smoke();
        c.subscribers = 1_500;
        c.shards = 4;
        c.duration_secs = 360;
        c.threads = threads;
        c.listen = None;
        c
    }

    #[test]
    fn window_stream_is_thread_count_invariant() {
        let reports: Vec<SoakReport> = [1usize, 2, 4]
            .iter()
            .map(|&threads| run(&tiny(threads)).expect("soak runs"))
            .collect();
        let reference = &reports[0];
        assert!(reference.windows_streamed > 0);
        for r in &reports[1..] {
            assert_eq!(r.window_stream_digest, reference.window_stream_digest);
            assert_eq!(r.flows_started, reference.flows_started);
            assert_eq!(r.packets_sent, reference.packets_sent);
            assert_eq!(r.windows_streamed, reference.windows_streamed);
            assert_eq!(r.chunks_final, reference.chunks_final);
            assert_eq!(r.slots_final, reference.slots_final);
            assert_eq!(r.timers_pending_final, reference.timers_pending_final);
            assert_eq!(r.worst_window_imbalance, reference.worst_window_imbalance);
        }
    }

    #[test]
    fn smoke_soak_passes_every_gate_and_streams_bounded() {
        let dir = std::env::temp_dir().join(format!("cgn-opsd-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut config = tiny(2);
        config.listen = Some("127.0.0.1:0".to_string());
        config.stats_path = Some(dir.join("windows.jsonl"));
        config.event_log_stem = Some(dir.join("events"));
        config.event_log_generation_bytes = 2 * 1024;

        let report = run(&config).expect("soak runs");
        assert_eq!(report.schema, SOAK_SCHEMA);
        assert!(report.all_gates_passed, "gates failed: {:#?}", report.gates);
        assert!(report.scrape_verified);
        assert!(report.scrape_series_verified > 0);
        assert!(report.scrapes_served >= 2, "mid-run + final scrape");
        assert!(
            report.max_windows_retained <= 2,
            "draining per epoch keeps the ring at closing + open window"
        );

        // The JSONL stream covers every window exactly once and
        // parses back into rows.
        let text = std::fs::read_to_string(dir.join("windows.jsonl")).expect("stats stream");
        let rows: Vec<MetricsWindow> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("row parses"))
            .collect();
        assert_eq!(rows.len() as u64, report.windows_streamed);
        assert!(rows.windows(2).all(|w| w[0].start_secs < w[1].start_secs));

        // Event logs rotated into multiple on-disk generations whose
        // accounting matches the report.
        let volume = report.event_log.expect("event volume present");
        assert!(
            volume.generations > config.shards as u64,
            "rotation happened"
        );
        assert!(volume.records > 0 && volume.bytes > 0);
        assert!(volume.compressed_bytes_modeled < volume.bytes);
        let on_disk: u64 = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("events.shard"))
            .map(|e| e.metadata().map(|m| m.len()).unwrap_or(0))
            .sum();
        assert_eq!(on_disk, volume.bytes, "generation files hold every byte");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Tracing on: phase percentiles ride the live exposition, the
    /// flight recorder serves on `/trace`, and every deterministic
    /// report field matches the tracing-off run bit for bit.
    #[test]
    fn traced_soak_publishes_phases_and_stays_deterministic() {
        let off = run(&tiny(2)).expect("soak runs");

        let mut config = tiny(2);
        config.trace = TraceConfig::sampled(16);
        config.listen = Some("127.0.0.1:0".to_string());
        let report = run(&config).expect("soak runs");
        assert!(report.all_gates_passed, "gates: {:#?}", report.gates);
        assert!(
            report.scrape_verified,
            "published exposition (with phase overlay) still verifies \
             series-for-series against the deterministic snapshot"
        );
        assert_eq!(report.window_stream_digest, off.window_stream_digest);
        assert_eq!(report.flows_started, off.flows_started);
        assert_eq!(report.packets_sent, off.packets_sent);
        assert_eq!(report.trace_dump_written, None, "no gate tripped");
    }

    /// A tripped gate dumps the flight recorder for post-mortem.
    #[test]
    fn gate_trip_dumps_flight_recorder() {
        let dir = std::env::temp_dir().join(format!("cgn-opsd-trip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut config = tiny(1);
        config.trace = TraceConfig::sampled(8);
        config.trace_dump_path = Some(dir.join("postmortem.json"));
        // An impossible balance bound guarantees a gate failure.
        config.gates.max_window_imbalance = 0.0;

        let report = run(&config).expect("soak runs");
        assert!(!report.all_gates_passed, "gate must trip");
        let path = report.trace_dump_written.as_ref().expect("dump written");
        let text = std::fs::read_to_string(path).expect("dump readable");
        let v: serde_json::Value = serde_json::from_str(&text).expect("chrome JSON parses");
        drop(v);
        assert!(text.contains(cgn_trace::CHROME_SCHEMA));
        assert!(
            text.contains("\"ph\":\"i\""),
            "sampled spans present in the post-mortem"
        );

        // Tracing off (or no path): no dump even on failure.
        let mut config = tiny(1);
        config.gates.max_window_imbalance = 0.0;
        let report = run(&config).expect("soak runs");
        assert!(!report.all_gates_passed);
        assert_eq!(report.trace_dump_written, None);

        std::fs::remove_dir_all(&dir).ok();
    }
}
