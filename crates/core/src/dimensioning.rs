//! The dimensioning pipeline: drive every workload mix through a CGN
//! and render the operator-side capacity report.
//!
//! This is the forward direction of §6.2: instead of inferring chunk
//! sizes and pooling from outside probes, fix a CGN configuration, push
//! a synthetic subscriber population's flows through it (`cgn-traffic`)
//! and read off how much port/state capacity each traffic mix demands —
//! including the chunk-size vs. blocking-probability trade-off behind
//! the 512..16K chunks the paper observed.
//!
//! A second axis rides on every sweep: the **logging/traceability
//! study** (§2's survey question). The reference mix is re-run under
//! the three §6.2 allocation policies — per-connection logging,
//! bulk port-block logging, deterministic NAT — measuring the log
//! volume each produces (bytes/subscriber/day) and *verifying* that
//! sampled abuse probes `(ext IP, port, T)` resolve to the exact
//! subscriber through `cgn_telemetry`'s interval index (or, for
//! deterministic NAT, by inverting the provisioning arithmetic with
//! zero log bytes).

use analysis::log_volume::{self, PolicyLogVolume};
use cgn_telemetry::{DeterministicMap, Record, TraceIndex};
use cgn_traffic::{DriverConfig, Modulation, RunSummary, TraceConfig, WorkloadMix};
use nat_engine::telemetry::TelemetryMode;
use nat_engine::{NatConfig, PortAllocation};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Configuration of one dimensioning study (a set of workload mixes
/// run against the same CGN build-out).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimensioningConfig {
    pub seed: u64,
    /// Subscribers behind the CGN deployment.
    pub subscribers: u32,
    /// NAT state shards sharing the load (subscribers are hashed to
    /// shards at admission).
    pub shards: u16,
    /// Public IPs owned by each shard.
    pub external_ips_per_shard: u16,
    /// Worker threads for the epoch-parallel engine: `0` = one per
    /// available core, `1` = sequential. Never changes the results,
    /// only the wall time.
    pub threads: usize,
    /// Behaviour of every shard.
    pub nat: NatConfig,
    /// Workload mixes to sweep (each gets its own fresh CGN).
    pub mixes: Vec<WorkloadMix>,
    /// Diurnal/flash-crowd modulation applied to every mix.
    pub modulation: Modulation,
    /// Simulated seconds per mix.
    pub duration_secs: u64,
    /// Demand-sampling cadence in seconds.
    pub sample_secs: u64,
    /// Mapping-sweep cadence in seconds.
    pub sweep_secs: u64,
    /// Telemetry applied to the per-mix sweep runs (`Off` keeps the
    /// engine on its zero-cost path; the logging study below always
    /// measures every policy regardless).
    pub telemetry: TelemetryMode,
    /// Runtime-metrics aggregation window for the per-mix runs
    /// (`None` = registries not installed, the zero-cost default).
    /// Populates [`RunSummary::metrics`]
    /// (`cgn_traffic::MetricsSummary`) for every mix.
    pub metrics_window_secs: Option<u64>,
    /// Permille of forwarded outbound packets whose flow receives an
    /// inbound reply in the same millisecond
    /// ([`cgn_traffic::DriverConfig::inbound_reply_permille`]). `0`
    /// (the default) keeps the workload outbound-only; the perf
    /// harness's inbound leg sets it to exercise the engine's inbound
    /// path under load.
    pub inbound_reply_permille: u32,
    /// Flow-lifecycle tracing / phase profiling applied to every mix
    /// run ([`cgn_traffic::DriverConfig::trace`]). `off` (the
    /// default) installs no tracer; flow spans, when sampled, are
    /// sim-time-deterministic, so enabling them never changes a
    /// summary.
    pub trace: TraceConfig,
}

impl DimensioningConfig {
    /// Quick preset for tests: a few hundred subscribers, minutes of
    /// virtual time.
    pub fn small(seed: u64) -> DimensioningConfig {
        DimensioningConfig {
            seed,
            subscribers: 400,
            shards: 1,
            external_ips_per_shard: 2,
            threads: 1,
            nat: NatConfig::cgn_default(),
            mixes: WorkloadMix::all(),
            modulation: Modulation::none(),
            duration_secs: 300,
            sample_secs: 30,
            sweep_secs: 20,
            telemetry: TelemetryMode::Off,
            metrics_window_secs: None,
            inbound_reply_permille: 0,
            trace: TraceConfig::off(),
        }
    }

    /// Release-scale preset: drives millions of flows per full sweep
    /// (the `dimensioning` example's default).
    pub fn release(seed: u64) -> DimensioningConfig {
        DimensioningConfig {
            seed,
            subscribers: 10_000,
            shards: 4,
            external_ips_per_shard: 4,
            threads: 0,
            nat: NatConfig::cgn_default(),
            mixes: WorkloadMix::all(),
            modulation: Modulation::none(),
            duration_secs: 900,
            sample_secs: 60,
            sweep_secs: 30,
            telemetry: TelemetryMode::Off,
            metrics_window_secs: None,
            inbound_reply_permille: 0,
            trace: TraceConfig::off(),
        }
    }

    /// The per-mix driver configuration this study hands to
    /// `cgn_traffic::run` (public so `repro`'s metrics and trace
    /// artifacts can re-run the reference mix).
    pub fn driver_config(&self, mix: WorkloadMix) -> DriverConfig {
        DriverConfig {
            subscribers: self.subscribers,
            shards: self.shards,
            external_ips_per_shard: self.external_ips_per_shard,
            threads: self.threads,
            nat: self.nat.clone(),
            mix,
            modulation: self.modulation,
            duration_secs: self.duration_secs,
            sample_secs: self.sample_secs,
            sweep_secs: self.sweep_secs,
            telemetry: self.telemetry,
            metrics_window_secs: self.metrics_window_secs,
            burst: 0,
            inbound_reply_permille: self.inbound_reply_permille,
            trace: self.trace,
            seed: self.seed,
        }
    }

    /// Per-subscriber block size the deterministic-NAT leg of the
    /// logging study uses: the largest power of two that provisions a
    /// collision-free slot for every subscriber of this study
    /// (`shard pool × blocks/IP ≥ subscribers`), so abuse attribution
    /// inverts to exactly one candidate. Deliberately tight — the
    /// restrictiveness of deterministic NAT's hard port cap *is* the
    /// trade-off the paper weighs against its zero logging cost.
    pub fn deterministic_ports_per_host(&self) -> u16 {
        let capacity = (self.nat.port_range.1 - self.nat.port_range.0) as u64 + 1;
        let budget = capacity * self.external_ips_per_shard as u64 / self.subscribers.max(1) as u64;
        let mut pph: u64 = 4;
        while pph * 2 <= budget && pph * 2 <= 16_384 {
            pph *= 2;
        }
        pph as u16
    }
}

/// Abuse probes sampled per policy in the logging study.
const TRACE_PROBES: usize = 16;
/// Block size of the port-block leg (the paper observes 512..16K
/// port chunks; 1K is the canonical mid-range deployment value).
const PORT_BLOCK_SIZE: u16 = 1024;
/// Sampling ratio of the NetFlow-style sampled-logging leg.
const SAMPLED_ONE_IN: u32 = 10;

/// One allocation/logging policy's measured outcome on the reference
/// mix: its log volume and whether sampled abuse probes resolved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoggingPolicyRow {
    /// `per-connection`, `port-block` or `deterministic`.
    pub policy: String,
    /// Allocation policy the leg ran.
    pub port_alloc: PortAllocation,
    /// What the sink recorded.
    pub telemetry: TelemetryMode,
    pub flows_started: u64,
    pub flows_blocked: u64,
    /// Measured volume, normalized to bytes/subscriber/day.
    pub volume: PolicyLogVolume,
    /// Sampled `(ext IP, port, T)` probes and how many resolved to
    /// the exact subscriber.
    pub probes: u32,
    pub probes_resolved: u32,
}

/// Outcome of a dimensioning study: one [`RunSummary`] per mix, plus
/// the logging/traceability policy study on the reference mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimensioningReport {
    pub config: DimensioningConfig,
    pub runs: Vec<RunSummary>,
    /// The three-policy logging study (reference mix = first mix).
    pub logging: Vec<LoggingPolicyRow>,
}

/// Run every configured mix against a fresh CGN deployment, then the
/// logging/traceability study on the reference mix.
pub fn run_dimensioning(config: &DimensioningConfig) -> DimensioningReport {
    let runs = config
        .mixes
        .iter()
        .map(|mix| cgn_traffic::run(&config.driver_config(mix.clone())))
        .collect();
    DimensioningReport {
        config: config.clone(),
        runs,
        logging: logging_study(config),
    }
}

/// Re-run the reference mix under each §6.2 allocation policy with its
/// natural logging model, measure the log volume, and verify sampled
/// abuse probes resolve to the exact subscriber.
fn logging_study(config: &DimensioningConfig) -> Vec<LoggingPolicyRow> {
    let Some(mix) = config.mixes.first() else {
        return Vec::new();
    };
    let legs: [(&str, PortAllocation, TelemetryMode); 4] = [
        // Whatever per-connection strategy the study configured
        // (random by default) with full create/expire logging.
        (
            "per-connection",
            config.nat.port_alloc,
            TelemetryMode::PerConnection,
        ),
        // Same allocation, NetFlow-style 1-in-N flow sampling — the
        // affordable middle ground the full-volume row motivates.
        (
            "sampled",
            config.nat.port_alloc,
            TelemetryMode::Sampled {
                one_in: SAMPLED_ONE_IN,
            },
        ),
        (
            "port-block",
            PortAllocation::PortBlock {
                block_size: PORT_BLOCK_SIZE,
            },
            TelemetryMode::PerBlock,
        ),
        (
            "deterministic",
            PortAllocation::Deterministic {
                ports_per_host: config.deterministic_ports_per_host(),
            },
            TelemetryMode::Off,
        ),
    ];
    legs.iter()
        .map(|(name, alloc, mode)| {
            let mut driver = config.driver_config(mix.clone());
            driver.nat.port_alloc = *alloc;
            driver.telemetry = *mode;
            let (summary, logs) = cgn_traffic::run_with_logs(&driver);
            // Shard logs never share an external IP, so their decoded
            // records can be concatenated for one combined index.
            let records: Vec<Record> = logs
                .iter()
                .flat_map(|l| l.decode().expect("self-produced log decodes"))
                .collect();
            let (probes, probes_resolved) = match mode {
                TelemetryMode::Off => probe_deterministic(&driver, *alloc),
                _ => probe_logged(&records),
            };
            LoggingPolicyRow {
                policy: name.to_string(),
                port_alloc: *alloc,
                telemetry: *mode,
                flows_started: summary.flows_started,
                flows_blocked: summary.flows_blocked,
                volume: PolicyLogVolume::new(
                    *name,
                    summary.telemetry.records,
                    summary.telemetry.bytes,
                    config.subscribers as u64,
                    config.duration_secs,
                    summary.flows_started,
                ),
                probes: probes as u32,
                probes_resolved: probes_resolved as u32,
            }
        })
        .collect()
}

/// The probe-able targets of a decoded log: `(proto, external
/// endpoint, instant, expected subscriber)` per create/grant record.
fn probe_targets(
    records: &[Record],
) -> Vec<(
    netcore::Protocol,
    netcore::Endpoint,
    u64,
    std::net::Ipv4Addr,
)> {
    use netcore::Endpoint;
    records
        .iter()
        .filter_map(|r| match *r {
            Record::MapCreate {
                at_ms,
                subscriber,
                proto,
                external,
            } => Some((proto, external, at_ms, subscriber)),
            Record::BlockAlloc {
                at_ms,
                subscriber,
                proto,
                ext_ip,
                block_start,
                block_len,
            } => Some((
                proto,
                // Probe mid-block: attribution must cover the whole
                // range, not just the start the record names.
                Endpoint::new(ext_ip, block_start + block_len / 2),
                at_ms,
                subscriber,
            )),
            _ => None,
        })
        .collect()
}

/// Probe a logged policy: sample create/grant records across the run
/// and ask the interval index who held the endpoint at that instant.
fn probe_logged(records: &[Record]) -> (usize, usize) {
    let index = TraceIndex::build(records);
    let targets = probe_targets(records);
    if targets.is_empty() {
        return (0, 0);
    }
    let step = (targets.len() / TRACE_PROBES).max(1);
    let mut probes = 0;
    let mut resolved = 0;
    for (proto, external, at_ms, expected) in targets.iter().step_by(step).take(TRACE_PROBES) {
        probes += 1;
        if index.query(*proto, *external, *at_ms) == Some(*expected) {
            resolved += 1;
        }
    }
    (probes, resolved)
}

/// Probe deterministic NAT: no log exists, so attribution inverts the
/// provisioning arithmetic — forward-compute a sampled subscriber's
/// block, then recover the subscriber from a mid-block port probe,
/// admitting only candidates the sharded deployment actually routes
/// to that shard.
fn probe_deterministic(driver: &DriverConfig, alloc: PortAllocation) -> (usize, usize) {
    use netcore::Endpoint;
    let PortAllocation::Deterministic { ports_per_host } = alloc else {
        return (0, 0);
    };
    let base = cgn_traffic::subscriber_ip(0);
    let count = driver.subscribers;
    let step = (count as usize / TRACE_PROBES).max(1);
    let mut probes = 0;
    let mut resolved = 0;
    for idx in (0..count).step_by(step).take(TRACE_PROBES) {
        probes += 1;
        let shard = cgn_traffic::shard_of_subscriber(driver, idx);
        let map = DeterministicMap::new(
            cgn_traffic::shard_pool(driver, shard),
            driver.nat.port_range,
            ports_per_host,
        );
        let expected = cgn_traffic::subscriber_ip(idx);
        let (ext_ip, start, len) = map.external_block(expected);
        let probe = Endpoint::new(ext_ip, start + len / 2);
        let answer = map.subscriber_for(probe, base, count, |candidate| {
            let ordinal = u32::from(candidate).wrapping_sub(u32::from(base));
            cgn_traffic::shard_of_subscriber(driver, ordinal) == shard
        });
        if answer == Some(expected) {
            resolved += 1;
        }
    }
    (probes, resolved)
}

impl DimensioningReport {
    /// Total flows pushed through NATs across all mixes.
    pub fn total_flows(&self) -> u64 {
        self.runs.iter().map(|r| r.flows_started).sum()
    }

    /// Deterministic fingerprint over every run.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in &self.runs {
            let d = r.digest();
            for b in d.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }

    /// Render the report as text (per-mix demand summary plus the
    /// chunk-size vs. blocking-probability table).
    pub fn render(&self) -> String {
        let mut o = String::new();
        let c = &self.config;
        let _ = writeln!(
            o,
            "CGN dimensioning — seed {} | {} subscribers behind {} shard(s) × {} external IP(s), \
             {} s per mix, {} mixes, {} flows total",
            c.seed,
            c.subscribers,
            c.shards,
            c.external_ips_per_shard,
            c.duration_secs,
            self.runs.len(),
            self.total_flows(),
        );

        for r in &self.runs {
            let rep = &r.report;
            let _ = writeln!(
                o,
                "\n---- mix: {} {}",
                r.mix_name,
                "-".repeat(58usize.saturating_sub(r.mix_name.len()))
            );
            let _ = writeln!(
                o,
                "flows: {} started | {} blocked | {} completed | {} packets",
                r.flows_started, r.flows_blocked, r.flows_completed, r.packets_sent
            );
            let _ = writeln!(
                o,
                "mappings: peak {} | median {:.0} | p99 {:.0} | created {} | expired {}",
                rep.peak_mappings,
                rep.median_mappings,
                rep.p99_mappings,
                r.stats.mappings_created,
                r.stats.mappings_expired
            );
            let _ = writeln!(
                o,
                "ports/subscriber at peak: p50 {:.1} | p95 {:.1} | p99 {:.1} | max {}",
                rep.peak_ports_p50, rep.peak_ports_p95, rep.peak_ports_p99, rep.peak_ports_max
            );
            let _ = writeln!(
                o,
                "multiplexing: {:.1} subscribers/external-IP | {:.0} peak ports/external-IP | worst allocator fill {:.1}%",
                rep.subscribers_per_external_ip,
                rep.peak_ports_per_external_ip,
                100.0 * rep.worst_ip_utilization
            );
            let _ = writeln!(
                o,
                "drops: {} port-exhausted | {} session-limit",
                rep.drops_port_exhausted, rep.drops_session_limit
            );
            let st = &r.store;
            let _ = writeln!(
                o,
                "store: {} slab slots ({} live, {} free) | interned: {} hosts, {} (IP, proto) pools | {} wheel timers",
                st.slots, st.live, st.free, st.hosts_interned, st.pools_interned, st.timers
            );
            let _ = writeln!(
                o,
                "shard balance: flow imbalance {:.3} | peak-mapping imbalance {:.3} (max/mean across {} shard(s)) | worst window {:.3} at t={} s",
                r.shard_load.flow_imbalance,
                r.shard_load.mapping_imbalance,
                r.shard_load.flows_per_shard.len(),
                r.shard_load.worst_window_flow_imbalance,
                r.shard_load.worst_window_start_secs
            );
            if let Some(m) = &r.metrics {
                let _ = writeln!(o, "windowed metrics ({} s windows):", m.window_secs);
                let _ = writeln!(
                    o,
                    "  window    flows/s   created   expired      live   fill-permille   wheel-depth   arena-chunks   imbalance   drops"
                );
                for w in &m.windows {
                    let _ = writeln!(
                        o,
                        "  {:>6}   {:>8.1}   {:>7}   {:>7}   {:>7}   {:>13}   {:>11}   {:>12}   {:>9.3}   {:>5}",
                        w.start_secs,
                        w.flows_per_sec,
                        w.mappings_created,
                        w.mappings_expired,
                        w.mappings_live,
                        w.allocator_fill_permille_worst,
                        w.event_wheel_depth,
                        w.arena_chunks,
                        w.shard_flow_imbalance,
                        w.drops
                    );
                }
                let _ = writeln!(
                    o,
                    "  worst-window flow imbalance {:.3} (window starting t={} s)",
                    m.worst_window_flow_imbalance, m.worst_window_start_secs
                );
            }
            let _ = writeln!(
                o,
                "chunk-size sweep (paper §6.2 observes 512..16K chunks; 64 subs/IP at 1K):"
            );
            let _ = writeln!(
                o,
                "  chunk   subs/IP   P(demand blocked)   chunk utilization"
            );
            for row in &rep.chunk_curve {
                let _ = writeln!(
                    o,
                    "  {:>5}   {:>7}   {:>16.4}%   {:>16.2}%",
                    row.chunk_size,
                    row.subscribers_per_ip,
                    100.0 * row.p_demand_blocked,
                    100.0 * row.chunk_utilization
                );
            }
        }

        if !self.logging.is_empty() {
            let mix = self
                .config
                .mixes
                .first()
                .map(|m| m.name.as_str())
                .unwrap_or("?");
            let _ = writeln!(
                o,
                "\n---- logging / traceability (reference mix: {mix}, §2's dimensioning axis) ----"
            );
            let _ = writeln!(
                o,
                "  policy           records   rec/flow       volume   bytes/sub/day   blocked-flows   probes-ok"
            );
            for row in &self.logging {
                let _ = writeln!(
                    o,
                    "  {:<14} {:>9}   {:>8.2}   {:>10}   {:>13.1}   {:>13}   {:>6}/{}",
                    row.policy,
                    row.volume.records,
                    row.volume.records_per_flow,
                    log_volume::format_bytes(row.volume.bytes as f64),
                    row.volume.bytes_per_subscriber_day,
                    row.flows_blocked,
                    row.probes_resolved,
                    row.probes
                );
            }
            let _ = writeln!(
                o,
                "  projected daily volume for 1M subscribers: {}",
                self.logging
                    .iter()
                    .map(|r| format!(
                        "{} {}",
                        r.policy,
                        log_volume::format_bytes(r.volume.projected_daily_bytes(1_000_000))
                    ))
                    .collect::<Vec<_>>()
                    .join(" | ")
            );
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> DimensioningConfig {
        DimensioningConfig {
            subscribers: 120,
            duration_secs: 120,
            mixes: vec![WorkloadMix::residential_evening(), WorkloadMix::iot_fleet()],
            ..DimensioningConfig::small(seed)
        }
    }

    #[test]
    fn sweep_runs_every_mix() {
        let rep = run_dimensioning(&tiny(3));
        assert_eq!(rep.runs.len(), 2);
        assert!(rep.total_flows() > 0);
        assert!(rep.runs.iter().all(|r| !r.series.is_empty()));
    }

    #[test]
    fn logging_study_measures_all_four_policies() {
        let rep = run_dimensioning(&tiny(3));
        assert_eq!(rep.logging.len(), 4);
        let by_name = |n: &str| {
            rep.logging
                .iter()
                .find(|r| r.policy == n)
                .unwrap_or_else(|| panic!("policy {n} missing"))
        };
        let per_conn = by_name("per-connection");
        let sampled = by_name("sampled");
        let per_block = by_name("port-block");
        let det = by_name("deterministic");
        // 1-in-10 flow sampling sits strictly between full
        // per-connection volume and nothing.
        assert!(sampled.volume.records > 0, "sampling must keep flows");
        assert!(
            sampled.volume.bytes * 3 < per_conn.volume.bytes,
            "sampled ({}) must undercut per-connection ({})",
            sampled.volume.bytes,
            per_conn.volume.bytes
        );
        assert!(sampled.volume.bytes_per_subscriber_day > 0.0);
        // The paper's ordering: per-connection >> port-block > zero.
        assert!(per_conn.volume.bytes > 0 && per_conn.volume.records > 0);
        assert!(per_block.volume.records > 0);
        // The margin grows with flows/subscriber; even this tiny
        // two-minute fixture shows a multiple (the driver's p2p test
        // pins the order-of-magnitude gap on a realistic mix).
        assert!(
            per_block.volume.bytes * 3 < per_conn.volume.bytes,
            "block logs ({}) must undercut per-connection ({})",
            per_block.volume.bytes,
            per_conn.volume.bytes
        );
        assert_eq!(det.volume.bytes, 0, "deterministic NAT logs nothing");
        assert_eq!(det.volume.records, 0);
        assert!(per_conn.volume.bytes_per_subscriber_day > det.volume.bytes_per_subscriber_day);
        // Every sampled abuse probe resolves to the exact subscriber —
        // through the interval index for logged policies, through the
        // provisioning inverse for deterministic NAT.
        for row in &rep.logging {
            assert!(row.probes > 0, "{}: probes sampled", row.policy);
            assert_eq!(
                row.probes_resolved, row.probes,
                "{}: every probe must resolve exactly",
                row.policy
            );
        }
        // Roughly two records per flow (create+expire) under
        // per-connection logging; far fewer under blocks.
        assert!(per_conn.volume.records_per_flow > 1.0);
        assert!(per_block.volume.records_per_flow < 0.5);
    }

    #[test]
    fn deterministic_ports_per_host_provisions_every_subscriber() {
        let cfg = tiny(3);
        let pph = cfg.deterministic_ports_per_host() as u64;
        assert!(pph.is_power_of_two());
        let capacity = (cfg.nat.port_range.1 - cfg.nat.port_range.0) as u64 + 1;
        let slots_per_shard = cfg.external_ips_per_shard as u64 * (capacity / pph);
        assert!(
            slots_per_shard >= cfg.subscribers as u64,
            "{slots_per_shard} slots must cover {} subscribers",
            cfg.subscribers
        );
        // Tight: the next power of two would not fit the population.
        assert!(
            pph == 16_384
                || cfg.external_ips_per_shard as u64 * (capacity / (pph * 2))
                    < cfg.subscribers as u64
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_dimensioning(&tiny(11));
        let b = run_dimensioning(&tiny(11));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), run_dimensioning(&tiny(12)).digest());
    }

    #[test]
    fn threads_do_not_change_results() {
        let mut cfg = tiny(9);
        cfg.shards = 2;
        cfg.threads = 1;
        let seq = run_dimensioning(&cfg);
        cfg.threads = 4;
        let par = run_dimensioning(&cfg);
        assert_eq!(seq.runs, par.runs, "threads are an execution detail");
        assert_eq!(seq.digest(), par.digest());
    }

    #[test]
    fn render_contains_chunk_table_and_mix_names() {
        let rep = run_dimensioning(&tiny(5));
        let text = rep.render();
        assert!(text.contains("chunk-size sweep"));
        assert!(text.contains("slab slots"), "store occupancy line");
        assert!(text.contains("wheel timers"));
        assert!(text.contains("shard balance"), "imbalance line");
        assert!(text.contains("logging / traceability"), "logging table");
        assert!(text.contains("per-connection"));
        assert!(text.contains("sampled"), "NetFlow-style sampled row");
        assert!(text.contains("port-block"));
        assert!(text.contains("deterministic"));
        assert!(text.contains("bytes/sub/day"));
        assert!(text.contains("projected daily volume for 1M subscribers"));
        assert!(text.contains("residential-evening"));
        assert!(text.contains("iot-fleet"));
        assert!(text.contains("subs/IP"));
        for chunk in analysis::port_demand::CHUNK_SIZES {
            assert!(text.contains(&format!("{chunk}")), "chunk {chunk} missing");
        }
    }

    #[test]
    fn json_round_trips() {
        let rep = run_dimensioning(&tiny(7));
        let json = serde_json::to_string_pretty(&rep).expect("serializable");
        let back: DimensioningReport = serde_json::from_str(&json).expect("parseable");
        assert_eq!(rep, back);
    }

    #[test]
    fn metrics_window_renders_live_table() {
        let mut cfg = tiny(5);
        cfg.metrics_window_secs = Some(60);
        let rep = run_dimensioning(&cfg);
        assert!(rep.runs.iter().all(|r| r.metrics.is_some()));
        let text = rep.render();
        assert!(text.contains("windowed metrics (60 s windows):"));
        assert!(text.contains("flows/s"));
        assert!(text.contains("fill-permille"));
        assert!(text.contains("worst-window flow imbalance"));
        assert!(text.contains("worst window"), "shard-balance worst window");
        // Thread-count invariance holds with metrics installed too.
        cfg.threads = 1;
        let seq = run_dimensioning(&cfg);
        cfg.threads = 3;
        let par = run_dimensioning(&cfg);
        assert_eq!(seq.runs, par.runs);
    }
}
