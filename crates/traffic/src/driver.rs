//! The flow scheduler: a sharded, epoch-parallel event engine that
//! pushes generated flows through a [`nat_engine::ShardedNat`].
//!
//! Subscribers are hashed to NAT shards at admission
//! ([`ShardedNat::shard_of`]); each shard owns a complete NAT state
//! slice (port allocators, mapping tables, stats), its own binary-heap
//! event queue, and the RNG streams of its subscribers. Between two
//! *epoch barriers* — the sweep and demand-sample ticks — shards share
//! nothing, so worker threads (`std::thread::scope`) advance them
//! concurrently; at each barrier the coordinator merges the per-shard
//! demand slices (`analysis::port_demand::merge_shard_demand`).
//!
//! **Determinism.** Every subscriber draws from its own seeded RNG
//! stream and every shard's events are processed in `(time, sequence)`
//! order, so a run is bit-identical for *any* worker-thread count —
//! `threads` is an execution detail, never an input to the result (see
//! the `parallel_matches_sequential` tests). Shard count, on the other
//! hand, is topology: it decides which allocator serves a subscriber
//! and therefore (like `external_ips_per_shard`) is part of the
//! configuration a digest depends on.

use crate::modulation::Modulation;
use crate::wheel::EventWheel;
use crate::workload::{AppProfile, WorkloadMix};
use analysis::log_volume;
use analysis::port_demand::{
    self, max_over_mean, DemandSeries, PortDemandReport, ShardDemand, ShardLoad,
};
use cgn_metrics::{Snapshot, Value, Window, WindowSeries};
use cgn_telemetry::{BinaryLogSink, EventLog};
use cgn_trace::{Phase, PhaseProfiler, ShardTracer, TraceConfig, TraceDump};
use nat_engine::sharded::{mix64, scatter};
use nat_engine::telemetry::{EventSink, TelemetryMode};
use nat_engine::{
    EngineMetrics, Header, HeaderVerdict, Nat, NatConfig, NatStats, ShardedNat, StoreOccupancy,
};
use netcore::{Endpoint, SimTime, TcpFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Everything one dimensioning run needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriverConfig {
    /// Subscriber population across all shards.
    pub subscribers: u32,
    /// NAT state shards; subscribers are hashed to shards at admission.
    pub shards: u16,
    /// Public addresses owned by each shard.
    pub external_ips_per_shard: u16,
    /// Worker threads for the epoch engine: `0` = one per available
    /// core, `1` = sequential in place. Results are identical for every
    /// value.
    pub threads: usize,
    /// Behaviour of every shard.
    pub nat: NatConfig,
    /// Application mix of the population.
    pub mix: WorkloadMix,
    /// Diurnal / flash-crowd modulation.
    pub modulation: Modulation,
    /// Simulated run length.
    pub duration_secs: u64,
    /// Demand-sampling cadence (an epoch barrier).
    pub sample_secs: u64,
    /// Mapping-sweep cadence (an epoch barrier exercising `Nat::sweep`
    /// at scale).
    pub sweep_secs: u64,
    /// Traceability logging: `Off` installs no sink (the zero-cost
    /// default); every other mode installs one [`BinaryLogSink`] per
    /// shard and surfaces the volume in [`RunSummary::telemetry`] (raw
    /// logs via [`run_with_logs`]). `Sampled` keeps one mapping in N
    /// by flow-key hash (`one_in = 0` keeps none).
    pub telemetry: TelemetryMode,
    /// Runtime-metrics aggregation window in sim-seconds. `None` (the
    /// zero-cost default) installs no [`EngineMetrics`] registries and
    /// leaves [`RunSummary::metrics`] empty; `Some(w)` snapshots every
    /// instrument at each sample barrier and folds the snapshots into
    /// `w`-second windows.
    pub metrics_window_secs: Option<u64>,
    /// Packets the driver gathers before it calls the engine's burst
    /// pipeline: a shard drains consecutive millisecond buckets of its
    /// event wheel into one **window** until the window holds at least
    /// this many packets (or no later bucket may join it — see
    /// `advance_shard`'s window rule), stages the whole window with one
    /// [`Nat::stage_burst`] call, and then translates and commits it
    /// bucket by bucket. `0` (the default) means [`DEFAULT_BURST`]; `1`
    /// is one bucket per window. Like `threads`, this is an execution
    /// detail: the bucket walk keeps every mutation in `(ms, seq)`
    /// order at its own bucket's instant, so summaries and telemetry
    /// logs are bit-identical for every value (see the
    /// `burst_sizes_bit_identical` test).
    pub burst: usize,
    /// Permille of forwarded outbound packets whose flow receives an
    /// inbound reply at the same instant — right after its millisecond
    /// bucket is committed, before the window's next bucket is
    /// translated — exercising the engine's inbound path under load.
    /// Selection is a deterministic hash of the flow endpoints and the
    /// bucket's instant, so the reply stream — like everything else —
    /// is bit-identical for every worker-thread count and burst size.
    /// `0` (the default) disables the leg entirely and leaves every
    /// existing digest unchanged.
    pub inbound_reply_permille: u32,
    /// Flow-lifecycle tracing and phase profiling
    /// ([`cgn_trace::TraceConfig`]). The default (`off`) installs no
    /// tracer — the fire sites compile to an untaken branch, the same
    /// zero-cost discipline as `telemetry` and `metrics_window_secs`.
    /// When enabled, flow spans are sim-time-stamped and thread-count
    /// invariant; phase timings are wall-clock and live only in the
    /// annotation layer ([`DriverSession::phase_profile`]), never in
    /// [`RunSummary`].
    pub trace: TraceConfig,
    pub seed: u64,
}

/// Window size, in packets, used when [`DriverConfig::burst`] is `0`:
/// large enough that the burst pipeline has a burst's worth of cache
/// misses to overlap (a millisecond bucket alone holds two or three
/// packets at CGN scale, so a window spans a dozen buckets), small
/// enough that the rows it prefetches (four lines per packet) are
/// still L1-resident when they are translated.
pub const DEFAULT_BURST: usize = 32;

/// Metrics windows retained in memory: far above every batch sweep in
/// this repo (their window counts are in the tens), small enough that
/// an always-on soak never holds more than ~a day of minute windows
/// resident. The series stays telescoping-safe across evictions
/// (`cgn_metrics::WindowSeries::drain_closed`), so an always-on run is
/// bounded-memory regardless of simulated length.
pub const METRICS_RETENTION: usize = 4096;

impl DriverConfig {
    /// A mid-size default: 8k subscribers behind one shard, sequential.
    pub fn new(mix: WorkloadMix, seed: u64) -> DriverConfig {
        DriverConfig {
            subscribers: 8_000,
            shards: 1,
            external_ips_per_shard: 8,
            threads: 1,
            nat: NatConfig::cgn_default(),
            mix,
            modulation: Modulation::none(),
            duration_secs: 1_200,
            sample_secs: 60,
            sweep_secs: 30,
            telemetry: TelemetryMode::Off,
            metrics_window_secs: None,
            burst: 0,
            inbound_reply_permille: 0,
            trace: TraceConfig::off(),
            seed,
        }
    }
}

/// One aggregation window of the metrics time series: the operator-
/// facing rates and levels distilled from the window's snapshot delta
/// (rates/counts) and its closing cumulative snapshot (levels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsWindow {
    /// Window start, aligned to a multiple of the window width.
    pub start_secs: u64,
    /// Sim-time of the last sample folded into this window.
    pub end_secs: u64,
    /// New-flow attempts within the window.
    pub flows_started: u64,
    /// `flows_started / window width`.
    pub flows_per_sec: f64,
    /// Mappings created / expired within the window.
    pub mappings_created: u64,
    pub mappings_expired: u64,
    /// Live mappings at the window's closing sample.
    pub mappings_live: u64,
    /// Worst allocator fill across every (external IP, protocol) pool
    /// at the closing sample, in permille.
    pub allocator_fill_permille_worst: u64,
    /// Outstanding driver events at the closing sample, summed across
    /// shard event wheels.
    pub event_wheel_depth: u64,
    /// 2 MiB slab-arena chunks mapped across shards at the closing
    /// sample (`cgn_arena_chunks`). Monotone within a run — chunks are
    /// only ever appended — so a flat tail proves the slab stopped
    /// growing after warm-up (and arena growth never copies, unlike
    /// the `Vec` slab it replaced).
    pub arena_chunks: u64,
    /// `max/mean` of per-shard flow starts within the window — the
    /// transient skew [`ShardLoad::flow_imbalance`] averages away.
    pub shard_flow_imbalance: f64,
    /// New-flow rejections (port exhaustion + session limit) within
    /// the window.
    pub drops: u64,
}

/// The windowed metrics aggregate of one run
/// ([`RunSummary::metrics`], present when
/// [`DriverConfig::metrics_window_secs`] is set). Thread-count
/// invariant like every other summary field: per-shard snapshots are
/// merged in shard order at sample barriers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Aggregation window width in sim-seconds.
    pub window_secs: u64,
    /// Per-window rows, in time order.
    pub windows: Vec<MetricsWindow>,
    /// The final cumulative snapshot — every instrument in the stack
    /// at run end (the Prometheus-exposition payload).
    pub last: Snapshot,
    /// Worst [`MetricsWindow::shard_flow_imbalance`] across windows.
    pub worst_window_flow_imbalance: f64,
    /// Start of the window behind `worst_window_flow_imbalance`.
    pub worst_window_start_secs: u64,
}

/// Aggregate logging volume of one run (zeros when telemetry is off).
/// Thread-count invariant like every other summary field: per-shard
/// logs are owned by their shard, so sums depend only on the
/// configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    pub mode: TelemetryMode,
    /// Semantic records across all shard logs.
    pub records: u64,
    /// Encoded bytes across all shard logs.
    pub bytes: u64,
    /// The operator-budget normalization (`analysis::log_volume`).
    pub bytes_per_subscriber_day: f64,
}

impl TelemetrySummary {
    fn from_logs(
        mode: TelemetryMode,
        logs: &[EventLog],
        subscribers: u64,
        duration_secs: u64,
    ) -> TelemetrySummary {
        let records = logs.iter().map(EventLog::records).sum();
        let bytes = logs.iter().map(EventLog::len_bytes).sum();
        TelemetrySummary {
            mode,
            records,
            bytes,
            bytes_per_subscriber_day: log_volume::bytes_per_subscriber_day(
                bytes,
                subscribers,
                duration_secs,
            ),
        }
    }
}

/// Aggregated outcome of one run.
///
/// Deliberately excludes the worker-thread count: summaries produced
/// with different `threads` settings but otherwise identical
/// configurations compare equal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    pub mix_name: String,
    pub subscribers: u32,
    pub shards: u16,
    pub duration_secs: u64,
    /// New-flow attempts handed to the NAT.
    pub flows_started: u64,
    /// Attempts dropped at the first packet (port/chunk/session limits).
    pub flows_blocked: u64,
    /// Flows that reached their scheduled end.
    pub flows_completed: u64,
    /// Outbound packets processed (arrivals + keepalives + teardowns).
    pub packets_sent: u64,
    /// NAT counters merged across shards.
    pub stats: NatStats,
    /// Slab-store occupancy at run end, summed across shards (arena
    /// size, free-list length, interner sizes, parked timers).
    pub store: StoreOccupancy,
    /// Per-shard flow and peak-mapping distribution — the
    /// load-imbalance observable for heavy-tailed mixes.
    pub shard_load: ShardLoad,
    /// Traceability-log volume (zeros when telemetry is off).
    pub telemetry: TelemetrySummary,
    /// Windowed runtime metrics (`None` unless
    /// [`DriverConfig::metrics_window_secs`] is set).
    pub metrics: Option<MetricsSummary>,
    /// Demand time series (merged across shards at each barrier).
    pub series: DemandSeries,
    /// Ports-per-subscriber distribution at the peak sample (sorted).
    pub peak_ports_per_subscriber: Vec<u32>,
    /// The dimensioning report derived from the series.
    pub report: PortDemandReport,
}

impl RunSummary {
    /// Order-independent fingerprint for determinism checks.
    pub fn digest(&self) -> u64 {
        // FNV-1a over the debug rendering: every field is plain data
        // with deterministic Debug output.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{self:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Next flow arrival for a subscriber (dense per-shard index into
    /// [`ShardState::subs`]).
    Arrival { idx: u32 },
    /// Keepalive packet for a live flow (generational slab handle).
    Packet { flow: u64 },
    /// Scheduled flow teardown (generational slab handle).
    End { flow: u64 },
}

struct FlowState {
    src: Endpoint,
    dst: Endpoint,
    udp: bool,
    end_ms: u64,
    refresh_ms: u64,
}

/// Slab of live flows with generational `u64` handles
/// (`generation << 32 | slot`) — the same free-list + generation
/// scheme as `nat_engine::store`, applied to the driver's own hot
/// table.
///
/// **Invariant:** a live flow has exactly one pending wheel event
/// (none once its next one would fall past the horizon), and it leaves
/// the slab only while that event is committed — a teardown, or a
/// keepalive the NAT dropped — which schedules no follow-up. So every
/// event finds its flow ([`LIVE_FLOW`]); the generation check only
/// turns a broken invariant into that panic instead of a read of the
/// slot's next tenant.
#[derive(Default)]
struct FlowSlab {
    slots: Vec<(u32, Option<FlowState>)>,
    free: Vec<u32>,
}

impl FlowSlab {
    fn insert(&mut self, f: FlowState) -> u64 {
        match self.free.pop() {
            Some(s) => {
                let e = &mut self.slots[s as usize];
                e.1 = Some(f);
                (e.0 as u64) << 32 | s as u64
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("more than 2^32 live flows");
                self.slots.push((0, Some(f)));
                s as u64
            }
        }
    }

    fn get(&self, handle: u64) -> Option<&FlowState> {
        let e = self.slots.get((handle & 0xFFFF_FFFF) as usize)?;
        if e.0 != (handle >> 32) as u32 {
            return None;
        }
        e.1.as_ref()
    }

    fn remove(&mut self, handle: u64) -> Option<FlowState> {
        let slot = (handle & 0xFFFF_FFFF) as usize;
        let e = self.slots.get_mut(slot)?;
        if e.0 != (handle >> 32) as u32 {
            return None;
        }
        let f = e.1.take()?;
        e.0 = e.0.wrapping_add(1);
        self.free.push(slot as u32);
        Some(f)
    }
}

/// Why a wheel event's flow handle always resolves (see [`FlowSlab`]).
const LIVE_FLOW: &str = "a live flow has exactly one pending event";

/// One subscriber's generator state. Each subscriber owns an
/// independent RNG stream, which is what makes the run independent of
/// shard processing order.
struct SubState {
    /// Global subscriber id (addressing, destination universe).
    sub: u32,
    rng: StdRng,
    profile: AppProfile,
    next_src_port: u16,
}

/// Buffers of [`advance_shard`], kept on the shard so that a window
/// allocates nothing once they have grown to one window's size; all
/// empty between calls.
#[derive(Default)]
struct WindowScratch {
    /// The wheel's hand-out buffer ([`EventWheel::next_bucket`]).
    batch: Vec<(u64, u64, Kind)>,
    /// One entry per bucket of the window: its instant, and how many
    /// deferred commits and packets it contributed.
    buckets: Vec<(u64, usize, usize)>,
    pending: Vec<Pending>,
    /// The window's outbound headers, rewritten in place by translate.
    headers: Vec<Header>,
    verdicts: Vec<HeaderVerdict>,
    /// One bucket's inbound replies.
    replies: Vec<Header>,
}

/// Shard-local driver state: the event wheel and the flow/subscriber
/// tables of the hosts admitted to this shard. Subscribers live in a
/// dense vector (admission order), flows in a generational slab —
/// no hash map sits on the per-event path.
struct ShardState {
    wheel: EventWheel<Kind>,
    seq: u64,
    subs: Vec<SubState>,
    flows: FlowSlab,
    flows_started: u64,
    flows_blocked: u64,
    flows_completed: u64,
    packets_sent: u64,
    scratch: WindowScratch,
    /// Header verdicts so far: forwarded, hairpinned, dropped.
    #[cfg(test)]
    verdicts: [u64; 3],
}

impl ShardState {
    fn new() -> ShardState {
        ShardState {
            wheel: EventWheel::new(),
            seq: 0,
            subs: Vec::new(),
            flows: FlowSlab::default(),
            flows_started: 0,
            flows_blocked: 0,
            flows_completed: 0,
            packets_sent: 0,
            scratch: WindowScratch::default(),
            #[cfg(test)]
            verdicts: [0; 3],
        }
    }

    fn push(&mut self, at_ms: u64, kind: Kind) {
        self.seq += 1;
        self.wheel.push(at_ms, self.seq, kind);
    }
}

/// The driver's counters and wheel depth summed over every shard.
#[derive(Default)]
struct ShardTotals {
    flows_started: u64,
    flows_blocked: u64,
    flows_completed: u64,
    packets_sent: u64,
    wheel_depth: u64,
}

impl ShardTotals {
    fn of(states: &[ShardState]) -> ShardTotals {
        let mut t = ShardTotals::default();
        for st in states {
            t.flows_started += st.flows_started;
            t.flows_blocked += st.flows_blocked;
            t.flows_completed += st.flows_completed;
            t.packets_sent += st.packets_sent;
            t.wheel_depth += st.wheel.len() as u64;
        }
        t
    }
}

/// Base of the subscriber address plan (RFC 6598 shared space).
pub const SUBSCRIBER_BASE: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 0);

/// Shared address plan: subscriber `idx` lives at `100.64/10 + idx`
/// (RFC 6598); pool IPs sit in `198.18/15` (benchmark range). Public
/// so attribution tooling (deterministic-NAT inversion, probe
/// construction) can reconstruct the provisioning table.
pub fn subscriber_ip(idx: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(SUBSCRIBER_BASE) + idx)
}

fn pool_ip(shard: u16, k: u16) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(Ipv4Addr::new(198, 18, 0, 0)) + (shard as u32) * 256 + k as u32)
}

/// The external pool owned by one shard of a run with this
/// configuration, in the shard's own allocation order — the
/// deployment knowledge a traceability query needs (deterministic-NAT
/// inversion resolves against exactly this list).
pub fn shard_pool(config: &DriverConfig, shard: u16) -> Vec<Ipv4Addr> {
    (0..config.external_ips_per_shard)
        .map(|k| pool_ip(shard, k))
        .collect()
}

/// The shard a subscriber is admitted to under this configuration
/// (the driver's stable host hash).
pub fn shard_of_subscriber(config: &DriverConfig, idx: u32) -> u16 {
    (mix64(u32::from(subscriber_ip(idx)) as u64) % config.shards as u64) as u16
}

/// Per-class destination universes live in distinct public /8-ish
/// bases so flows are visibly attributable in traces.
fn dest_ip(profile: AppProfile, idx: u32) -> Ipv4Addr {
    let base = match profile {
        AppProfile::Web => Ipv4Addr::new(23, 0, 0, 0),
        AppProfile::Streaming => Ipv4Addr::new(151, 101, 0, 0),
        AppProfile::P2p => Ipv4Addr::new(85, 0, 0, 0),
        AppProfile::Gaming => Ipv4Addr::new(162, 254, 0, 0),
        AppProfile::Iot => Ipv4Addr::new(52, 32, 0, 0),
    };
    Ipv4Addr::from(u32::from(base) + idx)
}

/// Mix a subscriber's per-pool slot into a universe index so each
/// subscriber keeps a stable `fanout`-sized destination pool.
fn pool_slot_to_universe(sub: u32, slot: u16, universe: u32) -> u32 {
    let mut z = ((sub as u64) << 16 | slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 32;
    (z as u32) % universe.max(1)
}

fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Deferred commit work for one drained event: everything the generate
/// pass decided, applied by the commit pass in event order after the
/// translate pass has produced its bucket's verdicts. Events whose
/// packet went through the NAT consume exactly one verdict each, in
/// event order.
enum Pending {
    /// New flow: reschedule the subscriber's next arrival, then commit
    /// the flow if its first packet was admitted (consumes one verdict).
    /// Its destination and transport are read back from the translated
    /// header, whose forward rewrote only the source (no destination
    /// universe reaches the pool's `198.18/15`, so nothing hairpins).
    Arrival {
        idx: u32,
        next_arrival: Option<u64>,
        src: Endpoint,
        end_ms: u64,
        refresh_ms: u64,
    },
    /// Keepalive for a live flow (consumes one verdict).
    Packet {
        flow: u64,
        end_ms: u64,
        refresh_ms: u64,
    },
    /// TCP teardown: a FIN went on the wire (consumes one verdict).
    EndTcp { flow: u64 },
    /// UDP teardown: no packet, just the flow-table removal.
    EndUdp { flow: u64 },
}

/// One barrier-to-barrier step of a shard: how far to drain, the
/// window size in packets, the inbound-reply leg parameters, and which
/// barrier duties run at the boundary.
#[derive(Clone, Copy)]
struct AdvanceStep {
    boundary_ms: u64,
    burst: usize,
    /// [`DriverConfig::inbound_reply_permille`].
    reply_permille: u32,
    /// The run seed, salting the reply-selection hash.
    seed: u64,
    do_sweep: bool,
    do_sample: bool,
}

/// Whether a forwarded outbound packet's flow receives an inbound
/// reply in this millisecond bucket: a pure hash of (seed, flow
/// endpoints, bucket instant), so the decision is identical for every
/// worker-thread count and burst size, and keepalives of a long flow
/// re-draw each time.
fn reply_due(seed: u64, permille: u32, at_ms: u64, src: Endpoint, dst: Endpoint) -> bool {
    if permille == 0 {
        return false;
    }
    let flow = (u32::from(src.ip) as u64) << 16 | src.port as u64;
    let peer = (u32::from(dst.ip) as u64) << 16 | dst.port as u64;
    mix64(seed ^ mix64(flow) ^ mix64(peer ^ mix64(at_ms))) % 1000 < permille as u64
}

/// The inbound reply to a forwarded header `t`: from its destination,
/// which a forward leaves alone, to the mapping's external endpoint.
fn reply_to(t: &Header) -> Header {
    Header::new(t.dst, t.src, t.flags.map(|_| TcpFlags::ACK))
}

/// Advance one shard's event queue up to (and including) `boundary_ms`,
/// then run its barrier duties: sweep expired mappings and/or capture
/// this shard's slice of the demand snapshot.
///
/// The unit of work is a **window** of consecutive millisecond buckets,
/// because one bucket holds two or three packets where the engine's
/// burst pipeline needs a burst's worth of cache misses to overlap.
///
/// **The window rule.** A window takes buckets from the wheel until it
/// holds at least `burst` packets or reaches its limit. The limit
/// starts at the barrier and, after each event is generated, drops to
/// one millisecond before the earliest instant that event's deferred
/// commit could push a follow-up — `min(next_arrival, at + refresh,
/// end)` for an arrival, `min(at + refresh, end)` for a keepalive, all
/// known at generate time whatever the verdict turns out to be. So
/// nothing a commit pushes can land inside a window that has already
/// been drained (the wheel panics if it did), and, since a subscriber
/// has one pending arrival and a live flow one pending event, no
/// subscriber or flow has two events in one window: no event generated
/// in a window can observe another event of the same window.
///
/// **The walk.** *Generate* runs over the whole window in `(ms, seq)`
/// order (RNG streams are per subscriber, so each stream's draw order
/// is unchanged). One [`Nat::stage_burst`] call then packs and interns
/// every key in arrival order and gets the window's index cells and
/// slot rows on their way. After that the window is walked **bucket by
/// bucket**: [`Nat::translate_staged`] for that bucket's packets at
/// that bucket's instant, *commit* of its deferred work (wheel pushes
/// and flow-table mutations, in event order), then its inbound-reply
/// leg. Every NAT mutation, RNG draw, wheel push, sequence number,
/// sink record and tracer event therefore happens in the order, and at
/// the `now`, of a loop that handles one bucket at a time — which is
/// what `burst = 1` degenerates to — so summaries and telemetry logs
/// are bit-identical for every burst size.
fn advance_shard(
    nat: &mut Nat,
    st: &mut ShardState,
    modulation: &Modulation,
    horizon_ms: u64,
    step: AdvanceStep,
) -> Option<ShardDemand> {
    let AdvanceStep {
        boundary_ms,
        burst,
        reply_permille,
        seed,
        do_sweep,
        do_sample,
    } = step;
    let burst = burst.max(1);
    let mut scratch = std::mem::take(&mut st.scratch);
    let WindowScratch {
        batch,
        buckets,
        pending,
        headers,
        verdicts,
        replies,
    } = &mut scratch;
    loop {
        // Wall-clock phase clock: `None` (an untaken branch per lap)
        // unless this shard's tracer profiles phases, and then `Some`
        // for one window in sixteen, whose laps each stand for sixteen
        // (`Nat::window_clock`). The engine laps its burst stages on
        // the same clock.
        let mut clock = nat.window_clock();

        // Generate, in event order, until the window is full or closed.
        let mut limit = boundary_ms;
        while headers.len() < burst && st.wheel.next_bucket(limit, batch) {
            // All events of exactly one millisecond.
            let at_ms = batch[0].0;
            let (had_pending, had_headers) = (pending.len(), headers.len());
            for &(_at, _seq, kind) in batch.iter() {
                // The earliest instant this event's commit can push at.
                let earliest = match kind {
                    Kind::Arrival { idx } => {
                        let ss = &mut st.subs[idx as usize];
                        let sub = ss.sub;
                        let profile = ss.profile;
                        let params = profile.params();

                        // Schedule the next arrival first (non-homogeneous
                        // Poisson, rate modulated at the current instant).
                        let rate_per_sec = params.flows_per_min / 60.0
                            * modulation.factor(at_ms / 1000, params.flash_sensitive);
                        let next_arrival = if rate_per_sec > 1e-12 {
                            let u: f64 = ss.rng.gen::<f64>().max(1e-12);
                            let gap_ms = (-u.ln() / rate_per_sec * 1000.0).clamp(1.0, 1e12) as u64;
                            Some(at_ms + gap_ms).filter(|at| *at <= horizon_ms)
                        } else {
                            None
                        };

                        // Build the flow.
                        let src_port = 20_000 + (ss.next_src_port % 45_000);
                        ss.next_src_port = ss.next_src_port.wrapping_add(1) % 45_000;
                        let src = Endpoint::new(subscriber_ip(sub), src_port);
                        let slot = ss.rng.gen_range(0..params.fanout);
                        let universe_idx = pool_slot_to_universe(sub, slot, params.dest_universe);
                        // Popularity skew: collapse high slots onto the popular
                        // end of the universe now and then.
                        let universe_idx = if ss.rng.gen_bool(0.3) {
                            params.sample_dest(&mut ss.rng)
                        } else {
                            universe_idx
                        };
                        let dst = Endpoint::new(
                            dest_ip(profile, universe_idx),
                            params.sample_dst_port(&mut ss.rng),
                        );
                        let udp = ss.rng.gen_bool(params.udp_share);
                        let duration_ms =
                            (params.sample_duration_secs(&mut ss.rng) * 1000.0) as u64;
                        let end_ms = at_ms + duration_ms.max(1000);
                        let refresh_ms = params.refresh_secs * 1000;

                        headers.push(Header::new(src, dst, (!udp).then_some(TcpFlags::SYN)));
                        st.packets_sent += 1;
                        st.flows_started += 1;
                        pending.push(Pending::Arrival {
                            idx,
                            next_arrival,
                            src,
                            end_ms,
                            refresh_ms,
                        });
                        next_arrival
                            .unwrap_or(u64::MAX)
                            .min(at_ms + refresh_ms)
                            .min(end_ms)
                    }
                    Kind::Packet { flow } => {
                        let f = st.flows.get(flow).expect(LIVE_FLOW);
                        headers.push(Header::new(f.src, f.dst, (!f.udp).then_some(TcpFlags::ACK)));
                        st.packets_sent += 1;
                        pending.push(Pending::Packet {
                            flow,
                            end_ms: f.end_ms,
                            refresh_ms: f.refresh_ms,
                        });
                        (at_ms + f.refresh_ms).min(f.end_ms)
                    }
                    Kind::End { flow } => {
                        let f = st.flows.get(flow).expect(LIVE_FLOW);
                        if f.udp {
                            pending.push(Pending::EndUdp { flow });
                        } else {
                            // Polite TCP teardown moves the mapping onto the
                            // short transitory clock (RFC 5382 behaviour the
                            // engine models).
                            headers.push(Header::new(f.src, f.dst, Some(TcpFlags::FIN)));
                            st.packets_sent += 1;
                            pending.push(Pending::EndTcp { flow });
                        }
                        u64::MAX // a teardown schedules nothing
                    }
                };
                debug_assert!(earliest > at_ms, "a commit may only push into the future");
                limit = limit.min(earliest - 1);
            }
            buckets.push((
                at_ms,
                pending.len() - had_pending,
                headers.len() - had_headers,
            ));
        }
        if buckets.is_empty() {
            break;
        }
        nat.phase_lap(&mut clock, Phase::Generate);

        // Stages 1–2 for the whole window: every index cell and slot
        // row it will touch is requested before the first translate.
        // The engine laps its stages on this clock; `Translate` and
        // `Inbound` are then the spans those laps add up to (the
        // window's first `Translate` includes the stage call), which
        // costs no further clock read.
        let mut engine_from = clock;
        nat.stage_burst(headers, &mut clock);

        // Walk the window bucket by bucket: translate, commit, reply.
        let mut deferred = pending.drain(..);
        let mut translated = 0;
        for (at_ms, n_pending, n_headers) in buckets.drain(..) {
            let now = SimTime::from_millis(at_ms);
            let bucket = &mut headers[translated..translated + n_headers];
            translated += n_headers;
            nat.translate_staged(bucket, now, verdicts, &mut clock);
            nat.phase_span(Phase::Translate, engine_from, clock);
            #[cfg(test)]
            st.tally(verdicts);

            // Commit, in event order. Forwarded packets whose flow the
            // reply hash selects queue an inbound reply to the mapping's
            // external endpoint (the translated header's source).
            let mut verdict = verdicts.drain(..).zip(bucket.iter());
            for p in deferred.by_ref().take(n_pending) {
                match p {
                    Pending::Arrival {
                        idx,
                        next_arrival,
                        src,
                        end_ms,
                        refresh_ms,
                    } => {
                        if let Some(at) = next_arrival {
                            st.push(at, Kind::Arrival { idx });
                        }
                        match verdict.next().expect("one verdict per packet") {
                            (HeaderVerdict::Drop(_), _) => {
                                // Port/chunk exhaustion or the per-subscriber
                                // session limit; the shard's stats record which.
                                st.flows_blocked += 1;
                            }
                            (HeaderVerdict::Hairpin, _) => {
                                unreachable!("no destination universe reaches the pool")
                            }
                            (HeaderVerdict::Forward, t) => {
                                let (dst, udp) = (t.dst, t.flags.is_none());
                                if reply_due(seed, reply_permille, at_ms, src, dst) {
                                    replies.push(reply_to(t));
                                }
                                let flow = st.flows.insert(FlowState {
                                    src,
                                    dst,
                                    udp,
                                    end_ms,
                                    refresh_ms,
                                });
                                let next = at_ms + refresh_ms;
                                if next < end_ms.min(horizon_ms) {
                                    st.push(next, Kind::Packet { flow });
                                } else if end_ms <= horizon_ms {
                                    st.push(end_ms, Kind::End { flow });
                                }
                            }
                        }
                    }
                    Pending::Packet {
                        flow,
                        end_ms,
                        refresh_ms,
                    } => {
                        match verdict.next().expect("one verdict per packet") {
                            (HeaderVerdict::Drop(_), _) => {
                                // Keepalive failed (e.g. port space gone after
                                // an expiry); the flow dies here.
                                st.flows.remove(flow);
                                continue;
                            }
                            (HeaderVerdict::Forward, t) => {
                                let f = st.flows.get(flow).expect(LIVE_FLOW);
                                if reply_due(seed, reply_permille, at_ms, f.src, f.dst) {
                                    replies.push(reply_to(t));
                                }
                            }
                            (HeaderVerdict::Hairpin, _) => {}
                        }
                        let next = at_ms + refresh_ms;
                        if next < end_ms.min(horizon_ms) {
                            st.push(next, Kind::Packet { flow });
                        } else if end_ms <= horizon_ms {
                            st.push(end_ms, Kind::End { flow });
                        }
                    }
                    Pending::EndTcp { flow } => {
                        let _ = verdict.next().expect("one verdict per packet");
                        st.flows.remove(flow);
                        st.flows_completed += 1;
                    }
                    Pending::EndUdp { flow } => {
                        st.flows.remove(flow);
                        st.flows_completed += 1;
                    }
                }
            }
            debug_assert!(verdict.next().is_none(), "every verdict consumed");
            drop(verdict);
            nat.phase_lap(&mut clock, Phase::Commit);

            // Inbound-reply leg: answer the bucket's selected flows at
            // the same instant through the engine's inbound burst
            // halves. A bucket's replies are too few to overlap
            // anything (their rows are hot from the outbound translate
            // a moment ago); the halves are used because they take
            // borrowed scratch, so the leg allocates nothing and still
            // fires the inbound burst instruments. The verdicts are
            // accounted by the engine's own counters
            // (`NatStats::in_packets` and the drop breakdown).
            if !replies.is_empty() {
                engine_from = clock;
                nat.stage_inbound_burst(replies, &mut clock);
                nat.translate_inbound_staged(replies, now, verdicts, &mut clock);
                #[cfg(test)]
                st.tally(verdicts);
                verdicts.clear();
                replies.clear();
                nat.phase_span(Phase::Inbound, engine_from, clock);
            }
            engine_from = clock;
        }
        headers.clear();
    }
    st.scratch = scratch;

    let now = SimTime::from_millis(boundary_ms);
    if do_sweep {
        nat.sweep(now);
    }
    if do_sample {
        let mut clock = nat.phase_clock();
        // Dense slab pass in host-interning order — no per-host hash
        // map; the merge sorts the distribution anyway.
        let ports: Vec<u32> = nat.active_ports_per_host(now);
        let worst = nat
            .port_occupancy()
            .iter()
            .map(|o| o.utilization())
            .fold(0.0, f64::max);
        nat.phase_lap(&mut clock, Phase::Sample);
        Some(ShardDemand {
            ports,
            worst_ip_utilization: worst,
            drops_port_exhausted: nat.stats().drop_port_exhausted,
            drops_session_limit: nat.stats().drop_session_limit,
        })
    } else {
        None
    }
}

/// Run `f` over every (shard NAT, shard driver state) pair, on up to
/// `threads` scoped worker threads — a thin zip over the engine's
/// [`scatter`] primitive, which returns results in shard order.
fn for_shards_parallel<R, F>(
    nats: &mut [Nat],
    states: &mut [ShardState],
    threads: usize,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Nat, &mut ShardState) -> R + Sync,
{
    debug_assert_eq!(nats.len(), states.len());
    let work: Vec<(&mut Nat, &mut ShardState)> = nats.iter_mut().zip(states.iter_mut()).collect();
    scatter(work, threads, |(nat, st)| f(nat, st))
}

/// Run one workload against a freshly-built sharded CGN.
pub fn run(config: &DriverConfig) -> RunSummary {
    run_with_logs(config).0
}

/// [`run`], additionally returning the per-shard traceability logs
/// (empty when [`DriverConfig::telemetry`] is `Off`) — the input to
/// `cgn_telemetry::TraceIndex` queries.
pub fn run_with_logs(config: &DriverConfig) -> (RunSummary, Vec<EventLog>) {
    let mut session = DriverSession::new(config);
    while session.step().is_some() {}
    session.finish()
}

impl MetricsWindow {
    /// Distill one closed [`Window`] of the merged snapshot series
    /// into the operator-facing row: delta scalars for counters,
    /// closing cumulative scalars for gauges. `width_secs` is the
    /// aggregation width (rates), `shards` the run's shard count
    /// (per-window skew).
    pub fn from_window(win: &Window, shards: u16, width_secs: u64) -> MetricsWindow {
        let d = &win.delta;
        let c = &win.cumulative;
        let shard_flows: Vec<u64> = (0..shards as usize)
            .map(|i| d.scalar(&format!("cgn_shard_flows_total{{shard=\"{i}\"}}")))
            .collect();
        let flows_started = d.scalar("cgn_flows_started_total");
        MetricsWindow {
            start_secs: win.start_secs,
            end_secs: win.end_secs,
            flows_started,
            flows_per_sec: flows_started as f64 / width_secs.max(1) as f64,
            mappings_created: d.scalar("cgn_mappings_created_total"),
            mappings_expired: d.scalar("cgn_mappings_expired_total"),
            mappings_live: c.scalar("cgn_mappings_live"),
            allocator_fill_permille_worst: c.scalar("cgn_allocator_fill_permille_worst"),
            event_wheel_depth: c.scalar("cgn_event_wheel_depth"),
            arena_chunks: c.scalar("cgn_arena_chunks"),
            shard_flow_imbalance: max_over_mean(&shard_flows),
            drops: d.scalar("cgn_flows_rejected_total{reason=\"port-exhausted\"}")
                + d.scalar("cgn_flows_rejected_total{reason=\"session-limit\"}"),
        }
    }
}

/// One liveness cross-section of a running [`DriverSession`] — the
/// payload an operator endpoint (`/healthz`) serves: simulated
/// progress, the driver's own flow/backlog counters, and the merged
/// slab/arena/timer occupancy of every shard store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionHealth {
    /// Simulated seconds processed so far (last completed barrier).
    pub now_secs: u64,
    /// Simulated seconds the session will run in total.
    pub horizon_secs: u64,
    pub flows_started: u64,
    pub flows_blocked: u64,
    pub flows_completed: u64,
    pub packets_sent: u64,
    /// Outstanding driver events across every shard's wheel.
    pub event_wheel_depth: u64,
    /// Slab/arena/interner/timer occupancy summed across shards.
    pub store: StoreOccupancy,
    /// Metrics windows currently resident in the ring.
    pub windows_retained: usize,
    /// Metrics windows evicted or drained so far.
    pub windows_evicted: u64,
}

/// An epoch-resumable driver run: the exact event loop of [`run`],
/// split at its barrier boundaries so a long-lived caller (the
/// `cgn-opsd` soak daemon) can advance simulated time one epoch at a
/// time and, between epochs, stream closed metrics windows out
/// ([`drain_closed_windows`](DriverSession::drain_closed_windows)),
/// publish the merged snapshot to a scrape endpoint, and evaluate
/// leak gates against [`health`](DriverSession::health).
///
/// `run_with_logs(cfg)` is literally `DriverSession::new(cfg)` +
/// `step()` to exhaustion + `finish()`, so a stepped session is
/// bit-identical to a batch run for every thread count and burst
/// size — stepping is an execution detail like `threads`.
pub struct DriverSession {
    config: DriverConfig,
    threads: usize,
    burst: usize,
    horizon_ms: u64,
    sharded: ShardedNat,
    states: Vec<ShardState>,
    /// Epoch barriers in time order: `(boundary_ms, (sweep, sample))`.
    ticks: Vec<(u64, (bool, bool))>,
    next_tick: usize,
    now_ms: u64,
    series: DemandSeries,
    peak_live: u64,
    peak_dist: Vec<u32>,
    metrics_on: bool,
    window_secs: u64,
    windows: WindowSeries,
    prev_shard_flows: Vec<u64>,
    prev_sample_secs: u64,
    worst_window_imbalance: f64,
    worst_window_start: u64,
}

impl DriverSession {
    /// Build the sharded CGN, admit every subscriber, and lay out the
    /// epoch barriers — everything [`run`] does before its first event
    /// is drained.
    pub fn new(config: &DriverConfig) -> DriverSession {
        assert!(config.subscribers > 0, "need at least one subscriber");
        assert!(config.shards > 0, "need at least one shard");
        assert!(
            config.external_ips_per_shard >= 1 && config.external_ips_per_shard <= 256,
            "pool addressing assigns each shard a /24-sized stride: \
             external_ips_per_shard must be in 1..=256"
        );
        assert!(config.duration_secs > 0 && config.sample_secs > 0 && config.sweep_secs > 0);

        let threads = resolve_threads(config.threads);
        let burst = if config.burst == 0 {
            DEFAULT_BURST
        } else {
            config.burst
        };
        let horizon_ms = config.duration_secs * 1000;

        // k-major ordering + round-robin partitioning inside ShardedNat
        // puts pool_ip(s, k) into shard s for all k.
        let mut pool: Vec<Ipv4Addr> = Vec::new();
        for k in 0..config.external_ips_per_shard {
            for s in 0..config.shards {
                pool.push(pool_ip(s, k));
            }
        }
        let mut sharded = ShardedNat::new(config.nat.clone(), pool, config.shards, config.seed);
        if config.telemetry != TelemetryMode::Off {
            sharded.set_sinks(
                (0..config.shards)
                    .map(|_| Box::new(BinaryLogSink::new(config.telemetry)) as _)
                    .collect(),
            );
        }
        let metrics_on = config.metrics_window_secs.is_some();
        if metrics_on {
            sharded.set_metrics(
                (0..config.shards)
                    .map(|_| Box::<EngineMetrics>::default())
                    .collect(),
            );
        }
        if config.trace.enabled() {
            sharded.set_tracers(
                (0..config.shards)
                    .map(|s| Box::new(ShardTracer::new(s as u32, &config.trace)))
                    .collect(),
            );
        }

        // Admit every subscriber to its shard with a fresh RNG stream
        // and a staggered first arrival.
        let mut states: Vec<ShardState> = (0..config.shards).map(|_| ShardState::new()).collect();
        for sub in 0..config.subscribers {
            let shard = sharded.shard_of(subscriber_ip(sub));
            let mut rng = StdRng::seed_from_u64(mix64(config.seed ^ mix64(sub as u64 + 1)));
            let offset = rng.gen_range(0..1000u64);
            let st = &mut states[shard];
            let idx = u32::try_from(st.subs.len()).expect("subscriber index fits u32");
            st.subs.push(SubState {
                sub,
                rng,
                profile: config.mix.assign(sub),
                next_src_port: 0,
            });
            st.push(offset, Kind::Arrival { idx });
        }

        // Epoch barriers: the union of sweep and sample ticks, plus the
        // horizon so the final epoch drains every remaining event.
        let mut ticks: BTreeMap<u64, (bool, bool)> = BTreeMap::new();
        let mut t = config.sweep_secs * 1000;
        while t <= horizon_ms {
            ticks.entry(t).or_insert((false, false)).0 = true;
            t += config.sweep_secs * 1000;
        }
        let mut t = config.sample_secs * 1000;
        while t <= horizon_ms {
            ticks.entry(t).or_insert((false, false)).1 = true;
            t += config.sample_secs * 1000;
        }
        // The horizon is always a full barrier: drain every remaining
        // event, sweep, and take the closing sample — exactly once,
        // even when it coincides with a periodic tick.
        ticks.insert(horizon_ms, (true, true));

        // Per-window shard-skew tracking (always on — a handful of
        // counter reads per barrier) and the metrics window ring (only
        // fed when registries are installed). The ring is bounded:
        // eviction keeps the telescoping anchor, so an always-on
        // session is flat-memory regardless of simulated length.
        let window_secs = config
            .metrics_window_secs
            .unwrap_or(config.sample_secs)
            .max(1);

        DriverSession {
            threads,
            burst,
            horizon_ms,
            sharded,
            states,
            ticks: ticks.into_iter().collect(),
            next_tick: 0,
            now_ms: 0,
            series: DemandSeries::default(),
            peak_live: 0,
            peak_dist: Vec::new(),
            metrics_on,
            window_secs,
            windows: WindowSeries::new(window_secs, METRICS_RETENTION),
            prev_shard_flows: vec![0; config.shards as usize],
            prev_sample_secs: 0,
            worst_window_imbalance: 0.0,
            worst_window_start: 0,
            config: config.clone(),
        }
    }

    /// The configuration this session was built from.
    pub fn config(&self) -> &DriverConfig {
        &self.config
    }

    /// Simulated seconds processed so far (last completed barrier).
    pub fn now_secs(&self) -> u64 {
        self.now_ms / 1000
    }

    /// Simulated seconds the session covers in total.
    pub fn horizon_secs(&self) -> u64 {
        self.horizon_ms / 1000
    }

    /// Metrics aggregation window width in sim-seconds.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// Advance every shard through the next epoch barrier (drain
    /// events, then sweep and/or sample). Returns the barrier's
    /// sim-time in seconds, or `None` once the horizon barrier has
    /// run and the session is complete.
    pub fn step(&mut self) -> Option<u64> {
        let &(boundary, (do_sweep, do_sample)) = self.ticks.get(self.next_tick)?;
        self.next_tick += 1;
        self.barrier(boundary, do_sweep, do_sample);
        self.now_ms = boundary;
        Some(boundary / 1000)
    }

    fn barrier(&mut self, boundary: u64, do_sweep: bool, do_sample: bool) {
        let DriverSession {
            config,
            threads,
            burst,
            horizon_ms,
            sharded,
            states,
            series,
            peak_live,
            peak_dist,
            metrics_on,
            windows,
            prev_shard_flows,
            prev_sample_secs,
            worst_window_imbalance,
            worst_window_start,
            ..
        } = self;
        let modulation = &config.modulation;
        let horizon_ms = *horizon_ms;
        let step = AdvanceStep {
            boundary_ms: boundary,
            burst: *burst,
            reply_permille: config.inbound_reply_permille,
            seed: config.seed,
            do_sweep,
            do_sample,
        };
        let demands = for_shards_parallel(sharded.shards_mut(), states, *threads, |nat, st| {
            advance_shard(nat, st, modulation, horizon_ms, step)
        });
        if do_sample {
            let parts: Vec<ShardDemand> = demands.into_iter().flatten().collect();
            let (sample, dist) =
                port_demand::merge_shard_demand(boundary / 1000, config.subscribers as u64, &parts);
            if sample.mappings > *peak_live {
                *peak_live = sample.mappings;
                *peak_dist = dist;
            }
            series.push(sample);

            // Shard skew of this inter-barrier window: flow starts per
            // shard since the previous sample.
            let now_flows: Vec<u64> = states.iter().map(|st| st.flows_started).collect();
            let deltas: Vec<u64> = now_flows
                .iter()
                .zip(prev_shard_flows.iter())
                .map(|(now, prev)| now - prev)
                .collect();
            let imbalance = max_over_mean(&deltas);
            if imbalance > *worst_window_imbalance {
                *worst_window_imbalance = imbalance;
                *worst_window_start = *prev_sample_secs;
            }
            *prev_shard_flows = now_flows;
            *prev_sample_secs = boundary / 1000;

            if *metrics_on {
                // Engine instruments merged in shard order, then the
                // driver's own counters and backlog gauges on top.
                let mut snap = sharded.metrics_snapshot().unwrap_or_default();
                for (i, st) in states.iter().enumerate() {
                    snap.push(
                        format!("cgn_shard_flows_total{{shard=\"{i}\"}}"),
                        Value::Counter(st.flows_started),
                    );
                }
                let t = ShardTotals::of(states);
                snap.push("cgn_flows_started_total", Value::Counter(t.flows_started));
                snap.push("cgn_flows_blocked_total", Value::Counter(t.flows_blocked));
                snap.push(
                    "cgn_flows_completed_total",
                    Value::Counter(t.flows_completed),
                );
                snap.push("cgn_packets_sent_total", Value::Counter(t.packets_sent));
                snap.push("cgn_event_wheel_depth", Value::Gauge(t.wheel_depth));
                snap.normalize();
                windows.push(boundary / 1000, snap);
            }
        }
    }

    /// The most recent merged cumulative snapshot (engine instruments
    /// plus driver counters), if a sample barrier has run with
    /// metrics installed — what a scrape endpoint renders.
    pub fn latest_snapshot(&self) -> Option<&Snapshot> {
        self.windows.latest()
    }

    /// Take every closed metrics window out of the ring, oldest first
    /// (`cgn_metrics::WindowSeries::drain_closed`): the streaming API.
    /// A caller that drains after each epoch keeps the resident ring
    /// at ≤ 2 windows regardless of run length; windows left undrained
    /// still appear in [`finish`](DriverSession::finish)'s
    /// [`MetricsSummary`].
    pub fn drain_closed_windows(&mut self) -> Vec<Window> {
        self.windows.drain_closed()
    }

    /// Metrics windows evicted or drained so far.
    pub fn windows_evicted(&self) -> u64 {
        self.windows.evicted_windows()
    }

    /// Convert a window taken from
    /// [`drain_closed_windows`](DriverSession::drain_closed_windows)
    /// into the operator-facing row.
    pub fn metrics_row(&self, win: &Window) -> MetricsWindow {
        MetricsWindow::from_window(win, self.config.shards, self.window_secs)
    }

    /// A liveness cross-section for an operator endpoint: simulated
    /// progress, driver counters, backlog, and the merged
    /// slab/arena/timer store occupancy.
    pub fn health(&self) -> SessionHealth {
        let t = ShardTotals::of(&self.states);
        SessionHealth {
            now_secs: self.now_secs(),
            horizon_secs: self.horizon_secs(),
            flows_started: t.flows_started,
            flows_blocked: t.flows_blocked,
            flows_completed: t.flows_completed,
            packets_sent: t.packets_sent,
            event_wheel_depth: t.wheel_depth,
            store: self.sharded.store_occupancy(),
            windows_retained: self.windows.windows.len(),
            windows_evicted: self.windows.evicted_windows(),
        }
    }

    /// Install one [`EventSink`] per shard (shard order, one entry per
    /// shard). Meant for long-running operators that route event logs
    /// to external sinks (e.g. `cgn_telemetry::RotatingFileSink`)
    /// while `config.telemetry` is
    /// [`TelemetryMode::Off`] — [`finish`](DriverSession::finish) only
    /// recovers sinks it installed itself, so external sinks must be
    /// taken back with
    /// [`take_event_sinks`](DriverSession::take_event_sinks) before
    /// finishing.
    pub fn install_event_sinks(&mut self, sinks: Vec<Box<dyn EventSink>>) {
        self.sharded.set_sinks(sinks);
    }

    /// Remove and return the per-shard event sinks (shard order).
    pub fn take_event_sinks(&mut self) -> Vec<Option<Box<dyn EventSink>>> {
        self.sharded.take_sinks()
    }

    /// Fleet-wide wall-clock phase profile, merged across shard
    /// tracers (`None` unless [`DriverConfig::trace`] profiles
    /// phases). Annotation layer only: render it into a published
    /// exposition with [`cgn_trace::PhaseProfiler::render_into`] —
    /// never into the deterministic windowed snapshots or
    /// [`RunSummary`].
    pub fn phase_profile(&self) -> Option<PhaseProfiler> {
        self.sharded.phase_profile()
    }

    /// Merged flight-recorder dump across shards (`None` unless
    /// [`DriverConfig::trace`] samples flows). Sim-time-stamped and
    /// `(shard, seq)`-ordered, so the dump — unlike the phase
    /// profile — is a deterministic function of the run; feed it to
    /// [`cgn_trace::chrome_trace_json`]. Callable at any barrier
    /// (the `/trace` endpoint) or after the last one.
    pub fn trace_dump(&self) -> Option<TraceDump> {
        self.sharded.trace_dump()
    }

    /// Assemble the [`RunSummary`] and recover the per-shard logs —
    /// everything [`run_with_logs`] does after its last barrier.
    /// Callable at any point; summaries of a finished session are
    /// bit-identical to the batch path's.
    pub fn finish(self) -> (RunSummary, Vec<EventLog>) {
        let DriverSession {
            config,
            sharded,
            states,
            series,
            peak_dist,
            windows,
            worst_window_imbalance,
            worst_window_start,
            ..
        } = self;
        let mut sharded = sharded;

        let totals = ShardTotals::of(&states);
        // Recover the per-shard logs (shard order) before reading stats.
        let logs: Vec<EventLog> = if config.telemetry != TelemetryMode::Off {
            sharded
                .take_sinks()
                .into_iter()
                .map(|sink| {
                    sink.and_then(BinaryLogSink::from_sink)
                        .map(BinaryLogSink::into_log)
                        .unwrap_or_default()
                })
                .collect()
        } else {
            Vec::new()
        };
        let telemetry = TelemetrySummary::from_logs(
            config.telemetry,
            &logs,
            config.subscribers as u64,
            config.duration_secs,
        );

        let stats = sharded.merged_stats();
        let store = sharded.store_occupancy();
        let shard_load = ShardLoad::from_per_shard(
            states.iter().map(|st| st.flows_started).collect(),
            sharded
                .shards()
                .iter()
                .map(|s| s.stats().peak_mappings)
                .collect(),
        )
        .with_worst_window(worst_window_imbalance, worst_window_start);

        let metrics = config.metrics_window_secs.map(|w| {
            let w = w.max(1);
            let rows: Vec<MetricsWindow> = windows
                .windows
                .iter()
                .map(|win| MetricsWindow::from_window(win, config.shards, w))
                .collect();
            let (worst_imb, worst_start) = rows
                .iter()
                .map(|r| (r.shard_flow_imbalance, r.start_secs))
                .fold((0.0f64, 0u64), |acc, x| if x.0 > acc.0 { x } else { acc });
            MetricsSummary {
                window_secs: w,
                last: windows.latest().cloned().unwrap_or_default(),
                worst_window_flow_imbalance: worst_imb,
                worst_window_start_secs: worst_start,
                windows: rows,
            }
        });

        let external_ips = config.shards as u64 * config.external_ips_per_shard as u64;
        let usable_ports_per_ip = (config.nat.port_range.1 - config.nat.port_range.0) as u32 + 1;
        let report = port_demand::build_report(
            &series,
            &peak_dist,
            config.subscribers as u64,
            external_ips,
            usable_ports_per_ip,
        );

        let summary = RunSummary {
            mix_name: config.mix.name.clone(),
            subscribers: config.subscribers,
            shards: config.shards,
            duration_secs: config.duration_secs,
            flows_started: totals.flows_started,
            flows_blocked: totals.flows_blocked,
            flows_completed: totals.flows_completed,
            packets_sent: totals.packets_sent,
            stats,
            store,
            shard_load,
            telemetry,
            metrics,
            series,
            peak_ports_per_subscriber: peak_dist,
            report,
        };
        (summary, logs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::{DiurnalCurve, FlashCrowd};
    use netcore::SimDuration;
    use proptest::prelude::*;

    fn small(mix: WorkloadMix, seed: u64) -> DriverConfig {
        DriverConfig {
            subscribers: 300,
            shards: 2,
            external_ips_per_shard: 2,
            duration_secs: 240,
            sample_secs: 30,
            sweep_secs: 20,
            ..DriverConfig::new(mix, seed)
        }
    }

    #[test]
    fn run_produces_flows_and_samples() {
        let s = run(&small(WorkloadMix::residential_evening(), 7));
        assert!(s.flows_started > 1_000, "started {}", s.flows_started);
        assert!(s.packets_sent > s.flows_started);
        assert!(!s.series.is_empty());
        assert!(s.stats.mappings_created > 0);
        assert!(s.stats.peak_mappings > 0);
        assert!(s.stats.sweeps > 0, "sweep barriers must run");
        assert!(s.report.peak_mappings > 0);
        assert_eq!(s.report.subscribers, 300);
        assert!(s.store.slots > 0, "slab arena must have been used");
        assert_eq!(s.store.live + s.store.free, s.store.slots);
        assert!(s.store.hosts_interned > 0 && s.store.pools_interned > 0);
        assert_eq!(s.shard_load.flows_per_shard.len(), 2);
        assert_eq!(
            s.shard_load.flows_per_shard.iter().sum::<u64>(),
            s.flows_started
        );
        assert!(s.shard_load.flow_imbalance >= 1.0);
        assert!(s.shard_load.mapping_imbalance >= 1.0);
        assert!(
            s.series
                .samples
                .windows(2)
                .all(|w| w[0].t_secs < w[1].t_secs),
            "exactly one sample per barrier, even at the horizon"
        );
    }

    #[test]
    fn same_seed_same_summary() {
        let a = run(&small(WorkloadMix::p2p_heavy(), 42));
        let b = run(&small(WorkloadMix::p2p_heavy(), 42));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&small(WorkloadMix::p2p_heavy(), 1));
        let b = run(&small(WorkloadMix::p2p_heavy(), 2));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn parallel_matches_sequential() {
        // The determinism cross-check: worker threads are an execution
        // detail, the summary is bit-identical for every thread count.
        let mut cfg = small(WorkloadMix::residential_evening(), 21);
        cfg.shards = 4;
        cfg.threads = 1;
        let seq = run(&cfg);
        for threads in [2, 4, 7] {
            cfg.threads = threads;
            let par = run(&cfg);
            assert_eq!(seq, par, "threads={threads} diverged from sequential");
            assert_eq!(seq.digest(), par.digest());
        }
    }

    /// Stepping a [`DriverSession`] epoch by epoch while draining the
    /// window stream is an execution detail like `threads`: the
    /// streamed rows plus the retained tail reproduce the batch run's
    /// rows exactly, and every non-windowed summary field is
    /// bit-identical.
    #[test]
    fn stepped_session_with_streaming_drain_matches_batch_run() {
        let mut cfg = small(WorkloadMix::residential_evening(), 33);
        cfg.metrics_window_secs = Some(30);
        let batch = run(&cfg);

        let mut session = DriverSession::new(&cfg);
        let mut streamed: Vec<MetricsWindow> = Vec::new();
        let mut epochs = 0;
        while session.step().is_some() {
            epochs += 1;
            for w in session.drain_closed_windows() {
                streamed.push(session.metrics_row(&w));
            }
            assert!(
                session.health().windows_retained <= 2,
                "draining after every epoch keeps the ring flat"
            );
        }
        assert!(epochs > 4, "multiple barriers stepped");
        assert!(!streamed.is_empty(), "windows closed mid-run");

        let health = session.health();
        assert_eq!(health.now_secs, cfg.duration_secs);
        assert_eq!(health.windows_evicted, streamed.len() as u64);
        assert_eq!(health.store.live + health.store.free, health.store.slots);

        let (finished, _) = session.finish();
        let batch_rows = &batch.metrics.as_ref().expect("metrics on").windows;
        let mut all = streamed;
        all.extend(
            finished
                .metrics
                .as_ref()
                .expect("metrics on")
                .windows
                .clone(),
        );
        assert_eq!(&all, batch_rows, "stream + tail == batch rows");
        assert_eq!(
            finished.metrics.as_ref().unwrap().last,
            batch.metrics.as_ref().unwrap().last,
            "closing cumulative snapshot unaffected by draining"
        );
        assert_eq!(batch.flows_started, finished.flows_started);
        assert_eq!(batch.stats, finished.stats);
        assert_eq!(batch.store, finished.store);
        assert_eq!(batch.series, finished.series);
        assert_eq!(batch.report, finished.report);
    }

    /// The burst size, like the thread count, is an execution detail:
    /// summaries and telemetry logs are bit-identical for every value
    /// (burst = 1 is the packet-at-a-time degenerate case).
    #[test]
    fn burst_sizes_bit_identical() {
        let mut cfg = small(WorkloadMix::residential_evening(), 17);
        cfg.shards = 3;
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::PerConnection;
        cfg.burst = 1;
        let (base, base_logs) = run_with_logs(&cfg);
        for burst in [7, 32, 64, 1024] {
            cfg.burst = burst;
            let (s, logs) = run_with_logs(&cfg);
            assert_eq!(base, s, "burst={burst} diverged");
            assert_eq!(base.digest(), s.digest());
            for (shard, (a, b)) in base_logs.iter().zip(&logs).enumerate() {
                assert_eq!(
                    a.bytes(),
                    b.bytes(),
                    "shard {shard} log diverged at burst={burst}"
                );
            }
        }
        // And the default (burst = 0 → DEFAULT_BURST) matches too.
        cfg.burst = 0;
        assert_eq!(base, run_with_logs(&cfg).0);
    }

    /// A configuration whose windows hold `Drop` verdicts and whose
    /// commits push 1–2 ms ahead: 48 ports per address and twelve
    /// sessions per host (both limits bite), timeouts shorter than the
    /// keepalive interval (a keepalive finds its mapping expired and
    /// may be refused a new one), a reply leg, a flash crowd that
    /// lifts web subscribers to ~500 flows/s (next arrival a
    /// millisecond or two out, so the window limit closes in), and a
    /// mix that is mostly TCP with ~12 s flows, so FIN teardowns share
    /// windows with the flood.
    fn hostile(seed: u64) -> DriverConfig {
        let mut cfg = small(WorkloadMix::residential_evening(), seed);
        cfg.subscribers = 120;
        cfg.shards = 3;
        cfg.duration_secs = 60;
        cfg.sample_secs = 20;
        cfg.sweep_secs = 15;
        cfg.nat.port_range = (1024, 1024 + 47);
        cfg.nat.max_sessions_per_host = Some(12);
        cfg.nat.udp_timeout = SimDuration::from_secs(4);
        cfg.nat.tcp_transitory_timeout = SimDuration::from_secs(4);
        cfg.nat.tcp_established_timeout = SimDuration::from_secs(8);
        cfg.inbound_reply_permille = 250;
        cfg.modulation.flash = Some(FlashCrowd::new(20, 23, 5_000.0));
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::PerConnection;
        cfg
    }

    /// The window rule where commits depend on verdicts: what a commit
    /// pushes (nothing after a `Drop`, a keepalive or teardown after a
    /// `Forward`) is only known after translate, the limit is computed
    /// before it. Every burst size and thread count must reproduce
    /// burst 1 — one bucket per window — bit for bit.
    #[test]
    fn windows_holding_drops_match_one_bucket_at_a_time() {
        let mut cfg = hostile(29);
        cfg.burst = 1;
        cfg.threads = 1;
        let (base, base_logs) = run_with_logs(&cfg);
        assert!(base.stats.drop_session_limit > 0, "session limit must bite");
        assert!(base.stats.drop_port_exhausted > 0, "port range must bite");
        assert!(base.flows_blocked > 1_000, "the flood is refused in bulk");
        assert!(
            base.stats.drops > base.flows_blocked,
            "keepalives were refused too, not only first packets"
        );
        assert!(base.flows_completed > 0, "teardowns ran");
        assert!(base.stats.in_packets > 0, "reply leg ran");
        for burst in [2, 7, 32, 1024] {
            for threads in [1, 2, 4] {
                cfg.burst = burst;
                cfg.threads = threads;
                let (s, logs) = run_with_logs(&cfg);
                assert_eq!(base, s, "burst={burst} threads={threads} diverged");
                assert_eq!(base.digest(), s.digest());
                for (shard, (a, b)) in base_logs.iter().zip(&logs).enumerate() {
                    assert_eq!(
                        a.bytes(),
                        b.bytes(),
                        "shard {shard} log diverged at burst={burst} threads={threads}"
                    );
                }
            }
        }
    }

    /// The series that shows whether the burst pipeline is fed: at a
    /// shape whose millisecond buckets hold two or three packets, a
    /// burst must still carry at least half of `DEFAULT_BURST` on
    /// average (a driver that hands the engine one bucket at a time
    /// reads 2.4 here).
    #[test]
    fn sparse_buckets_still_fill_bursts() {
        let mut cfg = DriverConfig::new(WorkloadMix::residential_evening(), 5);
        cfg.subscribers = 4_000;
        cfg.duration_secs = 60;
        cfg.sample_secs = 30;
        cfg.metrics_window_secs = Some(30);
        cfg.inbound_reply_permille = 250;
        let s = run(&cfg);
        let per_ms = s.packets_sent as f64 / (cfg.duration_secs * 1000) as f64;
        assert!(
            per_ms < 3.0,
            "shape check: {per_ms:.2} packets per millisecond is a sparse bucket"
        );
        let last = &s.metrics.as_ref().expect("registries installed").last;
        let fill = |name: &str| match last.get(name) {
            Some(Value::Histogram(h)) => h.sum as f64 / h.count.max(1) as f64,
            other => panic!("{name}: expected a histogram, got {other:?}"),
        };
        let outbound = fill("cgn_burst_fill");
        assert!(
            outbound >= DEFAULT_BURST as f64 / 2.0,
            "mean outbound burst fill {outbound:.1} with {per_ms:.2} packets per millisecond"
        );
        // The reply leg answers bucket by bucket, so its bursts are
        // small by design — but the series must not sit at zero.
        assert_eq!(
            last.scalar("cgn_inbound_bursts_total") > 0,
            s.stats.in_packets > 0
        );
        assert!(fill("cgn_inbound_burst_fill") >= 1.0);
    }

    /// The inbound-reply leg: off by default (no inbound packets, no
    /// digest change), and when on it drives the engine's inbound
    /// path while staying bit-identical across burst sizes and
    /// worker-thread counts.
    #[test]
    fn inbound_reply_leg_is_deterministic() {
        let mut cfg = small(WorkloadMix::residential_evening(), 23);
        cfg.shards = 3;
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::PerConnection;
        let (off, _) = run_with_logs(&cfg);
        assert_eq!(off.stats.in_packets, 0, "leg disabled by default");

        cfg.inbound_reply_permille = 250;
        cfg.burst = 1;
        cfg.threads = 1;
        let (base, base_logs) = run_with_logs(&cfg);
        assert!(base.stats.in_packets > 0, "selected flows must see replies");
        assert!(
            base.stats.in_packets < base.packets_sent,
            "a fraction, not an echo of every packet"
        );
        // Replies land on live mappings from previously-contacted
        // peers: none may be dropped as unmapped or filtered.
        assert_eq!(base.stats.drop_no_mapping, 0);
        assert_eq!(base.stats.drop_filtered, 0);
        // Outbound-side outcomes are untouched by the extra leg.
        assert_eq!(off.flows_started, base.flows_started);
        assert_eq!(off.packets_sent, base.packets_sent);
        for (burst, threads) in [(7, 2), (64, 4), (0, 3)] {
            cfg.burst = burst;
            cfg.threads = threads;
            let (s, logs) = run_with_logs(&cfg);
            assert_eq!(base, s, "burst={burst} threads={threads} diverged");
            assert_eq!(base.digest(), s.digest());
            for (shard, (a, b)) in base_logs.iter().zip(&logs).enumerate() {
                assert_eq!(
                    a.bytes(),
                    b.bytes(),
                    "shard {shard} log diverged at burst={burst} threads={threads}"
                );
            }
        }
    }

    impl ShardState {
        pub(super) fn tally(&mut self, verdicts: &[HeaderVerdict]) {
            for v in verdicts {
                self.verdicts[match v {
                    HeaderVerdict::Forward => 0,
                    HeaderVerdict::Hairpin => 1,
                    HeaderVerdict::Drop(_) => 2,
                }] += 1;
            }
        }
    }

    /// The conservation law at every barrier: each packet the driver
    /// handed the engine, outbound or inbound, came back as exactly one
    /// header verdict, and each drop carries exactly one counted reason.
    #[test]
    fn every_packet_is_one_verdict_at_every_barrier() {
        let mut cfg = small(WorkloadMix::residential_evening(), 13);
        cfg.inbound_reply_permille = 250;
        let mut session = DriverSession::new(&cfg);
        let mut barriers = 0;
        while session.step().is_some() {
            barriers += 1;
            let s = session.sharded.merged_stats();
            let [forwarded, hairpins, drops] = session
                .states
                .iter()
                .fold([0; 3], |acc, st| [0, 1, 2].map(|k| acc[k] + st.verdicts[k]));
            assert_eq!(s.out_packets + s.in_packets, forwarded + hairpins + drops);
            assert_eq!((s.hairpins, s.drops), (hairpins, drops));
            assert_eq!(
                s.drops,
                s.drop_no_mapping
                    + s.drop_filtered
                    + s.drop_port_exhausted
                    + s.drop_session_limit
                    + s.drop_no_hairpin
                    + s.drop_unmatched_icmp
            );
        }
        let s = session.sharded.merged_stats();
        assert!(barriers > 4 && s.in_packets > 0 && s.out_packets > s.in_packets);
    }

    #[test]
    fn auto_threads_match_sequential() {
        let mut cfg = small(WorkloadMix::gaming_event(), 33);
        cfg.shards = 3;
        cfg.threads = 1;
        let seq = run(&cfg);
        cfg.threads = 0; // one worker per available core
        assert_eq!(seq, run(&cfg));
    }

    #[test]
    fn p2p_demands_more_ports_than_iot() {
        let p2p = run(&small(WorkloadMix::p2p_heavy(), 9));
        let iot = run(&small(WorkloadMix::iot_fleet(), 9));
        assert!(
            p2p.report.peak_mappings > iot.report.peak_mappings * 3,
            "p2p {} vs iot {}",
            p2p.report.peak_mappings,
            iot.report.peak_mappings
        );
    }

    #[test]
    fn flash_crowd_raises_peak() {
        let mix = WorkloadMix::gaming_event;
        let calm = run(&small(mix(), 5));
        let mut cfg = small(mix(), 5);
        cfg.modulation.flash = Some(FlashCrowd::new(60, 180, 4.0));
        let stormy = run(&cfg);
        assert!(
            stormy.report.peak_mappings as f64 > calm.report.peak_mappings as f64 * 1.5,
            "calm {} stormy {}",
            calm.report.peak_mappings,
            stormy.report.peak_mappings
        );
    }

    #[test]
    fn diurnal_trough_lowers_load() {
        let mix = WorkloadMix::residential_evening;
        // Flat vs. a curve whose trough covers the whole short run.
        let flat = run(&small(mix(), 3));
        let mut cfg = small(mix(), 3);
        cfg.modulation.diurnal = Some(DiurnalCurve {
            day_secs: 86_400,
            amplitude: 0.45,
            // Run [0, 240 s] sits right at the trough.
            peak_phase: 0.5,
        });
        let quiet = run(&cfg);
        assert!(
            (quiet.flows_started as f64) < flat.flows_started as f64 * 0.75,
            "flat {} quiet {}",
            flat.flows_started,
            quiet.flows_started
        );
    }

    #[test]
    fn session_limit_blocks_flows() {
        let mut cfg = small(WorkloadMix::p2p_heavy(), 8);
        cfg.nat.max_sessions_per_host = Some(4);
        let s = run(&cfg);
        assert!(s.flows_blocked > 0, "limit must bite");
        assert!(s.stats.drop_session_limit > 0);
        assert_eq!(
            s.report.drops_session_limit, s.stats.drop_session_limit,
            "report mirrors engine counters"
        );
    }

    #[test]
    fn tiny_port_range_exhausts() {
        let mut cfg = small(WorkloadMix::p2p_heavy(), 8);
        cfg.shards = 1;
        cfg.external_ips_per_shard = 1;
        cfg.nat.port_range = (1024, 1024 + 255);
        let s = run(&cfg);
        assert!(
            s.stats.drop_port_exhausted > 0,
            "256 ports cannot hold p2p load"
        );
        assert!(s.report.worst_ip_utilization > 0.95);
    }

    #[test]
    fn telemetry_off_by_default_and_summary_zero() {
        let cfg = small(WorkloadMix::residential_evening(), 7);
        assert_eq!(cfg.telemetry, nat_engine::telemetry::TelemetryMode::Off);
        let (s, logs) = run_with_logs(&cfg);
        assert!(logs.is_empty());
        assert_eq!(s.telemetry, TelemetrySummary::default());
    }

    #[test]
    fn per_connection_logs_match_engine_counters() {
        let mut cfg = small(WorkloadMix::residential_evening(), 7);
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::PerConnection;
        let (s, logs) = run_with_logs(&cfg);
        assert_eq!(logs.len(), cfg.shards as usize, "one log per shard");
        assert_eq!(
            s.telemetry.records,
            s.stats.mappings_created + s.stats.mappings_expired,
            "every create/expire is one record"
        );
        assert!(s.telemetry.bytes > 0);
        assert!(s.telemetry.bytes_per_subscriber_day > 0.0);
        // The summary is exactly the logs' aggregate.
        assert_eq!(
            s.telemetry.bytes,
            logs.iter().map(|l| l.len_bytes()).sum::<u64>()
        );
        // The telemetry-on run produces the same traffic outcome as
        // the telemetry-off run (observation only).
        let mut off = cfg.clone();
        off.telemetry = nat_engine::telemetry::TelemetryMode::Off;
        let off_run = run(&off);
        assert_eq!(off_run.stats, s.stats);
        assert_eq!(off_run.series, s.series);
    }

    #[test]
    fn block_logs_undercut_connection_logs_on_the_same_workload() {
        let mut cfg = small(WorkloadMix::p2p_heavy(), 5);
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::PerConnection;
        let per_conn = run(&cfg).telemetry;
        cfg.nat.port_alloc = nat_engine::PortAllocation::PortBlock { block_size: 512 };
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::PerBlock;
        let per_block = run(&cfg).telemetry;
        assert!(per_block.records > 0, "block churn must be logged");
        assert!(
            per_block.bytes * 10 < per_conn.bytes,
            "block log ({} B) must be at least 10x smaller than \
             per-connection ({} B)",
            per_block.bytes,
            per_conn.bytes
        );
    }

    #[test]
    fn metrics_summary_tracks_windows_and_instruments() {
        let mut cfg = small(WorkloadMix::residential_evening(), 7);
        cfg.metrics_window_secs = Some(60);
        let s = run(&cfg);
        let m = s.metrics.as_ref().expect("registries installed");
        assert_eq!(m.window_secs, 60);
        assert!(!m.windows.is_empty());
        // Window deltas telescope back to the run totals.
        assert_eq!(
            m.windows.iter().map(|w| w.flows_started).sum::<u64>(),
            s.flows_started
        );
        assert_eq!(m.last.scalar("cgn_flows_started_total"), s.flows_started);
        assert_eq!(
            m.last.scalar("cgn_mappings_created_total"),
            s.stats.mappings_created
        );
        assert_eq!(m.last.scalar("cgn_sweeps_total"), s.stats.sweeps);
        assert!(m.windows.iter().any(|w| w.mappings_live > 0));
        assert!(m.windows.iter().any(|w| w.flows_per_sec > 0.0));
        assert!(
            m.worst_window_flow_imbalance >= 1.0,
            "two shards under load skew at least trivially"
        );
        assert!(
            s.shard_load.worst_window_flow_imbalance >= 1.0,
            "per-window skew reaches the shard-load summary"
        );
        // Observation only: the metrics-off run is otherwise identical.
        let mut off = cfg.clone();
        off.metrics_window_secs = None;
        let off_run = run(&off);
        assert!(off_run.metrics.is_none());
        assert_eq!(off_run.stats, s.stats);
        assert_eq!(off_run.series, s.series);
        assert_eq!(off_run.flows_started, s.flows_started);
    }

    #[test]
    fn metrics_bit_identical_across_thread_counts() {
        let mut cfg = small(WorkloadMix::residential_evening(), 21);
        cfg.shards = 4;
        cfg.metrics_window_secs = Some(30);
        cfg.threads = 1;
        let seq = run(&cfg);
        let seq_m = seq.metrics.as_ref().expect("installed");
        for threads in [2, 4] {
            cfg.threads = threads;
            let par = run(&cfg);
            assert_eq!(seq, par, "threads={threads} diverged");
            assert_eq!(
                seq_m.last.digest(),
                par.metrics.as_ref().expect("installed").last.digest(),
                "snapshot digest at threads={threads}"
            );
        }
    }

    #[test]
    fn metrics_capture_sink_volume_when_telemetry_on() {
        let mut cfg = small(WorkloadMix::residential_evening(), 7);
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::PerConnection;
        cfg.metrics_window_secs = Some(60);
        let s = run(&cfg);
        let m = s.metrics.expect("installed");
        assert_eq!(m.last.scalar("cgn_sink_records_total"), s.telemetry.records);
        assert_eq!(m.last.scalar("cgn_sink_bytes_total"), s.telemetry.bytes);
        assert!(s.telemetry.records > 0);
    }

    #[test]
    fn sampled_telemetry_decimates_per_connection_volume() {
        let mut cfg = small(WorkloadMix::residential_evening(), 7);
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::PerConnection;
        let full = run(&cfg).telemetry;
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::Sampled { one_in: 10 };
        let (s, logs) = run_with_logs(&cfg);
        assert_eq!(logs.len(), cfg.shards as usize, "one log per shard");
        assert!(s.telemetry.records > 0, "sampling must keep something");
        let ratio = full.records as f64 / s.telemetry.records as f64;
        assert!(
            ratio > 5.0 && ratio < 20.0,
            "1-in-10 flow sampling should cut records ~10x, got {ratio:.1}"
        );
        assert!(s.telemetry.bytes < full.bytes / 5);
        // Observation only, like every other telemetry mode.
        let mut off = cfg.clone();
        off.telemetry = nat_engine::telemetry::TelemetryMode::Off;
        let off_run = run(&off);
        assert_eq!(off_run.stats, s.stats);
        assert_eq!(off_run.series, s.series);
    }

    /// `DriverConfig` is `Deserialize`, so `Sampled { one_in: 0 }` can
    /// arrive from a config file: like `TraceConfig`'s 0, it keeps no
    /// mapping, and the run neither panics nor logs.
    #[test]
    fn sampled_one_in_zero_logs_nothing() {
        let mut cfg = small(WorkloadMix::residential_evening(), 7);
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::Sampled { one_in: 0 };
        let (s, logs) = run_with_logs(&cfg);
        assert!(s.stats.mappings_created > 0, "the run did translate");
        assert_eq!(logs.len(), cfg.shards as usize, "one log per shard");
        assert!(logs.iter().all(EventLog::is_empty));
        assert_eq!((s.telemetry.records, s.telemetry.bytes), (0, 0));
    }

    /// The satellite determinism property: traceability logs are part
    /// of the run's deterministic output — bit-identical for every
    /// worker-thread count.
    #[test]
    fn logs_bit_identical_across_thread_counts() {
        for mode in [
            nat_engine::telemetry::TelemetryMode::PerConnection,
            nat_engine::telemetry::TelemetryMode::PerBlock,
            nat_engine::telemetry::TelemetryMode::Sampled { one_in: 8 },
        ] {
            let mut cfg = small(WorkloadMix::residential_evening(), 31);
            cfg.shards = 4;
            cfg.telemetry = mode;
            if mode == nat_engine::telemetry::TelemetryMode::PerBlock {
                cfg.nat.port_alloc = nat_engine::PortAllocation::PortBlock { block_size: 256 };
            }
            cfg.threads = 1;
            let (seq_summary, seq_logs) = run_with_logs(&cfg);
            for threads in [2, 5] {
                cfg.threads = threads;
                let (par_summary, par_logs) = run_with_logs(&cfg);
                assert_eq!(seq_summary, par_summary, "{mode:?} threads={threads}");
                assert_eq!(
                    seq_logs.len(),
                    par_logs.len(),
                    "{mode:?}: one log per shard"
                );
                for (shard, (a, b)) in seq_logs.iter().zip(&par_logs).enumerate() {
                    assert_eq!(
                        a.bytes(),
                        b.bytes(),
                        "{mode:?} shard {shard} log diverged at threads={threads}"
                    );
                }
            }
        }
    }

    /// Tracing is observation only: with flow sampling and phase
    /// profiling on, the summary, digest and telemetry log bytes are
    /// bit-identical to the tracing-off run — and the flight-recorder
    /// dump itself (sim-time-stamped, `(shard, seq)`-ordered) is
    /// bit-identical for every worker-thread count and burst size.
    #[test]
    fn tracing_is_observation_only_and_thread_invariant() {
        let mut cfg = small(WorkloadMix::residential_evening(), 19);
        cfg.shards = 3;
        cfg.telemetry = nat_engine::telemetry::TelemetryMode::PerConnection;
        let (off, off_logs) = run_with_logs(&cfg);

        cfg.trace = TraceConfig::sampled(8);
        cfg.threads = 1;
        cfg.burst = 1;
        let mut session = DriverSession::new(&cfg);
        while session.step().is_some() {}
        let base_dump = session.trace_dump().expect("tracer installed");
        assert!(base_dump.sampled_flows > 0, "1-in-8 must catch flows");
        assert!(!base_dump.events.is_empty());
        assert_eq!(base_dump.sample_one_in, 8);
        let profile = session.phase_profile().expect("profiling on");
        assert!(
            !profile.is_empty(),
            "phase laps recorded alongside flow sampling"
        );
        assert!(profile.histogram(Phase::Generate).count > 0);
        assert!(profile.histogram(Phase::Translate).count > 0);
        assert!(profile.histogram(Phase::Commit).count > 0);
        assert!(profile.histogram(Phase::Sweep).count > 0);
        assert!(profile.histogram(Phase::Sample).count > 0);
        let (traced, traced_logs) = session.finish();
        assert_eq!(off, traced, "tracing must not perturb the run");
        assert_eq!(off.digest(), traced.digest());
        for (a, b) in off_logs.iter().zip(&traced_logs) {
            assert_eq!(a.bytes(), b.bytes(), "telemetry log bytes unchanged");
        }

        for (threads, burst) in [(2, 7), (4, 64), (3, 0)] {
            cfg.threads = threads;
            cfg.burst = burst;
            let mut session = DriverSession::new(&cfg);
            while session.step().is_some() {}
            let dump = session.trace_dump().expect("tracer installed");
            assert_eq!(
                base_dump.events, dump.events,
                "trace events diverged at threads={threads} burst={burst}"
            );
            assert_eq!(base_dump.sampled_flows, dump.sampled_flows);
            assert_eq!(base_dump.evicted, dump.evicted);
            assert_eq!(
                cgn_trace::chrome_trace_json(&base_dump),
                cgn_trace::chrome_trace_json(&dump),
                "chrome dump bytes diverged at threads={threads} burst={burst}"
            );
        }
    }

    /// The published exposition overlay: phase histograms render into
    /// a snapshot clone with p50/p95/p99 companions, while the
    /// deterministic windowed snapshots never see them.
    #[test]
    fn phase_profile_renders_into_exposition_only() {
        let mut cfg = small(WorkloadMix::residential_evening(), 11);
        cfg.metrics_window_secs = Some(30);
        cfg.trace = TraceConfig::sampled(4);
        let mut session = DriverSession::new(&cfg);
        while session.step().is_some() {}
        let snap = session.latest_snapshot().expect("metrics on").clone();
        assert!(
            !snap
                .samples
                .iter()
                .any(|s| s.name.starts_with("cgn_phase_nanos")),
            "windowed snapshots stay wall-clock-free"
        );
        let mut published = snap.clone();
        session
            .phase_profile()
            .expect("profiling on")
            .render_into(&mut published);
        assert!(
            published
                .samples
                .iter()
                .any(|s| s.name.starts_with("cgn_phase_nanos{")),
            "published exposition carries the phase histograms"
        );
    }

    /// The window clock runs for one window in sixteen per shard, the
    /// first included, and its laps carry weight sixteen: after a
    /// single step every driver phase already has samples, and the
    /// weighted `generate` count estimates the windows drained — which
    /// `cgn_bursts_total` counts exactly — to within one weight per
    /// shard. The barrier phases are timed every time.
    #[test]
    fn window_clock_is_weighted_and_covers_every_phase_in_one_step() {
        let mut cfg = small(WorkloadMix::residential_evening(), 23);
        cfg.subscribers = 500;
        cfg.shards = 3;
        cfg.sample_secs = 30;
        cfg.sweep_secs = 30;
        cfg.metrics_window_secs = Some(30);
        cfg.inbound_reply_permille = 250;
        cfg.trace = TraceConfig {
            profile_phases: true,
            ..TraceConfig::off()
        };
        let mut session = DriverSession::new(&cfg);
        session.step().expect("one barrier");
        let profile = session.phase_profile().expect("profiling on");
        for phase in Phase::ALL {
            assert!(
                !profile.histogram(phase).is_empty(),
                "{} has no sample after one step",
                phase.name()
            );
        }
        let windows = session
            .latest_snapshot()
            .expect("sampled with metrics on")
            .scalar("cgn_bursts_total");
        let estimate = profile.histogram(Phase::Generate).count;
        assert!(windows > 2 * 16 * 3, "enough windows to tell: {windows}");
        assert_eq!(estimate % 16, 0, "every window lap weighs sixteen");
        assert!(
            estimate.abs_diff(windows) <= 16 * 3,
            "weighted generate count {estimate} vs {windows} windows"
        );
        let shards = cfg.shards as u64;
        assert_eq!(profile.histogram(Phase::Sweep).count, shards);
        assert_eq!(profile.histogram(Phase::Sample).count, shards);
    }

    #[test]
    fn shard_pool_and_subscriber_plan_match_the_engine() {
        let mut cfg = small(WorkloadMix::iot_fleet(), 3);
        cfg.shards = 3;
        cfg.external_ips_per_shard = 2;
        // Reconstruct the pools the way run() builds them and compare
        // against ShardedNat's round-robin ownership.
        let mut pool: Vec<Ipv4Addr> = Vec::new();
        for k in 0..cfg.external_ips_per_shard {
            for s in 0..cfg.shards {
                pool.push(super::pool_ip(s, k));
            }
        }
        let sharded = ShardedNat::new(cfg.nat.clone(), pool, cfg.shards, cfg.seed);
        for shard in 0..cfg.shards {
            assert_eq!(
                shard_pool(&cfg, shard),
                sharded.shards()[shard as usize].external_ips(),
                "shard {shard} pool reconstruction"
            );
        }
        for idx in [0u32, 1, 7, 250] {
            assert_eq!(
                shard_of_subscriber(&cfg, idx) as usize,
                sharded.shard_of(subscriber_ip(idx)),
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The satellite property: for random seeds, mixes and shard
        /// counts, the sharded engine's merged `NatStats` and per-host
        /// port counts under worker threads are identical to the
        /// sequential engine's.
        #[test]
        fn prop_parallel_run_equals_sequential(
            seed in any::<u64>(),
            mix_idx in 0usize..8,
            shards in 1u16..=4,
            threads in 2usize..=5,
            subscribers in 60u32..240,
        ) {
            let mixes = WorkloadMix::all();
            let mix = mixes[mix_idx % mixes.len()].clone();
            let mut cfg = DriverConfig {
                subscribers,
                shards,
                external_ips_per_shard: 2,
                duration_secs: 120,
                sample_secs: 40,
                sweep_secs: 25,
                ..DriverConfig::new(mix, seed)
            };
            cfg.threads = 1;
            let seq = run(&cfg);
            cfg.threads = threads;
            let par = run(&cfg);
            prop_assert_eq!(&seq.stats, &par.stats);
            prop_assert_eq!(
                &seq.peak_ports_per_subscriber,
                &par.peak_ports_per_subscriber
            );
            prop_assert_eq!(seq, par);
        }

        /// The tracing satellite property: the deterministic 1-in-N
        /// mix64 flow sampler picks the same flows — and the flight
        /// recorder logs the same `(shard, seq)`-ordered events — for
        /// random seeds, mixes, shard counts, sampling rates and any
        /// worker-thread count.
        #[test]
        fn prop_trace_sampling_is_thread_invariant(
            seed in any::<u64>(),
            mix_idx in 0usize..8,
            shards in 1u16..=3,
            threads in 2usize..=5,
            one_in_idx in 0usize..4,
        ) {
            let one_in = [1u32, 4, 16, 64][one_in_idx];
            let mixes = WorkloadMix::all();
            let mix = mixes[mix_idx % mixes.len()].clone();
            let mut cfg = DriverConfig {
                subscribers: 90,
                shards,
                external_ips_per_shard: 2,
                duration_secs: 90,
                sample_secs: 30,
                sweep_secs: 25,
                ..DriverConfig::new(mix, seed)
            };
            cfg.trace = TraceConfig::sampled(one_in);
            cfg.threads = 1;
            let mut seq = DriverSession::new(&cfg);
            while seq.step().is_some() {}
            let base = seq.trace_dump().expect("tracer installed");
            cfg.threads = threads;
            let mut par = DriverSession::new(&cfg);
            while par.step().is_some() {}
            let dump = par.trace_dump().expect("tracer installed");
            prop_assert_eq!(base.sampled_flows, dump.sampled_flows);
            prop_assert_eq!(base.evicted, dump.evicted);
            prop_assert_eq!(base.events, dump.events);
        }
    }
}
