//! Sampled flow-lifecycle traces and the per-shard flight recorder.
//!
//! Tracing every flow at CGN scale is the log-volume problem §6.2
//! already quantified; the useful middle ground is NetFlow-style
//! deterministic sampling: pick one flow in N by hashing the flow key
//! ([`FlowKey::sampled`], which a `TelemetryMode::Sampled` event log
//! calls too), and record *everything* that happens to the sampled
//! flows. Because the decision is a pure function of the key, the
//! sampled set — and the recorded per-shard event streams, which are
//! sim-time-stamped — are bit-identical for any worker-thread count.
//!
//! Events land in a bounded per-shard ring (the **flight recorder**):
//! memory stays fixed no matter how long a soak runs, old events fall
//! off the back, and an eviction counter says how much history was
//! lost. The ring can be dumped at any barrier as Chrome-trace JSON
//! (see [`crate::chrome`]) — on demand, or automatically when a soak
//! leak gate trips.

use crate::phase::{Phase, PhaseClock, PhaseProfiler};
use netcore::hash::MixMap;
use netcore::mix64;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Default per-shard flight-recorder capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// The driver's window clock runs for one window in this many per
/// shard (see [`ShardTracer::window_clock`]).
const WINDOW_CLOCK_ONE_IN: u32 = 16;

/// What to trace. Carried on `DriverConfig`; the all-off default
/// keeps existing configs byte-identical in behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Sample one flow in N for lifecycle tracing (0 = off).
    pub sample_one_in: u32,
    /// Flight-recorder capacity per shard, in events.
    pub ring_capacity: usize,
    /// Record wall-clock phase histograms (annotation layer only).
    pub profile_phases: bool,
}

impl TraceConfig {
    /// Tracing fully disabled — the zero-cost configuration.
    pub fn off() -> Self {
        TraceConfig {
            sample_one_in: 0,
            ring_capacity: DEFAULT_RING_CAPACITY,
            profile_phases: false,
        }
    }

    /// Flow sampling at one-in-N plus phase profiling.
    pub fn sampled(one_in: u32) -> Self {
        TraceConfig {
            sample_one_in: one_in,
            ring_capacity: DEFAULT_RING_CAPACITY,
            profile_phases: true,
        }
    }

    /// Does this config require a tracer to be installed at all?
    pub fn enabled(&self) -> bool {
        self.sample_one_in > 0 || self.profile_phases
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

/// The identity of a translated flow: what the sampling hash covers.
/// Mirrors the fields of `nat_engine`'s `MappingEvent` (internal and
/// external endpoint plus protocol), which builds one with
/// `MappingEvent::flow_key`, so a trace sampler at `one_in = N`
/// selects exactly the flows a `TelemetryMode::Sampled { one_in: N }`
/// event log keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    pub udp: bool,
    pub internal_ip: Ipv4Addr,
    pub internal_port: u16,
    pub external_ip: Ipv4Addr,
    pub external_port: u16,
}

impl FlowKey {
    /// Stable 64-bit flow id: the mix64 avalanche of the packed key.
    /// Doubles as the sampling hash.
    pub fn id(&self) -> u64 {
        let ips = (u32::from(self.internal_ip) as u64) << 32 | u32::from(self.external_ip) as u64;
        let rest =
            (self.internal_port as u64) << 32 | (self.external_port as u64) << 8 | self.udp as u64;
        mix64(ips ^ mix64(rest))
    }

    /// The deterministic one-in-N sampling decision (0 = never).
    pub fn sampled(&self, one_in: u32) -> bool {
        match one_in {
            0 => false,
            1 => true,
            n => self.id() % n as u64 == 0,
        }
    }
}

/// One span event in a sampled flow's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// Mapping admitted (`create_mapping` succeeded).
    Admit,
    /// A port block was granted for this flow's subscriber.
    BlockAlloc,
    /// One outbound packet translated through the mapping.
    Translate,
    /// One inbound packet accepted through the mapping.
    TranslateIn,
    /// Mapping expiry pushed out by outbound traffic.
    Refresh,
    /// Mapping torn down (sweep or explicit removal).
    Expire,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Admit => "admit",
            SpanKind::BlockAlloc => "block_alloc",
            SpanKind::Translate => "translate",
            SpanKind::TranslateIn => "translate_in",
            SpanKind::Refresh => "refresh",
            SpanKind::Expire => "expire",
        }
    }
}

/// One flight-recorder entry. Timestamps are sim-time milliseconds —
/// wall-clock never appears here, which is what keeps traced runs
/// digest-identical across thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Per-shard monotone sequence number (total order within a shard).
    pub seq: u64,
    /// Sim-time of the event, milliseconds.
    pub at_ms: u64,
    /// Shard that owns the mapping.
    pub shard: u32,
    /// The sampled flow.
    pub key: FlowKey,
    pub kind: SpanKind,
}

/// Bounded ring of [`TraceEvent`]s: push evicts the oldest once full.
#[derive(Debug, Clone, Default)]
struct FlightRecorder {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    evicted: u64,
    next_seq: u64,
}

/// Per-shard tracer: the engine's probe holds one, next to its event
/// sink and metrics registry. Owns the sampling decision, the
/// live-slot table, the flight recorder and (optionally) the
/// wall-clock phase profiler. All methods are plain owned-data
/// mutations — one shard's thread, no synchronization.
#[derive(Debug, Clone)]
pub struct ShardTracer {
    shard: u32,
    one_in: u32,
    profile_phases: bool,
    /// slot id → key of the *sampled* mapping currently in that slot.
    /// Entries are removed at expiry, so slot reuse cannot mislabel a
    /// later unsampled flow. Probed once per translated packet, almost
    /// always to find nothing: slot ids are the store's own dense
    /// indices, so the workspace's deterministic hasher applies.
    live: MixMap<u32, FlowKey>,
    recorder: FlightRecorder,
    phases: PhaseProfiler,
    /// Driver windows still to pass untimed before the next timed one.
    windows_until_timed: u32,
    /// What taking a lap costs, taken off every lap
    /// ([`ShardTracer::lap`]).
    lap_cost_nanos: u64,
    sampled_flows: u64,
}

impl ShardTracer {
    pub fn new(shard: u32, config: &TraceConfig) -> Self {
        let mut tracer = ShardTracer {
            shard,
            one_in: config.sample_one_in,
            profile_phases: config.profile_phases,
            live: MixMap::default(),
            recorder: FlightRecorder {
                capacity: config.ring_capacity.max(1),
                ..FlightRecorder::default()
            },
            phases: PhaseProfiler::new(),
            windows_until_timed: 0,
            lap_cost_nanos: 0,
            sampled_flows: 0,
        };
        if config.profile_phases {
            tracer.calibrate_lap_cost();
        }
        tracer
    }

    /// Measure what a lap costs — the clock read and the histogram
    /// update — as the lowest mean over a few runs of sixteen laps
    /// with nothing between them.
    fn calibrate_lap_cost(&mut self) {
        self.lap_cost_nanos = (0..4)
            .map(|_| {
                let mut clock = PhaseClock::start(1);
                for _ in 0..16 {
                    self.lap(&mut clock, Phase::Generate);
                }
                clock.lapped / 16
            })
            .min()
            .unwrap_or(0);
        self.phases = PhaseProfiler::new();
    }

    fn push(&mut self, at_ms: u64, key: FlowKey, kind: SpanKind) {
        let r = &mut self.recorder;
        if r.ring.len() == r.capacity {
            r.ring.pop_front();
            r.evicted += 1;
        }
        r.ring.push_back(TraceEvent {
            seq: r.next_seq,
            at_ms,
            shard: self.shard,
            key,
            kind,
        });
        r.next_seq += 1;
    }

    /// A mapping was admitted into `slot`. Decides sampling; when the
    /// flow is sampled, records the admit span (and the block-grant
    /// span if the admission allocated a port block).
    pub fn on_admit(&mut self, slot: u32, key: FlowKey, at_ms: u64, block_granted: bool) {
        if !key.sampled(self.one_in) {
            return;
        }
        self.sampled_flows += 1;
        self.live.insert(slot, key);
        self.push(at_ms, key, SpanKind::Admit);
        if block_granted {
            self.push(at_ms, key, SpanKind::BlockAlloc);
        }
    }

    /// An outbound packet translated through `slot`; `refreshed` says
    /// whether it pushed the expiry out.
    #[inline]
    pub fn on_translate(&mut self, slot: u32, at_ms: u64, refreshed: bool) {
        if let Some(&key) = self.live.get(&slot) {
            self.push(at_ms, key, SpanKind::Translate);
            if refreshed {
                self.push(at_ms, key, SpanKind::Refresh);
            }
        }
    }

    /// An inbound packet accepted through `slot`.
    #[inline]
    pub fn on_translate_in(&mut self, slot: u32, at_ms: u64) {
        if let Some(&key) = self.live.get(&slot) {
            self.push(at_ms, key, SpanKind::TranslateIn);
        }
    }

    /// The mapping in `slot` was torn down.
    pub fn on_expire(&mut self, slot: u32, at_ms: u64) {
        if let Entry::Occupied(e) = self.live.entry(slot) {
            let key = *e.get();
            e.remove();
            self.push(at_ms, key, SpanKind::Expire);
        }
    }

    /// Start a phase clock whose laps count once each; `None` unless
    /// phase profiling is on, so a disabled run never reads the clock.
    /// For regions timed every time they run: the barrier phases
    /// (`sweep`, `sample`: once per step) and the engine's own burst
    /// entry points (three laps per burst).
    #[inline]
    pub fn phase_clock(&self) -> Option<PhaseClock> {
        self.profile_phases.then(|| PhaseClock::start(1))
    }

    /// Start the phase clock for the window the traffic driver is
    /// about to drain: `Some` for this shard's first window and every
    /// N-th after it (N = 16, fixed), `None` — no clock read at all —
    /// for the windows between, and always unless phase profiling is
    /// on.
    ///
    /// A window is a few dozen packets, and timing one costs a clock
    /// read per lap — several per millisecond bucket — which on a fully
    /// observed soak was a sixth of the run. So the window clock has a
    /// budget: one window in N is timed, and every lap and span of
    /// that window is recorded with weight N
    /// ([`Histogram::record_n`](cgn_metrics::Histogram::record_n)).
    /// Counts and sums of the window phases (`generate`, `translate`,
    /// `commit`, `inbound` and, on the driver path, the three
    /// `burst_*`) are therefore estimates of the whole run — unbiased,
    /// because which windows are timed depends on nothing but their
    /// ordinal — and their percentiles are those of the timed windows.
    /// The first window is timed so that a session of a few windows
    /// still shows every phase. Clocks from
    /// [`ShardTracer::phase_clock`] are never skipped: those phases
    /// stay exact.
    #[inline]
    pub fn window_clock(&mut self) -> Option<PhaseClock> {
        if !self.profile_phases {
            return None;
        }
        if self.windows_until_timed == 0 {
            self.windows_until_timed = WINDOW_CLOCK_ONE_IN - 1;
            Some(PhaseClock::start(WINDOW_CLOCK_ONE_IN as u64))
        } else {
            self.windows_until_timed -= 1;
            None
        }
    }

    /// Record the time since `clock`'s last lap under `phase`, with
    /// the clock's weight, and restart it: the one place a phase
    /// duration is measured. A lap runs from the end of one clock read
    /// to the end of the next, so it holds a read and a histogram
    /// update that untimed code does not pay (some 40 ns, against the
    /// 100–250 of a bucket's translate or commit). That cost, measured
    /// when the tracer is built, comes off every lap: weighted sums
    /// then add up to the wall of the run as it is — mostly untimed —
    /// not to that of a run timed throughout.
    #[inline]
    pub fn lap(&mut self, clock: &mut PhaseClock, phase: Phase) {
        let now = std::time::Instant::now();
        let nanos =
            (now.duration_since(clock.at).as_nanos() as u64).saturating_sub(self.lap_cost_nanos);
        clock.at = now;
        clock.lapped += nanos;
        self.phases.record(phase, nanos, clock.weight);
    }

    /// Record under `phase` what the laps between two copies of one
    /// clock recorded, `since` the earlier: for a caller's phase that
    /// is exactly a run of laps already taken (the driver's
    /// `translate` is the engine's stage and translate laps). No clock
    /// read.
    #[inline]
    pub fn span(&mut self, phase: Phase, since: PhaseClock, until: PhaseClock) {
        self.phases.record(
            phase,
            until.lapped.saturating_sub(since.lapped),
            until.weight,
        );
    }

    /// Whether any flow is being sampled (fast pre-check for hot
    /// per-packet fire sites).
    #[inline]
    pub fn sampling_flows(&self) -> bool {
        self.one_in > 0
    }

    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The sampling rate this tracer was built with (one in N; 0 = off).
    pub fn sample_one_in(&self) -> u32 {
        self.one_in
    }

    pub fn phases(&self) -> &PhaseProfiler {
        &self.phases
    }

    /// Flight-recorder contents, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.recorder.ring.iter()
    }

    /// Events evicted from the ring since start.
    pub fn evicted(&self) -> u64 {
        self.recorder.evicted
    }

    /// Flows that passed the sampling decision since start.
    pub fn sampled_flows(&self) -> u64 {
        self.sampled_flows
    }

    /// Mappings currently live *and* sampled (tracked slots).
    pub fn live_sampled(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(host: u8, port: u16) -> FlowKey {
        FlowKey {
            udp: true,
            internal_ip: Ipv4Addr::new(10, 0, 0, host),
            internal_port: port,
            external_ip: Ipv4Addr::new(198, 51, 100, 1),
            external_port: 40000 + port,
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_key() {
        let k = key(1, 1234);
        assert!(!k.sampled(0), "one_in = 0 disables sampling");
        assert!(k.sampled(1), "one_in = 1 keeps everything");
        for one_in in [2u32, 10, 1000] {
            assert_eq!(k.sampled(one_in), k.id() % one_in as u64 == 0);
            assert_eq!(k.sampled(one_in), k.sampled(one_in));
        }
        // Roughly one in N flows selected over a key sweep.
        let kept = (0..10_000u16).filter(|&p| key(1, p).sampled(10)).count();
        assert!(
            (700..=1300).contains(&kept),
            "~1000 of 10000 expected at one-in-10, got {kept}"
        );
    }

    #[test]
    fn lifecycle_events_record_in_order_for_sampled_flows_only() {
        let mut t = ShardTracer::new(3, &TraceConfig::sampled(1));
        let k = key(1, 80);
        t.on_admit(7, k, 100, true);
        t.on_translate(7, 150, false);
        t.on_translate(7, 200, true);
        t.on_translate_in(7, 220);
        t.on_expire(7, 400);
        // Slot reuse by an unsampled flow after expiry records nothing.
        t.on_translate(7, 500, true);
        let kinds: Vec<SpanKind> = t.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Admit,
                SpanKind::BlockAlloc,
                SpanKind::Translate,
                SpanKind::Translate,
                SpanKind::Refresh,
                SpanKind::TranslateIn,
                SpanKind::Expire,
            ]
        );
        assert!(t.events().all(|e| e.shard == 3 && e.key == k));
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq is monotone");
        assert_eq!(t.sampled_flows(), 1);
        assert_eq!(t.live_sampled(), 0, "expiry untracks the slot");
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let cfg = TraceConfig {
            sample_one_in: 1,
            ring_capacity: 4,
            profile_phases: false,
        };
        let mut t = ShardTracer::new(0, &cfg);
        t.on_admit(1, key(1, 80), 0, false);
        for ms in 1..=10u64 {
            t.on_translate(1, ms, false);
        }
        assert_eq!(t.events().count(), 4);
        assert_eq!(t.evicted(), 7, "11 events through a 4-slot ring");
        let first = t.events().next().expect("non-empty").seq;
        assert_eq!(first, 7, "oldest retained event is the 8th pushed");
    }

    #[test]
    fn unsampled_flows_cost_no_ring_space() {
        // one_in = 0: nothing records even through the full lifecycle.
        let mut t = ShardTracer::new(0, &TraceConfig::off());
        t.on_admit(1, key(1, 80), 0, true);
        t.on_translate(1, 1, true);
        t.on_expire(1, 2);
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.sampled_flows(), 0);
    }

    #[test]
    fn window_clock_is_armed_for_the_first_window_and_every_sixteenth() {
        let mut t = ShardTracer::new(0, &TraceConfig::sampled(64));
        for window in 0..40 {
            let mut clock = t.window_clock();
            assert_eq!(clock.is_some(), window % 16 == 0, "window {window}");
            // A lap of a timed window counts for sixteen, and a span
            // over its laps is their sum.
            if let Some(c) = clock.as_mut() {
                let since = *c;
                t.lap(c, Phase::BurstResolve);
                t.lap(c, Phase::BurstTranslate);
                t.span(Phase::Translate, since, *c);
            }
        }
        // The every-time clock weighs one.
        let mut c = t.phase_clock().expect("profiling on");
        t.lap(&mut c, Phase::Sweep);
        let laps = |p| t.phases().histogram(p);
        assert_eq!(laps(Phase::Sweep).count, 1);
        assert_eq!(laps(Phase::BurstResolve).count, 3 * 16);
        assert_eq!(laps(Phase::Translate).count, 3 * 16);
        assert_eq!(
            laps(Phase::Translate).sum,
            laps(Phase::BurstResolve).sum + laps(Phase::BurstTranslate).sum
        );
    }

    #[test]
    fn phase_recording_respects_the_profile_flag() {
        let config = TraceConfig {
            profile_phases: false,
            ..TraceConfig::sampled(1)
        };
        let mut off = ShardTracer::new(0, &config);
        assert!(off.phase_clock().is_none());
        assert!(off.window_clock().is_none());
        assert!(off.phases().is_empty());
        let mut t = ShardTracer::new(0, &TraceConfig::sampled(1));
        let mut clock = t.phase_clock().expect("profiling on");
        t.lap(&mut clock, Phase::Generate);
        assert_eq!(t.phases().histogram(Phase::Generate).count, 1);
    }
}
