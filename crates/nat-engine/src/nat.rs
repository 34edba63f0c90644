//! The NAT device: translation state machine.
//!
//! A [`Nat`] owns a pool of external IPs, per-IP port allocators and a table
//! of [`Mapping`]s with idle timeouts. One core per direction — outbound
//! from the internal realm, inbound at an external address — rewrites a
//! [`Header`] in place and returns a [`HeaderVerdict`]: forward, loop back
//! into the internal realm (hairpinning), or drop with a reason that the
//! stats record — the observable that the paper's measurements build on.
//! The staging halves ([`Nat::stage_burst`] and kin) run the cores over
//! caller-owned header slices; [`Nat::process_outbound`] /
//! [`Nat::process_inbound`] run them for one whole [`Packet`].

use crate::config::{FilteringBehavior, NatConfig, Pooling, PortAllocation, StunNatType};
use crate::metrics::EngineMetrics;
use crate::ports::{self, PortAllocator, PortError};
use crate::probe::Probe;
use crate::store::{MappingStore, StoreOccupancy, TcpConnState};
use crate::telemetry::{EventSink, MappingEvent};
use cgn_metrics::{Snapshot, Value};
use cgn_trace::{Phase, PhaseClock, ShardTracer};
use netcore::{Endpoint, Packet, PacketBody, Protocol, SimDuration, SimTime, TcpFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

pub use crate::store::Mapping;

/// What the translation path reads of a UDP or TCP packet, and all it
/// rewrites — 16 bytes, `Copy`, no payload.
///
/// **Rewritten in place.** Translating calls take headers by `&mut`: a
/// forwarded outbound header gets the external endpoint as `src`, a
/// forwarded inbound one the internal endpoint as `dst`, a hairpinned
/// one the target's internal endpoint as `dst` (and `src` as the
/// hairpin source policy says). After a drop only the
/// [`HeaderVerdict`] is meaningful.
///
/// **`Packet` only at the boundaries.** The simulator routes whole
/// [`Packet`]s (48 bytes, owned payload), and ICMP errors have no
/// header form, so `Packet` survives only where real packets are
/// routed: [`Nat::process_outbound`] / [`Nat::process_inbound`]
/// (simnet's packet-at-a-time entry) and [`crate::ShardedNat`]'s batch
/// wrappers, which copy headers out and write the rewritten endpoints
/// back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Header {
    pub src: Endpoint,
    pub dst: Endpoint,
    /// `Some` for TCP, `None` for UDP: the protocol follows from it.
    pub flags: Option<TcpFlags>,
}

impl Header {
    /// A TCP header when `flags` is given, a UDP header otherwise.
    pub fn new(src: Endpoint, dst: Endpoint, flags: Option<TcpFlags>) -> Header {
        Header { src, dst, flags }
    }

    /// TCP when the header carries flags, UDP otherwise.
    pub fn proto(&self) -> Protocol {
        self.flags.map_or(Protocol::Udp, |_| Protocol::Tcp)
    }

    /// The header of a UDP or TCP packet; `None` for ICMP.
    pub fn of(pkt: &Packet) -> Option<Header> {
        match &pkt.body {
            PacketBody::Udp { .. } => Some(Header::new(pkt.src, pkt.dst, None)),
            PacketBody::Tcp { flags, .. } => Some(Header::new(pkt.src, pkt.dst, Some(*flags))),
            PacketBody::Icmp { .. } => None,
        }
    }

    /// Write the (rewritten) endpoints back into the packet they were
    /// taken from.
    pub fn write_to(&self, pkt: &mut Packet) {
        pkt.src = self.src;
        pkt.dst = self.dst;
    }
}

/// Outcome of translating one [`Header`]; the rewritten endpoints are
/// in the header itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeaderVerdict {
    /// Translated; continue along the path.
    Forward,
    /// Outbound header addressed to this NAT's own pool, looped back to
    /// the internal endpoint now in `dst`.
    Hairpin,
    /// Dropped.
    Drop(DropReason),
}

impl HeaderVerdict {
    /// The packet-owning verdict for `pkt`, whose endpoints the caller
    /// has already rewritten.
    pub fn with(self, pkt: Packet) -> NatVerdict {
        match self {
            HeaderVerdict::Forward => NatVerdict::Forward(pkt),
            HeaderVerdict::Hairpin => NatVerdict::Hairpin(pkt),
            HeaderVerdict::Drop(r) => NatVerdict::Drop(r),
        }
    }
}

/// Outcome of processing one [`Packet`] at the simulator boundary. A
/// word-sized tag keeps moving a packet in one aligned copy (a byte
/// tag makes it a copy from offset 1 that stalls store forwarding).
#[derive(Debug, Clone, PartialEq)]
#[repr(u64)]
pub enum NatVerdict {
    /// Translated; continue along the path (outbound: toward the core,
    /// inbound: into the internal realm).
    Forward(Packet),
    /// Outbound packet addressed to this NAT's own pool was looped back;
    /// deliver to the internal destination in `Packet::dst`.
    Hairpin(Packet),
    /// Dropped.
    Drop(DropReason),
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Inbound packet without a matching mapping (or the mapping idled out
    /// — exactly what the TTL-driven enumeration test detects).
    NoMapping,
    /// Inbound packet rejected by the filtering policy.
    Filtered,
    /// External port space exhausted.
    PortExhausted,
    /// Per-subscriber session limit reached (§2: operators report limits
    /// down to 512 sessions per customer).
    SessionLimit,
    /// Hairpinning disabled but the packet targeted the external pool.
    NoHairpin,
    /// ICMP error that could not be matched to a flow.
    UnmatchedIcmp,
}

/// Observable counters.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NatStats {
    pub out_packets: u64,
    pub in_packets: u64,
    pub hairpins: u64,
    pub mappings_created: u64,
    pub mappings_expired: u64,
    /// High-water mark of concurrent mappings — the state-table size a
    /// real CGN must provision for (the dimensioning question of §6.2).
    pub peak_mappings: u64,
    /// Calls to [`Nat::sweep`].
    pub sweeps: u64,
    /// Sweeps that inspected at least one timer-wheel entry. The
    /// difference to `sweeps` counts invocations that found no due
    /// bucket and did zero per-mapping work (no mapping could have
    /// expired yet).
    pub sweep_scans: u64,
    pub drops: u64,
    pub drop_no_mapping: u64,
    pub drop_filtered: u64,
    pub drop_port_exhausted: u64,
    pub drop_session_limit: u64,
    pub drop_no_hairpin: u64,
    pub drop_unmatched_icmp: u64,
}

impl NatStats {
    /// Fold another device's counters into this one (used when several
    /// CGN instances serve one subscriber population). All counters
    /// add, including `peak_mappings`: instances hold disjoint state
    /// tables, so the sum of per-device peaks is a conservative upper
    /// bound on fleet-wide concurrent state (per-device peaks need not
    /// coincide in time; the sampled demand series gives the exact
    /// simultaneous peak).
    pub fn merge(&mut self, other: &NatStats) {
        self.out_packets += other.out_packets;
        self.in_packets += other.in_packets;
        self.hairpins += other.hairpins;
        self.mappings_created += other.mappings_created;
        self.mappings_expired += other.mappings_expired;
        self.peak_mappings += other.peak_mappings;
        self.sweeps += other.sweeps;
        self.sweep_scans += other.sweep_scans;
        self.drops += other.drops;
        self.drop_no_mapping += other.drop_no_mapping;
        self.drop_filtered += other.drop_filtered;
        self.drop_port_exhausted += other.drop_port_exhausted;
        self.drop_session_limit += other.drop_session_limit;
        self.drop_no_hairpin += other.drop_no_hairpin;
        self.drop_unmatched_icmp += other.drop_unmatched_icmp;
    }

    fn record_drop(&mut self, r: DropReason) {
        self.drops += 1;
        match r {
            DropReason::NoMapping => self.drop_no_mapping += 1,
            DropReason::Filtered => self.drop_filtered += 1,
            DropReason::PortExhausted => self.drop_port_exhausted += 1,
            DropReason::SessionLimit => self.drop_session_limit += 1,
            DropReason::NoHairpin => self.drop_no_hairpin += 1,
            DropReason::UnmatchedIcmp => self.drop_unmatched_icmp += 1,
        }
    }
}

/// Fill level of one (external IP, protocol) port allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortOccupancy {
    pub ext_ip: Ipv4Addr,
    pub proto: Protocol,
    pub allocated: usize,
    pub capacity: usize,
}

impl PortOccupancy {
    /// Fraction of the port range in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.allocated as f64 / self.capacity.max(1) as f64
    }
}

/// A NAT device instance.
///
/// Translation state lives in a [`MappingStore`] — a slab arena with
/// interned packed indices and a timer wheel for expiry (see
/// [`crate::store`]). The device layer owns what the store does not:
/// behaviour configuration, the external address pool, the RNG, the
/// per-pool [`PortAllocator`]s (indexed by the store's interned pool
/// ids) and the observable [`NatStats`].
#[derive(Debug)]
pub struct Nat {
    config: NatConfig,
    external_ips: Vec<Ipv4Addr>,
    rng: StdRng,
    /// One allocator per interned `(external IP, protocol)` pool id;
    /// `None` for pools that never allocated (transparent firewalls).
    allocators: Vec<Option<PortAllocator>>,
    store: MappingStore,
    stats: NatStats,
    /// What observes the engine: telemetry sink, metrics registry and
    /// tracer, each optional. `None` — the default, nothing installed
    /// — costs one untaken branch per fire site.
    probe: Option<Box<Probe>>,
    /// The staged outbound plan, one packed out-key per header:
    /// [`Nat::stage_burst`] appends, [`Nat::translate_staged`] consumes
    /// from the front. Storage is kept between bursts so staging
    /// allocates nothing; unallocated until a NAT's first burst.
    outbound_plan: VecDeque<u128>,
    /// The same for [`Nat::stage_inbound_burst`] /
    /// [`Nat::translate_inbound_staged`]: one packed ext-key per
    /// header, `None` when the destination pool was never interned (a
    /// stray that can only drop).
    inbound_plan: VecDeque<Option<u64>>,
}

impl Nat {
    /// Create a NAT with the given behaviour, external address pool and RNG
    /// seed (the engine is deterministic given the seed).
    ///
    /// Panics if `external_ips` is empty.
    pub fn new(config: NatConfig, external_ips: Vec<Ipv4Addr>, seed: u64) -> Self {
        assert!(
            !external_ips.is_empty(),
            "NAT needs at least one external IP"
        );
        Nat {
            config,
            external_ips,
            rng: StdRng::seed_from_u64(seed),
            allocators: Vec::new(),
            store: MappingStore::new(),
            stats: NatStats::default(),
            probe: None,
            outbound_plan: VecDeque::new(),
            inbound_plan: VecDeque::new(),
        }
    }

    pub fn config(&self) -> &NatConfig {
        &self.config
    }

    /// Bytes of heap storage currently allocated for what grows with
    /// the mappings: the store (arenas, wheel, indices) and every
    /// allocator's port set.
    #[cfg(test)]
    pub(crate) fn reserved_bytes(&self) -> usize {
        let ports = self.allocators.iter().flatten();
        self.store.reserved_bytes() + ports.map(PortAllocator::reserved_bytes).sum::<usize>()
    }

    /// The probe, created empty if nothing is installed yet.
    fn probe_mut(&mut self) -> &mut Probe {
        self.probe.get_or_insert_with(Box::default)
    }

    /// Take one part out of the probe, and the probe itself once it
    /// holds nothing: the engine is back in the zero-cost state.
    fn take_part<T>(&mut self, part: impl FnOnce(&mut Probe) -> Option<T>) -> Option<T> {
        let probe = self.probe.as_deref_mut()?;
        let taken = part(probe);
        if probe.is_empty() {
            self.probe = None;
        }
        taken
    }

    /// Install a telemetry sink: the engine fires mapping
    /// create/expire and block grant/return events into it (see
    /// [`crate::telemetry`]). Replaces any previously installed sink.
    pub fn set_sink(&mut self, sink: Box<dyn EventSink>) {
        self.probe_mut().sink = Some(sink);
    }

    /// Remove and return the installed telemetry sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.take_part(|p| p.sink.take())
    }

    /// Install a runtime-metrics registry: fire sites accumulate into
    /// it until [`Nat::take_metrics`] (see [`crate::metrics`]).
    /// Replaces any previously installed one.
    ///
    /// Install it before the first packet: [`Nat::metrics_snapshot`]
    /// renders the lifecycle counters (`cgn_mappings_created_total`,
    /// `cgn_mappings_expired_total`, `cgn_flows_rejected_total`,
    /// `cgn_sweeps_total`, `cgn_sweep_scans_total`) from
    /// [`NatStats`], which counts from the engine's birth, not from
    /// the registry's. The traffic driver installs it at construction.
    pub fn set_metrics(&mut self, metrics: Box<EngineMetrics>) {
        self.probe_mut().metrics = Some(metrics);
    }

    /// Remove and return the installed metrics registry, if any.
    pub fn take_metrics(&mut self) -> Option<Box<EngineMetrics>> {
        self.take_part(|p| p.metrics.take())
    }

    /// Install a flow/phase tracer: lifecycle fire sites record
    /// sampled-flow spans into its flight recorder and the burst
    /// pipeline's passes record wall-clock phase durations (see
    /// [`cgn_trace`]). Replaces any previously installed tracer.
    pub fn set_tracer(&mut self, tracer: Box<ShardTracer>) {
        self.probe_mut().tracer = Some(tracer);
    }

    /// The installed tracer, if any (flight-recorder reads, phase
    /// histogram reads).
    pub fn tracer(&self) -> Option<&ShardTracer> {
        self.probe.as_deref()?.tracer.as_deref()
    }

    /// The installed tracer, for the phase forwards.
    fn phase_tracer(&mut self) -> Option<&mut ShardTracer> {
        self.probe.as_deref_mut()?.tracer.as_deref_mut()
    }

    /// Render this shard's metrics into a snapshot: the registry's
    /// instruments, the lifecycle counters [`NatStats`] keeps, and
    /// barrier-time gauges the engine already tracks (live mappings,
    /// slab occupancy, parked timers, wheel-cascade work, allocator
    /// fill per pool). `None` when no registry is installed. Values
    /// depend only on engine state, so snapshots merged in shard order
    /// are bit-identical for any worker-thread count.
    pub fn metrics_snapshot(&self) -> Option<Snapshot> {
        let probe = self.probe.as_deref()?;
        let mut out = Snapshot::default();
        probe.metrics.as_deref()?.render_into(&mut out);
        let s = &self.stats;
        for (name, count) in [
            ("cgn_mappings_created_total", s.mappings_created),
            ("cgn_mappings_expired_total", s.mappings_expired),
            (
                "cgn_flows_rejected_total{reason=\"port-exhausted\"}",
                s.drop_port_exhausted,
            ),
            (
                "cgn_flows_rejected_total{reason=\"session-limit\"}",
                s.drop_session_limit,
            ),
            ("cgn_sweeps_total", s.sweeps),
            ("cgn_sweep_scans_total", s.sweep_scans),
        ] {
            out.push(name, Value::Counter(count));
        }
        let occ = self.store.occupancy();
        out.push("cgn_mappings_live", Value::Gauge(occ.live));
        out.push("cgn_slab_slots", Value::Gauge(occ.slots));
        out.push("cgn_slab_free_slots", Value::Gauge(occ.free));
        out.push("cgn_arena_chunks", Value::Gauge(self.store.arena_chunks()));
        out.push(
            "cgn_arena_slots_free",
            Value::Gauge(self.store.arena_slots_free()),
        );
        out.push("cgn_timers_pending", Value::Gauge(occ.timers));
        out.push(
            "cgn_timer_cascades_total",
            Value::Counter(self.store.timer_cascades()),
        );
        let mut worst = 0u64;
        for o in self.port_occupancy() {
            let permille = (o.utilization() * 1000.0).round() as u64;
            worst = worst.max(permille);
            let proto = match o.proto {
                Protocol::Udp => "udp",
                Protocol::Tcp => "tcp",
            };
            out.push(
                format!(
                    "cgn_allocator_fill_permille{{pool=\"{}/{proto}\"}}",
                    o.ext_ip
                ),
                Value::Gauge(permille),
            );
        }
        out.push("cgn_allocator_fill_permille_worst", Value::Max(worst));
        if let Some((records, bytes)) = probe.sink.as_ref().and_then(|sink| sink.volume()) {
            out.push("cgn_sink_records_total", Value::Counter(records));
            out.push("cgn_sink_bytes_total", Value::Counter(bytes));
        }
        out.normalize();
        Some(out)
    }

    pub fn stats(&self) -> &NatStats {
        &self.stats
    }

    pub fn external_ips(&self) -> &[Ipv4Addr] {
        &self.external_ips
    }

    /// Whether `ip` belongs to this NAT's external pool.
    pub fn is_external_ip(&self, ip: Ipv4Addr) -> bool {
        self.external_ips.contains(&ip)
    }

    /// The STUN taxonomy class of this device.
    pub fn stun_type(&self) -> StunNatType {
        self.config.stun_type()
    }

    /// Number of live (possibly stale-but-unswept) mappings.
    pub fn mapping_count(&self) -> usize {
        self.store.len()
    }

    /// Occupancy counters of the slab store (arena size, free-list
    /// length, interner sizes, parked timers).
    pub fn store_occupancy(&self) -> StoreOccupancy {
        self.store.occupancy()
    }

    /// Arena chunks backing this shard's slot storage (the
    /// `cgn_arena_chunks` gauge) — stable after warm-up, because growth
    /// past the first chunk appends chunks instead of reallocating. A
    /// count, not a size: times
    /// [`ARENA_CHUNK_BYTES`](crate::ARENA_CHUNK_BYTES) it bounds the
    /// slab's bytes from above, since a small NAT's first hot and cold
    /// chunks are allocated smaller.
    pub fn arena_chunks(&self) -> u64 {
        self.store.arena_chunks()
    }

    /// Slot ids on the store's address-ordered free-list (the
    /// `cgn_arena_slots_free` gauge).
    pub fn arena_slots_free(&self) -> u64 {
        self.store.arena_slots_free()
    }

    /// Iterate all live (possibly stale-but-unswept) mappings in slab
    /// order, each a view built from its row. Diagnostic/audit read
    /// path — counts entries independently of the store's `live`
    /// bookkeeping.
    pub fn mappings(&self) -> impl Iterator<Item = Mapping> + '_ {
        self.store.iter_live().map(|(_, m)| m)
    }

    /// Current external endpoint for an internal endpoint, if an unexpired
    /// endpoint-independent-style view exists. Test/diagnostic helper: for
    /// symmetric NATs there may be several; this returns any one.
    pub fn external_for(
        &self,
        proto: Protocol,
        internal: Endpoint,
        now: SimTime,
    ) -> Option<Endpoint> {
        self.store
            .iter_live()
            .find(|&(slot, m)| {
                m.proto == proto && m.internal == internal && !self.store.expired_at(slot, now)
            })
            .map(|(_, m)| m.external)
    }

    /// Unexpired-mapping count per internal host at `now` — the
    /// ports-per-subscriber observable that drives port-demand
    /// dimensioning (one external port is held per mapping).
    pub fn ports_by_host(&self, now: SimTime) -> HashMap<Ipv4Addr, u32> {
        let mut out: HashMap<Ipv4Addr, u32> = HashMap::new();
        for (slot, m) in self.store.iter_live() {
            if !self.store.expired_at(slot, now) {
                *out.entry(m.internal.ip).or_insert(0) += 1;
            }
        }
        out
    }

    /// The values of [`Nat::ports_by_host`] without the address map:
    /// unexpired-mapping counts per active host in host-interning
    /// order. The traffic driver's demand-sampling hot path — one
    /// dense pass over the slab, no per-host hashing.
    pub fn active_ports_per_host(&self, now: SimTime) -> Vec<u32> {
        self.store.active_ports_per_host(now)
    }

    /// Allocator fill level per (external IP, protocol), sorted for
    /// deterministic iteration. `allocated` counts ports currently held
    /// (including ones whose mapping is stale but unswept).
    pub fn port_occupancy(&self) -> Vec<PortOccupancy> {
        let mut out: Vec<PortOccupancy> = self
            .allocators
            .iter()
            .enumerate()
            .filter_map(|(pool, a)| {
                let a = a.as_ref()?;
                let (ip, proto) = self.store.pool_entry(pool as u32);
                Some(PortOccupancy {
                    ext_ip: ip,
                    proto,
                    allocated: a.allocated(),
                    capacity: a.capacity(),
                })
            })
            .collect();
        out.sort_by_key(|o| (o.ext_ip, o.proto));
        out
    }

    /// Remove all mappings whose idle timer has run out.
    ///
    /// Cheap when called often: expiries are tracked on the store's
    /// hierarchical timer wheel, so a sweep walks only the buckets that
    /// became due since the last one — its cost follows the number of
    /// expiring mappings, not the table size (see
    /// [`NatStats::sweep_scans`] vs [`NatStats::sweeps`]).
    pub fn sweep(&mut self, now: SimTime) {
        let mut clock = self.phase_clock();
        self.stats.sweeps += 1;
        let (inspected, due) = self.store.sweep_due(now);
        if inspected > 0 {
            self.stats.sweep_scans += 1;
            if let Some(p) = &mut self.probe {
                p.sweep(due.len() as u64);
            }
        }
        for (i, &slot) in due.iter().enumerate() {
            self.store.prefetch_removals(&due, i);
            self.remove_mapping(slot, now);
            self.stats.mappings_expired += 1;
        }
        self.phase_lap(&mut clock, Phase::Sweep);
    }

    /// Start a wall-clock phase clock whose laps count once each,
    /// `None` unless a tracer with phase profiling is installed — so
    /// disabled runs never read the clock. For regions timed every
    /// time they run: the barrier phases and the burst entry points.
    #[inline]
    pub fn phase_clock(&self) -> Option<PhaseClock> {
        self.tracer()?.phase_clock()
    }

    /// Start the phase clock for one window of the traffic driver:
    /// `Some` for one window in N of this shard, and then every lap
    /// and span taken on it is recorded with weight N; `None` — no
    /// clock read at all — for the others, and whenever
    /// [`Nat::phase_clock`] is `None`. The tracer keeps the count and
    /// documents the estimate ([`ShardTracer::window_clock`]).
    #[inline]
    pub fn window_clock(&mut self) -> Option<PhaseClock> {
        self.phase_tracer()?.window_clock()
    }

    /// Record the elapsed lap under `phase`, with the clock's weight,
    /// and restart the clock ([`ShardTracer::lap`]). Wall-clock goes
    /// only into the tracer's phase histograms — an annotation layer
    /// outside every deterministic digest.
    #[inline]
    pub fn phase_lap(&mut self, clock: &mut Option<PhaseClock>, phase: Phase) {
        if let Some(clock) = clock {
            if let Some(tracer) = self.phase_tracer() {
                tracer.lap(clock, phase);
            }
        }
    }

    /// Record under `phase` what `clock`'s laps recorded since the
    /// copy `since` was taken, without reading the wall clock: for a
    /// caller's phase that is exactly a run of laps already taken on
    /// `clock` (the driver's `Translate` is the engine's stage and
    /// translate laps).
    #[inline]
    pub fn phase_span(
        &mut self,
        phase: Phase,
        since: Option<PhaseClock>,
        clock: Option<PhaseClock>,
    ) {
        if let (Some(t0), Some(t1)) = (since, clock) {
            if let Some(tracer) = self.phase_tracer() {
                tracer.span(phase, t0, t1);
            }
        }
    }

    fn remove_mapping(&mut self, slot: u32, now: SimTime) {
        if let Some((m, pool)) = self.store.remove(slot) {
            let mut grant = None;
            if let Some(Some(a)) = self.allocators.get_mut(pool as usize) {
                a.release(m.external.port);
                grant = a.take_block_grant();
            }
            if let Some(p) = &mut self.probe {
                p.expire(slot, &MappingEvent::of(&m, now), grant);
            }
        }
    }

    fn timeout_for(&self, proto: Protocol, tcp: Option<TcpConnState>) -> SimDuration {
        match proto {
            Protocol::Udp => self.config.udp_timeout,
            Protocol::Tcp => match tcp {
                Some(TcpConnState::Established) => self.config.tcp_established_timeout,
                _ => self.config.tcp_transitory_timeout,
            },
        }
    }

    fn pick_external_ip(&mut self, host: u32) -> Ipv4Addr {
        match self.config.pooling {
            Pooling::Paired => {
                if let Some(ip) = self.store.paired_ext(host) {
                    return ip;
                }
                let idx = self.rng.gen_range(0..self.external_ips.len());
                let ip = self.external_ips[idx];
                self.store.set_paired_ext(host, ip);
                ip
            }
            Pooling::Arbitrary => {
                let idx = self.rng.gen_range(0..self.external_ips.len());
                self.external_ips[idx]
            }
        }
    }

    /// The TCP state a mapping moves to when a segment with `flags`
    /// crosses it (RFC 5382 §5, RFC 7857 §2.2): a SYN opens it
    /// transitory, the first ACK after that establishes it, and an RST
    /// or FIN puts it on the transitory clock for good.
    ///
    /// Only a segment the mapping's own connection could have sent moves
    /// the state: every outbound segment, and an inbound one whose source
    /// is an endpoint in the mapping's `contacted` set. An inbound
    /// segment from any other endpoint changes no state, whatever its
    /// flags and whatever the filtering admits, so a stranger's RST
    /// cannot cut an established mapping's life to the transitory
    /// timeout; [`Nat::translate_inbound`] does not call this for it.
    ///
    /// Sequence numbers are not modelled, so an RST whose source is
    /// forged to a contacted endpoint cannot be told from a real one
    /// and does close the mapping. Its bound: the mapping still lives
    /// at least one `tcp_transitory_timeout` after that RST.
    fn tcp_update(state: Option<TcpConnState>, flags: TcpFlags) -> Option<TcpConnState> {
        Some(match (state, flags) {
            (_, f) if f.rst || f.fin => TcpConnState::Closing,
            (None, f) if f.syn && !f.ack => TcpConnState::Transitory,
            (Some(TcpConnState::Transitory), f) if f.ack => TcpConnState::Established,
            (Some(s), _) => s,
            (None, _) => TcpConnState::Transitory,
        })
    }

    /// Process one packet leaving the internal realm: the simulator's
    /// boundary over the outbound core. ICMP (router-originated, e.g.
    /// TTL exceeded inside the access network) passes unmodified: the
    /// classic "private IP in traceroute" artifact.
    pub fn process_outbound(&mut self, mut pkt: Packet, now: SimTime) -> NatVerdict {
        let Some(mut h) = Header::of(&pkt) else {
            self.stats.out_packets += 1;
            return NatVerdict::Forward(pkt);
        };
        let key = self
            .store
            .out_key(self.config.mapping, h.proto(), h.src, h.dst);
        let verdict = self.translate_outbound(&mut h, now, key);
        self.store.flush_ext_index();
        h.write_to(&mut pkt);
        verdict.with(pkt)
    }

    /// Stages 1–2 of the outbound burst pipeline over `headers`, which
    /// must then be handed to [`Nat::translate_staged`] in the same
    /// order (in one call or several).
    ///
    /// A lookup in a table far larger than the cache is two dependent
    /// misses — a random index cell, then the slab rows it names — and
    /// the pipeline exists to take a whole burst's misses of each kind
    /// at once instead of one packet's after another's. **Resolve**, in
    /// arrival order, packs every header's out-key (key packing interns
    /// hosts, so the interner evolves exactly as under
    /// [`Nat::process_outbound`]) and prefetches the index cell its
    /// probe starts at; **prefetch** reads those cells, now cached, with
    /// a tag-only probe ([`MappingStore::hint_out`]), and for every
    /// **candidate slot** it names prefetches each line of that slot's
    /// hot and cold row: the packet will most likely refresh that
    /// mapping. A header without a candidate will most likely create a
    /// mapping, and nothing is prefetched for it.
    ///
    /// The hint is left unverified on purpose: verifying a candidate
    /// reads the cold row, the very miss the stage overlaps. A wrong or
    /// stale hint (a fingerprint collision, a slot freed or re-used)
    /// costs a useless prefetch and can change nothing. Neither stage
    /// reads simulated time. The two stages lap `clock` (the caller's
    /// [`Nat::phase_clock`]) as [`Phase::BurstResolve`] and
    /// [`Phase::BurstPrefetch`].
    pub fn stage_burst(&mut self, headers: &[Header], clock: &mut Option<PhaseClock>) {
        let staged = self.outbound_plan.len();
        // Stage 1 — keys in arrival order, index cells on their way.
        for h in headers {
            let key = self
                .store
                .out_key(self.config.mapping, h.proto(), h.src, h.dst);
            self.store.prefetch_out_cell(key);
            self.outbound_plan.push_back(key);
        }
        self.phase_lap(clock, Phase::BurstResolve);

        // Stage 2 — candidate rows on their way.
        let mut rows = 0u64;
        for &key in self.outbound_plan.range(staged..) {
            if let Some(slot) = self.store.hint_out(key) {
                self.store.prefetch_slot(slot);
                rows += 1;
            }
        }
        if let Some(p) = &mut self.probe {
            p.burst(headers.len() as u64, rows);
        }
        self.phase_lap(clock, Phase::BurstPrefetch);
    }

    /// Stage 3 of the outbound burst pipeline: translate `headers` — the
    /// next headers [`Nat::stage_burst`] staged, in staging order — at
    /// `now`, rewriting each in place (see [`Header`]) and appending one
    /// verdict per header to `verdicts`. Runs in arrival order through
    /// the outbound core that [`Nat::process_outbound`] runs, which
    /// probes again and verifies the full key, so RNG draws, interner
    /// growth, sink/metrics fire order and verdicts — and therefore
    /// [`NatStats`], store state and telemetry logs — are bit-identical
    /// to translating one packet at a time, for every burst size. The
    /// creates of one call overlap their external-index misses: each
    /// cell is written a few creates after it was asked for, the last
    /// ones before the call returns (see [`MappingStore::insert`]).
    /// Laps `clock` as [`Phase::BurstTranslate`].
    ///
    /// Panics if more headers are handed in than were staged.
    pub fn translate_staged(
        &mut self,
        headers: &mut [Header],
        now: SimTime,
        verdicts: &mut Vec<HeaderVerdict>,
        clock: &mut Option<PhaseClock>,
    ) {
        for h in headers {
            let key = self.outbound_plan.pop_front().expect("header was staged");
            verdicts.push(self.translate_outbound(h, now, key));
        }
        self.store.flush_ext_index();
        self.phase_lap(clock, Phase::BurstTranslate);
    }

    /// The outbound core: reuse or create the mapping for an
    /// already-packed out-key, refresh it, and rewrite `h`.
    fn translate_outbound(&mut self, h: &mut Header, now: SimTime, key: u128) -> HeaderVerdict {
        self.stats.out_packets += 1;
        let internal = h.src;

        // Reuse an existing mapping if present and fresh. The expiry
        // check reads the store's hot array — one 16-byte row — not
        // the cold mapping.
        let slot = match self.store.lookup_out(key) {
            Some(slot) if !self.store.expired_at(slot, now) => Some(slot),
            Some(slot) => {
                self.remove_mapping(slot, now);
                self.stats.mappings_expired += 1;
                None
            }
            None => None,
        };

        let reused = slot.is_some();
        let slot = match slot {
            Some(slot) => slot,
            None => match self.create_mapping(key, h.proto(), internal, h.dst, now) {
                Ok(slot) => slot,
                Err(reason) => {
                    self.stats.record_drop(reason);
                    return HeaderVerdict::Drop(reason);
                }
            },
        };

        // Refresh + filter state + TCP tracking.
        self.store.contact(slot, h.dst);
        let mut tcp = self.store.tcp(slot);
        if let Some(f) = h.flags {
            tcp = Self::tcp_update(tcp, f);
            self.store.set_tcp(slot, tcp);
        }
        let external = self.store.external(slot);
        let t = self.timeout_for(h.proto(), tcp);
        self.store.set_expiry(slot, now + t);
        if let Some(p) = &mut self.probe {
            p.translate(slot, now, reused);
        }

        h.src = external;
        if self.is_external_ip(h.dst.ip) {
            return self.hairpin(h, internal, now);
        }
        HeaderVerdict::Forward
    }

    /// Create the mapping for a flow from `internal` to `dst` under the
    /// packed out-key `key`.
    fn create_mapping(
        &mut self,
        key: u128,
        proto: Protocol,
        internal: Endpoint,
        dst: Endpoint,
        now: SimTime,
    ) -> Result<u32, DropReason> {
        let host = MappingStore::host_of_key(key);
        if let Some(cap) = self.config.max_sessions_per_host {
            if self.store.host_sessions(host) >= cap {
                return Err(DropReason::SessionLimit);
            }
        }
        let (external, pool, grant) = if self.config.transparent {
            // Stateful firewall: state is kept, addresses are not
            // touched — and no port is allocated, so the pool is
            // interned here for the ext-key alone.
            (internal, self.store.intern_pool(internal.ip, proto), None)
        } else {
            // Deterministic NAT computes both the external IP and the
            // port block from the internal address (RFC 7422) — no
            // pooling choice, no RNG draw, no grant records.
            let det = match self.config.port_alloc {
                PortAllocation::Deterministic { ports_per_host } => {
                    Some(ports::deterministic_block(
                        internal.ip,
                        self.external_ips.len(),
                        self.config.port_range,
                        ports_per_host,
                    ))
                }
                _ => None,
            };
            let ext_ip = match det {
                Some((ip_index, _, _)) => self.external_ips[ip_index],
                None => self.pick_external_ip(host),
            };
            let pool = self.store.intern_pool(ext_ip, proto);
            if self.allocators.len() <= pool as usize {
                self.allocators.resize_with(pool as usize + 1, || None);
            }
            let strategy = self.config.port_alloc;
            let range = self.config.port_range;
            let alloc = self.allocators[pool as usize]
                .get_or_insert_with(|| PortAllocator::new(strategy, range));
            let port = match det {
                Some((_, start, len)) => alloc.allocate_deterministic(start, len),
                None => alloc.allocate(internal.ip, internal.port, proto, &mut self.rng),
            }
            .map_err(|e| match e {
                PortError::Exhausted | PortError::ChunkFull | PortError::NoFreeChunk => {
                    DropReason::PortExhausted
                }
            })?;
            let grant = alloc.take_block_grant();
            (Endpoint::new(ext_ip, port), pool, grant)
        };
        let timeout = self.timeout_for(proto, None);
        let slot = self
            .store
            .insert(key, pool, external.port, dst, now + timeout);
        self.stats.mappings_created += 1;
        self.stats.peak_mappings = self.stats.peak_mappings.max(self.store.len() as u64);
        if let Some(p) = &mut self.probe {
            let event = MappingEvent {
                at: now,
                proto,
                internal,
                external,
            };
            p.admit(slot, &event, grant);
        }
        Ok(slot)
    }

    /// Loop a translated outbound header back to the internal realm
    /// (its destination is one of this device's pool addresses).
    fn hairpin(&mut self, h: &mut Header, original_src: Endpoint, now: SimTime) -> HeaderVerdict {
        if !self.config.hairpinning {
            self.stats.record_drop(DropReason::NoHairpin);
            return HeaderVerdict::Drop(DropReason::NoHairpin);
        }
        // `h` already has its source rewritten to the external
        // endpoint; its destination is one of our pool addresses. Find
        // the target mapping, apply the target's filtering policy
        // against the (translated) source, then deliver internally. If
        // the NAT is configured to leave the internal source in place —
        // the leak mechanism of §4.1 — the delivered packet carries
        // `original_src`.
        //
        // The one ext-index reader inside a create run: settle the
        // index first, so that it answers as it would without the
        // queue even where two mappings share an external endpoint.
        self.store.flush_ext_index();
        let target = match self.store.lookup_ext(h.proto(), h.dst) {
            Some(slot) if !self.store.expired_at(slot, now) => slot,
            _ => {
                self.stats.record_drop(DropReason::NoMapping);
                return HeaderVerdict::Drop(DropReason::NoMapping);
            }
        };
        if !self.filter_admits(target, h.src) {
            self.stats.record_drop(DropReason::Filtered);
            return HeaderVerdict::Drop(DropReason::Filtered);
        }
        if self.config.refresh_inbound {
            let t = self.timeout_for(h.proto(), self.store.tcp(target));
            self.store.set_expiry(target, now + t);
        }
        h.dst = self.store.internal(target);
        if self.config.hairpin_internal_source {
            h.src = original_src;
        }
        self.stats.hairpins += 1;
        HeaderVerdict::Hairpin
    }

    fn filter_admits(&self, slot: u32, remote: Endpoint) -> bool {
        match self.config.filtering {
            FilteringBehavior::EndpointIndependent => true,
            FilteringBehavior::AddressDependent => self.store.has_contacted_ip(slot, remote.ip),
            FilteringBehavior::AddressAndPortDependent => self.store.has_contacted(slot, &remote),
        }
    }

    /// Process one packet arriving from the core at one of the external
    /// IPs: the simulator's boundary over the inbound core. An ICMP
    /// error is matched to the flow it quotes.
    pub fn process_inbound(&mut self, mut pkt: Packet, now: SimTime) -> NatVerdict {
        let Some(mut h) = Header::of(&pkt) else {
            return self.inbound_icmp(pkt);
        };
        let key = self.store.ext_key_of(h.proto(), h.dst);
        let verdict = self.translate_inbound(&mut h, now, key);
        h.write_to(&mut pkt);
        verdict.with(pkt)
    }

    /// Stages 1–2 of the inbound burst pipeline over `headers`, which
    /// must then be handed to [`Nat::translate_inbound_staged`] in the
    /// same order — the inbound mirror of [`Nat::stage_burst`], over
    /// the ext-key index. **Resolve** packs every header's ext-key
    /// (inbound key derivation never interns — a stray pool stays
    /// uninterned and simply cannot match) and prefetches the index
    /// cell its probe starts at; **prefetch** reads the cached cells
    /// with a tag-only probe ([`MappingStore::hint_ext`]) and
    /// prefetches every line of the candidate slot's rows. As outbound,
    /// the hint is unverified and can change nothing, and the stages
    /// lap the caller's `clock`.
    pub fn stage_inbound_burst(&mut self, headers: &[Header], clock: &mut Option<PhaseClock>) {
        let staged = self.inbound_plan.len();
        // Stage 1 — keys in arrival order, index cells on their way.
        for h in headers {
            let key = self.store.ext_key_of(h.proto(), h.dst);
            if let Some(key) = key {
                self.store.prefetch_ext_cell(key);
            }
            self.inbound_plan.push_back(key);
        }
        self.phase_lap(clock, Phase::BurstResolve);

        // Stage 2 — candidate rows on their way.
        let mut rows = 0u64;
        for &key in self.inbound_plan.range(staged..) {
            if let Some(slot) = key.and_then(|k| self.store.hint_ext(k)) {
                self.store.prefetch_slot(slot);
                rows += 1;
            }
        }
        if let Some(p) = &mut self.probe {
            p.burst_in(headers.len() as u64, rows);
        }
        self.phase_lap(clock, Phase::BurstPrefetch);
    }

    /// Stage 3 of the inbound burst pipeline: translate `headers` — the
    /// next headers [`Nat::stage_inbound_burst`] staged, in staging
    /// order — at `now`, rewriting each in place and appending one
    /// verdict per header to `verdicts`, through the inbound core that
    /// [`Nat::process_inbound`] runs. Filtering, expiry-on-touch
    /// removal, TCP tracking, stats and sink/metrics fire order are all
    /// arrival-order, so results are bit-identical to translating one
    /// packet at a time. Laps `clock` as [`Phase::BurstTranslate`].
    ///
    /// Panics if more headers are handed in than were staged.
    pub fn translate_inbound_staged(
        &mut self,
        headers: &mut [Header],
        now: SimTime,
        verdicts: &mut Vec<HeaderVerdict>,
        clock: &mut Option<PhaseClock>,
    ) {
        for h in headers {
            let key = self.inbound_plan.pop_front().expect("header was staged");
            verdicts.push(self.translate_inbound(h, now, key));
        }
        self.phase_lap(clock, Phase::BurstTranslate);
    }

    /// The inbound core: look up the mapping under an already-packed
    /// ext-key (`None` when the destination pool was never interned),
    /// apply filtering, track TCP state for segments from contacted
    /// endpoints ([`Nat::tcp_update`]), refresh, and rewrite `h`'s
    /// destination to the internal endpoint.
    ///
    /// The bound on an off-path scan: no inbound packet creates state,
    /// so a stranger sending UDP or TCP to every port of every pool
    /// address leaves mappings, store and port occupancy and the bytes
    /// the NAT reserves as they were, and each of its packets is
    /// forwarded or counted in exactly one of `drop_no_mapping` (no
    /// mapping on the port) and `drop_filtered`. Under EIF with
    /// `refresh_inbound`, the scan keeps exactly the live mappings it
    /// reaches alive, and so pins their ports, for as long as it keeps
    /// sending; every other mapping expires on time
    /// (`an_inbound_scan_creates_no_state`).
    fn translate_inbound(
        &mut self,
        h: &mut Header,
        now: SimTime,
        key: Option<u64>,
    ) -> HeaderVerdict {
        self.stats.in_packets += 1;
        let slot = match key.and_then(|k| self.store.lookup_ext_key(k)) {
            Some(slot) if !self.store.expired_at(slot, now) => slot,
            Some(slot) => {
                self.remove_mapping(slot, now);
                self.stats.mappings_expired += 1;
                self.stats.record_drop(DropReason::NoMapping);
                return HeaderVerdict::Drop(DropReason::NoMapping);
            }
            None => {
                self.stats.record_drop(DropReason::NoMapping);
                return HeaderVerdict::Drop(DropReason::NoMapping);
            }
        };

        if !self.filter_admits(slot, h.src) {
            self.stats.record_drop(DropReason::Filtered);
            return HeaderVerdict::Drop(DropReason::Filtered);
        }

        let mut tcp = self.store.tcp(slot);
        if let Some(f) = h.flags {
            if self.store.has_contacted(slot, &h.src) {
                tcp = Self::tcp_update(tcp, f);
                self.store.set_tcp(slot, tcp);
            }
        }
        let internal = self.store.internal(slot);
        if self.config.refresh_inbound {
            let t = self.timeout_for(h.proto(), tcp);
            self.store.set_expiry(slot, now + t);
        }
        if let Some(p) = &mut self.probe {
            p.translate_in(slot, now);
        }
        h.dst = internal;
        HeaderVerdict::Forward
    }

    /// Translate an inbound ICMP error referring to a flow we translated:
    /// the quoted original source is the mapping's external endpoint.
    fn inbound_icmp(&mut self, mut pkt: Packet) -> NatVerdict {
        self.stats.in_packets += 1;
        if let PacketBody::Icmp { original_src, .. } = &mut pkt.body {
            for proto in [Protocol::Udp, Protocol::Tcp] {
                if let Some(slot) = self.store.lookup_ext(proto, *original_src) {
                    let internal = self.store.internal(slot);
                    *original_src = internal;
                    pkt.dst = Endpoint::new(internal.ip, 0);
                    return NatVerdict::Forward(pkt);
                }
            }
        }
        self.stats.record_drop(DropReason::UnmatchedIcmp);
        NatVerdict::Drop(DropReason::UnmatchedIcmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MappingBehavior;
    use crate::telemetry::BlockEvent;
    use netcore::ip;
    use std::collections::HashSet;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn internal_host(last: u8) -> Endpoint {
        Endpoint::new(ip(100, 64, 0, last), 40000)
    }

    fn server() -> Endpoint {
        Endpoint::new(ip(203, 0, 113, 10), 8000)
    }

    fn pool() -> Vec<Ipv4Addr> {
        vec![
            ip(198, 51, 100, 1),
            ip(198, 51, 100, 2),
            ip(198, 51, 100, 3),
        ]
    }

    fn nat(config: NatConfig) -> Nat {
        Nat::new(config, pool(), 7)
    }

    fn udp_out(nat: &mut Nat, src: Endpoint, dst: Endpoint, now: SimTime) -> Packet {
        match nat.process_outbound(Packet::udp(src, dst, vec![1]), now) {
            NatVerdict::Forward(p) => p,
            v => panic!("expected Forward, got {v:?}"),
        }
    }

    /// What a caller sees of one translated header: the verdict, and
    /// the rewritten header unless it was dropped.
    type Seen = (HeaderVerdict, Option<Header>);

    fn seen(v: HeaderVerdict, h: Header) -> Seen {
        (v, (!matches!(v, HeaderVerdict::Drop(_))).then_some(h))
    }

    /// `headers` one packet at a time through the `Packet` boundary.
    fn scalar(n: &mut Nat, headers: &[Header], now: SimTime, inbound: bool) -> Vec<Seen> {
        let seen_packet = |v: NatVerdict| match v {
            NatVerdict::Forward(p) => (HeaderVerdict::Forward, Header::of(&p)),
            NatVerdict::Hairpin(p) => (HeaderVerdict::Hairpin, Header::of(&p)),
            NatVerdict::Drop(r) => (HeaderVerdict::Drop(r), None),
        };
        headers
            .iter()
            .map(|h| {
                let pkt = match h.flags {
                    None => Packet::udp(h.src, h.dst, vec![1]),
                    Some(f) => Packet::tcp(h.src, h.dst, f, vec![1]),
                };
                seen_packet(if inbound {
                    n.process_inbound(pkt, now)
                } else {
                    n.process_outbound(pkt, now)
                })
            })
            .collect()
    }

    /// `headers` as one burst through the staging halves at `now`.
    fn burst(n: &mut Nat, headers: &[Header], now: SimTime, inbound: bool) -> Vec<Seen> {
        let mut headers = headers.to_vec();
        let mut verdicts = Vec::new();
        let mut clock = n.phase_clock();
        if inbound {
            n.stage_inbound_burst(&headers, &mut clock);
            n.translate_inbound_staged(&mut headers, now, &mut verdicts, &mut clock);
        } else {
            n.stage_burst(&headers, &mut clock);
            n.translate_staged(&mut headers, now, &mut verdicts, &mut clock);
        }
        verdicts
            .into_iter()
            .zip(headers)
            .map(|(v, h)| seen(v, h))
            .collect()
    }

    #[test]
    fn header_is_small_and_copy() {
        assert!(std::mem::size_of::<Header>() <= 16);
        assert!(std::mem::size_of::<HeaderVerdict>() <= 2);
    }

    #[test]
    fn outbound_rewrites_source_to_pool() {
        let mut n = nat(NatConfig::cgn_default());
        let p = udp_out(&mut n, internal_host(1), server(), t(0));
        assert!(n.is_external_ip(p.src.ip));
        assert_eq!(p.dst, server());
        assert_eq!(n.mapping_count(), 1);
    }

    #[test]
    fn eim_reuses_mapping_across_destinations() {
        let mut n = nat(NatConfig::cgn_default());
        let a = udp_out(&mut n, internal_host(1), server(), t(0));
        let other = Endpoint::new(ip(203, 0, 113, 99), 9999);
        let b = udp_out(&mut n, internal_host(1), other, t(1));
        assert_eq!(a.src, b.src, "endpoint-independent mapping must be reused");
        assert_eq!(n.mapping_count(), 1);
    }

    #[test]
    fn symmetric_creates_mapping_per_destination() {
        let mut cfg = NatConfig::cgn_default();
        cfg.mapping = MappingBehavior::AddressAndPortDependent;
        let mut n = nat(cfg);
        let a = udp_out(&mut n, internal_host(1), server(), t(0));
        let other = Endpoint::new(ip(203, 0, 113, 99), 9999);
        let b = udp_out(&mut n, internal_host(1), other, t(1));
        assert_ne!(a.src, b.src, "symmetric NAT must allocate a fresh mapping");
        assert_eq!(n.mapping_count(), 2);
    }

    #[test]
    fn address_dependent_mapping_keyed_by_dst_ip() {
        let mut cfg = NatConfig::cgn_default();
        cfg.mapping = MappingBehavior::AddressDependent;
        let mut n = nat(cfg);
        let a = udp_out(&mut n, internal_host(1), server(), t(0));
        // Same IP, different port: reuse.
        let b = udp_out(
            &mut n,
            internal_host(1),
            Endpoint::new(server().ip, 1234),
            t(0),
        );
        assert_eq!(a.src, b.src);
        // Different IP: new mapping.
        let c = udp_out(
            &mut n,
            internal_host(1),
            Endpoint::new(ip(203, 0, 113, 99), 8000),
            t(0),
        );
        assert_ne!(a.src, c.src);
    }

    #[test]
    fn inbound_requires_mapping() {
        let mut n = nat(NatConfig::cgn_default());
        let stray = Packet::udp(server(), Endpoint::new(ip(198, 51, 100, 1), 5555), vec![]);
        assert_eq!(
            n.process_inbound(stray, t(0)),
            NatVerdict::Drop(DropReason::NoMapping)
        );
        assert_eq!(n.stats().drop_no_mapping, 1);
    }

    #[test]
    fn full_cone_admits_any_source() {
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        let mut n = nat(cfg);
        let out = udp_out(&mut n, internal_host(1), server(), t(0));
        let stranger = Endpoint::new(ip(9, 9, 9, 9), 53);
        let inbound = Packet::udp(stranger, out.src, vec![2]);
        match n.process_inbound(inbound, t(1)) {
            NatVerdict::Forward(p) => assert_eq!(p.dst, internal_host(1)),
            v => panic!("full cone must forward, got {v:?}"),
        }
    }

    #[test]
    fn address_restricted_requires_contacted_ip() {
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::AddressDependent;
        let mut n = nat(cfg);
        let out = udp_out(&mut n, internal_host(1), server(), t(0));
        // Same IP, different port: admitted.
        let same_ip = Packet::udp(Endpoint::new(server().ip, 999), out.src, vec![]);
        assert!(matches!(
            n.process_inbound(same_ip, t(1)),
            NatVerdict::Forward(_)
        ));
        // Different IP: filtered.
        let stranger = Packet::udp(Endpoint::new(ip(9, 9, 9, 9), 8000), out.src, vec![]);
        assert_eq!(
            n.process_inbound(stranger, t(1)),
            NatVerdict::Drop(DropReason::Filtered)
        );
    }

    #[test]
    fn port_restricted_requires_exact_endpoint() {
        let mut n = nat(NatConfig::cgn_default()); // APDF by default
        let out = udp_out(&mut n, internal_host(1), server(), t(0));
        let exact = Packet::udp(server(), out.src, vec![]);
        assert!(matches!(
            n.process_inbound(exact, t(1)),
            NatVerdict::Forward(_)
        ));
        let same_ip_other_port = Packet::udp(Endpoint::new(server().ip, 999), out.src, vec![]);
        assert_eq!(
            n.process_inbound(same_ip_other_port, t(1)),
            NatVerdict::Drop(DropReason::Filtered)
        );
    }

    #[test]
    fn restricted_filtering_admits_exactly_the_contacted_sources() {
        // Four destinations through one EIM mapping: two contacts held
        // inline, two spilled. Every source on those addresses and
        // ports, and on two never contacted, is tried against both
        // restricted filters.
        let contacted = [(1, 80), (2, 80), (3, 443), (4, 53)]
            .map(|(host, port)| Endpoint::new(ip(203, 0, 113, host), port));
        for filtering in [
            FilteringBehavior::AddressDependent,
            FilteringBehavior::AddressAndPortDependent,
        ] {
            let mut cfg = NatConfig::cgn_default();
            cfg.filtering = filtering;
            let mut n = nat(cfg);
            let ext = contacted.map(|dst| udp_out(&mut n, internal_host(1), dst, t(0)).src);
            assert!(ext.iter().all(|&e| e == ext[0]) && n.mapping_count() == 1);
            for host in 1..=6 {
                for port in [53, 80, 443, 999] {
                    let src = Endpoint::new(ip(203, 0, 113, host), port);
                    let admit = match filtering {
                        FilteringBehavior::AddressDependent => {
                            contacted.iter().any(|c| c.ip == src.ip)
                        }
                        _ => contacted.contains(&src),
                    };
                    let v = n.process_inbound(Packet::udp(src, ext[0], vec![]), t(1));
                    assert_eq!(
                        matches!(v, NatVerdict::Forward(_)),
                        admit,
                        "{filtering:?} from {src}: {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn udp_mapping_expires_after_idle_timeout() {
        let mut n = nat(NatConfig::cgn_default()); // 60 s UDP timeout
        let out = udp_out(&mut n, internal_host(1), server(), t(0));
        // Just before expiry: inbound passes (and refreshes).
        let back = Packet::udp(server(), out.src, vec![]);
        assert!(matches!(
            n.process_inbound(back.clone(), t(59)),
            NatVerdict::Forward(_)
        ));
        // 59 + 60 = 119 s is the refreshed deadline; at 120 s it is gone.
        assert_eq!(
            n.process_inbound(back, t(120)),
            NatVerdict::Drop(DropReason::NoMapping)
        );
    }

    #[test]
    fn outbound_refresh_keeps_mapping_alive() {
        let mut n = nat(NatConfig::cgn_default());
        let first = udp_out(&mut n, internal_host(1), server(), t(0));
        for k in 1..=10 {
            let p = udp_out(&mut n, internal_host(1), server(), t(30 * k));
            assert_eq!(p.src, first.src, "refreshed mapping must be stable");
        }
        assert_eq!(n.stats().mappings_created, 1);
    }

    #[test]
    fn no_inbound_refresh_when_disabled() {
        let mut cfg = NatConfig::cgn_default();
        cfg.refresh_inbound = false;
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        let mut n = nat(cfg);
        let out = udp_out(&mut n, internal_host(1), server(), t(0));
        let back = Packet::udp(server(), out.src, vec![]);
        assert!(matches!(
            n.process_inbound(back.clone(), t(30)),
            NatVerdict::Forward(_)
        ));
        // Inbound at 30 s did not refresh; the mapping dies at 60 s.
        assert_eq!(
            n.process_inbound(back, t(61)),
            NatVerdict::Drop(DropReason::NoMapping)
        );
    }

    #[test]
    fn sweep_releases_ports_and_counts() {
        let mut n = nat(NatConfig::cgn_default());
        for h in 1..=5 {
            udp_out(&mut n, internal_host(h), server(), t(0));
        }
        assert_eq!(n.mapping_count(), 5);
        n.sweep(t(61));
        assert_eq!(n.mapping_count(), 0);
        assert_eq!(n.stats().mappings_expired, 5);
    }

    #[test]
    fn sweep_fast_path_skips_scan_before_due_bucket() {
        let mut n = nat(NatConfig::cgn_default()); // 60 s UDP timeout
        n.sweep(t(5));
        assert_eq!(n.stats().sweeps, 1);
        assert_eq!(n.stats().sweep_scans, 0, "empty table never scans");
        udp_out(&mut n, internal_host(1), server(), t(0)); // expiry 60
        for s in [10, 30, 59] {
            n.sweep(t(s));
        }
        assert_eq!(n.stats().sweeps, 4);
        assert_eq!(
            n.stats().sweep_scans,
            0,
            "no wheel bucket is due before the expiry"
        );
        assert_eq!(n.mapping_count(), 1);
        n.sweep(t(60)); // expiry <= now: the mapping is dead
        assert_eq!(n.stats().sweep_scans, 1);
        assert_eq!(n.mapping_count(), 0);
        assert_eq!(n.stats().mappings_expired, 1);
        n.sweep(t(1000)); // empty again: back on the fast path
        assert_eq!(n.stats().sweep_scans, 1);
    }

    #[test]
    fn sweep_lazy_refresh_reschedules_on_the_wheel() {
        let mut n = nat(NatConfig::cgn_default());
        udp_out(&mut n, internal_host(1), server(), t(0)); // expiry 60
                                                           // Refresh pushes the expiry to 110 but lazily leaves the
                                                           // timer entry parked at 60: draining that bucket finds the
                                                           // mapping alive and re-files it at the real expiry.
        udp_out(&mut n, internal_host(1), server(), t(50));
        n.sweep(t(70));
        assert_eq!(n.mapping_count(), 1, "refreshed mapping must survive");
        assert_eq!(n.stats().sweep_scans, 1);
        // Fast path resumes against the rescheduled entry…
        n.sweep(t(109));
        assert_eq!(n.stats().sweep_scans, 1);
        // …and expiry is still detected on time.
        n.sweep(t(110));
        assert_eq!(n.mapping_count(), 0);
        assert_eq!(n.stats().sweep_scans, 2);
    }

    /// A full TCP handshake through `n` from `src`; returns the
    /// mapping's external endpoint.
    fn tcp_connect(n: &mut Nat, src: Endpoint, now: SimTime) -> Endpoint {
        let syn = Packet::tcp(src, server(), TcpFlags::SYN, vec![]);
        let NatVerdict::Forward(out) = n.process_outbound(syn, now) else {
            panic!("SYN refused");
        };
        let syn_ack = Packet::tcp(server(), out.src, TcpFlags::SYN_ACK, vec![]);
        assert!(matches!(
            n.process_inbound(syn_ack, now),
            NatVerdict::Forward(_)
        ));
        let ack = Packet::tcp(src, server(), TcpFlags::ACK, vec![]);
        assert!(matches!(
            n.process_outbound(ack, now),
            NatVerdict::Forward(_)
        ));
        out.src
    }

    #[test]
    fn a_nat_reserves_what_its_mappings_need() {
        // What the paper's pipeline builds by the hundred: a home CPE
        // with one external address, a few UDP flows kept alive and two
        // TCP connections. Five minutes in, every structure is in use —
        // both arenas, a port set per protocol, both indices, and wheel
        // tables on three levels (UDP within the minute, a TCP handshake
        // on the transitory clock, an established connection two hours
        // out).
        let mut home = Nat::new(NatConfig::home_cpe(), vec![ip(198, 51, 100, 1)], 7);
        assert_eq!(home.reserved_bytes(), 0, "untouched NAT");
        let udp: Vec<Endpoint> = (0..4)
            .map(|k| Endpoint::new(ip(192, 168, 1, 10 + k / 2), 5000 + k as u16))
            .collect();
        for secs in (0..=300).step_by(60) {
            for &src in &udp {
                udp_out(&mut home, src, server(), t(secs));
            }
            if secs == 0 {
                tcp_connect(&mut home, Endpoint::new(ip(192, 168, 1, 10), 6000), t(0));
                tcp_connect(&mut home, Endpoint::new(ip(192, 168, 1, 11), 6001), t(0));
            }
            home.sweep(t(secs + 1));
        }
        assert_eq!(home.mapping_count(), 6);
        // 5 248 bytes: each index is one 64-byte bucket of ten cells
        // (six entries fit under its 0.85 load), where a 16-cell table
        // of 8-byte cells took 128 — 2 × 64 = 128 bytes of indices, not
        // 256, so 5 376 − 128.
        let reserved = home.reserved_bytes();
        assert!(reserved <= 10 * 1024, "{reserved} bytes for six mappings");

        // A CGN pays for the large forms and nothing more: 10 000
        // flows put every structure in its large form. With every
        // table allocated up front and 112-byte cold rows that was
        // 3 045 376 bytes, of which the wheel's three untouched levels
        // (4 608) were the only part gone; 64-byte cold rows take
        // another 786 432 off chunk 0's 16 384 rows, for 2 254 336.
        // 16-byte timer entries (one ticket for a generation and a
        // sequence) take 131 072 more off the one bucket's 16 384
        // entries: 2 123 264. 16-byte hot rows take 262 144 off hot
        // chunk 0's 16 384 rows, and the one bucket's 10 000 entries
        // in forty 4 KiB segments (163 840) rather than a doubled
        // 16 384-entry `Vec` (262 144) take 98 304 more: 1 762 816,
        // plus the bucket's 1 536 bytes of segment headers. 32-byte
        // cold rows take cold chunk 0's 16 384 rows from 1 048 576 to
        // 524 288 bytes: 1 762 816 − 524 288 = 1 238 528, or 1 240 064
        // with the headers. 8-byte timer entries, 512 to a 4 KiB
        // segment, hold the bucket's 10 000 entries in twenty segments
        // rather than forty (81 920 off), and its 20 segment headers in
        // a 32-slot table rather than 40 in a 64-slot one (24 bytes
        // each, 768 off): 1 240 064 − 81 920 − 768 = 1 157 376.
        // Bucketed indices leave it there: 10 000 entries pass 0.85 ×
        // 10 × 1 024 = 8 704 and fit 17 408, so each index is 2 048
        // buckets × 64 bytes = 131 072, what 16 384 cells × 8 bytes
        // (10 000 ≤ ¾ × 16 384) took before.
        let mut cgn = nat(NatConfig::cgn_default());
        for k in 0..10_000u32 {
            let src = Endpoint::new(ip(100, 64, (k / 100) as u8, 1), 20_000 + (k % 100) as u16);
            udp_out(&mut cgn, src, server(), t(0));
        }
        assert_eq!(cgn.mapping_count(), 10_000);
        let reserved = cgn.reserved_bytes() as f64;
        let large = 1_157_376.0;
        assert!(
            (reserved / large - 1.0).abs() <= 0.01,
            "{reserved} bytes against {large}"
        );
    }

    #[test]
    fn a_churning_cgn_reserves_what_its_live_mappings_need() {
        // A CGN at a rolling 10 000 live UDP mappings: 1 000 new flows
        // every simulated second under a 10 s timeout, swept every
        // second for a minute. From the first plateau on, the table
        // holds as many mappings as it will ever hold, so it must not
        // grow. With tombstone deletion it did: every expiry left a
        // tombstone, and once live entries passed half of an index's
        // 16 384 cells, the first rebuild doubled it (≥ 256 KiB for the
        // two indices).
        let mut cfg = NatConfig::cgn_default();
        cfg.udp_timeout = SimDuration::from_secs(10);
        let mut cgn = nat(cfg);
        let mut plateau = None;
        for secs in 0..60u64 {
            cgn.sweep(t(secs));
            for k in 0..1_000u32 {
                let host = ip(100, 64, (k / 250) as u8, (k % 250) as u8 + 1);
                let src = Endpoint::new(host, 1024 + secs as u16);
                udp_out(&mut cgn, src, server(), t(secs));
            }
            assert_eq!(cgn.mapping_count(), 1_000 * (secs as usize + 1).min(10));
            if secs == 9 {
                plateau = Some(cgn.reserved_bytes() as f64);
            }
        }
        let (plateau, reserved) = (plateau.expect("reached"), cgn.reserved_bytes() as f64);
        assert!(
            (reserved / plateau - 1.0).abs() <= 0.01,
            "{reserved} bytes after a minute against {plateau} at the first plateau"
        );
    }

    /// Table flood (ReDAN's threat model, PAPERS.md): subscriber A opens
    /// new flows as fast as it can, past what it may hold — its session
    /// limit under `PortBlock`, its computed block under
    /// `Deterministic` (RFC 7422) — while subscriber B, on the same
    /// external IP, opens a flow now and then. The bound:
    /// - every one of B's flows is forwarded, from B's own ports;
    /// - A holds exactly what its limit or its block allows, and every
    ///   packet beyond it is refused and counted in exactly one
    ///   `DropReason` (the `NatStats` delta is exact);
    /// - the flood reserves no memory beyond that: the NAT's tables
    ///   hold no more bytes than one where A sent only the flows it may
    ///   hold.
    ///
    /// How `Random` and `Preserve` fail — nothing reserves B a port
    /// there, so A can take the ports B would have had — is out of
    /// scope.
    #[test]
    fn a_table_flood_leaves_the_neighbours_ports_and_memory_alone() {
        use crate::config::PortAllocation;
        let limit = 128;
        let cases = [
            (
                PortAllocation::PortBlock { block_size: 64 },
                128,
                DropReason::SessionLimit,
            ),
            (
                PortAllocation::Deterministic { ports_per_host: 64 },
                64,
                DropReason::PortExhausted,
            ),
        ];
        let (a, b) = (internal_host(1), internal_host(2));
        for (port_alloc, held, refusal) in cases {
            let mut cfg = NatConfig::cgn_default();
            cfg.port_alloc = port_alloc;
            cfg.mapping = MappingBehavior::AddressAndPortDependent;
            cfg.max_sessions_per_host = Some(limit);
            // Over 1 000 rounds A sends its first `a_flows` flows, each
            // to a new destination port and so a new mapping, and B one
            // flow every 20 rounds.
            let run = |a_flows: u16| {
                let mut n = Nat::new(cfg.clone(), vec![ip(198, 51, 100, 1)], 7);
                let (mut a_ports, mut b_ports, mut refused) = (HashSet::new(), vec![], 0);
                for f in 0..1_000 {
                    let dst = Endpoint::new(server().ip, 1000 + f);
                    let verdict = (f < a_flows)
                        .then(|| n.process_outbound(Packet::udp(a, dst, vec![]), t(1)));
                    match verdict {
                        None => {}
                        Some(NatVerdict::Forward(p)) => assert!(a_ports.insert(p.src)),
                        Some(NatVerdict::Drop(r)) => {
                            assert_eq!(r, refusal, "{port_alloc:?}");
                            refused += 1;
                        }
                        v => panic!("{v:?}"),
                    }
                    if f % 20 == 19 {
                        let src = Endpoint::new(b.ip, 5000 + f);
                        b_ports.push(udp_out(&mut n, src, server(), t(1)).src);
                    }
                }
                (n, a_ports, b_ports, refused)
            };
            let (n, a_ports, b_ports, refused) = run(1_000);
            assert_eq!(
                (a_ports.len(), refused),
                (held, 1_000 - held),
                "{port_alloc:?}"
            );
            assert_eq!(b_ports.len(), 50);
            assert!(b_ports.iter().all(|p| p.ip == ip(198, 51, 100, 1)));
            assert!(
                b_ports.iter().all(|p| !a_ports.contains(p)),
                "B keeps its own ports"
            );
            let created = (held + b_ports.len()) as u64;
            let (by_limit, by_ports) = match refusal {
                DropReason::SessionLimit => (refused as u64, 0),
                _ => (0, refused as u64),
            };
            let expected = NatStats {
                out_packets: 1_050,
                mappings_created: created,
                peak_mappings: created,
                drops: refused as u64,
                drop_session_limit: by_limit,
                drop_port_exhausted: by_ports,
                ..NatStats::default()
            };
            assert_eq!(n.stats(), &expected, "{port_alloc:?}");
            // The same traffic without the flood: A stops at what it
            // may hold.
            let (quiet, ..) = run(held as u16);
            assert_eq!(quiet.mapping_count(), n.mapping_count());
            let (flooded, bound) = (n.reserved_bytes(), quiet.reserved_bytes());
            assert!(
                flooded <= bound,
                "{port_alloc:?}: {flooded} > {bound} bytes"
            );
        }
    }

    #[test]
    fn sweep_follows_tcp_fin_shortened_expiry() {
        let mut n = nat(NatConfig::cgn_default()); // established 7440 s, transitory 240 s
        let src = internal_host(1);
        // Full handshake: the mapping moves onto the established clock.
        let out = match n.process_outbound(Packet::tcp(src, server(), TcpFlags::SYN, vec![]), t(0))
        {
            NatVerdict::Forward(p) => p,
            v => panic!("{v:?}"),
        };
        assert!(matches!(
            n.process_inbound(
                Packet::tcp(server(), out.src, TcpFlags::SYN_ACK, vec![]),
                t(0)
            ),
            NatVerdict::Forward(_)
        ));
        assert!(matches!(
            n.process_outbound(Packet::tcp(src, server(), TcpFlags::ACK, vec![]), t(0)),
            NatVerdict::Forward(_)
        ));
        // Draining the stale transitory-deadline bucket re-files the
        // entry at the established expiry (7440 s).
        n.sweep(t(241));
        assert_eq!(n.mapping_count(), 1);
        // FIN moves the mapping back onto the transitory clock: expiry
        // 300 + 240 = 540 s, far below the parked deadline. The store
        // must file an earlier timer entry, or this sweep would
        // fast-skip and leak the port for the rest of the established
        // timeout.
        assert!(matches!(
            n.process_outbound(Packet::tcp(src, server(), TcpFlags::FIN, vec![]), t(300)),
            NatVerdict::Forward(_)
        ));
        n.sweep(t(600));
        assert_eq!(
            n.mapping_count(),
            0,
            "closed connection must be reaped on the transitory clock"
        );
        assert_eq!(n.stats().mappings_expired, 1);
    }

    #[test]
    fn paired_pooling_is_sticky() {
        let mut n = nat(NatConfig::cgn_default());
        let mut ips = HashSet::new();
        for flow in 0..20 {
            let src = Endpoint::new(ip(100, 64, 0, 1), 40000 + flow);
            let p = match n.process_outbound(Packet::udp(src, server(), vec![]), t(0)) {
                NatVerdict::Forward(p) => p,
                v => panic!("{v:?}"),
            };
            ips.insert(p.src.ip);
        }
        assert_eq!(
            ips.len(),
            1,
            "paired pooling must keep one external IP per host"
        );
    }

    #[test]
    fn arbitrary_pooling_spreads_across_pool() {
        let mut cfg = NatConfig::cgn_default();
        cfg.pooling = Pooling::Arbitrary;
        cfg.mapping = MappingBehavior::AddressAndPortDependent; // force fresh mappings
        let mut n = nat(cfg);
        let mut ips = HashSet::new();
        for flow in 0..30u16 {
            let dst = Endpoint::new(ip(203, 0, 113, 10), 1000 + flow);
            let src = Endpoint::new(ip(100, 64, 0, 1), 40000);
            let p = match n.process_outbound(Packet::udp(src, dst, vec![]), t(0)) {
                NatVerdict::Forward(p) => p,
                v => panic!("{v:?}"),
            };
            ips.insert(p.src.ip);
        }
        assert!(
            ips.len() > 1,
            "arbitrary pooling should use several pool IPs"
        );
    }

    #[test]
    fn session_limit_enforced() {
        let mut cfg = NatConfig::cgn_default();
        cfg.max_sessions_per_host = Some(3);
        cfg.mapping = MappingBehavior::AddressAndPortDependent;
        let mut n = nat(cfg);
        let src = internal_host(1);
        for f in 0..3u16 {
            let dst = Endpoint::new(ip(203, 0, 113, 10), 1000 + f);
            assert!(matches!(
                n.process_outbound(Packet::udp(src, dst, vec![]), t(0)),
                NatVerdict::Forward(_)
            ));
        }
        let dst = Endpoint::new(ip(203, 0, 113, 10), 2000);
        assert_eq!(
            n.process_outbound(Packet::udp(src, dst, vec![]), t(0)),
            NatVerdict::Drop(DropReason::SessionLimit)
        );
        // Expiry frees budget.
        n.sweep(t(120));
        assert!(matches!(
            n.process_outbound(Packet::udp(src, dst, vec![]), t(120)),
            NatVerdict::Forward(_)
        ));
    }

    #[test]
    fn hairpin_delivers_to_internal_target() {
        // A sends toward B's external endpoint; APDF filtering would reject
        // a source B never contacted, so use full-cone filtering here.
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        let mut n = nat(cfg);
        // B opens a mapping first so A can reach it via its external endpoint.
        let b_out = udp_out(&mut n, internal_host(2), server(), t(0)).src;
        let a_pkt = Packet::udp(internal_host(1), b_out, vec![7]);
        match n.process_outbound(a_pkt, t(1)) {
            NatVerdict::Hairpin(p) => {
                assert_eq!(
                    p.dst,
                    internal_host(2),
                    "hairpin must reach B's internal endpoint"
                );
                // cgn_default leaves the internal source in place — the
                // §4.1 leak channel: B learns A's internal endpoint.
                assert_eq!(p.src, internal_host(1));
            }
            v => panic!("expected hairpin, got {v:?}"),
        }
        assert_eq!(n.stats().hairpins, 1);
    }

    #[test]
    fn hairpin_with_source_rewrite_hides_internal_endpoint() {
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        cfg.hairpin_internal_source = false;
        let mut n = nat(cfg);
        let b_out = udp_out(&mut n, internal_host(2), server(), t(0)).src;
        let a_pkt = Packet::udp(internal_host(1), b_out, vec![7]);
        match n.process_outbound(a_pkt, t(1)) {
            NatVerdict::Hairpin(p) => {
                assert!(
                    n.is_external_ip(p.src.ip),
                    "source must be the external mapping"
                );
                assert_ne!(p.src, internal_host(1));
            }
            v => panic!("expected hairpin, got {v:?}"),
        }
    }

    #[test]
    fn hairpin_disabled_drops() {
        let mut cfg = NatConfig::cgn_default();
        cfg.hairpinning = false;
        let mut n = nat(cfg);
        let b_ext = udp_out(&mut n, internal_host(2), server(), t(0)).src;
        let a_pkt = Packet::udp(internal_host(1), b_ext, vec![]);
        assert_eq!(
            n.process_outbound(a_pkt, t(1)),
            NatVerdict::Drop(DropReason::NoHairpin)
        );
    }

    #[test]
    fn tcp_established_outlives_udp_timeout() {
        let mut n = nat(NatConfig::cgn_default());
        let src = internal_host(1);
        // SYN out.
        let syn = Packet::tcp(src, server(), TcpFlags::SYN, vec![]);
        let out = match n.process_outbound(syn, t(0)) {
            NatVerdict::Forward(p) => p,
            v => panic!("{v:?}"),
        };
        // SYN-ACK in.
        let synack = Packet::tcp(server(), out.src, TcpFlags::SYN_ACK, vec![]);
        assert!(matches!(
            n.process_inbound(synack, t(0)),
            NatVerdict::Forward(_)
        ));
        // ACK out completes the handshake.
        let ack = Packet::tcp(src, server(), TcpFlags::ACK, vec![]);
        assert!(matches!(
            n.process_outbound(ack, t(0)),
            NatVerdict::Forward(_)
        ));
        // Hours later (beyond transitory & UDP timeouts) the mapping lives.
        let data = Packet::tcp(server(), out.src, TcpFlags::ACK, vec![1]);
        assert!(matches!(
            n.process_inbound(data, t(3600)),
            NatVerdict::Forward(_)
        ));
    }

    /// An off-path host that never received a packet from the mapping.
    fn stranger() -> Endpoint {
        Endpoint::new(ip(192, 0, 2, 66), 31337)
    }

    /// The off-path teardown script: a handshake at t = 0, then one RST
    /// from `rst_src` to the mapping at t = 1 s. Returns the NAT, the
    /// RST's verdict and the mapping's external endpoint.
    fn rst_after_handshake(
        filtering: FilteringBehavior,
        rst_src: Endpoint,
    ) -> (Nat, NatVerdict, Endpoint) {
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = filtering;
        let mut n = nat(cfg);
        let ext = tcp_connect(&mut n, internal_host(1), t(0));
        let rst = n.process_inbound(Packet::tcp(rst_src, ext, TcpFlags::RST, vec![]), t(1));
        (n, rst, ext)
    }

    #[test]
    fn stranger_rst_under_eif_leaves_the_mapping_established() {
        let (mut n, rst, ext) =
            rst_after_handshake(FilteringBehavior::EndpointIndependent, stranger());
        assert!(matches!(rst, NatVerdict::Forward(_)), "EIF admits it");
        let ack = Packet::tcp(server(), ext, TcpFlags::ACK, vec![1]);
        assert!(matches!(
            n.process_inbound(ack, t(600)),
            NatVerdict::Forward(_)
        ));
    }

    #[test]
    fn forged_server_rst_under_apdf_is_bounded_by_the_transitory_timeout() {
        let (mut n, rst, ext) =
            rst_after_handshake(FilteringBehavior::AddressAndPortDependent, server());
        assert!(matches!(rst, NatVerdict::Forward(_)));
        n.sweep(t(1 + 239));
        assert_eq!(n.mapping_count(), 1, "one transitory timeout after the RST");
        n.sweep(t(1 + 241));
        assert_eq!(n.mapping_count(), 0);
        let ack = Packet::tcp(server(), ext, TcpFlags::ACK, vec![1]);
        assert_eq!(
            n.process_inbound(ack, t(600)),
            NatVerdict::Drop(DropReason::NoMapping)
        );
    }

    #[test]
    fn stranger_rst_under_apdf_is_filtered() {
        let (mut n, rst, ext) =
            rst_after_handshake(FilteringBehavior::AddressAndPortDependent, stranger());
        assert_eq!(rst, NatVerdict::Drop(DropReason::Filtered));
        let ack = Packet::tcp(server(), ext, TcpFlags::ACK, vec![1]);
        assert!(matches!(
            n.process_inbound(ack, t(600)),
            NatVerdict::Forward(_)
        ));
    }

    /// A stranger sends one UDP packet to every port of `port_range` on
    /// every pool address while k mappings are live. Nothing is created
    /// under either filter. Under APDF every packet is dropped and the
    /// mappings expire on time; under EIF with `refresh_inbound` the k
    /// packets that reach a mapping are forwarded and keep it alive.
    #[test]
    fn inbound_scan_of_the_whole_pool_creates_no_state() {
        let k = 5u8;
        for filtering in [
            FilteringBehavior::AddressAndPortDependent,
            FilteringBehavior::EndpointIndependent,
        ] {
            let mut cfg = NatConfig::cgn_default(); // 60 s UDP timeout
            cfg.filtering = filtering;
            let (lo, hi) = cfg.port_range;
            let eif = filtering == FilteringBehavior::EndpointIndependent;
            let mut n = nat(cfg);
            let hosts: Vec<Endpoint> = (1..=k).map(internal_host).collect();
            let ext: Vec<Endpoint> = hosts
                .iter()
                .map(|&h| udp_out(&mut n, h, server(), t(0)).src)
                .collect();
            let occupancy = (n.store_occupancy(), n.port_occupancy());
            let mut want = n.stats().clone();

            // The scan, at 30 s: every mapping is still live, so no
            // packet meets an expire-on-touch.
            let mut forwarded = 0u64;
            for addr in pool() {
                for port in lo..=hi {
                    let dst = Endpoint::new(addr, port);
                    match n.process_inbound(Packet::udp(stranger(), dst, vec![]), t(30)) {
                        NatVerdict::Forward(p) => {
                            let i = ext.iter().position(|&e| e == dst).expect("a mapping");
                            assert_eq!(p.dst, hosts[i]);
                            forwarded += 1;
                        }
                        NatVerdict::Drop(_) => {}
                        v => panic!("{v:?}"),
                    }
                }
            }
            let scanned = pool().len() as u64 * (hi - lo + 1) as u64;
            let k = k as u64;
            want.in_packets += scanned;
            want.drop_no_mapping += scanned - k;
            if eif {
                want.drops += scanned - k;
            } else {
                want.drops += scanned;
                want.drop_filtered += k;
            }
            assert_eq!(forwarded, if eif { k } else { 0 }, "{filtering:?}");
            assert_eq!(n.stats(), &want, "{filtering:?}: no mapping created");
            assert_eq!(n.mapping_count(), k as usize);
            assert_eq!((n.store_occupancy(), n.port_occupancy()), occupancy);

            // The mappings' original expiry: APDF lets them go, the EIF
            // scan has refreshed them to 90 s.
            n.sweep(t(60));
            assert_eq!(n.mapping_count(), if eif { k as usize } else { 0 });
        }
    }

    /// The bound `translate_inbound` states, on `cgn_default`: eight
    /// UDP flows and two TCP connections are live, spread over the pool
    /// by paired pooling, and a stranger sends a forged UDP and a
    /// forged TCP ACK to every port of the first flow's address.
    /// Nothing is created: the mapping count, store and port occupancy
    /// and the bytes reserved are as before, and the `NatStats` delta
    /// is exact — under APDF every packet is dropped, as
    /// `drop_filtered` where it reaches a mapping and `drop_no_mapping`
    /// everywhere else; under EIF with `refresh_inbound` the packets
    /// that reach a mapping are forwarded instead. Then the sweeps:
    /// under EIF the mappings the scan reached live one timeout past
    /// it, and every other mapping expires when it would have without
    /// the scan.
    #[test]
    fn an_inbound_scan_creates_no_state() {
        for filtering in [
            FilteringBehavior::AddressAndPortDependent,
            FilteringBehavior::EndpointIndependent,
        ] {
            let mut cfg = NatConfig::cgn_default(); // 60 s UDP, 2 h established
            cfg.filtering = filtering;
            let eif = filtering == FilteringBehavior::EndpointIndependent;
            let (lo, hi) = cfg.port_range;
            let mut n = nat(cfg);
            let mut live: Vec<(Protocol, Endpoint)> = (1..=8)
                .map(|k| {
                    (
                        Protocol::Udp,
                        udp_out(&mut n, internal_host(k), server(), t(0)).src,
                    )
                })
                .collect();
            for k in 1..=2 {
                let src = Endpoint::new(ip(100, 64, 0, k), 6000);
                live.push((Protocol::Tcp, tcp_connect(&mut n, src, t(0))));
            }
            let target = live[0].1.ip;
            let hit = |&(_, ext): &(Protocol, Endpoint)| ext.ip == target;
            let hits = live.iter().filter(|m| hit(m)).count() as u64;
            assert!(
                hits < live.len() as u64,
                "a mapping off the scanned address"
            );
            let state = |n: &Nat| {
                let occupancy = (n.store_occupancy(), n.port_occupancy());
                (n.mapping_count(), occupancy, n.reserved_bytes())
            };
            let before = state(&n);
            let mut want = n.stats().clone();

            // The scan, at 30 s: every mapping is still live, so no
            // packet meets an expire-on-touch.
            let mut forwarded = 0u64;
            for port in lo..=hi {
                let dst = Endpoint::new(target, port);
                for pkt in [
                    Packet::udp(stranger(), dst, vec![]),
                    Packet::tcp(stranger(), dst, TcpFlags::ACK, vec![]),
                ] {
                    match n.process_inbound(pkt, t(30)) {
                        NatVerdict::Forward(_) => forwarded += 1,
                        NatVerdict::Drop(DropReason::NoMapping | DropReason::Filtered) => {}
                        v => panic!("{v:?}"),
                    }
                }
            }
            let sent = 2 * (hi - lo + 1) as u64;
            want.in_packets += sent;
            want.drop_no_mapping += sent - hits;
            if eif {
                want.drops += sent - hits;
            } else {
                want.drops += sent;
                want.drop_filtered += hits;
            }
            assert_eq!(forwarded, if eif { hits } else { 0 }, "{filtering:?}");
            assert_eq!(n.stats(), &want, "{filtering:?}: no mapping created");
            assert_eq!(state(&n), before, "{filtering:?}");

            // Who is left after each sweep: a mapping expires one
            // timeout after its flow's last packet at 0 s (60 s for UDP,
            // 7 200 s for an established connection), or after the
            // scan's at 30 s if the EIF scan reached it.
            let expiry = |m: &(Protocol, Endpoint)| {
                let timeout = if m.0 == Protocol::Udp { 60 } else { 7_200 };
                timeout + if eif && hit(m) { 30 } else { 0 }
            };
            for secs in [60, 90, 7_200, 7_230] {
                n.sweep(t(secs));
                let mut left: Vec<_> = n.mappings().map(|m| (m.proto, m.external)).collect();
                let alive = live.iter().copied().filter(|m| expiry(m) > secs);
                let mut expect: Vec<_> = alive.collect();
                left.sort_unstable();
                expect.sort_unstable();
                assert_eq!(left, expect, "{filtering:?} at {secs} s");
            }
        }
    }

    #[test]
    fn tcp_transitory_times_out_quickly() {
        let mut n = nat(NatConfig::cgn_default()); // transitory 240 s
        let syn = Packet::tcp(internal_host(1), server(), TcpFlags::SYN, vec![]);
        let out = match n.process_outbound(syn, t(0)) {
            NatVerdict::Forward(p) => p,
            v => panic!("{v:?}"),
        };
        // Handshake never completes; at 241 s inbound finds no state.
        let synack = Packet::tcp(server(), out.src, TcpFlags::SYN_ACK, vec![]);
        assert_eq!(
            n.process_inbound(synack, t(241)),
            NatVerdict::Drop(DropReason::NoMapping)
        );
    }

    #[test]
    fn tcp_fin_moves_to_transitory_timeout() {
        let mut n = nat(NatConfig::cgn_default());
        let src = internal_host(1);
        let out = match n.process_outbound(Packet::tcp(src, server(), TcpFlags::SYN, vec![]), t(0))
        {
            NatVerdict::Forward(p) => p,
            v => panic!("{v:?}"),
        };
        assert!(matches!(
            n.process_inbound(
                Packet::tcp(server(), out.src, TcpFlags::SYN_ACK, vec![]),
                t(0)
            ),
            NatVerdict::Forward(_)
        ));
        assert!(matches!(
            n.process_outbound(Packet::tcp(src, server(), TcpFlags::ACK, vec![]), t(0)),
            NatVerdict::Forward(_)
        ));
        // FIN puts the mapping on the short clock.
        assert!(matches!(
            n.process_outbound(Packet::tcp(src, server(), TcpFlags::FIN, vec![]), t(10)),
            NatVerdict::Forward(_)
        ));
        let late = Packet::tcp(server(), out.src, TcpFlags::ACK, vec![]);
        assert_eq!(
            n.process_inbound(late, t(10 + 241)),
            NatVerdict::Drop(DropReason::NoMapping)
        );
    }

    #[test]
    fn port_preservation_visible_through_nat() {
        let mut cfg = NatConfig::cgn_default();
        cfg.port_alloc = crate::config::PortAllocation::Preserve;
        let mut n = nat(cfg);
        let p = udp_out(&mut n, internal_host(1), server(), t(0));
        assert_eq!(p.src.port, 40000, "preserving NAT keeps the source port");
    }

    #[test]
    fn icmp_outbound_passes_through() {
        let mut n = nat(NatConfig::cgn_default());
        let orig = Packet::udp(internal_host(1), server(), vec![]).with_ttl(1);
        let icmp = orig.ttl_exceeded_reply(ip(100, 64, 255, 1));
        // Re-point at an external destination as a router inside would.
        let mut icmp_to_server = icmp;
        icmp_to_server.dst = server();
        assert!(matches!(
            n.process_outbound(icmp_to_server, t(0)),
            NatVerdict::Forward(_)
        ));
    }

    #[test]
    fn icmp_inbound_translated_to_internal_host() {
        let mut n = nat(NatConfig::cgn_default());
        let out = udp_out(&mut n, internal_host(1), server(), t(0));
        // A router near the server reports TTL exceeded for the translated flow.
        let mut icmp =
            Packet::udp(out.src, server(), vec![]).ttl_exceeded_reply(ip(203, 0, 113, 1));
        icmp.dst = out.src; // routed back to the external endpoint
        match n.process_inbound(icmp, t(1)) {
            NatVerdict::Forward(p) => assert_eq!(p.dst.ip, internal_host(1).ip),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn unmatched_icmp_dropped() {
        let mut n = nat(NatConfig::cgn_default());
        let mut icmp = Packet::udp(Endpoint::new(ip(198, 51, 100, 1), 1234), server(), vec![])
            .ttl_exceeded_reply(ip(203, 0, 113, 1));
        icmp.dst = Endpoint::new(ip(198, 51, 100, 1), 1234);
        assert_eq!(
            n.process_inbound(icmp, t(0)),
            NatVerdict::Drop(DropReason::UnmatchedIcmp)
        );
    }

    #[test]
    fn port_exhaustion_reported() {
        let mut cfg = NatConfig::cgn_default();
        cfg.port_range = (5000, 5002);
        cfg.mapping = MappingBehavior::AddressAndPortDependent;
        let mut n = Nat::new(cfg, vec![ip(198, 51, 100, 1)], 1);
        let src = internal_host(1);
        let mut drops = 0;
        for f in 0..6u16 {
            let dst = Endpoint::new(ip(203, 0, 113, 10), 1000 + f);
            if let NatVerdict::Drop(DropReason::PortExhausted) =
                n.process_outbound(Packet::udp(src, dst, vec![]), t(0))
            {
                drops += 1;
            }
        }
        assert_eq!(drops, 3, "3 ports then exhaustion");
        assert_eq!(n.stats().drop_port_exhausted, 3);
    }

    #[test]
    fn determinism_same_seed_same_allocation() {
        let run = || {
            let mut n = Nat::new(NatConfig::cgn_default(), pool(), 99);
            let mut seen = Vec::new();
            for h in 1..=10 {
                let p = udp_out(&mut n, internal_host(h), server(), t(0));
                seen.push(p.src);
            }
            seen
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn transparent_firewall_keeps_addresses_but_filters() {
        let protected = internal_host(1);
        let mut n = Nat::new(NatConfig::stateful_firewall(), vec![protected.ip], 3);
        let out = udp_out(&mut n, protected, server(), t(0));
        assert_eq!(out.src, protected, "no translation");
        // Solicited inbound passes.
        let back = Packet::udp(server(), protected, vec![]);
        assert!(matches!(
            n.process_inbound(back.clone(), t(1)),
            NatVerdict::Forward(_)
        ));
        // Unsolicited source is filtered.
        let stranger = Packet::udp(Endpoint::new(ip(9, 9, 9, 9), 1), protected, vec![]);
        assert_eq!(
            n.process_inbound(stranger, t(1)),
            NatVerdict::Drop(DropReason::Filtered)
        );
        // State expires like any NAT mapping.
        assert_eq!(
            n.process_inbound(back, t(120)),
            NatVerdict::Drop(DropReason::NoMapping)
        );
    }

    #[test]
    fn sink_sees_mapping_and_block_lifecycle() {
        use crate::telemetry::CountingSink;
        let mut cfg = NatConfig::cgn_default();
        cfg.port_alloc = crate::config::PortAllocation::PortBlock { block_size: 512 };
        cfg.mapping = MappingBehavior::AddressAndPortDependent;
        let mut n = nat(cfg);
        n.set_sink(Box::<CountingSink>::default());
        let src = internal_host(1);
        for f in 0..5u16 {
            let dst = Endpoint::new(ip(203, 0, 113, 10), 1000 + f);
            assert!(matches!(
                n.process_outbound(Packet::udp(src, dst, vec![]), t(0)),
                NatVerdict::Forward(_)
            ));
        }
        n.sweep(t(61)); // all five mappings idle out
        let counts = n
            .take_sink()
            .expect("sink installed")
            .into_any()
            .downcast::<CountingSink>()
            .expect("concrete sink type");
        assert_eq!(counts.created, 5);
        assert_eq!(counts.expired, 5);
        // One 512-port block served all five mappings; draining the
        // last mapping returned it.
        assert_eq!(counts.blocks_allocated, 1);
        assert_eq!(counts.blocks_released, 1);
        assert_eq!(n.stats().mappings_created, 5);
    }

    #[test]
    fn metrics_capture_mapping_and_block_lifecycle() {
        use crate::metrics::EngineMetrics;
        let mut cfg = NatConfig::cgn_default();
        cfg.port_alloc = crate::config::PortAllocation::PortBlock { block_size: 512 };
        cfg.mapping = MappingBehavior::AddressAndPortDependent;
        let mut n = nat(cfg);
        n.set_metrics(Box::<EngineMetrics>::default());
        let src = internal_host(1);
        for f in 0..5u16 {
            let dst = Endpoint::new(ip(203, 0, 113, 10), 1000 + f);
            assert!(matches!(
                n.process_outbound(Packet::udp(src, dst, vec![]), t(0)),
                NatVerdict::Forward(_)
            ));
        }
        let snap = n.metrics_snapshot().expect("registry installed");
        assert_eq!(snap.scalar("cgn_mappings_created_total"), 5);
        assert_eq!(snap.scalar("cgn_mappings_live"), 5);
        assert_eq!(snap.scalar("cgn_block_grants_total"), 1);
        n.sweep(t(61)); // all five mappings idle out
        let snap = n.metrics_snapshot().expect("registry installed");
        assert_eq!(snap.scalar("cgn_mappings_expired_total"), 5);
        assert_eq!(snap.scalar("cgn_mappings_live"), 0);
        assert_eq!(snap.scalar("cgn_block_releases_total"), 1);
        assert_eq!(snap.scalar("cgn_sweeps_total"), 1);
        let reg = n.take_metrics().expect("registry recoverable");
        assert_eq!(reg.block_releases.get(), 1);
        assert_eq!(reg.sweep_batch.count, 1);
        assert!(n.metrics_snapshot().is_none(), "slot emptied");
        assert!(n.probe.is_none(), "the last part taken drops the probe");
    }

    #[test]
    fn metrics_count_rejections_by_reason() {
        use crate::metrics::EngineMetrics;
        let mut cfg = NatConfig::cgn_default();
        cfg.max_sessions_per_host = Some(2);
        cfg.mapping = MappingBehavior::AddressAndPortDependent;
        let mut n = nat(cfg);
        n.set_metrics(Box::<EngineMetrics>::default());
        let src = internal_host(1);
        for f in 0..4u16 {
            let dst = Endpoint::new(ip(203, 0, 113, 10), 1000 + f);
            n.process_outbound(Packet::udp(src, dst, vec![]), t(0));
        }
        let snap = n.metrics_snapshot().expect("registry installed");
        assert_eq!(
            snap.scalar("cgn_flows_rejected_total{reason=\"session-limit\"}"),
            2
        );
        assert_eq!(
            snap.scalar("cgn_flows_rejected_total{reason=\"port-exhausted\"}"),
            0
        );
    }

    /// The inbound burst pipeline and arena gauges follow the same
    /// discipline as every other instrument: without a registry they
    /// expose nothing. (That observing changes nothing a caller sees
    /// is held across the whole config space by `cgn-bench`'s
    /// differential harness.)
    #[test]
    fn inbound_burst_metrics_fire_only_when_enabled() {
        use crate::metrics::EngineMetrics;
        let run = |with_metrics: bool| {
            let mut n = Nat::new(NatConfig::cgn_default(), pool(), 99);
            if with_metrics {
                n.set_metrics(Box::<EngineMetrics>::default());
            }
            let replies: Vec<Header> = (1..=10)
                .map(|h| udp_out(&mut n, internal_host(h), server(), t(0)))
                .map(|fwd| Header::new(server(), fwd.src, None))
                .collect();
            burst(&mut n, &replies, t(1), true);
            n
        };
        let (off_nat, on_nat) = (run(false), run(true));
        assert!(
            off_nat.metrics_snapshot().is_none(),
            "disabled engine exposes no instruments at all"
        );
        let snap = on_nat.metrics_snapshot().expect("registry installed");
        assert_eq!(snap.scalar("cgn_inbound_bursts_total"), 1);
        assert_eq!(snap.scalar("cgn_inbound_prefetch_issued_total"), 10);
        assert!(snap.scalar("cgn_arena_chunks") >= 2, "hot + cold chunks");
        assert_eq!(snap.scalar("cgn_arena_slots_free"), 0, "nothing expired");
    }

    /// Event log as bytes, one debug-formatted event per line.
    #[derive(Default)]
    struct LineSink(Vec<u8>);

    impl EventSink for LineSink {
        fn mapping_created(&mut self, e: &MappingEvent) {
            self.0.extend(format!("created {e:?}\n").bytes());
        }
        fn mapping_expired(&mut self, e: &MappingEvent) {
            self.0.extend(format!("expired {e:?}\n").bytes());
        }
        fn block_allocated(&mut self, e: &BlockEvent) {
            self.0.extend(format!("granted {e:?}\n").bytes());
        }
        fn block_released(&mut self, e: &BlockEvent) {
            self.0.extend(format!("returned {e:?}\n").bytes());
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// The hint a burst prefetches from is taken before any packet of
    /// the burst is translated, so it can go stale inside the burst:
    /// here the slot it names is freed by an earlier packet's
    /// expiry-on-touch and handed to another flow's new mapping before
    /// the hinted packet is reached. Nothing but the prefetch may
    /// depend on it.
    #[test]
    fn stale_burst_hints_change_nothing() {
        let (e, f, g) = (internal_host(1), internal_host(2), internal_host(3));
        let run = |batched: bool| {
            let feed = if batched { burst } else { scalar };
            let mut n = nat(NatConfig::cgn_default()); // EIM, 60 s UDP timeout
            n.set_sink(Box::<LineSink>::default());
            n.set_metrics(Box::<EngineMetrics>::default());
            udp_out(&mut n, e, server(), t(0)); // slot 0, expires at 60 s
            udp_out(&mut n, f, server(), t(30)); // slot 1, expires at 90 s
            n.sweep(t(61)); // frees slot 0
            let mapping = n.config.mapping;
            let f_key = n.store.out_key(mapping, Protocol::Udp, f, server());
            assert_eq!(n.store.hint_out(f_key), Some(1));

            // Outbound at 100 s, F expired: the first F packet frees
            // slot 1 and re-creates F in slot 0 (lowest free id), G's
            // new mapping takes slot 1, and the second F packet —
            // hinted slot 1 — must find F in slot 0.
            let pkts: Vec<Header> = [f, g, f]
                .iter()
                .map(|&src| Header::new(src, server(), None))
                .collect();
            let mut verdicts = feed(&mut n, &pkts, t(100), false);
            let g_key = n.store.out_key(mapping, Protocol::Udp, g, server());
            assert_eq!(n.store.lookup_out(f_key), Some(0));
            assert_eq!(n.store.lookup_out(g_key), Some(1));

            // Inbound at 200 s, F and G expired: the first reply to F
            // frees the slot the second reply's hint names.
            let ext_of = |v: &Seen| match v {
                (HeaderVerdict::Forward, Some(h)) => h.src,
                v => panic!("expected Forward, got {v:?}"),
            };
            let replies: Vec<Header> = [&verdicts[0], &verdicts[2], &verdicts[1]]
                .iter()
                .map(|v| Header::new(server(), ext_of(v), None))
                .collect();
            verdicts.extend(feed(&mut n, &replies, t(200), true));
            assert_eq!(n.store.lookup_out(f_key), None);
            let log = n.take_sink().expect("sink installed").into_any();
            let log = log.downcast::<LineSink>().expect("concrete sink type").0;
            let snap = n.metrics_snapshot().expect("registry installed");
            let rows = (
                snap.scalar("cgn_prefetch_issued_total"),
                snap.scalar("cgn_inbound_prefetch_issued_total"),
            );
            let occupancy = (n.store_occupancy(), n.port_occupancy());
            (verdicts, n.stats().clone(), log, occupancy, rows)
        };
        let (scalar, burst) = (run(false), run(true));
        assert_eq!(scalar.0, burst.0, "verdicts");
        assert_eq!(scalar.1, burst.1, "stats");
        assert_eq!(scalar.2, burst.2, "log bytes");
        assert_eq!(scalar.3, burst.3, "store and port occupancy");
        assert_eq!(
            scalar.1.mappings_expired, 4,
            "E swept; F, F again, G on touch"
        );
        assert_eq!(scalar.1.drop_no_mapping, 3);
        // Rows prefetched: both F packets (hinted slot 1; G was not
        // indexed yet), then all three replies.
        assert_eq!((scalar.4, burst.4), ((0, 0), (2, 3)));
    }

    /// The create-side twin of `stale_burst_hints_change_nothing`: a
    /// create-heavy burst — a re-use of a mapping the burst itself
    /// created, an expire-on-touch re-create in the row it frees, a
    /// session-limit refusal and an arena append — gives the scalar
    /// path's verdicts, stats, log bytes and occupancy.
    #[test]
    fn create_heavy_bursts_match_scalar() {
        let (e, f, g, h) = (
            internal_host(1),
            internal_host(2),
            internal_host(3),
            internal_host(4),
        );
        let g_again = Endpoint::new(g.ip, g.port + 1);
        let run = |batched: bool| {
            let feed = if batched { burst } else { scalar };
            let mut config = NatConfig::cgn_default(); // EIM, 60 s UDP timeout
            config.max_sessions_per_host = Some(1);
            let mut n = nat(config);
            n.set_sink(Box::<LineSink>::default());
            n.set_metrics(Box::<EngineMetrics>::default());
            udp_out(&mut n, e, server(), t(0)); // slot 0
            udp_out(&mut n, f, server(), t(30)); // slot 1, expires at 90 s
            n.sweep(t(61)); // slot 0 is the one free row

            // Outbound at 100 s, with one free row:
            //   g        creates, in slot 0;
            //   g        finds the first's mapping — a hit;
            //   f        hits candidate slot 1, which has expired —
            //            removed on touch, then a create, in the row
            //            it has just freed;
            //   g_again  the one-session limit refuses;
            //   h        creates, appending: the free row was used up
            //            and refilled in between.
            let pkts: Vec<Header> = [g, g, f, g_again, h]
                .iter()
                .map(|&src| Header::new(src, server(), None))
                .collect();
            let mut verdicts = feed(&mut n, &pkts, t(100), false);
            let mapping = n.config.mapping;
            let slots: Vec<Option<u32>> = [g, f, g_again, h]
                .iter()
                .map(|&src| {
                    let key = n.store.out_key(mapping, Protocol::Udp, src, server());
                    n.store.lookup_out(key)
                })
                .collect();
            assert_eq!(slots, [Some(0), Some(1), None, Some(2)]);

            // The replies look up external endpoints whose index cells
            // were written behind their creates.
            let replies: Vec<Header> = verdicts
                .iter()
                .filter_map(|v| match v {
                    (HeaderVerdict::Forward, Some(h)) => Some(Header::new(server(), h.src, None)),
                    _ => None,
                })
                .collect();
            verdicts.extend(feed(&mut n, &replies, t(101), true));
            let log = n.take_sink().expect("sink installed").into_any();
            let log = log.downcast::<LineSink>().expect("concrete sink type").0;
            let snap = n.metrics_snapshot().expect("registry installed");
            let rows = snap.scalar("cgn_prefetch_issued_total");
            let occupancy = (n.store_occupancy(), n.port_occupancy());
            (verdicts, n.stats().clone(), log, occupancy, rows)
        };
        let (scalar, burst) = (run(false), run(true));
        assert_eq!(scalar.0, burst.0, "verdicts");
        assert_eq!(scalar.1, burst.1, "stats");
        assert_eq!(scalar.2, burst.2, "log bytes");
        assert_eq!(scalar.3, burst.3, "store and port occupancy");
        assert_eq!(scalar.1.mappings_created, 5, "E, F, then g, f and h");
        assert_eq!(scalar.1.drop_session_limit, 1);
        assert_eq!(scalar.0.len(), 5 + 4, "four forwarded packets answered");
        assert!(scalar.0[5..]
            .iter()
            .all(|v| matches!(v, (HeaderVerdict::Forward, _))));
        // Candidate rows prefetched: f's alone.
        assert_eq!((scalar.4, burst.4), (0, 1));
    }

    /// Mapping and block events interleave as a log reader expects:
    /// the grant before the first mapping that uses the block, the
    /// return after the last one expires. No log mode records both
    /// kinds, so only a sink that does can see their order.
    #[test]
    fn sink_sees_block_events_around_their_mappings() {
        let mut cfg = NatConfig::cgn_default();
        cfg.port_alloc = crate::config::PortAllocation::PortBlock { block_size: 8 };
        cfg.mapping = MappingBehavior::AddressAndPortDependent;
        let mut n = nat(cfg);
        n.set_sink(Box::<LineSink>::default());
        let src = internal_host(1);
        let external: Vec<Endpoint> = (0..5u16)
            .map(|f| udp_out(&mut n, src, Endpoint::new(server().ip, 1000 + f), t(0)).src)
            .collect();
        n.sweep(t(61)); // all five idle out, and the block with them
        let log = n.take_sink().expect("sink installed").into_any();
        let log = String::from_utf8(log.downcast::<LineSink>().expect("LineSink").0).unwrap();

        let start = external[0].port;
        let block = |at| BlockEvent {
            at,
            proto: Protocol::Udp,
            subscriber: src.ip,
            ext_ip: external[0].ip,
            block_start: start,
            block_len: 8,
        };
        let mapping = |at, k: usize| MappingEvent {
            at,
            proto: Protocol::Udp,
            internal: src,
            external: Endpoint::new(external[0].ip, start + k as u16),
        };
        let mut want = format!("granted {:?}\n", block(t(0)));
        for k in 0..5 {
            want += &format!("created {:?}\n", mapping(t(0), k));
        }
        for k in 0..5 {
            want += &format!("expired {:?}\n", mapping(t(61), k));
        }
        want += &format!("returned {:?}\n", block(t(61)));
        assert_eq!(log, want);
    }

    #[test]
    fn deterministic_policy_is_algorithmic_through_the_engine() {
        let mut cfg = NatConfig::cgn_default();
        cfg.port_alloc = crate::config::PortAllocation::Deterministic { ports_per_host: 4 };
        cfg.mapping = MappingBehavior::AddressAndPortDependent;
        let mut n = nat(cfg.clone());
        let src = internal_host(1);
        let expected = crate::ports::deterministic_block(src.ip, 3, cfg.port_range, 4);
        let mut ports_seen = Vec::new();
        for f in 0..4u16 {
            let dst = Endpoint::new(ip(203, 0, 113, 10), 1000 + f);
            match n.process_outbound(Packet::udp(src, dst, vec![]), t(0)) {
                NatVerdict::Forward(p) => {
                    assert_eq!(p.src.ip, pool()[expected.0], "computed pool address");
                    assert!(
                        p.src.port >= expected.1 && p.src.port < expected.1 + expected.2,
                        "port {} outside computed block [{}, {})",
                        p.src.port,
                        expected.1,
                        expected.1 + expected.2
                    );
                    ports_seen.push(p.src.port);
                }
                v => panic!("{v:?}"),
            }
        }
        // The computed block is the hard cap: the fifth flow drops.
        let dst = Endpoint::new(ip(203, 0, 113, 10), 2000);
        assert_eq!(
            n.process_outbound(Packet::udp(src, dst, vec![]), t(0)),
            NatVerdict::Drop(DropReason::PortExhausted)
        );
        // Fully deterministic: a fresh engine with a different seed
        // produces identical placements.
        let mut m = Nat::new(cfg, pool(), 12345);
        let p = match m.process_outbound(
            Packet::udp(src, Endpoint::new(ip(203, 0, 113, 10), 1000), vec![]),
            t(0),
        ) {
            NatVerdict::Forward(p) => p.src,
            v => panic!("{v:?}"),
        };
        assert_eq!(p.port, ports_seen[0]);
        assert_eq!(p.ip, pool()[expected.0]);
    }

    #[test]
    fn external_for_diagnostic() {
        let mut n = nat(NatConfig::cgn_default());
        let p = udp_out(&mut n, internal_host(1), server(), t(0));
        assert_eq!(
            n.external_for(Protocol::Udp, internal_host(1), t(1)),
            Some(p.src)
        );
        assert_eq!(
            n.external_for(Protocol::Udp, internal_host(1), t(120)),
            None
        );
    }

    #[test]
    fn tracer_records_sampled_flow_lifecycle_behind_the_nat() {
        use cgn_trace::{SpanKind, TraceConfig};
        let mut n = nat(NatConfig::cgn_default());
        n.set_tracer(Box::new(ShardTracer::new(0, &TraceConfig::sampled(1))));
        let a = internal_host(1);
        let s = server();
        let out = udp_out(&mut n, a, s, t(1)); // admit + first translate
        let _ = udp_out(&mut n, a, s, t(2)); // reuse: translate + refresh
        let reply = Packet::udp(s, out.src, vec![1]);
        assert!(matches!(
            n.process_inbound(reply, t(3)),
            NatVerdict::Forward(_)
        ));
        n.sweep(t(400)); // past the 60 s UDP timeout
        let tr = n.tracer().expect("tracer installed");
        let kinds: Vec<SpanKind> = tr.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Admit,
                SpanKind::Translate,
                SpanKind::Translate,
                SpanKind::Refresh,
                SpanKind::TranslateIn,
                SpanKind::Expire,
            ]
        );
        let key = tr.events().next().expect("events").key;
        assert_eq!(key.internal_ip, a.ip);
        assert_eq!(key.internal_port, a.port);
        assert_eq!(key.external_ip, out.src.ip);
        assert_eq!(key.external_port, out.src.port);
        assert!(key.udp);
        assert_eq!(tr.sampled_flows(), 1);
        assert_eq!(tr.live_sampled(), 0);
    }

    #[test]
    fn tracer_with_sampling_off_records_nothing() {
        use cgn_trace::TraceConfig;
        let mut n = nat(NatConfig::cgn_default());
        // Phase profiling only: flow fire sites stay silent.
        let cfg = TraceConfig {
            sample_one_in: 0,
            profile_phases: true,
            ..TraceConfig::off()
        };
        n.set_tracer(Box::new(ShardTracer::new(0, &cfg)));
        let _ = udp_out(&mut n, internal_host(1), server(), t(1));
        n.sweep(t(400));
        let tr = n.tracer().expect("tracer installed");
        assert_eq!(tr.events().count(), 0);
        assert_eq!(tr.sampled_flows(), 0);
        // ... but the sweep phase recorded wall-clock.
        assert_eq!(
            tr.phases().histogram(cgn_trace::Phase::Sweep).count,
            1,
            "one sweep lap recorded"
        );
    }

    #[test]
    fn burst_pipeline_records_phase_laps_when_profiling() {
        use cgn_trace::{Phase, TraceConfig};
        let mut n = nat(NatConfig::cgn_default());
        n.set_tracer(Box::new(ShardTracer::new(0, &TraceConfig::sampled(1))));
        let pkts: Vec<Header> = (1..=8)
            .map(|i| Header::new(internal_host(i), server(), None))
            .collect();
        let verdicts = burst(&mut n, &pkts, t(1), false);
        assert_eq!(verdicts.len(), 8);
        let replies: Vec<Header> = verdicts
            .iter()
            .map(|v| match v {
                (HeaderVerdict::Forward, Some(h)) => Header::new(server(), h.src, None),
                v => panic!("expected Forward, got {v:?}"),
            })
            .collect();
        burst(&mut n, &replies, t(2), true);
        let tr = n.tracer().expect("tracer installed");
        for phase in [
            Phase::BurstResolve,
            Phase::BurstPrefetch,
            Phase::BurstTranslate,
        ] {
            assert_eq!(
                tr.phases().histogram(phase).count,
                2,
                "one outbound + one inbound lap for {phase:?}"
            );
        }
        // All 8 flows sampled at one-in-1; inbound replies recorded.
        assert_eq!(tr.sampled_flows(), 8);
        assert!(tr
            .events()
            .any(|e| matches!(e.kind, cgn_trace::SpanKind::TranslateIn)));
    }
}
