//! Sharded NAT engine: translation state partitioned by external IP.
//!
//! A [`ShardedNat`] splits a CGN's external address pool across N
//! shards; each shard is a complete [`Nat`] owning its own port
//! allocators, mapping tables and [`NatStats`]. Internal hosts are
//! **hashed to a shard at admission** ([`ShardedNat::shard_of`]), so a
//! subscriber's whole flow history lives in exactly one shard — the
//! per-external-IP state partitioning that lets a CGN scale across
//! cores (and, in real deployments, across chassis).
//!
//! Because shards share no mutable state, batches of packets that were
//! pre-partitioned by shard can be processed on worker threads with no
//! synchronization beyond the final join ([`ShardedNat::process_bursts`]),
//! and the outcome is bit-identical to processing the same batches
//! sequentially shard-by-shard, one packet at a time.
//!
//! One behavioural difference to a monolithic [`Nat`] is intentional
//! **by default**: hairpinning only resolves within a shard. An
//! outbound packet addressed to an external IP owned by a *different*
//! shard is forwarded toward the core like any other packet — the same
//! thing happens between the chassis of a multi-box CGN deployment.
//! [`ShardedNat::set_cross_shard_hairpin`] opts into single-chassis
//! semantics instead: such a packet is looped back through the owner
//! shard's hairpin path, making internal-to-internal traffic
//! behaviourally identical to a monolithic [`Nat`].

use crate::config::NatConfig;
use crate::metrics::EngineMetrics;
use crate::nat::{Header, HeaderVerdict, Nat, NatStats, NatVerdict, PortOccupancy};
use crate::store::StoreOccupancy;
use crate::telemetry::EventSink;
use cgn_metrics::Snapshot;
use netcore::{Packet, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// SplitMix64 finalizer — the shard hash must be stable across runs
/// and platforms, so it is spelled out in [`crate::store`] rather than
/// borrowed from `std::hash` (whose output is not guaranteed across
/// releases). Re-exported here because sharding is its original home.
pub use crate::store::mix64;
use crate::store::MixMap;

/// Run `f` over a list of mutually independent work items on up to
/// `threads` scoped worker threads (`threads <= 1` runs in place on
/// the caller's thread). Items are split into contiguous groups, one
/// per worker, so results come back **in item order** regardless of
/// scheduling — the scatter/gather primitive behind
/// [`ShardedNat::process_bursts`] and the traffic driver's epoch
/// engine.
pub fn scatter<T, R, F>(work: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || work.len() <= 1 {
        return work.into_iter().map(f).collect();
    }
    let chunk = work.len().div_ceil(threads.min(work.len()));
    let mut groups: Vec<Vec<T>> = Vec::new();
    let mut work = work.into_iter();
    loop {
        let group: Vec<T> = work.by_ref().take(chunk).collect();
        if group.is_empty() {
            break;
        }
        groups.push(group);
    }
    let f = &f;
    let mut out = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| scope.spawn(move || group.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            out.extend(h.join().expect("scatter worker panicked"));
        }
    });
    out
}

/// A CGN whose state is partitioned into independent [`Nat`] shards.
#[derive(Debug)]
pub struct ShardedNat {
    shards: Vec<Nat>,
    /// External IP → owning shard, for inbound routing. Looked up once
    /// a packet and never iterated, so the deterministic [`MixMap`]
    /// hash keeps SipHash off the per-packet path at no change in
    /// behaviour.
    ext_owner: MixMap<Ipv4Addr, usize>,
    /// Opt-in single-chassis loopback: outbound packets targeting a
    /// *foreign* shard's pool hairpin through the owner shard instead
    /// of forwarding toward the core (multi-chassis default).
    cross_shard_hairpin: bool,
    /// Per-shard header and verdict scratch of the burst wrappers,
    /// empty until the first burst.
    scratch: Vec<(Vec<Header>, Vec<HeaderVerdict>)>,
}

impl ShardedNat {
    /// Partition `external_ips` round-robin across `shards` shards, each
    /// seeded deterministically from `seed` and its shard index.
    ///
    /// Panics if `shards == 0` or there are fewer external IPs than
    /// shards (every shard must own at least one public address).
    pub fn new(config: NatConfig, external_ips: Vec<Ipv4Addr>, shards: u16, seed: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            external_ips.len() >= shards as usize,
            "each shard needs at least one external IP ({} IPs for {} shards)",
            external_ips.len(),
            shards
        );
        let mut pools: Vec<Vec<Ipv4Addr>> = vec![Vec::new(); shards as usize];
        let mut ext_owner = MixMap::default();
        for (i, ip) in external_ips.into_iter().enumerate() {
            let shard = i % shards as usize;
            pools[shard].push(ip);
            ext_owner.insert(ip, shard);
        }
        let shards = pools
            .into_iter()
            .enumerate()
            .map(|(i, pool)| Nat::new(config.clone(), pool, seed.wrapping_add(mix64(i as u64 + 1))))
            .collect();
        ShardedNat {
            shards,
            ext_owner,
            cross_shard_hairpin: false,
            scratch: Vec::new(),
        }
    }

    /// Opt into single-chassis hairpin semantics: an outbound packet
    /// addressed to an external IP owned by a *different* shard is
    /// looped back through the owner shard's hairpin path (filtering,
    /// refresh and source-rewrite behaviour included), so
    /// internal-to-internal traffic matches a monolithic [`Nat`]
    /// exactly. Off by default (multi-chassis forward semantics).
    ///
    /// Only the packet-at-a-time [`ShardedNat::process_outbound`] path
    /// resolves cross-shard loopback — it is the one place where two
    /// shards' state meet, which is exactly what the pre-partitioned
    /// parallel burst path must not do (see
    /// [`ShardedNat::process_bursts`]).
    pub fn set_cross_shard_hairpin(&mut self, enabled: bool) {
        self.cross_shard_hairpin = enabled;
    }

    /// Hand `parts[i]` to shard `i` with `install`. Panics unless
    /// exactly one part per shard is supplied.
    fn install<T>(&mut self, parts: Vec<T>, what: &str, install: fn(&mut Nat, T)) {
        let n = self.shards.len();
        assert_eq!(parts.len(), n, "one {what} per shard required");
        for (shard, part) in self.shards.iter_mut().zip(parts) {
            install(shard, part);
        }
    }

    /// Install one telemetry sink per shard, in shard order (see
    /// [`crate::telemetry`]).
    pub fn set_sinks(&mut self, sinks: Vec<Box<dyn EventSink>>) {
        self.install(sinks, "telemetry sink", Nat::set_sink);
    }

    /// Remove and return every shard's telemetry sink, in shard order
    /// (`None` for shards that had none installed).
    pub fn take_sinks(&mut self) -> Vec<Option<Box<dyn EventSink>>> {
        self.shards.iter_mut().map(|s| s.take_sink()).collect()
    }

    /// Install one runtime-metrics registry per shard, in shard order
    /// and before the first packet (see [`Nat::set_metrics`]).
    pub fn set_metrics(&mut self, registries: Vec<Box<EngineMetrics>>) {
        self.install(registries, "metrics registry", Nat::set_metrics);
    }

    /// Install one flow/phase tracer per shard, in shard order (see
    /// [`cgn_trace`]).
    pub fn set_tracers(&mut self, tracers: Vec<Box<cgn_trace::ShardTracer>>) {
        self.install(tracers, "tracer", Nat::set_tracer);
    }

    /// Remove and return every shard's tracer, in shard order (`None`
    /// for shards that had none installed).
    pub fn take_tracers(&mut self) -> Vec<Option<Box<cgn_trace::ShardTracer>>> {
        self.shards.iter_mut().map(|s| s.take_tracer()).collect()
    }

    /// Fleet-wide wall-clock phase profile: every shard tracer's
    /// histograms merged in shard order. `None` when no shard has a
    /// tracer installed. Strictly an annotation layer — callers must
    /// only render it into published expositions, never into the
    /// deterministic windowed snapshots.
    pub fn phase_profile(&self) -> Option<cgn_trace::PhaseProfiler> {
        let mut merged: Option<cgn_trace::PhaseProfiler> = None;
        for shard in &self.shards {
            if let Some(t) = shard.tracer() {
                merged
                    .get_or_insert_with(cgn_trace::PhaseProfiler::new)
                    .merge(t.phases());
            }
        }
        merged
    }

    /// Merged flight-recorder dump across shards, ordered by
    /// `(shard, seq)` — a deterministic function of the run, ready for
    /// [`cgn_trace::chrome_trace_json`]. `None` when no shard has a
    /// tracer installed.
    pub fn trace_dump(&self) -> Option<cgn_trace::TraceDump> {
        let mut shards_seen = false;
        let mut one_in = 0u32;
        let per_shard: Vec<(Vec<cgn_trace::TraceEvent>, u64, u64)> = self
            .shards
            .iter()
            .filter_map(|s| s.tracer())
            .map(|t| {
                shards_seen = true;
                one_in = one_in.max(t.sample_one_in());
                (
                    t.events().copied().collect(),
                    t.evicted(),
                    t.sampled_flows(),
                )
            })
            .collect();
        if !shards_seen {
            return None;
        }
        Some(cgn_trace::TraceDump::from_shards(per_shard, one_in))
    }

    /// Fleet-wide metrics snapshot: every shard's
    /// [`Nat::metrics_snapshot`] merged in shard order. `None` when no
    /// shard has a registry installed. Shard order — never thread
    /// order — is what keeps the result bit-identical for any worker
    /// count.
    pub fn metrics_snapshot(&self) -> Option<Snapshot> {
        let mut merged: Option<Snapshot> = None;
        for shard in &self.shards {
            if let Some(snap) = shard.metrics_snapshot() {
                match &mut merged {
                    Some(m) => m.merge(&snap),
                    None => merged = Some(snap),
                }
            }
        }
        merged
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an internal host is admitted to. Stable for the
    /// lifetime of the engine: depends only on the host address and the
    /// shard count.
    pub fn shard_of(&self, internal: Ipv4Addr) -> usize {
        (mix64(u32::from(internal) as u64) % self.shards.len() as u64) as usize
    }

    pub fn shards(&self) -> &[Nat] {
        &self.shards
    }

    /// Mutable access to the shards, for callers that drive per-shard
    /// work on their own worker threads (e.g. the traffic driver's
    /// epoch engine).
    pub fn shards_mut(&mut self) -> &mut [Nat] {
        &mut self.shards
    }

    /// Whether `ip` belongs to any shard's external pool.
    pub fn is_external_ip(&self, ip: Ipv4Addr) -> bool {
        self.ext_owner.contains_key(&ip)
    }

    /// Every external IP across all shards, in shard order.
    pub fn external_ips(&self) -> Vec<Ipv4Addr> {
        self.shards
            .iter()
            .flat_map(|s| s.external_ips().iter().copied())
            .collect()
    }

    /// Route one outbound packet to its owner shard. With
    /// [`ShardedNat::set_cross_shard_hairpin`] enabled, a translated
    /// packet that targets another shard's pool address is looped back
    /// through that shard's hairpin path instead of forwarding toward
    /// the core.
    pub fn process_outbound(&mut self, pkt: Packet, now: SimTime) -> NatVerdict {
        let original_src = pkt.src;
        let shard = self.shard_of(pkt.src.ip);
        let verdict = self.shards[shard].process_outbound(pkt, now);
        if !self.cross_shard_hairpin {
            return verdict;
        }
        // The admitting shard forwards anything outside its own pool; if
        // a UDP/TCP flow's destination is a sibling shard's pool
        // address, single-chassis semantics loop it back there. ICMP
        // passes through unmodified, as a monolithic Nat forwards it
        // (the "private IP in traceroute" artifact): it has no header.
        let NatVerdict::Forward(mut pkt) = verdict else {
            return verdict;
        };
        let owner = self.ext_owner.get(&pkt.dst.ip);
        let (Some(mut h), Some(&owner)) = (Header::of(&pkt), owner) else {
            return NatVerdict::Forward(pkt);
        };
        debug_assert_ne!(owner, shard, "own-pool hairpins resolve inside the shard");
        let verdict = self.shards[owner].hairpin(&mut h, original_src, now);
        h.write_to(&mut pkt);
        verdict.with(pkt)
    }

    /// Route one inbound packet to the shard owning its destination
    /// external IP (shard 0 records the drop for strays addressed to an
    /// IP no shard owns).
    pub fn process_inbound(&mut self, pkt: Packet, now: SimTime) -> NatVerdict {
        let shard = self.ext_owner.get(&pkt.dst.ip).copied().unwrap_or(0);
        self.shards[shard].process_inbound(pkt, now)
    }

    /// Sweep every shard's expired mappings.
    pub fn sweep(&mut self, now: SimTime) {
        for shard in &mut self.shards {
            shard.sweep(now);
        }
    }

    /// Live mappings across all shards.
    pub fn mapping_count(&self) -> usize {
        self.shards.iter().map(|s| s.mapping_count()).sum()
    }

    /// Slab-store occupancy summed across shards (arena slots,
    /// free-list lengths, interner sizes, parked timers).
    pub fn store_occupancy(&self) -> StoreOccupancy {
        let mut out = StoreOccupancy::default();
        for shard in &self.shards {
            out.merge(&shard.store_occupancy());
        }
        out
    }

    /// Arena chunks summed across shards (the fleet-wide
    /// `cgn_arena_chunks` reading) — stable once every shard is past
    /// warm-up, since arena growth past a shard's first chunks never
    /// reallocates.
    pub fn arena_chunks(&self) -> u64 {
        self.shards.iter().map(|s| s.arena_chunks()).sum()
    }

    /// Free-listed slot ids summed across shards (the fleet-wide
    /// `cgn_arena_slots_free` reading).
    pub fn arena_slots_free(&self) -> u64 {
        self.shards.iter().map(|s| s.arena_slots_free()).sum()
    }

    /// Counters folded across shards in shard order.
    pub fn merged_stats(&self) -> NatStats {
        let mut out = NatStats::default();
        for shard in &self.shards {
            out.merge(shard.stats());
        }
        out
    }

    /// Unexpired-mapping count per internal host across all shards.
    /// Hosts are partitioned, so this is a disjoint union.
    pub fn ports_by_host(&self, now: SimTime) -> HashMap<Ipv4Addr, u32> {
        let mut out = HashMap::new();
        for shard in &self.shards {
            out.extend(shard.ports_by_host(now));
        }
        out
    }

    /// Allocator fill levels across all shards, sorted for
    /// deterministic iteration.
    pub fn port_occupancy(&self) -> Vec<PortOccupancy> {
        let mut out: Vec<PortOccupancy> = self
            .shards
            .iter()
            .flat_map(|s| s.port_occupancy())
            .collect();
        out.sort_by_key(|o| (o.ext_ip, o.proto));
        out
    }

    /// Split an outbound packet stream into per-shard batches, in
    /// arrival order within each batch — the input format of
    /// [`ShardedNat::process_bursts`].
    pub fn partition_outbound(&self, pkts: impl IntoIterator<Item = Packet>) -> Vec<Vec<Packet>> {
        let mut batches: Vec<Vec<Packet>> = vec![Vec::new(); self.shards.len()];
        for pkt in pkts {
            batches[self.shard_of(pkt.src.ip)].push(pkt);
        }
        batches
    }

    /// Process one pre-partitioned outbound batch per shard on up to
    /// `threads` scoped worker threads (`threads <= 1` runs in place),
    /// each as one burst through the shard's staging halves
    /// ([`Nat::stage_burst`], [`Nat::translate_staged`]). Returns the
    /// verdicts per shard, in batch order.
    ///
    /// The halves work on [`Header`]s; this boundary copies them out of
    /// the caller's packets and writes the rewritten endpoints back.
    /// Verdicts, stats and store state are bit-identical to
    /// [`ShardedNat::process_outbound`] in batch order, for every thread
    /// count and burst size. Cross-shard hairpinning would break that
    /// shard independence: enable [`ShardedNat::set_cross_shard_hairpin`]
    /// only with the packet-at-a-time routing path (debug builds assert
    /// this).
    ///
    /// Panics if `bursts.len() != self.shard_count()`.
    pub fn process_bursts(
        &mut self,
        bursts: Vec<Vec<Packet>>,
        now: SimTime,
        threads: usize,
    ) -> Vec<Vec<NatVerdict>> {
        debug_assert!(
            !self.cross_shard_hairpin,
            "cross-shard hairpin loopback needs the packet-at-a-time \
             routing path; burst processing keeps shards independent"
        );
        self.scatter_bursts(bursts, now, threads, false)
    }

    /// Split an inbound packet stream into per-shard batches by the
    /// destination external IP's owner, in arrival order within each
    /// batch — the input format of
    /// [`ShardedNat::process_inbound_bursts`]. Strays addressed to an
    /// IP no shard owns land in shard 0's batch, which records the
    /// drop — exactly [`ShardedNat::process_inbound`]'s routing.
    pub fn partition_inbound(&self, pkts: impl IntoIterator<Item = Packet>) -> Vec<Vec<Packet>> {
        let mut batches: Vec<Vec<Packet>> = vec![Vec::new(); self.shards.len()];
        for pkt in pkts {
            let shard = self.ext_owner.get(&pkt.dst.ip).copied().unwrap_or(0);
            batches[shard].push(pkt);
        }
        batches
    }

    /// Inbound mirror of [`ShardedNat::process_bursts`], through
    /// [`Nat::stage_inbound_burst`] / [`Nat::translate_inbound_staged`].
    /// Shards are mutually independent (inbound packets never cross
    /// shards — the owner of the destination IP holds the mapping), so
    /// verdicts per shard in batch order are bit-identical to routing
    /// each packet through [`ShardedNat::process_inbound`], for every
    /// thread count and burst size.
    ///
    /// Panics if `bursts.len() != self.shard_count()`.
    pub fn process_inbound_bursts(
        &mut self,
        bursts: Vec<Vec<Packet>>,
        now: SimTime,
        threads: usize,
    ) -> Vec<Vec<NatVerdict>> {
        self.scatter_bursts(bursts, now, threads, true)
    }

    fn scatter_bursts(
        &mut self,
        bursts: Vec<Vec<Packet>>,
        now: SimTime,
        threads: usize,
        inbound: bool,
    ) -> Vec<Vec<NatVerdict>> {
        assert_eq!(
            bursts.len(),
            self.shards.len(),
            "one burst per shard required"
        );
        // Grown on the first burst, so construction allocates nothing.
        self.scratch
            .resize_with(self.shards.len(), Default::default);
        let work: Vec<_> = self
            .shards
            .iter_mut()
            .zip(&mut self.scratch)
            .zip(bursts)
            .collect();
        scatter(work, threads, |((shard, scratch), burst)| {
            packet_burst(shard, scratch, burst, now, inbound)
        })
    }
}

/// One shard's packets as one burst through the staging halves: copy
/// the headers out and stage them, move each packet into a `Forward`
/// verdict while the prefetches are in flight, translate, then write
/// the rewritten endpoints into the verdicts in place. A burst holding
/// ICMP, which has no header, runs packet at a time instead.
/// (Wrapping after translating costs `replay-hit` ≈ 8 % of its rate.)
fn packet_burst(
    nat: &mut Nat,
    (headers, verdicts): &mut (Vec<Header>, Vec<HeaderVerdict>),
    pkts: Vec<Packet>,
    now: SimTime,
    inbound: bool,
) -> Vec<NatVerdict> {
    headers.clear();
    verdicts.clear();
    headers.extend(pkts.iter().map_while(Header::of));
    if headers.len() < pkts.len() {
        let scalar = |pkt| match inbound {
            true => nat.process_inbound(pkt, now),
            false => nat.process_outbound(pkt, now),
        };
        return pkts.into_iter().map(scalar).collect();
    }
    let mut clock = nat.phase_clock();
    match inbound {
        true => nat.stage_inbound_burst(headers, &mut clock),
        false => nat.stage_burst(headers, &mut clock),
    }
    let mut out: Vec<NatVerdict> = pkts.into_iter().map(NatVerdict::Forward).collect();
    match inbound {
        true => nat.translate_inbound_staged(headers, now, verdicts, &mut clock),
        false => nat.translate_staged(headers, now, verdicts, &mut clock),
    }
    for ((slot, h), &verdict) in out.iter_mut().zip(&*headers).zip(&*verdicts) {
        let NatVerdict::Forward(pkt) = slot else {
            continue;
        };
        h.write_to(pkt);
        if verdict != HeaderVerdict::Forward {
            // Hairpins and drops are rare: one more move is no matter.
            let pkt = std::mem::replace(pkt, Packet::udp(h.src, h.dst, Vec::new()));
            *slot = verdict.with(pkt);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Pooling;
    use netcore::{ip, Endpoint};
    use proptest::prelude::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn pool(n: u8) -> Vec<Ipv4Addr> {
        (0..n).map(|k| ip(198, 51, 100, k + 1)).collect()
    }

    fn server() -> Endpoint {
        Endpoint::new(ip(203, 0, 113, 10), 8000)
    }

    fn host(k: u32) -> Endpoint {
        Endpoint::new(Ipv4Addr::from(u32::from(ip(100, 64, 0, 0)) + k), 40000)
    }

    #[test]
    fn external_pool_partitions_without_overlap() {
        let s = ShardedNat::new(NatConfig::cgn_default(), pool(7), 3, 1);
        assert_eq!(s.shard_count(), 3);
        let mut all: Vec<Ipv4Addr> = s.external_ips();
        assert_eq!(all.len(), 7);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 7, "no IP owned by two shards");
        for ip in all {
            assert!(s.is_external_ip(ip));
        }
        for shard in s.shards() {
            assert!(!shard.external_ips().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one external IP")]
    fn more_shards_than_ips_rejected() {
        let _ = ShardedNat::new(NatConfig::cgn_default(), pool(2), 3, 1);
    }

    #[test]
    fn outbound_lands_in_owner_shard_and_inbound_routes_back() {
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = crate::config::FilteringBehavior::EndpointIndependent;
        let mut s = ShardedNat::new(cfg, pool(4), 4, 7);
        for k in 0..32 {
            let shard = s.shard_of(host(k).ip);
            let out = match s.process_outbound(Packet::udp(host(k), server(), vec![]), t(0)) {
                NatVerdict::Forward(p) => p,
                v => panic!("expected Forward, got {v:?}"),
            };
            assert!(
                s.shards()[shard].is_external_ip(out.src.ip),
                "mapping must use the owner shard's pool"
            );
            // The reply finds its way back through the same shard.
            let back = Packet::udp(server(), out.src, vec![]);
            match s.process_inbound(back, t(1)) {
                NatVerdict::Forward(p) => assert_eq!(p.dst, host(k)),
                v => panic!("expected Forward back, got {v:?}"),
            }
        }
        assert_eq!(s.mapping_count() as u64, s.merged_stats().mappings_created);
    }

    #[test]
    fn stray_inbound_dropped_deterministically() {
        let mut s = ShardedNat::new(NatConfig::cgn_default(), pool(2), 2, 3);
        let stray = Packet::udp(server(), Endpoint::new(ip(9, 9, 9, 9), 1), vec![]);
        assert!(matches!(
            s.process_inbound(stray, t(0)),
            NatVerdict::Drop(crate::nat::DropReason::NoMapping)
        ));
        assert_eq!(s.merged_stats().drop_no_mapping, 1);
    }

    #[test]
    fn shard_of_is_stable_and_spreads_hosts() {
        let s = ShardedNat::new(NatConfig::cgn_default(), pool(8), 8, 1);
        let mut counts = vec![0usize; 8];
        for k in 0..4_000 {
            let a = s.shard_of(host(k).ip);
            assert_eq!(a, s.shard_of(host(k).ip), "hash must be stable");
            counts[a] += 1;
        }
        let (min, max) = (
            counts.iter().min().copied().unwrap(),
            counts.iter().max().copied().unwrap(),
        );
        assert!(
            min * 2 > max,
            "hosts should spread roughly evenly: {counts:?}"
        );
    }

    #[test]
    fn paired_pooling_sticky_within_shard() {
        let mut cfg = NatConfig::cgn_default();
        cfg.pooling = Pooling::Paired;
        let mut s = ShardedNat::new(cfg, pool(6), 3, 5);
        for k in 0..10 {
            let mut ips = std::collections::HashSet::new();
            for flow in 0..8u16 {
                let src = Endpoint::new(host(k).ip, 40000 + flow);
                if let NatVerdict::Forward(p) =
                    s.process_outbound(Packet::udp(src, server(), vec![]), t(0))
                {
                    ips.insert(p.src.ip);
                }
            }
            assert_eq!(ips.len(), 1, "pairing must hold across a host's flows");
        }
    }

    #[test]
    fn sweep_expires_across_all_shards() {
        let mut s = ShardedNat::new(NatConfig::cgn_default(), pool(4), 4, 2);
        for k in 0..64 {
            let _ = s.process_outbound(Packet::udp(host(k), server(), vec![]), t(0));
        }
        assert_eq!(s.mapping_count(), 64);
        s.sweep(t(61));
        assert_eq!(s.mapping_count(), 0);
        assert_eq!(s.merged_stats().mappings_expired, 64);
        assert_eq!(s.ports_by_host(t(61)).len(), 0);
    }

    /// Two hosts guaranteed to live in different shards.
    fn hosts_in_different_shards(s: &ShardedNat) -> (Endpoint, Endpoint) {
        let a = host(0);
        let b = (1..256)
            .map(host)
            .find(|h| s.shard_of(h.ip) != s.shard_of(a.ip))
            .expect("some host lands in another shard");
        (a, b)
    }

    /// The satellite behavioural-equivalence check: with loopback
    /// enabled, internal-to-internal traffic crossing shards produces
    /// the same verdict semantics as a monolithic [`Nat`] — delivery
    /// to the target's internal endpoint, the §4.1 internal-source
    /// leak behaviour, filtering, and the hairpin counter.
    #[test]
    fn cross_shard_hairpin_matches_monolithic_semantics() {
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = crate::config::FilteringBehavior::EndpointIndependent;

        // Monolithic reference: B opens a mapping, A reaches B via its
        // external endpoint and the NAT loops it back, leaking A's
        // internal source (cgn_default keeps hairpin_internal_source).
        let mut mono = Nat::new(cfg.clone(), pool(4), 7);
        let (a, b) = (host(0), host(1));
        let b_ext_mono = match mono.process_outbound(Packet::udp(b, server(), vec![]), t(0)) {
            NatVerdict::Forward(p) => p.src,
            v => panic!("{v:?}"),
        };
        let mono_verdict = mono.process_outbound(Packet::udp(a, b_ext_mono, vec![7]), t(1));
        let NatVerdict::Hairpin(mono_p) = mono_verdict else {
            panic!("monolithic reference must hairpin");
        };
        assert_eq!((mono_p.dst, mono_p.src), (b, a));

        // Sharded engine, hosts in different shards.
        let mut s = ShardedNat::new(cfg.clone(), pool(4), 4, 7);
        s.set_cross_shard_hairpin(true);
        let (a, b) = hosts_in_different_shards(&s);
        let b_ext = match s.process_outbound(Packet::udp(b, server(), vec![]), t(0)) {
            NatVerdict::Forward(p) => p.src,
            v => panic!("{v:?}"),
        };
        assert_ne!(
            s.shard_of(a.ip),
            s.shard_of(b.ip),
            "the loopback must actually cross shards"
        );
        match s.process_outbound(Packet::udp(a, b_ext, vec![7]), t(1)) {
            NatVerdict::Hairpin(p) => {
                assert_eq!(p.dst, b, "delivered to B's internal endpoint");
                assert_eq!(p.src, a, "internal source leaks, as monolithic");
            }
            v => panic!("expected cross-shard hairpin, got {v:?}"),
        }
        assert_eq!(s.merged_stats().hairpins, 1);

        // Source-rewrite variant hides the internal endpoint — also
        // identical to the monolithic device's behaviour.
        let mut cfg_rw = cfg.clone();
        cfg_rw.hairpin_internal_source = false;
        let mut s = ShardedNat::new(cfg_rw, pool(4), 4, 7);
        s.set_cross_shard_hairpin(true);
        let (a, b) = hosts_in_different_shards(&s);
        let b_ext = match s.process_outbound(Packet::udp(b, server(), vec![]), t(0)) {
            NatVerdict::Forward(p) => p.src,
            v => panic!("{v:?}"),
        };
        match s.process_outbound(Packet::udp(a, b_ext, vec![7]), t(1)) {
            NatVerdict::Hairpin(p) => {
                assert!(s.is_external_ip(p.src.ip), "source rewritten to the pool");
                assert_ne!(p.src, a);
            }
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn cross_shard_hairpin_respects_filtering_and_config() {
        // APDF filtering (cgn_default): B never contacted A's external
        // endpoint, so the loopback is filtered — exactly what the
        // monolithic device does.
        let mut s = ShardedNat::new(NatConfig::cgn_default(), pool(4), 4, 7);
        s.set_cross_shard_hairpin(true);
        let (a, b) = hosts_in_different_shards(&s);
        let b_ext = match s.process_outbound(Packet::udp(b, server(), vec![]), t(0)) {
            NatVerdict::Forward(p) => p.src,
            v => panic!("{v:?}"),
        };
        assert_eq!(
            s.process_outbound(Packet::udp(a, b_ext, vec![]), t(1)),
            NatVerdict::Drop(crate::nat::DropReason::Filtered)
        );

        // Hairpinning disabled in the NAT config: the loopback path is
        // taken but the owner shard drops, as a monolithic Nat would.
        let mut cfg = NatConfig::cgn_default();
        cfg.hairpinning = false;
        let mut s = ShardedNat::new(cfg, pool(4), 4, 7);
        s.set_cross_shard_hairpin(true);
        let (a, b) = hosts_in_different_shards(&s);
        let b_ext = match s.process_outbound(Packet::udp(b, server(), vec![]), t(0)) {
            NatVerdict::Forward(p) => p.src,
            v => panic!("{v:?}"),
        };
        assert_eq!(
            s.process_outbound(Packet::udp(a, b_ext, vec![]), t(1)),
            NatVerdict::Drop(crate::nat::DropReason::NoHairpin)
        );
    }

    #[test]
    fn cross_shard_loopback_passes_icmp_through_unmodified() {
        // Router-originated ICMP addressed to a pool IP forwards
        // untranslated in a monolithic Nat; the loopback must not
        // route it into the flow-only hairpin path (which would
        // panic on a protocol-less packet).
        let mut s = ShardedNat::new(NatConfig::cgn_default(), pool(4), 4, 7);
        s.set_cross_shard_hairpin(true);
        let (a, b) = hosts_in_different_shards(&s);
        let b_shard_ip = s.shards()[s.shard_of(b.ip)].external_ips()[0];
        let orig = Packet::udp(a, server(), vec![]).with_ttl(1);
        let mut icmp = orig.ttl_exceeded_reply(ip(100, 64, 255, 1));
        icmp.dst = Endpoint::new(b_shard_ip, 0);
        match s.process_outbound(icmp.clone(), t(0)) {
            NatVerdict::Forward(p) => assert_eq!(p, icmp, "ICMP passes unmodified"),
            v => panic!("expected ICMP pass-through, got {v:?}"),
        }
    }

    #[test]
    fn cross_shard_loopback_disabled_keeps_multi_chassis_forwarding() {
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = crate::config::FilteringBehavior::EndpointIndependent;
        let mut s = ShardedNat::new(cfg, pool(4), 4, 7);
        let (a, b) = hosts_in_different_shards(&s);
        let b_ext = match s.process_outbound(Packet::udp(b, server(), vec![]), t(0)) {
            NatVerdict::Forward(p) => p.src,
            v => panic!("{v:?}"),
        };
        // Default: the packet is translated and forwarded toward the
        // core, like traffic between two chassis of a multi-box CGN.
        match s.process_outbound(Packet::udp(a, b_ext, vec![]), t(1)) {
            NatVerdict::Forward(p) => assert_eq!(p.dst, b_ext),
            v => panic!("expected multi-chassis Forward, got {v:?}"),
        }
        assert_eq!(s.merged_stats().hairpins, 0);
    }

    /// Route each shard's batch one packet at a time, sequentially:
    /// the reference the burst wrappers must reproduce.
    fn sequential(
        nat: &mut ShardedNat,
        batches: Vec<Vec<Packet>>,
        now: SimTime,
        inbound: bool,
    ) -> Vec<Vec<NatVerdict>> {
        batches
            .into_iter()
            .enumerate()
            .map(|(i, batch)| {
                let shard = &mut nat.shards_mut()[i];
                batch
                    .into_iter()
                    .map(|p| match inbound {
                        true => shard.process_inbound(p, now),
                        false => shard.process_outbound(p, now),
                    })
                    .collect()
            })
            .collect()
    }

    fn workload(hosts: u32, flows_per_host: u16) -> Vec<Packet> {
        (0..hosts)
            .flat_map(|k| {
                (0..flows_per_host).map(move |f| {
                    Packet::udp(
                        Endpoint::new(host(k).ip, 40000 + f),
                        Endpoint::new(ip(203, 0, 113, (k % 200) as u8), 1000 + f),
                        vec![],
                    )
                })
            })
            .collect()
    }

    /// The burst pipeline against packet-at-a-time processing:
    /// verdicts, stats and port state must be bit-identical whatever
    /// the thread count.
    fn burst_equivalence(shards: u16, threads: usize, hosts: u32, flows_per_host: u16, seed: u64) {
        let mk = || ShardedNat::new(NatConfig::cgn_default(), pool(8), shards, seed);
        let pkts = workload(hosts, flows_per_host);

        let mut scalar = mk();
        let batches = scalar.partition_outbound(pkts.clone());
        let scalar_verdicts = sequential(&mut scalar, batches, t(0), false);

        let mut burst = mk();
        let batches = burst.partition_outbound(pkts);
        let burst_verdicts = burst.process_bursts(batches, t(0), threads);

        assert_eq!(scalar_verdicts, burst_verdicts);
        assert_eq!(scalar.merged_stats(), burst.merged_stats());
        assert_eq!(scalar.ports_by_host(t(0)), burst.ports_by_host(t(0)));
        assert_eq!(scalar.port_occupancy(), burst.port_occupancy());
    }

    #[test]
    fn bursts_match_packet_at_a_time_processing() {
        burst_equivalence(4, 4, 100, 6, 11);
    }

    /// The inbound burst pipeline against packet-at-a-time inbound
    /// routing: establish mappings outbound, reply to every translated
    /// external endpoint (with the occasional stray), and compare
    /// verdicts, stats and port state for any thread count.
    fn inbound_burst_equivalence(
        shards: u16,
        threads: usize,
        hosts: u32,
        flows_per_host: u16,
        seed: u64,
    ) {
        let mk = || ShardedNat::new(NatConfig::cgn_default(), pool(8), shards, seed);
        let pkts = workload(hosts, flows_per_host);
        // Establish the mappings, then reply from each contacted
        // destination back to the translated external endpoint; every
        // seventh reply is shadowed by a stray to an unowned IP.
        let build = |nat: &mut ShardedNat| -> Vec<Packet> {
            let batches = nat.partition_outbound(pkts.clone());
            let verdicts = nat.process_bursts(batches, t(0), 1);
            let mut replies = Vec::new();
            for (i, v) in verdicts.iter().flatten().enumerate() {
                if let NatVerdict::Forward(p) = v {
                    replies.push(Packet::udp(p.dst, p.src, vec![]));
                    if i % 7 == 0 {
                        replies.push(Packet::udp(
                            p.dst,
                            Endpoint::new(ip(9, 9, 9, 9), p.src.port),
                            vec![],
                        ));
                    }
                }
            }
            replies
        };

        let mut scalar = mk();
        let replies = build(&mut scalar);
        let batches = scalar.partition_inbound(replies.clone());
        let scalar_verdicts = sequential(&mut scalar, batches, t(1), true);

        let mut burst = mk();
        let burst_replies = build(&mut burst);
        assert_eq!(replies, burst_replies, "establishment is deterministic");
        let batches = burst.partition_inbound(burst_replies);
        let burst_verdicts = burst.process_inbound_bursts(batches, t(1), threads);

        assert_eq!(scalar_verdicts, burst_verdicts);
        assert_eq!(scalar.merged_stats(), burst.merged_stats());
        assert_eq!(scalar.store_occupancy(), burst.store_occupancy());
        assert_eq!(scalar.ports_by_host(t(1)), burst.ports_by_host(t(1)));
        assert_eq!(scalar.port_occupancy(), burst.port_occupancy());
    }

    #[test]
    fn inbound_bursts_match_packet_at_a_time_processing() {
        inbound_burst_equivalence(4, 4, 100, 6, 11);
    }

    /// Repeat contacts + expiry churn inside one burst: later packets
    /// must observe the mappings (and removals) earlier packets in the
    /// same burst created.
    #[test]
    fn burst_sees_intra_burst_mappings() {
        let mk = || ShardedNat::new(NatConfig::cgn_default(), pool(4), 1, 3);
        let repeat: Vec<Packet> = (0..6)
            .flat_map(|k| (0..2).map(move |_| Packet::udp(host(k), server(), vec![])))
            .collect();

        let mut scalar = mk();
        let sv = sequential(&mut scalar, vec![repeat.clone()], t(0), false);
        let mut burst = mk();
        let bv = burst.process_bursts(vec![repeat], t(0), 1);
        assert_eq!(sv, bv);
        assert_eq!(scalar.merged_stats(), burst.merged_stats());
        assert_eq!(
            burst.merged_stats().mappings_created,
            6,
            "second contact of each host reuses the burst-created mapping"
        );
    }

    /// ICMP has no header: a burst holding one runs packet at a time,
    /// ICMP verdicts included, and still matches the scalar route.
    #[test]
    fn bursts_holding_icmp_match_packet_at_a_time() {
        let mk = || ShardedNat::new(NatConfig::cgn_default(), pool(2), 1, 3);
        let mut establish = mk();
        let ext = match establish.process_outbound(Packet::udp(host(0), server(), vec![]), t(0)) {
            NatVerdict::Forward(p) => p.src,
            v => panic!("{v:?}"),
        };
        let mut icmp = Packet::udp(ext, server(), vec![]).ttl_exceeded_reply(ip(203, 0, 113, 1));
        icmp.dst = ext;
        let replies = vec![Packet::udp(server(), ext, vec![]), icmp];

        let run = |batched: bool| {
            let mut nat = mk();
            let _ = nat.process_outbound(Packet::udp(host(0), server(), vec![]), t(0));
            let verdicts = match batched {
                true => nat.process_inbound_bursts(vec![replies.clone()], t(1), 1),
                false => sequential(&mut nat, vec![replies.clone()], t(1), true),
            };
            (verdicts, nat.merged_stats())
        };
        let (scalar, burst) = (run(false), run(true));
        assert_eq!(scalar, burst);
        assert!(matches!(burst.0[0][1], NatVerdict::Forward(ref p) if p.dst.ip == host(0).ip));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The burst pipeline is bit-identical to single-threaded
        /// packet-at-a-time processing for arbitrary workload shapes,
        /// shard and thread counts.
        #[test]
        fn prop_bursts_equal_packet_at_a_time(
            shards in 1u16..=8,
            threads in 1usize..=6,
            hosts in 1u32..60,
            flows_per_host in 1u16..6,
            seed in any::<u64>(),
        ) {
            burst_equivalence(shards, threads, hosts, flows_per_host, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The inbound burst pipeline is bit-identical to
        /// packet-at-a-time inbound routing for arbitrary workload
        /// shapes, shard and thread counts.
        #[test]
        fn prop_inbound_bursts_equal_packet_at_a_time(
            shards in 1u16..=8,
            threads in 1usize..=6,
            hosts in 1u32..60,
            flows_per_host in 1u16..6,
            seed in any::<u64>(),
        ) {
            inbound_burst_equivalence(shards, threads, hosts, flows_per_host, seed);
        }
    }
}
