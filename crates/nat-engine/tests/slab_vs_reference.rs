//! Differential test: the slab-backed [`nat_engine::Nat`] against a
//! HashMap reference model.
//!
//! `RefNat` below is a faithful port of the engine's pre-slab storage
//! layout — `mappings: HashMap<u64, Mapping>`, tuple-keyed
//! `out_index` / `ext_index`, a `keys_by_id` back-map, and a
//! full-scan sweep — with identical translation, filtering, TCP
//! tracking, pooling and port-allocation logic (including the order
//! of RNG draws, so allocations match draw for draw). Both engines
//! are driven with identical flow/churn/sweep sequences and must
//! produce identical verdicts, expiries, stats and occupancy.
//!
//! One counter is engine-specific by design: `sweep_scans` measures
//! *internal* sweep work (due timer-wheel buckets vs. a watermarked
//! table scan), not behaviour, so it is normalised to zero on both
//! sides before stats are compared. Everything else — including
//! `sweeps` and `mappings_expired` — must match exactly.

use nat_engine::{
    check_runtime, DropReason, FilteringBehavior, MappingBehavior, NatConfig, NatStats, NatVerdict,
    Pooling, PortAllocation, PortAllocator,
};
use netcore::{ip, Endpoint, Packet, PacketBody, Protocol, SimTime, TcpFlags};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------------
// Reference model: the old HashMap-backed engine.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefTcp {
    Transitory,
    Established,
    Closing,
}

#[derive(Debug, Clone)]
struct RefMapping {
    proto: Protocol,
    internal: Endpoint,
    external: Endpoint,
    contacted: HashSet<Endpoint>,
    expiry: SimTime,
    tcp: Option<RefTcp>,
}

impl RefMapping {
    fn expired(&self, now: SimTime) -> bool {
        self.expiry <= now
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OutKey {
    Eim(Protocol, Endpoint),
    Adm(Protocol, Endpoint, Ipv4Addr),
    Apdm(Protocol, Endpoint, Endpoint),
}

struct RefNat {
    config: NatConfig,
    external_ips: Vec<Ipv4Addr>,
    rng: StdRng,
    allocators: HashMap<(Ipv4Addr, Protocol), PortAllocator>,
    mappings: HashMap<u64, RefMapping>,
    out_index: HashMap<OutKey, u64>,
    ext_index: HashMap<(Protocol, Endpoint), u64>,
    keys_by_id: HashMap<u64, OutKey>,
    paired: HashMap<Ipv4Addr, Ipv4Addr>,
    sessions_per_host: HashMap<Ipv4Addr, u32>,
    next_id: u64,
    stats: NatStats,
}

fn record_drop(stats: &mut NatStats, r: DropReason) {
    stats.drops += 1;
    match r {
        DropReason::NoMapping => stats.drop_no_mapping += 1,
        DropReason::Filtered => stats.drop_filtered += 1,
        DropReason::PortExhausted => stats.drop_port_exhausted += 1,
        DropReason::SessionLimit => stats.drop_session_limit += 1,
        DropReason::NoHairpin => stats.drop_no_hairpin += 1,
        DropReason::UnmatchedIcmp => stats.drop_unmatched_icmp += 1,
    }
}

impl RefNat {
    fn new(config: NatConfig, external_ips: Vec<Ipv4Addr>, seed: u64) -> Self {
        RefNat {
            config,
            external_ips,
            rng: StdRng::seed_from_u64(seed),
            allocators: HashMap::new(),
            mappings: HashMap::new(),
            out_index: HashMap::new(),
            ext_index: HashMap::new(),
            keys_by_id: HashMap::new(),
            paired: HashMap::new(),
            sessions_per_host: HashMap::new(),
            next_id: 0,
            stats: NatStats::default(),
        }
    }

    fn is_external_ip(&self, ip: Ipv4Addr) -> bool {
        self.external_ips.contains(&ip)
    }

    fn ports_by_host(&self, now: SimTime) -> HashMap<Ipv4Addr, u32> {
        let mut out: HashMap<Ipv4Addr, u32> = HashMap::new();
        for m in self.mappings.values() {
            if !m.expired(now) {
                *out.entry(m.internal.ip).or_insert(0) += 1;
            }
        }
        out
    }

    /// `(ext_ip, proto, allocated, capacity)` rows, sorted.
    fn port_occupancy(&self) -> Vec<(Ipv4Addr, Protocol, usize, usize)> {
        let mut out: Vec<_> = self
            .allocators
            .iter()
            .map(|((ip, proto), a)| (*ip, *proto, a.allocated(), a.capacity()))
            .collect();
        out.sort_by_key(|o| (o.0, o.1));
        out
    }

    fn sweep(&mut self, now: SimTime) {
        self.stats.sweeps += 1;
        let dead: Vec<u64> = self
            .mappings
            .iter()
            .filter(|(_, m)| m.expired(now))
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            self.remove_mapping(id);
            self.stats.mappings_expired += 1;
        }
    }

    fn remove_mapping(&mut self, id: u64) {
        if let Some(m) = self.mappings.remove(&id) {
            self.ext_index.remove(&(m.proto, m.external));
            if let Some(k) = self.keys_by_id.remove(&id) {
                self.out_index.remove(&k);
            }
            if let Some(a) = self.allocators.get_mut(&(m.external.ip, m.proto)) {
                a.release(m.external.port);
            }
            if let Some(c) = self.sessions_per_host.get_mut(&m.internal.ip) {
                *c = c.saturating_sub(1);
            }
        }
    }

    fn timeout(&self, proto: Protocol, tcp: Option<RefTcp>) -> netcore::SimDuration {
        match proto {
            Protocol::Udp => self.config.udp_timeout,
            Protocol::Tcp => match tcp {
                Some(RefTcp::Established) => self.config.tcp_established_timeout,
                _ => self.config.tcp_transitory_timeout,
            },
        }
    }

    fn out_key(&self, proto: Protocol, internal: Endpoint, dst: Endpoint) -> OutKey {
        match self.config.mapping {
            MappingBehavior::EndpointIndependent => OutKey::Eim(proto, internal),
            MappingBehavior::AddressDependent => OutKey::Adm(proto, internal, dst.ip),
            MappingBehavior::AddressAndPortDependent => OutKey::Apdm(proto, internal, dst),
        }
    }

    fn pick_external_ip(&mut self, internal_host: Ipv4Addr) -> Ipv4Addr {
        match self.config.pooling {
            Pooling::Paired => {
                if let Some(ip) = self.paired.get(&internal_host) {
                    return *ip;
                }
                let idx = self.rng.gen_range(0..self.external_ips.len());
                let ip = self.external_ips[idx];
                self.paired.insert(internal_host, ip);
                ip
            }
            Pooling::Arbitrary => {
                let idx = self.rng.gen_range(0..self.external_ips.len());
                self.external_ips[idx]
            }
        }
    }

    fn tcp_update(state: Option<RefTcp>, flags: TcpFlags) -> Option<RefTcp> {
        Some(match (state, flags) {
            (_, f) if f.rst || f.fin => RefTcp::Closing,
            (None, f) if f.syn && !f.ack => RefTcp::Transitory,
            (Some(RefTcp::Transitory), f) if f.ack => RefTcp::Established,
            (Some(s), _) => s,
            (None, _) => RefTcp::Transitory,
        })
    }

    fn process_outbound(&mut self, pkt: Packet, now: SimTime) -> NatVerdict {
        self.stats.out_packets += 1;
        let (proto, flags) = match &pkt.body {
            PacketBody::Udp { .. } => (Protocol::Udp, None),
            PacketBody::Tcp { flags, .. } => (Protocol::Tcp, Some(*flags)),
            PacketBody::Icmp { .. } => return NatVerdict::Forward(pkt),
        };
        let internal = pkt.src;
        let dst = pkt.dst;
        let key = self.out_key(proto, internal, dst);

        let id = match self.out_index.get(&key) {
            Some(id) if !self.mappings[id].expired(now) => Some(*id),
            Some(id) => {
                let id = *id;
                self.remove_mapping(id);
                self.stats.mappings_expired += 1;
                None
            }
            None => None,
        };
        let id = match id {
            Some(id) => id,
            None => match self.create_mapping(key, proto, internal, now) {
                Ok(id) => id,
                Err(reason) => {
                    record_drop(&mut self.stats, reason);
                    return NatVerdict::Drop(reason);
                }
            },
        };

        let external;
        {
            let m = self.mappings.get_mut(&id).expect("just ensured");
            m.contacted.insert(dst);
            if let Some(f) = flags {
                m.tcp = Self::tcp_update(m.tcp, f);
            }
            external = m.external;
        }
        let t = self.timeout(proto, self.mappings[&id].tcp);
        self.mappings.get_mut(&id).expect("ensured").expiry = now + t;

        let mut out = pkt;
        out.src = external;
        if self.is_external_ip(dst.ip) {
            return self.hairpin(out, internal, now);
        }
        NatVerdict::Forward(out)
    }

    fn create_mapping(
        &mut self,
        key: OutKey,
        proto: Protocol,
        internal: Endpoint,
        now: SimTime,
    ) -> Result<u64, DropReason> {
        if let Some(cap) = self.config.max_sessions_per_host {
            let used = self
                .sessions_per_host
                .get(&internal.ip)
                .copied()
                .unwrap_or(0);
            if used >= cap {
                return Err(DropReason::SessionLimit);
            }
        }
        let external = if self.config.transparent {
            internal
        } else {
            let ext_ip = self.pick_external_ip(internal.ip);
            let strategy = self.config.port_alloc;
            let range = self.config.port_range;
            let alloc = self
                .allocators
                .entry((ext_ip, proto))
                .or_insert_with(|| PortAllocator::new(strategy, range));
            let port = alloc
                .allocate(internal.ip, internal.port, proto, &mut self.rng)
                .map_err(|_| DropReason::PortExhausted)?;
            Endpoint::new(ext_ip, port)
        };
        let id = self.next_id;
        self.next_id += 1;
        let timeout = self.timeout(proto, None);
        self.mappings.insert(
            id,
            RefMapping {
                proto,
                internal,
                external,
                contacted: HashSet::new(),
                expiry: now + timeout,
                tcp: None,
            },
        );
        self.out_index.insert(key, id);
        self.keys_by_id.insert(id, key);
        self.ext_index.insert((proto, external), id);
        *self.sessions_per_host.entry(internal.ip).or_insert(0) += 1;
        self.stats.mappings_created += 1;
        self.stats.peak_mappings = self.stats.peak_mappings.max(self.mappings.len() as u64);
        Ok(id)
    }

    fn hairpin(&mut self, translated: Packet, original_src: Endpoint, now: SimTime) -> NatVerdict {
        if !self.config.hairpinning {
            record_drop(&mut self.stats, DropReason::NoHairpin);
            return NatVerdict::Drop(DropReason::NoHairpin);
        }
        let proto = translated.protocol().expect("hairpin only for UDP/TCP");
        let target_id = match self.ext_index.get(&(proto, translated.dst)) {
            Some(id) if !self.mappings[id].expired(now) => *id,
            _ => {
                record_drop(&mut self.stats, DropReason::NoMapping);
                return NatVerdict::Drop(DropReason::NoMapping);
            }
        };
        if !self.filter_admits(target_id, translated.src) {
            record_drop(&mut self.stats, DropReason::Filtered);
            return NatVerdict::Drop(DropReason::Filtered);
        }
        let internal_dst = self.mappings[&target_id].internal;
        if self.config.refresh_inbound {
            let t = self.timeout(proto, self.mappings[&target_id].tcp);
            self.mappings.get_mut(&target_id).expect("checked").expiry = now + t;
        }
        let mut delivered = translated;
        delivered.dst = internal_dst;
        if self.config.hairpin_internal_source {
            delivered.src = original_src;
        }
        self.stats.hairpins += 1;
        NatVerdict::Hairpin(delivered)
    }

    fn filter_admits(&self, id: u64, remote: Endpoint) -> bool {
        let m = &self.mappings[&id];
        match self.config.filtering {
            FilteringBehavior::EndpointIndependent => true,
            FilteringBehavior::AddressDependent => m.contacted.iter().any(|e| e.ip == remote.ip),
            FilteringBehavior::AddressAndPortDependent => m.contacted.contains(&remote),
        }
    }

    fn process_inbound(&mut self, pkt: Packet, now: SimTime) -> NatVerdict {
        self.stats.in_packets += 1;
        let (proto, flags) = match &pkt.body {
            PacketBody::Udp { .. } => (Protocol::Udp, None),
            PacketBody::Tcp { flags, .. } => (Protocol::Tcp, Some(*flags)),
            PacketBody::Icmp { .. } => unreachable!("reference ops never build ICMP"),
        };
        let id = match self.ext_index.get(&(proto, pkt.dst)) {
            Some(id) if !self.mappings[id].expired(now) => *id,
            Some(id) => {
                let id = *id;
                self.remove_mapping(id);
                self.stats.mappings_expired += 1;
                record_drop(&mut self.stats, DropReason::NoMapping);
                return NatVerdict::Drop(DropReason::NoMapping);
            }
            None => {
                record_drop(&mut self.stats, DropReason::NoMapping);
                return NatVerdict::Drop(DropReason::NoMapping);
            }
        };
        if !self.filter_admits(id, pkt.src) {
            record_drop(&mut self.stats, DropReason::Filtered);
            return NatVerdict::Drop(DropReason::Filtered);
        }
        let internal = {
            let m = self.mappings.get_mut(&id).expect("checked");
            if let Some(f) = flags {
                m.tcp = Self::tcp_update(m.tcp, f);
            }
            m.internal
        };
        if self.config.refresh_inbound {
            let t = self.timeout(proto, self.mappings[&id].tcp);
            self.mappings.get_mut(&id).expect("checked").expiry = now + t;
        }
        let mut delivered = pkt;
        delivered.dst = internal;
        NatVerdict::Forward(delivered)
    }
}

// ---------------------------------------------------------------------------
// Differential driver
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// Outbound packet: `kind` 0 = UDP, 1 = SYN, 2 = ACK, 3 = FIN;
    /// `to_external` redirects the destination at a previously
    /// allocated external endpoint (the hairpin path).
    Out {
        host: u8,
        sport: u8,
        dst: u8,
        dport: u8,
        kind: u8,
        to_external: bool,
    },
    /// Inbound packet at a previously seen external endpoint
    /// (`target` indexes the recorded list; ignored while empty).
    In {
        target: u8,
        src: u8,
        sport: u8,
        tcp: bool,
    },
    Sweep,
    Advance(u16),
}

#[allow(clippy::too_many_arguments)] // one knob per behaviour axis, by design
fn build_config(
    mapping: u8,
    filtering: u8,
    pooling: u8,
    alloc: u8,
    refresh_inbound: bool,
    hairpinning: bool,
    cap: Option<u32>,
    udp_secs: u64,
) -> NatConfig {
    let mut cfg = NatConfig::cgn_default();
    cfg.mapping = match mapping % 3 {
        0 => MappingBehavior::EndpointIndependent,
        1 => MappingBehavior::AddressDependent,
        _ => MappingBehavior::AddressAndPortDependent,
    };
    cfg.filtering = match filtering % 3 {
        0 => FilteringBehavior::EndpointIndependent,
        1 => FilteringBehavior::AddressDependent,
        _ => FilteringBehavior::AddressAndPortDependent,
    };
    cfg.pooling = if pooling % 2 == 0 {
        Pooling::Paired
    } else {
        Pooling::Arbitrary
    };
    cfg.port_alloc = match alloc % 4 {
        0 => PortAllocation::Preserve,
        1 => PortAllocation::Sequential,
        2 => PortAllocation::Random,
        _ => PortAllocation::RandomChunk { chunk_size: 8 },
    };
    cfg.refresh_inbound = refresh_inbound;
    cfg.hairpinning = hairpinning;
    cfg.max_sessions_per_host = cap;
    cfg.udp_timeout = netcore::SimDuration::from_secs(udp_secs);
    cfg.tcp_transitory_timeout = netcore::SimDuration::from_secs(udp_secs * 2);
    // Small range so exhaustion, chunk-full and reuse paths all fire.
    cfg.port_range = (5000, 5063);
    cfg
}

fn pool() -> Vec<Ipv4Addr> {
    vec![ip(198, 51, 100, 1), ip(198, 51, 100, 2)]
}

/// Drive both engines through `ops`, holding them equal; returns the
/// (shared) final stats for callers that pin the scenario they built.
fn run_differential(cfg: NatConfig, seed: u64, ops: &[Op]) -> NatStats {
    let mut slab = nat_engine::Nat::new(cfg.clone(), pool(), seed);
    let mut reference = RefNat::new(cfg, pool(), seed);
    let mut now_ms = 0u64;
    let mut externals: Vec<Endpoint> = Vec::new();

    for (i, op) in ops.iter().enumerate() {
        let now = SimTime::from_millis(now_ms);
        match op {
            Op::Out {
                host,
                sport,
                dst,
                dport,
                kind,
                to_external,
            } => {
                let src = Endpoint::new(ip(100, 64, 0, host % 8), 40_000 + (*sport as u16) % 12);
                let dst = if *to_external && !externals.is_empty() {
                    externals[*dst as usize % externals.len()]
                } else {
                    Endpoint::new(ip(203, 0, 113, dst % 6), 8_000 + (*dport as u16) % 5)
                };
                let pkt = match kind % 4 {
                    0 => Packet::udp(src, dst, vec![]),
                    1 => Packet::tcp(src, dst, TcpFlags::SYN, vec![]),
                    2 => Packet::tcp(src, dst, TcpFlags::ACK, vec![]),
                    _ => Packet::tcp(src, dst, TcpFlags::FIN, vec![]),
                };
                let a = slab.process_outbound(pkt.clone(), now);
                let b = reference.process_outbound(pkt, now);
                assert_eq!(a, b, "outbound verdict diverged at op {i}");
                if let NatVerdict::Forward(p) = &a {
                    if !externals.contains(&p.src) {
                        externals.push(p.src);
                    }
                }
            }
            Op::In {
                target,
                src,
                sport,
                tcp,
            } => {
                if externals.is_empty() {
                    continue;
                }
                let dst = externals[*target as usize % externals.len()];
                let remote = Endpoint::new(ip(203, 0, 113, src % 6), 8_000 + (*sport as u16) % 5);
                let pkt = if *tcp {
                    Packet::tcp(remote, dst, TcpFlags::ACK, vec![])
                } else {
                    Packet::udp(remote, dst, vec![])
                };
                let a = slab.process_inbound(pkt.clone(), now);
                let b = reference.process_inbound(pkt, now);
                assert_eq!(a, b, "inbound verdict diverged at op {i}");
            }
            Op::Sweep => {
                slab.sweep(now);
                reference.sweep(now);
                assert_eq!(
                    slab.mapping_count(),
                    reference.mappings.len(),
                    "sweep left different table sizes at op {i}"
                );
            }
            Op::Advance(dt) => {
                now_ms += *dt as u64 * 250; // up to ~16s per step
            }
        }
    }

    let now = SimTime::from_millis(now_ms);

    // Behavioural state must match exactly.
    assert_eq!(slab.mapping_count(), reference.mappings.len());
    assert_eq!(slab.ports_by_host(now), reference.ports_by_host(now));
    let slab_occ: Vec<_> = slab
        .port_occupancy()
        .into_iter()
        .map(|o| (o.ext_ip, o.proto, o.allocated, o.capacity))
        .collect();
    assert_eq!(slab_occ, reference.port_occupancy());

    // Stats match, modulo the engine-specific sweep_scans counter.
    let mut a = slab.stats().clone();
    let mut b = reference.stats.clone();
    a.sweep_scans = 0;
    b.sweep_scans = 0;
    assert_eq!(a, b);

    // And the slab store upholds its own invariants after the churn.
    let audit = check_runtime(&slab, now);
    assert!(audit.is_clean(), "{:?}", audit.violations);
    b
}

fn out_op(r: u64) -> Op {
    Op::Out {
        host: (r >> 8) as u8,
        sport: (r >> 16) as u8,
        dst: (r >> 24) as u8,
        dport: (r >> 32) as u8,
        kind: (r >> 40) as u8,
        to_external: r >> 48 & 1 == 1,
    }
}

fn in_op(r: u64) -> Op {
    Op::In {
        target: (r >> 8) as u8,
        src: (r >> 16) as u8,
        sport: (r >> 24) as u8,
        tcp: r & 1 == 1,
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The compat prop_oneof! picks arms uniformly; outbound traffic is
    // listed twice to dominate the mix.
    prop_oneof![
        any::<u64>().prop_map(out_op),
        any::<u64>().prop_map(out_op),
        any::<u64>().prop_map(in_op),
        (0u8..2).prop_map(|_| Op::Sweep),
        (1u16..80).prop_map(Op::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary configurations and flow/churn/sweep sequences,
    /// the slab-backed engine is behaviourally identical to the
    /// HashMap reference model: same translations, same expiries,
    /// same stats.
    #[test]
    fn prop_slab_matches_hashmap_reference(
        mapping in 0u8..3,
        filtering in 0u8..3,
        pooling in 0u8..2,
        alloc in 0u8..4,
        refresh_inbound in any::<bool>(),
        hairpinning in any::<bool>(),
        cap in (0u32..12).prop_map(|v| if v < 6 { None } else { Some(v - 5) }),
        udp_secs in 5u64..90,
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..150),
    ) {
        let cfg = build_config(
            mapping, filtering, pooling, alloc,
            refresh_inbound, hairpinning, cap, udp_secs,
        );
        run_differential(cfg, seed, &ops);
    }
}

/// A long, deterministic churn run through every op kind — the fixed
/// regression companion to the property above (fails with a stable
/// repro if storage semantics drift).
#[test]
fn long_deterministic_churn_matches_reference() {
    let cfg = build_config(0, 2, 0, 2, true, true, Some(5), 30);
    let mut ops = Vec::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for k in 0..2_000u32 {
        let r = next();
        ops.push(match r % 10 {
            0..=4 => Op::Out {
                host: (r >> 8) as u8,
                sport: (r >> 16) as u8,
                dst: (r >> 24) as u8,
                dport: (r >> 32) as u8,
                kind: (r >> 40) as u8,
                to_external: r >> 48 & 1 == 1,
            },
            5..=6 => Op::In {
                target: (r >> 8) as u8,
                sport: (r >> 16) as u8,
                src: (r >> 24) as u8,
                tcp: r >> 32 & 1 == 1,
            },
            7 => Op::Sweep,
            _ => Op::Advance((r % 60) as u16 + 1),
        });
        if k % 97 == 0 {
            ops.push(Op::Sweep);
        }
    }
    run_differential(cfg, 2016, &ops);
}

/// One wheel bucket far longer than the expiry path's look-ahead (8
/// entries over a drained bucket, 8 and 16 over the due list), holding
/// all three kinds of entry in interleaved order: 96 mappings created
/// in one millisecond share a deadline and so a bucket; before it
/// drains, a third are refreshed (lazily extended: the parked entry
/// must re-file, not expire), a third are touched after their expiry
/// (removed on touch and re-created in a re-used slot: the parked
/// entry is stale) and a third are left alone (due).
#[test]
fn long_bucket_of_stale_due_and_extended_entries_matches_reference() {
    let mut cfg = build_config(0, 0, 0, 1, true, true, None, 30);
    cfg.port_range = (5000, 5999); // room for every flow on either address
    let flow = |k: u8| Op::Out {
        host: k % 8,
        sport: k / 8,
        dst: 0,
        dport: 0,
        kind: 0,
        to_external: false,
    };
    let every_third = |r: u8| (0..96u8).filter(move |k| k % 3 == r);
    let mut ops: Vec<Op> = (0..96).map(flow).collect(); // t = 0: expiry 30 s
    ops.push(Op::Advance(40)); // t = 10 s
    ops.extend(every_third(0).map(flow)); // extended to 40 s
    ops.push(Op::Advance(84)); // t = 31 s: everything else has expired
    ops.extend(every_third(1).map(flow)); // removed on touch, re-created: expiry 61 s
    ops.push(Op::Sweep); // drains the 30 s bucket: 32 extended, 32 stale, 32 due
    ops.push(Op::Advance(40)); // t = 41 s
    ops.push(Op::Sweep); // the extended third, from the bucket it re-filed into
    ops.push(Op::Advance(84)); // t = 62 s
    ops.push(Op::Sweep); // the re-created third
    let stats = run_differential(cfg, 14, &ops);
    assert_eq!(stats.mappings_created, 96 + 32);
    assert_eq!(stats.mappings_expired, 32 + 32 + 32 + 32);
    assert_eq!(stats.drops, 0);
}
