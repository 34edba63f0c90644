//! The network graph and the packet walk.
//!
//! ## Topology model
//!
//! The simulated Internet is a tree of *realms*. The root is the public
//! realm; every NAT guards one internal realm whose parent is the realm the
//! NAT's external interface attaches to. Hosts (devices, servers) attach to
//! exactly one realm through a chain of plain routers (possibly empty) —
//! the chain gives paths their hop counts, which the paper's topology
//! measurements (§6.4, Fig. 11) are about.
//!
//! ```text
//!  public realm:   [server]--r--r--+----CORE----+--r--[CGN pool IPs]
//!                                               |
//!  CGN realm:              CGN ----r--r--[CPE WAN]   (internal addresses)
//!  home realm:                        CPE ---- [device]
//! ```
//!
//! ## Forwarding
//!
//! A packet ascends from its source host toward the realm hub, is looked up
//! in the realm's address map, and either descends to a local target
//! (host or a child NAT's external address) or ascends through the realm's
//! gateway NAT. Every router and NAT decrements the TTL; a packet whose TTL
//! reaches zero dies at that hop and an ICMP time-exceeded is returned to
//! the *originating host* directly (the simulator shortcut: the error does
//! not re-traverse NAT state, but carries the dying hop's address, which is
//! all traceroute-style measurements observe).

use nat_engine::{Nat, NatConfig, NatStats, NatVerdict, ShardedNat};
use netcore::{Endpoint, MixMap, Packet, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Identifier of a node (host or NAT) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of an addressing realm. Realm 0 is the public Internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RealmId(pub u32);

impl RealmId {
    pub const PUBLIC: RealmId = RealmId(0);
}

/// What a realm address resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RealmTarget {
    Host(NodeId),
    NatExternal(NodeId),
}

#[derive(Debug)]
struct Realm {
    /// NAT node guarding this realm (None only for the public realm).
    gateway: Option<NodeId>,
    /// Address map of this realm: looked up once per realm a packet
    /// crosses, never iterated.
    addrs: MixMap<Ipv4Addr, RealmTarget>,
    /// Whether link-local multicast (e.g. BitTorrent LPD) is delivered
    /// across this realm.
    multicast: bool,
    /// Hosts attached (for multicast iteration); kept in attach order for
    /// determinism.
    hosts: Vec<NodeId>,
}

#[derive(Debug)]
struct HostNode {
    realm: RealmId,
    addr: Ipv4Addr,
    /// Router IPs between the host and the realm hub, ordered host → hub.
    chain: Vec<Ipv4Addr>,
}

/// The translation engine behind a NAT node: a monolithic [`Nat`]
/// (CPE routers, firewalls, single-box carrier NATs) or a
/// [`ShardedNat`] whose state is partitioned across external-IP shards
/// — the ISP-scale deployment shape ([`Network::add_nat_sharded`]).
///
/// The walk treats both identically. A packet to a sibling shard's
/// pool address is forwarded toward the core, as between chassis.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // NAT nodes are few; boxing would cost every packet hop
pub(crate) enum Translator {
    Mono(Nat),
    Sharded(ShardedNat),
}

impl Translator {
    fn process_outbound(&mut self, pkt: Packet, now: SimTime) -> NatVerdict {
        match self {
            Translator::Mono(n) => n.process_outbound(pkt, now),
            Translator::Sharded(s) => s.process_outbound(pkt, now),
        }
    }

    fn process_inbound(&mut self, pkt: Packet, now: SimTime) -> NatVerdict {
        match self {
            Translator::Mono(n) => n.process_inbound(pkt, now),
            Translator::Sharded(s) => s.process_inbound(pkt, now),
        }
    }

    fn sweep(&mut self, now: SimTime) {
        match self {
            Translator::Mono(n) => n.sweep(now),
            Translator::Sharded(s) => s.sweep(now),
        }
    }

    fn mapping_count(&self) -> usize {
        match self {
            Translator::Mono(n) => n.mapping_count(),
            Translator::Sharded(s) => s.mapping_count(),
        }
    }

    fn merged_stats(&self) -> NatStats {
        match self {
            Translator::Mono(n) => n.stats().clone(),
            Translator::Sharded(s) => s.merged_stats(),
        }
    }
}

#[derive(Debug)]
struct NatNode {
    nat: Translator,
    internal_realm: RealmId,
    external_realm: RealmId,
    /// Router IPs between the NAT's external interface and the parent
    /// realm's hub, ordered NAT → hub.
    external_chain: Vec<Ipv4Addr>,
    /// Address of the NAT's internal interface (ICMP source for packets
    /// dying at the NAT on the way up).
    internal_addr: Ipv4Addr,
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // Nat nodes are few; boxing would cost every packet hop
enum Node {
    Host(HostNode),
    Nat(NatNode),
}

/// Where a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropSite {
    /// TTL reached zero at the given hop address.
    TtlExpired(Ipv4Addr),
    /// A NAT refused it (reason recorded in that NAT's stats).
    Nat(NodeId),
    /// The destination address resolves nowhere.
    NoRoute,
}

/// One hop of a resolved path (diagnostic / ground-truth view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopInfo {
    pub kind: HopKind,
    pub addr: Ipv4Addr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    Router,
    Nat,
}

/// The observable outcome of sending one packet.
#[derive(Debug, Clone, PartialEq)]
pub enum SendOutcome {
    /// Delivered to a host (with the packet as the host sees it).
    Delivered { node: NodeId, pkt: Packet },
    /// Dropped somewhere on the path.
    Dropped(DropSite),
}

/// A packet handed to a host, produced by [`Network::send`] /
/// [`Network::send_multicast`].
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    pub node: NodeId,
    pub pkt: Packet,
}

/// Aggregate forwarding counters.
#[derive(Debug, Default, Clone)]
pub struct NetworkStats {
    pub sent: u64,
    pub delivered: u64,
    pub dropped_ttl: u64,
    pub dropped_nat: u64,
    pub dropped_no_route: u64,
    pub icmp_generated: u64,
    pub multicasts: u64,
}

/// The simulated network.
#[derive(Debug)]
pub struct Network {
    nodes: Vec<Node>,
    realms: Vec<Realm>,
    clock: SimTime,
    stats: NetworkStats,
    /// How often `advance` sweeps NAT tables.
    sweep_interval: SimDuration,
    last_sweep: SimTime,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// A fresh network containing only the public realm.
    pub fn new() -> Self {
        Network {
            nodes: Vec::new(),
            realms: vec![Realm {
                gateway: None,
                addrs: MixMap::default(),
                multicast: false,
                hosts: Vec::new(),
            }],
            clock: SimTime::ZERO,
            stats: NetworkStats::default(),
            // Expiry is enforced lazily on access; sweeps only bound
            // memory and port-allocator retention, so they can be coarse.
            sweep_interval: SimDuration::from_secs(600),
            last_sweep: SimTime::ZERO,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advance the virtual clock; NAT tables are swept so idle mappings
    /// expire (they also expire lazily on access, so sweeping granularity
    /// does not affect correctness, only memory).
    pub fn advance(&mut self, d: SimDuration) {
        self.clock += d;
        if self.clock.saturating_since(self.last_sweep) >= self.sweep_interval {
            let now = self.clock;
            for n in &mut self.nodes {
                if let Node::Nat(nat) = n {
                    nat.nat.sweep(now);
                }
            }
            self.last_sweep = now;
        }
    }

    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Topology construction
    // ------------------------------------------------------------------

    /// Attach a host with address `addr` to `realm`, behind the given
    /// router chain (ordered host → realm hub).
    ///
    /// Panics if the address is already taken in the realm.
    pub fn add_host(&mut self, realm: RealmId, addr: Ipv4Addr, chain: Vec<Ipv4Addr>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let r = &mut self.realms[realm.0 as usize];
        let prev = r.addrs.insert(addr, RealmTarget::Host(id));
        assert!(
            prev.is_none(),
            "address {addr} already in use in realm {realm:?}"
        );
        r.hosts.push(id);
        self.nodes.push(Node::Host(HostNode { realm, addr, chain }));
        id
    }

    /// The shared install body of [`Network::add_nat`] /
    /// [`Network::add_nat_sharded`]: register the pool addresses in
    /// the parent realm, create the internal realm, and attach the
    /// node built by `make` from the (id-registered) pool.
    fn install_nat(
        &mut self,
        external_ips: Vec<Ipv4Addr>,
        external_realm: RealmId,
        external_chain: Vec<Ipv4Addr>,
        internal_addr: Ipv4Addr,
        internal_multicast: bool,
        make: impl FnOnce(Vec<Ipv4Addr>) -> Translator,
    ) -> (NodeId, RealmId) {
        let id = NodeId(self.nodes.len() as u32);
        let internal_realm = RealmId(self.realms.len() as u32);
        {
            let parent = &mut self.realms[external_realm.0 as usize];
            for ip in &external_ips {
                let prev = parent.addrs.insert(*ip, RealmTarget::NatExternal(id));
                assert!(prev.is_none(), "pool address {ip} already in use");
            }
        }
        self.realms.push(Realm {
            gateway: Some(id),
            addrs: MixMap::default(),
            multicast: internal_multicast,
            hosts: Vec::new(),
        });
        self.nodes.push(Node::Nat(NatNode {
            nat: make(external_ips),
            internal_realm,
            external_realm,
            external_chain,
            internal_addr,
        }));
        (id, internal_realm)
    }

    /// Install a NAT whose external interface (pool `external_ips`) attaches
    /// to `external_realm` behind `external_chain`. Creates and returns the
    /// NAT's internal realm.
    #[allow(clippy::too_many_arguments)] // mirrors the full NAT install tuple
    pub fn add_nat(
        &mut self,
        config: NatConfig,
        external_ips: Vec<Ipv4Addr>,
        external_realm: RealmId,
        external_chain: Vec<Ipv4Addr>,
        internal_addr: Ipv4Addr,
        internal_multicast: bool,
        seed: u64,
    ) -> (NodeId, RealmId) {
        self.install_nat(
            external_ips,
            external_realm,
            external_chain,
            internal_addr,
            internal_multicast,
            |ips| Translator::Mono(Nat::new(config, ips, seed)),
        )
    }

    /// Install a **sharded** NAT: translation state partitioned across
    /// `shards` external-IP shards ([`nat_engine::ShardedNat`]) — the
    /// deployment shape of an ISP-scale CGN. Otherwise identical to
    /// [`Network::add_nat`]; `shards == 1` gives a single-shard engine
    /// on the same code path.
    ///
    /// Panics (in `ShardedNat::new`) if `external_ips` holds fewer
    /// addresses than `shards`.
    #[allow(clippy::too_many_arguments)] // mirrors the full NAT install tuple
    pub fn add_nat_sharded(
        &mut self,
        config: NatConfig,
        external_ips: Vec<Ipv4Addr>,
        shards: u16,
        external_realm: RealmId,
        external_chain: Vec<Ipv4Addr>,
        internal_addr: Ipv4Addr,
        internal_multicast: bool,
        seed: u64,
    ) -> (NodeId, RealmId) {
        self.install_nat(
            external_ips,
            external_realm,
            external_chain,
            internal_addr,
            internal_multicast,
            |ips| Translator::Sharded(ShardedNat::new(config, ips, shards, seed)),
        )
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    fn host(&self, id: NodeId) -> &HostNode {
        match &self.nodes[id.0 as usize] {
            Node::Host(h) => h,
            Node::Nat(_) => panic!("{id:?} is a NAT, not a host"),
        }
    }

    /// The address of a host.
    pub fn host_addr(&self, id: NodeId) -> Ipv4Addr {
        self.host(id).addr
    }

    /// The realm a host lives in.
    pub fn host_realm(&self, id: NodeId) -> RealmId {
        self.host(id).realm
    }

    /// Whether a realm delivers multicast.
    pub fn realm_multicast(&self, realm: RealmId) -> bool {
        self.realms[realm.0 as usize].multicast
    }

    fn nat_node(&self, id: NodeId) -> &NatNode {
        match &self.nodes[id.0 as usize] {
            Node::Nat(n) => n,
            Node::Host(_) => panic!("{id:?} is a host, not a NAT"),
        }
    }

    fn nat_node_mut(&mut self, id: NodeId) -> &mut NatNode {
        match &mut self.nodes[id.0 as usize] {
            Node::Nat(n) => n,
            Node::Host(_) => panic!("{id:?} is a host, not a NAT"),
        }
    }

    /// Read-only access to a monolithic NAT's behaviour stats. For
    /// sharded nodes use [`Network::cgn_stats`] (counters must be
    /// merged across shards, which cannot hand out a reference).
    pub fn nat_stats(&self, id: NodeId) -> &NatStats {
        match &self.nat_node(id).nat {
            Translator::Mono(n) => n.stats(),
            Translator::Sharded(_) => {
                panic!("{id:?} is sharded; use cgn_stats for merged counters")
            }
        }
    }

    /// Behaviour counters of any NAT node, merged across shards when
    /// the node is sharded.
    pub fn cgn_stats(&self, id: NodeId) -> NatStats {
        self.nat_node(id).nat.merged_stats()
    }

    /// Live mappings held by a NAT node (summed across shards).
    pub fn nat_mapping_count(&self, id: NodeId) -> usize {
        self.nat_node(id).nat.mapping_count()
    }

    /// Mutable access to a monolithic NAT (tests & topology wiring).
    /// Panics for sharded nodes — use [`Network::nat_sharded_mut`].
    pub fn nat_mut(&mut self, id: NodeId) -> &mut Nat {
        match &mut self.nat_node_mut(id).nat {
            Translator::Mono(n) => n,
            Translator::Sharded(_) => {
                panic!("{id:?} is sharded; use nat_sharded_mut")
            }
        }
    }

    /// Read access to a NAT node's engine. For sharded nodes this is
    /// shard 0 — every shard runs the same [`NatConfig`], so this is
    /// the right handle for behaviour/config introspection (stats and
    /// mappings of one shard only; use [`Network::cgn_stats`] /
    /// [`Network::nat_mapping_count`] for whole-node counters).
    pub fn nat(&self, id: NodeId) -> &Nat {
        match &self.nat_node(id).nat {
            Translator::Mono(n) => n,
            Translator::Sharded(s) => &s.shards()[0],
        }
    }

    /// Whether a NAT node runs the sharded engine.
    pub fn nat_is_sharded(&self, id: NodeId) -> bool {
        matches!(self.nat_node(id).nat, Translator::Sharded(_))
    }

    /// The sharded engine behind a NAT node installed with
    /// [`Network::add_nat_sharded`]. Panics for monolithic nodes.
    pub fn nat_sharded(&self, id: NodeId) -> &ShardedNat {
        match &self.nat_node(id).nat {
            Translator::Sharded(s) => s,
            Translator::Mono(_) => panic!("{id:?} is a monolithic NAT, not sharded"),
        }
    }

    /// Mutable access to a sharded NAT node — the handle background
    /// load drives batches through (`ShardedNat::process_bursts`).
    pub fn nat_sharded_mut(&mut self, id: NodeId) -> &mut ShardedNat {
        match &mut self.nat_node_mut(id).nat {
            Translator::Sharded(s) => s,
            Translator::Mono(_) => panic!("{id:?} is a monolithic NAT, not sharded"),
        }
    }

    /// Ground-truth hop list from a host toward a destination address, as a
    /// traceroute would see it *if every hop answered*. Returns `None` when
    /// the destination does not resolve. NAT translation state is not
    /// consulted or modified; for NAT hops beyond the first this reflects
    /// topology, not reachability.
    pub fn path_hops(&self, from: NodeId, dst: Ipv4Addr) -> Option<Vec<HopInfo>> {
        let h = self.host(from);
        let mut hops = Vec::new();
        for r in &h.chain {
            hops.push(HopInfo {
                kind: HopKind::Router,
                addr: *r,
            });
        }
        let mut realm = h.realm;
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 64, "realm loop while resolving path");
            let r = &self.realms[realm.0 as usize];
            if let Some(target) = r.addrs.get(&dst) {
                match target {
                    RealmTarget::Host(hid) => {
                        let th = self.host(*hid);
                        for router in th.chain.iter().rev() {
                            hops.push(HopInfo {
                                kind: HopKind::Router,
                                addr: *router,
                            });
                        }
                        return Some(hops);
                    }
                    RealmTarget::NatExternal(nid) => {
                        let nn = match &self.nodes[nid.0 as usize] {
                            Node::Nat(n) => n,
                            Node::Host(_) => unreachable!(),
                        };
                        for router in nn.external_chain.iter().rev() {
                            hops.push(HopInfo {
                                kind: HopKind::Router,
                                addr: *router,
                            });
                        }
                        hops.push(HopInfo {
                            kind: HopKind::Nat,
                            addr: dst,
                        });
                        // Translation happens here; the true path continues
                        // inside, but externally visible topology ends at
                        // the NAT.
                        return Some(hops);
                    }
                }
            }
            match r.gateway {
                Some(gw) => {
                    let nn = match &self.nodes[gw.0 as usize] {
                        Node::Nat(n) => n,
                        Node::Host(_) => unreachable!(),
                    };
                    hops.push(HopInfo {
                        kind: HopKind::Nat,
                        addr: nn.internal_addr,
                    });
                    for router in &nn.external_chain {
                        hops.push(HopInfo {
                            kind: HopKind::Router,
                            addr: *router,
                        });
                    }
                    realm = nn.external_realm;
                }
                None => return None,
            }
        }
    }

    // ------------------------------------------------------------------
    // Forwarding
    // ------------------------------------------------------------------

    /// Send `pkt` from host `origin`. The source endpoint must carry the
    /// host's own address (apps construct packets from their bound
    /// sockets). Returns the one delivery this send can produce: the
    /// packet itself at its destination, or — if it died of TTL on the
    /// way — the ICMP error back at the origin; `None` if it was dropped
    /// silently.
    pub fn send(&mut self, origin: NodeId, pkt: Packet) -> Option<Delivery> {
        debug_assert_eq!(
            pkt.src.ip,
            self.host(origin).addr,
            "source address must be the sending host's address"
        );
        match self.walk_counted(origin, pkt) {
            (SendOutcome::Delivered { node, pkt }, _) => Some(Delivery { node, pkt }),
            (SendOutcome::Dropped(_), icmp) => icmp.map(|pkt| Delivery { node: origin, pkt }),
        }
    }

    /// Send and additionally report the outcome (where the packet ended
    /// up, or where and why it died). The delivery is as in
    /// [`Network::send`].
    pub fn send_traced(&mut self, origin: NodeId, pkt: Packet) -> (SendOutcome, Option<Delivery>) {
        let (outcome, icmp) = self.walk_counted(origin, pkt);
        let delivery = match &outcome {
            SendOutcome::Delivered { node, pkt } => Some(Delivery {
                node: *node,
                pkt: pkt.clone(),
            }),
            SendOutcome::Dropped(_) => icmp.map(|pkt| Delivery { node: origin, pkt }),
        };
        (outcome, delivery)
    }

    /// [`Network::walk`] plus the forwarding counters.
    fn walk_counted(&mut self, origin: NodeId, pkt: Packet) -> (SendOutcome, Option<Packet>) {
        self.stats.sent += 1;
        let (outcome, icmp) = self.walk(origin, pkt);
        match &outcome {
            SendOutcome::Delivered { .. } => self.stats.delivered += 1,
            SendOutcome::Dropped(site) => {
                match site {
                    DropSite::TtlExpired(_) => self.stats.dropped_ttl += 1,
                    DropSite::Nat(_) => self.stats.dropped_nat += 1,
                    DropSite::NoRoute => self.stats.dropped_no_route += 1,
                }
                self.stats.icmp_generated += icmp.is_some() as u64;
            }
        }
        (outcome, icmp)
    }

    /// Deliver a link-local multicast datagram to every other host in the
    /// origin's realm, if the realm permits multicast. Models BitTorrent
    /// local peer discovery. TTL is irrelevant (scope = one realm).
    pub fn send_multicast(
        &mut self,
        origin: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Vec<Delivery> {
        let (realm, src_addr) = {
            let h = self.host(origin);
            (h.realm, h.addr)
        };
        if !self.realms[realm.0 as usize].multicast {
            return Vec::new();
        }
        self.stats.multicasts += 1;
        self.realms[realm.0 as usize]
            .hosts
            .iter()
            .filter(|h| **h != origin)
            .map(|&node| Delivery {
                node,
                pkt: Packet::udp(
                    Endpoint::new(src_addr, src_port),
                    Endpoint::new(self.host(node).addr, dst_port),
                    payload.clone(),
                ),
            })
            .collect()
    }

    /// Spend one TTL unit at each of `hops`, in order. `Err` is the
    /// walk's result when the TTL runs out: the drop site plus the ICMP
    /// error for the origin.
    fn cross<'a>(
        pkt: &mut Packet,
        hops: impl IntoIterator<Item = &'a Ipv4Addr>,
    ) -> Result<(), (SendOutcome, Option<Packet>)> {
        for &hop in hops {
            if !pkt.decrement_ttl() {
                let err = pkt.ttl_exceeded_reply(hop);
                return Err((SendOutcome::Dropped(DropSite::TtlExpired(hop)), Some(err)));
            }
        }
        Ok(())
    }

    /// The full walk. Returns the outcome plus an optional ICMP error to
    /// hand back to the origin.
    fn walk(&mut self, origin: NodeId, mut pkt: Packet) -> (SendOutcome, Option<Packet>) {
        let now = self.clock;
        let h = self.host(origin);
        let mut realm = h.realm;

        // Ascend the origin's router chain.
        if let Err(dead) = Self::cross(&mut pkt, &h.chain) {
            return dead;
        }

        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 64, "forwarding loop");
            // At the hub of `realm`: local lookup first.
            let target = self.realms[realm.0 as usize]
                .addrs
                .get(&pkt.dst.ip)
                .copied();
            match target {
                Some(RealmTarget::Host(hid)) => {
                    // Descend the target's chain.
                    if let Err(dead) = Self::cross(&mut pkt, self.host(hid).chain.iter().rev()) {
                        return dead;
                    }
                    return (SendOutcome::Delivered { node: hid, pkt }, None);
                }
                Some(RealmTarget::NatExternal(nid)) => {
                    // Descend to the NAT's external interface — the NAT
                    // itself is the last hop — then translate inbound.
                    let nat_addr = pkt.dst.ip;
                    let n = self.nat_node_mut(nid);
                    let down = n.external_chain.iter().rev().chain([&nat_addr]);
                    if let Err(dead) = Self::cross(&mut pkt, down) {
                        return dead;
                    }
                    match n.nat.process_inbound(pkt, now) {
                        NatVerdict::Forward(p) => {
                            pkt = p;
                            realm = n.internal_realm;
                        }
                        NatVerdict::Hairpin(_) => {
                            unreachable!("inbound processing never hairpins")
                        }
                        NatVerdict::Drop(_) => {
                            return (SendOutcome::Dropped(DropSite::Nat(nid)), None);
                        }
                    }
                }
                None => {
                    // Ascend through the gateway, if any.
                    let Some(gid) = self.realms[realm.0 as usize].gateway else {
                        return (SendOutcome::Dropped(DropSite::NoRoute), None);
                    };
                    let n = self.nat_node_mut(gid);
                    // The NAT is a hop.
                    if let Err(dead) = Self::cross(&mut pkt, [&n.internal_addr]) {
                        return dead;
                    }
                    match n.nat.process_outbound(pkt, now) {
                        NatVerdict::Forward(p) => {
                            pkt = p;
                            // Ascend the NAT's external chain.
                            if let Err(dead) = Self::cross(&mut pkt, &n.external_chain) {
                                return dead;
                            }
                            realm = n.external_realm;
                        }
                        NatVerdict::Hairpin(p) => {
                            // Looped back into the same internal
                            // realm with an internal destination.
                            pkt = p;
                        }
                        NatVerdict::Drop(_) => {
                            return (SendOutcome::Dropped(DropSite::Nat(gid)), None);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nat_engine::FilteringBehavior;
    use netcore::{ip, PacketBody, TcpFlags};

    /// Build the paper's Fig. 2 world: subscriber A (public IP + CPE),
    /// subscriber B (CGN only), subscriber C (NAT444), plus a server.
    struct Fig2 {
        net: Network,
        server: NodeId,
        dev_a: NodeId,
        dev_b: NodeId,
        dev_c: NodeId,
        cgn: NodeId,
        cpe_c: NodeId,
    }

    fn fig2() -> Fig2 {
        let mut net = Network::new();
        // Server in the public realm, 2 core routers away.
        let server = net.add_host(
            RealmId::PUBLIC,
            ip(203, 0, 113, 10),
            vec![ip(203, 0, 113, 1), ip(198, 19, 0, 1)],
        );

        // Subscriber A: CPE NAT with a public WAN address; device behind it.
        let (cpe_a, home_a) = net.add_nat(
            NatConfig::home_cpe(),
            vec![ip(198, 51, 100, 77)],
            RealmId::PUBLIC,
            vec![ip(198, 19, 1, 1)],
            ip(192, 168, 1, 1),
            true,
            11,
        );
        let dev_a = net.add_host(home_a, ip(192, 168, 1, 100), vec![]);
        let _ = cpe_a;

        // The ISP's CGN: pool of 2 public IPs, internal realm 100.64/10.
        let mut cgn_cfg = NatConfig::cgn_default();
        cgn_cfg.filtering = FilteringBehavior::EndpointIndependent;
        let (cgn, cgn_realm) = net.add_nat(
            cgn_cfg,
            vec![ip(198, 51, 100, 1), ip(198, 51, 100, 2)],
            RealmId::PUBLIC,
            vec![ip(198, 19, 2, 1)],
            ip(100, 64, 0, 1),
            true,
            12,
        );

        // Subscriber B: device directly in the CGN realm (cellular-style),
        // 2 aggregation routers from the CGN.
        let dev_b = net.add_host(
            cgn_realm,
            ip(100, 64, 0, 20),
            vec![ip(100, 64, 255, 1), ip(100, 64, 255, 2)],
        );

        // Subscriber C: NAT444 — home CPE whose WAN side sits in the CGN
        // realm, 1 aggregation router from the CGN.
        let (cpe_c, home_c) = net.add_nat(
            NatConfig::home_cpe(),
            vec![ip(100, 64, 0, 30)],
            cgn_realm,
            vec![ip(100, 64, 255, 3)],
            ip(192, 168, 1, 1),
            true,
            13,
        );
        let dev_c = net.add_host(home_c, ip(192, 168, 1, 50), vec![]);

        Fig2 {
            net,
            server,
            dev_a,
            dev_b,
            dev_c,
            cgn,
            cpe_c,
        }
    }

    fn udp(src: Endpoint, dst: Endpoint) -> Packet {
        Packet::udp(src, dst, vec![0xAB])
    }

    fn server_ep() -> Endpoint {
        Endpoint::new(ip(203, 0, 113, 10), 8000)
    }

    #[test]
    fn scenario_a_single_translation() {
        let mut f = fig2();
        let src = Endpoint::new(ip(192, 168, 1, 100), 40000);
        let d = f
            .net
            .send(f.dev_a, udp(src, server_ep()))
            .expect("delivered");
        assert_eq!(d.node, f.server);
        // One translation: the CPE's public WAN address.
        assert_eq!(d.pkt.src.ip, ip(198, 51, 100, 77));
    }

    #[test]
    fn scenario_b_cgn_translation() {
        let mut f = fig2();
        let src = Endpoint::new(ip(100, 64, 0, 20), 40000);
        let ds = f
            .net
            .send(f.dev_b, udp(src, server_ep()))
            .expect("delivered");
        let got = ds.pkt.src.ip;
        assert!(
            got == ip(198, 51, 100, 1) || got == ip(198, 51, 100, 2),
            "CGN pool address expected, got {got}"
        );
    }

    #[test]
    fn scenario_c_nat444_double_translation() {
        let mut f = fig2();
        let src = Endpoint::new(ip(192, 168, 1, 50), 40000);
        let ds = f
            .net
            .send(f.dev_c, udp(src, server_ep()))
            .expect("delivered");
        let got = ds.pkt.src.ip;
        assert!(got == ip(198, 51, 100, 1) || got == ip(198, 51, 100, 2));
        // Both NATs hold state now.
        assert_eq!(f.net.nat(f.cpe_c).mapping_count(), 1);
        assert_eq!(f.net.nat(f.cgn).mapping_count(), 1);
    }

    #[test]
    fn six_idle_hours_expire_each_mapping_at_its_own_sweep() {
        // Three mappings on three clocks in one home NAT: a TCP
        // handshake never answered (240 s), a UDP flow (25 min here, so
        // that it outlives two sweeps) and an established TCP
        // connection (2 h). Then nothing for six hours, the clock
        // advanced in uneven steps so sweeps land off the wheel's tick
        // boundaries. Which sweep reaps which mapping, and how many
        // sweeps had anything to inspect, was recorded with the wheel
        // turning tick by tick; a wheel that jumps over the idle ticks
        // must not move any of it.
        let mut net = Network::new();
        let server = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 10), vec![]);
        let mut cfg = NatConfig::home_cpe();
        cfg.udp_timeout = SimDuration::from_secs(1500);
        let wan = vec![ip(198, 51, 100, 77)];
        let (cpe, home) = net.add_nat(
            cfg,
            wan,
            RealmId::PUBLIC,
            vec![],
            ip(192, 168, 1, 1),
            true,
            11,
        );
        let addr = ip(192, 168, 1, 100);
        let dev = net.add_host(home, addr, vec![]);
        let tcp = |port, flags| Packet::tcp(Endpoint::new(addr, port), server_ep(), flags, vec![]);
        net.send(dev, tcp(40_001, TcpFlags::SYN))
            .expect("delivered");
        net.send(dev, udp(Endpoint::new(addr, 40_002), server_ep()))
            .expect("delivered");
        let syn = net
            .send(dev, tcp(40_003, TcpFlags::SYN))
            .expect("delivered");
        let syn_ack = Packet::tcp(server_ep(), syn.pkt.src, TcpFlags::SYN_ACK, vec![]);
        net.send(server, syn_ack).expect("delivered");
        net.send(dev, tcp(40_003, TcpFlags::ACK))
            .expect("delivered");

        let live = |net: &Network| {
            let mut ports: Vec<u16> = net.nat(cpe).mappings().map(|m| m.internal.port).collect();
            ports.sort_unstable();
            ports
        };
        let mut seen = live(&net);
        assert_eq!(seen, [40_001, 40_002, 40_003]);
        let mut reaped = Vec::new();
        while net.now() < SimTime::from_secs(6 * 3600) {
            net.advance(SimDuration::from_millis(97_003));
            if live(&net) != seen {
                seen = live(&net);
                reaped.push((net.now().as_millis(), seen.clone()));
            }
        }
        let stats = net.nat(cpe).stats();
        let counters = (stats.sweeps, stats.sweep_scans, stats.mappings_expired);
        assert_eq!(
            reaped,
            [
                (679_021, vec![40_002, 40_003]),
                (2_037_063, vec![40_003]),
                (7_469_231, vec![]),
            ]
        );
        assert_eq!(
            counters,
            (31, 3, 3),
            "sweeps, sweeps that inspected, expiries"
        );
    }

    #[test]
    fn reply_path_translates_back() {
        let mut f = fig2();
        let src = Endpoint::new(ip(192, 168, 1, 50), 40000);
        let out = f
            .net
            .send(f.dev_c, udp(src, server_ep()))
            .expect("delivered");
        let ext = out.pkt.src;
        // Server replies to what it saw.
        let reply = udp(server_ep(), ext);
        let ds = f.net.send(f.server, reply).expect("delivered");
        assert_eq!(ds.node, f.dev_c);
        assert_eq!(ds.pkt.dst, src, "reply must arrive fully de-translated");
    }

    #[test]
    fn unsolicited_inbound_dropped_by_cgn() {
        let mut f = fig2();
        let stray = udp(server_ep(), Endpoint::new(ip(198, 51, 100, 1), 12345));
        let ds = f.net.send(f.server, stray);
        assert!(
            ds.is_none(),
            "no mapping, no delivery, no ICMP for NAT drops"
        );
    }

    #[test]
    fn no_route_drop() {
        let mut f = fig2();
        let src = Endpoint::new(ip(203, 0, 113, 10), 9);
        let ds = f
            .net
            .send(f.server, udp(src, Endpoint::new(ip(192, 0, 2, 99), 1)));
        assert!(ds.is_none());
        assert_eq!(f.net.stats().dropped_no_route, 1);
    }

    #[test]
    fn ttl_expiry_returns_icmp_with_dying_hop() {
        let mut f = fig2();
        let src = Endpoint::new(ip(192, 168, 1, 50), 40001);
        // TTL 1: dies at the CPE (first hop from device C).
        let pkt = udp(src, server_ep()).with_ttl(1);
        let ds = f.net.send(f.dev_c, pkt).expect("delivered");
        assert_eq!(ds.node, f.dev_c);
        match &ds.pkt.body {
            PacketBody::Icmp { kind, .. } => {
                assert_eq!(*kind, netcore::IcmpKind::TtlExceeded);
            }
            other => panic!("expected ICMP, got {other:?}"),
        }
        assert_eq!(ds.pkt.src.ip, ip(192, 168, 1, 1), "CPE internal address");
    }

    #[test]
    fn traceroute_hop_sequence_matches_path_hops() {
        let mut f = fig2();
        let src = Endpoint::new(ip(192, 168, 1, 50), 40002);
        let truth = f.net.path_hops(f.dev_c, server_ep().ip).unwrap();
        // Walk TTLs 1..n and collect ICMP sources, traceroute-style.
        let mut seen = Vec::new();
        for ttl in 1..=truth.len() as u8 {
            let ds = f
                .net
                .send(f.dev_c, udp(src, server_ep()).with_ttl(ttl))
                .expect("delivered");
            match &ds.pkt.body {
                PacketBody::Icmp { .. } => seen.push(ds.pkt.src.ip),
                _ => break, // reached the destination
            }
        }
        let truth_addrs: Vec<Ipv4Addr> = truth.iter().map(|h| h.addr).collect();
        assert_eq!(seen, truth_addrs[..seen.len()].to_vec());
        // The CGN shows up as a NAT hop in ground truth.
        assert!(truth.iter().any(|h| h.kind == HopKind::Nat));
    }

    #[test]
    fn ttl_exactly_path_length_delivers() {
        let mut f = fig2();
        let src = Endpoint::new(ip(100, 64, 0, 20), 40003);
        let hops = f.net.path_hops(f.dev_b, server_ep().ip).unwrap().len() as u8;
        // Dies with TTL = hops (zero on the last middlebox), delivered with
        // hops + 1.
        let d1 = f
            .net
            .send(f.dev_b, udp(src, server_ep()).with_ttl(hops))
            .expect("delivered");
        assert!(matches!(d1.pkt.body, PacketBody::Icmp { .. }));
        let d2 = f
            .net
            .send(f.dev_b, udp(src, server_ep()).with_ttl(hops + 1))
            .expect("delivered");
        assert_eq!(d2.node, f.server);
    }

    #[test]
    fn internal_realm_traffic_stays_internal() {
        let mut f = fig2();
        // Device B talks directly to subscriber C's CPE WAN address —
        // never crossing the CGN (the §4.1 leakage path).
        let src = Endpoint::new(ip(100, 64, 0, 20), 6881);
        // First, C's device opens a mapping on its CPE toward B so the
        // CPE admits B's packet (hole punching).
        let c_src = Endpoint::new(ip(192, 168, 1, 50), 6881);
        let _ = f
            .net
            .send(f.dev_c, udp(c_src, Endpoint::new(ip(100, 64, 0, 20), 6881)));
        let cgn_out_before = f.net.nat_stats(f.cgn).out_packets;
        let ds = f
            .net
            .send(f.dev_b, udp(src, Endpoint::new(ip(100, 64, 0, 30), 6881)))
            .expect("delivered");
        assert_eq!(ds.node, f.dev_c);
        assert_eq!(
            f.net.nat_stats(f.cgn).out_packets,
            cgn_out_before,
            "intra-realm path must not traverse the CGN"
        );
    }

    #[test]
    fn hairpin_between_cgn_subscribers() {
        let mut f = fig2();
        // B opens a mapping via the server first.
        let b_src = Endpoint::new(ip(100, 64, 0, 20), 7000);
        let out = f
            .net
            .send(f.dev_b, udp(b_src, server_ep()))
            .expect("delivered");
        let b_ext = out.pkt.src;
        // C's device (NAT444) sends to B's *external* endpoint: CGN must
        // hairpin it back to B.
        let c_src = Endpoint::new(ip(192, 168, 1, 50), 7001);
        let ds = f
            .net
            .send(f.dev_c, udp(c_src, b_ext))
            .expect("hairpinned packet must be delivered");
        assert_eq!(ds.node, f.dev_b);
        assert_eq!(f.net.nat_stats(f.cgn).hairpins, 1);
    }

    #[test]
    fn multicast_scoped_to_realm() {
        let mut f = fig2();
        // Device B multicasts in the CGN realm: the only other member is
        // CPE C's... no — CPE WAN interfaces are not hosts. Realm hosts:
        // just dev_b. So nothing is delivered.
        let ds = f
            .net
            .send_multicast(f.dev_b, 6771, 6771, b"BT-SEARCH".to_vec());
        assert!(ds.is_empty());
        // Home realm of A has one host; no other members either.
        let ds = f
            .net
            .send_multicast(f.dev_a, 6771, 6771, b"BT-SEARCH".to_vec());
        assert!(ds.is_empty());
    }

    #[test]
    fn multicast_reaches_realm_members() {
        let mut net = Network::new();
        let (_, realm) = net.add_nat(
            NatConfig::cgn_default(),
            vec![ip(198, 51, 100, 9)],
            RealmId::PUBLIC,
            vec![],
            ip(10, 0, 0, 1),
            true,
            5,
        );
        let a = net.add_host(realm, ip(10, 0, 0, 10), vec![]);
        let b = net.add_host(realm, ip(10, 0, 0, 11), vec![]);
        let c = net.add_host(realm, ip(10, 0, 0, 12), vec![]);
        let ds = net.send_multicast(a, 6771, 6771, b"hello".to_vec());
        let targets: Vec<NodeId> = ds.iter().map(|d| d.node).collect();
        assert_eq!(targets, vec![b, c]);
        assert_eq!(ds[0].pkt.src.ip, ip(10, 0, 0, 10));
    }

    #[test]
    fn multicast_disabled_realm_drops() {
        let mut net = Network::new();
        let (_, realm) = net.add_nat(
            NatConfig::cgn_default(),
            vec![ip(198, 51, 100, 9)],
            RealmId::PUBLIC,
            vec![],
            ip(10, 0, 0, 1),
            false,
            5,
        );
        let a = net.add_host(realm, ip(10, 0, 0, 10), vec![]);
        let _b = net.add_host(realm, ip(10, 0, 0, 11), vec![]);
        assert!(net.send_multicast(a, 6771, 6771, b"x".to_vec()).is_empty());
    }

    #[test]
    fn mapping_expiry_via_advance() {
        let mut f = fig2();
        let src = Endpoint::new(ip(100, 64, 0, 20), 7100);
        let out = f
            .net
            .send(f.dev_b, udp(src, server_ep()))
            .expect("delivered");
        let ext = out.pkt.src;
        f.net.advance(SimDuration::from_secs(120)); // > 60 s CGN UDP timeout
        let ds = f.net.send(f.server, udp(server_ep(), ext));
        assert!(ds.is_none(), "expired mapping must drop inbound");
        assert!(f.net.nat_stats(f.cgn).drop_no_mapping >= 1);
    }

    #[test]
    fn keepalive_holds_mapping_open() {
        let mut f = fig2();
        let src = Endpoint::new(ip(100, 64, 0, 20), 7200);
        let out = f
            .net
            .send(f.dev_b, udp(src, server_ep()))
            .expect("delivered");
        let ext = out.pkt.src;
        for _ in 0..10 {
            f.net.advance(SimDuration::from_secs(30));
            let _ = f.net.send(f.dev_b, udp(src, server_ep()));
        }
        let ds = f.net.send(f.server, udp(server_ep(), ext));
        assert!(ds.is_some(), "refreshed mapping stays usable after 300 s");
    }

    #[test]
    fn ttl_limited_keepalive_refreshes_only_near_hops() {
        // The core mechanism of the paper's Fig. 10 experiment: a keepalive
        // that dies before the CGN refreshes the CPE but lets CGN state
        // expire.
        let mut f = fig2();
        let src = Endpoint::new(ip(192, 168, 1, 50), 7300);
        let out = f
            .net
            .send(f.dev_c, udp(src, server_ep()))
            .expect("delivered");
        let ext = out.pkt.src;

        // Path from dev_c: CPE (hop1), router (hop2), CGN (hop3), ...
        // TTL=2 keepalives die at the aggregation router — refreshing only
        // the CPE.
        for _ in 0..6 {
            f.net.advance(SimDuration::from_secs(20));
            let ka = udp(src, server_ep()).with_ttl(2);
            let _ = f.net.send(f.dev_c, ka);
        }
        // 120 s elapsed: CGN (60 s timeout) expired, CPE (65 s) alive.
        let ds = f.net.send(f.server, udp(server_ep(), ext));
        assert!(ds.is_none(), "server probe must die at the CGN");
        assert!(f.net.nat_stats(f.cgn).drop_no_mapping >= 1);
        assert_eq!(
            f.net.nat(f.cpe_c).mapping_count(),
            1,
            "CPE state kept alive"
        );
    }

    #[test]
    fn tcp_handshake_through_nat444() {
        let mut f = fig2();
        let src = Endpoint::new(ip(192, 168, 1, 50), 7400);
        let syn = Packet::tcp(src, server_ep(), TcpFlags::SYN, vec![]);
        let d = f.net.send(f.dev_c, syn).expect("delivered");
        let ext = d.pkt.src;
        let synack = Packet::tcp(server_ep(), ext, TcpFlags::SYN_ACK, vec![]);
        let d2 = f.net.send(f.server, synack).expect("delivered");
        assert_eq!(d2.node, f.dev_c);
        let ack = Packet::tcp(src, server_ep(), TcpFlags::ACK, vec![]);
        assert!(f.net.send(f.dev_c, ack).is_some());
    }

    /// A sharded CGN behind the walk: translation end-to-end, replies
    /// routed back through the owner shard, whole-node counters merged.
    #[test]
    fn sharded_cgn_translates_end_to_end() {
        let mut net = Network::new();
        let server = net.add_host(
            RealmId::PUBLIC,
            ip(203, 0, 113, 10),
            vec![ip(198, 19, 0, 1)],
        );
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        let pool: Vec<_> = (1..=8).map(|k| ip(198, 51, 100, k)).collect();
        let (cgn, realm) = net.add_nat_sharded(
            cfg,
            pool.clone(),
            4,
            RealmId::PUBLIC,
            vec![ip(198, 19, 2, 1)],
            ip(100, 64, 0, 1),
            false,
            9,
        );
        assert!(net.nat_is_sharded(cgn));
        assert_eq!(net.nat_sharded(cgn).shard_count(), 4);
        let mut devices = Vec::new();
        for k in 0..16u8 {
            let a = ip(100, 64, 1, 10 + k);
            devices.push((net.add_host(realm, a, vec![]), a));
        }
        for (node, addr) in &devices {
            let src = Endpoint::new(*addr, 40_000);
            let ds = net
                .send(*node, Packet::udp(src, server_ep(), vec![]))
                .expect("delivered");
            assert_eq!(ds.node, server);
            let ext = ds.pkt.src;
            assert!(pool.contains(&ext.ip), "translated to a pool address");
            // The owner shard routes the reply back.
            let back = net
                .send(server, Packet::udp(server_ep(), ext, vec![]))
                .expect("delivered");
            assert_eq!(back.node, *node);
            assert_eq!(back.pkt.dst, src);
        }
        assert_eq!(net.nat_mapping_count(cgn), 16);
        assert_eq!(net.cgn_stats(cgn).mappings_created, 16);
        // Mappings expire through the clock like any monolithic node.
        net.advance(SimDuration::from_secs(700));
        assert_eq!(net.nat_mapping_count(cgn), 0);
    }

    /// Cross-shard internal-to-internal traffic under the multi-chassis
    /// default: the packet ascends translated, resolves back to the
    /// same node's pool address and re-enters through the inbound path.
    #[test]
    fn sharded_cgn_internal_traffic_loops_through_core() {
        let mut net = Network::new();
        let _server = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 10), vec![]);
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        let pool: Vec<_> = (1..=4).map(|k| ip(198, 51, 100, k)).collect();
        let (cgn, realm) = net.add_nat_sharded(
            cfg,
            pool,
            4,
            RealmId::PUBLIC,
            vec![],
            ip(100, 64, 0, 1),
            false,
            9,
        );
        // Find two devices in different shards.
        let a_addr = ip(100, 64, 1, 10);
        let a_shard = net.nat_sharded(cgn).shard_of(a_addr);
        let b_addr = (11..200u8)
            .map(|k| ip(100, 64, 1, k))
            .find(|b| net.nat_sharded(cgn).shard_of(*b) != a_shard)
            .expect("some address lands in another shard");
        let a = net.add_host(realm, a_addr, vec![]);
        let b = net.add_host(realm, b_addr, vec![]);
        // B opens a mapping toward the public server.
        let b_src = Endpoint::new(b_addr, 7000);
        let out = net
            .send(b, Packet::udp(b_src, server_ep(), vec![]))
            .expect("delivered");
        let b_ext = out.pkt.src;
        // A sends to B's external endpoint: translated, looped through
        // the external realm, delivered through the inbound path.
        let ds = net
            .send(a, Packet::udp(Endpoint::new(a_addr, 7001), b_ext, vec![]))
            .expect("cross-shard internal traffic delivered");
        assert_eq!(ds.node, b);
        assert_eq!(ds.pkt.dst, b_src, "fully de-translated at B");
        // Two traversals: A's outbound mapping plus B's original one.
        assert_eq!(net.nat_mapping_count(cgn), 2);
    }

    #[test]
    #[should_panic(expected = "use nat_sharded_mut")]
    fn mono_accessor_rejects_sharded_node() {
        let mut net = Network::new();
        let (cgn, _) = net.add_nat_sharded(
            NatConfig::cgn_default(),
            vec![ip(198, 51, 100, 1), ip(198, 51, 100, 2)],
            2,
            RealmId::PUBLIC,
            vec![],
            ip(100, 64, 0, 1),
            false,
            1,
        );
        let _ = net.nat_mut(cgn);
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn duplicate_address_in_realm_panics() {
        let mut net = Network::new();
        net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 10), vec![]);
        net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 10), vec![]);
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fig2();
        let src = Endpoint::new(ip(100, 64, 0, 20), 7500);
        let _ = f.net.send(f.dev_b, udp(src, server_ep()));
        let _ = f
            .net
            .send(f.dev_b, udp(src, Endpoint::new(ip(192, 0, 2, 1), 1)));
        assert_eq!(f.net.stats().sent, 2);
        assert_eq!(f.net.stats().delivered, 1);
        assert_eq!(f.net.stats().dropped_no_route, 1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use nat_engine::{FilteringBehavior, NatConfig};
    use netcore::ip;
    use proptest::prelude::*;

    /// Build a parametric world: a server behind `server_chain` routers and
    /// a device behind a CGN with `agg` aggregation routers and `ext`
    /// external routers.
    fn world(agg: usize, ext: usize, server_chain: usize) -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let schain: Vec<_> = (0..server_chain)
            .map(|i| ip(198, 18, 10, i as u8))
            .collect();
        let server = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 10), schain);
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        let echain: Vec<_> = (0..ext).map(|i| ip(198, 18, 11, i as u8)).collect();
        let (_, realm) = net.add_nat(
            cfg,
            vec![ip(198, 51, 100, 1)],
            RealmId::PUBLIC,
            echain,
            ip(100, 64, 0, 1),
            false,
            1,
        );
        let achain: Vec<_> = (0..agg).map(|i| ip(198, 18, 12, i as u8)).collect();
        let dev = net.add_host(realm, ip(100, 64, 0, 20), achain);
        (net, dev, server)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Ground-truth path length equals the sum of the chain segments
        /// plus the NAT hop, for any topology shape.
        #[test]
        fn prop_path_length(agg in 0usize..6, ext in 0usize..4, sc in 0usize..4) {
            let (net, dev, _) = world(agg, ext, sc);
            let hops = net.path_hops(dev, ip(203, 0, 113, 10)).expect("routable");
            prop_assert_eq!(hops.len(), agg + 1 + ext + sc);
            prop_assert_eq!(hops.iter().filter(|h| h.kind == HopKind::Nat).count(), 1);
        }

        /// TTL semantics: a packet with TTL = path length dies at the last
        /// middle hop; TTL = path length + 1 is delivered. Dying packets
        /// produce exactly one ICMP back to the sender.
        #[test]
        fn prop_ttl_boundary(agg in 0usize..6, ext in 0usize..4, sc in 0usize..4) {
            let (mut net, dev, server) = world(agg, ext, sc);
            let m = net.path_hops(dev, ip(203, 0, 113, 10)).expect("routable").len() as u8;
            let src = Endpoint::new(ip(100, 64, 0, 20), 40_000);
            let dst = Endpoint::new(ip(203, 0, 113, 10), 8000);
            if m >= 1 {
                let d = net.send(dev, Packet::udp(src, dst, vec![]).with_ttl(m)).expect("delivered");
                prop_assert_eq!(d.node, dev, "ICMP returns to the sender");
            }
            let d = net.send(dev, Packet::udp(src, dst, vec![]).with_ttl(m + 1)).expect("delivered");
            prop_assert_eq!(d.node, server);
        }

        /// Traceroute reconstruction: walking TTL 1..=m yields exactly the
        /// ground-truth hop addresses in order.
        #[test]
        fn prop_traceroute_matches_ground_truth(agg in 0usize..5, ext in 0usize..3, sc in 0usize..3) {
            let (mut net, dev, _) = world(agg, ext, sc);
            let truth = net.path_hops(dev, ip(203, 0, 113, 10)).expect("routable");
            let src = Endpoint::new(ip(100, 64, 0, 20), 41_000);
            let dst = Endpoint::new(ip(203, 0, 113, 10), 8000);
            for (i, hop) in truth.iter().enumerate() {
                let d = net.send(dev, Packet::udp(src, dst, vec![]).with_ttl(i as u8 + 1)).expect("delivered");
                prop_assert_eq!(d.pkt.src.ip, hop.addr, "hop {} address", i + 1);
            }
        }

        /// Forwarding is deterministic: repeating the same send on two
        /// identically-built networks yields identical deliveries.
        #[test]
        fn prop_forwarding_deterministic(agg in 0usize..5, ext in 0usize..3, port in 1024u16..65000) {
            let (mut n1, d1, _) = world(agg, ext, 2);
            let (mut n2, d2, _) = world(agg, ext, 2);
            let src = Endpoint::new(ip(100, 64, 0, 20), port);
            let dst = Endpoint::new(ip(203, 0, 113, 10), 8000);
            let a = n1.send(d1, Packet::udp(src, dst, vec![1, 2, 3]));
            let b = n2.send(d2, Packet::udp(src, dst, vec![1, 2, 3]));
            prop_assert_eq!(a.is_some(), b.is_some());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(&x.pkt, &y.pkt);
            }
        }
    }
}
