//! Driving a population of DHT peers over the simulated network.
//!
//! [`DhtWorld`] owns the peer state machines and a bootstrap server, and
//! advances the swarm through *rounds*: every round each peer validates
//! pending candidates, refreshes its routing table with lookups, and
//! periodically multicasts a local-peer-discovery announcement. Between
//! rounds the virtual clock advances, so NAT mappings refresh or expire
//! exactly as they would under real traffic.

use crate::krpc::{CompactNode, KrpcMessage, QueryKind};
use crate::node_id::NodeId160;
use crate::peer::{DhtPeer, PeerConfig, LPD_PORT};
use netcore::{Endpoint, MixMap, Packet, PacketBody, SimDuration};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{pump, Network, NodeId, Outbox};
use std::fmt::Write;
use std::net::Ipv4Addr;

/// Swarm-driving parameters.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Rounds in which every peer (re-)contacts the bootstrap server.
    pub bootstrap_rounds: usize,
    /// Maintenance rounds after bootstrap.
    pub maintenance_rounds: usize,
    /// Virtual time between rounds.
    pub round_gap: SimDuration,
    /// Send LPD announcements every this many rounds (0 = never).
    pub lpd_every: usize,
    /// Safety bound on packet exchanges per round.
    pub max_pump_steps: usize,
    /// Number of tracker swarms per 100 peers (content diversity).
    pub swarms_per_100_peers: usize,
    /// P(a peer joins the swarm popular in its locality) — same-ISP peers
    /// cluster on locally popular content.
    pub p_local_swarm: f64,
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            bootstrap_rounds: 2,
            maintenance_rounds: 12,
            round_gap: SimDuration::from_secs(20),
            lpd_every: 2,
            max_pump_steps: 2_000_000,
            swarms_per_100_peers: 6,
            p_local_swarm: 0.6,
            seed: 0x000B_1770,
        }
    }
}

/// Most contacts one handout carries (a `find_node` response's `K`).
const HANDOUT: usize = 8;

/// Add to `sample` random members of `known` other than `known[asker]`,
/// until it holds [`HANDOUT`] or `2 × (known.len() − 1)` draws are spent.
///
/// The draws are over the list *without* the asker, which is not built:
/// its `i`-th entry is `known[i]` below the asker and `known[i + 1]`
/// from the asker on. (The asker is in `known`, so that is not empty.)
fn sample_others<T: Copy + PartialEq>(
    known: &[T],
    asker: usize,
    sample: &mut Vec<T>,
    rng: &mut StdRng,
) {
    let others = known.len() - 1;
    for _ in 0..others * 2 {
        let i = rng.gen_range(0..others);
        let c = known[i + (i >= asker) as usize];
        if !sample.contains(&c) {
            sample.push(c);
        }
        if sample.len() >= HANDOUT {
            break;
        }
    }
}

/// The DHT bootstrap node: a public host that accumulates the peers that
/// contact it and hands out random samples of them.
#[derive(Debug)]
pub struct BootstrapServer {
    pub sim_node: NodeId,
    pub endpoint: Endpoint,
    pub id: NodeId160,
    known: Vec<CompactNode>,
    by_endpoint: MixMap<Endpoint, usize>,
    /// Long-lived stable nodes always included in handouts. Stable,
    /// always-on participants (like a measurement crawler running for
    /// weeks) end up in virtually every routing table; pinning models
    /// that without simulating weeks of uptime.
    pinned: Vec<CompactNode>,
}

impl BootstrapServer {
    pub fn new(sim_node: NodeId, addr: Ipv4Addr, port: u16, id: NodeId160) -> Self {
        BootstrapServer {
            sim_node,
            endpoint: Endpoint::new(addr, port),
            id,
            known: Vec::new(),
            by_endpoint: MixMap::default(),
            pinned: Vec::new(),
        }
    }

    /// Pin a stable node into every future handout.
    pub fn pin(&mut self, node: CompactNode) {
        self.pinned.push(node);
    }

    pub fn known_count(&self) -> usize {
        self.known.len()
    }

    /// Record `node` at its endpoint; returns its index in `known`.
    fn learn(&mut self, node: CompactNode) -> usize {
        let next = self.known.len();
        let i = *self.by_endpoint.entry(node.endpoint).or_insert(next);
        if i == next {
            self.known.push(node);
        } else {
            self.known[i] = node;
        }
        i
    }

    /// Handle a delivered packet; returns the reply, if it was a query.
    pub fn handle_packet(&mut self, pkt: &Packet, rng: &mut StdRng) -> Option<Packet> {
        let PacketBody::Udp { payload } = &pkt.body else {
            return None;
        };
        if pkt.dst.port != self.endpoint.port {
            return None;
        }
        let KrpcMessage::Query {
            transaction,
            kind,
            sender,
            ..
        } = KrpcMessage::decode(payload).ok()?
        else {
            return None;
        };
        // Record the contact at its observed (translated) source.
        let asker = self.learn(CompactNode::new(sender, pkt.src));
        let reply = match kind {
            QueryKind::Ping => KrpcMessage::pong(transaction, self.id),
            QueryKind::FindNode => {
                // Hand out stable nodes plus random known peers
                // (not the asker).
                let mut sample = Vec::with_capacity(HANDOUT);
                sample.extend(self.pinned.iter().filter(|c| c.endpoint != pkt.src));
                sample_others(&self.known, asker, &mut sample, rng);
                KrpcMessage::nodes_response(transaction, self.id, sample)
            }
        };
        Some(Packet::udp(self.endpoint, pkt.src, reply.encode()))
    }
}

/// A swarm tracker: peers announce a swarm id, the tracker records the
/// observed (translated) source endpoint and answers with a random sample
/// of the swarm's members. This is the content-locality discovery channel
/// real BitTorrent has besides the DHT — and the reason peers behind the
/// same CGN find each other quickly (popular local content).
#[derive(Debug)]
pub struct TrackerServer {
    pub sim_node: NodeId,
    pub endpoint: Endpoint,
    swarms: MixMap<u32, Vec<Endpoint>>,
}

impl TrackerServer {
    pub fn new(sim_node: NodeId, addr: Ipv4Addr, port: u16) -> Self {
        TrackerServer {
            sim_node,
            endpoint: Endpoint::new(addr, port),
            swarms: MixMap::default(),
        }
    }

    pub fn swarm_count(&self) -> usize {
        self.swarms.len()
    }

    /// Handle an announce; reply with up to 8 random swarm members.
    pub fn handle_packet(&mut self, pkt: &Packet, rng: &mut StdRng) -> Option<Packet> {
        let PacketBody::Udp { payload } = &pkt.body else {
            return None;
        };
        if pkt.dst.port != self.endpoint.port {
            return None;
        }
        let swarm = std::str::from_utf8(payload)
            .ok()?
            .strip_prefix("BTT ANNOUNCE ")?
            .trim()
            .parse::<u32>()
            .ok()?;
        let members = self.swarms.entry(swarm).or_default();
        let asker = members
            .iter()
            .position(|m| *m == pkt.src)
            .unwrap_or_else(|| {
                members.push(pkt.src);
                members.len() - 1
            });
        let mut sample: Vec<Endpoint> = Vec::with_capacity(HANDOUT);
        sample_others(members, asker, &mut sample, rng);
        let mut body = String::from("BTT PEERS ");
        for (i, e) in sample.iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(body, "{sep}{e}").expect("writing to a String");
        }
        Some(Packet::udp(self.endpoint, pkt.src, body.into_bytes()))
    }
}

/// The peer population plus the bootstrap server and the swarm tracker.
#[derive(Debug)]
pub struct DhtWorld {
    pub config: WorldConfig,
    pub peers: Vec<DhtPeer>,
    /// Index into `peers` of the live peer on each simulated host: a
    /// dense table over `NodeId`, `None` where there is none (another
    /// kind of host, or a retired peer).
    by_node: Vec<Option<u32>>,
    pub bootstrap: BootstrapServer,
    pub tracker: TrackerServer,
    /// Swarm membership per peer index.
    swarm_of: Vec<u32>,
    rng: StdRng,
}

impl DhtWorld {
    /// Create a world around an existing bootstrap host (a public host in
    /// the network).
    pub fn new(config: WorldConfig, bootstrap_node: NodeId, bootstrap_addr: Ipv4Addr) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let id = NodeId160::random(&mut rng);
        DhtWorld {
            config,
            peers: Vec::new(),
            by_node: Vec::new(),
            bootstrap: BootstrapServer::new(bootstrap_node, bootstrap_addr, 6881, id),
            tracker: TrackerServer::new(bootstrap_node, bootstrap_addr, 6969),
            swarm_of: Vec::new(),
            rng,
        }
    }

    /// Register a peer running on simulated host `sim_node` with address
    /// `addr`. The node ID and DHT port are drawn from the world RNG
    /// (BitTorrent clients randomize their listening port). `locality`
    /// keys the peer's preferred tracker swarm — peers sharing a locality
    /// (e.g. the same ISP's CGN zone) cluster on locally popular content.
    pub fn add_peer_with_locality(
        &mut self,
        sim_node: NodeId,
        addr: Ipv4Addr,
        config: PeerConfig,
        locality: u64,
    ) -> usize {
        let id = NodeId160::random(&mut self.rng);
        let port = self.rng.gen_range(6881..=6999);
        let idx = self.push_peer(DhtPeer::new(sim_node, addr, port, id, config));
        // Swarm assignment is finalized lazily because the swarm count
        // depends on the final population; store the locality for now.
        self.swarm_of.push(locality as u32);
        idx
    }

    fn push_peer(&mut self, peer: DhtPeer) -> usize {
        let idx = self.peers.len();
        let node = peer.sim_node.0 as usize;
        if self.by_node.len() <= node {
            self.by_node.resize(node + 1, None);
        }
        self.by_node[node] = Some(idx as u32);
        self.peers.push(peer);
        idx
    }

    /// Register a peer with a unique locality (no swarm clustering bias).
    pub fn add_peer(&mut self, sim_node: NodeId, addr: Ipv4Addr, config: PeerConfig) -> usize {
        let unique = 0xFFFF_0000u64 + self.peers.len() as u64;
        self.add_peer_with_locality(sim_node, addr, config, unique)
    }

    /// Register a *service* peer at a fixed port — the crawler's DHT
    /// presence. The paper's crawler "participates in the DHT and
    /// therefore accepts incoming requests"; peers validate and store it,
    /// and their outbound validation pings punch holes through restrictive
    /// NATs that later let the crawler query them back.
    pub fn add_service_peer(&mut self, sim_node: NodeId, addr: Ipv4Addr, port: u16) -> usize {
        let id = NodeId160::random(&mut self.rng);
        let idx = self.push_peer(DhtPeer::new(
            sim_node,
            addr,
            port,
            id,
            PeerConfig::default(),
        ));
        // Unique locality: the service host announces no swarms.
        self.swarm_of.push(0xFFFF_FF00u64 as u32 ^ idx as u32);
        // A stable always-on node: the bootstrap hands it out to everyone.
        self.bootstrap
            .pin(CompactNode::new(id, Endpoint::new(addr, port)));
        idx
    }

    /// Retire a fraction of the population: retired peers stop answering
    /// (BitTorrent churn — clients go offline between the swarm activity
    /// and the crawl; the paper saw only 56% of learned peers respond).
    /// Returns how many peers were retired. Service peers (index in
    /// `keep`) are never retired.
    pub fn retire_peers(&mut self, fraction: f64, keep: &[usize]) -> usize {
        let mut retired = 0;
        let n = self.peers.len();
        for idx in 0..n {
            if keep.contains(&idx) {
                continue;
            }
            if self.rng.gen_bool(fraction) {
                self.by_node[self.peers[idx].sim_node.0 as usize] = None;
                retired += 1;
            }
        }
        retired
    }

    /// Resolve localities into concrete swarm ids.
    fn assign_swarms(&mut self) {
        let n_swarms = ((self.peers.len() * self.config.swarms_per_100_peers) / 100).max(2) as u32;
        let p_local = self.config.p_local_swarm;
        for i in 0..self.swarm_of.len() {
            let locality = self.swarm_of[i];
            let local_swarm = locality.wrapping_mul(2_654_435_761) % n_swarms;
            self.swarm_of[i] = if self.rng.gen_bool(p_local) {
                local_swarm
            } else {
                self.rng.gen_range(0..n_swarms)
            };
        }
    }

    fn peer_index(&self, node: NodeId) -> Option<usize> {
        let i = self.by_node.get(node.0 as usize).copied().flatten()?;
        Some(i as usize)
    }

    pub fn peer_by_node(&self, node: NodeId) -> Option<&DhtPeer> {
        self.peer_index(node).map(|i| &self.peers[i])
    }

    /// Dispatch a delivered packet to its owner (tracker, bootstrap or
    /// peer); the owner's reply, if any, is pushed onto `out` with
    /// `node` as its origin.
    pub fn dispatch(&mut self, node: NodeId, pkt: &Packet, out: &mut Outbox) {
        let reply = if node == self.tracker.sim_node && pkt.dst.port == self.tracker.endpoint.port {
            self.tracker.handle_packet(pkt, &mut self.rng)
        } else if node == self.bootstrap.sim_node {
            self.bootstrap.handle_packet(pkt, &mut self.rng)
        } else {
            self.peer_index(node)
                .and_then(|i| self.peers[i].handle_packet(pkt))
        };
        out.extend(reply.map(|p| (node, p)));
    }

    /// Run the configured bootstrap + maintenance schedule.
    pub fn run(&mut self, net: &mut Network) {
        self.assign_swarms();
        let rounds = self.config.bootstrap_rounds + self.config.maintenance_rounds;
        for round in 0..rounds {
            self.run_round(net, round);
        }
    }

    /// One round: LPD (periodically), bootstrap contact (early rounds),
    /// candidate validation and table refresh, then packet exchange until
    /// quiescence, then a clock step.
    pub fn run_round(&mut self, net: &mut Network, round: usize) {
        let mut outbox = Outbox::new();

        // Local peer discovery: multicast announcements; deliveries are
        // dispatched immediately and any reactions join the initial batch.
        if self.config.lpd_every > 0 && round % self.config.lpd_every == 0 {
            for i in 0..self.peers.len() {
                let p = &self.peers[i];
                if !p.config.lpd_enabled {
                    continue;
                }
                let deliveries = net.send_multicast(p.sim_node, p.port, LPD_PORT, p.lpd_payload());
                for d in deliveries {
                    self.dispatch(d.node, &d.pkt, &mut outbox);
                }
            }
        }

        // Bootstrap contact, tracker announce and per-peer maintenance.
        let bootstrap_ep = self.bootstrap.endpoint;
        let tracker_ep = self.tracker.endpoint;
        let bootstrapping = round < self.config.bootstrap_rounds;
        for (i, peer) in self.peers.iter_mut().enumerate() {
            if bootstrapping {
                let q = peer.find_node_query(bootstrap_ep, peer.id);
                outbox.push((peer.sim_node, q));
            }
            let swarm = self.swarm_of.get(i).copied().unwrap_or(0);
            let ann = peer.tracker_announce(tracker_ep, swarm);
            outbox.push((peer.sim_node, ann));
            peer.tick(&mut self.rng, &mut outbox);
        }

        // Exchange packets until the swarm quiesces.
        let max_steps = self.config.max_pump_steps;
        pump(
            net,
            &mut outbox,
            |node, pkt, out| self.dispatch(node, pkt, out),
            max_steps,
        );

        net.advance(self.config.round_gap);
    }

    /// Total contacts across all peer routing tables — convergence
    /// diagnostic.
    pub fn total_contacts(&self) -> usize {
        self.peers.iter().map(|p| p.table.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nat_engine::{FilteringBehavior, NatConfig};
    use netcore::ip;
    use simnet::RealmId;

    /// The handout the servers used to draw: build the list of everyone
    /// but the asker, draw indices into it.
    fn sample_materialised<T: Copy + PartialEq>(
        known: &[T],
        asker: usize,
        sample: &mut Vec<T>,
        rng: &mut StdRng,
    ) {
        let candidates: Vec<&T> = known.iter().filter(|c| **c != known[asker]).collect();
        if !candidates.is_empty() {
            for _ in 0..(candidates.len() * 2) {
                let c = candidates[rng.gen_range(0..candidates.len())];
                if !sample.contains(c) {
                    sample.push(*c);
                }
                if sample.len() >= 8 {
                    break;
                }
            }
        }
    }

    /// Sampling around the asker draws what sampling from the list
    /// without the asker drew: same sample, same RNG state afterwards.
    #[test]
    fn sampling_skips_the_asker_without_building_the_list() {
        for known in [1usize, 2, 3, 5, 8, 9, 40] {
            let members: Vec<u32> = (0..known as u32).map(|m| m * 7 + 1).collect();
            for asker in 0..known {
                for pinned in [0usize, 2, 8, 11] {
                    let seed = (known * 1000 + asker * 16 + pinned) as u64;
                    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                    // Pinned nodes are already in the sample; one of
                    // them is also known, so a draw can be a duplicate.
                    let mut new: Vec<u32> = (0..pinned as u32).map(|p| 1_000 + p).collect();
                    new.extend(members.last().filter(|_| pinned > 0));
                    let (mut old, given) = (new.clone(), new.len());
                    sample_others(&members, asker, &mut new, &mut a);
                    sample_materialised(&members, asker, &mut old, &mut b);
                    assert_eq!(new, old, "known {known}, asker {asker}, pinned {pinned}");
                    assert!(!new[given..].contains(&members[asker]));
                    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG state diverged");
                }
            }
        }
    }

    /// The bootstrap and the tracker hand out what they handed out when
    /// they materialised their candidates: the replies of a fixed
    /// conversation are pinned byte for byte by the study digests in
    /// `tests/end_to_end.rs`; here, that the asker is never in its own
    /// handout and that a lone asker gets an empty one.
    #[test]
    fn servers_never_hand_the_asker_to_itself() {
        let mut rng = StdRng::seed_from_u64(5);
        let at = |n: u8| Endpoint::new(ip(198, 51, 100, n), 6881);
        let mut bs = BootstrapServer::new(NodeId(0), ip(203, 0, 113, 1), 6881, NodeId160::ZERO);
        let mut tracker = TrackerServer::new(NodeId(0), ip(203, 0, 113, 1), 6969);
        for round in 0..3 {
            for n in 1..=12u8 {
                let id = NodeId160::from_u64(n as u64);
                let q = KrpcMessage::find_node(b"aa", id, id).encode();
                let reply = bs
                    .handle_packet(&Packet::udp(at(n), bs.endpoint, q), &mut rng)
                    .expect("a handout");
                let KrpcMessage::Response { nodes, .. } =
                    KrpcMessage::decode(reply.body.payload()).unwrap()
                else {
                    panic!("expected a nodes response");
                };
                assert!(nodes.iter().all(|c| c.endpoint != at(n)));
                assert_eq!(nodes.is_empty(), round == 0 && n == 1);
                assert!(nodes.len() <= 8);

                let ann = Packet::udp(at(n), tracker.endpoint, b"BTT ANNOUNCE 3".to_vec());
                let reply = tracker.handle_packet(&ann, &mut rng).expect("a peer list");
                let peers: Vec<Endpoint> = DhtPeer::parse_tracker_peers(reply.body.payload())
                    .expect("a peer list")
                    .collect();
                assert!(!peers.contains(&at(n)));
                assert_eq!(peers.is_empty(), round == 0 && n == 1);
                if peers.is_empty() {
                    assert_eq!(reply.body.payload(), b"BTT PEERS ");
                }
            }
        }
        assert_eq!(bs.known_count(), 12);
    }

    /// One datagram with an overflowing length used to kill whoever
    /// decoded it. Every decoder on the wire now drops it and lives.
    #[test]
    fn overflowing_datagrams_are_dropped_by_every_decoder() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut bs = BootstrapServer::new(NodeId(0), ip(203, 0, 113, 1), 6881, NodeId160::ZERO);
        let mut peer = DhtPeer::new(
            NodeId(1),
            ip(198, 51, 100, 1),
            6881,
            NodeId160::from_u64(1),
            PeerConfig::default(),
        );
        let src = Endpoint::new(ip(198, 51, 100, 66), 6881);
        for data in crate::model::OVERFLOWING {
            assert!(KrpcMessage::decode(data).is_err());
            let to_peer = Packet::udp(src, peer.local_endpoint(), data.to_vec());
            assert!(peer.handle_packet(&to_peer).is_none());
            let to_bs = Packet::udp(src, bs.endpoint, data.to_vec());
            assert!(bs.handle_packet(&to_bs, &mut rng).is_none());
        }
        assert_eq!((peer.queries_received, bs.known_count()), (0, 0));
    }

    /// Ten public peers + bootstrap: everyone discovers several others.
    #[test]
    fn public_swarm_converges() {
        let mut net = Network::new();
        let bs = net.add_host(
            RealmId::PUBLIC,
            ip(203, 0, 113, 1),
            vec![ip(203, 0, 113, 254)],
        );
        let mut world = DhtWorld::new(WorldConfig::default(), bs, ip(203, 0, 113, 1));
        for i in 0..10u8 {
            let h = net.add_host(RealmId::PUBLIC, ip(198, 51, 100, i + 1), vec![]);
            world.add_peer(h, ip(198, 51, 100, i + 1), PeerConfig::default());
        }
        world.run(&mut net);
        assert!(world.bootstrap.known_count() >= 10);
        let avg = world.total_contacts() as f64 / 10.0;
        assert!(avg >= 4.0, "peers should learn several contacts, avg={avg}");
        // Every peer has been validated into someone's table.
        for p in &world.peers {
            assert!(p.contacts_validated > 0, "peer validated nothing");
        }
    }

    /// Two peers behind the same full-cone CGN learn each other's internal
    /// endpoints via LPD multicast.
    #[test]
    fn cgn_peers_learn_internal_endpoints_via_lpd() {
        let mut net = Network::new();
        let bs = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 1), vec![]);
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        let (_, realm) = net.add_nat(
            cfg,
            vec![ip(198, 51, 100, 1), ip(198, 51, 100, 2)],
            RealmId::PUBLIC,
            vec![],
            ip(100, 64, 0, 1),
            true, // multicast-enabled internal realm
            1,
        );
        let a = net.add_host(realm, ip(100, 64, 0, 10), vec![]);
        let b = net.add_host(realm, ip(100, 64, 0, 11), vec![]);
        let mut world = DhtWorld::new(WorldConfig::default(), bs, ip(203, 0, 113, 1));
        world.add_peer(a, ip(100, 64, 0, 10), PeerConfig::default());
        world.add_peer(b, ip(100, 64, 0, 11), PeerConfig::default());
        world.run(&mut net);
        // Each peer's table holds the other at its *internal* endpoint.
        let pa = &world.peers[0];
        let pb = &world.peers[1];
        assert_eq!(
            pa.table.endpoint_of(pb.id).map(|e| e.ip),
            Some(ip(100, 64, 0, 11)),
            "A must know B internally"
        );
        assert_eq!(
            pb.table.endpoint_of(pa.id).map(|e| e.ip),
            Some(ip(100, 64, 0, 10)),
            "B must know A internally"
        );
    }

    /// Without multicast, the hairpin channel (internal source preserved)
    /// still leaks internal endpoints once peers know each other's
    /// external endpoints.
    #[test]
    fn cgn_peers_learn_internal_endpoints_via_hairpin() {
        let mut net = Network::new();
        let bs = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 1), vec![]);
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        cfg.hairpinning = true;
        cfg.hairpin_internal_source = true;
        let (_, realm) = net.add_nat(
            cfg,
            vec![ip(198, 51, 100, 1), ip(198, 51, 100, 2)],
            RealmId::PUBLIC,
            vec![],
            ip(100, 64, 0, 1),
            false, // no multicast: hairpin is the only internal channel
            1,
        );
        let a = net.add_host(realm, ip(100, 64, 0, 10), vec![]);
        let b = net.add_host(realm, ip(100, 64, 0, 11), vec![]);
        let mut world = DhtWorld::new(
            WorldConfig {
                maintenance_rounds: 10,
                ..WorldConfig::default()
            },
            bs,
            ip(203, 0, 113, 1),
        );
        world.add_peer(a, ip(100, 64, 0, 10), PeerConfig::default());
        world.add_peer(b, ip(100, 64, 0, 11), PeerConfig::default());
        world.run(&mut net);
        let pa = &world.peers[0];
        let pb = &world.peers[1];
        let a_knows_b_internal =
            pa.table.endpoint_of(pb.id).map(|e| e.ip) == Some(ip(100, 64, 0, 11));
        let b_knows_a_internal =
            pb.table.endpoint_of(pa.id).map(|e| e.ip) == Some(ip(100, 64, 0, 10));
        assert!(
            a_knows_b_internal || b_knows_a_internal,
            "hairpin with preserved source must leak at least one internal endpoint; \
             A sees B at {:?}, B sees A at {:?}",
            pa.table.endpoint_of(pb.id),
            pb.table.endpoint_of(pa.id)
        );
    }

    /// Peers behind a port-address-restricted CGN still reach the
    /// bootstrap and learn contacts (their outbound works), even though
    /// they are not queryable from outside.
    #[test]
    fn restricted_cgn_peers_bootstrap_fine() {
        let mut net = Network::new();
        let bs = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 1), vec![]);
        let (_, realm) = net.add_nat(
            NatConfig::cgn_default(), // APDF filtering
            vec![ip(198, 51, 100, 1)],
            RealmId::PUBLIC,
            vec![],
            ip(100, 64, 0, 1),
            false,
            1,
        );
        let a = net.add_host(realm, ip(100, 64, 0, 10), vec![]);
        let pub_peer = net.add_host(RealmId::PUBLIC, ip(198, 51, 100, 77), vec![]);
        let mut world = DhtWorld::new(WorldConfig::default(), bs, ip(203, 0, 113, 1));
        world.add_peer(a, ip(100, 64, 0, 10), PeerConfig::default());
        world.add_peer(pub_peer, ip(198, 51, 100, 77), PeerConfig::default());
        world.run(&mut net);
        assert!(
            !world.peers[0].table.is_empty(),
            "NATed peer must learn contacts"
        );
    }
}
