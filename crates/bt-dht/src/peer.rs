//! The DHT peer state machine.
//!
//! A peer owns a UDP socket (its internal endpoint), a node ID and a
//! routing table. It answers `ping` and `find_node` queries, performs
//! iterative lookups for table maintenance, and — crucially for the paper —
//! *validates contacts before adding them*: a candidate endpoint must answer
//! a `bt_ping` before it enters the routing table and can be propagated to
//! others. The paper's calibration (§4.1) found 98.7% of live peers behave
//! this way; [`PeerConfig::validates_before_adding`] models the violators.
//!
//! Internal endpoints enter tables through two channels, both validated in
//! the paper:
//!
//! 1. **Local peer discovery (LPD)** — a multicast announcement scoped to
//!    the peer's realm; receivers learn the announcer's internal endpoint.
//! 2. **Hairpinned queries** — when a NAT hairpins without rewriting the
//!    source, the receiver observes the sender's internal endpoint directly
//!    and, after validating it, stores it.

use crate::krpc::{CompactNode, KrpcMessage, QueryKind};
use crate::node_id::NodeId160;
use crate::routing::{RoutingTable160, K};
use netcore::{Endpoint, MixSet, Packet, PacketBody};
use rand::rngs::StdRng;
use rand::Rng;
use simnet::{NodeId, Outbox};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// The well-known local peer discovery multicast port (BEP-14).
pub const LPD_PORT: u16 = 6771;

/// Peer behaviour knobs.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Whether contacts are validated with a `bt_ping` before insertion
    /// (spec behaviour; 98.7% of peers in the paper's calibration).
    pub validates_before_adding: bool,
    /// Whether the client participates in local peer discovery.
    pub lpd_enabled: bool,
    /// Maximum validation pings sent per tick.
    pub validations_per_tick: usize,
}

impl Default for PeerConfig {
    fn default() -> Self {
        PeerConfig {
            validates_before_adding: true,
            lpd_enabled: true,
            validations_per_tick: 8,
        }
    }
}

/// A not-yet-validated contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    /// Known node ID, if the contact came from a KRPC message.
    id: Option<NodeId160>,
    endpoint: Endpoint,
}

/// One DHT participant bound to a simulated host.
#[derive(Debug)]
pub struct DhtPeer {
    /// The simulated host this peer runs on.
    pub sim_node: NodeId,
    /// The host's own (possibly internal) address.
    pub addr: Ipv4Addr,
    /// The DHT socket port.
    pub port: u16,
    pub id: NodeId160,
    pub table: RoutingTable160,
    pub config: PeerConfig,
    candidates: VecDeque<Candidate>,
    /// Endpoints already queued or validated — dedup for the candidate queue.
    seen_candidates: MixSet<Endpoint>,
    /// The validation pings of the latest [`DhtPeer::tick`], at most
    /// `validations_per_tick` of them: transaction → candidate endpoint.
    /// The network is synchronous — a pong arrives inside the round's
    /// own pump or never — so the next tick forgets what is still here.
    pending_pings: Vec<(u16, Endpoint)>,
    next_txn: u64,
    /// Counters.
    pub queries_received: u64,
    pub responses_sent: u64,
    pub contacts_validated: u64,
    /// Contacts stored without a validation ping (spec violators only).
    pub contacts_inserted_unvalidated: u64,
}

impl DhtPeer {
    pub fn new(
        sim_node: NodeId,
        addr: Ipv4Addr,
        port: u16,
        id: NodeId160,
        config: PeerConfig,
    ) -> Self {
        DhtPeer {
            sim_node,
            addr,
            port,
            id,
            table: RoutingTable160::new(id),
            config,
            candidates: VecDeque::new(),
            seen_candidates: MixSet::default(),
            pending_pings: Vec::new(),
            next_txn: 0,
            queries_received: 0,
            responses_sent: 0,
            contacts_validated: 0,
            contacts_inserted_unvalidated: 0,
        }
    }

    /// The endpoint this peer sends from.
    pub fn local_endpoint(&self) -> Endpoint {
        Endpoint::new(self.addr, self.port)
    }

    /// The next transaction id: the low 16 bits of a counter, on the
    /// wire as two big-endian bytes.
    fn txn(&mut self) -> u16 {
        let t = self.next_txn as u16;
        self.next_txn += 1;
        t
    }

    fn udp_to(&self, dst: Endpoint, payload: Vec<u8>) -> Packet {
        Packet::udp(self.local_endpoint(), dst, payload)
    }

    /// Queue a contact for validation (or insert directly for violators
    /// when the ID is already known).
    fn consider(&mut self, id: Option<NodeId160>, endpoint: Endpoint) {
        if endpoint == self.local_endpoint() || Some(self.id) == id {
            return;
        }
        if id.is_none() && self.table.knows_endpoint(endpoint) {
            return; // tracker/LPD candidate already in the table
        }
        if let Some(i) = id {
            if self.table.endpoint_of(i) == Some(endpoint) {
                return; // already known at this endpoint
            }
            if !self.config.validates_before_adding {
                // Spec violator: store immediately, no reachability check.
                if self.table.upsert(CompactNode::new(i, endpoint)) {
                    self.contacts_inserted_unvalidated += 1;
                }
                return;
            }
        }
        if self.seen_candidates.insert(endpoint) {
            self.candidates.push_back(Candidate { id, endpoint });
        }
    }

    /// Build a `find_node` query packet toward `dst`.
    pub fn find_node_query(&mut self, dst: Endpoint, target: NodeId160) -> Packet {
        let t = self.txn().to_be_bytes();
        self.udp_to(dst, KrpcMessage::find_node(&t, self.id, target).encode())
    }

    /// The LPD announcement (port advertisement) for multicast.
    ///
    /// Follows the BEP-14 shape: an HTTP-like datagram carrying the
    /// announcer's listening port.
    pub fn lpd_payload(&self) -> Vec<u8> {
        format!(
            "BT-SEARCH * HTTP/1.1\r\nHost: 239.192.152.143:6771\r\nPort: {}\r\nInfohash: 0000000000000000000000000000000000000000\r\n\r\n",
            self.port
        )
        .into_bytes()
    }

    /// Build a tracker announce datagram for `swarm` (a simplified UDP
    /// tracker protocol: the tracker records the observed source endpoint
    /// under the swarm and answers with a peer sample).
    pub fn tracker_announce(&self, tracker: Endpoint, swarm: u32) -> Packet {
        self.udp_to(tracker, format!("BTT ANNOUNCE {swarm}").into_bytes())
    }

    /// Parse a tracker peer-list response; yields the peer endpoints.
    pub fn parse_tracker_peers(payload: &[u8]) -> Option<impl Iterator<Item = Endpoint> + '_> {
        let text = std::str::from_utf8(payload).ok()?;
        let rest = text.strip_prefix("BTT PEERS")?;
        Some(rest.split_whitespace().filter_map(|tok| {
            let (ip, port) = tok.rsplit_once(':')?;
            Some(Endpoint::new(ip.parse().ok()?, port.parse().ok()?))
        }))
    }

    /// Parse an LPD announcement; returns the advertised port.
    pub fn parse_lpd(payload: &[u8]) -> Option<u16> {
        let text = std::str::from_utf8(payload).ok()?;
        if !text.starts_with("BT-SEARCH") {
            return None;
        }
        text.lines()
            .find_map(|l| l.strip_prefix("Port: "))
            .and_then(|p| p.trim().parse().ok())
    }

    /// Handle a delivered packet; returns the reply to transmit, if the
    /// packet was a query.
    pub fn handle_packet(&mut self, pkt: &Packet) -> Option<Packet> {
        let PacketBody::Udp { payload } = &pkt.body else {
            return None;
        };
        // Local peer discovery?
        if pkt.dst.port == LPD_PORT {
            if self.config.lpd_enabled {
                if let Some(port) = Self::parse_lpd(payload) {
                    self.consider(None, Endpoint::new(pkt.src.ip, port));
                }
            }
            return None;
        }
        if pkt.dst.port != self.port {
            return None;
        }
        // Tracker peer list?
        if payload.starts_with(b"BTT PEERS") {
            if let Some(peers) = Self::parse_tracker_peers(payload) {
                for ep in peers {
                    self.consider(None, ep);
                }
            }
            return None;
        }
        match KrpcMessage::decode(payload).ok()? {
            KrpcMessage::Query {
                transaction,
                kind,
                sender,
                target,
            } => {
                self.queries_received += 1;
                // The querier becomes a candidate at its observed source
                // endpoint — the hairpin-leak channel when that source is
                // internal.
                self.consider(Some(sender), pkt.src);
                let reply = match kind {
                    QueryKind::Ping => KrpcMessage::pong(transaction, self.id),
                    QueryKind::FindNode => {
                        let target = target.expect("find_node always has a target");
                        KrpcMessage::nodes_response(
                            transaction,
                            self.id,
                            self.table.closest(target, K),
                        )
                    }
                };
                self.responses_sent += 1;
                Some(self.udp_to(pkt.src, reply.encode()))
            }
            KrpcMessage::Response {
                transaction,
                sender,
                nodes,
            } => {
                // Validation pong?
                let pending = <[u8; 2]>::try_from(transaction).ok().and_then(|t| {
                    let t = u16::from_be_bytes(t);
                    self.pending_pings.iter().position(|(p, _)| *p == t)
                });
                match pending.map(|i| self.pending_pings.swap_remove(i).1) {
                    Some(expected) if expected == pkt.src => {
                        self.contacts_validated += 1;
                        self.table.upsert(CompactNode::new(sender, pkt.src));
                    }
                    // Answered from a *different* endpoint than we probed
                    // — the signature of a hairpinning NAT that preserves
                    // internal sources: the observed endpoint is the
                    // peer's internal one, to be validated directly
                    // (§4.1's leak channel) — or the answer to no ping of
                    // ours: a response from an endpoint other than the
                    // stored contact's makes that endpoint a candidate,
                    // as clients track peers by the addresses traffic
                    // actually arrives from.
                    _ => self.consider(Some(sender), pkt.src),
                }
                // Nodes learned from a lookup become candidates.
                for n in nodes {
                    self.consider(Some(n.id), n.endpoint);
                }
                None
            }
            KrpcMessage::Error { .. } => None,
        }
    }

    /// Periodic maintenance: validate queued candidates and refresh the
    /// table with a lookup. Pushes the packets to transmit onto `out`.
    pub fn tick(&mut self, rng: &mut StdRng, out: &mut Outbox) {
        // Pings the previous round left unanswered never will be
        // (retired peers, filtering NATs): forget them, so the list is
        // bounded and a recycled transaction id finds no stale entry.
        self.pending_pings.clear();
        for _ in 0..self.config.validations_per_tick {
            let Some(c) = self.candidates.pop_front() else {
                break;
            };
            self.seen_candidates.remove(&c.endpoint);
            let t = self.txn();
            self.pending_pings.push((t, c.endpoint));
            let ping = KrpcMessage::ping(&t.to_be_bytes(), self.id).encode();
            out.push((self.sim_node, self.udp_to(c.endpoint, ping)));
        }
        // Refresh: ask random known contacts for nodes near a random ID
        // (random-target lookups keep far buckets populated and spread
        // validated endpoints — including internal ones — through the
        // neighbourhood). Contacts are drawn by index in the table's
        // bucket order.
        if !self.table.is_empty() {
            for _ in 0..2 {
                let i = rng.gen_range(0..self.table.len());
                let dst = self.table.nth(i).expect("index below len").endpoint;
                let target = if rng.gen_bool(0.5) {
                    self.id
                } else {
                    NodeId160::random(rng)
                };
                let query = self.find_node_query(dst, target);
                out.push((self.sim_node, query));
            }
        }
    }

    /// Number of queued (unvalidated) candidates — diagnostic.
    pub fn pending_candidates(&self) -> usize {
        self.candidates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::ip;
    use rand::SeedableRng;

    fn peer() -> DhtPeer {
        DhtPeer::new(
            NodeId(0),
            ip(100, 64, 0, 10),
            6881,
            NodeId160::from_u64(1000),
            PeerConfig::default(),
        )
    }

    fn remote(n: u64, last: u8) -> (NodeId160, Endpoint) {
        (
            NodeId160::from_u64(n),
            Endpoint::new(ip(203, 0, 113, last), 6881),
        )
    }

    #[test]
    fn answers_ping_with_pong() {
        let mut p = peer();
        let (rid, rep) = remote(7, 7);
        let q = Packet::udp(
            rep,
            p.local_endpoint(),
            KrpcMessage::ping(b"aa", rid).encode(),
        );
        let out = p.handle_packet(&q).expect("a reply");
        let reply = KrpcMessage::decode(out.body.payload()).unwrap();
        assert_eq!(reply, KrpcMessage::pong(b"aa", p.id));
        assert_eq!(out.dst, rep);
        assert_eq!(p.queries_received, 1);
    }

    #[test]
    fn answers_find_node_with_closest() {
        let mut p = peer();
        // Preload the table.
        for n in 1..=20u64 {
            p.table.upsert(CompactNode::new(
                NodeId160::from_u64(n),
                Endpoint::new(ip(198, 51, 100, n as u8), 6881),
            ));
        }
        let (rid, rep) = remote(500, 9);
        let q = Packet::udp(
            rep,
            p.local_endpoint(),
            KrpcMessage::find_node(b"bb", rid, NodeId160::from_u64(5)).encode(),
        );
        let out = p.handle_packet(&q).expect("a reply");
        let reply = KrpcMessage::decode(out.body.payload()).unwrap();
        match reply {
            KrpcMessage::Response { nodes, .. } => {
                assert_eq!(nodes.len(), 8);
                // Closest to 5 is 5 itself (distance 0 is impossible —
                // the entry for 5 exists, distance 0 from target, fine).
                assert_eq!(nodes[0].id, NodeId160::from_u64(5));
            }
            other => panic!("expected nodes response, got {other:?}"),
        }
    }

    #[test]
    fn querier_is_validated_before_table_insertion() {
        let mut p = peer();
        let (rid, rep) = remote(7, 7);
        let q = Packet::udp(
            rep,
            p.local_endpoint(),
            KrpcMessage::ping(b"aa", rid).encode(),
        );
        p.handle_packet(&q);
        // Not yet in the table — only a candidate.
        assert_eq!(p.table.endpoint_of(rid), None);
        assert_eq!(p.pending_candidates(), 1);
        // Tick sends the validation ping.
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Outbox::new();
        p.tick(&mut rng, &mut out);
        assert!(!out.is_empty());
        let ping = KrpcMessage::decode(out[0].1.body.payload()).unwrap();
        let txn = ping.transaction().to_vec();
        assert!(matches!(
            ping,
            KrpcMessage::Query {
                kind: QueryKind::Ping,
                ..
            }
        ));
        // Pong arrives from the candidate endpoint → inserted.
        let pong = Packet::udp(
            rep,
            p.local_endpoint(),
            KrpcMessage::pong(&txn, rid).encode(),
        );
        p.handle_packet(&pong);
        assert_eq!(p.table.endpoint_of(rid), Some(rep));
        assert_eq!(p.contacts_validated, 1);
    }

    #[test]
    fn pong_from_wrong_endpoint_is_ignored() {
        let mut p = peer();
        let (rid, rep) = remote(7, 7);
        let q = Packet::udp(
            rep,
            p.local_endpoint(),
            KrpcMessage::ping(b"aa", rid).encode(),
        );
        p.handle_packet(&q);
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Outbox::new();
        p.tick(&mut rng, &mut out);
        let txn = KrpcMessage::decode(out[0].1.body.payload())
            .unwrap()
            .transaction()
            .to_vec();
        // Pong arrives from a *different* endpoint (spoof / symmetric NAT
        // port change): not validated.
        let wrong = Endpoint::new(ip(203, 0, 113, 99), 6881);
        let pong = Packet::udp(
            wrong,
            p.local_endpoint(),
            KrpcMessage::pong(&txn, rid).encode(),
        );
        p.handle_packet(&pong);
        assert_eq!(p.table.endpoint_of(rid), None);
    }

    #[test]
    fn violator_inserts_without_validation() {
        let mut p = DhtPeer::new(
            NodeId(0),
            ip(100, 64, 0, 10),
            6881,
            NodeId160::from_u64(1000),
            PeerConfig {
                validates_before_adding: false,
                ..PeerConfig::default()
            },
        );
        let (rid, rep) = remote(7, 7);
        let q = Packet::udp(
            rep,
            p.local_endpoint(),
            KrpcMessage::ping(b"aa", rid).encode(),
        );
        p.handle_packet(&q);
        assert_eq!(
            p.table.endpoint_of(rid),
            Some(rep),
            "violator stores immediately"
        );
    }

    #[test]
    fn nodes_from_responses_become_candidates_not_contacts() {
        let mut p = peer();
        let (rid, rep) = remote(7, 7);
        let nodes = vec![CompactNode::new(
            NodeId160::from_u64(55),
            Endpoint::new(ip(198, 51, 100, 55), 6881),
        )];
        // Unsolicited response (no pending txn): nothing enters the table;
        // both the contained node and the (unexpected) sender endpoint
        // become candidates.
        let resp = Packet::udp(
            rep,
            p.local_endpoint(),
            KrpcMessage::nodes_response(b"zz", rid, nodes).encode(),
        );
        p.handle_packet(&resp);
        assert_eq!(p.table.len(), 0);
        assert_eq!(p.pending_candidates(), 2);
    }

    #[test]
    fn lpd_roundtrip_and_learning() {
        let mut p = peer();
        let announcer = peer_with_port(51413);
        let payload = announcer.lpd_payload();
        assert_eq!(DhtPeer::parse_lpd(&payload), Some(51413));
        // Delivered via multicast to our LPD port.
        let pkt = Packet::udp(
            Endpoint::new(ip(100, 64, 0, 77), 51413),
            Endpoint::new(p.addr, LPD_PORT),
            payload,
        );
        p.handle_packet(&pkt);
        assert_eq!(
            p.pending_candidates(),
            1,
            "LPD source must become a candidate"
        );
    }

    fn peer_with_port(port: u16) -> DhtPeer {
        DhtPeer::new(
            NodeId(1),
            ip(100, 64, 0, 77),
            port,
            NodeId160::from_u64(2000),
            PeerConfig::default(),
        )
    }

    #[test]
    fn lpd_disabled_ignores_announcements() {
        let mut p = DhtPeer::new(
            NodeId(0),
            ip(100, 64, 0, 10),
            6881,
            NodeId160::from_u64(1000),
            PeerConfig {
                lpd_enabled: false,
                ..PeerConfig::default()
            },
        );
        let pkt = Packet::udp(
            Endpoint::new(ip(100, 64, 0, 77), 51413),
            Endpoint::new(p.addr, LPD_PORT),
            peer_with_port(51413).lpd_payload(),
        );
        p.handle_packet(&pkt);
        assert_eq!(p.pending_candidates(), 0);
    }

    #[test]
    fn garbage_and_foreign_packets_ignored() {
        let mut p = peer();
        let junk = Packet::udp(
            Endpoint::new(ip(9, 9, 9, 9), 1),
            p.local_endpoint(),
            b"not bencode".to_vec(),
        );
        assert!(p.handle_packet(&junk).is_none());
        // Wrong destination port.
        let other_port = Packet::udp(
            Endpoint::new(ip(9, 9, 9, 9), 1),
            Endpoint::new(p.addr, 9999),
            KrpcMessage::ping(b"aa", NodeId160::from_u64(1)).encode(),
        );
        assert!(p.handle_packet(&other_port).is_none());
        // TCP is not KRPC.
        let tcp = Packet::tcp(
            Endpoint::new(ip(9, 9, 9, 9), 1),
            p.local_endpoint(),
            netcore::TcpFlags::SYN,
            vec![],
        );
        assert!(p.handle_packet(&tcp).is_none());
    }

    #[test]
    fn own_endpoint_never_considered() {
        let mut p = peer();
        let own = p.local_endpoint();
        let q = Packet::udp(own, own, KrpcMessage::ping(b"aa", p.id).encode());
        p.handle_packet(&q);
        assert_eq!(p.pending_candidates(), 0);
    }

    /// Unanswered validation pings are forgotten at the next tick: the
    /// list never outgrows one tick's worth, and a pong that answers a
    /// previous round's ping validates nothing.
    #[test]
    fn unanswered_pings_are_forgotten_at_the_next_tick() {
        let mut p = peer();
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Outbox::new();
        let mut first_ping = None;
        for round in 0..100u64 {
            // Twelve new candidates a round, none of which ever answers.
            for n in 0..12 {
                let (rid, rep) = remote(round * 12 + n + 10, n as u8 + 1);
                let rep = Endpoint::new(rep.ip, 7000 + round as u16);
                let q = Packet::udp(
                    rep,
                    p.local_endpoint(),
                    KrpcMessage::ping(b"aa", rid).encode(),
                );
                p.handle_packet(&q);
            }
            out.clear();
            p.tick(&mut rng, &mut out);
            assert_eq!(out.len(), p.config.validations_per_tick);
            assert!(p.pending_pings.len() <= p.config.validations_per_tick);
            first_ping.get_or_insert_with(|| out[0].1.clone());
        }
        // The very first ping is answered now, from the right endpoint.
        let ping = first_ping.expect("round 0 pinged");
        let txn = KrpcMessage::decode(ping.body.payload())
            .unwrap()
            .transaction()
            .to_vec();
        let late = Packet::udp(
            ping.dst,
            p.local_endpoint(),
            KrpcMessage::pong(&txn, NodeId160::from_u64(10)).encode(),
        );
        p.handle_packet(&late);
        assert_eq!(p.contacts_validated, 0);
        assert!(p.table.is_empty());
    }

    /// `tick` draws its refresh contacts by index; the parent copied the
    /// table into a `Vec` and indexed that. Same draws, same packets,
    /// same RNG state afterwards.
    #[test]
    fn tick_draws_contacts_as_the_copied_table_did() {
        let mut p = peer();
        for n in 1..=40u64 {
            p.table.upsert(CompactNode::new(
                NodeId160::from_u64(n * 0x0101),
                Endpoint::new(ip(198, 51, 100, n as u8), 6881),
            ));
        }
        let contacts: Vec<CompactNode> = p.table.iter().copied().collect();
        for seed in 0..32 {
            let (mut rng, mut model) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut out = Outbox::new();
            p.tick(&mut rng, &mut out);
            assert_eq!(out.len(), 2);
            for (_, pkt) in &out {
                let c = contacts[model.gen_range(0..contacts.len())];
                let target = if model.gen_bool(0.5) {
                    p.id
                } else {
                    NodeId160::random(&mut model)
                };
                assert_eq!(pkt.dst, c.endpoint);
                let KrpcMessage::Query { target: sent, .. } =
                    KrpcMessage::decode(pkt.body.payload()).unwrap()
                else {
                    panic!("expected a query");
                };
                assert_eq!(sent, Some(target));
            }
            assert_eq!(rng.gen::<u64>(), model.gen::<u64>(), "RNG state diverged");
        }
    }

    #[test]
    fn tick_refreshes_via_known_contact() {
        let mut p = peer();
        p.table.upsert(CompactNode::new(
            NodeId160::from_u64(5),
            Endpoint::new(ip(198, 51, 100, 5), 6881),
        ));
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Outbox::new();
        p.tick(&mut rng, &mut out);
        assert_eq!(out.len(), 2, "two maintenance lookups per tick");
        for (origin, pkt) in &out {
            assert_eq!(*origin, p.sim_node);
            let msg = KrpcMessage::decode(pkt.body.payload()).unwrap();
            assert!(matches!(
                msg,
                KrpcMessage::Query {
                    kind: QueryKind::FindNode,
                    ..
                }
            ));
        }
    }
}
