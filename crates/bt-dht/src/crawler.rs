//! The paper's BitTorrent DHT crawler (§4.1).
//!
//! The crawler is a public host that walks the DHT: starting from the
//! bootstrap server it issues batches of `find_nodes` queries with random
//! targets, learns contact information — `(IP:port, nodeid)` tuples — and
//! records *internal address leakage*: contacts whose IP lies in a reserved
//! range (Table 1). When a peer leaks internal contacts, the crawler issues
//! follow-up batches "for as long as we continue to harvest internal
//! peers". It finally `bt_ping`s every learned peer to measure
//! responsiveness (the Table 2 "responded" row).

use crate::krpc::{CompactNode, KrpcMessage};
use crate::node_id::NodeId160;
use crate::world::DhtWorld;
use netcore::{classify_reserved, Endpoint, MixMap, MixSet, Packet, PacketBody, ReservedRange};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::{pump, Network, NodeId, Outbox};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Crawl parameters, mirroring §4.1.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Queries per newly discovered peer ("We issue five queries").
    pub initial_queries_per_peer: usize,
    /// Follow-up batch size on internal-peer discovery ("batches of ten").
    pub leak_followup_queries: usize,
    /// Maximum follow-up batches per peer (the paper continues while new
    /// internal peers appear; this bounds pathological cases).
    pub max_followup_batches: usize,
    /// Upper bound on distinct peers to query.
    pub max_peers: usize,
    /// Whether to `bt_ping` learned peers afterwards.
    pub ping_learned: bool,
    pub max_pump_steps: usize,
    pub seed: u64,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            initial_queries_per_peer: 5,
            leak_followup_queries: 10,
            max_followup_batches: 8,
            max_peers: 1_000_000,
            ping_learned: true,
            max_pump_steps: 1_000_000,
            seed: 0xC4A11,
        }
    }
}

/// One observed leak edge: `leaker` (queried at a routable endpoint)
/// reported `internal` (a contact with a reserved address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LeakRecord {
    /// The endpoint the crawler queried.
    pub leaker_endpoint: Endpoint,
    /// The responder's node ID.
    pub leaker_id: NodeId160,
    /// The leaked internal contact.
    pub internal: CompactNode,
    /// Which reserved range the internal address falls in.
    pub range: ReservedRange,
}

/// The raw dataset a crawl produces (the input to Tables 2/3 and Figs 3/4).
///
/// The sets hash deterministically ([`netcore::hash`]), so iterating
/// them — as the crawl's own final ping pass does — visits the same
/// order in every process.
#[derive(Debug, Default, Clone)]
pub struct CrawlReport {
    /// Peers that were sent queries and answered at least once
    /// (Table 2 "Queried").
    pub queried: MixSet<(Endpoint, NodeId160)>,
    /// Peers that were queried but never answered.
    pub unresponsive: MixSet<Endpoint>,
    /// Every learned peer tuple (Table 2 "Learned").
    pub learned: MixSet<(Endpoint, NodeId160)>,
    /// Learned-tuple multiplicity (a peer can be reported many times).
    pub learned_records: u64,
    /// All leak edges.
    pub leaks: Vec<LeakRecord>,
    /// Peers that answered the final `bt_ping`.
    pub ping_responders: MixSet<(Endpoint, NodeId160)>,
    /// find_nodes queries sent.
    pub queries_sent: u64,
}

impl CrawlReport {
    pub fn queried_unique_ips(&self) -> usize {
        self.queried
            .iter()
            .map(|(e, _)| e.ip)
            .collect::<MixSet<_>>()
            .len()
    }

    pub fn learned_unique_ips(&self) -> usize {
        self.learned
            .iter()
            .map(|(e, _)| e.ip)
            .collect::<MixSet<_>>()
            .len()
    }

    /// Per reserved range, the distinct peers `peer` picks out of the leak
    /// records: (total tuples, unique IPs).
    fn peers_by_range(
        &self,
        peer: impl Fn(&LeakRecord) -> (Endpoint, NodeId160),
    ) -> MixMap<ReservedRange, (usize, usize)> {
        type Seen = (MixSet<(Endpoint, NodeId160)>, MixSet<Ipv4Addr>);
        let mut seen: MixMap<ReservedRange, Seen> = ReservedRange::ALL
            .into_iter()
            .map(|r| (r, Seen::default()))
            .collect();
        for l in &self.leaks {
            let (endpoint, id) = peer(l);
            let (tuples, ips) = seen.entry(l.range).or_default();
            tuples.insert((endpoint, id));
            ips.insert(endpoint.ip);
        }
        seen.into_iter()
            .map(|(r, (tuples, ips))| (r, (tuples.len(), ips.len())))
            .collect()
    }

    /// Internal peers per reserved range: (total tuples, unique IPs) —
    /// the left half of Table 3.
    pub fn internal_peers_by_range(&self) -> MixMap<ReservedRange, (usize, usize)> {
        self.peers_by_range(|l| (l.internal.endpoint, l.internal.id))
    }

    /// Leaking peers per reserved range: (total tuples, unique IPs) — the
    /// right half of Table 3.
    pub fn leaking_peers_by_range(&self) -> MixMap<ReservedRange, (usize, usize)> {
        self.peers_by_range(|l| (l.leaker_endpoint, l.leaker_id))
    }
}

/// The crawler host.
#[derive(Debug)]
pub struct Crawler {
    pub sim_node: NodeId,
    pub endpoint: Endpoint,
    pub id: NodeId160,
    config: CrawlConfig,
    rng: StdRng,
    next_txn: u64,
}

impl Crawler {
    pub fn new(sim_node: NodeId, addr: Ipv4Addr, config: CrawlConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        Crawler {
            sim_node,
            endpoint: Endpoint::new(addr, 64_000),
            id: NodeId160::random(&mut rng),
            config,
            rng,
            next_txn: 0,
        }
    }

    fn txn(&mut self) -> [u8; 8] {
        let t = self.next_txn;
        self.next_txn += 1;
        t.to_be_bytes()
    }

    /// Pump `outbox` through the DHT: every packet that reaches the
    /// crawler's socket and decodes as KRPC goes to `on_message`,
    /// everything else to the world it is addressed to.
    fn exchange(
        &self,
        net: &mut Network,
        world: &mut DhtWorld,
        outbox: &mut Outbox,
        mut on_message: impl FnMut(KrpcMessage<'_>),
    ) {
        pump(
            net,
            outbox,
            |node, pkt, out| {
                if node != self.sim_node {
                    return world.dispatch(node, pkt, out);
                }
                if let PacketBody::Udp { payload } = &pkt.body {
                    if pkt.dst.port == self.endpoint.port {
                        if let Ok(m) = KrpcMessage::decode(payload) {
                            on_message(m);
                        }
                    }
                }
            },
            self.config.max_pump_steps,
        );
    }

    /// Send a batch of `find_nodes` queries (random targets) to `target`,
    /// pump the exchange, and harvest the responses addressed to us as
    /// they arrive. Returns the last responder's id (`None`: nobody
    /// answered) and how many internal contacts the batch reported.
    fn query_batch(
        &mut self,
        net: &mut Network,
        world: &mut DhtWorld,
        target: Endpoint,
        count: usize,
        crawl: &mut Crawl,
        outbox: &mut Outbox,
    ) -> (Option<NodeId160>, usize) {
        for _ in 0..count {
            let t = self.txn();
            let q = KrpcMessage::find_node(&t, self.id, NodeId160::random(&mut self.rng));
            let pkt = Packet::udp(self.endpoint, target, q.encode());
            outbox.push((self.sim_node, pkt));
            crawl.report.queries_sent += 1;
        }
        let mut responder = None;
        let mut internal_found = 0;
        self.exchange(net, world, outbox, |m| {
            if let KrpcMessage::Response { sender, nodes, .. } = m {
                responder = Some(sender);
                internal_found += crawl.harvest(target, sender, &nodes);
            }
        });
        (responder, internal_found)
    }

    /// Run a full crawl. `world` keeps answering queries while the crawl
    /// walks it (its peers are the DHT).
    pub fn crawl(&mut self, net: &mut Network, world: &mut DhtWorld) -> CrawlReport {
        let mut crawl = Crawl::default();
        // One outbox for every exchange of the crawl.
        let mut outbox = Outbox::new();
        crawl.frontier.push_back(world.bootstrap.endpoint);
        crawl.enqueued.insert(world.bootstrap.endpoint);

        let mut queried_count = 0usize;
        while let Some(target) = crawl.frontier.pop_front() {
            if queried_count >= self.config.max_peers {
                break;
            }
            queried_count += 1;
            let n_queries = self.config.initial_queries_per_peer;
            let (responder, mut internal) =
                self.query_batch(net, world, target, n_queries, &mut crawl, &mut outbox);
            let Some(responder) = responder else {
                crawl.report.unresponsive.insert(target);
                continue;
            };
            crawl.report.queried.insert((target, responder));

            // Leak follow-up: keep issuing batches of ten while new
            // internal peers appear.
            let mut batches = 0;
            while internal > 0 && batches < self.config.max_followup_batches {
                batches += 1;
                let n_queries = self.config.leak_followup_queries;
                (_, internal) =
                    self.query_batch(net, world, target, n_queries, &mut crawl, &mut outbox);
            }
        }

        // Responsiveness: bt_ping every learned, routable peer once.
        let mut report = crawl.report;
        if self.config.ping_learned {
            let routable = |(e, _): &&(Endpoint, NodeId160)| classify_reserved(e.ip).is_none();
            for &(ep, id) in report.learned.iter().filter(routable) {
                let t = self.txn();
                let ping = KrpcMessage::ping(&t, self.id).encode();
                outbox.push((self.sim_node, Packet::udp(self.endpoint, ep, ping)));
                let mut got_pong = false;
                self.exchange(net, world, &mut outbox, |m| {
                    got_pong |= matches!(m, KrpcMessage::Response { .. });
                });
                if got_pong {
                    report.ping_responders.insert((ep, id));
                }
            }
        }

        report
    }
}

/// The state of a crawl in progress.
#[derive(Default)]
struct Crawl {
    report: CrawlReport,
    /// Routable endpoints learned and not yet queried, in learning order.
    frontier: VecDeque<Endpoint>,
    /// Every endpoint that ever entered the frontier.
    enqueued: MixSet<Endpoint>,
}

impl Crawl {
    /// Record learned nodes from a response; returns the number of
    /// internal contacts among them.
    fn harvest(
        &mut self,
        queried_ep: Endpoint,
        responder: NodeId160,
        nodes: &[CompactNode],
    ) -> usize {
        let mut internal_found = 0;
        for n in nodes {
            self.report.learned_records += 1;
            self.report.learned.insert((n.endpoint, n.id));
            match classify_reserved(n.endpoint.ip) {
                Some(range) => {
                    internal_found += 1;
                    self.report.leaks.push(LeakRecord {
                        leaker_endpoint: queried_ep,
                        leaker_id: responder,
                        internal: *n,
                        range,
                    });
                }
                None => {
                    // Routable contacts join the crawl frontier.
                    if self.enqueued.insert(n.endpoint) {
                        self.frontier.push_back(n.endpoint);
                    }
                }
            }
        }
        internal_found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::PeerConfig;
    use crate::world::WorldConfig;
    use nat_engine::{FilteringBehavior, NatConfig};
    use netcore::ip;
    use simnet::RealmId;

    /// Build a small world: 6 public peers, plus 4 peers behind one
    /// full-cone CGN with multicast (so internal endpoints circulate).
    fn build() -> (Network, DhtWorld) {
        let mut net = Network::new();
        let bs = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 1), vec![]);
        let mut world = DhtWorld::new(WorldConfig::default(), bs, ip(203, 0, 113, 1));
        for i in 0..6u8 {
            let a = ip(198, 51, 100, 10 + i);
            let h = net.add_host(RealmId::PUBLIC, a, vec![]);
            world.add_peer(h, a, PeerConfig::default());
        }
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        let (_, realm) = net.add_nat(
            cfg,
            vec![ip(198, 51, 100, 1), ip(198, 51, 100, 2)],
            RealmId::PUBLIC,
            vec![ip(198, 19, 0, 1)],
            ip(100, 64, 0, 1),
            true,
            9,
        );
        for i in 0..4u8 {
            let a = ip(100, 64, 0, 10 + i);
            let h = net.add_host(realm, a, vec![]);
            world.add_peer(h, a, PeerConfig::default());
        }
        world.run(&mut net);
        (net, world)
    }

    #[test]
    fn crawl_learns_and_detects_leakage() {
        let (mut net, mut world) = build();
        let cnode = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 100), vec![]);
        let mut crawler = Crawler::new(cnode, ip(203, 0, 113, 100), CrawlConfig::default());
        let report = crawler.crawl(&mut net, &mut world);

        assert!(report.queries_sent > 0);
        assert!(!report.queried.is_empty(), "crawler must reach peers");
        assert!(report.learned.len() >= 6, "most peers should be learned");
        // The CGN peers know each other internally (LPD) and answer the
        // crawler (full cone): internal 100X leakage must be observed.
        assert!(
            report.leaks.iter().any(|l| l.range == ReservedRange::R100),
            "expected 100X leakage, got {:?}",
            report.leaks
        );
        // Leakers are observed at CGN pool addresses.
        for l in &report.leaks {
            assert!(
                l.leaker_endpoint.ip == ip(198, 51, 100, 1)
                    || l.leaker_endpoint.ip == ip(198, 51, 100, 2),
                "leaker must be seen at a pool address, got {}",
                l.leaker_endpoint
            );
        }
        // Table 3 accessors agree with the raw leak list.
        let by_range = report.internal_peers_by_range();
        assert!(by_range[&ReservedRange::R100].0 > 0);
        assert_eq!(by_range[&ReservedRange::R192].0, 0);
    }

    #[test]
    fn ping_responders_subset_of_learned() {
        let (mut net, mut world) = build();
        let cnode = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 100), vec![]);
        let mut crawler = Crawler::new(cnode, ip(203, 0, 113, 100), CrawlConfig::default());
        let report = crawler.crawl(&mut net, &mut world);
        assert!(!report.ping_responders.is_empty());
        for r in &report.ping_responders {
            assert!(report.learned.contains(r));
        }
        // Public peers respond to pings; so the responder count is at
        // least the public peer count.
        assert!(report.ping_responders.len() >= 6);
    }

    #[test]
    fn max_peers_bound_respected() {
        let (mut net, mut world) = build();
        let cnode = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 100), vec![]);
        let mut crawler = Crawler::new(
            cnode,
            ip(203, 0, 113, 100),
            CrawlConfig {
                max_peers: 2,
                ping_learned: false,
                ..CrawlConfig::default()
            },
        );
        let report = crawler.crawl(&mut net, &mut world);
        let attempted = report.queried.len() + report.unresponsive.len();
        assert!(attempted <= 2, "attempted {attempted} > max_peers");
    }

    #[test]
    fn crawl_is_deterministic() {
        let run = || {
            let (mut net, mut world) = build();
            let cnode = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 100), vec![]);
            let mut crawler = Crawler::new(cnode, ip(203, 0, 113, 100), CrawlConfig::default());
            let r = crawler.crawl(&mut net, &mut world);
            (
                r.queried.len(),
                r.learned.len(),
                r.leaks.len(),
                r.queries_sent,
            )
        };
        assert_eq!(run(), run());
    }
}
