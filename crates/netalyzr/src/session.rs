//! One full Netalyzr session.
//!
//! A "session" is one execution of the client test suite from a subscriber
//! device (§4.2, §6.2–6.5):
//!
//! * collect `IPdev` (the device address) and, where available via UPnP,
//!   `IPcpe` (the CPE router's WAN address);
//! * open **10 sequential TCP flows** to the echo server's high port and
//!   record the source endpoint the server observed per flow — the port
//!   translation and IP pooling oracle (Figs 8/9, Table 6);
//! * run the STUN classification (§6.5, Fig. 13);
//! * run the TTL-driven NAT enumeration (§6.3–6.4, Figs 11/12, Table 7).

use crate::servers::{EchoServer, MeasurementLab};
use crate::stun::{classify, StunOutcome};
use crate::ttl_enum::{run_ttl_enumeration, TtlEnumConfig, TtlEnumResult};
use netcore::{Endpoint, Packet, PacketBody, SimDuration, TcpFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{pump, Network, NodeId};
use std::net::Ipv4Addr;

/// How the client operating system picks ephemeral source ports — visible
/// in Fig. 8(a)'s "OS ephemeral ports" histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsPortPolicy {
    /// The OS ephemeral range, e.g. Linux `32768..=60999`.
    pub range: (u16, u16),
    /// Sequential (Linux-style counter) vs random-in-range selection.
    pub sequential: bool,
}

impl OsPortPolicy {
    /// Linux-style: sequential within `32768..=60999`.
    pub fn linux() -> OsPortPolicy {
        OsPortPolicy {
            range: (32_768, 60_999),
            sequential: true,
        }
    }

    /// Windows-style: random within `49152..=65535`.
    pub fn windows() -> OsPortPolicy {
        OsPortPolicy {
            range: (49_152, 65_535),
            sequential: false,
        }
    }

    /// Draw `n` source ports.
    pub fn draw(&self, n: usize, rng: &mut StdRng) -> Vec<u16> {
        let span = (self.range.1 - self.range.0) as u32 + 1;
        if self.sequential {
            let start = rng.gen_range(0..span);
            (0..n as u32)
                .map(|i| self.range.0 + ((start + i) % span) as u16)
                .collect()
        } else {
            (0..n)
                .map(|_| rng.gen_range(self.range.0..=self.range.1))
                .collect()
        }
    }
}

/// The client under test.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    pub node: NodeId,
    pub addr: Ipv4Addr,
    pub os_ports: OsPortPolicy,
    /// The CPE's WAN address if the CPE answers UPnP (None: no CPE or no
    /// UPnP). Netalyzr obtains this via an IGD `GetExternalIPAddress`
    /// call inside the home network; the topology provides it out of band.
    pub upnp_cpe_external: Option<Ipv4Addr>,
    /// Identifier of the CPE model as reported via UPnP (Fig. 8b groups
    /// port-preservation behaviour per model).
    pub upnp_model: Option<String>,
    pub run_stun: bool,
    pub run_ttl: bool,
    /// TCP flows in the port test (10 in the paper).
    pub port_flows: usize,
}

/// One TCP flow of the port test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortFlow {
    /// The ephemeral port the device chose.
    pub local_port: u16,
    /// The source endpoint the server observed (None: flow failed).
    pub observed: Option<Endpoint>,
}

/// The 10-flow port test outcome.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PortTestResult {
    pub flows: Vec<PortFlow>,
}

impl PortTestResult {
    /// Flows that completed.
    pub fn observed_flows(&self) -> impl Iterator<Item = (u16, Endpoint)> + '_ {
        self.flows
            .iter()
            .filter_map(|f| f.observed.map(|o| (f.local_port, o)))
    }

    /// Count of flows whose source port survived translation.
    pub fn preserved_count(&self) -> usize {
        self.observed_flows().filter(|(l, o)| *l == o.port).count()
    }

    /// Distinct public IPs observed across flows (IP pooling signal).
    pub fn distinct_public_ips(&self) -> Vec<Ipv4Addr> {
        let mut ips: Vec<Ipv4Addr> = self.observed_flows().map(|(_, o)| o.ip).collect();
        ips.sort();
        ips.dedup();
        ips
    }
}

/// Everything one session produces.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The device's local address (`IPdev`).
    pub ip_dev: Ipv4Addr,
    /// The CPE WAN address via UPnP (`IPcpe`), when available.
    pub ip_cpe: Option<Ipv4Addr>,
    /// The CPE model string via UPnP, when available.
    pub cpe_model: Option<String>,
    pub port_test: PortTestResult,
    pub stun: Option<StunOutcome>,
    pub ttl: Option<TtlEnumResult>,
}

impl SessionReport {
    /// The session's primary public address (`IPpub`): the first observed
    /// flow source.
    pub fn ip_pub(&self) -> Option<Ipv4Addr> {
        self.port_test.observed_flows().next().map(|(_, o)| o.ip)
    }

    /// Whether multiple public addresses appeared within the session
    /// (arbitrary pooling indicator, §6.2).
    pub fn saw_multiple_public_ips(&self) -> bool {
        self.port_test.distinct_public_ips().len() > 1
    }
}

/// Run one TCP flow: handshake, `WHOAMI`, collect the `ADDR` report.
fn run_tcp_flow(
    net: &mut Network,
    lab: &MeasurementLab,
    client_node: NodeId,
    local: Endpoint,
) -> Option<Endpoint> {
    let dst = lab.echo.tcp_endpoint();
    let mut observed = None;
    pump(
        net,
        &mut vec![(client_node, Packet::tcp(local, dst, TcpFlags::SYN, vec![]))],
        |node, pkt, out| {
            if node != client_node {
                return lab.dispatch(node, pkt, out);
            }
            if let PacketBody::Tcp { flags, payload } = &pkt.body {
                if flags.syn && flags.ack {
                    let whoami = Packet::tcp(local, dst, TcpFlags::ACK, b"WHOAMI".to_vec());
                    out.push((client_node, whoami));
                } else if let Some(ep) = EchoServer::parse_addr_reply(payload) {
                    observed = Some(ep);
                    // Close politely.
                    out.push((client_node, Packet::tcp(local, dst, TcpFlags::FIN, vec![])));
                }
            }
        },
        1_000,
    );
    observed
}

/// Execute the full test suite for one client.
pub fn run_session(
    net: &mut Network,
    lab: &MeasurementLab,
    spec: &ClientSpec,
    seed: u64,
) -> SessionReport {
    let mut rng = StdRng::seed_from_u64(seed);

    // --- Port test: sequential TCP flows. ---
    let ports = spec.os_ports.draw(spec.port_flows, &mut rng);
    let mut flows = Vec::with_capacity(ports.len());
    for p in ports {
        let observed = run_tcp_flow(net, lab, spec.node, Endpoint::new(spec.addr, p));
        flows.push(PortFlow {
            local_port: p,
            observed,
        });
        // Flows are sequential, not simultaneous: a short pause between
        // them (keeps NAT state realistic without expiring anything).
        net.advance(SimDuration::from_millis(500));
    }
    let port_test = PortTestResult { flows };

    // --- STUN classification. ---
    let stun = if spec.run_stun {
        let sport = spec.os_ports.draw(1, &mut rng)[0];
        Some(classify(
            net,
            &lab.stun,
            spec.node,
            Endpoint::new(spec.addr, sport),
        ))
    } else {
        None
    };

    // --- TTL-driven NAT enumeration. ---
    let ttl = if spec.run_ttl {
        let tport = spec.os_ports.draw(1, &mut rng)[0];
        Some(run_ttl_enumeration(
            net,
            lab,
            spec.node,
            Endpoint::new(spec.addr, tport),
            &TtlEnumConfig::default(),
        ))
    } else {
        None
    };

    SessionReport {
        ip_dev: spec.addr,
        ip_cpe: spec.upnp_cpe_external,
        cpe_model: spec.upnp_model.clone(),
        port_test,
        stun,
        ttl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nat_engine::{NatConfig, PortAllocation};
    use netcore::ip;
    use simnet::RealmId;

    fn spec(node: NodeId, addr: Ipv4Addr) -> ClientSpec {
        ClientSpec {
            node,
            addr,
            os_ports: OsPortPolicy::linux(),
            upnp_cpe_external: None,
            upnp_model: None,
            run_stun: true,
            run_ttl: false,
            port_flows: 10,
        }
    }

    #[test]
    fn os_port_policies() {
        let mut rng = StdRng::seed_from_u64(1);
        let seq = OsPortPolicy::linux().draw(10, &mut rng);
        for w in seq.windows(2) {
            // Sequential modulo wrap.
            assert!(w[1] == w[0] + 1 || w[1] == 32_768);
        }
        for p in &seq {
            assert!((32_768..=60_999).contains(p));
        }
        let rnd = OsPortPolicy::windows().draw(100, &mut rng);
        for p in &rnd {
            assert!((49_152..=65_535).contains(p));
        }
    }

    #[test]
    fn public_client_session() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let c = net.add_host(RealmId::PUBLIC, ip(198, 51, 100, 9), vec![]);
        let report = run_session(&mut net, &lab, &spec(c, ip(198, 51, 100, 9)), 42);
        assert_eq!(report.port_test.flows.len(), 10);
        assert_eq!(
            report.port_test.preserved_count(),
            10,
            "no NAT, all ports preserved"
        );
        assert_eq!(report.ip_pub(), Some(ip(198, 51, 100, 9)));
        assert!(!report.saw_multiple_public_ips());
        assert_eq!(
            report.stun.unwrap().class,
            crate::stun::StunClass::OpenInternet
        );
    }

    #[test]
    fn cgn_client_sees_translated_ports_full_space() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let mut cfg = NatConfig::cgn_default();
        cfg.port_alloc = PortAllocation::Random;
        let (_, realm) = net.add_nat(
            cfg,
            vec![ip(198, 51, 100, 1)],
            RealmId::PUBLIC,
            vec![],
            ip(100, 64, 0, 1),
            false,
            3,
        );
        let c = net.add_host(realm, ip(100, 64, 0, 20), vec![]);
        let report = run_session(&mut net, &lab, &spec(c, ip(100, 64, 0, 20)), 42);
        assert_eq!(report.ip_pub(), Some(ip(198, 51, 100, 1)));
        // Random allocation: virtually no flow keeps its port.
        assert!(report.port_test.preserved_count() <= 1);
        assert!(!report.saw_multiple_public_ips(), "paired pooling");
    }

    #[test]
    fn arbitrary_pooling_detected() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let mut cfg = NatConfig::cgn_default();
        cfg.pooling = nat_engine::Pooling::Arbitrary;
        cfg.mapping = nat_engine::MappingBehavior::AddressAndPortDependent;
        let (_, realm) = net.add_nat(
            cfg,
            vec![
                ip(198, 51, 100, 1),
                ip(198, 51, 100, 2),
                ip(198, 51, 100, 3),
                ip(198, 51, 100, 4),
            ],
            RealmId::PUBLIC,
            vec![],
            ip(100, 64, 0, 1),
            false,
            3,
        );
        let c = net.add_host(realm, ip(100, 64, 0, 20), vec![]);
        let report = run_session(&mut net, &lab, &spec(c, ip(100, 64, 0, 20)), 42);
        assert!(
            report.saw_multiple_public_ips(),
            "arbitrary pooling should surface multiple public IPs: {:?}",
            report.port_test.distinct_public_ips()
        );
    }

    #[test]
    fn preserving_cpe_keeps_ports() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let (_, home) = net.add_nat(
            NatConfig::home_cpe(),
            vec![ip(198, 51, 100, 77)],
            RealmId::PUBLIC,
            vec![],
            ip(192, 168, 1, 1),
            true,
            3,
        );
        let c = net.add_host(home, ip(192, 168, 1, 100), vec![]);
        let mut s = spec(c, ip(192, 168, 1, 100));
        s.upnp_cpe_external = Some(ip(198, 51, 100, 77));
        s.upnp_model = Some("AcmeRouter 3000".into());
        let report = run_session(&mut net, &lab, &s, 42);
        assert_eq!(
            report.port_test.preserved_count(),
            10,
            "CPE preserves ports"
        );
        assert_eq!(report.ip_cpe, Some(ip(198, 51, 100, 77)));
        assert_eq!(report.ip_pub(), Some(ip(198, 51, 100, 77)));
    }

    #[test]
    fn session_deterministic_for_seed() {
        let run = |seed| {
            let mut net = Network::new();
            let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
            let c = net.add_host(RealmId::PUBLIC, ip(198, 51, 100, 9), vec![]);
            let r = run_session(&mut net, &lab, &spec(c, ip(198, 51, 100, 9)), seed);
            r.port_test
                .flows
                .iter()
                .map(|f| f.local_port)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
