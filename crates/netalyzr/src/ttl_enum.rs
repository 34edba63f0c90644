//! TTL-driven NAT enumeration — the reachability experiment of Fig. 10.
//!
//! The test localizes stateful middleboxes on the client–server path and
//! bounds their mapping timeouts:
//!
//! 1. the client opens a UDP flow to the echo server (stage *a*), learning
//!    its externally visible endpoint;
//! 2. for an idle period `tidle`, both endpoints send **TTL-limited
//!    keepalives** every 10 s (stage *b*): the client's die at the hop
//!    under test `j` (refreshing hops `1..j-1`), the server's die at `j`
//!    from the other side (refreshing hops `j+1..m`) — so every hop
//!    *except* `j` sees traffic;
//! 3. after `tidle`, the server sends a full-TTL probe to the client's
//!    external endpoint (stage *c*). If it no longer arrives, hop `j` is a
//!    stateful middlebox whose mapping expired: `timeout ≤ tidle`.
//!
//! Sweeping `j` over the path localizes every NAT no further than 200 s of
//! idle time can reveal (the paper's crowdsourced-runtime bound); a binary
//! search over `tidle` then brackets each NAT's timeout to 10 s.

use crate::servers::MeasurementLab;
use netcore::{Endpoint, Packet, PacketBody, SimDuration};
use simnet::{pump, Network, NodeId};

/// Test parameters (paper defaults).
#[derive(Debug, Clone)]
pub struct TtlEnumConfig {
    /// Keepalive interval — the measurement granularity (10 s).
    pub probe_interval: SimDuration,
    /// Maximum idle time tested (200 s: "the maximum possible value
    /// without prolonging the overall runtime").
    pub max_idle: SimDuration,
    /// Cap on the number of hops enumerated.
    pub max_hops: usize,
}

impl Default for TtlEnumConfig {
    fn default() -> Self {
        TtlEnumConfig {
            probe_interval: SimDuration::from_secs(10),
            max_idle: SimDuration::from_secs(200),
            max_hops: 20,
        }
    }
}

/// A stateful middlebox found on the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedNat {
    /// 1-based hop index from the client.
    pub hop: usize,
    /// Largest tested idle time the mapping survived (lower bound,
    /// exclusive). Zero when even the shortest idle expired it.
    pub timeout_gt: SimDuration,
    /// Smallest tested idle time at which the mapping was gone (inclusive
    /// upper bound).
    pub timeout_le: SimDuration,
}

impl DetectedNat {
    /// Midpoint estimate of the timeout, in seconds.
    pub fn timeout_estimate_secs(&self) -> u64 {
        (self.timeout_gt.as_secs() + self.timeout_le.as_secs()) / 2
    }
}

/// Result of the enumeration for one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TtlEnumResult {
    /// Whether the baseline UDP exchange worked at all.
    pub udp_reachable: bool,
    /// Number of middle hops between client and server (traceroute count).
    pub path_len: usize,
    /// The client's endpoint as the server saw it.
    pub observed_public: Option<Endpoint>,
    /// Whether the observed address differs from the device address.
    pub ip_mismatch: bool,
    /// Stateful middleboxes found, ordered by hop.
    pub detected: Vec<DetectedNat>,
}

impl TtlEnumResult {
    /// Hop distance of the most distant middlebox (Fig. 11).
    pub fn most_distant_nat(&self) -> Option<usize> {
        self.detected.last().map(|d| d.hop)
    }
}

/// State shared by the driver: the client under test.
struct Ctx<'a> {
    net: &'a mut Network,
    lab: &'a MeasurementLab,
    client_node: NodeId,
}

impl Ctx<'_> {
    /// Send `pkt` from the client, pump the lab's replies, and return the
    /// payloads delivered back to the client.
    fn client_exchange(&mut self, pkt: Packet) -> Vec<Packet> {
        let mut received = Vec::new();
        let client = self.client_node;
        let lab = self.lab;
        pump(
            self.net,
            &mut vec![(client, pkt)],
            |node, p, out| {
                if node == client {
                    received.push(p.clone());
                } else {
                    lab.dispatch(node, p, out)
                }
            },
            10_000,
        );
        received
    }

    /// Send `pkt` from the echo server; report whether anything reached
    /// the client.
    fn server_send(&mut self, pkt: Packet) -> bool {
        let mut reached = false;
        let client = self.client_node;
        let lab = self.lab;
        pump(
            self.net,
            &mut vec![(lab.echo.node, pkt)],
            |node, p, out| {
                if node == client {
                    if matches!(p.body, PacketBody::Udp { .. }) {
                        reached = true;
                    }
                } else {
                    lab.dispatch(node, p, out)
                }
            },
            10_000,
        );
        reached
    }
}

/// Run the full enumeration for a client socket at `client_ep`.
///
/// `port_base` seeds the client-side ephemeral ports; every reachability
/// experiment uses a fresh flow (fresh port) as the paper's test does.
pub fn run_ttl_enumeration(
    net: &mut Network,
    lab: &MeasurementLab,
    client_node: NodeId,
    client_ep: Endpoint,
    config: &TtlEnumConfig,
) -> TtlEnumResult {
    let mut ctx = Ctx {
        net,
        lab,
        client_node,
    };
    let udp_dst = lab.echo.udp_endpoint();

    // Baseline: does a plain exchange work, and what does the server see?
    let observed_public = ping_observed(&mut ctx, client_ep, udp_dst);
    let Some(observed_public) = observed_public else {
        return TtlEnumResult {
            udp_reachable: false,
            path_len: 0,
            observed_public: None,
            ip_mismatch: false,
            detected: Vec::new(),
        };
    };
    let ip_mismatch = observed_public.ip != client_ep.ip;

    // Traceroute: find the path length m (packets with TTL t die at hop t;
    // the first TTL whose PING is answered is m + 1).
    let mut path_len = 0;
    for t in 1..=config.max_hops as u8 {
        let probe = Packet::udp(
            Endpoint::new(client_ep.ip, 19_000 + (client_ep.port % 512) + t as u16),
            udp_dst,
            b"PING".to_vec(),
        )
        .with_ttl(t);
        let replies = ctx.client_exchange(probe);
        let answered = replies.iter().any(
            |p| matches!(&p.body, PacketBody::Udp { payload } if payload.starts_with(b"PONG")),
        );
        if answered {
            path_len = (t - 1) as usize;
            break;
        }
    }
    if path_len == 0 {
        // Path longer than max_hops — give up on enumeration.
        return TtlEnumResult {
            udp_reachable: true,
            path_len: 0,
            observed_public: Some(observed_public),
            ip_mismatch,
            detected: Vec::new(),
        };
    }

    // Localize stateful hops at the maximum idle time, then bracket each
    // timeout by binary search over multiples of the probe interval.
    // Fresh flows draw from a private counter folded into a safe port
    // band so high OS ephemeral ports cannot overflow.
    let mut flow_counter: u32 = client_ep.port as u32;
    let mut fresh_port = move || {
        flow_counter += 1;
        20_000 + (flow_counter.wrapping_mul(7919) % 40_000) as u16
    };
    let mut detected = Vec::new();
    for hop in 1..=path_len {
        let port_seq = fresh_port();
        let expired = reachability_experiment(
            &mut ctx,
            Endpoint::new(client_ep.ip, port_seq),
            udp_dst,
            hop,
            path_len,
            config.max_idle,
            config.probe_interval,
        );
        let Some(true) = expired else { continue };

        // Mapping expired within max_idle: bracket the timeout.
        let steps = config.max_idle.as_millis() / config.probe_interval.as_millis();
        let (mut lo, mut hi) = (0u64, steps); // timeout in (lo, hi] steps
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let port_seq = fresh_port();
            let tidle = SimDuration::from_millis(mid * config.probe_interval.as_millis());
            match reachability_experiment(
                &mut ctx,
                Endpoint::new(client_ep.ip, port_seq),
                udp_dst,
                hop,
                path_len,
                tidle,
                config.probe_interval,
            ) {
                Some(true) => hi = mid,
                Some(false) => lo = mid,
                None => break, // flow setup failed; keep current bracket
            }
        }
        detected.push(DetectedNat {
            hop,
            timeout_gt: SimDuration::from_millis(lo * config.probe_interval.as_millis()),
            timeout_le: SimDuration::from_millis(hi * config.probe_interval.as_millis()),
        });
    }

    TtlEnumResult {
        udp_reachable: true,
        path_len,
        observed_public: Some(observed_public),
        ip_mismatch,
        detected,
    }
}

/// Stage (a) helper: one PING exchange; returns the server-observed source.
fn ping_observed(ctx: &mut Ctx<'_>, client_ep: Endpoint, udp_dst: Endpoint) -> Option<Endpoint> {
    let replies = ctx.client_exchange(Packet::udp(client_ep, udp_dst, b"PING".to_vec()));
    replies.iter().find_map(|p| match &p.body {
        PacketBody::Udp { payload } if payload.starts_with(b"PONG ADDR ") => {
            crate::servers::EchoServer::parse_addr_reply(&payload[5..])
        }
        _ => None,
    })
}

/// One reachability experiment (Fig. 10) for `hop` with idle time `tidle`.
///
/// Returns `Some(true)` if the hop's state expired (server probe failed),
/// `Some(false)` if the probe still got through, `None` if the flow could
/// not even be established.
fn reachability_experiment(
    ctx: &mut Ctx<'_>,
    flow_ep: Endpoint,
    udp_dst: Endpoint,
    hop: usize,
    path_len: usize,
    tidle: SimDuration,
    probe_interval: SimDuration,
) -> Option<bool> {
    // (a) Initialization: open the flow and learn its external endpoint.
    let ext = ping_observed(ctx, flow_ep, udp_dst)?;

    // (b) Idle with TTL-limited keepalives. Client TTL = hop (dies at the
    // hop under test, refreshing everything before it); server TTL =
    // path_len + 1 - hop (dies there from the other side).
    let client_ttl = hop as u8;
    let server_ttl = (path_len + 1 - hop) as u8;
    let mut elapsed = SimDuration::ZERO;
    while elapsed < tidle {
        let step = if tidle - elapsed < probe_interval {
            tidle - elapsed
        } else {
            probe_interval
        };
        ctx.net.advance(step);
        elapsed = elapsed + step;
        if elapsed >= tidle {
            break; // the final interval ends with the probe, not keepalives
        }
        let ka_c = Packet::udp(flow_ep, udp_dst, b"KA".to_vec()).with_ttl(client_ttl);
        let _ = ctx.client_exchange(ka_c);
        let ka_s = Packet::udp(udp_dst, ext, b"KA".to_vec()).with_ttl(server_ttl);
        let _ = ctx.server_send(ka_s);
    }

    // (c) The server probes the client's external endpoint.
    let probe = Packet::udp(udp_dst, ext, b"PROBE".to_vec());
    Some(!ctx.server_send(probe))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nat_engine::NatConfig;
    use netcore::{ip, SimDuration};
    use simnet::RealmId;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// Public client: reachable, no mismatch, no NATs found.
    #[test]
    fn public_client_clean_path() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let c = net.add_host(
            RealmId::PUBLIC,
            ip(198, 51, 100, 9),
            vec![ip(198, 19, 0, 1)],
        );
        let r = run_ttl_enumeration(
            &mut net,
            &lab,
            c,
            Endpoint::new(ip(198, 51, 100, 9), 40000),
            &TtlEnumConfig::default(),
        );
        assert!(r.udp_reachable);
        assert!(!r.ip_mismatch);
        // Path: client router + server core router = 2 middle hops.
        assert_eq!(r.path_len, 2);
        assert!(r.detected.is_empty());
    }

    /// Single CGN at a known hop with a known timeout: found and bracketed.
    #[test]
    fn cgn_localized_and_timeout_bracketed() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let mut cfg = NatConfig::cgn_default();
        cfg.udp_timeout = secs(65);
        let (_, realm) = net.add_nat(
            cfg,
            vec![ip(198, 51, 100, 1)],
            RealmId::PUBLIC,
            vec![ip(198, 19, 2, 1)],
            ip(100, 64, 0, 1),
            false,
            7,
        );
        // Device two aggregation routers from the CGN: CGN is hop 3.
        let c = net.add_host(
            realm,
            ip(100, 64, 0, 20),
            vec![ip(100, 64, 255, 1), ip(100, 64, 255, 2)],
        );
        let r = run_ttl_enumeration(
            &mut net,
            &lab,
            c,
            Endpoint::new(ip(100, 64, 0, 20), 40000),
            &TtlEnumConfig::default(),
        );
        assert!(r.udp_reachable);
        assert!(r.ip_mismatch);
        // Path: r1, r2, CGN, ext router, server core router = 5 hops.
        assert_eq!(r.path_len, 5);
        assert_eq!(
            r.detected.len(),
            1,
            "exactly one stateful hop: {:?}",
            r.detected
        );
        let d = r.detected[0];
        assert_eq!(d.hop, 3, "CGN sits at hop 3");
        // True timeout 65 s must be bracketed by (60, 70].
        assert_eq!(d.timeout_gt, secs(60));
        assert_eq!(d.timeout_le, secs(70));
        assert_eq!(d.timeout_estimate_secs(), 65);
        assert_eq!(r.most_distant_nat(), Some(3));
    }

    /// NAT444: both the CPE (hop 1) and the CGN are found with their own
    /// timeouts.
    #[test]
    fn nat444_finds_both_layers() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let mut cgn_cfg = NatConfig::cgn_default();
        cgn_cfg.udp_timeout = secs(35);
        let (_, cgn_realm) = net.add_nat(
            cgn_cfg,
            vec![ip(198, 51, 100, 1)],
            RealmId::PUBLIC,
            vec![ip(198, 19, 2, 1)],
            ip(100, 64, 0, 1),
            false,
            7,
        );
        let mut cpe_cfg = NatConfig::home_cpe(); // 65 s
        cpe_cfg.filtering = nat_engine::FilteringBehavior::AddressAndPortDependent;
        let (_, home) = net.add_nat(
            cpe_cfg,
            vec![ip(100, 64, 0, 30)],
            cgn_realm,
            vec![ip(100, 64, 255, 3)],
            ip(192, 168, 1, 1),
            true,
            8,
        );
        let c = net.add_host(home, ip(192, 168, 1, 50), vec![]);
        let r = run_ttl_enumeration(
            &mut net,
            &lab,
            c,
            Endpoint::new(ip(192, 168, 1, 50), 40000),
            &TtlEnumConfig::default(),
        );
        // Path: CPE, agg router, CGN, ext router, core router = 5 hops.
        assert_eq!(r.path_len, 5);
        assert_eq!(r.detected.len(), 2, "{:?}", r.detected);
        assert_eq!(r.detected[0].hop, 1, "CPE at hop 1");
        assert_eq!(r.detected[0].timeout_estimate_secs(), 65);
        assert_eq!(r.detected[1].hop, 3, "CGN at hop 3");
        assert_eq!(r.detected[1].timeout_estimate_secs(), 35);
    }

    /// A NAT whose timeout exceeds the 200 s test budget goes unnoticed —
    /// the 30.9% row of Table 7.
    #[test]
    fn long_timeout_nat_missed() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let mut cfg = NatConfig::cgn_default();
        cfg.udp_timeout = secs(300);
        let (_, realm) = net.add_nat(
            cfg,
            vec![ip(198, 51, 100, 1)],
            RealmId::PUBLIC,
            vec![],
            ip(100, 64, 0, 1),
            false,
            7,
        );
        let c = net.add_host(realm, ip(100, 64, 0, 20), vec![]);
        let r = run_ttl_enumeration(
            &mut net,
            &lab,
            c,
            Endpoint::new(ip(100, 64, 0, 20), 40000),
            &TtlEnumConfig::default(),
        );
        assert!(r.ip_mismatch, "translation is still visible");
        assert!(r.detected.is_empty(), "no expired mapping within 200 s");
    }

    /// A stateful firewall (no translation) is detected as a stateful hop
    /// while the addresses match — the 0.5% row of Table 7.
    #[test]
    fn stateful_firewall_detected_without_mismatch() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let client_ip = ip(198, 51, 100, 9);
        let (_, realm) = net.add_nat(
            NatConfig::stateful_firewall(),
            vec![client_ip],
            RealmId::PUBLIC,
            vec![],
            ip(198, 51, 100, 254),
            false,
            7,
        );
        let c = net.add_host(realm, client_ip, vec![]);
        let r = run_ttl_enumeration(
            &mut net,
            &lab,
            c,
            Endpoint::new(client_ip, 40000),
            &TtlEnumConfig::default(),
        );
        assert!(!r.ip_mismatch, "a firewall does not translate");
        assert_eq!(r.detected.len(), 1, "{:?}", r.detected);
        // True timeout 60 s: expired at exactly 60 s of idle → (50, 60].
        assert_eq!(r.detected[0].timeout_gt, secs(50));
        assert_eq!(r.detected[0].timeout_le, secs(60));
    }
}
