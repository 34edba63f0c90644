//! Cross-crate integration: packets, NAT layers and measurements agree.

use nat_engine::NatConfig;
use netalyzr::{run_session, ClientSpec, MeasurementLab, OsPortPolicy};
use netcore::{ip, Endpoint, Packet, SimDuration};
use simnet::{Network, NodeId, RealmId};

/// Subscriber C of Fig. 2: device ← CPE ← aggregation ← CGN ← core.
struct Nat444 {
    net: Network,
    lab: MeasurementLab,
    device: NodeId,
    cgn: NodeId,
    cpe: NodeId,
}

fn build(cgn_timeout_secs: u64) -> Nat444 {
    let mut net = Network::new();
    let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
    let mut cgn_cfg = NatConfig::cgn_default();
    cgn_cfg.udp_timeout = SimDuration::from_secs(cgn_timeout_secs);
    let (cgn, cgn_realm) = net.add_nat(
        cgn_cfg,
        vec![ip(198, 51, 100, 1), ip(198, 51, 100, 2)],
        RealmId::PUBLIC,
        vec![ip(198, 19, 2, 1)],
        ip(100, 64, 0, 1),
        false,
        7,
    );
    let (cpe, home) = net.add_nat(
        NatConfig::home_cpe(),
        vec![ip(100, 64, 0, 30)],
        cgn_realm,
        vec![ip(100, 64, 255, 3)],
        ip(192, 168, 1, 1),
        true,
        8,
    );
    let device = net.add_host(home, ip(192, 168, 1, 50), vec![]);
    Nat444 {
        net,
        lab,
        device,
        cgn,
        cpe,
    }
}

#[test]
fn double_translation_and_reply_path() {
    let mut w = build(60);
    let src = Endpoint::new(ip(192, 168, 1, 50), 40_000);
    let dst = w.lab.echo.udp_endpoint();
    let out = w
        .net
        .send(w.device, Packet::udp(src, dst, b"PING".to_vec()))
        .expect("packet must reach the echo server");
    let seen = out.pkt.src;
    assert!(
        seen.ip == ip(198, 51, 100, 1) || seen.ip == ip(198, 51, 100, 2),
        "server must see a CGN pool address, saw {seen}"
    );
    // Both NATs now hold exactly one mapping for this flow.
    assert_eq!(w.net.nat(w.cpe).mapping_count(), 1);
    assert_eq!(w.net.nat(w.cgn).mapping_count(), 1);
    // The reply fully de-translates.
    let back = w
        .net
        .send(out.node, Packet::udp(dst, seen, b"PONG".to_vec()))
        .expect("reply must reach the device");
    assert_eq!(back.node, w.device);
    assert_eq!(back.pkt.dst, src);
}

#[test]
fn session_measures_what_the_topology_says() {
    let mut w = build(35);
    let spec = ClientSpec {
        node: w.device,
        addr: ip(192, 168, 1, 50),
        os_ports: OsPortPolicy::linux(),
        upnp_cpe_external: Some(ip(100, 64, 0, 30)),
        upnp_model: Some("TestBox".into()),
        run_stun: true,
        run_ttl: true,
        port_flows: 10,
    };
    let report = run_session(&mut w.net, &w.lab, &spec, 7);

    // Address triple tells the NAT444 story.
    assert_eq!(report.ip_dev, ip(192, 168, 1, 50));
    assert_eq!(report.ip_cpe, Some(ip(100, 64, 0, 30)));
    let public = report.ip_pub().expect("flows completed");
    assert_ne!(Some(public), report.ip_cpe, "IPcpe ≠ IPpub under NAT444");

    // Port test: the CPE preserves, the CGN renumbers randomly — so the
    // local ports are NOT preserved end to end.
    assert!(report.port_test.preserved_count() <= 2);

    // STUN reports the most restrictive on-path behaviour.
    let stun = report.stun.expect("stun ran");
    assert!(
        stun.class.nat_type().is_some(),
        "a NAT must be classified: {stun:?}"
    );

    // TTL enumeration finds both layers at the right hops with the right
    // timeouts: CPE at hop 1 (65 s), CGN at hop 3 (35 s).
    let ttl = report.ttl.expect("ttl ran");
    assert!(ttl.ip_mismatch);
    let hops: Vec<usize> = ttl.detected.iter().map(|d| d.hop).collect();
    assert_eq!(hops, vec![1, 3], "detected NATs at {hops:?}");
    assert_eq!(ttl.detected[0].timeout_estimate_secs(), 65);
    assert_eq!(ttl.detected[1].timeout_estimate_secs(), 35);

    // Ground truth agrees: the true path has the NATs where the test
    // found them.
    let truth = w
        .net
        .path_hops(w.device, w.lab.echo.ip)
        .expect("path exists");
    let nat_positions: Vec<usize> = truth
        .iter()
        .enumerate()
        .filter(|(_, h)| h.kind == simnet::HopKind::Nat)
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(nat_positions, hops, "measured hops must match topology");
}

#[test]
fn expired_cgn_blocks_inbound_but_cpe_state_survives() {
    let mut w = build(30);
    let src = Endpoint::new(ip(192, 168, 1, 50), 41_000);
    let dst = w.lab.echo.udp_endpoint();
    let out = w
        .net
        .send(w.device, Packet::udp(src, dst, b"PING".to_vec()))
        .expect("delivered");
    let ext = out.pkt.src;

    // 40 s idle: the CGN (30 s) expired, the CPE (65 s) did not.
    w.net.advance(SimDuration::from_secs(40));
    let echo_node = w.lab.echo.node;
    let probe = w
        .net
        .send(echo_node, Packet::udp(dst, ext, b"PROBE".to_vec()));
    assert!(probe.is_none(), "probe must die at the expired CGN");
    assert!(w.net.nat_stats(w.cgn).drop_no_mapping >= 1);
    assert_eq!(w.net.nat(w.cpe).mapping_count(), 1, "CPE state survives");
}
