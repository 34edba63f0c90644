//! Campaign-scale active probes.
//!
//! The full [`crate::session`] suite (10 TCP flows, STUN, TTL
//! enumeration with idle phases) is what the paper's client runs; at
//! detection-campaign scale (hundreds of vantage points against
//! 100k-subscriber worlds) the campaign needs the same observables at
//! a fraction of the cost. This module provides the two primitives the
//! `cgn-detect` feature extractor composes:
//!
//! * [`udp_mapped`] — one UDP PING/PONG exchange against the echo
//!   server, returning the externally observed source endpoint (the
//!   `IPpub`/port oracle, one packet each way);
//! * [`traceroute`] — the TTL walk of the client–server path,
//!   returning every answering hop address in order (the input of the
//!   reserved-hop realm analysis, Fig. 11's distance observable).

use crate::servers::{EchoServer, MeasurementLab};
use netcore::{Endpoint, Packet, PacketBody};
use simnet::{pump, Network, NodeId};
use std::net::Ipv4Addr;

/// One UDP PING from `local`; returns the source endpoint the echo
/// server observed, or `None` when the exchange failed in either
/// direction (no mapping admitted, reply filtered, …).
pub fn udp_mapped(
    net: &mut Network,
    lab: &MeasurementLab,
    client: NodeId,
    local: Endpoint,
) -> Option<Endpoint> {
    let mut observed = None;
    pump(
        net,
        &mut vec![(
            client,
            Packet::udp(local, lab.echo.udp_endpoint(), b"PING".to_vec()),
        )],
        |node, p, out| {
            if node == client {
                if let PacketBody::Udp { payload } = &p.body {
                    if payload.starts_with(b"PONG ") {
                        observed = EchoServer::parse_addr_reply(&payload[5..]);
                    }
                }
            } else {
                lab.dispatch(node, p, out)
            }
        },
        1_000,
    );
    observed
}

/// TTL walk toward the echo server: probe TTL `1..` and collect the
/// ICMP time-exceeded sources until the first TTL whose PING is
/// answered. Returns `(hops, reached)` — the answering middle-hop
/// addresses in path order, and whether the server was reached within
/// `max_hops`.
pub fn traceroute(
    net: &mut Network,
    lab: &MeasurementLab,
    client: NodeId,
    local: Endpoint,
    max_hops: usize,
) -> (Vec<Ipv4Addr>, bool) {
    let mut hops = Vec::new();
    for ttl in 1..=max_hops as u8 {
        let probe = Packet::udp(
            Endpoint::new(local.ip, local.port.wrapping_add(ttl as u16)),
            lab.echo.udp_endpoint(),
            b"PING".to_vec(),
        )
        .with_ttl(ttl);
        let mut icmp_src = None;
        let mut answered = false;
        pump(
            net,
            &mut vec![(client, probe)],
            |node, p, out| {
                if node == client {
                    match &p.body {
                        PacketBody::Icmp { .. } => icmp_src = Some(p.src.ip),
                        PacketBody::Udp { payload } if payload.starts_with(b"PONG ") => {
                            answered = true;
                        }
                        _ => {}
                    }
                } else {
                    lab.dispatch(node, p, out)
                }
            },
            1_000,
        );
        if answered {
            return (hops, true);
        }
        match icmp_src {
            Some(a) => hops.push(a),
            // Dead hop (e.g. a NAT drop): the walk cannot see further.
            None => return (hops, false),
        }
    }
    (hops, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nat_engine::{FilteringBehavior, NatConfig};
    use netcore::ip;
    use simnet::RealmId;

    #[test]
    fn mapped_and_traceroute_match_ground_truth() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let mut cfg = NatConfig::cgn_default();
        cfg.filtering = FilteringBehavior::EndpointIndependent;
        let (_, realm) = net.add_nat(
            cfg,
            vec![ip(198, 51, 100, 1)],
            RealmId::PUBLIC,
            vec![ip(198, 18, 0, 1)],
            ip(100, 64, 0, 1),
            false,
            7,
        );
        let c = net.add_host(realm, ip(100, 64, 0, 20), vec![ip(198, 18, 0, 9)]);
        let local = Endpoint::new(ip(100, 64, 0, 20), 41_000);
        let mapped = udp_mapped(&mut net, &lab, c, local).expect("exchange works");
        assert_eq!(mapped.ip, ip(198, 51, 100, 1));

        let truth: Vec<Ipv4Addr> = net
            .path_hops(c, lab.echo.ip)
            .expect("routable")
            .iter()
            .map(|h| h.addr)
            .collect();
        let (hops, reached) = traceroute(&mut net, &lab, c, local, 20);
        assert!(reached);
        assert_eq!(hops, truth);
        // The CGN's internal gateway is visible in shared space.
        assert!(hops.contains(&ip(100, 64, 0, 1)));
    }

    #[test]
    fn public_client_sees_no_reserved_hops() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let c = net.add_host(
            RealmId::PUBLIC,
            ip(198, 51, 100, 9),
            vec![ip(198, 18, 4, 1)],
        );
        let local = Endpoint::new(ip(198, 51, 100, 9), 41_000);
        let mapped = udp_mapped(&mut net, &lab, c, local).expect("works");
        assert_eq!(mapped, local, "no translation on the path");
        let (hops, reached) = traceroute(&mut net, &lab, c, local, 20);
        assert!(reached);
        assert!(hops
            .iter()
            .all(|h| netcore::classify_reserved(*h).is_none()));
    }
}
