//! Measurement servers.
//!
//! [`EchoServer`] is the custom test server the Netalyzr suite talks to:
//!
//! * **TCP echo** on a high port "unlikely to be proxied" (§6.2): the
//!   client completes a handshake and sends `WHOAMI`; the server answers
//!   with the source endpoint it observed — that is how the client learns
//!   `IPpub` and the translated source port of each flow.
//! * **UDP responder**: answers `PING` with `PONG <observed endpoint>`;
//!   ignores `KA` keepalives (so TTL-limited keepalives never generate
//!   reverse traffic that would refresh the hop under test from the wrong
//!   side).
//!
//! [`MeasurementLab`] bundles the echo server and the two-host
//! [STUN service](crate::stun::StunService) and provides the packet
//! dispatch used by drivers.

use crate::stun::StunService;
use netcore::{Endpoint, Packet, PacketBody, TcpFlags};
use simnet::{Network, NodeId, Outbox, RealmId};
use std::net::Ipv4Addr;

/// The TCP/UDP echo server.
#[derive(Debug, Clone)]
pub struct EchoServer {
    pub node: NodeId,
    pub ip: Ipv4Addr,
    /// High TCP port for the port test.
    pub tcp_port: u16,
    /// UDP port for reachability experiments.
    pub udp_port: u16,
}

impl EchoServer {
    pub const DEFAULT_TCP_PORT: u16 = 49_402;
    pub const DEFAULT_UDP_PORT: u16 = 49_403;

    pub fn new(node: NodeId, ip: Ipv4Addr) -> EchoServer {
        EchoServer {
            node,
            ip,
            tcp_port: Self::DEFAULT_TCP_PORT,
            udp_port: Self::DEFAULT_UDP_PORT,
        }
    }

    pub fn tcp_endpoint(&self) -> Endpoint {
        Endpoint::new(self.ip, self.tcp_port)
    }

    pub fn udp_endpoint(&self) -> Endpoint {
        Endpoint::new(self.ip, self.udp_port)
    }

    /// Render the observed-endpoint report.
    pub fn format_addr_reply(src: Endpoint) -> Vec<u8> {
        format!("ADDR {}:{}", src.ip, src.port).into_bytes()
    }

    /// Parse an `ADDR ip:port` report.
    pub fn parse_addr_reply(payload: &[u8]) -> Option<Endpoint> {
        let text = std::str::from_utf8(payload).ok()?;
        let rest = text.strip_prefix("ADDR ")?;
        let (ip, port) = rest.rsplit_once(':')?;
        Some(Endpoint::new(ip.parse().ok()?, port.parse().ok()?))
    }

    /// Handle a delivered packet; returns this server's reply, if any.
    pub fn handle_packet(&self, pkt: &Packet) -> Option<Packet> {
        match &pkt.body {
            PacketBody::Tcp { flags, payload } if pkt.dst == self.tcp_endpoint() => {
                let (reply, payload) = if flags.syn && !flags.ack {
                    (TcpFlags::SYN_ACK, vec![])
                } else if payload == b"WHOAMI" {
                    (TcpFlags::ACK, Self::format_addr_reply(pkt.src))
                } else if flags.fin {
                    (TcpFlags::FIN, vec![])
                } else {
                    return None;
                };
                Some(Packet::tcp(self.tcp_endpoint(), pkt.src, reply, payload))
            }
            PacketBody::Udp { payload } if pkt.dst == self.udp_endpoint() => {
                // Keepalives ("KA") and anything else: silence.
                if payload != b"PING" {
                    return None;
                }
                let mut reply = b"PONG ".to_vec();
                reply.extend_from_slice(&Self::format_addr_reply(pkt.src));
                Some(Packet::udp(self.udp_endpoint(), pkt.src, reply))
            }
            _ => None,
        }
    }
}

/// The whole measurement infrastructure: echo server + STUN service.
#[derive(Debug, Clone)]
pub struct MeasurementLab {
    pub echo: EchoServer,
    pub stun: StunService,
}

impl MeasurementLab {
    /// Consecutive service addresses [`MeasurementLab::install`]
    /// occupies starting at `base` (echo + two STUN hosts). The
    /// `base + 200` core router is a hop label only, never a realm
    /// address. Callers reserving lab space must skip exactly this
    /// many addresses.
    pub const SERVICE_ADDRS: u64 = 3;

    /// Install the lab's hosts in the public realm behind short core
    /// chains (so server-side hop counts are realistic).
    pub fn install(net: &mut Network, base: Ipv4Addr) -> MeasurementLab {
        let o = u32::from(base);
        let echo_ip = Ipv4Addr::from(o);
        let stun1_ip = Ipv4Addr::from(o + 1);
        let stun2_ip = Ipv4Addr::from(o + 2);
        let core_router = Ipv4Addr::from(o + 200);
        let echo_node = net.add_host(RealmId::PUBLIC, echo_ip, vec![core_router]);
        let stun1 = net.add_host(RealmId::PUBLIC, stun1_ip, vec![core_router]);
        let stun2 = net.add_host(RealmId::PUBLIC, stun2_ip, vec![core_router]);
        MeasurementLab {
            echo: EchoServer::new(echo_node, echo_ip),
            stun: StunService::new(stun1, stun1_ip, stun2, stun2_ip),
        }
    }

    /// Dispatch a delivered packet to whichever server owns the node;
    /// the server's reply, if any, is pushed onto `out`.
    pub fn dispatch(&self, node: NodeId, pkt: &Packet, out: &mut Outbox) {
        let reply = if node == self.echo.node {
            self.echo.handle_packet(pkt).map(|p| (node, p))
        } else {
            self.stun.handle_packet(node, pkt)
        };
        out.extend(reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::ip;
    use simnet::pump;

    #[test]
    fn addr_reply_roundtrip() {
        let ep = Endpoint::new(ip(198, 51, 100, 7), 54321);
        let reply = EchoServer::format_addr_reply(ep);
        assert_eq!(EchoServer::parse_addr_reply(&reply), Some(ep));
        assert_eq!(EchoServer::parse_addr_reply(b"garbage"), None);
        assert_eq!(EchoServer::parse_addr_reply(b"ADDR nope"), None);
    }

    #[test]
    fn tcp_flow_reports_observed_source() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let client = net.add_host(RealmId::PUBLIC, ip(198, 51, 100, 9), vec![]);
        let cep = Endpoint::new(ip(198, 51, 100, 9), 40000);

        let mut reported = None;
        pump(
            &mut net,
            &mut vec![(
                client,
                Packet::tcp(cep, lab.echo.tcp_endpoint(), TcpFlags::SYN, vec![]),
            )],
            |node, pkt, out| {
                if node == client {
                    if let PacketBody::Tcp { flags, payload } = &pkt.body {
                        if flags.syn && flags.ack {
                            return out.push((
                                client,
                                Packet::tcp(
                                    cep,
                                    lab.echo.tcp_endpoint(),
                                    TcpFlags::ACK,
                                    b"WHOAMI".to_vec(),
                                ),
                            ));
                        }
                        if let Some(ep) = EchoServer::parse_addr_reply(payload) {
                            reported = Some(ep);
                        }
                    }
                } else {
                    lab.dispatch(node, pkt, out)
                }
            },
            100,
        );
        assert_eq!(reported, Some(cep), "public client sees its own endpoint");
    }

    #[test]
    fn udp_ping_pong_and_silent_keepalive() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let client = net.add_host(RealmId::PUBLIC, ip(198, 51, 100, 9), vec![]);
        let cep = Endpoint::new(ip(198, 51, 100, 9), 40001);

        let mut pongs = 0;
        pump(
            &mut net,
            &mut vec![
                (
                    client,
                    Packet::udp(cep, lab.echo.udp_endpoint(), b"PING".to_vec()),
                ),
                (
                    client,
                    Packet::udp(cep, lab.echo.udp_endpoint(), b"KA".to_vec()),
                ),
            ],
            |node, pkt, out| {
                if node == client {
                    if pkt.body.payload().starts_with(b"PONG ") {
                        pongs += 1;
                    }
                } else {
                    lab.dispatch(node, pkt, out)
                }
            },
            100,
        );
        assert_eq!(pongs, 1, "PING answered once, KA ignored");
    }

    #[test]
    fn wrong_port_ignored() {
        let mut net = Network::new();
        let lab = MeasurementLab::install(&mut net, ip(203, 0, 113, 10));
        let src = Endpoint::new(ip(9, 9, 9, 9), 1);
        let to_wrong = Packet::udp(src, Endpoint::new(lab.echo.ip, 1234), b"PING".to_vec());
        assert!(lab.echo.handle_packet(&to_wrong).is_none());
    }
}
