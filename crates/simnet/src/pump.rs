//! Driving request/response protocols over the network.
//!
//! Application state machines (DHT peers, measurement servers) are owned by
//! the crates that define them; `simnet` only forwards packets. [`pump`]
//! is the generic driver loop that connects the two: it feeds deliveries to
//! a handler closure, sends whatever packets the handler emits, and repeats
//! until the exchange quiesces.
//!
//! The handler receives `(receiving node, packet, outbox)` and pushes the
//! packets to transmit onto the outbox as `(origin node, packet)` pairs —
//! usually replies from the receiving node, but relays and multi-party
//! protocols fit too.

use crate::network::{Delivery, Network, NodeId};
use netcore::Packet;
use std::collections::VecDeque;

/// Packets waiting to be sent, each with the host it leaves from.
pub type Outbox = Vec<(NodeId, Packet)>;

/// Counters describing one pump run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PumpStats {
    /// Packets handed to the handler.
    pub deliveries: u64,
    /// Packets the handler emitted.
    pub emissions: u64,
    /// True if the loop hit `max_steps` before quiescing.
    pub truncated: bool,
}

/// Run an exchange to quiescence (or `max_steps` deliveries).
///
/// The outbox is the caller's, and is both ends of the contract:
///
/// * **In:** it holds the packets that start the exchange. They are sent
///   first, in order.
/// * **During:** every delivery is passed to `handle` together with the
///   (then empty) outbox; what the handler pushes is sent as soon as the
///   handler returns, in push order, before the next delivery is
///   handled. Deliveries are handled in the order their packets were
///   sent. This is the order a handler that returned a `Vec` of
///   emissions was served in: the sequence of `Network::send` calls, and
///   so of every NAT's state changes, is a function of the handler alone.
/// * **Out:** `pump` drains what it sends, so the outbox is empty again
///   when it returns — also after truncation — and keeps its capacity:
///   a caller that pumps in a loop allocates one outbox, not one `Vec`
///   per handled packet.
pub fn pump<F>(net: &mut Network, outbox: &mut Outbox, mut handle: F, max_steps: usize) -> PumpStats
where
    F: FnMut(NodeId, &Packet, &mut Outbox),
{
    let mut stats = PumpStats::default();
    let mut queue: VecDeque<Delivery> = VecDeque::new();
    let mut send_all = |outbox: &mut Outbox, queue: &mut VecDeque<Delivery>| {
        let sent = outbox.drain(..);
        queue.extend(sent.filter_map(|(origin, pkt)| net.send(origin, pkt)));
    };
    send_all(outbox, &mut queue);
    while let Some(d) = queue.pop_front() {
        if stats.deliveries as usize >= max_steps {
            stats.truncated = true;
            break;
        }
        stats.deliveries += 1;
        handle(d.node, &d.pkt, outbox);
        stats.emissions += outbox.len() as u64;
        send_all(outbox, &mut queue);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RealmId;
    use netcore::{ip, Endpoint};

    #[test]
    fn ping_pong_quiesces() {
        let mut net = Network::new();
        let a = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 1), vec![]);
        let b = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 2), vec![]);
        let ea = Endpoint::new(ip(203, 0, 113, 1), 1000);
        let eb = Endpoint::new(ip(203, 0, 113, 2), 2000);

        // b echoes once; a stays silent on the echo.
        let mut outbox = vec![(a, Packet::udp(ea, eb, b"ping".to_vec()))];
        let stats = pump(
            &mut net,
            &mut outbox,
            |node, pkt, out| {
                if node == b && pkt.body.payload() == b"ping" {
                    out.push((b, Packet::udp(eb, ea, b"pong".to_vec())));
                }
            },
            100,
        );
        assert_eq!(stats.deliveries, 2);
        assert_eq!(stats.emissions, 1);
        assert!(!stats.truncated);
        assert!(outbox.is_empty(), "pump hands the outbox back drained");
    }

    /// The ordering guarantee: what a handler pushes is sent in push
    /// order, and deliveries are handled in the order their packets were
    /// sent — breadth first.
    #[test]
    fn emissions_are_sent_in_push_order_before_the_next_delivery() {
        let mut net = Network::new();
        let hosts: Vec<(NodeId, Endpoint)> = (1..=4u8)
            .map(|n| {
                let addr = ip(203, 0, 113, n);
                (
                    net.add_host(RealmId::PUBLIC, addr, vec![]),
                    Endpoint::new(addr, 1000),
                )
            })
            .collect();
        let udp = |from: usize, to: usize, tag: u8| {
            (
                hosts[from].0,
                Packet::udp(hosts[from].1, hosts[to].1, vec![tag]),
            )
        };
        // 0 → 1 and 0 → 2 start; 1 answers with two packets (to 3, to
        // 0), 2 with one (to 3): breadth first, in push order.
        let mut outbox = vec![udp(0, 1, 1), udp(0, 2, 2)];
        let mut handled = Vec::new();
        let stats = pump(
            &mut net,
            &mut outbox,
            |node, pkt, out| {
                assert!(out.is_empty(), "the handler is given a drained outbox");
                let at = hosts.iter().position(|h| h.0 == node).unwrap();
                handled.push((at, pkt.body.payload()[0]));
                match pkt.body.payload()[0] {
                    1 => out.extend([udp(1, 3, 11), udp(1, 0, 12)]),
                    2 => out.push(udp(2, 3, 21)),
                    _ => {}
                }
            },
            100,
        );
        assert_eq!(handled, [(1, 1), (2, 2), (3, 11), (0, 12), (3, 21)]);
        assert_eq!((stats.deliveries, stats.emissions), (5, 3));
        assert_eq!(net.stats().sent, 5);
    }

    #[test]
    fn max_steps_truncates_chatter() {
        let mut net = Network::new();
        let a = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 1), vec![]);
        let b = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 2), vec![]);
        let ea = Endpoint::new(ip(203, 0, 113, 1), 1000);
        let eb = Endpoint::new(ip(203, 0, 113, 2), 2000);

        // Infinite ping-pong: bounded by max_steps.
        let mut outbox = vec![(a, Packet::udp(ea, eb, b"x".to_vec()))];
        let stats = pump(
            &mut net,
            &mut outbox,
            |node, _pkt, out| {
                if node == b {
                    out.push((b, Packet::udp(eb, ea, b"x".to_vec())));
                } else {
                    out.push((a, Packet::udp(ea, eb, b"x".to_vec())));
                }
            },
            10,
        );
        assert!(stats.truncated);
        assert_eq!(stats.deliveries, 10);
        assert!(outbox.is_empty());
    }

    #[test]
    fn drops_do_not_stall_the_loop() {
        let mut net = Network::new();
        let a = net.add_host(RealmId::PUBLIC, ip(203, 0, 113, 1), vec![]);
        let ea = Endpoint::new(ip(203, 0, 113, 1), 1000);
        let nowhere = Endpoint::new(ip(192, 0, 2, 1), 9);
        let stats = pump(
            &mut net,
            &mut vec![(a, Packet::udp(ea, nowhere, b"x".to_vec()))],
            |_, _, _| {},
            10,
        );
        assert_eq!(stats.deliveries, 0);
        assert!(!stats.truncated);
    }
}
