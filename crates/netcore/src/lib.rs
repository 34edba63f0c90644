//! # netcore — core network types for the CGN study
//!
//! Foundation crate for the reproduction of *"A Multi-perspective Analysis of
//! Carrier-Grade NAT Deployment"* (IMC 2016). It provides the vocabulary every
//! other crate speaks:
//!
//! * [`Prefix`] — IPv4 CIDR prefixes with containment and iteration,
//! * [`reserved`] — the reserved address ranges of Table 1 of the paper
//!   (RFC 1918 private space and the RFC 6598 shared space `100.64/10`),
//! * [`RoutingTable`] — a longest-prefix-match "global routing table" used to
//!   classify addresses as routed / unrouted,
//! * [`asn`] — autonomous systems, RIR regions and AS kinds (eyeball,
//!   cellular, transit, content),
//! * [`Packet`] — the simulated IPv4 packet (UDP / TCP / ICMP) with TTL,
//! * [`hash`] — the deterministic [`MixMap`] / [`MixSet`] hasher every table
//!   keyed by simulation-made values uses,
//! * [`SimTime`] — virtual time, the clock every component shares.
//!
//! Everything in this crate is deterministic and free of I/O.

pub mod addr;
pub mod asn;
pub mod endpoint;
pub mod hash;
pub mod packet;
pub mod reserved;
pub mod routing;
pub mod time;

pub use addr::Prefix;
pub use asn::{AsId, AsInfo, AsKind, AsRegistry, Rir};
pub use endpoint::{Endpoint, Protocol};
pub use hash::{mix64, Mix64Hasher, MixMap, MixSet};
pub use packet::{IcmpKind, Packet, PacketBody, TcpFlags};
pub use reserved::{classify_reserved, ReservedRange};
pub use routing::{RouteEntry, RoutingTable};
pub use time::{SimDuration, SimTime};

use std::net::Ipv4Addr;

/// Convenience constructor used pervasively in tests and examples.
///
/// ```
/// let a = netcore::ip(10, 0, 0, 1);
/// assert!(netcore::classify_reserved(a).is_some());
/// ```
pub fn ip(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
    Ipv4Addr::new(a, b, c, d)
}

/// Parse a dotted-quad string, panicking with a readable message on error.
/// Intended for statically-known addresses in tests and generators.
pub fn ip_str(s: &str) -> Ipv4Addr {
    s.parse()
        .unwrap_or_else(|_| panic!("invalid IPv4 literal: {s}"))
}
