//! # simnet — a deterministic packet-level network simulator
//!
//! The measurement methodology of the IMC 2016 CGN paper observes packets at
//! end hosts while middleboxes on the path translate addresses, keep
//! per-flow state, and expire it. `simnet` provides exactly that world:
//!
//! * **Realms** — addressing domains separated by NATs. The public realm
//!   holds servers and NAT pool addresses; each NAT guards an internal
//!   realm (a home LAN behind a CPE, or an ISP's CGN zone).
//! * **Hop-by-hop forwarding** — every router and NAT on the path
//!   decrements the TTL; packets that run out die at that hop and an ICMP
//!   time-exceeded is returned to the sender, which is what traceroute-like
//!   measurements and the TTL-driven NAT enumeration test (Fig. 10 of the
//!   paper) rely on.
//! * **On-path NATs** — [`nat_engine::Nat`] instances translate outbound
//!   and inbound packets, hairpin internal traffic, and expire idle
//!   mappings as the virtual clock advances.
//! * **Multicast segments** — realm-scoped multicast models BitTorrent
//!   local peer discovery, one of the two channels by which clients learn
//!   internal endpoints (§4.1 "DHT Data Calibration").
//!
//! The simulator is synchronous and deterministic: [`Network::send`]
//! immediately walks the packet to its destination (zero link latency) and
//! returns the delivery; time only advances when the driver calls
//! [`Network::advance`]. All timeout-sensitive experiments manipulate the
//! clock explicitly, which makes them exactly reproducible.

pub mod network;
pub mod pump;

pub use network::{Delivery, DropSite, HopInfo, HopKind, Network, NodeId, RealmId, SendOutcome};
pub use pump::{pump, Outbox, PumpStats};
