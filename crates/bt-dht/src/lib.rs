//! # bt-dht — BitTorrent mainline DHT over the simulated network
//!
//! Implements the substrate for §4.1 of the IMC 2016 CGN paper:
//!
//! * [`bencode`] — the bencoding wire format (BEP-03) used by all DHT
//!   traffic: a strict, borrowed, single-pass reader (values are spans
//!   of the datagram; keys a parser does not name are validated and
//!   skipped) and a direct writer;
//! * [`krpc`] — the KRPC protocol (BEP-05): `ping` and `find_node` queries
//!   and responses with compact node info, decoded in that one pass and
//!   encoded straight into the payload;
//! * [`node_id`] — 160-bit node identifiers and the Kademlia XOR metric;
//! * [`routing`] — k-bucket routing tables, with `closest` as a bounded
//!   selection;
//! * [`peer`] — the peer state machine: answering queries, validating
//!   contacts before propagating them (the property the paper's
//!   calibration checks), learning internal endpoints via local peer
//!   discovery multicast and via hairpinned traffic;
//! * [`world`] — drives a population of peers over [`simnet`] through
//!   bootstrap and maintenance rounds;
//! * [`crawler`] — the paper's measurement crawler: batched `find_node`
//!   queries, internal-peer harvesting, leak bookkeeping, `bt_ping`
//!   responsiveness counts (Tables 2 and 3).

pub mod bencode;
pub mod crawler;
pub mod krpc;
#[cfg(test)]
mod model;
pub mod node_id;
pub mod observer;
pub mod peer;
pub mod routing;
pub mod world;

pub use crawler::{CrawlConfig, CrawlReport, Crawler, LeakRecord};
pub use krpc::{CompactNode, KrpcMessage, QueryKind};
pub use node_id::NodeId160;
pub use observer::{observe, AllocationSignature, ExternalIpView, Sighting};
pub use peer::{DhtPeer, PeerConfig};
pub use routing::RoutingTable160;
pub use world::{DhtWorld, WorldConfig};
