//! # nat-engine — a behavioural NAT44 implementation
//!
//! One engine models both kinds of middlebox the paper studies:
//!
//! * **CPE NATs** — in-home routers (scenario A/C of Fig. 2): typically
//!   port-preserving, permissive filtering, 192X internal pools;
//! * **Carrier-Grade NATs** — ISP middleboxes (scenario B/C): pools of
//!   public addresses (NAT pooling), diverse port-allocation strategies
//!   (preservation / sequential / random / chunk-random), diverse mapping
//!   and filtering behaviour, short UDP timeouts, per-subscriber limits.
//!
//! Terminology follows §3 of the paper and RFC 4787 / RFC 5382:
//!
//! * **Mapping behaviour** — when is an existing `IPint:portint →
//!   IPext:portext` mapping reused? Endpoint-independent mappings are reused
//!   for any destination; address(-and-port)-dependent mappings (the
//!   paper's *symmetric* NAT) create a new mapping per destination.
//! * **Filtering behaviour** — which inbound packets may use a mapping?
//!   *Full cone* admits anyone, *address restricted* requires a previously
//!   contacted IP, *port-address restricted* requires the exact endpoint.
//! * **Port allocation** — preservation, sequential, random, or random
//!   within a per-subscriber chunk (§6.2, Fig. 8c).
//! * **IP pooling** — *paired* (a subscriber always maps to the same
//!   external IP) or *arbitrary* (§3, §6.2).
//! * **Hairpinning** — internal-to-internal traffic addressed to the
//!   external endpoint is looped back; if the NAT does not rewrite the
//!   source, internal endpoints leak (§3, §4.1).

mod arena;
pub mod compliance;
pub mod config;
pub mod metrics;
pub mod nat;
pub mod ports;
pub mod sharded;
pub mod store;
pub mod telemetry;
pub mod wheel;

pub use arena::ARENA_CHUNK_BYTES;
pub use compliance::{
    check as check_compliance, check_runtime, ComplianceReport, Requirement, RuntimeReport,
    RuntimeViolation,
};
pub use config::{
    FilteringBehavior, MappingBehavior, NatConfig, Pooling, PortAllocation, StunNatType,
};
pub use metrics::EngineMetrics;
pub use nat::{
    DropReason, Header, HeaderVerdict, Mapping, Nat, NatStats, NatVerdict, PortOccupancy,
};
pub use ports::PortAllocator;
pub use sharded::ShardedNat;
pub use store::{ContactSet, MappingStore, StoreOccupancy};
pub use telemetry::{BlockEvent, EventSink, MappingEvent, TelemetryMode};
pub use wheel::WheelGeometry;
