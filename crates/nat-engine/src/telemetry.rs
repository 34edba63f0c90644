//! NAT event telemetry: the logging hooks behind abuse traceability.
//!
//! §2 of the paper reports that operators weigh CGN deployment choices
//! (per-connection vs. bulk port-block allocation, subscribers per
//! external IP) as much by the **logging burden** they imply as by
//! port demand: abuse attribution must answer "which subscriber held
//! external `IP:port` at time `T`?", and per-connection logging at
//! CGN scale produces terabytes per day. This module is the engine
//! side of that trade-off: a minimal [`EventSink`] the translation
//! path fires on state changes, so an external consumer (the
//! `cgn-telemetry` crate) can turn them into append-only binary logs
//! and measure the volume each allocation policy produces.
//!
//! **Zero-cost when disabled.** The engine holds its sink in its one
//! probe slot, next to the metrics registry and the tracer; with
//! nothing installed every fire site is one untaken branch on `None`
//! — and the sink's fire sites sit on the mapping lifecycle (create /
//! expire, with the block grant or return they cause), not on the
//! per-packet fast path. `benchmark/`'s sink-free workloads, read as
//! parent-vs-change pairs, are what hold this.
//!
//! Four events cover the three §6.2 allocation policies' logging
//! models:
//!
//! * [`EventSink::mapping_created`] / [`EventSink::mapping_expired`] —
//!   one pair per translation mapping: what per-connection logging
//!   records;
//! * [`EventSink::block_allocated`] / [`EventSink::block_released`] —
//!   one pair per contiguous port block (the
//!   [`crate::config::PortAllocation::PortBlock`] policy): what bulk
//!   port-block logging records, hundreds of times fewer than
//!   per-connection;
//! * deterministic NAT
//!   ([`crate::config::PortAllocation::Deterministic`], RFC 7422)
//!   fires no block events and needs no log at all — attribution is
//!   recomputed from the algorithmic mapping.

use crate::store::Mapping;
use cgn_trace::FlowKey;
use netcore::{Endpoint, Protocol, SimTime};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::net::Ipv4Addr;

/// What an installed log sink records — the operator's logging-policy
/// knob, orthogonal to (but normally paired with) the port-allocation
/// policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TelemetryMode {
    /// No sink installed; the engine does no telemetry work.
    #[default]
    Off,
    /// Record one create/expire pair per mapping (per-connection
    /// logging — the volume-heavy policy of §2's survey).
    PerConnection,
    /// Record one allocate/release pair per contiguous port block
    /// (bulk port-block logging — what large deployments run).
    PerBlock,
    /// NetFlow-style sampled per-connection logging: keep one mapping
    /// in `one_in` (deterministic by flow-key hash, so the create and
    /// expire records of a sampled mapping always travel together;
    /// `0` keeps none). The operator's middle ground when full
    /// per-connection volume is unaffordable but block granularity is
    /// too coarse.
    Sampled { one_in: u32 },
}

impl TelemetryMode {
    pub fn name(self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::PerConnection => "per-connection",
            TelemetryMode::PerBlock => "per-block",
            TelemetryMode::Sampled { .. } => "sampled",
        }
    }
}

/// One mapping lifecycle event: the subscriber-side and public-side
/// endpoints of a translation table entry at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingEvent {
    pub at: SimTime,
    pub proto: Protocol,
    /// Subscriber-side endpoint (`IPint:portint`).
    pub internal: Endpoint,
    /// Public-side endpoint (`IPext:portext`).
    pub external: Endpoint,
}

impl MappingEvent {
    /// The event of `mapping` at `at`.
    pub(crate) fn of(mapping: &Mapping, at: SimTime) -> MappingEvent {
        MappingEvent {
            at,
            proto: mapping.proto,
            internal: mapping.internal,
            external: mapping.external,
        }
    }

    /// The mapping's flow key: what both the tracer's one-in-N sampler
    /// and a [`TelemetryMode::Sampled`] log sink hash, so the two pick
    /// the same mappings at the same N.
    pub fn flow_key(&self) -> FlowKey {
        FlowKey {
            udp: self.proto == Protocol::Udp,
            internal_ip: self.internal.ip,
            internal_port: self.internal.port,
            external_ip: self.external.ip,
            external_port: self.external.port,
        }
    }
}

/// One port-block lifecycle event: a contiguous range of
/// `[block_start, block_start + block_len)` external ports on
/// `ext_ip` granted to (or returned by) `subscriber`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEvent {
    pub at: SimTime,
    pub proto: Protocol,
    /// Subscriber (internal host) the block belongs to.
    pub subscriber: Ipv4Addr,
    pub ext_ip: Ipv4Addr,
    pub block_start: u16,
    pub block_len: u16,
}

/// Receiver of NAT state-change events. Installed per engine (one per
/// shard in a [`crate::ShardedNat`]), owned and driven by the shard's
/// thread — implementations need no internal synchronization beyond
/// being `Send + Sync` types (every callback takes `&mut self`; the
/// `Sync` bound only keeps a sink-carrying `Nat` shareable by
/// reference, e.g. inside a `OnceLock`d artifact cache).
///
/// `into_any` exists so a caller that installed a concrete sink can
/// recover it after the run (`Box<dyn Any>::downcast`); trait
/// upcasting to `Any` is not available on the crate's MSRV.
pub trait EventSink: Send + Sync {
    fn mapping_created(&mut self, event: &MappingEvent);
    fn mapping_expired(&mut self, event: &MappingEvent);
    fn block_allocated(&mut self, event: &BlockEvent);
    fn block_released(&mut self, event: &BlockEvent);
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    /// Encoded `(records, bytes)` accumulated so far, for sinks that
    /// measure log volume (`None` for sinks that don't). Lets the
    /// engine's metrics snapshot surface sink throughput without
    /// knowing the concrete sink type.
    fn volume(&self) -> Option<(u64, u64)> {
        None
    }
}

/// Counting sink for tests and overhead probes: tallies events,
/// stores nothing.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CountingSink {
    pub created: u64,
    pub expired: u64,
    pub blocks_allocated: u64,
    pub blocks_released: u64,
}

impl EventSink for CountingSink {
    fn mapping_created(&mut self, _event: &MappingEvent) {
        self.created += 1;
    }
    fn mapping_expired(&mut self, _event: &MappingEvent) {
        self.expired += 1;
    }
    fn block_allocated(&mut self, _event: &BlockEvent) {
        self.blocks_allocated += 1;
    }
    fn block_released(&mut self, _event: &BlockEvent) {
        self.blocks_released += 1;
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_and_default() {
        assert_eq!(TelemetryMode::default(), TelemetryMode::Off);
        assert_eq!(TelemetryMode::PerConnection.name(), "per-connection");
        assert_eq!(TelemetryMode::PerBlock.name(), "per-block");
        assert_eq!(TelemetryMode::Off.name(), "off");
        assert_eq!(TelemetryMode::Sampled { one_in: 10 }.name(), "sampled");
    }

    #[test]
    fn mode_serde_round_trip() {
        for mode in [
            TelemetryMode::Off,
            TelemetryMode::PerConnection,
            TelemetryMode::PerBlock,
            TelemetryMode::Sampled { one_in: 10 },
        ] {
            let v = serde_json::to_string(&mode).expect("serializable");
            let back: TelemetryMode = serde_json::from_str(&v).expect("parseable");
            assert_eq!(mode, back);
        }
    }

    #[test]
    fn counting_sink_recovers_through_any() {
        let mut sink: Box<dyn EventSink> = Box::<CountingSink>::default();
        let e = MappingEvent {
            at: SimTime::from_secs(1),
            proto: Protocol::Udp,
            internal: Endpoint::new(Ipv4Addr::new(100, 64, 0, 1), 40_000),
            external: Endpoint::new(Ipv4Addr::new(198, 51, 100, 1), 10_000),
        };
        sink.mapping_created(&e);
        sink.mapping_created(&e);
        sink.mapping_expired(&e);
        let counts = sink
            .into_any()
            .downcast::<CountingSink>()
            .expect("concrete type recoverable");
        assert_eq!((counts.created, counts.expired), (2, 1));
    }
}
