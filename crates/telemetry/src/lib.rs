//! # cgn-telemetry — NAT event logging and abuse traceability
//!
//! Richter et al. (IMC 2016, §2) find that operators choose CGN port
//! allocation as much for the **logging burden** it implies as for
//! port demand: every deployment must answer abuse queries — *which
//! subscriber held external `IP:port` at time `T`?* — and the three
//! allocation policies price that question very differently:
//!
//! | policy | log records | bytes/subscriber/day |
//! |---|---|---|
//! | per-connection (random/sequential/preserve ports) | one create/expire pair **per mapping** | highest |
//! | port-block ([`PortAllocation::PortBlock`](nat_engine::config::PortAllocation::PortBlock)) | one grant/return pair **per block** | ~2–3 orders less |
//! | deterministic ([`PortAllocation::Deterministic`](nat_engine::config::PortAllocation::Deterministic), RFC 7422) | **none** — recompute instead | zero |
//!
//! This crate is the logging/attribution side of that trade-off:
//!
//! * [`sink::BinaryLogSink`] — a [`nat_engine::telemetry::EventSink`]
//!   that encodes the engine's mapping/block events into per-shard
//!   append-only binary logs ([`codec::EventLog`]: varint fields,
//!   delta timestamps, interned subscriber/pool ids — single-digit
//!   bytes per steady-state record), and [`rotate::RotatingWriteSink`],
//!   the same encoder streaming into size-rotated generations;
//! * [`query::TraceIndex`] — the time-interval index that answers
//!   exact `(ext IP, port, T) → subscriber` probes from a decoded log,
//!   for both per-connection and per-block records;
//! * [`detmap::DeterministicMap`] — the zero-log alternative:
//!   attribution by inverting deterministic NAT's provisioning
//!   arithmetic.
//!
//! Per-shard logs are owned by the shard's worker thread, so a run's
//! logs are bit-identical for every worker-thread count — the same
//! determinism contract as the traffic driver itself.

pub mod codec;
pub mod detmap;
pub mod query;
pub mod rotate;
pub mod sink;

pub use codec::{decode_bytes, DecodeError, EventLog, Record};
pub use detmap::DeterministicMap;
pub use query::{linear_scan, TraceIndex};
pub use rotate::{
    FileGenerations, GenerationFactory, GenerationStats, RotatingFileSink, RotatingWriteSink,
    MODELED_COMPRESSION_RATIO,
};
pub use sink::BinaryLogSink;
