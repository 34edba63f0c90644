//! # cgn-metrics — runtime metrics for the CGN simulation stack
//!
//! The paper's operator-side story (§6: port demand, allocation-policy
//! trade-offs, log volumes) is about *continuously observed* CGN
//! behaviour: the interesting signals — flows/s, allocator fill,
//! sweep cost, traceability-query latency — are time-windowed, not
//! end-of-run. This crate is the observability substrate the rest of
//! the workspace instruments itself with:
//!
//! * [`instrument`] — cheap fixed-layout instruments: monotonic
//!   [`Counter`]s, [`Gauge`]s, [`MaxGauge`]s and log2-bucketed
//!   [`Histogram`]s. Each is a plain word (or a small vector of
//!   words) owned by exactly one shard's thread, so the hot path is
//!   an unsynchronized integer add — "lock-free" by ownership, not by
//!   atomics. Cross-shard aggregation happens at sample barriers by
//!   merging [`Snapshot`]s in shard order, which keeps every derived
//!   number bit-identical for any worker-thread count.
//!
//! * [`snapshot`] — the point-in-time exchange format: a [`Snapshot`]
//!   is a sorted list of `(name, value)` samples that merges
//!   deterministically ([`Snapshot::merge`]) and subtracts into
//!   per-window deltas ([`Snapshot::delta_since`]).
//!
//! * [`window`] — a ring of per-window aggregates keyed by sim-time
//!   ([`WindowSeries`]): each window carries the cumulative snapshot
//!   at its end and the delta over the window, the shape a
//!   longitudinal "big NAT" study consumes.
//!
//! * [`expo`] — Prometheus-style text exposition of a snapshot
//!   (`# TYPE` lines, `_bucket{le="…"}` histogram series), so the
//!   artifacts drop into standard scrape tooling.
//!
//! The engine-facing discipline is `nat_engine`'s probe: a registry
//! lives in one `Option` on each `Nat` with the event sink and the
//! tracer, absent by default, so a disabled registry costs one untaken
//! branch per fire site
//! (`benchmark/`'s metrics-free workloads, read as parent-vs-change
//! pairs, hold that cost).

pub mod expo;
pub mod instrument;
pub mod snapshot;
pub mod window;

pub use instrument::{Counter, Gauge, Histogram, MaxGauge};
pub use snapshot::{Sample, Snapshot, Value};
pub use window::{Window, WindowSeries};
