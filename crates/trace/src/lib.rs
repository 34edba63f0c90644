//! # cgn-trace — flow-lifecycle tracing and hot-path profiling
//!
//! The metrics stack (cgn-metrics) answers *how much*: flows/s,
//! allocator fill, sweep cost. This crate answers the two questions
//! metrics cannot: *where does wall-clock time go* inside the burst
//! pipeline and the driver's barriers, and *what did one particular
//! flow experience* from admit to expiry. Three pieces:
//!
//! * [`phase`] — a wall-clock **phase profiler**: log2 [`Histogram`]s
//!   of nanoseconds per pipeline phase (the driver's
//!   generate/translate/commit/inbound/sweep/sample regions and the
//!   burst pipeline's resolve/prefetch/translate passes), rendered as
//!   `cgn_phase_nanos{phase="…"}` families. Wall-clock is strictly an
//!   *annotation* layer: phase histograms are merged into published
//!   expositions and perf artifacts, never into the deterministic
//!   windowed snapshots a run digest covers.
//!
//! * [`flow`] — **sampled flow-lifecycle traces**: a deterministic
//!   one-in-N flow-key sampler (a pure function of the key, so the
//!   sampled set is identical for any thread count, and the very
//!   decision a `TelemetryMode::Sampled` event log makes) feeding a
//!   per-shard bounded-ring **flight recorder** of sim-time-stamped
//!   span events (admit → block alloc → each translate → refresh →
//!   expire).
//!
//! * [`chrome`] — a Chrome-trace / Perfetto JSON dump of the merged
//!   flight-recorder contents, and [`top`] — plain-ANSI rendering
//!   helpers for the `repro -- top` live dashboard.
//!
//! The engine-facing discipline is the same `Option`-slot rule as
//! `EventSink` and `EngineMetrics`: a [`ShardTracer`] lives behind an
//! `Option<Box<…>>` on each `Nat`, so a disabled tracer costs one
//! untaken branch per fire site (`benchmark/`'s untraced runs, read as
//! parent-vs-change pairs, hold that cost).
//!
//! [`Histogram`]: cgn_metrics::Histogram

pub mod chrome;
pub mod flow;
pub mod phase;
pub mod top;

pub use chrome::{chrome_trace_json, TraceDump, CHROME_SCHEMA};
pub use flow::{FlowKey, ShardTracer, SpanKind, TraceConfig, TraceEvent};
pub use phase::{Phase, PhaseClock, PhaseProfiler};
