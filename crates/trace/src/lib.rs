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
//!   one-in-N flow-key sampler (the same mix64 discipline as
//!   `cgn_telemetry::SampledSink`, so the sampled set is identical
//!   for any thread count) feeding a per-shard bounded-ring **flight
//!   recorder** of sim-time-stamped span events
//!   (admit → block alloc → each translate → refresh → expire).
//!
//! * [`chrome`] — a Chrome-trace / Perfetto JSON dump of the merged
//!   flight-recorder contents, and [`top`] — plain-ANSI rendering
//!   helpers for the `repro -- top` live dashboard.
//!
//! The engine-facing discipline is the same `Option`-slot rule as
//! `EventSink` and `EngineMetrics`: a [`ShardTracer`] lives behind an
//! `Option<Box<…>>` on each `Nat`, so a disabled tracer costs one
//! untaken branch per fire site (CI gates the disabled cost at ≤ 2%).
//!
//! [`Histogram`]: cgn_metrics::Histogram

pub mod chrome;
pub mod flow;
pub mod phase;
pub mod top;

pub use chrome::{chrome_trace_json, TraceDump, CHROME_SCHEMA};
pub use flow::{FlowKey, ShardTracer, SpanKind, TraceConfig, TraceEvent};
pub use phase::{Phase, PhaseClock, PhaseProfiler};

/// SplitMix64 finalizer — bit-identical to `nat_engine::store::mix64`
/// (duplicated here because the dependency points the other way:
/// `nat-engine` consumes this crate). The cross-crate agreement is
/// pinned by a test in `nat-engine`.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
