//! # cgn-bench — experiment regeneration
//!
//! * `src/bin/repro.rs` — regenerates every table and figure of the paper
//!   (`cargo run --release -p cgn-bench --bin repro`), and hosts the
//!   `dimensioning`, `detection`, `soak` and `top` modes;
//! * [`metrics_artifact`] — the `BENCH_metrics.json` / `.prom` artifact
//!   `repro -- dimensioning --metrics` writes.
//!
//! End-to-end throughput, per-layer cost and regression bounds are
//! measured by the separate `benchmark/` package, not here.

pub mod metrics_artifact;
