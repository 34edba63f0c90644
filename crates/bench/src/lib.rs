//! # cgn-bench — experiment regeneration and Criterion benches
//!
//! * `src/bin/repro.rs` — regenerates every table and figure of the paper
//!   (`cargo run --release -p cgn-bench --bin repro`), and hosts the
//!   `dimensioning`, `detection`, `soak` and `top` modes;
//! * [`metrics_artifact`] — the `BENCH_metrics.json` / `.prom` artifact
//!   `repro -- dimensioning --metrics` writes;
//! * `benches/` — Criterion micro- and macro-benchmarks: NAT translation
//!   throughput, bencode/KRPC/STUN codecs, routing-table lookups, DHT
//!   crawl, detection pipelines, and the per-experiment regeneration
//!   benches (one per table/figure group) plus detector ablations.
//!
//! End-to-end throughput, per-layer cost and regression bounds are
//! measured by the separate `benchmark/` package, not here.

pub mod metrics_artifact;

/// Shared scale used by the experiment benches so their numbers are
/// comparable across runs.
pub fn bench_study_config(seed: u64) -> cgn_study::StudyConfig {
    cgn_study::StudyConfig::small(seed)
}
