//! # cgn-traffic — flow-level workload generation and CGN dimensioning
//!
//! The study measures deployed CGNs from the outside: port-allocation
//! strategies and per-subscriber port chunks (§6.2, Figs 8/9, Table 6),
//! NAT pooling (§6.2), mapping timeouts (§6.3, Fig. 12), and operator
//! constraints like per-customer session limits and 20:1
//! address-sharing ratios (§2's survey). This crate turns those
//! findings around and asks the **operator-side question** they imply:
//! *how much port and state capacity does a CGN need for a given
//! subscriber population and traffic mix?*
//!
//! Three pieces answer it:
//!
//! * [`workload`] — per-subscriber flow generators for five application
//!   classes, each stressing a different CGN resource the paper
//!   observes:
//!   - **web**: mapping churn under short timeouts (Fig. 12),
//!   - **streaming**: long-lived established-TCP state (RFC 5382's
//!     2 h 4 min floor),
//!   - **p2p**: the fan-out that port chunks (Fig. 8c, Table 6) and
//!     session limits (§2) exist to contain,
//!   - **gaming/VoIP**: keepalive-dependent UDP riding on 10–200 s
//!     timeouts (Fig. 12),
//!   - **iot/idle**: the near-idle tail that makes 20:1 sharing (§2)
//!     feasible;
//!
//!   plus population [`modulation`] (diurnal curve, flash crowds) —
//!   demand peaks are what operators provision for;
//! * [`driver`] — a deterministic, sharded, epoch-parallel event
//!   engine: subscribers are hashed to the shards of a
//!   [`nat_engine::ShardedNat`], each shard runs its own binary-heap
//!   event loop between sweep/sample barriers, and worker threads
//!   advance shards concurrently with bit-identical results for every
//!   thread count — exercising mapping creation, refresh,
//!   sweep/timeout and drop paths at millions-of-flows scale;
//! * `analysis::port_demand` (in the `analysis` crate) — consumes the
//!   sampled [`analysis::port_demand::DemandSeries`] and produces the
//!   dimensioning report: peak/percentile port demand, external-IP
//!   multiplexing factors, and the chunk-size vs. blocking-probability
//!   curve that connects directly to the 512..16K chunk sizes of §6.2.
//!
//! Everything is seeded and deterministic: the same
//! [`driver::DriverConfig`] always yields an identical
//! [`driver::RunSummary`] (see [`driver::RunSummary::digest`]).
//!
//! ```
//! use cgn_traffic::{DriverConfig, WorkloadMix};
//!
//! let mut cfg = DriverConfig::new(WorkloadMix::residential_evening(), 42);
//! cfg.subscribers = 500;
//! cfg.duration_secs = 120;
//! let summary = cgn_traffic::run(&cfg);
//! assert!(summary.flows_started > 0);
//! assert_eq!(summary.digest(), cgn_traffic::run(&cfg).digest());
//! ```

pub mod background;
pub mod driver;
pub mod modulation;
mod wheel;
pub mod workload;

pub use background::{drive as drive_background, BackgroundLoad, LoadSummary, PeerObservation};
pub use cgn_trace::TraceConfig;
pub use driver::{
    run, run_with_logs, shard_of_subscriber, shard_pool, subscriber_ip, DriverConfig,
    DriverSession, MetricsSummary, MetricsWindow, RunSummary, SessionHealth, TelemetrySummary,
    DEFAULT_BURST, METRICS_RETENTION,
};
pub use modulation::{DiurnalCurve, FlashCrowd, Modulation};
pub use workload::{AppParams, AppProfile, WorkloadMix};
