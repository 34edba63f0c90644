//! Differential test: the **inbound** staging halves are
//! observationally identical to packet-at-a-time processing.
//!
//! Two layers, both property-based, mirroring `batch_vs_scalar`:
//!
//! * **raw engine** — mappings are established with scalar outbound
//!   packets (identically on both twins), then each window is answered
//!   by a generated inbound window: exact replies, same-IP/different-
//!   port replies, stranger replies, inbound ICMP errors and packets to
//!   unmapped ports — the full `ContactSet` filtering matrix. One twin
//!   takes them via `process_inbound`, the other via
//!   `stage_inbound_burst` / `translate_inbound_staged` (ICMP through
//!   `process_inbound` in its place) at windows of {1, 7, 64}, under
//!   every port allocation (random, sequential) × mapping × filtering
//!   behaviour with and without hairpinning
//!   and with either hairpin source. Verdicts, rewritten endpoints,
//!   `NatStats`, store occupancy and the per-connection telemetry log
//!   must be identical, and every packet conserved as one verdict.
//! * **driver** — full runs with the inbound-reply leg enabled
//!   (`inbound_reply_permille`) at burst {1, 7, 64} × threads
//!   {1, 2, 4} must reproduce the burst=1/threads=1 run's
//!   `RunSummary`, digest and per-shard telemetry logs bit-for-bit.

mod common;

use cgn_traffic::{DriverConfig, WorkloadMix};
use common::{behaviour_space, logged_nat, play, replies, script, step_strategy, POOL};
use nat_engine::telemetry::TelemetryMode;
use proptest::prelude::*;

/// Window sizes the engine-level property sweeps (1 = degenerate
/// scalar-equivalent chunking, 7 = never divides the group sizes, 64
/// = larger than most groups).
const BURSTS: [usize; 3] = [1, 7, 64];
/// Worker-thread counts the driver-level property sweeps.
const THREADS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_engine_inbound_burst_paths_are_observationally_identical(
        steps in proptest::collection::vec(step_strategy(8), 1..160),
        seed in any::<u64>(),
    ) {
        let script = script(&steps);
        for config in behaviour_space() {
            for burst in BURSTS {
                // Outbound packet at a time on both twins, so the only
                // divergence under test is the inbound pipeline.
                let twin = || logged_nat(&config, &POOL, seed);
                let scalar = play(twin(), &script, burst, (false, false), replies);
                let halves = play(twin(), &script, burst, (false, true), replies);
                prop_assert_eq!(scalar, halves, "{:?} burst={}", config, burst);
            }
        }
    }
}

fn driver_config(seed: u64, shards: u16, burst: usize, threads: usize) -> DriverConfig {
    let mut config = DriverConfig::new(WorkloadMix::all()[0].clone(), seed);
    config.subscribers = 120;
    config.shards = shards;
    config.external_ips_per_shard = 2;
    config.threads = threads;
    config.duration_secs = 90;
    config.sample_secs = 30;
    config.sweep_secs = 20;
    config.telemetry = TelemetryMode::PerConnection;
    config.burst = burst;
    config.inbound_reply_permille = 300;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn prop_driver_reply_leg_identical_across_bursts_and_threads(
        seed in any::<u64>(),
        shards in 1u16..=4,
    ) {
        let (reference, ref_logs) =
            cgn_traffic::run_with_logs(&driver_config(seed, shards, 1, 1));
        prop_assert!(reference.stats.in_packets > 0, "reply leg must fire");
        let ref_bytes: Vec<&[u8]> = ref_logs.iter().map(|l| l.bytes()).collect();
        for burst in BURSTS {
            for threads in THREADS {
                let (summary, logs) =
                    cgn_traffic::run_with_logs(&driver_config(seed, shards, burst, threads));
                prop_assert_eq!(
                    &summary,
                    &reference,
                    "summary diverged at burst={} threads={}",
                    burst,
                    threads
                );
                prop_assert_eq!(summary.digest(), reference.digest());
                let bytes: Vec<&[u8]> = logs.iter().map(|l| l.bytes()).collect();
                prop_assert_eq!(
                    &bytes,
                    &ref_bytes,
                    "per-shard logs diverged at burst={} threads={}",
                    burst,
                    threads
                );
            }
        }
    }
}
