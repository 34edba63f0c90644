//! Differential test: the staging halves over `Header`s are
//! observationally identical to packet-at-a-time processing at the
//! `Packet` boundary.
//!
//! Two layers, both property-based:
//!
//! * **raw engine** — arbitrary outbound packet sequences (UDP, TCP
//!   with arbitrary flags, ICMP pass-through, packets addressed to the
//!   NAT's own pool; arbitrary timing with frequent same-millisecond
//!   groups; periodic sweeps), each window answered inbound, are fed to
//!   one `Nat` via `process_outbound` / `process_inbound` and to a twin
//!   via the halves in windows of {1, 7, 64} packets that span several
//!   instants, under every port allocation (random, sequential) ×
//!   mapping × filtering behaviour with and without hairpinning and
//!   with either hairpin source. Verdicts,
//!   rewritten endpoints, `NatStats`, store and port occupancy and the
//!   per-connection telemetry log must be identical, and every packet
//!   must be conserved as exactly one verdict.
//! * **driver** — full traffic-driver runs at burst {1, 7, 64} ×
//!   threads {1, 2, 4} must reproduce the burst=1/threads=1 run's
//!   `RunSummary`, digest and per-shard telemetry logs bit-for-bit;
//!   and again at burst {1, 2, 7, 32, 1024} under a configuration
//!   whose windows hold refused flows and refused keepalives.
//!
//! Plus scripted engine-level cases aimed at the create path's
//! write-behind ext index (a create's external-index cell is written
//! a few creates after the mapping exists): hairpins to an endpoint
//! handed out one packet earlier, mappings created and expired on
//! touch inside one call, a burst of creates that grows the index,
//! and inbound replies right behind — at windows of {1, 2, 7, 32, 128}.

mod common;

use cgn_traffic::{DriverConfig, FlashCrowd, WorkloadMix};
use common::{
    behaviour_space, logged_nat, play, replies, script, src_of, step_strategy, Observed, Timed,
};
use nat_engine::telemetry::TelemetryMode;
use nat_engine::{FilteringBehavior, MappingBehavior, NatConfig, PortAllocation};
use netcore::{Endpoint, Packet, SimDuration};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Window sizes the engine-level property sweeps (1 = degenerate
/// scalar-equivalent chunking, 7 = never divides the group sizes, 64
/// = larger than most groups).
const BURSTS: [usize; 3] = [1, 7, 64];
/// Worker-thread counts the driver-level property sweeps.
const THREADS: [usize; 3] = [1, 2, 4];

/// Play the same script one packet at a time and through the halves,
/// both directions, and compare every observable.
fn engine_equivalence(config: &NatConfig, script: &[Timed], chunk: usize, seed: u64) -> Observed {
    let twin = || logged_nat(config, &common::POOL, seed);
    let scalar = play(twin(), script, chunk, (false, false), replies);
    let halves = play(twin(), script, chunk, (true, true), replies);
    assert_eq!(scalar, halves, "{config:?} chunk={chunk}");
    scalar
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_engine_burst_paths_are_observationally_identical(
        steps in proptest::collection::vec(step_strategy(8), 1..160),
        seed in any::<u64>(),
    ) {
        let script = script(&steps);
        for config in behaviour_space() {
            for burst in BURSTS {
                engine_equivalence(&config, &script, burst, seed);
            }
        }
    }
}

/// The property's space is actually reached: over a fixed script, the
/// sequential-port behaviours that hairpin do, and the ones that do not
/// refuse to. (Random ports rarely land where the script aims.)
#[test]
fn behaviour_space_reaches_both_hairpin_branches() {
    let steps: Vec<common::Step> = (0..400u32)
        .map(|k| common::Step {
            host: (k % 24) as u8,
            port: (k / 24 % 6) as u8,
            dst: (k * 37 % 256) as u8,
            kind: (k % 7) as u8,
            gap_ms: (k % 5 == 0) as u8,
        })
        .collect();
    let script = script(&steps);
    let sequential = behaviour_space()
        .into_iter()
        .filter(|c| c.port_alloc == PortAllocation::Sequential);
    for config in sequential {
        let seen = engine_equivalence(&config, &script, 32, 3);
        let taken = match config.hairpinning {
            true => seen.stats.hairpins,
            false => seen.stats.drop_no_hairpin,
        };
        assert!(taken > 0, "{config:?}: {:?}", seen.stats);
    }
}

/// A young NAT's slot arenas double their first chunk (moving rows)
/// while it fills. One window that mixes refreshes of existing mappings
/// with enough new flows to force several of those moves must still
/// match the scalar path: slot hints resolved in the burst's first
/// pass are ids, not addresses.
#[test]
fn burst_straddling_arena_promotions_matches_scalar() {
    let flow = |host: usize, port: usize, gap_ms: u8| common::Step {
        host: host as u8,
        port: port as u8,
        dst: 0,
        kind: 0,
        gap_ms,
    };
    // 100 mappings up front, then one same-millisecond group that
    // alternates a refresh of one of them with a new flow: 200 more
    // mappings, so the group's bursts carry the store from 100 to 300
    // slots.
    let mut steps: Vec<common::Step> = (0..100).map(|i| flow(i % 50, i / 50, 0)).collect();
    for i in 0..200 {
        steps.push(flow(i % 50, (i / 50) % 2, if i == 0 { 5 } else { 0 }));
        steps.push(flow(50 + i % 50, i / 50, 0));
    }
    let script = script(&steps);
    let config = NatConfig::cgn_default();
    let no_replies = |_: &[Timed], _: &[common::Seen], _: usize| Vec::new();
    let twin = || logged_nat(&config, &common::POOL, 1);
    let grown = play(twin(), &script, 500, (true, true), no_replies);
    assert_eq!(grown.store.slots, 300, "the scenario grows the arena");
    for burst in [7, 64, 400] {
        engine_equivalence(&config, &script, burst, 1);
    }
}

/// Chunk sizes for the scripted cases: 1 (scalar-equivalent), sizes
/// below, at and far above the write-behind depth, and 128 — the
/// replay workloads' burst.
const CHUNKS: [usize; 5] = [1, 2, 7, 32, 128];

/// The scripted scalar run, after checking every chunked run through
/// the halves against it. Every forwarded packet is answered from the
/// remote it was sent to, right behind its window — the external
/// endpoints the replies look up are the ones the window has only just
/// created.
fn write_behind_is_invisible(config: &NatConfig, script: &[Timed]) -> Observed {
    let answer = |_: &[Timed], seen: &[common::Seen], _: usize| -> Vec<Packet> {
        seen.iter()
            .filter_map(|s| match *s {
                (nat_engine::HeaderVerdict::Forward, Some((ext, remote))) => {
                    Some(Packet::udp(remote, ext, vec![9]))
                }
                _ => None,
            })
            .collect()
    };
    let twin = || logged_nat(config, &[Ipv4Addr::new(198, 18, 0, 1)], 5);
    for chunk in CHUNKS {
        // Scalar per chunk size too: the chunking decides when the
        // replies are sent.
        let scalar = play(twin(), script, chunk, (false, false), answer);
        let halves = play(twin(), script, chunk, (true, true), answer);
        assert_eq!(scalar, halves, "chunk={chunk}");
    }
    play(twin(), script, 1, (false, false), answer)
}

/// (a) + (c) + (d): every packet opens a mapping, and under sequential
/// allocation on one address the `k`-th gets port `1024 + k` — so a
/// packet can be addressed to the external endpoint an earlier one of
/// its own burst is about to be given. Two packets in five hairpin:
/// to the endpoint created one packet earlier (its index cell still
/// written behind), and to one created nine packets earlier (just
/// written). 300 creates from an empty table take the ext index
/// through five growths, all inside bursts at chunk 128.
#[test]
fn hairpins_to_endpoints_created_in_the_same_burst_match_scalar() {
    let mut config = NatConfig::cgn_default();
    config.mapping = MappingBehavior::AddressAndPortDependent;
    config.filtering = FilteringBehavior::EndpointIndependent;
    config.port_alloc = PortAllocation::Sequential;
    let ext = |k: u64| Endpoint::new(Ipv4Addr::new(198, 18, 0, 1), 1024 + k as u16);
    let script: Vec<Timed> = (0..300u64)
        .map(|k| {
            let dst = match k % 5 {
                2 => ext(k - 1),
                4 if k >= 9 => ext(k - 9),
                _ => Endpoint::new(Ipv4Addr::new(203, 0, 113, 1 + (k % 7) as u8), 443),
            };
            let src = src_of(k as u32 % 24, 3000 + k as u16);
            (k / 6, Packet::udp(src, dst, vec![1]))
        })
        .collect();
    let seen = write_behind_is_invisible(&config, &script);
    assert_eq!(seen.stats.mappings_created, 300, "a mapping per packet");
    assert_eq!(seen.stats.hairpins, 119, "every hairpin found its target");
    assert_eq!(seen.stats.drops, 0);
}

/// (b) + (d): with a zero idle timeout a mapping is expired the
/// instant it exists, so the second packet of a flow in the same
/// millisecond removes what the first created — while its ext-index
/// cell may still be written behind — and creates it again; the reply
/// right behind removes it once more. With 1 ms the same happens
/// across the instants of one window. Port blocks of four put block
/// grants and returns in the log.
#[test]
fn mappings_created_and_expired_inside_one_call_match_scalar() {
    for timeout_ms in [0, 1] {
        let mut config = NatConfig::cgn_default();
        config.udp_timeout = SimDuration::from_millis(timeout_ms);
        config.port_alloc = PortAllocation::PortBlock { block_size: 4 };
        let script: Vec<Timed> = (0..240u64)
            .map(|k| {
                // Six flows a millisecond, each sent twice in it.
                let flow = (k % 12 / 2 + k / 12 % 2 * 3) as u32;
                let dst = Endpoint::new(Ipv4Addr::new(203, 0, 113, 9), 443);
                (
                    k / 12,
                    Packet::udp(src_of(flow % 5, 4000 + flow as u16), dst, vec![1]),
                )
            })
            .collect();
        let seen = write_behind_is_invisible(&config, &script);
        assert!(
            seen.stats.mappings_expired >= 100 && seen.stats.mappings_created >= 100,
            "timeout {timeout_ms} ms: {:?}",
            seen.stats
        );
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
    config
}

/// The window rule under verdict-dependent commits: 48 ports per
/// address and twelve sessions per host refuse most of a flash crowd
/// whose next arrivals are a millisecond or two out, timeouts shorter
/// than the keepalive interval get keepalives refused, and a mostly-TCP
/// mix tears flows down in the same windows; a quarter of forwarded
/// packets is answered.
fn hostile_driver_config(seed: u64, shards: u16) -> DriverConfig {
    let mut config = driver_config(seed, shards, 1, 1);
    config.duration_secs = 60;
    config.sample_secs = 20;
    config.sweep_secs = 15;
    config.nat.port_range = (1024, 1024 + 47);
    config.nat.max_sessions_per_host = Some(12);
    config.nat.udp_timeout = SimDuration::from_secs(4);
    config.nat.tcp_transitory_timeout = SimDuration::from_secs(4);
    config.nat.tcp_established_timeout = SimDuration::from_secs(8);
    config.inbound_reply_permille = 250;
    config.modulation.flash = Some(FlashCrowd::new(20, 23, 5_000.0));
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn prop_driver_windows_holding_drops_are_identical_across_bursts_and_threads(
        seed in any::<u64>(),
        shards in 1u16..=3,
    ) {
        let mut config = hostile_driver_config(seed, shards);
        let (reference, ref_logs) = cgn_traffic::run_with_logs(&config);
        prop_assert!(reference.stats.drop_session_limit > 0, "first packets refused");
        prop_assert!(reference.stats.drops > reference.flows_blocked, "keepalives refused");
        let ref_bytes: Vec<&[u8]> = ref_logs.iter().map(|l| l.bytes()).collect();
        for burst in [2, 7, 32, 1024] {
            for threads in THREADS {
                config.burst = burst;
                config.threads = threads;
                let (summary, logs) = cgn_traffic::run_with_logs(&config);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_driver_runs_identical_across_bursts_and_threads(
        seed in any::<u64>(),
        shards in 1u16..=4,
    ) {
        let (reference, ref_logs) =
            cgn_traffic::run_with_logs(&driver_config(seed, shards, 1, 1));
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
