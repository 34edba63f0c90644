//! Differential test: the burst pipeline is observationally identical
//! to packet-at-a-time processing.
//!
//! Two layers, both property-based:
//!
//! * **raw engine** — arbitrary outbound packet sequences (UDP, TCP
//!   with arbitrary flags, ICMP pass-through; arbitrary timing with
//!   frequent same-millisecond groups; periodic sweeps) are fed to one
//!   `Nat` via `process_outbound` and to a twin via `process_burst` at
//!   burst sizes {1, 7, 64}. Verdicts, `NatStats`, store occupancy,
//!   per-host port usage and the per-connection telemetry log must be
//!   byte-identical.
//! * **driver** — full traffic-driver runs at burst {1, 7, 64} ×
//!   threads {1, 2, 4} must reproduce the burst=1/threads=1 run's
//!   `RunSummary`, digest and per-shard telemetry logs bit-for-bit;
//!   and again at burst {1, 2, 7, 32, 1024} under a configuration
//!   whose windows hold refused flows and refused keepalives.

use cgn_telemetry::BinaryLogSink;
use cgn_traffic::{DriverConfig, FlashCrowd, WorkloadMix};
use nat_engine::telemetry::TelemetryMode;
use nat_engine::{Nat, NatConfig, NatVerdict};
use netcore::{Endpoint, IcmpKind, Packet, PacketBody, SimDuration, SimTime, TcpFlags};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Burst sizes the engine-level property sweeps (1 = degenerate
/// scalar-equivalent chunking, 7 = never divides the group sizes, 64
/// = larger than most groups).
const BURSTS: [usize; 3] = [1, 7, 64];
/// Worker-thread counts the driver-level property sweeps.
const THREADS: [usize; 3] = [1, 2, 4];

/// One generated outbound packet: which host sends, to which
/// destination, what transport, and how many milliseconds after the
/// previous packet (0 keeps it in the same burst group).
#[derive(Debug, Clone)]
struct Step {
    host: u8,
    port: u8,
    dst: u8,
    kind: u8,
    gap_ms: u8,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(|(host, port, dst, kind, gap)| Step {
            host: host % 24,
            port: port % 6,
            dst: dst % 5,
            kind: kind % 8,
            // Bias toward 0 so most packets share a timestamp and
            // burst groups actually fill.
            gap_ms: if gap % 4 == 0 { gap % 16 } else { 0 },
        })
}

fn packet(step: &Step) -> Packet {
    let src = Endpoint::new(
        Ipv4Addr::from(u32::from(Ipv4Addr::new(100, 64, 0, 1)) + step.host as u32),
        2000 + step.port as u16 * 13,
    );
    let dst = Endpoint::new(
        Ipv4Addr::from(u32::from(Ipv4Addr::new(203, 0, 113, 1)) + step.dst as u32),
        443 + step.dst as u16,
    );
    match step.kind {
        0..=3 => Packet::udp(src, dst, vec![step.kind]),
        4 => Packet::tcp(src, dst, TcpFlags::SYN, Vec::new()),
        5 => Packet::tcp(src, dst, TcpFlags::ACK, Vec::new()),
        6 => Packet::tcp(src, dst, TcpFlags::FIN, Vec::new()),
        _ => Packet {
            src,
            dst,
            ttl: 64,
            body: PacketBody::Icmp {
                kind: IcmpKind::TtlExceeded,
                original_src: src,
                original_dst: dst,
            },
        },
    }
}

fn fresh_nat(seed: u64) -> Nat {
    let ips = vec![Ipv4Addr::new(198, 18, 0, 1), Ipv4Addr::new(198, 18, 0, 2)];
    let mut nat = Nat::new(NatConfig::cgn_default(), ips, seed);
    nat.set_sink(Box::new(BinaryLogSink::new(TelemetryMode::PerConnection)));
    nat
}

fn taken_log(nat: &mut Nat) -> Vec<u8> {
    let sink = nat.take_sink().expect("sink installed");
    BinaryLogSink::from_sink(sink)
        .expect("sink is a BinaryLogSink")
        .into_log()
        .bytes()
        .to_vec()
}

/// Group the steps into same-timestamp packet groups, exactly like the
/// driver's millisecond event batches.
fn groups(steps: &[Step]) -> Vec<(SimTime, Vec<Packet>)> {
    let mut out: Vec<(SimTime, Vec<Packet>)> = Vec::new();
    let mut at_ms = 0u64;
    for step in steps {
        at_ms += step.gap_ms as u64;
        let pkt = packet(step);
        match out.last_mut() {
            Some((t, group)) if *t == SimTime::from_millis(at_ms) => group.push(pkt),
            _ => out.push((SimTime::from_millis(at_ms), vec![pkt])),
        }
    }
    out
}

/// Feed the same groups through both paths and compare every
/// observable the engine exposes.
fn engine_equivalence(steps: &[Step], burst: usize, seed: u64) {
    let groups = groups(steps);
    let mut scalar = fresh_nat(seed);
    let mut scalar_verdicts: Vec<NatVerdict> = Vec::new();
    for (i, (now, group)) in groups.iter().enumerate() {
        for pkt in group {
            scalar_verdicts.push(scalar.process_outbound(pkt.clone(), *now));
        }
        if i % 16 == 15 {
            scalar.sweep(*now);
        }
    }

    let mut batched = fresh_nat(seed);
    let mut batched_verdicts: Vec<NatVerdict> = Vec::new();
    for (i, (now, group)) in groups.iter().enumerate() {
        for chunk in group.chunks(burst.max(1)) {
            batched_verdicts.extend(batched.process_burst(chunk.to_vec(), *now));
        }
        if i % 16 == 15 {
            batched.sweep(*now);
        }
    }

    assert_eq!(scalar_verdicts, batched_verdicts, "burst={burst} verdicts");
    assert_eq!(scalar.stats(), batched.stats(), "burst={burst} NatStats");
    assert_eq!(
        scalar.store_occupancy(),
        batched.store_occupancy(),
        "burst={burst} store occupancy"
    );
    let last = groups.last().map(|(t, _)| *t).unwrap_or(SimTime::ZERO);
    assert_eq!(
        scalar.ports_by_host(last),
        batched.ports_by_host(last),
        "burst={burst} per-host port usage"
    );
    assert_eq!(
        scalar.port_occupancy(),
        batched.port_occupancy(),
        "burst={burst} port occupancy"
    );
    assert_eq!(
        taken_log(&mut scalar),
        taken_log(&mut batched),
        "burst={burst} telemetry log bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_engine_burst_paths_are_observationally_identical(
        steps in proptest::collection::vec(step_strategy(), 1..200),
        seed in any::<u64>(),
    ) {
        for burst in BURSTS {
            engine_equivalence(&steps, burst, seed);
        }
    }
}

/// A young NAT's slot arenas double their first chunk (moving rows)
/// while it fills. One burst that mixes refreshes of existing mappings
/// with enough new flows to force several of those moves must still
/// match the scalar path: slot hints resolved in the burst's first
/// pass are ids, not addresses.
#[test]
fn burst_straddling_arena_promotions_matches_scalar() {
    let flow = |host: usize, port: usize, gap_ms: u8| Step {
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
    let mut steps: Vec<Step> = (0..100).map(|i| flow(i % 50, i / 50, 0)).collect();
    for i in 0..200 {
        steps.push(flow(i % 50, (i / 50) % 2, if i == 0 { 5 } else { 0 }));
        steps.push(flow(50 + i % 50, i / 50, 0));
    }
    let mut nat = fresh_nat(1);
    for (now, group) in groups(&steps) {
        nat.process_burst(group, now);
    }
    assert_eq!(
        nat.store_occupancy().slots,
        300,
        "the scenario grows the arena"
    );
    for burst in [7, 64, 400] {
        engine_equivalence(&steps, burst, 1);
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
