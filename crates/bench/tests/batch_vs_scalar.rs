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
//!
//! Plus scripted engine-level cases aimed at the create path's
//! write-behind ext index (a create's external-index cell is written
//! a few creates after the mapping exists): hairpins to an endpoint
//! handed out one packet earlier, mappings created and expired on
//! touch inside one call, a burst of creates that grows the index,
//! and inbound replies right behind — per burst and per driver-style
//! window, at burst {1, 2, 7, 32, 128}.

use cgn_telemetry::BinaryLogSink;
use cgn_traffic::{DriverConfig, FlashCrowd, WorkloadMix};
use nat_engine::telemetry::TelemetryMode;
use nat_engine::{FilteringBehavior, MappingBehavior, Nat, NatConfig, NatVerdict, PortAllocation};
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

/// One scripted outbound packet and the millisecond it is sent at.
type Timed = (u64, Packet);

/// Everything a scripted run leaves behind that a caller can see.
#[derive(Debug, PartialEq)]
struct Observed {
    verdicts: Vec<NatVerdict>,
    stats: nat_engine::NatStats,
    store: nat_engine::StoreOccupancy,
    ports: Vec<nat_engine::PortOccupancy>,
    log: Vec<u8>,
}

/// How a scripted run hands its packets to the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Feed {
    /// `process_outbound` / `process_inbound`, one packet at a time.
    Scalar,
    /// One `process_burst` per run of packets sharing an instant.
    Burst,
    /// As the traffic driver does: one `stage_burst` over the whole
    /// chunk, then one `translate_staged` per instant.
    Window,
}

/// Play `script` in chunks of `chunk` packets (a chunk may span
/// instants). Right behind each chunk, every packet it got forwarded
/// is answered from the remote it was sent to, at the chunk's last
/// instant — the external endpoints the replies look up are the ones
/// the chunk has only just created.
fn play(config: &NatConfig, script: &[Timed], chunk: usize, feed: Feed) -> Observed {
    let mut nat = Nat::new(config.clone(), vec![Ipv4Addr::new(198, 18, 0, 1)], 5);
    nat.set_sink(Box::new(BinaryLogSink::new(TelemetryMode::PerConnection)));
    let mut verdicts: Vec<NatVerdict> = Vec::new();
    let mut clock = None; // phase laps are off
    for timed in script.chunks(chunk) {
        let first = verdicts.len();
        let pkts: Vec<Packet> = timed.iter().map(|(_, p)| p.clone()).collect();
        if feed == Feed::Window {
            nat.stage_burst(&pkts, &mut clock);
        }
        let mut pkts = pkts.into_iter();
        let mut instants = timed.iter().map(|t| t.0).peekable();
        while let Some(at_ms) = instants.next() {
            let mut same = 1;
            while instants.next_if_eq(&at_ms).is_some() {
                same += 1;
            }
            let now = SimTime::from_millis(at_ms);
            let run = pkts.by_ref().take(same);
            match feed {
                Feed::Scalar => verdicts.extend(run.map(|p| nat.process_outbound(p, now))),
                Feed::Burst => verdicts.extend(nat.process_burst(run.collect(), now)),
                Feed::Window => nat.translate_staged(run, now, &mut verdicts, &mut clock),
            }
        }
        let now = SimTime::from_millis(timed.last().expect("chunks are non-empty").0);
        let replies: Vec<Packet> = timed
            .iter()
            .zip(&verdicts[first..])
            .filter_map(|((_, sent), verdict)| match verdict {
                NatVerdict::Forward(out) => Some(Packet::udp(sent.dst, out.src, vec![9])),
                _ => None,
            })
            .collect();
        match feed {
            Feed::Scalar => {
                verdicts.extend(replies.into_iter().map(|p| nat.process_inbound(p, now)))
            }
            Feed::Burst => verdicts.extend(nat.process_inbound_burst(replies, now)),
            Feed::Window => {
                nat.stage_inbound_burst(&replies, &mut clock);
                nat.translate_inbound_staged(replies, now, &mut verdicts, &mut clock);
            }
        }
    }
    let end = SimTime::from_millis(script.last().map_or(0, |t| t.0) + 120_000);
    nat.sweep(end);
    Observed {
        verdicts,
        stats: nat.stats().clone(),
        store: nat.store_occupancy(),
        ports: nat.port_occupancy(),
        log: taken_log(&mut nat),
    }
}

/// Chunk sizes for the scripted cases: 1 (scalar-equivalent), sizes
/// below, at and far above the write-behind depth, and 128 — the
/// replay workloads' burst.
const CHUNKS: [usize; 5] = [1, 2, 7, 32, 128];

/// The scripted scalar run, after checking every chunked burst and
/// window run against it.
fn write_behind_is_invisible(config: &NatConfig, script: &[Timed]) -> Observed {
    for chunk in CHUNKS {
        // Scalar per chunk size too: the chunking decides when the
        // replies are sent.
        let scalar = play(config, script, chunk, Feed::Scalar);
        for feed in [Feed::Burst, Feed::Window] {
            let batched = play(config, script, chunk, feed);
            assert_eq!(scalar, batched, "chunk={chunk} {feed:?}");
        }
    }
    play(config, script, 1, Feed::Scalar)
}

fn scripted_src(host: u32, port: u16) -> Endpoint {
    Endpoint::new(
        Ipv4Addr::from(u32::from(Ipv4Addr::new(100, 64, 0, 1)) + host),
        port,
    )
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
            let src = scripted_src(k as u32 % 24, 3000 + k as u16);
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
                    Packet::udp(scripted_src(flow % 5, 4000 + flow as u16), dst, vec![1]),
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
