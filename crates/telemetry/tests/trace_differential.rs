//! Traceability correctness: the interval index must answer every
//! probe exactly as a linear replay of the raw log does, and logs
//! produced through the real engine must attribute every mapping to
//! the right subscriber.

use cgn_telemetry::{decode_bytes, linear_scan, BinaryLogSink, Record, TraceIndex};
use nat_engine::config::{MappingBehavior, NatConfig, PortAllocation};
use nat_engine::telemetry::TelemetryMode;
use nat_engine::Nat;
use netcore::{ip, Endpoint, Packet, Protocol, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

fn sub(k: u32) -> Endpoint {
    Endpoint::new(Ipv4Addr::from(u32::from(ip(100, 64, 0, 0)) + k), 40_000)
}

fn pool() -> Vec<Ipv4Addr> {
    vec![ip(198, 51, 100, 1), ip(198, 51, 100, 2)]
}

/// Drive a Nat with a seeded flow schedule and recover its log.
fn engine_log(port_alloc: PortAllocation, mode: TelemetryMode, seed: u64) -> Vec<Record> {
    decode_bytes(&engine_log_bytes(port_alloc, mode, seed)).expect("engine log decodes")
}

/// The encoded bytes of [`engine_log`]'s log.
fn engine_log_bytes(port_alloc: PortAllocation, mode: TelemetryMode, seed: u64) -> Vec<u8> {
    let mut cfg = NatConfig::cgn_default();
    cfg.port_alloc = port_alloc;
    cfg.mapping = MappingBehavior::AddressAndPortDependent; // one mapping per flow
    let mut nat = Nat::new(cfg, pool(), seed);
    nat.set_sink(Box::new(BinaryLogSink::new(mode)));
    // Interleaved flow starts and sweeps: churn creates expiries,
    // reuse and (under PortBlock) block growth/returns.
    for round in 0..6u64 {
        let now = t(round * 45);
        for k in 0..12u32 {
            let dst = Endpoint::new(ip(203, 0, 113, (k % 5) as u8 + 1), 1000 + round as u16);
            let _ = nat.process_outbound(Packet::udp(sub(k % 7), dst, vec![]), now);
        }
        nat.sweep(t(round * 45 + 30));
    }
    nat.sweep(t(100_000));
    let log = BinaryLogSink::from_sink(nat.take_sink().expect("sink installed"))
        .expect("concrete sink")
        .into_log();
    log.bytes().to_vec()
}

#[test]
fn engine_per_connection_log_attributes_every_mapping() {
    let records = engine_log(PortAllocation::Random, TelemetryMode::PerConnection, 11);
    assert!(!records.is_empty());
    let index = TraceIndex::build(&records);
    let mut probes = 0;
    for r in &records {
        if let Record::MapCreate {
            at_ms,
            subscriber,
            proto,
            external,
        } = *r
        {
            assert_eq!(
                index.query(proto, external, at_ms),
                Some(subscriber),
                "create instant must attribute to the creator"
            );
            probes += 1;
        }
    }
    assert!(probes >= 30, "the schedule must exercise real churn");
}

#[test]
fn engine_block_log_attributes_every_block_port() {
    let records = engine_log(
        PortAllocation::PortBlock { block_size: 8 },
        TelemetryMode::PerBlock,
        13,
    );
    let creates = records
        .iter()
        .filter(|r| matches!(r, Record::BlockAlloc { .. }))
        .count();
    let releases = records
        .iter()
        .filter(|r| matches!(r, Record::BlockRelease { .. }))
        .count();
    assert!(creates >= 2, "block churn expected, got {creates} allocs");
    assert!(releases >= 1, "sweeps must return drained blocks");
    let index = TraceIndex::build(&records);
    for r in &records {
        if let Record::BlockAlloc {
            at_ms,
            subscriber,
            proto,
            ext_ip,
            block_start,
            block_len,
        } = *r
        {
            for offset in [0, block_len / 2, block_len - 1] {
                let probe = Endpoint::new(ext_ip, block_start + offset);
                assert_eq!(
                    index.query(proto, probe, at_ms),
                    Some(subscriber),
                    "every port of a granted block must attribute"
                );
            }
        }
    }
}

#[test]
fn block_logs_are_far_smaller_than_connection_logs() {
    // The paper's trade-off, end to end on the same flow schedule:
    // per-block logging must undercut per-connection by a wide margin.
    let per_conn = engine_log(PortAllocation::Random, TelemetryMode::PerConnection, 7).len();
    let per_block = engine_log(
        PortAllocation::PortBlock { block_size: 512 },
        TelemetryMode::PerBlock,
        7,
    )
    .len();
    assert!(
        per_block * 5 < per_conn,
        "block records ({per_block}) must be far fewer than connection records ({per_conn})"
    );
}

/// One synthetic lifecycle schedule: flows (create → expire) and block
/// grants encoded through the real codec, then probed at random.
#[derive(Debug, Clone)]
struct Flow {
    sub: u8,
    port_slot: u8,
    start_ms: u32,
    hold_ms: u32,
}

fn flow_strategy() -> impl Strategy<Value = Vec<Flow>> {
    proptest::collection::vec(
        (any::<u8>(), any::<u8>(), 0u32..500_000, 1u32..200_000).prop_map(
            |(sub, port_slot, start_ms, hold_ms)| Flow {
                sub,
                port_slot,
                start_ms,
                hold_ms,
            },
        ),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The satellite differential property: for random mapping
    /// schedules (with deliberate port reuse through the small
    /// `port_slot` space), the interval index answers every probe
    /// exactly like a sequential replay of the raw log.
    #[test]
    fn prop_index_matches_linear_scan(
        flows in flow_strategy(),
        probes in proptest::collection::vec((any::<u8>(), 0u64..800_000), 1..40),
    ) {
        // Build a valid, time-ordered log: sort lifecycle edges by
        // time; ports come from a 16-slot space so reuse and
        // same-millisecond handovers actually happen.
        let ext_ip = ip(198, 51, 100, 1);
        let mut edges: Vec<(u64, bool, u16, Ipv4Addr)> = Vec::new(); // (ms, is_create, port, sub)
        let mut holders: Vec<(u64, u64, u16)> = Vec::new(); // (start, end, port) accepted
        for f in &flows {
            let port = 5000 + (f.port_slot % 16) as u16;
            let (start, end) = (f.start_ms as u64, f.start_ms as u64 + f.hold_ms as u64);
            // Skip overlapping tenancies of the same port — a real
            // allocator never double-grants a port.
            if holders.iter().any(|&(s, e, p)| p == port && start < e && s < end) {
                continue;
            }
            holders.push((start, end, port));
            let sub_ip = Ipv4Addr::from(u32::from(ip(100, 64, 0, 0)) + f.sub as u32);
            edges.push((start, true, port, sub_ip));
            edges.push((end, false, port, sub_ip));
        }
        // Create-before-expire at equal timestamps would mean zero-length
        // tenancy twice on one port; order expire first (stable by port)
        // like the engine's remove-then-create hot path does.
        edges.sort_by_key(|&(ms, is_create, port, _)| (ms, is_create, port));
        let mut log = cgn_telemetry::EventLog::new();
        for (ms, is_create, port, sub_ip) in &edges {
            let at = SimTime::from_millis(*ms);
            let external = Endpoint::new(ext_ip, *port);
            if *is_create {
                log.map_create(at, *sub_ip, Protocol::Udp, external);
            } else {
                log.map_expire(at, Protocol::Udp, external);
            }
        }
        let records = log.decode().expect("valid log");
        let index = TraceIndex::build(&records);
        for (slot, at_ms) in probes {
            let probe = Endpoint::new(ext_ip, 5000 + (slot % 16) as u16);
            prop_assert_eq!(
                index.query(Protocol::Udp, probe, at_ms),
                linear_scan(&records, Protocol::Udp, probe, at_ms),
                "index and replay disagree at port {} t={}", probe.port, at_ms
            );
        }
    }

    /// Same differential property for block logs generated through the
    /// real allocator-driven engine, probing random ports and times.
    #[test]
    fn prop_block_index_matches_linear_scan(
        seed in any::<u64>(),
        probes in proptest::collection::vec((1000u16..1100, 0u64..400_000), 1..40),
    ) {
        let records = engine_log(
            PortAllocation::PortBlock { block_size: 8 },
            TelemetryMode::PerBlock,
            seed,
        );
        let index = TraceIndex::build(&records);
        for (port, at_ms) in probes {
            for proto in [Protocol::Udp, Protocol::Tcp] {
                let probe = Endpoint::new(ip(198, 51, 100, 1), port);
                prop_assert_eq!(
                    index.query(proto, probe, at_ms),
                    linear_scan(&records, proto, probe, at_ms)
                );
            }
        }
    }
}

/// Build an index over `records` and put every probe to it, each at
/// both pool addresses and both protocols, plus the four corners of
/// port and time. Only a panic can fail this.
fn probe_everything(records: &[Record], probes: &[(u16, u64)]) {
    let index = TraceIndex::build(records);
    let corners = [(0, 0), (0, u64::MAX), (u16::MAX, 0), (u16::MAX, u64::MAX)];
    for &(port, at_ms) in probes.iter().chain(&corners) {
        for ext_ip in pool() {
            for proto in [Protocol::Udp, Protocol::Tcp] {
                let _ = index.query(proto, Endpoint::new(ext_ip, port), at_ms);
            }
        }
    }
}

fn record_strategy() -> impl Strategy<Value = Record> {
    // Block lengths: 0, 0xFFFF or any.
    let len = (0u8..3, any::<u16>()).prop_map(|(edge, any)| [0, 0xFFFF, any][edge as usize]);
    (0u8..16, any::<u64>(), any::<u8>(), any::<u16>(), len).prop_map(
        |(bits, at_ms, sub, port, block_len)| {
            let subscriber = Ipv4Addr::from(u32::from(ip(100, 64, 0, 0)) + sub as u32);
            let proto = [Protocol::Udp, Protocol::Tcp][(bits >> 2 & 1) as usize];
            let ext_ip = pool()[(bits >> 3) as usize];
            let external = Endpoint::new(ext_ip, port);
            match bits & 3 {
                0 => Record::MapCreate {
                    at_ms,
                    subscriber,
                    proto,
                    external,
                },
                1 => Record::MapExpire {
                    at_ms,
                    proto,
                    external,
                },
                2 => Record::BlockAlloc {
                    at_ms,
                    subscriber,
                    proto,
                    ext_ip,
                    block_start: port,
                    block_len,
                },
                _ => Record::BlockRelease {
                    at_ms,
                    proto,
                    ext_ip,
                    block_start: port,
                },
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `TraceIndex` is total. An engine-written log in either mode, cut
    /// short and with one byte flipped, builds an index and answers 64
    /// probes (at time 0 and `u64::MAX`, ports 0 and 65535 among them)
    /// without panicking whenever it still decodes; so does an
    /// arbitrary unsorted record list with blocks of length 0 and
    /// 0xFFFF and blocks running past port 65535. Agreement with
    /// `linear_scan` is not asked: overlapping block grants in a
    /// damaged log can legitimately disagree.
    #[test]
    fn prop_trace_index_total(
        block_log in any::<bool>(),
        seed in any::<u64>(),
        flip in (any::<usize>(), any::<u8>()),
        cut in any::<usize>(),
        records in proptest::collection::vec(record_strategy(), 0..40),
        probes in proptest::collection::vec((any::<u16>(), any::<u64>()), 60),
    ) {
        let log = if block_log {
            engine_log_bytes(PortAllocation::PortBlock { block_size: 8 }, TelemetryMode::PerBlock, seed)
        } else {
            engine_log_bytes(PortAllocation::Random, TelemetryMode::PerConnection, seed)
        };
        prop_assert!(!log.is_empty());
        let mut bytes = log.clone();
        let at = flip.0 % bytes.len();
        bytes[at] ^= flip.1;
        let cut = cut % bytes.len();
        for mutated in [&bytes[..], &log[..cut], &bytes[..cut]] {
            if let Ok(decoded) = decode_bytes(mutated) {
                probe_everything(&decoded, &probes);
            }
        }
        probe_everything(&records, &probes);
    }
}
