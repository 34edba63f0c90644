//! The harness both differential tests share: a script of timed
//! outbound packets is played through one `Nat` a packet at a time
//! (`process_outbound` / `process_inbound`) and through a twin's staging
//! halves (`stage_burst` / `translate_staged` and the inbound pair),
//! each window answered inbound right behind it, and everything a
//! caller can see is collected for comparison.
//!
//! A window is `chunk` packets of the script and may span several
//! instants: the halves stage it once and translate it one instant at a
//! time, as the traffic driver does. ICMP has no header; it goes
//! through the `Packet` boundary in its place on both twins.
//!
//! The twins carry every observer the engine has ([`probed_nat`]), so
//! their logs and flight recorders are compared too; a third, bare
//! twin ([`bare_nat`]) holds the observers to changing nothing a
//! caller sees ([`assert_probe_invisible`]).

#![allow(dead_code)] // each test binary uses its own part

use cgn_telemetry::BinaryLogSink;
use cgn_trace::{ShardTracer, TraceConfig, TraceEvent};
use nat_engine::telemetry::TelemetryMode;
use nat_engine::{
    EngineMetrics, FilteringBehavior, Header, HeaderVerdict, MappingBehavior, Nat, NatConfig,
    NatStats, NatVerdict, PortAllocation, PortOccupancy, StoreOccupancy,
};
use netcore::{Endpoint, IcmpKind, Packet, PacketBody, SimTime, TcpFlags};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// The external pool of every twin.
pub const POOL: [Ipv4Addr; 2] = [Ipv4Addr::new(198, 18, 0, 1), Ipv4Addr::new(198, 18, 0, 2)];

/// One packet of a script and the millisecond it is sent at.
pub type Timed = (u64, Packet);

/// What a caller sees of one packet: the verdict, and the rewritten
/// endpoints unless it was dropped.
pub type Seen = (HeaderVerdict, Option<(Endpoint, Endpoint)>);

fn seen_header(v: HeaderVerdict, h: &Header) -> Seen {
    (
        v,
        (!matches!(v, HeaderVerdict::Drop(_))).then_some((h.src, h.dst)),
    )
}

fn seen_packet(v: NatVerdict) -> Seen {
    match v {
        NatVerdict::Forward(p) => (HeaderVerdict::Forward, Some((p.src, p.dst))),
        NatVerdict::Hairpin(p) => (HeaderVerdict::Hairpin, Some((p.src, p.dst))),
        NatVerdict::Drop(r) => (HeaderVerdict::Drop(r), None),
    }
}

/// Everything a played script leaves behind that a caller can see.
#[derive(Debug, PartialEq)]
pub struct Observed {
    pub seen: Vec<Seen>,
    pub stats: NatStats,
    pub store: StoreOccupancy,
    pub ports: Vec<PortOccupancy>,
    /// The per-connection log; empty without a sink.
    pub log: Vec<u8>,
    /// The flight recorder, oldest first; empty without a tracer.
    pub trace: Vec<TraceEvent>,
}

/// A NAT with nothing installed.
pub fn bare_nat(config: &NatConfig, pool: &[Ipv4Addr], seed: u64) -> Nat {
    Nat::new(config.clone(), pool.to_vec(), seed)
}

/// A NAT with every observer installed: a per-connection telemetry
/// log (its bytes are compared), a metrics registry, and a tracer that
/// samples every flow (its events are compared) and times phases.
pub fn probed_nat(config: &NatConfig, pool: &[Ipv4Addr], seed: u64) -> Nat {
    let mut nat = bare_nat(config, pool, seed);
    nat.set_sink(Box::new(BinaryLogSink::new(TelemetryMode::PerConnection)));
    nat.set_metrics(Box::<EngineMetrics>::default());
    nat.set_tracer(Box::new(ShardTracer::new(0, &TraceConfig::sampled(1))));
    nat
}

/// Observing is observation only: a run of [`bare_nat`] saw what the
/// same run of [`probed_nat`] did.
pub fn assert_probe_invisible(probed: &Observed, bare: &Observed) {
    assert_eq!(probed.seen, bare.seen, "verdicts");
    assert_eq!(probed.stats, bare.stats, "stats");
    assert_eq!(probed.store, bare.store, "store occupancy");
    assert_eq!(probed.ports, bare.ports, "port occupancy");
}

/// Feed one window, one packet at a time or through the halves.
fn feed(nat: &mut Nat, window: &[Timed], inbound: bool, halves: bool, seen: &mut Vec<Seen>) {
    let scalar = |nat: &mut Nat, (at, p): &Timed| {
        let now = SimTime::from_millis(*at);
        seen_packet(match inbound {
            true => nat.process_inbound(p.clone(), now),
            false => nat.process_outbound(p.clone(), now),
        })
    };
    if !halves {
        seen.extend(window.iter().map(|t| scalar(nat, t)));
        return;
    }
    let mut clock = nat.phase_clock();
    let mut headers: Vec<Header> = window.iter().filter_map(|(_, p)| Header::of(p)).collect();
    match inbound {
        true => nat.stage_inbound_burst(&headers, &mut clock),
        false => nat.stage_burst(&headers, &mut clock),
    }
    let (mut i, mut next, mut verdicts) = (0, 0, Vec::new());
    while i < window.len() {
        // The longest run of headers at one instant, or one ICMP packet.
        let at = window[i].0;
        let run = window[i..]
            .iter()
            .take_while(|(t, p)| *t == at && p.protocol().is_some())
            .count();
        if run == 0 {
            seen.push(scalar(nat, &window[i]));
            i += 1;
            continue;
        }
        let now = SimTime::from_millis(at);
        let run_headers = &mut headers[next..next + run];
        match inbound {
            true => nat.translate_inbound_staged(run_headers, now, &mut verdicts, &mut clock),
            false => nat.translate_staged(run_headers, now, &mut verdicts, &mut clock),
        }
        seen.extend(
            verdicts
                .drain(..)
                .zip(run_headers.iter())
                .map(|(v, h)| seen_header(v, h)),
        );
        (i, next) = (i + run, next + run);
    }
}

/// Play `script` in windows of `chunk` packets. Right behind each
/// window, `replies` answers it at the window's last instant from what
/// the window was given; `halves` picks the feed per direction
/// (outbound, inbound). Every sixteenth window is followed by a sweep.
pub fn play(
    mut nat: Nat,
    script: &[Timed],
    chunk: usize,
    halves: (bool, bool),
    replies: impl Fn(&[Timed], &[Seen], usize) -> Vec<Packet>,
) -> Observed {
    let mut seen = Vec::new();
    for (i, window) in script.chunks(chunk.max(1)).enumerate() {
        let first = seen.len();
        feed(&mut nat, window, false, halves.0, &mut seen);
        let at = window.last().expect("chunks are non-empty").0;
        let answers: Vec<Timed> = replies(window, &seen[first..], i)
            .into_iter()
            .map(|p| (at, p))
            .collect();
        feed(&mut nat, &answers, true, halves.1, &mut seen);
        if i % 16 == 15 {
            nat.sweep(SimTime::from_millis(at));
        }
    }
    let end = script.last().map_or(0, |t| t.0) + 120_000;
    nat.sweep(SimTime::from_millis(end));
    let log = nat.take_sink().map_or_else(Vec::new, |sink| {
        let sink = BinaryLogSink::from_sink(sink).expect("sink is a BinaryLogSink");
        sink.into_log().bytes().to_vec()
    });
    let observed = Observed {
        seen,
        stats: nat.stats().clone(),
        store: nat.store_occupancy(),
        ports: nat.port_occupancy(),
        log,
        trace: nat
            .tracer()
            .map_or_else(Vec::new, |t| t.events().copied().collect()),
    };
    assert_conserved(&observed);
    observed
}

/// The conservation laws: every packet handed in got exactly one
/// verdict, every drop exactly one counted reason; and on the port
/// side, every live mapping holds one allocated port, and mappings
/// created less mappings expired is what is live.
pub fn assert_conserved(o: &Observed) {
    let count = |kind: fn(&HeaderVerdict) -> bool| o.seen.iter().filter(|s| kind(&s.0)).count();
    let forwarded = count(|v| *v == HeaderVerdict::Forward) as u64;
    let hairpins = count(|v| *v == HeaderVerdict::Hairpin) as u64;
    let drops = count(|v| matches!(v, HeaderVerdict::Drop(_))) as u64;
    let s = &o.stats;
    assert_eq!(
        s.out_packets + s.in_packets,
        forwarded + hairpins + drops,
        "every packet one verdict"
    );
    assert_eq!(s.hairpins, hairpins, "hairpins");
    assert_eq!(s.drops, drops, "drops");
    assert_eq!(
        s.drops,
        s.drop_no_mapping
            + s.drop_filtered
            + s.drop_port_exhausted
            + s.drop_session_limit
            + s.drop_no_hairpin
            + s.drop_unmatched_icmp,
        "every drop one reason"
    );
    let allocated: usize = o.ports.iter().map(|p| p.allocated).sum();
    assert_eq!(allocated as u64, o.store.live, "allocated ports = live");
    assert_eq!(
        s.mappings_created - s.mappings_expired,
        o.store.live,
        "created - expired = live"
    );
}

/// One generated outbound packet: which host sends, to which
/// destination, what transport, and how many milliseconds after the
/// previous packet (0 keeps it in the same instant).
#[derive(Debug, Clone)]
pub struct Step {
    pub host: u8,
    pub port: u8,
    pub dst: u8,
    pub kind: u8,
    pub gap_ms: u8,
}

/// Steps over 24 hosts × 6 ports. `kinds` bounds the transport cycle
/// (UDP ×4, SYN, ACK, FIN, ICMP); an eighth of destinations are the
/// NAT's own pool.
pub fn step_strategy(kinds: u8) -> impl Strategy<Value = Step> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(move |(host, port, dst, kind, gap)| Step {
            host: host % 24,
            port: port % 6,
            dst,
            kind: kind % kinds,
            // Bias toward 0 so most packets share an instant.
            gap_ms: if gap % 4 == 0 { gap % 16 } else { 0 },
        })
}

pub fn src_of(host: u32, port: u16) -> Endpoint {
    Endpoint::new(
        Ipv4Addr::from(u32::from(Ipv4Addr::new(100, 64, 0, 1)) + host),
        port,
    )
}

/// The step's packet. Destinations in the own pool land on the lowest
/// ports sequential allocation hands out, so most hit a mapping.
pub fn packet(step: &Step) -> Packet {
    let src = src_of(step.host as u32, 2000 + step.port as u16 * 13);
    let dst = if step.dst % 8 == 7 {
        Endpoint::new(POOL[step.dst as usize / 8 % 2], 1024 + step.dst as u16 / 16)
    } else {
        let k = step.dst % 5;
        Endpoint::new(
            Ipv4Addr::from(u32::from(Ipv4Addr::new(203, 0, 113, 1)) + k as u32),
            443 + k as u16,
        )
    };
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

pub fn script(steps: &[Step]) -> Vec<Timed> {
    let mut at_ms = 0u64;
    steps
        .iter()
        .map(|step| {
            at_ms += step.gap_ms as u64;
            (at_ms, packet(step))
        })
        .collect()
}

/// Answer every forwarded packet of a window. The variant cycle spans
/// the filtering matrix: exact reply (passes everything),
/// same-IP/new-port (drops only under port-address restriction),
/// stranger IP (drops under any restriction), an inbound ICMP error,
/// and now and then a packet to a port no mapping owns (drops
/// everywhere, and a burst slot with no resolved key).
pub fn replies(window: &[Timed], seen: &[Seen], salt: usize) -> Vec<Packet> {
    let mut out = Vec::new();
    for (j, ((_, sent), v)) in window.iter().zip(seen).enumerate() {
        let (HeaderVerdict::Forward, Some((ext, remote))) = *v else {
            continue;
        };
        let stranger = Endpoint::new(Ipv4Addr::new(192, 0, 2, 66), 5353);
        out.push(match (salt + j) % 5 {
            0 | 1 => match sent.body {
                PacketBody::Tcp { .. } => Packet::tcp(remote, ext, TcpFlags::ACK, Vec::new()),
                _ => Packet::udp(remote, ext, vec![]),
            },
            2 => Packet::udp(
                Endpoint::new(remote.ip, remote.port.wrapping_add(1)),
                ext,
                vec![],
            ),
            3 => Packet::udp(stranger, ext, vec![]),
            _ => Packet {
                src: remote,
                dst: ext,
                ttl: 64,
                body: PacketBody::Icmp {
                    kind: IcmpKind::TtlExceeded,
                    original_src: ext,
                    original_dst: remote,
                },
            },
        });
        if (salt + j) % 7 == 0 {
            out.push(Packet::udp(stranger, Endpoint::new(ext.ip, 1), vec![]));
        }
    }
    out
}

/// Every RFC 4787 mapping × filtering behaviour, with and without
/// hairpinning and with either hairpin source, on random ports (the
/// CGN default, which draws the NAT's RNG on every create) and on
/// sequential ones, so that packets addressed to the pool find
/// mappings.
pub fn behaviour_space() -> Vec<NatConfig> {
    let mut out = Vec::new();
    for port_alloc in [PortAllocation::Random, PortAllocation::Sequential] {
        for mapping in [
            MappingBehavior::EndpointIndependent,
            MappingBehavior::AddressDependent,
            MappingBehavior::AddressAndPortDependent,
        ] {
            for filtering in [
                FilteringBehavior::EndpointIndependent,
                FilteringBehavior::AddressDependent,
                FilteringBehavior::AddressAndPortDependent,
            ] {
                for hairpinning in [false, true] {
                    for hairpin_internal_source in [false, true] {
                        out.push(NatConfig {
                            mapping,
                            filtering,
                            hairpinning,
                            hairpin_internal_source,
                            port_alloc,
                            ..NatConfig::cgn_default()
                        });
                    }
                }
            }
        }
    }
    out
}
