//! The abuse-attribution query engine: "which subscriber held external
//! `IP:port` at time `T`?"
//!
//! This is the question that drives the paper's logging-volume
//! trade-off (§2): an abuse complaint arrives with an (external IP,
//! port, timestamp) triple and the operator must resolve it to exactly
//! one subscriber. A [`TraceIndex`] answers it from a decoded
//! [`EventLog`](crate::codec::EventLog):
//!
//! * **per-connection logs** — every mapping contributes a
//!   `[create, expire)` interval on its exact `(proto, IP, port)` key;
//! * **port-block logs** — every block grant contributes a
//!   `[alloc, release)` interval covering `block_len` consecutive
//!   ports; a port probe resolves through the block containing it.
//!
//! Interval semantics are half-open: a mapping expired at `T` no
//! longer owns its port at `T`, and a mapping created at `T` already
//! does — so a same-millisecond expire/create handover (port reuse
//! under churn) attributes to the new holder, exactly like the
//! sequential replay of the raw log.

use crate::codec::Record;
use netcore::{Endpoint, Protocol};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// An interval of ownership: `[start_ms, end_ms)`; still-open
/// intervals (no expire by end of log) carry `end_ms == u64::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start_ms: u64,
    end_ms: u64,
    subscriber: Ipv4Addr,
}

/// A block grant's lifetime: `ports [start, start + len)` held by
/// `subscriber` over `[start_ms, end_ms)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockSpan {
    block_start: u16,
    block_len: u16,
    start_ms: u64,
    end_ms: u64,
    subscriber: Ipv4Addr,
}

/// Time-interval index over one or more decoded event logs.
#[derive(Debug, Default, Clone)]
pub struct TraceIndex {
    /// Exact-port intervals, per `(ext IP, proto, port)`, in log
    /// (= time) order.
    ports: HashMap<(Ipv4Addr, Protocol, u16), Vec<Span>>,
    /// Block intervals, per `(ext IP, proto)`, in log order.
    blocks: HashMap<(Ipv4Addr, Protocol), Vec<BlockSpan>>,
}

impl TraceIndex {
    /// Build the index from time-ordered records (as
    /// [`EventLog::decode`](crate::codec::EventLog::decode) yields
    /// them). Records from several shards can be combined: shard logs
    /// never share an external IP, so per-key ordering is preserved.
    pub fn build<'a>(records: impl IntoIterator<Item = &'a Record>) -> TraceIndex {
        let mut index = TraceIndex::default();
        for r in records {
            match *r {
                Record::MapCreate {
                    at_ms,
                    subscriber,
                    proto,
                    external,
                } => {
                    index
                        .ports
                        .entry((external.ip, proto, external.port))
                        .or_default()
                        .push(Span {
                            start_ms: at_ms,
                            end_ms: u64::MAX,
                            subscriber,
                        });
                }
                Record::MapExpire {
                    at_ms,
                    proto,
                    external,
                } => {
                    if let Some(spans) = index.ports.get_mut(&(external.ip, proto, external.port)) {
                        if let Some(open) = spans.iter_mut().rev().find(|s| s.end_ms == u64::MAX) {
                            open.end_ms = at_ms;
                        }
                    }
                }
                Record::BlockAlloc {
                    at_ms,
                    subscriber,
                    proto,
                    ext_ip,
                    block_start,
                    block_len,
                } => {
                    index
                        .blocks
                        .entry((ext_ip, proto))
                        .or_default()
                        .push(BlockSpan {
                            block_start,
                            block_len,
                            start_ms: at_ms,
                            end_ms: u64::MAX,
                            subscriber,
                        });
                }
                Record::BlockRelease {
                    at_ms,
                    proto,
                    ext_ip,
                    block_start,
                } => {
                    if let Some(spans) = index.blocks.get_mut(&(ext_ip, proto)) {
                        if let Some(open) = spans
                            .iter_mut()
                            .rev()
                            .find(|s| s.block_start == block_start && s.end_ms == u64::MAX)
                        {
                            open.end_ms = at_ms;
                        }
                    }
                }
            }
        }
        index
    }

    /// Exact-port intervals indexed.
    pub fn port_intervals(&self) -> usize {
        self.ports.values().map(Vec::len).sum()
    }

    /// Block intervals indexed.
    pub fn block_intervals(&self) -> usize {
        self.blocks.values().map(Vec::len).sum()
    }

    /// Resolve an abuse probe: the subscriber that held
    /// `proto`/`external` at `at_ms`, if the log can attribute it.
    /// Exact-port intervals win over block intervals (a deployment
    /// logs one kind, but a combined index handles both).
    pub fn query(&self, proto: Protocol, external: Endpoint, at_ms: u64) -> Option<Ipv4Addr> {
        if let Some(spans) = self.ports.get(&(external.ip, proto, external.port)) {
            // Log order is start order: the latest interval starting
            // at or before the probe is the only candidate (per-key
            // intervals never overlap — one port, one holder).
            let idx = spans.partition_point(|s| s.start_ms <= at_ms);
            if idx > 0 {
                let s = spans[idx - 1];
                if at_ms < s.end_ms {
                    return Some(s.subscriber);
                }
            }
        }
        if let Some(spans) = self.blocks.get(&(external.ip, proto)) {
            // Blocks with different starts interleave freely in the
            // list, so scan backward for the containing block whose
            // interval covers the probe.
            return spans
                .iter()
                .rev()
                .find(|s| {
                    external.port >= s.block_start
                        && (external.port as u32) < s.block_start as u32 + s.block_len as u32
                        && s.start_ms <= at_ms
                        && at_ms < s.end_ms
                })
                .map(|s| s.subscriber);
        }
        None
    }
}

/// Reference resolver: sequentially replay the raw records up to the
/// probe instant and report the current holder. Semantics match
/// [`TraceIndex::query`] by construction (half-open intervals, log
/// order breaking same-millisecond ties); the differential property
/// test pins the two against each other.
pub fn linear_scan(
    records: &[Record],
    proto: Protocol,
    external: Endpoint,
    at_ms: u64,
) -> Option<Ipv4Addr> {
    let mut holder: Option<Ipv4Addr> = None;
    // Current block grant covering the probed port, as
    // `(block_start, subscriber)`: a release record only carries the
    // start, so the start of the covering grant identifies whether a
    // release closes it.
    let mut block_holder: Option<(u16, Ipv4Addr)> = None;
    for r in records {
        if r.at_ms() > at_ms {
            break;
        }
        match *r {
            Record::MapCreate {
                subscriber,
                proto: p,
                external: e,
                ..
            } if p == proto && e == external => holder = Some(subscriber),
            Record::MapExpire {
                proto: p,
                external: e,
                ..
            } if p == proto && e == external => holder = None,
            Record::BlockAlloc {
                subscriber,
                proto: p,
                ext_ip,
                block_start,
                block_len,
                ..
            } if p == proto
                && ext_ip == external.ip
                && external.port >= block_start
                && (external.port as u32) < block_start as u32 + block_len as u32 =>
            {
                block_holder = Some((block_start, subscriber))
            }
            Record::BlockRelease {
                proto: p,
                ext_ip,
                block_start,
                ..
            } if p == proto
                && ext_ip == external.ip
                && block_holder.map(|(start, _)| start) == Some(block_start) =>
            {
                block_holder = None;
            }
            _ => {}
        }
    }
    holder.or(block_holder.map(|(_, s)| s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_bytes, EventLog};
    use netcore::{ip, SimTime};
    use proptest::prelude::*;

    fn ep(port: u16) -> Endpoint {
        Endpoint::new(ip(198, 51, 100, 1), port)
    }

    fn sub(k: u8) -> Ipv4Addr {
        ip(100, 64, 0, k)
    }

    #[test]
    fn port_interval_queries_are_half_open() {
        let records = vec![
            Record::MapCreate {
                at_ms: 1_000,
                subscriber: sub(1),
                proto: Protocol::Udp,
                external: ep(2048),
            },
            Record::MapExpire {
                at_ms: 61_000,
                proto: Protocol::Udp,
                external: ep(2048),
            },
        ];
        let idx = TraceIndex::build(&records);
        assert_eq!(
            idx.query(Protocol::Udp, ep(2048), 999),
            None,
            "before create"
        );
        assert_eq!(idx.query(Protocol::Udp, ep(2048), 1_000), Some(sub(1)));
        assert_eq!(idx.query(Protocol::Udp, ep(2048), 60_999), Some(sub(1)));
        assert_eq!(
            idx.query(Protocol::Udp, ep(2048), 61_000),
            None,
            "expired at T"
        );
        assert_eq!(
            idx.query(Protocol::Tcp, ep(2048), 5_000),
            None,
            "wrong proto"
        );
        assert_eq!(
            idx.query(Protocol::Udp, ep(2049), 5_000),
            None,
            "wrong port"
        );
    }

    #[test]
    fn same_millisecond_handover_attributes_to_the_new_holder() {
        let records = vec![
            Record::MapCreate {
                at_ms: 0,
                subscriber: sub(1),
                proto: Protocol::Udp,
                external: ep(2048),
            },
            Record::MapExpire {
                at_ms: 5_000,
                proto: Protocol::Udp,
                external: ep(2048),
            },
            Record::MapCreate {
                at_ms: 5_000,
                subscriber: sub(2),
                proto: Protocol::Udp,
                external: ep(2048),
            },
        ];
        let idx = TraceIndex::build(&records);
        assert_eq!(idx.query(Protocol::Udp, ep(2048), 4_999), Some(sub(1)));
        assert_eq!(idx.query(Protocol::Udp, ep(2048), 5_000), Some(sub(2)));
    }

    #[test]
    fn open_intervals_extend_to_log_end() {
        let records = vec![Record::MapCreate {
            at_ms: 10,
            subscriber: sub(3),
            proto: Protocol::Tcp,
            external: ep(443),
        }];
        let idx = TraceIndex::build(&records);
        assert_eq!(
            idx.query(Protocol::Tcp, ep(443), u64::MAX - 1),
            Some(sub(3))
        );
    }

    #[test]
    fn block_queries_resolve_any_port_in_the_block() {
        let records = vec![
            Record::BlockAlloc {
                at_ms: 1_000,
                subscriber: sub(1),
                proto: Protocol::Udp,
                ext_ip: ip(198, 51, 100, 1),
                block_start: 2048,
                block_len: 512,
            },
            Record::BlockRelease {
                at_ms: 90_000,
                proto: Protocol::Udp,
                ext_ip: ip(198, 51, 100, 1),
                block_start: 2048,
            },
            // The same block is re-granted to someone else later.
            Record::BlockAlloc {
                at_ms: 100_000,
                subscriber: sub(2),
                proto: Protocol::Udp,
                ext_ip: ip(198, 51, 100, 1),
                block_start: 2048,
                block_len: 512,
            },
        ];
        let idx = TraceIndex::build(&records);
        assert_eq!(idx.block_intervals(), 2);
        for port in [2048u16, 2300, 2559] {
            assert_eq!(idx.query(Protocol::Udp, ep(port), 50_000), Some(sub(1)));
            assert_eq!(idx.query(Protocol::Udp, ep(port), 150_000), Some(sub(2)));
        }
        assert_eq!(
            idx.query(Protocol::Udp, ep(2560), 50_000),
            None,
            "past block end"
        );
        assert_eq!(
            idx.query(Protocol::Udp, ep(2047), 50_000),
            None,
            "before block"
        );
        assert_eq!(
            idx.query(Protocol::Udp, ep(2300), 95_000),
            None,
            "between grants"
        );
    }

    /// One event of a generated log: kind, subscriber, pool, port (or
    /// block start), block length, milliseconds since the previous
    /// event.
    type Event = (bool, u8, u8, u16, u16, u32);

    /// A per-connection log (creates and expiries) or a per-block log
    /// (grants and releases) of `events`, over two pool addresses and
    /// both protocols.
    fn encode(per_block: bool, events: &[Event]) -> EventLog {
        let mut log = EventLog::new();
        let mut at = 0u64;
        for &(open, sub, pool, port, len, gap) in events {
            at += gap as u64;
            let (at, sub) = (SimTime::from_millis(at), ip(100, 64, 0, sub % 4));
            let proto = [Protocol::Udp, Protocol::Tcp][pool as usize % 2];
            let ext_ip = ip(198, 51, 100, pool % 2);
            match (per_block, open) {
                (false, true) => log.map_create(at, sub, proto, Endpoint::new(ext_ip, port)),
                (false, false) => log.map_expire(at, proto, Endpoint::new(ext_ip, port)),
                (true, true) => log.block_alloc(at, sub, proto, ext_ip, port, len),
                (true, false) => log.block_release(at, proto, ext_ip, port),
            }
        }
        log
    }

    /// Every `(protocol, external endpoint)` a record names: its
    /// mapping's, its block's first port and, for a grant, its last.
    fn probes(r: &Record) -> Vec<(Protocol, Endpoint)> {
        match *r {
            Record::MapCreate {
                proto, external, ..
            }
            | Record::MapExpire {
                proto, external, ..
            } => vec![(proto, external)],
            Record::BlockAlloc {
                proto,
                ext_ip,
                block_start,
                block_len,
                ..
            } => {
                let last = block_start.saturating_add(block_len.saturating_sub(1));
                vec![
                    (proto, Endpoint::new(ext_ip, block_start)),
                    (proto, Endpoint::new(ext_ip, last)),
                ]
            }
            Record::BlockRelease {
                proto,
                ext_ip,
                block_start,
                ..
            } => vec![(proto, Endpoint::new(ext_ip, block_start))],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The index is total over whatever the decoder accepts: a
        /// per-connection or per-block log, whole, cut short at any
        /// byte, with one byte flipped, or both, builds an index
        /// whenever it decodes, holds no more intervals than records,
        /// and answers a query for every endpoint any record names, at
        /// every record's instant and a millisecond either side,
        /// without panicking. (`tests/trace_differential.rs` probes
        /// engine-written logs at random ports and instants; these
        /// probes sit on the interval edges the records make.)
        #[test]
        fn prop_index_total_at_every_record_edge(
            per_block in any::<bool>(),
            events in proptest::collection::vec(
                (any::<bool>(), any::<u8>(), any::<u8>(), any::<u16>(), any::<u16>(), any::<u32>()),
                0..24,
            ),
            flip in (any::<usize>(), any::<u8>()),
            cut in any::<usize>(),
        ) {
            let log = encode(per_block, &events);
            let whole = log.bytes();
            let mut flipped = whole.to_vec();
            let mut inputs = vec![whole.to_vec()];
            if !whole.is_empty() {
                flipped[flip.0 % whole.len()] ^= flip.1;
                let cut = cut % whole.len();
                inputs.extend([flipped.clone(), whole[..cut].to_vec(), flipped[..cut].to_vec()]);
            }
            for bytes in inputs {
                let Ok(records) = decode_bytes(&bytes) else {
                    continue;
                };
                let index = TraceIndex::build(&records);
                prop_assert!(index.port_intervals() + index.block_intervals() <= records.len());
                for r in &records {
                    let at = r.at_ms();
                    for (proto, external) in records.iter().flat_map(probes) {
                        for t in [at.saturating_sub(1), at, at.saturating_add(1)] {
                            let _ = index.query(proto, external, t);
                        }
                    }
                }
            }
        }
    }
}
