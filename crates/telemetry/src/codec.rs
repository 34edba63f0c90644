//! The append-only binary log format.
//!
//! A CGN's traceability log is written on the mapping hot path and
//! read (rarely) by abuse-attribution queries, so the format optimizes
//! for write compactness:
//!
//! * **varint (LEB128) integers** — ports, interned ids and timestamp
//!   deltas are almost always 1–2 bytes;
//! * **delta timestamps** — each record stores the millisecond delta
//!   to the previous record, which is 0–2 bytes under CGN-scale event
//!   rates instead of 6+ for an absolute epoch;
//! * **interned identities** — subscribers and `(external IP,
//!   protocol)` pools appear as dense ids; a *define* record
//!   introduces each id the first time it is used, making every log
//!   self-describing (no side table needed to decode).
//!
//! Record layout (`tag` byte, then varints unless noted):
//!
//! ```text
//! 0x01 DefineSub    id, ipv4 (4 raw bytes)
//! 0x02 DefinePool   id, ipv4 (4 raw bytes), proto (1 byte)
//! 0x10 MapCreate    Δt_ms, sub_id, pool_id, ext_port
//! 0x11 MapExpire    Δt_ms, pool_id, ext_port
//! 0x20 BlockAlloc   Δt_ms, sub_id, pool_id, block_start, block_len
//! 0x21 BlockRelease Δt_ms, pool_id, block_start
//! ```
//!
//! `MapExpire`/`BlockRelease` do not repeat the subscriber: the
//! interval being closed identifies it — the same economy real
//! deployments use.

use netcore::hash::MixMap;
use netcore::{Endpoint, Protocol, SimTime};
use std::net::Ipv4Addr;

pub(crate) const TAG_DEFINE_SUB: u8 = 0x01;
pub(crate) const TAG_DEFINE_POOL: u8 = 0x02;
pub(crate) const TAG_MAP_CREATE: u8 = 0x10;
pub(crate) const TAG_MAP_EXPIRE: u8 = 0x11;
pub(crate) const TAG_BLOCK_ALLOC: u8 = 0x20;
pub(crate) const TAG_BLOCK_RELEASE: u8 = 0x21;

/// Append a LEB128 varint.
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint, advancing `pos`.
pub(crate) fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(DecodeError::Malformed("varint overflows u64"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Read a varint that must fit a `u16` (a port, block start or block
/// length), advancing `pos`.
fn get_u16(buf: &[u8], pos: &mut usize) -> Result<u16, DecodeError> {
    u16::try_from(get_varint(buf, pos)?)
        .map_err(|_| DecodeError::Malformed("port field exceeds u16"))
}

fn put_ipv4(buf: &mut Vec<u8>, ip: Ipv4Addr) {
    buf.extend_from_slice(&ip.octets());
}

fn get_ipv4(buf: &[u8], pos: &mut usize) -> Result<Ipv4Addr, DecodeError> {
    let bytes = buf.get(*pos..*pos + 4).ok_or(DecodeError::Truncated)?;
    *pos += 4;
    Ok(Ipv4Addr::new(bytes[0], bytes[1], bytes[2], bytes[3]))
}

fn proto_byte(p: Protocol) -> u8 {
    match p {
        Protocol::Udp => 0,
        Protocol::Tcp => 1,
    }
}

fn byte_proto(b: u8) -> Result<Protocol, DecodeError> {
    match b {
        0 => Ok(Protocol::Udp),
        1 => Ok(Protocol::Tcp),
        _ => Err(DecodeError::Malformed("unknown protocol byte")),
    }
}

/// Why a log failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended inside a record.
    Truncated,
    /// Structurally invalid content (bad tag, undefined id, …).
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("log truncated mid-record"),
            DecodeError::Malformed(what) => write!(f, "malformed log: {what}"),
        }
    }
}

/// One decoded log record, interned ids resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// A mapping came live: `subscriber` holds `proto`/`external`
    /// from `at_ms` on.
    MapCreate {
        at_ms: u64,
        subscriber: Ipv4Addr,
        proto: Protocol,
        external: Endpoint,
    },
    /// The mapping on `proto`/`external` ended at `at_ms`.
    MapExpire {
        at_ms: u64,
        proto: Protocol,
        external: Endpoint,
    },
    /// A contiguous port block was granted to `subscriber`.
    BlockAlloc {
        at_ms: u64,
        subscriber: Ipv4Addr,
        proto: Protocol,
        ext_ip: Ipv4Addr,
        block_start: u16,
        block_len: u16,
    },
    /// The block starting at `block_start` was returned.
    BlockRelease {
        at_ms: u64,
        proto: Protocol,
        ext_ip: Ipv4Addr,
        block_start: u16,
    },
}

impl Record {
    /// Virtual time of the record in milliseconds.
    pub fn at_ms(&self) -> u64 {
        match self {
            Record::MapCreate { at_ms, .. }
            | Record::MapExpire { at_ms, .. }
            | Record::BlockAlloc { at_ms, .. }
            | Record::BlockRelease { at_ms, .. } => *at_ms,
        }
    }
}

/// One shard's append-only binary event log: the encoder state (write
/// side) plus the raw bytes. Records must be appended in
/// non-decreasing virtual time — the engine fires events in
/// processing order, which satisfies this by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    buf: Vec<u8>,
    records: u64,
    last_ms: u64,
    // Looked up once or twice per record. Both key spaces are the
    // simulation's own (subscriber and pool addresses), so the
    // workspace's deterministic hasher applies; ids are handed out in
    // first-use order whatever the hasher, so the bytes do not depend
    // on it.
    sub_ids: MixMap<Ipv4Addr, u64>,
    pool_ids: MixMap<(Ipv4Addr, u8), u64>,
}

impl EventLog {
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Encoded size in bytes (defines included — they are part of the
    /// volume an operator stores).
    pub fn len_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Bytes the encode buffer can hold without reallocating.
    #[cfg(test)]
    pub(crate) fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Semantic records appended (defines not counted).
    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn sub_id(&mut self, ip: Ipv4Addr) -> u64 {
        if let Some(&id) = self.sub_ids.get(&ip) {
            return id;
        }
        let id = self.sub_ids.len() as u64;
        self.sub_ids.insert(ip, id);
        self.buf.push(TAG_DEFINE_SUB);
        put_varint(&mut self.buf, id);
        put_ipv4(&mut self.buf, ip);
        id
    }

    fn pool_id(&mut self, ip: Ipv4Addr, proto: Protocol) -> u64 {
        let key = (ip, proto_byte(proto));
        if let Some(&id) = self.pool_ids.get(&key) {
            return id;
        }
        let id = self.pool_ids.len() as u64;
        self.pool_ids.insert(key, id);
        self.buf.push(TAG_DEFINE_POOL);
        put_varint(&mut self.buf, id);
        put_ipv4(&mut self.buf, ip);
        self.buf.push(key.1);
        id
    }

    fn delta(&mut self, at: SimTime) -> u64 {
        let ms = at.as_millis();
        debug_assert!(ms >= self.last_ms, "records must be time-ordered");
        let d = ms.saturating_sub(self.last_ms);
        self.last_ms = ms;
        d
    }

    pub fn map_create(
        &mut self,
        at: SimTime,
        subscriber: Ipv4Addr,
        proto: Protocol,
        external: Endpoint,
    ) {
        let sub = self.sub_id(subscriber);
        let pool = self.pool_id(external.ip, proto);
        let d = self.delta(at);
        self.buf.push(TAG_MAP_CREATE);
        put_varint(&mut self.buf, d);
        put_varint(&mut self.buf, sub);
        put_varint(&mut self.buf, pool);
        put_varint(&mut self.buf, external.port as u64);
        self.records += 1;
    }

    pub fn map_expire(&mut self, at: SimTime, proto: Protocol, external: Endpoint) {
        let pool = self.pool_id(external.ip, proto);
        let d = self.delta(at);
        self.buf.push(TAG_MAP_EXPIRE);
        put_varint(&mut self.buf, d);
        put_varint(&mut self.buf, pool);
        put_varint(&mut self.buf, external.port as u64);
        self.records += 1;
    }

    pub fn block_alloc(
        &mut self,
        at: SimTime,
        subscriber: Ipv4Addr,
        proto: Protocol,
        ext_ip: Ipv4Addr,
        block_start: u16,
        block_len: u16,
    ) {
        let sub = self.sub_id(subscriber);
        let pool = self.pool_id(ext_ip, proto);
        let d = self.delta(at);
        self.buf.push(TAG_BLOCK_ALLOC);
        put_varint(&mut self.buf, d);
        put_varint(&mut self.buf, sub);
        put_varint(&mut self.buf, pool);
        put_varint(&mut self.buf, block_start as u64);
        put_varint(&mut self.buf, block_len as u64);
        self.records += 1;
    }

    pub fn block_release(
        &mut self,
        at: SimTime,
        proto: Protocol,
        ext_ip: Ipv4Addr,
        block_start: u16,
    ) {
        let pool = self.pool_id(ext_ip, proto);
        let d = self.delta(at);
        self.buf.push(TAG_BLOCK_RELEASE);
        put_varint(&mut self.buf, d);
        put_varint(&mut self.buf, pool);
        put_varint(&mut self.buf, block_start as u64);
        self.records += 1;
    }

    /// Write the bytes encoded since the last drain
    /// ([`EventLog::bytes`]) to `out` and forget them — whether or not
    /// the write succeeds — keeping the encoder state (interned ids,
    /// delta-timestamp base, record count) so encoding continues
    /// seamlessly. This is the primitive behind the streaming sink
    /// ([`crate::RotatingWriteSink`]): the in-memory log stays bounded by
    /// one record, and because the buffer is emptied rather than given
    /// away, its capacity is reused and a record allocates nothing once
    /// the first has sized it. Note a drained `EventLog` no longer holds
    /// a decodable prefix — only the concatenation of all drained
    /// chunks is.
    pub fn drain_into(&mut self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let written = out.write_all(&self.buf);
        self.buf.clear();
        written
    }

    /// Decode the whole log back into time-ordered records (ids
    /// resolved through the embedded define records).
    pub fn decode(&self) -> Result<Vec<Record>, DecodeError> {
        decode_bytes(&self.buf)
    }
}

/// Decode a raw encoded byte stream — the standalone form of
/// [`EventLog::decode`] for logs that were streamed to storage
/// (through a [`crate::RotatingWriteSink`]: decode the concatenation
/// of its generations) rather than held in memory.
pub fn decode_bytes(buf: &[u8]) -> Result<Vec<Record>, DecodeError> {
    let mut out = Vec::new();
    let mut subs: Vec<Ipv4Addr> = Vec::new();
    let mut pools: Vec<(Ipv4Addr, Protocol)> = Vec::new();
    let mut pos = 0usize;
    let mut now_ms = 0u64;
    let resolve_sub = |subs: &[Ipv4Addr], id: u64| {
        subs.get(id as usize)
            .copied()
            .ok_or(DecodeError::Malformed("undefined subscriber id"))
    };
    let resolve_pool = |pools: &[(Ipv4Addr, Protocol)], id: u64| {
        pools
            .get(id as usize)
            .copied()
            .ok_or(DecodeError::Malformed("undefined pool id"))
    };
    // A record's time: the previous one's plus its varint delta.
    let advance = |now_ms: u64, pos: &mut usize| {
        now_ms
            .checked_add(get_varint(buf, pos)?)
            .ok_or(DecodeError::Malformed("timestamp overflows u64"))
    };
    while pos < buf.len() {
        let tag = buf[pos];
        pos += 1;
        match tag {
            TAG_DEFINE_SUB => {
                let id = get_varint(buf, &mut pos)?;
                let ip = get_ipv4(buf, &mut pos)?;
                if id as usize != subs.len() {
                    return Err(DecodeError::Malformed("non-dense subscriber define"));
                }
                subs.push(ip);
            }
            TAG_DEFINE_POOL => {
                let id = get_varint(buf, &mut pos)?;
                let ip = get_ipv4(buf, &mut pos)?;
                let proto = byte_proto(*buf.get(pos).ok_or(DecodeError::Truncated)?)?;
                pos += 1;
                if id as usize != pools.len() {
                    return Err(DecodeError::Malformed("non-dense pool define"));
                }
                pools.push((ip, proto));
            }
            TAG_MAP_CREATE => {
                now_ms = advance(now_ms, &mut pos)?;
                let sub = resolve_sub(&subs, get_varint(buf, &mut pos)?)?;
                let (ip, proto) = resolve_pool(&pools, get_varint(buf, &mut pos)?)?;
                let port = get_u16(buf, &mut pos)?;
                out.push(Record::MapCreate {
                    at_ms: now_ms,
                    subscriber: sub,
                    proto,
                    external: Endpoint::new(ip, port),
                });
            }
            TAG_MAP_EXPIRE => {
                now_ms = advance(now_ms, &mut pos)?;
                let (ip, proto) = resolve_pool(&pools, get_varint(buf, &mut pos)?)?;
                let port = get_u16(buf, &mut pos)?;
                out.push(Record::MapExpire {
                    at_ms: now_ms,
                    proto,
                    external: Endpoint::new(ip, port),
                });
            }
            TAG_BLOCK_ALLOC => {
                now_ms = advance(now_ms, &mut pos)?;
                let sub = resolve_sub(&subs, get_varint(buf, &mut pos)?)?;
                let (ip, proto) = resolve_pool(&pools, get_varint(buf, &mut pos)?)?;
                let start = get_u16(buf, &mut pos)?;
                let len = get_u16(buf, &mut pos)?;
                out.push(Record::BlockAlloc {
                    at_ms: now_ms,
                    subscriber: sub,
                    proto,
                    ext_ip: ip,
                    block_start: start,
                    block_len: len,
                });
            }
            TAG_BLOCK_RELEASE => {
                now_ms = advance(now_ms, &mut pos)?;
                let (ip, proto) = resolve_pool(&pools, get_varint(buf, &mut pos)?)?;
                let start = get_u16(buf, &mut pos)?;
                out.push(Record::BlockRelease {
                    at_ms: now_ms,
                    proto,
                    ext_ip: ip,
                    block_start: start,
                });
            }
            _ => return Err(DecodeError::Malformed("unknown record tag")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::ip;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn varint_round_trips_boundaries() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Ok(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn log_round_trips_all_record_kinds() {
        let mut log = EventLog::new();
        let sub = ip(100, 64, 0, 1);
        let pool = ip(198, 51, 100, 1);
        log.block_alloc(t(1_000), sub, Protocol::Udp, pool, 2048, 512);
        log.map_create(t(1_000), sub, Protocol::Udp, Endpoint::new(pool, 2048));
        log.map_create(t(1_500), sub, Protocol::Tcp, Endpoint::new(pool, 2049));
        log.map_expire(t(61_000), Protocol::Udp, Endpoint::new(pool, 2048));
        log.block_release(t(61_000), Protocol::Udp, pool, 2048);
        assert_eq!(log.records(), 5);
        let records = log.decode().expect("decodes");
        assert_eq!(records.len(), 5);
        assert_eq!(
            records[0],
            Record::BlockAlloc {
                at_ms: 1_000,
                subscriber: sub,
                proto: Protocol::Udp,
                ext_ip: pool,
                block_start: 2048,
                block_len: 512,
            }
        );
        assert_eq!(
            records[3],
            Record::MapExpire {
                at_ms: 61_000,
                proto: Protocol::Udp,
                external: Endpoint::new(pool, 2048),
            }
        );
        // UDP and TCP pools on the same address intern separately.
        match (records[1], records[2]) {
            (Record::MapCreate { proto: a, .. }, Record::MapCreate { proto: b, .. }) => {
                assert_ne!(a, b);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            records.windows(2).all(|w| w[0].at_ms() <= w[1].at_ms()),
            "decoded records stay time-ordered"
        );
    }

    #[test]
    fn per_record_cost_is_a_few_bytes() {
        // The volume claim the report makes rests on this: steady-state
        // per-connection records (interning amortized, ~same timestamps)
        // cost single-digit bytes.
        let mut log = EventLog::new();
        let sub = ip(100, 64, 0, 1);
        let pool = ip(198, 51, 100, 1);
        log.map_create(t(0), sub, Protocol::Udp, Endpoint::new(pool, 1024));
        let after_first = log.len_bytes();
        for k in 0..100u16 {
            log.map_create(
                t(10 + k as u64),
                sub,
                Protocol::Udp,
                Endpoint::new(pool, 2000 + k),
            );
        }
        let steady = (log.len_bytes() - after_first) as f64 / 100.0;
        assert!(
            steady <= 8.0,
            "steady-state create record should be <= 8 bytes, got {steady}"
        );
    }

    #[test]
    fn truncated_and_garbage_logs_fail_loudly() {
        let mut log = EventLog::new();
        log.map_create(
            t(5),
            ip(100, 64, 0, 1),
            Protocol::Udp,
            Endpoint::new(ip(198, 51, 100, 1), 1024),
        );
        let mut cut = log.clone();
        cut.buf.truncate(cut.buf.len() - 1);
        assert_eq!(cut.decode(), Err(DecodeError::Truncated));
        let mut garbage = EventLog::new();
        garbage.buf.push(0x7F);
        assert!(matches!(garbage.decode(), Err(DecodeError::Malformed(_))));
    }

    /// Defines pool 0 as UDP on 198.51.100.1, then `records`.
    fn pool_then(records: &[u8]) -> Vec<u8> {
        let mut buf = vec![TAG_DEFINE_POOL, 0, 198, 51, 100, 1, 0];
        buf.extend_from_slice(records);
        buf
    }

    #[test]
    fn out_of_range_fields_are_malformed_not_panics_or_truncations() {
        // Two expiries each u64::MAX ms after the previous record: the
        // second one's time does not exist.
        let max_delta = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut expire = vec![TAG_MAP_EXPIRE];
        expire.extend_from_slice(&max_delta);
        expire.extend_from_slice(&[0, 1]); // pool 0, port 1
        let twice = pool_then(&[expire.as_slice(), &expire].concat());
        assert!(matches!(
            decode_bytes(&twice),
            Err(DecodeError::Malformed(_))
        ));
        assert_eq!(decode_bytes(&pool_then(&expire)).map(|r| r.len()), Ok(1));
        // An expiry of port 65 536, which no `u16` holds.
        let port = pool_then(&[TAG_MAP_EXPIRE, 0, 0, 0x80, 0x80, 0x04]);
        assert!(matches!(
            decode_bytes(&port),
            Err(DecodeError::Malformed(_))
        ));
        let fits = pool_then(&[TAG_MAP_EXPIRE, 0, 0, 0xff, 0xff, 0x03]);
        assert_eq!(
            decode_bytes(&fits),
            Ok(vec![Record::MapExpire {
                at_ms: 0,
                proto: Protocol::Udp,
                external: Endpoint::new(ip(198, 51, 100, 1), 65_535),
            }])
        );
    }

    /// One event of a generated log: kind, subscriber, pool, port,
    /// milliseconds since the previous event.
    type Event = (u8, u8, u8, u16, u32);

    fn encode(events: &[Event]) -> EventLog {
        let mut log = EventLog::new();
        let mut at = 0u64;
        for &(kind, sub, pool, port, gap) in events {
            at += gap as u64;
            let (at, sub) = (t(at), ip(100, 64, 0, sub % 4));
            let proto = [Protocol::Udp, Protocol::Tcp][pool as usize % 2];
            let pool = ip(198, 51, 100, pool % 3);
            match kind % 4 {
                0 => log.map_create(at, sub, proto, Endpoint::new(pool, port)),
                1 => log.map_expire(at, proto, Endpoint::new(pool, port)),
                2 => log.block_alloc(at, sub, proto, pool, port, 64),
                _ => log.block_release(at, proto, pool, port),
            }
        }
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Decoding is total: an encoded log decodes to its records,
        /// and the same log with one byte flipped, cut short, or both
        /// decodes to `Ok` or `Err` — never a panic.
        #[test]
        fn prop_decoder_total(
            events in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u16>(), any::<u32>()),
                0..24,
            ),
            flip in (any::<usize>(), any::<u8>()),
            cut in any::<usize>(),
        ) {
            let log = encode(&events);
            let records = decode_bytes(log.bytes()).expect("an encoded log decodes");
            prop_assert_eq!(records.len() as u64, log.records());
            let mut bytes = log.bytes().to_vec();
            if !bytes.is_empty() {
                let at = flip.0 % bytes.len();
                bytes[at] ^= flip.1;
                let cut = cut % bytes.len();
                for mutated in [&bytes[..], &log.bytes()[..cut], &bytes[..cut]] {
                    let _ = decode_bytes(mutated);
                }
            }
        }
    }

    #[test]
    fn empty_log_is_empty() {
        let log = EventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len_bytes(), 0);
        assert_eq!(log.decode(), Ok(Vec::new()));
    }
}
