//! The log encoder against a model that shares nothing with it but the
//! format: ids interned by linear search in a `Vec`, so the expected
//! bytes do not depend on any hasher — the encoder's intern tables can
//! change theirs and the log on disk must not move by a byte.

use cgn_telemetry::{EventLog, Record};
use netcore::{Endpoint, Protocol, SimTime};
use proptest::collection;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// The format of `codec.rs`'s module docs, written out again.
#[derive(Default)]
struct Model {
    buf: Vec<u8>,
    last_ms: u64,
    subs: Vec<Ipv4Addr>,
    pools: Vec<(Ipv4Addr, Protocol)>,
}

impl Model {
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    fn sub(&mut self, ip: Ipv4Addr) -> u64 {
        if let Some(id) = self.subs.iter().position(|s| *s == ip) {
            return id as u64;
        }
        self.subs.push(ip);
        self.buf.push(0x01);
        self.varint(self.subs.len() as u64 - 1);
        self.buf.extend(ip.octets());
        self.subs.len() as u64 - 1
    }

    fn pool(&mut self, ip: Ipv4Addr, proto: Protocol) -> u64 {
        if let Some(id) = self.pools.iter().position(|p| *p == (ip, proto)) {
            return id as u64;
        }
        self.pools.push((ip, proto));
        self.buf.push(0x02);
        self.varint(self.pools.len() as u64 - 1);
        self.buf.extend(ip.octets());
        self.buf.push(matches!(proto, Protocol::Tcp) as u8);
        self.pools.len() as u64 - 1
    }

    /// One record, its ids already interned (defines come first):
    /// the tag, the time delta, then ids and fields in layout order.
    fn record(&mut self, tag: u8, at_ms: u64, values: &[u64]) {
        self.buf.push(tag);
        self.varint(at_ms - self.last_ms);
        self.last_ms = at_ms;
        for &v in values {
            self.varint(v);
        }
    }
}

fn subscriber(k: u8) -> Ipv4Addr {
    Ipv4Addr::new(100, 64, k / 8, k % 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random interleaving of creates, expires, block grants and
    /// block returns over ≤ 64 subscribers and 4 pools (2 addresses ×
    /// 2 protocols): byte for byte the model's log, and it decodes
    /// back to the operations that went in.
    #[test]
    fn encoder_matches_the_hasher_free_model(
        ops in collection::vec((0u8..4, 0u8..64, 0u8..4, 1024u16..65535, 0u64..70_000), 0..300),
    ) {
        let mut log = EventLog::new();
        let mut model = Model::default();
        let mut expected = Vec::new();
        let mut at_ms = 0u64;
        for (kind, sub, pool, port, gap_ms) in ops {
            // Mostly small gaps, now and then one that needs 3 bytes.
            at_ms += if gap_ms < 60_000 { gap_ms % 40 } else { gap_ms };
            let at = SimTime::from_millis(at_ms);
            let subscriber = subscriber(sub);
            let ext_ip = Ipv4Addr::new(198, 51, 100, 1 + pool / 2);
            let proto = if pool % 2 == 0 { Protocol::Udp } else { Protocol::Tcp };
            let external = Endpoint::new(ext_ip, port);
            let (block_start, block_len) = (port & !63, 64);
            match kind {
                0 => {
                    log.map_create(at, subscriber, proto, external);
                    // The subscriber's define precedes the pool's.
                    let (s, p) = (model.sub(subscriber), model.pool(ext_ip, proto));
                    model.record(0x10, at_ms, &[s, p, port as u64]);
                    expected.push(Record::MapCreate { at_ms, subscriber, proto, external });
                }
                1 => {
                    log.map_expire(at, proto, external);
                    let p = model.pool(ext_ip, proto);
                    model.record(0x11, at_ms, &[p, port as u64]);
                    expected.push(Record::MapExpire { at_ms, proto, external });
                }
                2 => {
                    log.block_alloc(at, subscriber, proto, ext_ip, block_start, block_len);
                    let (s, p) = (model.sub(subscriber), model.pool(ext_ip, proto));
                    model.record(0x20, at_ms, &[s, p, block_start as u64, block_len as u64]);
                    expected.push(Record::BlockAlloc {
                        at_ms, subscriber, proto, ext_ip, block_start, block_len,
                    });
                }
                _ => {
                    log.block_release(at, proto, ext_ip, block_start);
                    let p = model.pool(ext_ip, proto);
                    model.record(0x21, at_ms, &[p, block_start as u64]);
                    expected.push(Record::BlockRelease { at_ms, proto, ext_ip, block_start });
                }
            }
        }
        prop_assert_eq!(log.bytes(), &model.buf[..]);
        prop_assert_eq!(log.records(), expected.len() as u64);
        prop_assert_eq!(log.decode(), Ok(expected));
    }
}
