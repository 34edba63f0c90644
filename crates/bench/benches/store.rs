//! Slab store vs. the old HashMap storage layout, at CGN-scale
//! mapping populations.
//!
//! PR 2 measured the sequential engine losing ~35% of its flows/sec
//! between 1× and 16× subscriber scale, driven by cache pressure in
//! the four per-`Nat` `HashMap` indices. This bench isolates that
//! storage layer: the same insert / lookup / churn traffic is pushed
//! through `nat_engine::store::MappingStore` (slab arena + interned
//! packed keys) and through a faithful re-creation of the old layout
//! (`mappings` by id + `out_index` + `ext_index` + `keys_by_id`, all
//! `std::collections::HashMap` with SipHash), at populations of 100k
//! and 1M mappings — the §6.2 dimensioning regime.
//!
//! ```text
//! cargo bench -p cgn-bench --bench store
//! ```
//!
//! The CI `store-bench` job uploads the output as the `BENCH_store` artifact.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use nat_engine::store::{Mapping, MappingStore};
use nat_engine::MappingBehavior;
use netcore::{Endpoint, Protocol, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

const POPULATIONS: [usize; 2] = [100_000, 1_000_000];
/// Operations per timed iteration for lookup/churn benches.
const OPS: usize = 1024;

fn internal(k: usize) -> Endpoint {
    // 64 flows per host: ~1.6k hosts at 100k mappings, ~15.6k at 1M.
    let host = Ipv4Addr::from(u32::from(Ipv4Addr::new(100, 64, 0, 0)) + (k / 64) as u32);
    Endpoint::new(host, 1024 + (k % 64) as u16)
}

fn external(k: usize) -> Endpoint {
    let ip = Ipv4Addr::from(u32::from(Ipv4Addr::new(198, 18, 0, 0)) + (k / 60_000) as u32);
    Endpoint::new(ip, 1000 + (k % 60_000) as u16)
}

fn dst() -> Endpoint {
    Endpoint::new(Ipv4Addr::new(203, 0, 113, 10), 443)
}

fn mapping(k: usize) -> Mapping {
    Mapping::new(Protocol::Udp, internal(k), external(k))
}

fn expiry(k: usize) -> SimTime {
    SimTime::from_secs(60 + (k % 600) as u64)
}

// ---------------------------------------------------------------------------
// The old storage layout, reproduced: four SipHash maps, u64 ids.
// ---------------------------------------------------------------------------

type OldKey = (Protocol, Endpoint);

#[derive(Default)]
struct OldHashStore {
    mappings: HashMap<u64, Mapping>,
    out_index: HashMap<OldKey, u64>,
    ext_index: HashMap<(Protocol, Endpoint), u64>,
    keys_by_id: HashMap<u64, OldKey>,
    next_id: u64,
}

impl OldHashStore {
    fn insert(&mut self, m: Mapping) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let key = (m.proto, m.internal);
        self.ext_index.insert((m.proto, m.external), id);
        self.out_index.insert(key, id);
        self.keys_by_id.insert(id, key);
        self.mappings.insert(id, m);
        id
    }

    fn lookup(&self, proto: Protocol, internal: Endpoint) -> Option<&Mapping> {
        let id = self.out_index.get(&(proto, internal))?;
        self.mappings.get(id)
    }

    fn remove(&mut self, proto: Protocol, internal: Endpoint) -> Option<Mapping> {
        let id = self.out_index.remove(&(proto, internal))?;
        let m = self.mappings.remove(&id)?;
        self.ext_index.remove(&(m.proto, m.external));
        self.keys_by_id.remove(&id);
        Some(m)
    }
}

fn populate_slab(n: usize) -> MappingStore {
    let mut s = MappingStore::new();
    for k in 0..n {
        let key = s.out_key(
            MappingBehavior::EndpointIndependent,
            Protocol::Udp,
            internal(k),
            dst(),
        );
        let m = mapping(k);
        let pool = s.intern_pool(m.external.ip, m.proto);
        s.insert(key, pool, m, expiry(k));
    }
    s.flush_ext_index();
    s
}

fn populate_old(n: usize) -> OldHashStore {
    let mut s = OldHashStore::default();
    for k in 0..n {
        s.insert(mapping(k));
    }
    s
}

fn bench_store(c: &mut Criterion) {
    for n in POPULATIONS {
        let label = if n >= 1_000_000 {
            format!("{}m", n / 1_000_000)
        } else {
            format!("{}k", n / 1_000)
        };

        {
            let mut g = c.benchmark_group(&format!("populate/{label}"));
            g.throughput(Throughput::Elements(n as u64));
            g.bench_function("slab", |b| b.iter(|| populate_slab(n).len()));
            g.bench_function("hashmap", |b| b.iter(|| populate_old(n).mappings.len()));
            g.finish();
        }

        {
            // Lookup pays the full per-packet key cost on both sides:
            // the slab derives the packed key (one interner hit) then
            // indexes the arena; the old layout hashes the tuple key
            // then chases the id through the second map.
            let mut slab = populate_slab(n);
            let old = populate_old(n);
            let mut g = c.benchmark_group(&format!("lookup_hit/{label}"));
            g.throughput(Throughput::Elements(OPS as u64));
            let mut probe = 0usize;
            g.bench_function("slab", |b| {
                b.iter(|| {
                    let mut alive = 0usize;
                    for _ in 0..OPS {
                        probe = (probe + 7919) % n;
                        let key = slab.out_key(
                            MappingBehavior::EndpointIndependent,
                            Protocol::Udp,
                            internal(probe),
                            dst(),
                        );
                        if let Some(slot) = slab.lookup_out(key) {
                            black_box(slab.get(slot).external);
                            alive += 1;
                        }
                    }
                    alive
                })
            });
            let mut probe2 = 0usize;
            g.bench_function("hashmap", |b| {
                b.iter(|| {
                    let mut alive = 0usize;
                    for _ in 0..OPS {
                        probe2 = (probe2 + 7919) % n;
                        if let Some(m) = old.lookup(Protocol::Udp, internal(probe2)) {
                            black_box(m.external);
                            alive += 1;
                        }
                    }
                    alive
                })
            });
            g.finish();
        }

        {
            let mut slab = populate_slab(n);
            let mut old = populate_old(n);
            let mut g = c.benchmark_group(&format!("churn/{label}"));
            g.throughput(Throughput::Elements(OPS as u64));
            let mut k = 0usize;
            g.bench_function("slab", |b| {
                b.iter(|| {
                    for _ in 0..OPS {
                        k = (k + 104_729) % n;
                        let key = slab.out_key(
                            MappingBehavior::EndpointIndependent,
                            Protocol::Udp,
                            internal(k),
                            dst(),
                        );
                        if let Some(slot) = slab.lookup_out(key) {
                            slab.remove(slot);
                        }
                        let m = mapping(k);
                        let pool = slab.intern_pool(m.external.ip, m.proto);
                        slab.insert(key, pool, m, expiry(k));
                    }
                    slab.len()
                })
            });
            let mut k2 = 0usize;
            g.bench_function("hashmap", |b| {
                b.iter(|| {
                    for _ in 0..OPS {
                        k2 = (k2 + 104_729) % n;
                        old.remove(Protocol::Udp, internal(k2));
                        old.insert(mapping(k2));
                    }
                    old.mappings.len()
                })
            });
            g.finish();
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5);
    targets = bench_store
}
criterion_main!(benches);
