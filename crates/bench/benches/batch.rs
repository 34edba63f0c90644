//! Burst-pipeline throughput: the driver's event-wheel drains pushed
//! through `Nat::process_burst` at burst sizes 1/8/32/128, at 1× and
//! 16× subscriber scale.
//!
//! Burst = 1 is the scalar-equivalent reference (one packet per
//! `process_burst` call — nothing to overlap a packet's cache misses
//! with); the larger sizes measure what the batched hot path buys
//! once a burst's index-cell and slot-row misses are in flight
//! together. The setup also asserts every burst size reproduces the
//! burst=1 digest bit-for-bit, so the bench doubles as an equivalence
//! check.
//!
//! ```text
//! cargo bench -p cgn-bench --bench batch
//! ```
//!
//! The CI `batch` job uploads the output as the `BENCH_batch` artifact
//! (alongside the perf harness's `BENCH_batch.json` gate leg).

use cgn_study::dimensioning::DimensioningConfig;
use cgn_traffic::WorkloadMix;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// Burst sizes swept (1 = scalar-equivalent reference).
const BURSTS: [usize; 4] = [1, 8, 32, 128];
/// Subscriber scales swept.
const SCALES: [u32; 2] = [1, 16];
/// Subscribers at 1× — small enough that one 16× pass stays at
/// CI-bench seconds-scale, large enough to exceed the slab's warm set.
const BASE_SUBSCRIBERS: u32 = 120;

fn config(scale: u32, burst: usize) -> DimensioningConfig {
    let mut c = DimensioningConfig::small(2016);
    c.subscribers = BASE_SUBSCRIBERS * scale;
    c.shards = 4;
    c.external_ips_per_shard = 2;
    c.threads = 1;
    c.duration_secs = 60;
    c.sample_secs = 30;
    c.sweep_secs = 20;
    c.mixes = vec![WorkloadMix::all()[0].clone()];
    c.burst = burst;
    c
}

/// One full sweep of the reference mix; returns `(flows, digest)`.
fn sweep(scale: u32, burst: usize) -> (u64, u64) {
    let c = config(scale, burst);
    let mix = c.mixes[0].clone();
    let summary = cgn_traffic::run(&c.driver_config(mix));
    (summary.flows_started, summary.digest())
}

fn bench_batch(c: &mut Criterion) {
    for scale in SCALES {
        let (flows, reference) = sweep(scale, BURSTS[0]);
        let mut g = c.benchmark_group(&format!("burst/{scale}x"));
        g.throughput(Throughput::Elements(flows));
        for burst in BURSTS {
            let (_, digest) = sweep(scale, burst);
            assert_eq!(
                digest, reference,
                "burst={burst} diverged from the scalar-equivalent digest at {scale}x"
            );
            g.bench_function(&format!("{burst}"), |b| b.iter(|| sweep(scale, burst).0));
        }
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench_batch
}
criterion_main!(benches);
