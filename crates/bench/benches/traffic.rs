//! NAT hot-path throughput under each workload mix (flows/second).
//!
//! Each benchmark replays the identical deterministic workload slice —
//! the same subscriber population, arrivals and destinations — through
//! a fresh CGN, so the reported `thrpt` is NAT-translation flows per
//! wall-clock second under that mix's packet pattern. This is the
//! BENCH-trajectory number for the `cgn-traffic` subsystem.

use cgn_traffic::{DriverConfig, WorkloadMix};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// A slice small enough to iterate but large enough to exercise the
/// sweep/timeout paths: a few thousand flows per iteration.
fn slice_config(mix: WorkloadMix) -> DriverConfig {
    DriverConfig {
        subscribers: 400,
        shards: 1,
        external_ips_per_shard: 4,
        duration_secs: 120,
        sample_secs: 60,
        sweep_secs: 30,
        ..DriverConfig::new(mix, 0xBE9C)
    }
}

/// The same slice across shard counts, sequential vs. worker threads —
/// the bench-visible view of the scaling axis `benchmark/`'s
/// `driver-steady` workload measures end to end.
fn sharded_config(shards: u16, threads: usize) -> DriverConfig {
    DriverConfig {
        subscribers: 800,
        shards,
        external_ips_per_shard: 2,
        threads,
        duration_secs: 120,
        sample_secs: 60,
        sweep_secs: 30,
        ..DriverConfig::new(WorkloadMix::residential_evening(), 0xBE9C)
    }
}

fn bench_sharding(c: &mut Criterion) {
    let mut g = c.benchmark_group("traffic");
    for (name, cfg) in [
        ("sharded/1x1", sharded_config(1, 1)),
        ("sharded/4x1", sharded_config(4, 1)),
        ("sharded/4xN", sharded_config(4, 0)),
    ] {
        let flows = cgn_traffic::run(&cfg).flows_started;
        g.throughput(Throughput::Elements(flows));
        g.bench_function(name, |b| b.iter(|| black_box(cgn_traffic::run(&cfg))));
    }
    g.finish();
}

fn bench_workload_mixes(c: &mut Criterion) {
    let mut g = c.benchmark_group("traffic");
    for mix in WorkloadMix::all() {
        let cfg = slice_config(mix.clone());
        // The driver is deterministic: one calibration run tells us the
        // exact flow count every timed iteration will push.
        let flows = cgn_traffic::run(&cfg).flows_started;
        g.throughput(Throughput::Elements(flows));
        g.bench_function(&format!("flows/{}", mix.name), |b| {
            b.iter(|| black_box(cgn_traffic::run(&cfg)))
        });
    }
    g.finish();
}

fn bench_packet_hot_path(c: &mut Criterion) {
    // Packet-level view of the heaviest mix, for comparing against the
    // substrate benches (`nat/outbound_*`).
    let mut g = c.benchmark_group("traffic");
    let cfg = slice_config(WorkloadMix::p2p_heavy());
    let packets = cgn_traffic::run(&cfg).packets_sent;
    g.throughput(Throughput::Elements(packets));
    g.bench_function("packets/p2p-heavy", |b| {
        b.iter(|| black_box(cgn_traffic::run(&cfg)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_workload_mixes, bench_packet_hot_path, bench_sharding
}
criterion_main!(benches);
