//! Per-AS background load against an **externally owned** CGN engine.
//!
//! The dimensioning [`crate::driver`] builds its own [`ShardedNat`] and
//! address plan; the detection campaign needs the opposite: a
//! simulated world (`topology` → `simnet`) already owns one sharded
//! CGN engine per deployment, and the campaign must push a realistic
//! subscriber workload *through that instance* so the external
//! observer sees port allocation, pooling and churn under load while
//! internal probes run against the very same state.
//!
//! [`drive`] is that generator. It reuses the [`crate::workload`]
//! application models, gives every host its own RNG stream, and feeds
//! each epoch's packets through `ShardedNat::partition`-style batches
//! on up to `threads` worker threads
//! ([`ShardedNat::process_bursts`]) — so a 100k-subscriber AS loads
//! its CGN at full multi-core speed while remaining **bit-identical
//! for every thread count** (the engine's burst guarantee; pinned by
//! this module's tests).
//!
//! A configurable share of hosts are *announcers* — BitTorrent-style
//! peers whose flows an external crawler can observe. For those, every
//! admitted flow yields a [`PeerObservation`]: the peer's identity and
//! announced internal address together with the translated external
//! endpoint the remote side saw. That stream is exactly the input of
//! the external (DHT/BitTorrent) detection perspective: distinct peers
//! per external address, per-peer port churn, and allocation-pattern
//! signatures (per-connection vs. port-block vs. deterministic).

use crate::workload::WorkloadMix;
use nat_engine::sharded::mix64;
use nat_engine::{NatVerdict, ShardedNat};
use netcore::{Endpoint, Packet, SimTime, TcpFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Configuration of one background-load run (one CGN instance).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackgroundLoad {
    /// Application mix assigned across the host population.
    pub mix: WorkloadMix,
    /// Simulated seconds of load.
    pub duration_secs: u64,
    /// Epoch length: packets are generated and batched per epoch, and
    /// expired mappings are swept at every epoch boundary (the churn
    /// clock the external observer sees).
    pub epoch_secs: u64,
    /// Worker threads for batch processing (`<= 1` = sequential; the
    /// result never depends on it).
    pub threads: usize,
    /// Share of hosts whose flows the external observer can see.
    pub announce_share: f64,
    /// Observation cap per announcer (bounds memory at ISP scale).
    pub max_observations_per_host: usize,
    pub seed: u64,
}

impl BackgroundLoad {
    /// A light default suitable for tests: two minutes of mixed load.
    pub fn quick(seed: u64) -> BackgroundLoad {
        BackgroundLoad {
            mix: WorkloadMix::residential_evening(),
            duration_secs: 120,
            epoch_secs: 30,
            threads: 1,
            announce_share: 0.5,
            max_observations_per_host: 8,
            seed,
        }
    }
}

/// One flow of an announcer host as the external observer records it:
/// BitTorrent handshakes leak the peer's identity and internal
/// address while the packet arrives from the translated endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerObservation {
    /// Stable peer identity (index into the host list) — what a
    /// crawler derives from the BitTorrent peer id.
    pub peer: u32,
    /// The internal address the peer announces.
    pub internal: Ipv4Addr,
    /// The source endpoint the observer saw (post-translation).
    pub external: Endpoint,
    /// Observation time in milliseconds of virtual time.
    pub at_ms: u64,
}

/// Aggregate outcome of one background-load run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSummary {
    pub hosts: u32,
    /// New-flow packets offered to the engine.
    pub flows_offered: u64,
    /// Flows the engine admitted (mapping created or refreshed).
    pub flows_admitted: u64,
    /// Flows dropped at admission (port/chunk/session exhaustion).
    pub flows_blocked: u64,
    /// External observations collected from announcer hosts, in
    /// deterministic (epoch, shard, batch) order.
    pub observations: Vec<PeerObservation>,
}

/// Per-host generator state.
struct HostState {
    rng: StdRng,
    announcer: bool,
    next_src_port: u16,
    observations: usize,
    /// Fractional-flow carry so low-rate profiles still emit flows.
    carry: f64,
}

/// Synthetic destination for a flow (stable per host/slot, public-ish
/// space distinct from pools and subscriber ranges).
fn dest_endpoint(host_idx: u32, flow: u64, port: u16) -> Endpoint {
    let z = mix64(((host_idx as u64) << 20) ^ flow);
    Endpoint::new(
        Ipv4Addr::from(u32::from(Ipv4Addr::new(23, 0, 0, 0)) + (z as u32 & 0x00FF_FFFF)),
        port,
    )
}

/// Drive `cfg.duration_secs` of workload from `hosts` through `nat`,
/// starting at virtual time `start`. The caller owns the engine (and,
/// in the campaign, the surrounding simulated network); this function
/// only creates/refreshes mappings and sweeps expiry at epoch
/// boundaries — it never touches engine configuration.
///
/// Results (counters and observations) are bit-identical for every
/// `threads` value.
pub fn drive(
    nat: &mut ShardedNat,
    hosts: &[Ipv4Addr],
    start: SimTime,
    cfg: &BackgroundLoad,
) -> LoadSummary {
    assert!(cfg.epoch_secs > 0, "epoch must be positive");
    let shard_count = nat.shard_count();
    let mut states: Vec<HostState> = hosts
        .iter()
        .enumerate()
        .map(|(idx, _)| {
            let mut rng = StdRng::seed_from_u64(mix64(cfg.seed ^ mix64(idx as u64 + 1)));
            let announcer = rng.gen_bool(cfg.announce_share.clamp(0.0, 1.0));
            HostState {
                rng,
                announcer,
                next_src_port: 0,
                observations: 0,
                carry: 0.0,
            }
        })
        .collect();

    let mut flows_offered = 0u64;
    let mut flows_admitted = 0u64;
    let mut flows_blocked = 0u64;
    let mut observations = Vec::new();
    let start_ms = start.as_millis();

    let mut t = 0u64;
    let mut flow_counter = 0u64;
    while t < cfg.duration_secs {
        let epoch = cfg.epoch_secs.min(cfg.duration_secs - t);
        let now = SimTime::from_millis(start_ms + t * 1000);

        // Generate this epoch's new-flow packets, batched per shard
        // with the originating host recorded alongside.
        let mut batches: Vec<Vec<Packet>> = vec![Vec::new(); shard_count];
        let mut meta: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        for (idx, addr) in hosts.iter().enumerate() {
            let st = &mut states[idx];
            let params = cfg.mix.assign(idx as u32).params();
            let expect = params.flows_per_min / 60.0 * epoch as f64 + st.carry;
            let n = expect.floor() as u64;
            st.carry = expect - n as f64;
            let shard = nat.shard_of(*addr);
            for _ in 0..n {
                let src_port = 20_000 + (st.next_src_port % 45_000);
                st.next_src_port = st.next_src_port.wrapping_add(1) % 45_000;
                let src = Endpoint::new(*addr, src_port);
                flow_counter += 1;
                let dst = dest_endpoint(
                    idx as u32,
                    flow_counter,
                    params.sample_dst_port(&mut st.rng),
                );
                let pkt = if st.rng.gen_bool(params.udp_share) {
                    Packet::udp(src, dst, vec![])
                } else {
                    Packet::tcp(src, dst, TcpFlags::SYN, vec![])
                };
                batches[shard].push(pkt);
                meta[shard].push(idx as u32);
            }
        }
        flows_offered += batches.iter().map(|b| b.len() as u64).sum::<u64>();

        // One multi-threaded pass through the engine; verdicts come
        // back in (shard, batch) order, so observation order is
        // deterministic and thread-count independent.
        let verdicts = nat.process_bursts(batches, now, cfg.threads);
        for (shard, vs) in verdicts.into_iter().enumerate() {
            for (k, v) in vs.into_iter().enumerate() {
                match v {
                    NatVerdict::Forward(p) | NatVerdict::Hairpin(p) => {
                        flows_admitted += 1;
                        let idx = meta[shard][k] as usize;
                        let st = &mut states[idx];
                        if st.announcer && st.observations < cfg.max_observations_per_host {
                            st.observations += 1;
                            observations.push(PeerObservation {
                                peer: idx as u32,
                                internal: hosts[idx],
                                external: p.src,
                                at_ms: now.as_millis(),
                            });
                        }
                    }
                    NatVerdict::Drop(_) => flows_blocked += 1,
                }
            }
        }

        t += epoch;
        // Epoch boundary: expire idle mappings so ports churn the way
        // the external observer expects.
        nat.sweep(SimTime::from_millis(start_ms + t * 1000));
    }

    LoadSummary {
        hosts: hosts.len() as u32,
        flows_offered,
        flows_admitted,
        flows_blocked,
        observations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nat_engine::NatConfig;
    use netcore::ip;

    fn pool(n: u8) -> Vec<Ipv4Addr> {
        (0..n).map(|k| ip(198, 51, 100, k + 1)).collect()
    }

    fn hosts(n: u8) -> Vec<Ipv4Addr> {
        (0..n).map(|k| ip(100, 64, 0, k + 10)).collect()
    }

    #[test]
    fn load_creates_mappings_and_observations() {
        let mut nat = ShardedNat::new(NatConfig::cgn_default(), pool(8), 4, 7);
        let hs = hosts(40);
        let s = drive(&mut nat, &hs, SimTime::ZERO, &BackgroundLoad::quick(3));
        assert!(s.flows_offered > 100, "offered {}", s.flows_offered);
        assert_eq!(s.flows_admitted + s.flows_blocked, s.flows_offered);
        assert!(s.flows_admitted > 0);
        assert!(!s.observations.is_empty());
        // Every observation names a pool address and a real host.
        for o in &s.observations {
            assert!(nat.is_external_ip(o.external.ip));
            assert_eq!(hs[o.peer as usize], o.internal);
        }
        // Announce share ~0.5: observations come from a strict subset.
        let peers: std::collections::BTreeSet<u32> =
            s.observations.iter().map(|o| o.peer).collect();
        assert!(peers.len() < hs.len());
        assert!(peers.len() >= hs.len() / 4);
    }

    #[test]
    fn identical_for_any_thread_count() {
        let run = |threads: usize| {
            let mut nat = ShardedNat::new(NatConfig::cgn_default(), pool(8), 4, 7);
            let mut cfg = BackgroundLoad::quick(11);
            cfg.threads = threads;
            drive(&mut nat, &hosts(60), SimTime::ZERO, &cfg)
        };
        let seq = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(seq, run(threads), "threads={threads} diverged");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed: u64| {
            let mut nat = ShardedNat::new(NatConfig::cgn_default(), pool(8), 2, 7);
            let mut cfg = BackgroundLoad::quick(seed);
            cfg.seed = seed;
            drive(&mut nat, &hosts(60), SimTime::ZERO, &cfg)
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn tiny_pool_blocks_flows() {
        let mut cfg = NatConfig::cgn_default();
        cfg.port_range = (1024, 1024 + 63);
        let mut nat = ShardedNat::new(cfg, pool(1), 1, 7);
        let mut load = BackgroundLoad::quick(5);
        load.mix = WorkloadMix::p2p_heavy();
        let s = drive(&mut nat, &hosts(50), SimTime::ZERO, &load);
        assert!(s.flows_blocked > 0, "64 ports cannot carry p2p load");
    }

    #[test]
    fn observation_cap_bounds_memory() {
        let mut nat = ShardedNat::new(NatConfig::cgn_default(), pool(4), 2, 7);
        let mut cfg = BackgroundLoad::quick(9);
        cfg.announce_share = 1.0;
        cfg.max_observations_per_host = 2;
        let s = drive(&mut nat, &hosts(20), SimTime::ZERO, &cfg);
        let mut per_host = std::collections::HashMap::new();
        for o in &s.observations {
            *per_host.entry(o.peer).or_insert(0usize) += 1;
        }
        assert!(per_host.values().all(|&n| n <= 2));
    }
}
