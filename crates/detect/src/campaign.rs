//! The experiment campaign: build each scenario world, load its
//! sharded CGNs, observe from both perspectives, classify every AS,
//! and score against ground truth.
//!
//! One scenario run is four phases:
//!
//! 1. **Load** — every CGN instance (a `ShardedNat` inside the simnet
//!    world) receives its subscribers' background workload through
//!    multi-threaded shard batches (`cgn_traffic::background`);
//!    announcer flows yield the external observer's sightings.
//! 2. **Observe (external)** — subscribers of NAT-free ASes send real
//!    flows through the simulated network so the observer sees their
//!    (unshared) addresses too; all sightings aggregate per external
//!    IP ([`bt_dht::observer`]) and attribute to ASes via the global
//!    routing table.
//! 3. **Probe (internal)** — sampled vantage subscribers run the
//!    compact probe suite ([`crate::features`]).
//! 4. **Classify & score** — the rule classifier fuses both
//!    perspectives per AS; predictions meet the topology's ground
//!    truth in a confusion matrix ([`crate::score`]).
//!
//! Everything is deterministic in the campaign seed and bit-identical
//! for every worker-thread count (the only parallel stage is the
//! engine's order-preserving batch scatter).

use crate::classify::{classify, AsFeatureSummary, ClassifierConfig};
use crate::features::{probe_vantage, VantageFeatures};
use crate::scenario::{standard_library, ScaleParams, ScenarioConfig};
use crate::score::{class_scores, AsLabel, ClassScore, Confusion};
use bt_dht::observer::{observe, ExternalIpView, Sighting};
use cgn_traffic::background;
use nat_engine::sharded::mix64;
use netalyzr::MeasurementLab;
use netcore::{AsId, Endpoint, Packet, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use topology::{AsDeployment, Subscriber, World};

/// Campaign configuration: seed, scale and classifier thresholds.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub seed: u64,
    pub scale: ScaleParams,
    pub classifier: ClassifierConfig,
}

impl CampaignConfig {
    /// Test/CI scale (seconds of wall time).
    pub fn quick(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            scale: ScaleParams::quick(),
            classifier: ClassifierConfig::default(),
        }
    }

    /// The acceptance scale: ≥100k subscribers across the library.
    pub fn standard(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            scale: ScaleParams::standard(),
            classifier: ClassifierConfig::default(),
        }
    }

    /// Override the worker-thread count of every load stage (an
    /// execution detail; results never depend on it).
    pub fn with_threads(mut self, threads: usize) -> CampaignConfig {
        self.scale.threads = threads;
        self
    }
}

/// One AS's outcome: fused features, prediction, truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsOutcome {
    pub as_name: String,
    pub truth: AsLabel,
    pub predicted: AsLabel,
    pub features: AsFeatureSummary,
}

/// One scenario's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    pub name: String,
    pub subscribers: u64,
    pub cgn_instances: usize,
    /// Shards per CGN instance (0 when the scenario deploys none).
    pub shards_per_instance: u16,
    /// Background-load totals across the scenario's CGN instances.
    pub flows_offered: u64,
    pub flows_admitted: u64,
    pub flows_blocked: u64,
    /// External sightings collected (both load-driven and direct).
    pub sightings: u64,
    pub ases: Vec<AsOutcome>,
    pub confusion: Confusion,
}

/// The whole campaign's report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    pub seed: u64,
    pub scenarios: Vec<ScenarioOutcome>,
    pub confusion: Confusion,
    pub scores: Vec<ClassScore>,
    pub total_subscribers: u64,
    pub total_flows: u64,
    pub accuracy: f64,
    pub cgn_precision: f64,
    pub cgn_recall: f64,
}

impl CampaignReport {
    /// Deterministic fingerprint (the determinism tests' observable).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{self:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut o = String::new();
        let _ = writeln!(
            o,
            "CGN detection campaign — seed {} | {} scenarios | {} ASes | {} subscribers | {} load flows",
            self.seed,
            self.scenarios.len(),
            self.confusion.total(),
            self.total_subscribers,
            self.total_flows,
        );
        for s in &self.scenarios {
            let _ = writeln!(
                o,
                "\n---- scenario: {} {}",
                s.name,
                "-".repeat(56usize.saturating_sub(s.name.len()))
            );
            let _ = writeln!(
                o,
                "{} subscribers | {} CGN instance(s) × {} shard(s) | load: {} offered, {} blocked | {} sightings",
                s.subscribers,
                s.cgn_instances,
                s.shards_per_instance,
                s.flows_offered,
                s.flows_blocked,
                s.sightings
            );
            let _ = writeln!(
                o,
                "  {:<22} {:>8} {:>10}   {:>3}C/{:>3}H/{:>3}P votes  {:>4} peers/IP  {:>9}  sig",
                "AS", "truth", "predicted", "", "", "", "", "pool≥"
            );
            for a in &s.ases {
                let f = &a.features;
                let _ = writeln!(
                    o,
                    "  {:<22} {:>8} {:>10}   {:>3}/{:>4}/{:>4} of {:<3}  {:>4}        {:>5}      {}",
                    a.as_name,
                    a.truth.name(),
                    a.predicted.name(),
                    f.carrier_votes,
                    f.home_votes,
                    f.public_votes,
                    f.usable,
                    f.max_peers_per_ip,
                    f.distinct_mapped_ips,
                    f.ext_signature,
                );
            }
        }
        let _ = writeln!(o, "\n---- scores (all scenarios pooled) ----");
        let _ = writeln!(o, "confusion (rows = truth, cols = predicted):");
        let _ = writeln!(
            o,
            "  {:<9} {:>6} {:>8} {:>8}",
            "", "cgn", "cpe-nat", "public"
        );
        for (t, label) in AsLabel::ALL.iter().enumerate() {
            let c = &self.confusion.counts[t];
            let _ = writeln!(
                o,
                "  {:<9} {:>6} {:>8} {:>8}",
                label.name(),
                c[0],
                c[1],
                c[2]
            );
        }
        for sc in &self.scores {
            let _ = writeln!(
                o,
                "{:<9} precision {:.3} | recall {:.3} | support {}",
                sc.label.name(),
                sc.precision,
                sc.recall,
                sc.support
            );
        }
        let _ = writeln!(
            o,
            "accuracy {:.3} | CGN precision {:.3} | CGN recall {:.3}",
            self.accuracy, self.cgn_precision, self.cgn_recall
        );
        o
    }
}

/// Ground truth for one AS.
fn truth_label(dep: &AsDeployment, subscribers: &[Subscriber]) -> AsLabel {
    if dep.has_cgn() {
        return AsLabel::Cgn;
    }
    let cpe_lines = dep
        .subscriber_ids
        .iter()
        .filter(|id| subscribers[**id].cpe.is_some())
        .count();
    if cpe_lines * 2 >= dep.subscriber_ids.len().max(1) {
        AsLabel::CpeNat
    } else {
        AsLabel::Public
    }
}

/// The internal host address a CGN sees for one subscriber line.
fn line_internal_addr(sub: &Subscriber) -> std::net::Ipv4Addr {
    sub.cpe
        .as_ref()
        .map(|c| c.external_ip)
        .unwrap_or(sub.device_addr)
}

/// Run one scenario end to end.
pub fn run_scenario(sc: &ScenarioConfig, classifier: &ClassifierConfig) -> ScenarioOutcome {
    let mut world = World::build(sc.topology.clone());
    let lab_base = {
        let a = world.next_service_addr();
        for _ in 1..MeasurementLab::SERVICE_ADDRS {
            let _ = world.next_service_addr();
        }
        a
    };
    let lab = MeasurementLab::install(&mut world.net, lab_base);
    let observer_ep = Endpoint::new(world.next_service_addr(), 6881);
    let observer_node = world
        .net
        .add_host(simnet::RealmId::PUBLIC, observer_ep.ip, vec![]);
    let _ = observer_node;

    // ---- Phase 1: background load through every sharded CGN. ----
    let mut sightings: Vec<Sighting> = Vec::new();
    let mut flows_offered = 0u64;
    let mut flows_admitted = 0u64;
    let mut flows_blocked = 0u64;
    let mut cgn_instances = 0usize;
    let mut shards_per_instance = 0u16;
    for (di, dep) in world.deployments.iter().enumerate() {
        for (ii, inst) in dep.cgn_instances.iter().enumerate() {
            let hosts: Vec<std::net::Ipv4Addr> = dep
                .subscriber_ids
                .iter()
                .map(|id| &world.subscribers[*id])
                .filter(|s| s.cgn_instance == Some(ii))
                .map(line_internal_addr)
                .collect();
            if hosts.is_empty() {
                continue;
            }
            cgn_instances += 1;
            shards_per_instance = shards_per_instance.max(inst.shards);
            let mut load = sc.load.clone();
            load.seed = sc.load.seed ^ mix64(((di as u64) << 8) | ii as u64);
            let start = world.net.now();
            let summary = background::drive(
                world.net.nat_sharded_mut(inst.nat_node),
                &hosts,
                start,
                &load,
            );
            flows_offered += summary.flows_offered;
            flows_admitted += summary.flows_admitted;
            flows_blocked += summary.flows_blocked;
            sightings.extend(summary.observations.iter().map(|o| Sighting {
                peer: mix64(((di as u64) << 40) ^ ((ii as u64) << 32) ^ o.peer as u64),
                internal: o.internal,
                external: o.external,
                at_ms: o.at_ms,
            }));
        }
    }

    // ---- Phase 2: NAT-free ASes seen by the observer directly. ----
    // Their subscribers' real flows traverse the simulated network
    // (CPE translation included), so the observer's per-address peer
    // counts stay honest for the negative classes.
    let no_cgn: Vec<(usize, Vec<usize>)> = world
        .deployments
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.has_cgn())
        .map(|(di, d)| (di, d.subscriber_ids.clone()))
        .collect();
    for round in 0..3u64 {
        for (di, sub_ids) in &no_cgn {
            for (k, id) in sub_ids.iter().enumerate() {
                if k % 2 != 0 {
                    continue; // announce_share ≈ 0.5
                }
                let sub = &world.subscribers[*id];
                let port = 20_000 + ((mix64(*id as u64 ^ round) % 40_000) as u16);
                let src = Endpoint::new(sub.device_addr, port);
                let delivery = world.net.send(
                    sub.device_node,
                    Packet::udp(src, observer_ep, b"BT".to_vec()),
                );
                if let Some(d) = delivery.filter(|d| d.pkt.dst == observer_ep) {
                    sightings.push(Sighting {
                        peer: mix64(((*di as u64) << 40) ^ 0xF00D ^ *id as u64),
                        internal: sub.device_addr,
                        external: d.pkt.src,
                        at_ms: world.net.now().as_millis(),
                    });
                }
            }
        }
        world.net.advance(SimDuration::from_secs(40));
    }

    // ---- External aggregation, attributed per AS. ----
    let views: Vec<ExternalIpView> = observe(&sightings);
    let mut views_by_as: BTreeMap<AsId, Vec<&ExternalIpView>> = BTreeMap::new();
    for v in &views {
        if let Some(as_id) = world.routing.origin_of(v.ip) {
            views_by_as.entry(as_id).or_default().push(v);
        }
    }

    // ---- Phase 3 + 4: internal probes, classification, scoring. ----
    let mut ases = Vec::new();
    let mut confusion = Confusion::default();
    let mut subscribers_total = 0u64;
    let deployment_ids: Vec<AsId> = world.deployments.iter().map(|d| d.info.id).collect();
    for as_id in deployment_ids {
        let dep = world.deployment(as_id).expect("listed above").clone();
        subscribers_total += dep.subscriber_ids.len() as u64;
        let n = dep.subscriber_ids.len();
        let step = (n / sc.vantages_per_as.max(1)).max(1);
        let vantage_ids: Vec<usize> = dep
            .subscriber_ids
            .iter()
            .step_by(step)
            .take(sc.vantages_per_as)
            .copied()
            .collect();
        let features: Vec<VantageFeatures> = vantage_ids
            .iter()
            .map(|id| {
                let sub = world.subscribers[*id].clone();
                probe_vantage(
                    &mut world.net,
                    &lab,
                    &sub,
                    sc.probe_flows,
                    mix64(sc.seed ^ mix64(*id as u64 + 1)),
                )
            })
            .collect();
        let empty = Vec::new();
        let external = views_by_as.get(&as_id).unwrap_or(&empty);
        let summary = AsFeatureSummary::build(as_id, &features, external, classifier);
        let predicted = classify(classifier, &summary);
        let truth = truth_label(&dep, &world.subscribers);
        confusion.record(truth, predicted);
        ases.push(AsOutcome {
            as_name: dep.info.name.clone(),
            truth,
            predicted,
            features: summary,
        });
    }

    ScenarioOutcome {
        name: sc.name.clone(),
        subscribers: subscribers_total,
        cgn_instances,
        shards_per_instance,
        flows_offered,
        flows_admitted,
        flows_blocked,
        sightings: sightings.len() as u64,
        ases,
        confusion,
    }
}

/// Run the standard scenario library at the configured scale.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let library = standard_library(cfg.seed, &cfg.scale);
    let scenarios: Vec<ScenarioOutcome> = library
        .iter()
        .map(|sc| run_scenario(sc, &cfg.classifier))
        .collect();
    let mut confusion = Confusion::default();
    let mut total_subscribers = 0;
    let mut total_flows = 0;
    for s in &scenarios {
        confusion.merge(&s.confusion);
        total_subscribers += s.subscribers;
        total_flows += s.flows_offered;
    }
    let scores = class_scores(&confusion);
    CampaignReport {
        seed: cfg.seed,
        accuracy: confusion.accuracy(),
        cgn_precision: confusion.precision(AsLabel::Cgn),
        cgn_recall: confusion.recall(AsLabel::Cgn),
        scenarios,
        confusion,
        scores,
        total_subscribers,
        total_flows,
    }
}
