//! Building the world: ASes, routing, NAT deployments, subscribers.

use crate::alloc::{InternalRangeChoice, InternalSpaceAllocator, PublicSpaceAllocator};
use crate::config::{CgnBehaviorProfile, CgnPolicyOverride, TopologyConfig};
use crate::models::{CpeModel, OsKind};
use nat_engine::{
    FilteringBehavior, MappingBehavior, NatConfig, Pooling, PortAllocation, StunNatType,
};
use netcore::{
    AsId, AsInfo, AsKind, AsRegistry, Prefix, ReservedRange, Rir, RoutingTable, SimDuration,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Network, NodeId, RealmId};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// The three deployment scenarios of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Public address; at most a subscriber-side NAT44 (CPE).
    A,
    /// Carrier-side NAT44 only: the device holds an ISP-internal address.
    B,
    /// NAT444: home NAT behind a carrier NAT.
    C,
}

/// A subscriber's CPE router, if any.
#[derive(Debug, Clone)]
pub struct CpeInfo {
    pub nat_node: NodeId,
    pub home_realm: RealmId,
    pub model_idx: usize,
    pub model_name: String,
    pub upnp: bool,
    pub preserves_ports: bool,
    /// The CPE's WAN address (public in scenario A, ISP-internal in C).
    pub external_ip: Ipv4Addr,
}

/// One subscriber line.
#[derive(Debug, Clone)]
pub struct Subscriber {
    pub id: usize,
    pub as_id: AsId,
    pub scenario: Scenario,
    pub device_node: NodeId,
    pub device_addr: Ipv4Addr,
    pub os: OsKind,
    pub cpe: Option<CpeInfo>,
    /// Index into the AS deployment's `cgn_instances`.
    pub cgn_instance: Option<usize>,
    pub runs_bittorrent: bool,
    /// Additional BitTorrent devices in the same home (same realm).
    pub extra_bt_devices: Vec<(NodeId, Ipv4Addr)>,
}

/// Ground truth about one deployed CGN middlebox.
#[derive(Debug, Clone)]
pub struct CgnInstance {
    pub nat_node: NodeId,
    pub realm: RealmId,
    pub internal_prefix: Prefix,
    pub internal_choice: InternalRangeChoice,
    pub pool: Vec<Ipv4Addr>,
    pub port_alloc: PortAllocation,
    pub stun_type: StunNatType,
    pub udp_timeout_secs: u64,
    pub pooling: Pooling,
    pub multicast: bool,
    /// Aggregation hops drawn for subscribers of this instance.
    pub agg_hops: (usize, usize),
    /// State shards of the deployed `ShardedNat` engine.
    pub shards: u16,
}

/// Ground truth for one instrumented (eyeball) AS.
#[derive(Debug, Clone)]
pub struct AsDeployment {
    pub info: AsInfo,
    pub public_prefix: Prefix,
    pub cgn_instances: Vec<CgnInstance>,
    /// The internal ranges this AS's CGNs draw from (Fig. 7).
    pub internal_choices: Vec<InternalRangeChoice>,
    /// Fraction of subscribers behind CGN (partial deployments).
    pub partial_fraction: f64,
    pub subscriber_ids: Vec<usize>,
}

impl AsDeployment {
    pub fn has_cgn(&self) -> bool {
        !self.cgn_instances.is_empty()
    }
}

/// The generated world.
#[derive(Debug)]
pub struct World {
    pub config: TopologyConfig,
    pub net: Network,
    pub registry: AsRegistry,
    pub routing: RoutingTable,
    /// Instrumented eyeball ASes, in creation order.
    pub deployments: Vec<AsDeployment>,
    pub subscribers: Vec<Subscriber>,
    pub cpe_models: Vec<CpeModel>,
    /// Synthesized eyeball AS lists (Table 5's PBL and APNIC columns).
    pub pbl: BTreeSet<AsId>,
    pub apnic_list: BTreeSet<AsId>,
    /// Public block reserved for measurement infrastructure (servers,
    /// crawler).
    pub service_prefix: Prefix,
    service_hosts_used: u64,
}

/// Allocates router-label addresses from the benchmark range 198.18/15.
#[derive(Debug)]
struct RouterIpGen {
    counter: u32,
}

impl RouterIpGen {
    fn new() -> Self {
        RouterIpGen { counter: 0 }
    }

    fn next(&mut self) -> Ipv4Addr {
        // Labels are hop identifiers, never realm addresses, so the
        // 198.18/15 space may wrap at ISP scale: reuse across distant
        // chains is harmless (chains are ≤ a handful of hops long).
        let c = self.counter % (1 << 17);
        self.counter = self.counter.wrapping_add(1);
        Ipv4Addr::from(u32::from(netcore::ip(198, 18, 0, 0)) + c)
    }

    fn chain(&mut self, len: usize) -> Vec<Ipv4Addr> {
        (0..len).map(|_| self.next()).collect()
    }
}

/// Per-prefix host-address allocator.
///
/// Sequential mode packs hosts densely (public blocks, home LANs);
/// scattered mode spreads hosts across the whole prefix with a stride
/// walk, the way real CGNs spread subscribers over their internal space —
/// which is exactly the /24 diversity that Fig. 5's detector keys on.
#[derive(Debug)]
struct HostAddrGen {
    prefix: Prefix,
    next: u64,
    stride: u64,
}

impl HostAddrGen {
    fn new(prefix: Prefix, start: u64) -> Self {
        HostAddrGen {
            prefix,
            next: start,
            stride: 1,
        }
    }

    /// Scattered variant: a stride coprime to the usable size walks the
    /// whole space without repeats. The stride is ≈10×256+1 so successive
    /// hosts land in different /24s (the diversity Fig. 5 keys on), not
    /// in a handful of aliased blocks.
    fn scattered(prefix: Prefix, start: u64) -> Self {
        HostAddrGen {
            prefix,
            next: start,
            stride: 2561,
        }
    }

    fn next(&mut self) -> Ipv4Addr {
        // Keep clear of .0/.1 style infrastructure offsets.
        let usable = self.prefix.size() - 10;
        let a = self.prefix.addr(10 + (self.next * self.stride) % usable);
        self.next += 1;
        a
    }

    fn take(&mut self, n: usize) -> Vec<Ipv4Addr> {
        (0..n).map(|_| self.next()).collect()
    }
}

impl World {
    /// Build the world from a configuration. Deterministic in
    /// `config.seed`.
    pub fn build(config: TopologyConfig) -> World {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut net = Network::new();
        let mut routing = RoutingTable::new();
        let mut registry = AsRegistry::new();
        let mut pub_alloc = PublicSpaceAllocator::new();
        let mut routers = RouterIpGen::new();
        let cpe_models = CpeModel::generate_market(&mut rng, config.cpe_models);

        let mut next_asn: u32 = 100;
        let mut asn = || {
            let a = next_asn;
            next_asn += 1;
            AsId(a)
        };

        // Measurement/content AS: hosts the servers and the crawler.
        let service_as = asn();
        let service_prefix = pub_alloc.next_slash16();
        routing.announce(service_prefix, service_as);
        registry.insert(AsInfo {
            id: service_as,
            name: "MeasurementContent".into(),
            rir: Rir::Arin,
            kind: AsKind::Content,
            subscribers: 0,
        });

        // The foreign announcer of 1.0.0.0/8 — the space some cellular
        // ISPs use internally although it is routed elsewhere (Fig. 7b).
        let foreign_as = asn();
        routing.announce("1.0.0.0/8".parse().expect("static"), foreign_as);
        registry.insert(AsInfo {
            id: foreign_as,
            name: "ForeignTelecom".into(),
            rir: Rir::Apnic,
            kind: AsKind::Transit,
            subscribers: 0,
        });

        let mut deployments = Vec::new();
        let mut subscribers: Vec<Subscriber> = Vec::new();

        // Eyeball ASes per RIR, residential then cellular.
        for (cellular, counts) in [
            (false, config.residential_per_rir),
            (true, config.cellular_per_rir),
        ] {
            for rir in Rir::ALL {
                let idx = TopologyConfig::rir_index(rir);
                for _ in 0..counts[idx] {
                    let id = asn();
                    let dep = build_as(
                        BuildAsArgs {
                            id,
                            rir,
                            cellular,
                            config: &config,
                            cpe_models: &cpe_models,
                        },
                        &mut rng,
                        &mut net,
                        &mut routing,
                        &mut registry,
                        &mut pub_alloc,
                        &mut routers,
                        &mut subscribers,
                    );
                    deployments.push(dep);
                }
            }
        }

        // Silent ASes: routed but without instrumented hosts — they pad
        // the "all routed ASes" denominator of Table 5.
        let silent = deployments.len() * config.silent_as_ratio;
        for i in 0..silent {
            let id = asn();
            let p = pub_alloc.next_slash16();
            routing.announce(p, id);
            let rir = Rir::ALL[rng.gen_range(0..5usize)];
            let kind = if rng.gen_bool(0.3) {
                AsKind::Transit
            } else {
                AsKind::Content
            };
            registry.insert(AsInfo {
                id,
                name: format!("Silent-{i}"),
                rir,
                kind,
                subscribers: 0,
            });
        }

        // Eyeball lists: independent high-coverage samples of the true
        // eyeball population.
        let mut pbl = BTreeSet::new();
        let mut apnic_list = BTreeSet::new();
        for d in &deployments {
            if rng.gen_bool(config.pbl_coverage) {
                pbl.insert(d.info.id);
            }
            if rng.gen_bool(config.apnic_coverage) {
                apnic_list.insert(d.info.id);
            }
        }

        World {
            config,
            net,
            registry,
            routing,
            deployments,
            subscribers,
            cpe_models,
            pbl,
            apnic_list,
            service_prefix,
            service_hosts_used: 10,
        }
    }

    /// Allocate an address for a measurement-infrastructure host.
    pub fn next_service_addr(&mut self) -> Ipv4Addr {
        let a = self.service_prefix.addr(self.service_hosts_used);
        self.service_hosts_used += 1;
        a
    }

    /// Ground truth: does this AS deploy CGN?
    pub fn has_cgn(&self, as_id: AsId) -> bool {
        self.deployments
            .iter()
            .find(|d| d.info.id == as_id)
            .map(|d| d.has_cgn())
            .unwrap_or(false)
    }

    /// The AS announcing `ip`, per the global routing table.
    pub fn as_of_public_ip(&self, ip: Ipv4Addr) -> Option<AsId> {
        self.routing.origin_of(ip)
    }

    /// The deployment record of an AS, if instrumented.
    pub fn deployment(&self, as_id: AsId) -> Option<&AsDeployment> {
        self.deployments.iter().find(|d| d.info.id == as_id)
    }

    /// All subscriber indices of an AS.
    pub fn subscribers_of(&self, as_id: AsId) -> Vec<usize> {
        self.deployment(as_id)
            .map(|d| d.subscriber_ids.clone())
            .unwrap_or_default()
    }
}

struct BuildAsArgs<'a> {
    id: AsId,
    rir: Rir,
    cellular: bool,
    config: &'a TopologyConfig,
    cpe_models: &'a [CpeModel],
}

/// Draw a CGN's internal-range choice (Fig. 7a/7b distributions).
fn draw_internal_choice(rng: &mut StdRng, cellular: bool, p_routable: f64) -> InternalRangeChoice {
    if cellular && rng.gen_bool(p_routable) {
        return if rng.gen_bool(0.35) {
            InternalRangeChoice::RoutableRouted
        } else {
            InternalRangeChoice::RoutableUnrouted
        };
    }
    let x: f64 = rng.gen();
    let r = if cellular {
        // Table 4 column 2: 10X dominates cellular deployments.
        if x < 0.62 {
            ReservedRange::R10
        } else if x < 0.92 {
            ReservedRange::R100
        } else if x < 0.98 {
            ReservedRange::R172
        } else {
            ReservedRange::R192
        }
    } else if x < 0.50 {
        ReservedRange::R10
    } else if x < 0.80 {
        ReservedRange::R100
    } else if x < 0.92 {
        ReservedRange::R172
    } else {
        ReservedRange::R192
    };
    InternalRangeChoice::Reserved(r)
}

/// Draw a behaviour from the profile and assemble the NAT config plus the
/// ground-truth summary fields.
fn draw_cgn_behavior(
    rng: &mut StdRng,
    profile: &CgnBehaviorProfile,
) -> (NatConfig, PortAllocation, StunNatType, u64, Pooling) {
    let (mapping, filtering) = if rng.gen_bool(profile.p_symmetric) {
        (
            MappingBehavior::AddressAndPortDependent,
            FilteringBehavior::AddressAndPortDependent,
        )
    } else if rng.gen_bool(profile.p_full_cone) {
        (
            MappingBehavior::EndpointIndependent,
            FilteringBehavior::EndpointIndependent,
        )
    } else if rng.gen_bool(profile.p_addr_restricted) {
        (
            MappingBehavior::EndpointIndependent,
            FilteringBehavior::AddressDependent,
        )
    } else {
        (
            MappingBehavior::EndpointIndependent,
            FilteringBehavior::AddressAndPortDependent,
        )
    };

    let port_alloc = {
        let x: f64 = rng.gen();
        if x < profile.p_port_preserve {
            PortAllocation::Preserve
        } else if x < profile.p_port_preserve + profile.p_port_sequential {
            PortAllocation::Sequential
        } else if rng.gen_bool(profile.p_chunk_given_random) {
            // Chunk sizes per Table 6: ≤1K, 1–4K, 4–16K in similar shares.
            let sizes = [512u16, 1024, 2048, 4096, 8192, 16384];
            PortAllocation::RandomChunk {
                chunk_size: sizes[rng.gen_range(0..sizes.len())],
            }
        } else {
            PortAllocation::Random
        }
    };

    let udp_timeout_secs = if rng.gen_bool(profile.p_timeout_unmeasurable) {
        // Beyond the 200 s detection horizon.
        *[250u64, 300, 600]
            .get(rng.gen_range(0..3usize))
            .expect("static")
    } else {
        // Spread around the profile median on a coarse grid; the paper
        // observes 10–200 s with medians 35 s (fixed) / 65 s (cellular).
        let grid = [10u64, 20, 30, 35, 45, 60, 65, 90, 120, 150, 180, 200];
        let median = profile.udp_timeout_median_secs;
        // Biased pick: most of the mass near the median, the rest uniform.
        if rng.gen_bool(0.65) {
            let near: Vec<u64> = grid
                .iter()
                .copied()
                .filter(|v| v.abs_diff(median) <= 15)
                .collect();
            near[rng.gen_range(0..near.len())]
        } else {
            grid[rng.gen_range(0..grid.len())]
        }
    };

    let pooling = if rng.gen_bool(profile.p_arbitrary_pooling) {
        Pooling::Arbitrary
    } else {
        Pooling::Paired
    };

    let mut cfg = NatConfig::cgn_default();
    cfg.mapping = mapping;
    cfg.filtering = filtering;
    cfg.port_alloc = port_alloc;
    cfg.pooling = pooling;
    cfg.udp_timeout = SimDuration::from_secs(udp_timeout_secs);
    // TCP established timeouts also vary in deployments; some meet the
    // RFC 5382 floor (2 h 4 min), many trim it to shed state.
    let tcp_grid = [1800u64, 3600, 7200, 7440, 14_400];
    cfg.tcp_established_timeout =
        SimDuration::from_secs(tcp_grid[rng.gen_range(0..tcp_grid.len())]);
    let stun_type = cfg.stun_type();
    (cfg, port_alloc, stun_type, udp_timeout_secs, pooling)
}

/// Pin drawn CGN behaviour fields to a scenario-controlled policy.
fn apply_cgn_override(
    cfg: &mut NatConfig,
    ov: &CgnPolicyOverride,
    pool_clamp: &mut (usize, usize),
) {
    if let Some(pa) = ov.port_alloc {
        cfg.port_alloc = pa;
    }
    if let Some(m) = ov.mapping {
        cfg.mapping = m;
    }
    if let Some(f) = ov.filtering {
        cfg.filtering = f;
    }
    if let Some(t) = ov.udp_timeout_secs {
        cfg.udp_timeout = SimDuration::from_secs(t);
    }
    if let Some(p) = ov.pooling {
        cfg.pooling = p;
    }
    if let Some(clamp) = ov.pool_size {
        *pool_clamp = clamp;
    }
}

#[allow(clippy::too_many_arguments)]
fn build_as(
    args: BuildAsArgs<'_>,
    rng: &mut StdRng,
    net: &mut Network,
    routing: &mut RoutingTable,
    registry: &mut AsRegistry,
    pub_alloc: &mut PublicSpaceAllocator,
    routers: &mut RouterIpGen,
    subscribers: &mut Vec<Subscriber>,
) -> AsDeployment {
    let BuildAsArgs {
        id,
        rir,
        cellular,
        config,
        cpe_models,
    } = args;
    let public_prefix = pub_alloc.next_slash16();
    routing.announce(public_prefix, id);

    let n_subs = rng.gen_range(config.subscribers_per_as.0..=config.subscribers_per_as.1);
    registry.insert(AsInfo {
        id,
        name: format!(
            "{}-{}-{}",
            if cellular { "Cell" } else { "ISP" },
            rir.name(),
            id.0
        ),
        rir,
        kind: if cellular {
            AsKind::EyeballCellular
        } else {
            AsKind::EyeballResidential
        },
        subscribers: n_subs as u32,
    });

    let mut pub_hosts = HostAddrGen::new(public_prefix, 10);

    // --- CGN deployment decision and instances. ---
    let rir_idx = TopologyConfig::rir_index(rir);
    let p_cgn = if cellular {
        config.p_cgn_cellular_per_rir[rir_idx]
    } else {
        config.p_cgn_residential_per_rir[rir_idx]
    };
    let deploys_cgn = rng.gen_bool(p_cgn);
    let profile = if cellular {
        CgnBehaviorProfile::cellular()
    } else {
        CgnBehaviorProfile::non_cellular()
    };

    let mut internal_alloc = InternalSpaceAllocator::new();
    let mut cgn_instances: Vec<CgnInstance> = Vec::new();
    let mut internal_choices: Vec<InternalRangeChoice> = Vec::new();
    // Pooling is an ISP-wide configuration policy (§6.2 measures it per
    // AS), so it is drawn once per AS, not per middlebox.
    let as_pooling = if rng.gen_bool(profile.p_arbitrary_pooling) {
        Pooling::Arbitrary
    } else {
        Pooling::Paired
    };
    if deploys_cgn {
        // ~20% of CGN ASes use several reserved ranges (§6.1); distributed
        // deployments run several instances (the Fig. 9 strategy mixes).
        // Only larger subscriber bases warrant distributed deployments.
        let n_instances = if n_subs >= 40 && rng.gen_bool(config.p_distributed_cgn) {
            2
        } else {
            1
        };
        let primary_choice =
            draw_internal_choice(rng, cellular, config.p_routable_internal_cellular);
        internal_choices.push(primary_choice);
        if rng.gen_bool(0.20) {
            let second = draw_internal_choice(rng, cellular, config.p_routable_internal_cellular);
            if second != primary_choice {
                internal_choices.push(second);
            }
        }
        for inst in 0..n_instances {
            let choice = internal_choices[inst % internal_choices.len()];
            let internal_prefix = internal_alloc.next_subnet(choice, 18);
            let (cfg, _, _, _, _pooling) = draw_cgn_behavior(rng, &profile);
            let mut cfg = cfg;
            cfg.pooling = as_pooling;
            // Scenario-controlled worlds pin the drawn behaviour. The
            // override lands *before* the dependent hairpin draw (so
            // the vendor correlation below reflects the deployed
            // filtering class, not the discarded draw) yet changes no
            // RNG draw count — the stream, and hence the rest of the
            // world, is identical with and without a pinned policy.
            let mut pool_clamp = (8usize, 32usize);
            if let Some(ov) = &config.cgn_policy {
                apply_cgn_override(&mut cfg, ov, &mut pool_clamp);
            }
            cfg.hairpinning = rng.gen_bool(config.p_cgn_hairpin);
            // Vendors that hairpin without rewriting the source tend to be
            // the permissive ones; correlate with the filtering class.
            let p_keep_src = match cfg.filtering {
                FilteringBehavior::EndpointIndependent => {
                    (config.p_hairpin_internal_src + 0.2).min(1.0)
                }
                FilteringBehavior::AddressDependent => config.p_hairpin_internal_src,
                FilteringBehavior::AddressAndPortDependent => {
                    (config.p_hairpin_internal_src - 0.2).max(0.0)
                }
            };
            cfg.hairpin_internal_source = cfg.hairpinning && rng.gen_bool(p_keep_src);
            let multicast = rng.gen_bool(config.p_cgn_multicast);
            let shards = config.cgn_shards.max(1);
            // Pool sized so clusters can span the ≥5-address detection
            // boundary for realistic subscriber counts (operators
            // provision pools well above peak concurrency) — and so
            // every state shard owns at least one address.
            let pool_size = (n_subs / 3)
                .clamp(pool_clamp.0, pool_clamp.1)
                .max(shards as usize);
            // RFC 7422 auto-sizing: the largest power-of-two block that
            // still provisions a collision-free slot per subscriber.
            // Deliberately conservative for distributed deployments:
            // subscribers are split across instances only after the
            // instances exist, so each instance is sized as if it had
            // to hold the whole AS (smaller blocks, never collisions).
            if let PortAllocation::Deterministic { ports_per_host: 0 } = cfg.port_alloc {
                let capacity = (cfg.port_range.1 - cfg.port_range.0) as u64 + 1;
                let mut pph: u64 = 4;
                while pph * 2 <= 16_384
                    && pool_size as u64 * (capacity / (pph * 2)) >= n_subs as u64
                {
                    pph *= 2;
                }
                cfg.port_alloc = PortAllocation::Deterministic {
                    ports_per_host: pph as u16,
                };
            }
            // Ground truth reflects the deployed configuration.
            let port_alloc = cfg.port_alloc;
            let stun_type = cfg.stun_type();
            let udp_timeout_secs = cfg.udp_timeout.as_secs();
            let pooling = cfg.pooling;
            let pool = pub_hosts.take(pool_size);
            let gw = internal_prefix.addr(1);
            let ext_chain = routers.chain(rng.gen_range(1..=2));
            // Every carrier NAT deploys as a ShardedNat (shards == 1 is
            // a single-shard engine on the same code path) — the
            // ISP-scale shape the detection campaign drives load into.
            let (nat_node, realm) = net.add_nat_sharded(
                cfg,
                pool.clone(),
                shards,
                RealmId::PUBLIC,
                ext_chain,
                gw,
                multicast,
                rng.gen(),
            );
            cgn_instances.push(CgnInstance {
                nat_node,
                realm,
                internal_prefix,
                internal_choice: choice,
                pool,
                port_alloc,
                stun_type,
                udp_timeout_secs,
                pooling,
                multicast,
                agg_hops: profile.agg_hops,
                shards,
            });
        }
    }
    let partial_range = if cellular {
        config.partial_deployment_cellular
    } else {
        config.partial_deployment
    };
    let partial_fraction = rng.gen_range(partial_range.0..=partial_range.1);

    // Per-instance internal host allocators (skip .0, .1 = gateway).
    let mut internal_hosts: Vec<HostAddrGen> = cgn_instances
        .iter()
        .map(|ci| HostAddrGen::scattered(ci.internal_prefix, 0))
        .collect();

    // --- Subscribers. ---
    let as_has_bt = rng.gen_bool(config.p_as_bittorrent);
    // Bridged-modem ISPs hand devices ISP addresses directly (scenario B
    // even for fixed lines) — the FastWEB-like strong-cluster case. CGN
    // deployments correlate with bridged access (greenfield fibre with
    // bridged ONTs is where operators NAT first).
    let p_bridged = if deploys_cgn {
        (config.p_bridged_modem_isp * 2.2).min(0.9)
    } else {
        config.p_bridged_modem_isp * 0.7
    };
    let cpe_rate = if !cellular && rng.gen_bool(p_bridged) {
        0.10
    } else {
        config.p_cpe_residential
    };
    let mut subscriber_ids = Vec::with_capacity(n_subs);
    for _ in 0..n_subs {
        let sub_id = subscribers.len();
        let behind_cgn = deploys_cgn && rng.gen_bool(partial_fraction);
        let os = OsKind::draw(rng, cellular);
        let runs_bittorrent = !cellular && as_has_bt && rng.gen_bool(config.p_bittorrent);

        let sub = if behind_cgn {
            let inst_idx = rng.gen_range(0..cgn_instances.len());
            let inst = &cgn_instances[inst_idx];
            let agg = rng.gen_range(inst.agg_hops.0..=inst.agg_hops.1);
            let chain = routers.chain(agg);
            let has_cpe = !cellular && rng.gen_bool(cpe_rate);
            if has_cpe {
                // Scenario C: NAT444.
                let wan_ip = internal_hosts[inst_idx].next();
                let second_bt = runs_bittorrent && rng.gen_bool(config.p_second_bt_device);
                let (cpe, device, device_addr, extra) =
                    install_home(net, rng, cpe_models, inst.realm, wan_ip, chain, second_bt);
                Subscriber {
                    id: sub_id,
                    as_id: id,
                    scenario: Scenario::C,
                    device_node: device,
                    device_addr,
                    os,
                    cpe: Some(cpe),
                    cgn_instance: Some(inst_idx),
                    runs_bittorrent,
                    extra_bt_devices: extra,
                }
            } else {
                // Scenario B: naked device on ISP-internal space.
                let addr = internal_hosts[inst_idx].next();
                let device = net.add_host(inst.realm, addr, chain);
                Subscriber {
                    id: sub_id,
                    as_id: id,
                    scenario: Scenario::B,
                    device_node: device,
                    device_addr: addr,
                    os,
                    cpe: None,
                    cgn_instance: Some(inst_idx),
                    runs_bittorrent: runs_bittorrent
                        || (cellular && as_has_bt && rng.gen_bool(0.02)),
                    extra_bt_devices: Vec::new(),
                }
            }
        } else {
            // No CGN for this line.
            let has_cpe = !cellular && rng.gen_bool(cpe_rate);
            let chain = routers.chain(rng.gen_range(1..=3));
            if has_cpe {
                // Scenario A with a home NAT.
                let wan_ip = pub_hosts.next();
                let second_bt = runs_bittorrent && rng.gen_bool(config.p_second_bt_device);
                let (cpe, device, device_addr, extra) = install_home(
                    net,
                    rng,
                    cpe_models,
                    RealmId::PUBLIC,
                    wan_ip,
                    chain,
                    second_bt,
                );
                Subscriber {
                    id: sub_id,
                    as_id: id,
                    scenario: Scenario::A,
                    device_node: device,
                    device_addr,
                    os,
                    cpe: Some(cpe),
                    cgn_instance: None,
                    runs_bittorrent,
                    extra_bt_devices: extra,
                }
            } else {
                // Scenario A naked: a public device (cellular ISPs that
                // still assign public addresses — Table 4's routed match).
                // A small share sits behind a stateful firewall: per-flow
                // state without translation (Table 7's match+detected row).
                let addr = pub_hosts.next();
                let device = if rng.gen_bool(0.05) {
                    let (_, fw_realm) = net.add_nat(
                        NatConfig::stateful_firewall(),
                        vec![addr],
                        RealmId::PUBLIC,
                        chain,
                        netcore::ip(198, 19, 255, 254),
                        false,
                        rng.gen(),
                    );
                    net.add_host(fw_realm, addr, vec![])
                } else {
                    net.add_host(RealmId::PUBLIC, addr, chain)
                };
                Subscriber {
                    id: sub_id,
                    as_id: id,
                    scenario: Scenario::A,
                    device_node: device,
                    device_addr: addr,
                    os,
                    cpe: None,
                    cgn_instance: None,
                    runs_bittorrent: runs_bittorrent
                        || (cellular && as_has_bt && rng.gen_bool(0.02)),
                    extra_bt_devices: Vec::new(),
                }
            }
        };
        subscribers.push(sub);
        subscriber_ids.push(sub_id);
    }

    AsDeployment {
        info: registry.get(id).expect("just inserted").clone(),
        public_prefix,
        cgn_instances,
        internal_choices,
        partial_fraction,
        subscriber_ids,
    }
}

/// Install a home: CPE NAT + primary device (+ optional second BT device).
fn install_home(
    net: &mut Network,
    rng: &mut StdRng,
    cpe_models: &[CpeModel],
    wan_realm: RealmId,
    wan_ip: Ipv4Addr,
    chain: Vec<Ipv4Addr>,
    second_bt_device: bool,
) -> (CpeInfo, NodeId, Ipv4Addr, Vec<(NodeId, Ipv4Addr)>) {
    let model_idx = rng.gen_range(0..cpe_models.len());
    let model = &cpe_models[model_idx];
    let gw = model.lan_prefix.addr(1);
    let (nat_node, home_realm) = net.add_nat(
        model.nat_config(),
        vec![wan_ip],
        wan_realm,
        chain,
        gw,
        true, // home LANs deliver multicast
        rng.gen(),
    );
    let device_addr = model.lan_prefix.addr(100);
    let device = net.add_host(home_realm, device_addr, vec![]);
    let mut extra = Vec::new();
    if second_bt_device {
        let a2 = model.lan_prefix.addr(101);
        let d2 = net.add_host(home_realm, a2, vec![]);
        extra.push((d2, a2));
    }
    let cpe = CpeInfo {
        nat_node,
        home_realm,
        model_idx,
        model_name: model.name.clone(),
        upnp: model.upnp,
        preserves_ports: model.preserves_ports,
        external_ip: wan_ip,
    };
    (cpe, device, device_addr, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::classify_reserved;

    fn world() -> World {
        World::build(TopologyConfig::tiny(42))
    }

    #[test]
    fn build_is_deterministic() {
        let a = world();
        let b = world();
        assert_eq!(a.subscribers.len(), b.subscribers.len());
        assert_eq!(a.registry.len(), b.registry.len());
        let da: Vec<bool> = a.deployments.iter().map(|d| d.has_cgn()).collect();
        let db: Vec<bool> = b.deployments.iter().map(|d| d.has_cgn()).collect();
        assert_eq!(da, db);
        for (x, y) in a.subscribers.iter().zip(&b.subscribers) {
            assert_eq!(x.device_addr, y.device_addr);
            assert_eq!(x.scenario, y.scenario);
        }
    }

    #[test]
    fn registry_and_routing_consistent() {
        let w = world();
        // Every instrumented AS announces its prefix.
        for d in &w.deployments {
            assert_eq!(
                w.routing.origin_of(d.public_prefix.addr(100)),
                Some(d.info.id)
            );
        }
        // Silent ASes pad the denominator.
        let eyeballs = w.registry.eyeballs().count();
        assert_eq!(eyeballs, w.deployments.len());
        assert!(w.registry.len() > eyeballs * 2);
    }

    #[test]
    fn scenarios_respect_ground_truth() {
        let w = world();
        for s in &w.subscribers {
            let dep = w.deployment(s.as_id).expect("subscriber AS instrumented");
            match s.scenario {
                Scenario::A => {
                    assert!(s.cgn_instance.is_none());
                    // Device address public (naked) or home-reserved (CPE).
                    match &s.cpe {
                        Some(cpe) => {
                            assert!(classify_reserved(s.device_addr).is_some());
                            assert!(classify_reserved(cpe.external_ip).is_none());
                        }
                        None => assert!(classify_reserved(s.device_addr).is_none()),
                    }
                }
                Scenario::B => {
                    let inst = &dep.cgn_instances[s.cgn_instance.expect("B has CGN")];
                    assert!(inst.internal_prefix.contains(s.device_addr));
                    assert!(s.cpe.is_none());
                }
                Scenario::C => {
                    let inst = &dep.cgn_instances[s.cgn_instance.expect("C has CGN")];
                    let cpe = s.cpe.as_ref().expect("C has CPE");
                    assert!(inst.internal_prefix.contains(cpe.external_ip));
                    assert!(classify_reserved(s.device_addr).is_some());
                }
            }
        }
    }

    #[test]
    fn cellular_ases_have_no_cpe() {
        let w = world();
        for s in &w.subscribers {
            let dep = w.deployment(s.as_id).unwrap();
            if dep.info.kind.is_cellular() {
                assert!(s.cpe.is_none(), "cellular subscribers have no CPE");
            }
        }
    }

    #[test]
    fn traffic_flows_end_to_end() {
        use netcore::{Endpoint, Packet};
        let mut w = world();
        let svc = w.next_service_addr();
        let server = w.net.add_host(RealmId::PUBLIC, svc, vec![]);
        let mut delivered = 0;
        let subs: Vec<(NodeId, Ipv4Addr)> = w
            .subscribers
            .iter()
            .map(|s| (s.device_node, s.device_addr))
            .collect();
        let total = subs.len();
        for (node, addr) in subs {
            let pkt = Packet::udp(
                Endpoint::new(addr, 40_000),
                Endpoint::new(svc, 8000),
                vec![1],
            );
            if w.net.send(node, pkt).is_some_and(|d| d.node == server) {
                delivered += 1;
            }
        }
        assert_eq!(
            delivered, total,
            "every subscriber must reach a public server"
        );
    }

    #[test]
    fn cgn_instances_have_detectable_shape() {
        let w = World::build(TopologyConfig::default_with_seed(7));
        let with_cgn: Vec<&AsDeployment> = w.deployments.iter().filter(|d| d.has_cgn()).collect();
        assert!(!with_cgn.is_empty(), "default world must deploy CGNs");
        for d in with_cgn {
            for ci in &d.cgn_instances {
                assert!(
                    ci.pool.len() >= 5,
                    "pool must allow the ≥5-IP cluster boundary"
                );
                for ip in &ci.pool {
                    assert_eq!(w.routing.origin_of(*ip), Some(d.info.id));
                }
            }
        }
        // Cellular CGN rate should be high, residential moderate.
        let cell_cgn = w
            .deployments
            .iter()
            .filter(|d| d.info.kind.is_cellular() && d.has_cgn())
            .count() as f64;
        let cell_total = w
            .deployments
            .iter()
            .filter(|d| d.info.kind.is_cellular())
            .count() as f64;
        assert!(
            cell_cgn / cell_total > 0.75,
            "cellular CGN rate {}",
            cell_cgn / cell_total
        );
    }

    #[test]
    fn eyeball_lists_are_subsets() {
        let w = world();
        for id in &w.pbl {
            assert!(w.deployment(*id).is_some());
        }
        for id in &w.apnic_list {
            assert!(w.deployment(*id).is_some());
        }
    }

    #[test]
    fn service_addrs_unique_and_public() {
        let mut w = world();
        let a = w.next_service_addr();
        let b = w.next_service_addr();
        assert_ne!(a, b);
        assert!(w.service_prefix.contains(a));
        assert!(classify_reserved(a).is_none());
    }
}
