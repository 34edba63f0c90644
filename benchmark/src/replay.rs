//! `replay-hit` and `replay-churn`: the engine alone. Packets come from
//! a schedule generated in set-up, so no traffic generator runs in the
//! timed region; each 128-packet tick is materialised into the
//! `Vec<Packet>` the API takes, partitioned, pushed through
//! `ShardedNat::process_bursts` / `process_inbound_bursts`, and every
//! returned verdict is checked against what the schedule expects.
//!
//! `replay-hit` reads: 640 k mappings are loaded in set-up and the
//! timed region only refreshes them (60 % outbound, 40 % inbound
//! replies) in random order, so lookup over a working set far beyond
//! the last-level cache does nearly all the work. One packet in 50 is
//! background: alternately an inbound packet from an endpoint the flow
//! never contacted (dropped by filtering) and a new flow from a small
//! set of extra hosts (whose mappings later idle out), so the drop and
//! new-flow rates are not zero.
//!
//! `replay-churn` writes: every packet opens a new flow under
//! address-and-port-dependent mapping with 64-port blocks, a 10 s UDP
//! timeout and a 256-session limit, so port allocation, index insert
//! and remove, the timer wheel and the sweep dominate. A fixed 0.5 % of
//! hosts send five times the others' rate and run into the session
//! limit, which gives a drop share that depends little on the seed.

use crate::run::{fnv1a, mix64, set_up, timed, FNV_OFFSET, REFERENCE_SHARE};
use crate::run::{Budget, Outcome, RunArgs, Slices, SplitMix64};
use crate::trace::{percentile, Recorder};
use cgn_trace::{Phase, ShardTracer};
use nat_engine::{
    DropReason, MappingBehavior, NatConfig, NatStats, NatVerdict, PortAllocation, ShardedNat,
};
use netcore::{Endpoint, Packet, SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Packets per tick: one closed-loop round trip through the engine.
const TICK: usize = 128;

const HOST_BASE: u32 = u32::from_be_bytes([100, 64, 0, 0]);
const POOL_BASE: u32 = u32::from_be_bytes([198, 51, 100, 1]);
const REMOTE_BASE: u32 = u32::from_be_bytes([16, 0, 0, 0]);
const REMOTE_PORT: u16 = 443;

fn host_ip(host: u32) -> Ipv4Addr {
    Ipv4Addr::from(HOST_BASE + host)
}

fn pool(ips: u32) -> Vec<Ipv4Addr> {
    (0..ips).map(|k| Ipv4Addr::from(POOL_BASE + k)).collect()
}

fn in_pool(ip: Ipv4Addr, ips: u32) -> bool {
    u32::from(ip).wrapping_sub(POOL_BASE) < ips
}

/// A remote endpoint chosen by hash; 2^24 distinct addresses.
fn remote(key: u64) -> Endpoint {
    Endpoint::new(
        Ipv4Addr::from(REMOTE_BASE + (mix64(key) >> 40) as u32),
        REMOTE_PORT,
    )
}

/// Verdicts the engine returned, by class.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Tally {
    offered_out: u64,
    offered_in: u64,
    forwarded: u64,
    hairpins: u64,
    drop_no_mapping: u64,
    drop_filtered: u64,
    drop_port_exhausted: u64,
    drop_session_limit: u64,
    drop_other: u64,
    /// Verdicts that differ from what the schedule expects.
    unexpected: u64,
    /// Packets that opened, or tried to open, a mapping.
    new_flows: u64,
}

impl Tally {
    fn record(&mut self, v: &NatVerdict) {
        match v {
            NatVerdict::Forward(_) => self.forwarded += 1,
            NatVerdict::Hairpin(_) => self.hairpins += 1,
            NatVerdict::Drop(DropReason::NoMapping) => self.drop_no_mapping += 1,
            NatVerdict::Drop(DropReason::Filtered) => self.drop_filtered += 1,
            NatVerdict::Drop(DropReason::PortExhausted) => self.drop_port_exhausted += 1,
            NatVerdict::Drop(DropReason::SessionLimit) => self.drop_session_limit += 1,
            NatVerdict::Drop(_) => self.drop_other += 1,
        }
    }

    fn offered(&self) -> u64 {
        self.offered_out + self.offered_in
    }

    /// What was tallied after `before` was.
    fn since(&self, before: &Tally) -> Tally {
        Tally {
            offered_out: self.offered_out - before.offered_out,
            offered_in: self.offered_in - before.offered_in,
            forwarded: self.forwarded - before.forwarded,
            hairpins: self.hairpins - before.hairpins,
            drop_no_mapping: self.drop_no_mapping - before.drop_no_mapping,
            drop_filtered: self.drop_filtered - before.drop_filtered,
            drop_port_exhausted: self.drop_port_exhausted - before.drop_port_exhausted,
            drop_session_limit: self.drop_session_limit - before.drop_session_limit,
            drop_other: self.drop_other - before.drop_other,
            unexpected: self.unexpected - before.unexpected,
            new_flows: self.new_flows - before.new_flows,
        }
    }

    fn drops(&self) -> u64 {
        self.drop_no_mapping
            + self.drop_filtered
            + self.drop_port_exhausted
            + self.drop_session_limit
            + self.drop_other
    }
}

/// What one workload's schedule puts into a tick and expects back.
trait Schedule {
    /// Fill `out` and `inb` with the next tick's packets and remember,
    /// per shard and in partition order, what each must come back as.
    fn next_tick(&mut self, nat: &ShardedNat, out: &mut Vec<Packet>, inb: &mut Vec<Packet>);
    /// Check shard `shard`'s `i`-th outbound verdict of the last tick.
    fn outbound_ok(&self, shard: usize, i: usize, v: &NatVerdict) -> bool;
    fn inbound_ok(&self, shard: usize, i: usize, v: &NatVerdict) -> bool;
    /// Outbound packets of the last tick that open a new flow.
    fn new_flows_last_tick(&self) -> u64;
    fn ticks_per_sim_sec(&self) -> u64;
}

/// The engine under test plus the harness state around it.
struct Rig<S: Schedule> {
    nat: ShardedNat,
    schedule: S,
    tally: Tally,
    /// Ticks issued since the engine's time zero.
    tick: u64,
    out: Vec<Packet>,
    inb: Vec<Packet>,
}

impl<S: Schedule> Rig<S> {
    fn now(&self) -> SimTime {
        SimTime::from_millis(self.tick * 1000 / self.schedule.ticks_per_sim_sec())
    }

    /// One simulated second: its ticks, then a sweep.
    fn sim_second(&mut self, rec: &mut Recorder) {
        rec.open("replay.sim_second");
        for _ in 0..self.schedule.ticks_per_sim_sec() {
            let now = self.now();
            let (mut out, mut inb) = (std::mem::take(&mut self.out), std::mem::take(&mut self.inb));
            let (nat, schedule) = (&mut self.nat, &mut self.schedule);
            rec.span("bench.materialise", || {
                schedule.next_tick(nat, &mut out, &mut inb)
            });
            self.tally.offered_out += out.len() as u64;
            self.tally.offered_in += inb.len() as u64;
            self.tally.new_flows += schedule.new_flows_last_tick();

            let bursts = rec.span("sharded.partition_outbound", || {
                nat.partition_outbound(out.drain(..))
            });
            let verdicts = rec.span("nat.process_bursts", || nat.process_bursts(bursts, now, 1));
            for (shard, vs) in verdicts.iter().enumerate() {
                for (i, v) in vs.iter().enumerate() {
                    self.tally.record(v);
                    self.tally.unexpected += !schedule.outbound_ok(shard, i, v) as u64;
                }
            }
            if !inb.is_empty() {
                let bursts = rec.span("sharded.partition_inbound", || {
                    nat.partition_inbound(inb.drain(..))
                });
                let verdicts = rec.span("nat.process_inbound_bursts", || {
                    nat.process_inbound_bursts(bursts, now, 1)
                });
                for (shard, vs) in verdicts.iter().enumerate() {
                    for (i, v) in vs.iter().enumerate() {
                        self.tally.record(v);
                        self.tally.unexpected += !schedule.inbound_ok(shard, i, v) as u64;
                    }
                }
            }
            (self.out, self.inb) = (out, inb);
            self.tick += 1;
        }
        let now = self.now();
        let nat = &mut self.nat;
        rec.span("nat.sweep", || nat.sweep(now));
        rec.close();
    }

    /// Run simulated seconds until `budget` is spent; one slice each.
    fn run(&mut self, rec: &mut Recorder, budget: Budget) -> Slices {
        let mut slices = Slices::default();
        while !budget.spent(slices.len() as u64) {
            let before = self.tally.clone();
            let ((), wall_s) = timed(|| self.sim_second(rec));
            slices.push(
                self.tally.offered() - before.offered(),
                self.tally.new_flows - before.new_flows,
                wall_s,
            );
        }
        slices
    }
}

// ---------------------------------------------------------------- hit

struct HitShape {
    hosts: u32,
    flows_per_host: u32,
    /// Extra hosts that open the background flows.
    churn_hosts: u32,
    shards: u16,
    pool_ips: u32,
    ticks_per_sim_sec: u64,
}

impl HitShape {
    fn new(smoke: bool) -> HitShape {
        if smoke {
            HitShape {
                hosts: 500,
                flows_per_host: 40,
                churn_hosts: 16,
                shards: 4,
                pool_ips: 4,
                ticks_per_sim_sec: 8,
            }
        } else {
            // 640 k flows cycle once per 20 simulated seconds at 256
            // ticks a second, so every mapping is refreshed well inside
            // the 60 s UDP timeout and none expires.
            HitShape {
                hosts: 16_000,
                flows_per_host: 40,
                churn_hosts: 256,
                shards: 4,
                pool_ips: 16,
                ticks_per_sim_sec: 256,
            }
        }
    }

    fn flows(&self) -> u32 {
        self.hosts * self.flows_per_host
    }
}

/// One packet in this many is background traffic.
const BACKGROUND_EVERY: u64 = 50;
/// Distinct random orders of the flow set in the schedule.
const HIT_PERMUTATIONS: usize = 3;
const INBOUND_BIT: u32 = 1 << 31;
/// Marks a background entry in the per-shard expectation lists.
const BACKGROUND: u32 = u32::MAX;

struct HitSchedule {
    shape: HitShape,
    seed: u64,
    /// Flow ids in random order, [`INBOUND_BIT`] set on replies.
    order: Vec<u32>,
    cursor: usize,
    /// External endpoint each preloaded flow was given.
    ext: Vec<Endpoint>,
    packets: u64,
    background: u64,
    new_flows: u64,
    out_ids: Vec<Vec<u32>>,
    in_ids: Vec<Vec<u32>>,
}

impl HitSchedule {
    fn src(&self, flow: u32) -> Endpoint {
        Endpoint::new(
            host_ip(flow / self.shape.flows_per_host),
            20_000 + (flow % self.shape.flows_per_host) as u16,
        )
    }

    fn dst(&self, flow: u32) -> Endpoint {
        remote(self.seed ^ flow as u64)
    }
}

impl Schedule for HitSchedule {
    fn next_tick(&mut self, nat: &ShardedNat, out: &mut Vec<Packet>, inb: &mut Vec<Packet>) {
        self.out_ids.iter_mut().for_each(Vec::clear);
        self.in_ids.iter_mut().for_each(Vec::clear);
        self.new_flows = 0;
        for _ in 0..TICK {
            self.packets += 1;
            if self.packets % BACKGROUND_EVERY == 0 {
                self.background += 1;
                let n = self.background / 2;
                if self.background % 2 == 0 {
                    // A new flow from one of the extra hosts; its
                    // source port advances, so it is a new mapping.
                    let host = self.shape.hosts + (n % self.shape.churn_hosts as u64) as u32;
                    let port = 1024 + (n / self.shape.churn_hosts as u64 % 60_000) as u16;
                    let src = Endpoint::new(host_ip(host), port);
                    self.out_ids[nat.shard_of(src.ip)].push(BACKGROUND);
                    out.push(Packet::udp(src, remote(self.seed ^ (n << 32)), Vec::new()));
                    self.new_flows += 1;
                } else {
                    // A stranger probing a live mapping: the port it
                    // sends from was never contacted.
                    let flow = (mix64(self.seed ^ n) % self.shape.flows() as u64) as u32;
                    let mut stranger = self.dst(flow);
                    stranger.port += 1;
                    let shard = nat.shard_of(self.src(flow).ip);
                    self.in_ids[shard].push(BACKGROUND);
                    inb.push(Packet::udp(stranger, self.ext[flow as usize], Vec::new()));
                }
                continue;
            }
            let entry = self.order[self.cursor];
            self.cursor = (self.cursor + 1) % self.order.len();
            let flow = entry & !INBOUND_BIT;
            let shard = nat.shard_of(self.src(flow).ip);
            if entry & INBOUND_BIT == 0 {
                self.out_ids[shard].push(flow);
                out.push(Packet::udp(self.src(flow), self.dst(flow), Vec::new()));
            } else {
                self.in_ids[shard].push(flow);
                inb.push(Packet::udp(
                    self.dst(flow),
                    self.ext[flow as usize],
                    Vec::new(),
                ));
            }
        }
    }

    fn outbound_ok(&self, shard: usize, i: usize, v: &NatVerdict) -> bool {
        let NatVerdict::Forward(p) = v else {
            return false;
        };
        match self.out_ids[shard][i] {
            BACKGROUND => in_pool(p.src.ip, self.shape.pool_ips),
            // Endpoint-independent mapping: a refresh keeps its
            // external endpoint.
            flow => p.src == self.ext[flow as usize] && p.dst == self.dst(flow),
        }
    }

    fn inbound_ok(&self, shard: usize, i: usize, v: &NatVerdict) -> bool {
        match (self.in_ids[shard][i], v) {
            (BACKGROUND, NatVerdict::Drop(DropReason::Filtered)) => true,
            (BACKGROUND, _) => false,
            (flow, NatVerdict::Forward(p)) => p.dst == self.src(flow) && p.src == self.dst(flow),
            _ => false,
        }
    }

    fn new_flows_last_tick(&self) -> u64 {
        self.new_flows
    }

    fn ticks_per_sim_sec(&self) -> u64 {
        self.shape.ticks_per_sim_sec
    }
}

/// Build the engine, load every flow's mapping and generate the order
/// the timed region refreshes them in.
fn setup_hit(seed: u64, smoke: bool) -> Rig<HitSchedule> {
    let shape = HitShape::new(smoke);
    let mut nat = ShardedNat::new(
        NatConfig::cgn_default(),
        pool(shape.pool_ips),
        shape.shards,
        seed,
    );
    let shards = shape.shards as usize;
    let mut schedule = HitSchedule {
        seed,
        order: Vec::new(),
        cursor: 0,
        ext: vec![Endpoint::new(Ipv4Addr::UNSPECIFIED, 0); shape.flows() as usize],
        packets: 0,
        background: 0,
        new_flows: 0,
        out_ids: vec![Vec::new(); shards],
        in_ids: vec![Vec::new(); shards],
        shape,
    };

    let flows: Vec<u32> = (0..schedule.shape.flows()).collect();
    for chunk in flows.chunks(TICK) {
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for &f in chunk {
            ids[nat.shard_of(schedule.src(f).ip)].push(f);
        }
        let pkts = chunk
            .iter()
            .map(|&f| Packet::udp(schedule.src(f), schedule.dst(f), Vec::new()));
        let bursts = nat.partition_outbound(pkts);
        let verdicts = nat.process_bursts(bursts, SimTime::ZERO, 1);
        for (vs, fs) in verdicts.iter().zip(&ids) {
            for (v, &f) in vs.iter().zip(fs) {
                match v {
                    NatVerdict::Forward(p) => schedule.ext[f as usize] = p.src,
                    other => panic!("preload of flow {f} was not forwarded: {other:?}"),
                }
            }
        }
    }

    // Each permutation visits every flow once, so the longest gap
    // between two refreshes of a flow is under two passes.
    let mut rng = SplitMix64(seed ^ 0x5CED);
    let mut order = Vec::with_capacity(flows.len() * HIT_PERMUTATIONS);
    for _ in 0..HIT_PERMUTATIONS {
        let mut perm = flows.clone();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order.extend(perm.into_iter().map(|f| {
            if rng.below(10) < 4 {
                f | INBOUND_BIT
            } else {
                f
            }
        }));
    }
    schedule.order = order;

    Rig {
        nat,
        schedule,
        tally: Tally::default(),
        tick: 0,
        out: Vec::with_capacity(TICK),
        inb: Vec::with_capacity(TICK),
    }
}

// -------------------------------------------------------------- churn

struct ChurnShape {
    hosts: u32,
    shards: u16,
    pool_ips: u32,
    ticks_per_sim_sec: u64,
    /// Entries in the host schedule, cycled.
    schedule_len: usize,
    /// Simulated seconds run in set-up so the table is at its plateau.
    warmup_sim_secs: u64,
}

const CHURN_UDP_TIMEOUT_SECS: u64 = 10;
/// One host in this many is heavy.
const HEAVY_EVERY: u32 = 200;
/// A heavy host's rate as a multiple of the others'.
const HEAVY_WEIGHT: u64 = 5;

impl ChurnShape {
    fn new(smoke: bool) -> ChurnShape {
        if smoke {
            ChurnShape {
                hosts: 400,
                shards: 4,
                pool_ips: 4,
                ticks_per_sim_sec: 26,
                schedule_len: 1 << 14,
                warmup_sim_secs: CHURN_UDP_TIMEOUT_SECS + 2,
            }
        } else {
            // 1024 ticks x 128 packets = 131 072 new flows a simulated
            // second, each living 10 s: about 1.3 M live mappings.
            ChurnShape {
                hosts: 16_000,
                shards: 4,
                pool_ips: 40,
                ticks_per_sim_sec: 1024,
                schedule_len: 1 << 21,
                warmup_sim_secs: CHURN_UDP_TIMEOUT_SECS + 2,
            }
        }
    }
}

struct ChurnSchedule {
    shape: ChurnShape,
    seed: u64,
    /// Hosts in sending order, cycled.
    hosts: Vec<u16>,
    cursor: usize,
    next_port: Vec<u16>,
    packets: u64,
}

impl Schedule for ChurnSchedule {
    fn next_tick(&mut self, _nat: &ShardedNat, out: &mut Vec<Packet>, _inb: &mut Vec<Packet>) {
        for _ in 0..TICK {
            let host = self.hosts[self.cursor] as usize;
            self.cursor = (self.cursor + 1) % self.hosts.len();
            let port = &mut self.next_port[host];
            *port = if *port == u16::MAX { 1024 } else { *port + 1 };
            self.packets += 1;
            out.push(Packet::udp(
                Endpoint::new(host_ip(host as u32), *port),
                remote(self.seed ^ self.packets),
                Vec::new(),
            ));
        }
    }

    fn outbound_ok(&self, _shard: usize, _i: usize, v: &NatVerdict) -> bool {
        match v {
            NatVerdict::Forward(p) => {
                in_pool(p.src.ip, self.shape.pool_ips) && p.dst.port == REMOTE_PORT
            }
            NatVerdict::Drop(DropReason::PortExhausted | DropReason::SessionLimit) => true,
            _ => false,
        }
    }

    fn inbound_ok(&self, _shard: usize, _i: usize, _v: &NatVerdict) -> bool {
        false
    }

    fn new_flows_last_tick(&self) -> u64 {
        TICK as u64
    }

    fn ticks_per_sim_sec(&self) -> u64 {
        self.shape.ticks_per_sim_sec
    }
}

fn setup_churn(seed: u64, smoke: bool) -> Rig<ChurnSchedule> {
    let shape = ChurnShape::new(smoke);
    let mut config = NatConfig::cgn_default();
    config.mapping = MappingBehavior::AddressAndPortDependent;
    config.port_alloc = PortAllocation::PortBlock { block_size: 64 };
    config.udp_timeout = SimDuration::from_secs(CHURN_UDP_TIMEOUT_SECS);
    config.max_sessions_per_host = Some(256);
    let nat = ShardedNat::new(config, pool(shape.pool_ips), shape.shards, seed);

    // Which hosts are heavy depends on the host number alone, so the
    // drop share is nearly the same for every seed.
    let mut lottery: Vec<u16> = Vec::new();
    for host in 0..shape.hosts {
        let weight = if host % HEAVY_EVERY == 0 {
            HEAVY_WEIGHT
        } else {
            1
        };
        lottery.extend((0..weight).map(|_| host as u16));
    }
    let mut rng = SplitMix64(seed ^ 0xC4A2);
    let hosts = (0..shape.schedule_len)
        .map(|_| lottery[rng.below(lottery.len() as u64) as usize])
        .collect();

    let mut rig = Rig {
        nat,
        schedule: ChurnSchedule {
            seed,
            hosts,
            cursor: 0,
            next_port: vec![1023; shape.hosts as usize],
            packets: 0,
            shape,
        },
        tally: Tally::default(),
        tick: 0,
        out: Vec::with_capacity(TICK),
        inb: Vec::new(),
    };
    let mut off = Recorder::new(false);
    for _ in 0..rig.schedule.shape.warmup_sim_secs {
        rig.sim_second(&mut off);
    }
    rig
}

// ------------------------------------------------------------- shared

pub fn run_hit(args: &RunArgs) -> Outcome {
    measure(args, || setup_hit(args.seed, args.smoke))
}

pub fn run_churn(args: &RunArgs) -> Outcome {
    measure(args, || setup_churn(args.seed, args.smoke))
}

fn measure<S: Schedule>(args: &RunArgs, setup: impl Fn() -> Rig<S>) -> Outcome {
    let mut out = Outcome::default();

    let (mut rig, setup_s) = set_up(setup);
    out.setup_s = setup_s;

    // A traced run first measures an untraced reference segment on the
    // same engine, then arms the engine's phase clocks and the spans.
    let mut reference = None;
    if args.traced {
        let mut off = Recorder::new(false);
        reference = Some(rig.run(&mut off, Budget::start(args, REFERENCE_SHARE)));
        let phases = crate::driver::phases_only();
        let tracers = (0..rig.nat.shard_count())
            .map(|s| Box::new(ShardTracer::new(s as u32, &phases)))
            .collect();
        rig.nat.set_tracers(tracers);
    }

    let stats_before = rig.nat.merged_stats();
    let tally_before = rig.tally.clone();
    let mut rec = Recorder::new(args.traced);
    let share = if args.traced {
        1.0 - REFERENCE_SHARE
    } else {
        1.0
    };
    let slices = rig.run(&mut rec, Budget::start(args, share));

    let stats = rig.nat.merged_stats();
    let t = rig.tally.since(&tally_before);
    let delivered = t.forwarded + t.hairpins;

    out.flows_per_s = slices.flows_per_s();
    out.packets_per_s = slices.packets_per_s();
    out.delivered_share = delivered as f64 / t.offered().max(1) as f64;
    out.attempted = t.offered();

    // Every packet has exactly one verdict, the verdicts are the ones
    // the schedule expects, and the engine's own counters agree.
    out.check(delivered + t.drops() == t.offered(), || {
        format!("verdicts do not add up: {t:?}")
    });
    // Warm-up and reference segment included.
    out.check(rig.tally.unexpected == 0, || {
        format!(
            "{} verdicts differ from the schedule's expectation",
            rig.tally.unexpected
        )
    });
    let moved = |counter: fn(&NatStats) -> u64| counter(&stats) - counter(&stats_before);
    let counted = [
        ("out_packets", moved(|s| s.out_packets), t.offered_out),
        ("in_packets", moved(|s| s.in_packets), t.offered_in),
        ("drops", moved(|s| s.drops), t.drops()),
        ("drop_filtered", moved(|s| s.drop_filtered), t.drop_filtered),
        (
            "drop_no_mapping",
            moved(|s| s.drop_no_mapping),
            t.drop_no_mapping,
        ),
        (
            "drop_port_exhausted",
            moved(|s| s.drop_port_exhausted),
            t.drop_port_exhausted,
        ),
        (
            "drop_session_limit",
            moved(|s| s.drop_session_limit),
            t.drop_session_limit,
        ),
    ];
    for (name, engine, tallied) in counted {
        out.check(engine == tallied, || {
            format!("merged_stats().{name} moved by {engine}, verdicts tally {tallied}")
        });
    }

    out.counts.insert("packets", t.offered());
    out.counts.insert("flows", t.new_flows);
    out.counts.insert("drops", t.drops());
    out.counts
        .insert("mappings_created", stats.mappings_created);
    out.counts
        .insert("mappings_expired", stats.mappings_expired);
    out.counts.insert("peak_mappings", stats.peak_mappings);
    out.digest = fnv1a(FNV_OFFSET, format!("{stats:?}{:?}", rig.tally).as_bytes());

    if let Some(reference) = reference {
        layers(
            &mut out,
            &rig.nat,
            &rec,
            &slices,
            &reference,
            &stats,
            &stats_before,
        );
        crate::write_trace(args, &rec);
    }
    out
}

fn layers(
    out: &mut Outcome,
    nat: &ShardedNat,
    rec: &Recorder,
    slices: &Slices,
    reference: &Slices,
    stats: &NatStats,
    before: &NatStats,
) {
    let wall_ns = slices.total_wall_s() * 1e9;
    let packets = slices.total_packets().max(1) as f64;
    let totals = rec.totals();
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let pct_us = |name: &str, q: f64| {
        totals
            .get(name)
            .map_or(0.0, |t| percentile(&t.durations_ns, q) as f64 / 1e3)
    };

    let out_packets = (stats.out_packets - before.out_packets).max(1) as f64;
    let in_packets = (stats.in_packets - before.in_packets) as f64;
    let created = (stats.mappings_created - before.mappings_created) as f64;
    let expired = (stats.mappings_expired - before.mappings_expired) as f64;
    let sweeps = (stats.sweeps - before.sweeps).max(1) as f64;
    let alloc_fails = (stats.drop_port_exhausted - before.drop_port_exhausted
        + stats.drop_session_limit
        - before.drop_session_limit) as f64;

    out.layer(
        "bench.materialise_ns_per_packet",
        total_ns("bench.materialise") / packets,
    );
    // What a simulated second spends outside the spans it encloses:
    // tallying and checking every verdict.
    let verify_ns = totals
        .get("replay.sim_second")
        .map_or(0.0, |t| t.self_ns as f64);
    out.layer("bench.verify_ns_per_packet", verify_ns / packets);
    out.layer(
        "sharded.partition_ns_per_packet",
        (total_ns("sharded.partition_outbound") + total_ns("sharded.partition_inbound")) / packets,
    );
    out.layer(
        "nat.outbound_ns_per_packet",
        total_ns("nat.process_bursts") / out_packets,
    );
    out.layer(
        "nat.outbound_burst_p50_us",
        pct_us("nat.process_bursts", 0.50),
    );
    out.layer(
        "nat.outbound_burst_p99_us",
        pct_us("nat.process_bursts", 0.99),
    );
    out.layer(
        "nat.inbound_ns_per_packet",
        total_ns("nat.process_inbound_bursts") / in_packets.max(1.0),
    );
    out.layer(
        "nat.inbound_burst_p50_us",
        pct_us("nat.process_inbound_bursts", 0.50),
    );
    out.layer(
        "nat.inbound_burst_p99_us",
        pct_us("nat.process_inbound_bursts", 0.99),
    );
    let busy = total_ns("nat.process_bursts")
        + total_ns("nat.process_inbound_bursts")
        + total_ns("nat.sweep");
    out.layer("nat.busy_share", busy / wall_ns);
    out.layer("nat.hit_share", 1.0 - created / out_packets);
    out.layer("drop_share", 1.0 - out.delivered_share);

    if let Some(profile) = nat.phase_profile() {
        let share = |p: Phase| profile.histogram(p).sum as f64 / wall_ns;
        out.layer("nat.burst_resolve_share", share(Phase::BurstResolve));
        out.layer("nat.burst_prefetch_share", share(Phase::BurstPrefetch));
        out.layer("nat.burst_translate_share", share(Phase::BurstTranslate));
    }

    out.layer("wheel.sweep_p50_us", pct_us("nat.sweep", 0.50));
    out.layer("wheel.sweep_p99_us", pct_us("nat.sweep", 0.99));
    out.layer("wheel.sweep_busy_share", total_ns("nat.sweep") / wall_ns);
    out.layer(
        "wheel.sweep_scan_share",
        (stats.sweep_scans - before.sweep_scans) as f64 / sweeps,
    );
    out.layer(
        "wheel.ns_per_expiry",
        if expired > 0.0 {
            total_ns("nat.sweep") / expired
        } else {
            0.0
        },
    );

    let fill_worst = nat
        .port_occupancy()
        .iter()
        .map(|o| o.utilization())
        .fold(0.0, f64::max);
    out.layer("ports.fill_worst", fill_worst);
    out.layer(
        "ports.alloc_fail_share",
        alloc_fails / (created + alloc_fails).max(1.0),
    );

    out.layer("nat.mappings_created", stats.mappings_created as f64);
    out.layer("nat.mappings_expired", stats.mappings_expired as f64);
    out.layer("nat.peak_mappings", stats.peak_mappings as f64);
    out.layer("nat.drop_port_exhausted", stats.drop_port_exhausted as f64);
    out.layer("nat.drop_session_limit", stats.drop_session_limit as f64);
    out.layer("nat.drop_no_mapping", stats.drop_no_mapping as f64);
    out.layer("nat.drop_filtered", stats.drop_filtered as f64);
    out.layer("nat.instances", nat.shard_count() as f64);

    let chunks = nat.arena_chunks();
    out.layer("store.arena_chunks", chunks as f64);
    out.layer("store.slots_free", nat.arena_slots_free() as f64);
    out.layer(
        "store.bytes_per_peak_mapping",
        (chunks * 2 * 1024 * 1024) as f64 / stats.peak_mappings.max(1) as f64,
    );

    out.layer(
        "trace_overhead_share",
        slices.ns_per_packet() / reference.ns_per_packet() - 1.0,
    );
    out.layer("bench.traced_packets", slices.total_packets() as f64);
    out.layer("bench.traced_wall_s", slices.total_wall_s());
    out.layer("bench.spans_recorded", rec.len() as f64);
}
