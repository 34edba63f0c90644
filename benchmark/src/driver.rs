//! `driver-steady`: the whole driver in the loop. A `DriverSession`
//! over `residential-evening` at 16 000 subscribers x 4 shards x 2
//! addresses per shard, one thread, a quarter of forwarded packets
//! answered by an inbound reply, every probe off. Generator, NAT,
//! commit and the sweep and sample barriers all run, at the scale
//! where throughput falls off against the 1 000-subscriber figure.
//!
//! The session is stepped barrier by barrier (every 30 simulated
//! seconds): first through a warm-up that fills the mapping table,
//! then, timed in slices of two barriers, until the budget is spent. [`drive`] is also what
//! `soak-observed` uses for its bare reference sessions.

use crate::run::{set_up, timed, Budget, Outcome, RunArgs, Slices, REFERENCE_SHARE};
use crate::trace::{percentile, Recorder};
use cgn_trace::{Phase, PhaseProfiler, TraceConfig};
use cgn_traffic::{DriverConfig, DriverSession, RunSummary, WorkloadMix};

/// A horizon no run reaches: the session ends when the budget does.
const OPEN_HORIZON_SECS: u64 = 1_000_000;

/// Simulated seconds stepped before the timed region.
fn warmup_secs(smoke: bool) -> u64 {
    if smoke {
        60
    } else {
        600
    }
}

fn config(args: &RunArgs, phases: bool) -> DriverConfig {
    let mut c = DriverConfig::new(WorkloadMix::residential_evening(), args.seed);
    c.subscribers = if args.smoke { 500 } else { 16_000 };
    c.shards = 4;
    c.external_ips_per_shard = 2;
    c.threads = 1;
    c.inbound_reply_permille = 250;
    c.duration_secs = OPEN_HORIZON_SECS;
    if phases {
        c.trace = phases_only();
    }
    c
}

/// The engine's and driver's phase clocks, without flow sampling.
pub fn phases_only() -> TraceConfig {
    TraceConfig {
        profile_phases: true,
        ..TraceConfig::off()
    }
}

/// Barriers per slice. A session alternates a sweep-only barrier with
/// a sweep-and-sample one (every 30 and 60 simulated seconds); a slice
/// holds one of each, so every slice does the same kind of work.
const STEPS_PER_SLICE: usize = 2;

/// What stepping one session gave.
pub struct Drive {
    pub new_s: f64,
    pub warmup_s: f64,
    pub finish_s: f64,
    /// One slice per [`STEPS_PER_SLICE`] timed steps: outbound packets,
    /// flows started, wall.
    pub slices: Slices,
    /// Wall seconds of each timed `step()`.
    pub step_s: Vec<f64>,
    pub wheel_depth_peak: u64,
    /// Nanoseconds each phase clock gathered in the timed region.
    pub phase_ns: Option<[f64; Phase::ALL.len()]>,
    pub summary: RunSummary,
}

fn phase_sums(profile: Option<PhaseProfiler>) -> Option<[f64; Phase::ALL.len()]> {
    profile.map(|p| Phase::ALL.map(|phase| p.histogram(phase).sum as f64))
}

/// Step a session built in `new_s` seconds to `warmup_secs`, then
/// step it, timed, until `budget` is spent or the horizon is reached,
/// and finish it.
pub fn drive(
    (mut session, new_s): (DriverSession, f64),
    warmup_secs: u64,
    budget: impl FnOnce() -> Budget,
    rec: &mut Recorder,
) -> Drive {
    let ((), warmup_s) =
        timed(|| while session.now_secs() < warmup_secs && session.step().is_some() {});

    let phases_before = phase_sums(session.phase_profile());
    let mut slices = Slices::default();
    let mut step_s = Vec::new();
    let mut wheel_depth_peak = 0;
    let mut before = session.health();
    let budget = budget();
    while !budget.spent(slices.len() as u64) {
        let (whole, wall_s) = timed(|| {
            (0..STEPS_PER_SLICE).all(|_| {
                let (stepped, s) = timed(|| rec.span("driver.step", || session.step()));
                step_s.push(s);
                stepped.is_some()
            })
        });
        if !whole {
            break;
        }
        let health = session.health();
        slices.push(
            health.packets_sent - before.packets_sent,
            health.flows_started - before.flows_started,
            wall_s,
        );
        wheel_depth_peak = wheel_depth_peak.max(health.event_wheel_depth);
        before = health;
    }
    let phase_ns = phase_sums(session.phase_profile()).map(|after| {
        let before = phases_before.expect("phases were armed from the start");
        std::array::from_fn(|i| after[i] - before[i])
    });

    let ((summary, _logs), finish_s) = timed(|| rec.span("driver.finish", || session.finish()));
    Drive {
        new_s,
        warmup_s,
        finish_s,
        slices,
        step_s,
        wheel_depth_peak,
        phase_ns,
        summary,
    }
}

/// Packets given a verdict per outbound packet: replies are drawn as a
/// fixed share of forwarded packets, so the session-wide ratio holds
/// for the timed region too.
fn verdicts_per_outbound(summary: &RunSummary) -> f64 {
    let s = &summary.stats;
    (s.out_packets + s.in_packets) as f64 / s.out_packets.max(1) as f64
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let warmup = warmup_secs(args.smoke);

    let mut reference = None;
    if args.traced {
        let d = drive(
            timed(|| DriverSession::new(&config(args, false))),
            warmup,
            || Budget::start(args, REFERENCE_SHARE),
            &mut Recorder::new(false),
        );
        reference = Some(d.slices);
    }
    let mut rec = Recorder::new(args.traced);
    let share = if args.traced {
        1.0 - REFERENCE_SHARE
    } else {
        1.0
    };
    let config = config(args, args.traced);
    let built = set_up(|| rec.span("driver.new", || DriverSession::new(&config)));
    let d = drive(built, warmup, || Budget::start(args, share), &mut rec);

    let summary = &d.summary;
    let stats = &summary.stats;
    let ratio = verdicts_per_outbound(summary);
    out.setup_s = d.new_s + d.warmup_s;
    out.flows_per_s = d.slices.flows_per_s();
    out.packets_per_s = d.slices.packets_per_s() * ratio;
    out.delivered_share =
        1.0 - stats.drops as f64 / (stats.out_packets + stats.in_packets).max(1) as f64;
    out.attempted = (d.slices.total_packets() as f64 * ratio) as u64;
    out.digest = summary.digest();
    eprintln!("driver-steady: RunSummary digest {:016x}", out.digest);

    out.check(stats.out_packets == summary.packets_sent, || {
        format!(
            "engine saw {} outbound packets, driver sent {}",
            stats.out_packets, summary.packets_sent
        )
    });
    out.check(d.slices.total_flows() > 0, || "no flow started".to_string());

    out.counts
        .insert("packets", stats.out_packets + stats.in_packets);
    out.counts.insert("flows", summary.flows_started);
    out.counts.insert("drops", stats.drops);
    out.counts
        .insert("mappings_created", stats.mappings_created);
    out.counts
        .insert("mappings_expired", stats.mappings_expired);
    out.counts.insert("peak_mappings", stats.peak_mappings);

    if let Some(reference) = reference {
        session_layers(&mut out, &d);
        out.layer(
            "trace_overhead_share",
            d.slices.ns_per_packet() / reference.ns_per_packet() - 1.0,
        );
        out.layer("bench.spans_recorded", rec.len() as f64);
        crate::write_trace(args, &rec);
    }
    out
}

/// The per-layer figures one driven session yields.
pub fn session_layers(out: &mut Outcome, d: &Drive) {
    let summary = &d.summary;
    let stats = &summary.stats;
    let wall_ns = d.slices.total_wall_s() * 1e9;
    let packets = d.slices.total_packets().max(1) as f64;

    out.layer("driver.new_s", d.new_s);
    out.layer("driver.finish_s", d.finish_s);
    let mut step_s = d.step_s.clone();
    step_s.sort_by(f64::total_cmp);
    out.layer("driver.step_p50_ms", percentile(&step_s, 0.50) * 1e3);
    out.layer("driver.step_p99_ms", percentile(&step_s, 0.99) * 1e3);
    out.layer(
        "driver.packets_per_flow",
        summary.packets_sent as f64 / summary.flows_started.max(1) as f64,
    );
    out.layer("driver.event_wheel_depth_peak", d.wheel_depth_peak as f64);

    if let Some(ns) = d.phase_ns {
        let of = |p: Phase| ns[Phase::ALL.iter().position(|q| *q == p).expect("listed")];
        let share = |p: Phase| of(p) / wall_ns;
        out.layer("driver.generate_share", share(Phase::Generate));
        out.layer("driver.commit_share", share(Phase::Commit));
        out.layer("driver.sample_share", share(Phase::Sample));
        out.layer("driver.translate_share", share(Phase::Translate));
        out.layer("driver.inbound_share", share(Phase::Inbound));
        out.layer("driver.sweep_share", share(Phase::Sweep));
        // Everything in a step that is not a call into the engine.
        out.layer(
            "driver.non_nat_share",
            1.0 - share(Phase::Translate) - share(Phase::Inbound) - share(Phase::Sweep),
        );
        out.layer(
            "driver.generate_ns_per_packet",
            of(Phase::Generate) / packets,
        );
        out.layer("driver.commit_ns_per_packet", of(Phase::Commit) / packets);
        out.layer("nat.burst_resolve_share", share(Phase::BurstResolve));
        out.layer("nat.burst_prefetch_share", share(Phase::BurstPrefetch));
        out.layer("nat.burst_translate_share", share(Phase::BurstTranslate));
        out.layer("wheel.sweep_busy_share", share(Phase::Sweep));
        out.layer(
            "wheel.ns_per_expiry",
            of(Phase::Sweep) / stats.mappings_expired.max(1) as f64,
        );
    }

    let offered = (stats.out_packets + stats.in_packets).max(1) as f64;
    out.layer("drop_share", stats.drops as f64 / offered);
    out.layer(
        "nat.hit_share",
        1.0 - stats.mappings_created as f64 / stats.out_packets.max(1) as f64,
    );
    out.layer(
        "wheel.sweep_scan_share",
        stats.sweep_scans as f64 / stats.sweeps.max(1) as f64,
    );
    out.layer(
        "ports.alloc_fail_share",
        summary.flows_blocked as f64 / summary.flows_started.max(1) as f64,
    );
    out.layer("nat.mappings_created", stats.mappings_created as f64);
    out.layer("nat.mappings_expired", stats.mappings_expired as f64);
    out.layer("nat.peak_mappings", stats.peak_mappings as f64);
    out.layer("nat.drop_port_exhausted", stats.drop_port_exhausted as f64);
    out.layer("nat.drop_session_limit", stats.drop_session_limit as f64);
    out.layer("nat.drop_no_mapping", stats.drop_no_mapping as f64);
    out.layer("nat.drop_filtered", stats.drop_filtered as f64);
    out.layer("nat.instances", summary.shards as f64);
    out.layer("store.slots_free", summary.store.free as f64);
    out.layer("bench.traced_packets", d.slices.total_packets() as f64);
    out.layer("bench.traced_wall_s", d.slices.total_wall_s());
}
