//! `study-pipeline`: the paper's own pipeline, end to end.
//! `pipeline::measure` builds a world (`topology::World::build`),
//! crawls its BitTorrent DHT and runs Netalyzr sessions through
//! `simnet`, one packet at a time on the scalar NAT path, across
//! thousands of small CPE NATs; `results::assemble` and
//! `StudyReport::render` turn that into the report. It is the guard for
//! the packet-at-a-time path and the only workload where the cost of
//! one arena pair per `Nat` shows (as kernel time and resident memory).
//!
//! The pipeline is one call per study, so the timed region repeats
//! whole studies until the budget is spent, one slice each. The world a study needs is also built on its
//! own beforehand, which is the set-up time.

use crate::run::{fnv1a, set_up, timed, FNV_OFFSET, REFERENCE_SHARE};
use crate::run::{Budget, Outcome, RunArgs, Slices};
use crate::trace::{median, Recorder};
use cgn_study::pipeline::{self, StudyArtifacts};
use cgn_study::{results, StudyConfig};
use topology::World;

fn config(args: &RunArgs) -> StudyConfig {
    if args.smoke {
        return StudyConfig::tiny(args.seed);
    }
    // The world is part of the workload's shape, like the subscriber
    // and shard counts of the CGN workloads: it is always the `small`
    // world of seed 2016, and `--seed` drives what is measured in it
    // (which peers misbehave or leave, who runs Netalyzr and how often).
    // Worlds of different seeds differ by a fifth in NATs and memory,
    // and so do draws of which ASes have Netalyzr users at all, so
    // every AS has some.
    let mut c = StudyConfig::small(args.seed);
    c.topology.seed = 2016;
    c.p_as_netalyzr = 1.0;
    c
}

/// One study's work and where its time went.
struct Study {
    measure_s: f64,
    assemble_s: f64,
    render_s: f64,
    /// Crawler queries plus Netalyzr port-test flows observed.
    flows: u64,
    sent: u64,
    delivered: u64,
    dropped_nat: u64,
    queries_sent: u64,
    sessions: u64,
    nat_instances: u64,
    report_digest: u64,
    checks: Vec<String>,
}

fn nat_instances(art: &StudyArtifacts) -> u64 {
    let cpes = art
        .world
        .subscribers
        .iter()
        .filter(|s| s.cpe.is_some())
        .count();
    let cgns: usize = art
        .world
        .deployments
        .iter()
        .map(|d| d.cgn_instances.len())
        .sum();
    (cpes + cgns) as u64
}

fn one_study(config: &StudyConfig, rec: &mut Recorder) -> Study {
    rec.open("study");
    let (art, measure_s) = timed(|| {
        rec.span("core.pipeline::measure", || {
            pipeline::measure(config.clone())
        })
    });
    let (report, assemble_s) =
        timed(|| rec.span("core.results::assemble", || results::assemble(&art)));
    let (text, render_s) = timed(|| rec.span("core.StudyReport::render", || report.render()));
    rec.close();

    let net = art.world.net.stats();
    let port_flows: usize = art.sessions.iter().map(|s| s.flows.len()).sum();
    let mut checks = Vec::new();
    if art.crawl.queries_sent == 0 || art.crawl.queried.is_empty() {
        checks.push("the crawl reached nobody".to_string());
    }
    if art.sessions.is_empty() {
        checks.push("no Netalyzr session ran".to_string());
    }
    if text.is_empty() {
        checks.push("the report rendered empty".to_string());
    }
    Study {
        measure_s,
        assemble_s,
        render_s,
        flows: art.crawl.queries_sent + port_flows as u64,
        sent: net.sent,
        delivered: net.delivered,
        dropped_nat: net.dropped_nat,
        queries_sent: art.crawl.queries_sent,
        sessions: art.sessions.len() as u64,
        nat_instances: nat_instances(&art),
        report_digest: fnv1a(FNV_OFFSET, text.as_bytes()),
        checks,
    }
}

/// Repeat studies until `budget` is spent; one slice per study, timed
/// over measure + assemble + render.
fn studies(config: &StudyConfig, budget: Budget, rec: &mut Recorder) -> (Vec<Study>, Slices) {
    let mut all = Vec::new();
    let mut slices = Slices::default();
    while !budget.spent(slices.len() as u64) {
        let s = one_study(config, rec);
        slices.push(s.sent, s.flows, s.measure_s + s.assemble_s + s.render_s);
        all.push(s);
    }
    (all, slices)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let config = config(args);

    let mut rec = Recorder::new(args.traced);
    // The world `measure` builds first thing, built here as well so
    // its cost is reported as set-up.
    let (_, build_s) = set_up(|| {
        rec.span("topology.World::build", || {
            World::build(config.topology.clone())
        })
    });
    // A process's first study gets every NAT's arenas fresh from the
    // kernel, which takes from under a second to several depending on
    // the state of the machine's free memory: too unsteady to bound,
    // so it runs before the timed region and is reported on its own.
    let mut off = Recorder::new(false);
    let cold = one_study(&config, &mut off);
    let reference = args
        .traced
        .then(|| studies(&config, Budget::start(args, REFERENCE_SHARE), &mut off).1);
    let share = if args.traced {
        1.0 - REFERENCE_SHARE
    } else {
        1.0
    };
    let (all, slices) = studies(&config, Budget::start(args, share), &mut rec);

    let first = &all[0];
    out.setup_s = build_s;
    out.flows_per_s = slices.flows_per_s();
    out.packets_per_s = slices.packets_per_s();
    out.delivered_share = 1.0 - first.dropped_nat as f64 / first.sent.max(1) as f64;
    out.attempted = slices.total_packets();
    out.digest = first.report_digest;
    eprintln!("study-pipeline: report digest {:016x}", out.digest);
    for s in all.iter().chain([&cold]) {
        out.failures.extend(s.checks.iter().cloned());
        // The same seed is the same study: every repetition agrees.
        out.check(
            s.report_digest == first.report_digest && s.sent == first.sent,
            || "two studies of one seed differ".to_string(),
        );
    }

    out.counts.insert("packets", first.sent);
    out.counts.insert("flows", first.flows);
    out.counts.insert("drops", first.dropped_nat);

    if let Some(reference) = reference {
        let mid = |f: fn(&Study) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        out.layer("topology.build_s", build_s);
        out.layer("core.measure_s", mid(|s| s.measure_s));
        out.layer("core.assemble_s", mid(|s| s.assemble_s));
        out.layer("core.render_s", mid(|s| s.render_s));
        out.layer(
            "core.first_study_s",
            cold.measure_s + cold.assemble_s + cold.render_s,
        );
        out.layer("simnet.packets_sent", first.sent as f64);
        out.layer(
            "simnet.delivered_share",
            first.delivered as f64 / first.sent.max(1) as f64,
        );
        out.layer("simnet.dropped_nat", first.dropped_nat as f64);
        out.layer("drop_share", 1.0 - out.delivered_share);
        out.layer("btdht.queries_sent", first.queries_sent as f64);
        out.layer("netalyzr.sessions", first.sessions as f64);
        out.layer("nat.instances", first.nat_instances as f64);
        out.layer(
            "trace_overhead_share",
            slices.ns_per_packet() / reference.ns_per_packet() - 1.0,
        );
        out.layer("bench.traced_packets", slices.total_packets() as f64);
        out.layer("bench.traced_wall_s", slices.total_wall_s());
        out.layer("bench.spans_recorded", rec.len() as f64);
        crate::write_trace(args, &rec);
    }
    out
}
