//! `soak-observed`: `cgn_opsd::soak::run` on the `ci` shape (200 000
//! subscribers x 8 shards, `iot-fleet`) with everything an operator
//! turns on: per-shard rotating event logs on disk, windowed metrics,
//! flow tracing at 1 in 64 with the phase clocks armed, and the scrape
//! server up. The only workload where `cgn-telemetry`, `cgn-metrics`,
//! `cgn-trace` and `cgn-opsd` do work, in the many-subscribers,
//! low-rate regime where host interning and the sample barrier weigh
//! most.
//!
//! `soak::run` is one call that cannot be stopped from outside, so the
//! timed region repeats whole soaks of four metrics windows (240
//! simulated seconds, about four wall seconds: the shortest horizon
//! that reaches the mapping plateau of the preset's 60 s timeouts and
//! passes every exit gate) until the budget is spent, one slice each.

use crate::driver::{drive, phases_only, session_layers, Drive};
use crate::run::{set_up, timed, Budget, Outcome, RunArgs, Slices};
use crate::trace::Recorder;
use cgn_opsd::soak::{self, SoakConfig, SoakReport};
use cgn_trace::TraceConfig;
use cgn_traffic::{DriverConfig, DriverSession};

/// Metrics windows per soak.
const WINDOWS_PER_SOAK: u64 = 4;

/// Shares of a traced run's budget: observed soaks, then bare sessions
/// with nothing attached, then bare sessions with the phase clocks on.
const OBSERVED_SHARE: f64 = 0.4;
const BARE_SHARE: f64 = 0.3;

fn config(args: &RunArgs) -> SoakConfig {
    let mut c = if args.smoke {
        SoakConfig::smoke()
    } else {
        let mut c = SoakConfig::ci();
        c.duration_secs = WINDOWS_PER_SOAK * c.window_secs;
        c
    };
    c.threads = 1;
    c.seed = args.seed;
    c.trace = TraceConfig::sampled(64);
    c
}

/// The soak with its outputs pointed into the benchmark's directory.
fn observed(args: &RunArgs) -> std::io::Result<SoakConfig> {
    let mut c = config(args);
    let dir = crate::out_dir().join(format!("soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    c.event_log_stem = Some(dir.join("events"));
    c.stats_path = Some(dir.join("windows.jsonl"));
    c.trace_dump_path = Some(dir.join("gate-trip-trace.json"));
    Ok(c)
}

/// Repeat the soak until `budget` is spent; one slice per soak.
fn soaks(
    config: &SoakConfig,
    budget: Budget,
    rec: &mut Recorder,
) -> std::io::Result<(Vec<SoakReport>, Slices)> {
    let mut reports = Vec::new();
    let mut slices = Slices::default();
    while !budget.spent(slices.len() as u64) {
        let (report, wall_s) = timed(|| rec.span("opsd.soak::run", || soak::run(config)));
        let report = report?;
        slices.push(report.packets_sent, report.flows_started, wall_s);
        reports.push(report);
    }
    Ok((reports, slices))
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(args.traced);

    // The session the soak builds first thing, built here as well so
    // its cost is reported as set-up.
    let driver_config = config(args).driver_config();
    let (_, new_s) = set_up(|| rec.span("driver.new", || DriverSession::new(&driver_config)));
    out.setup_s = new_s;

    let share = if args.traced { OBSERVED_SHARE } else { 1.0 };
    let result = observed(args).and_then(|soak_config| {
        let result = soaks(&soak_config, Budget::start(args, share), &mut rec);
        if let Some(stem) = &soak_config.event_log_stem {
            let _ = std::fs::remove_dir_all(stem.parent().expect("stem has a directory"));
        }
        result
    });
    let (reports, slices) = match result {
        Ok(done) => done,
        Err(e) => {
            out.check(false, || format!("soak::run failed: {e}"));
            return out;
        }
    };

    let first = &reports[0];
    out.flows_per_s = slices.flows_per_s();
    out.packets_per_s = slices.packets_per_s();
    out.delivered_share = 1.0 - first.flows_blocked as f64 / first.packets_sent.max(1) as f64;
    out.attempted = slices.total_packets();
    out.digest = first.window_stream_digest;
    for report in &reports {
        out.check(report.all_gates_passed, || {
            let failed: Vec<&str> = report
                .gates
                .iter()
                .filter(|g| !g.passed)
                .map(|g| g.name.as_str())
                .collect();
            format!("soak gates failed: {}", failed.join(", "))
        });
        out.check(report.scrape_verified, || {
            "final scrape not verified".to_string()
        });
        // The same seed is the same soak: every repetition agrees.
        out.check(
            report.window_stream_digest == first.window_stream_digest
                && report.packets_sent == first.packets_sent,
            || "two soaks of one seed differ".to_string(),
        );
    }

    out.counts.insert("packets", first.packets_sent);
    out.counts.insert("flows", first.flows_started);
    out.counts.insert("drops", first.flows_blocked);
    out.counts
        .insert("mappings_created", first.mappings_created);
    out.counts
        .insert("mappings_expired", first.mappings_expired);

    if args.traced {
        layers(args, &mut out, first, &slices);
        out.layer("driver.new_s", new_s);
        out.layer("bench.spans_recorded", rec.len() as f64);
        crate::write_trace(args, &rec);
    }
    out
}

/// Drive bare sessions over `config` to their horizon, one after the
/// other, until `share` of the budget is spent; the fastest of them.
fn fastest_bare(args: &RunArgs, config: &DriverConfig, share: f64) -> Drive {
    let budget = Budget::start(args, share);
    let mut off = Recorder::new(false);
    let mut best: Option<Drive> = None;
    let mut sessions = 0;
    while !budget.spent(sessions) {
        let built = timed(|| DriverSession::new(config));
        let d = drive(built, 0, Budget::until_horizon, &mut off);
        sessions += 1;
        if best
            .as_ref()
            .map_or(true, |b| d.slices.total_wall_s() < b.slices.total_wall_s())
        {
            best = Some(d);
        }
    }
    best.expect("the budget admits one session")
}

/// The soak's own report, plus bare sessions over the same driver
/// configuration and horizon: some with nothing attached, the base the
/// observation overhead is measured against, and some with only the
/// phase clocks armed, which say where the driver's time goes at this
/// shape.
fn layers(args: &RunArgs, out: &mut Outcome, report: &SoakReport, slices: &Slices) {
    let mut bare = config(args).driver_config();
    bare.metrics_window_secs = None;
    bare.trace = TraceConfig::off();
    let plain = fastest_bare(args, &bare, BARE_SHARE);
    bare.trace = phases_only();
    let clocked = fastest_bare(args, &bare, 1.0 - OBSERVED_SHARE - BARE_SHARE);

    session_layers(out, &clocked);

    // Whole sessions, build and finish included, as the soak's wall is.
    let bare_s_per_packet = (plain.new_s + plain.slices.total_wall_s() + plain.finish_s)
        / plain.summary.packets_sent.max(1) as f64;
    out.layer(
        "observe.overhead_share",
        slices.ns_per_packet() / 1e9 / bare_s_per_packet - 1.0,
    );
    out.layer(
        "trace_overhead_share",
        clocked.slices.ns_per_packet() / plain.slices.ns_per_packet() - 1.0,
    );

    let log = report.event_log.as_ref();
    out.layer("telemetry.records", log.map_or(0.0, |l| l.records as f64));
    out.layer(
        "telemetry.log_bytes_per_flow",
        log.map_or(0.0, |l| l.bytes as f64 / report.flows_started.max(1) as f64),
    );
    out.layer(
        "telemetry.rotations",
        log.map_or(0.0, |l| {
            l.generations.saturating_sub(report.shards as u64) as f64
        }),
    );
    out.layer("metrics.windows_streamed", report.windows_streamed as f64);
    out.layer(
        "metrics.series_verified",
        report.scrape_series_verified as f64,
    );
    out.layer("opsd.scrapes_served", report.scrapes_served as f64);
    out.layer("store.arena_chunks", report.chunks_final as f64);
    out.layer("store.slots_free", report.free_slots_final as f64);
    out.layer("nat.mappings_created", report.mappings_created as f64);
    out.layer("nat.mappings_expired", report.mappings_expired as f64);
    out.layer("bench.traced_packets", slices.total_packets() as f64);
    out.layer("bench.traced_wall_s", slices.total_wall_s());
}
