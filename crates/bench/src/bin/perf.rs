//! Perf harness CLI: time the dimensioning sweep on the sharded engine
//! and write the machine-readable `BENCH_dimensioning.json`.
//!
//! ```text
//! cargo run --release -p cgn-bench --bin perf                    # 1x/4x/16x sweep
//! cargo run --release -p cgn-bench --bin perf -- quick           # seconds-scale smoke
//! cargo run --release -p cgn-bench --bin perf -- threads=4      # fixed worker count
//! cargo run --release -p cgn-bench --bin perf -- out=PATH       # report destination
//! cargo run --release -p cgn-bench --bin perf -- check=bench/baseline.json
//! cargo run --release -p cgn-bench --bin perf -- logging-out=BENCH_logging.json
//! cargo run --release -p cgn-bench --bin perf -- metrics-out=BENCH_metrics.json metrics-prom=BENCH_metrics.prom
//! ```
//!
//! With `check=`, the run exits nonzero when a **machine-relative**
//! ratio regresses more than 20% (override with `tolerance=0.3`)
//! against the committed baseline — the contract of the CI `perf`
//! job. Gated ratios: each scale's flows/sec relative to the smallest
//! scale of the same run (state-table scaling), and the parallel
//! speedup (only when both machines are multi-core). Absolute
//! flows/sec are informational, so a CI-runner hardware change cannot
//! trip the gate.
//!
//! `logging-out=` turns on the telemetry-logging leg: the middle
//! scale is re-run with per-connection and per-block sinks, the
//! overhead rows land in `BENCH_logging.json`, and — when `check=` is
//! also given — the **sink-disabled** sweep's ratios are re-gated at
//! the stricter `logging-tolerance` (default 5%), so threading the
//! `EventSink` through the hot path can never quietly tax the
//! disabled configuration.
//!
//! `metrics-out=` turns on the runtime-metrics leg the same way: the
//! middle scale is re-run with windowed metric registries (and once
//! more sequentially — the harness asserts the snapshots are
//! bit-identical across thread counts), the windowed aggregates land
//! in `BENCH_metrics.json` (plus a Prometheus text exposition at
//! `metrics-prom=`), and — when `check=` is also given — the
//! **metrics-disabled** sweep's ratios are re-gated at the strictest
//! `metrics-tolerance` (default 2%), pinning the
//! registries-absent-cost-one-branch contract against the committed
//! baseline. Because 2% sits inside single-pass scheduling noise, a
//! miss re-measures the sweep (up to best-of-3) before the gate
//! fails: noise only subtracts throughput, a regression never passes.
//!
//! `trace-out=` turns on the flow-tracing leg: the middle scale is
//! re-run with the flight recorder sampling 1-in-64 flows and the
//! wall-clock phase profiler armed, the traced pass is digest-pinned
//! to the untraced sweep (tracing is observation only), the rows and
//! the per-phase p50/p95/p99 table land in `BENCH_trace.json`
//! (schema `cgn-trace/1`, plus a Perfetto-loadable Chrome trace at
//! `trace-chrome=`), and — when `check=` is also given — the
//! **tracer-disabled** sweep's ratios are re-gated at
//! `trace-tolerance` (default 2%, the same best-of-3 re-measure
//! discipline as the metrics gate), pinning the untaken-branch cost
//! of the disabled fire sites against the committed baseline.
//!
//! `batch-out=` turns on the burst-pipeline leg: the middle scale is
//! swept across the [`BATCH_BURSTS`](cgn_bench::perf::BATCH_BURSTS)
//! burst sizes — once outbound-only and once with the inbound-reply
//! leg enabled — every burst size's digest is asserted bit-identical
//! to its burst=1 scalar-equivalent pass, the rows land in
//! `BENCH_batch.json` (schema `cgn-batch-perf/2`), and the run fails
//! unless burst-128 throughput is at least the scalar pass's on
//! **both** sweeps (re-measured up to best-of-3 first — the same
//! noise argument as the metrics gate). The leg also runs the largest
//! scale once with windowed metrics and gates the arena chunk series:
//! zero slab growth (hence zero reallocation copies) after warm-up.
//! The digest checks are unconditional; the throughput gates need no
//! `check=` because they are self-relative.

use cgn_bench::perf::{
    check_against_baseline, fold_best_batch, run_perf, PerfReport, PerfSettings, DEFAULT_TOLERANCE,
};
use std::path::PathBuf;
use std::process::exit;

/// Tolerance of the logging leg's disabled-sink ratio gate.
const LOGGING_TOLERANCE: f64 = 0.05;
/// Tolerance of the metrics leg's disabled-registry ratio gate.
const METRICS_TOLERANCE: f64 = 0.02;
/// Tolerance of the trace leg's disabled-tracer ratio gate.
const TRACE_TOLERANCE: f64 = 0.02;

fn main() {
    let mut settings = PerfSettings::standard();
    let mut out = PathBuf::from("BENCH_dimensioning.json");
    let mut check: Option<PathBuf> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut logging_out: Option<PathBuf> = None;
    let mut logging_tolerance = LOGGING_TOLERANCE;
    let mut metrics_out: Option<PathBuf> = None;
    let mut metrics_prom: Option<PathBuf> = None;
    let mut metrics_tolerance = METRICS_TOLERANCE;
    let mut batch_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut trace_chrome: Option<PathBuf> = None;
    let mut trace_tolerance = TRACE_TOLERANCE;
    // Presets apply first so explicit settings win regardless of
    // argument order (`quick seed=7` and `seed=7 quick` agree).
    if std::env::args().skip(1).any(|a| a == "quick") {
        settings = PerfSettings::quick();
    }
    for arg in std::env::args().skip(1) {
        if arg == "quick" {
            // handled in the preset pass above
        } else if let Some(v) = arg.strip_prefix("seed=") {
            settings.seed = v.parse().expect("seed must be an integer");
        } else if let Some(v) = arg.strip_prefix("threads=") {
            settings.threads = v.parse().expect("threads must be an integer");
        } else if let Some(v) = arg.strip_prefix("out=") {
            out = v.into();
        } else if let Some(v) = arg.strip_prefix("check=") {
            check = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("tolerance=") {
            tolerance = v.parse().expect("tolerance must be a float");
        } else if let Some(v) = arg.strip_prefix("logging-out=") {
            logging_out = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("logging-tolerance=") {
            logging_tolerance = v.parse().expect("logging-tolerance must be a float");
        } else if let Some(v) = arg.strip_prefix("metrics-out=") {
            metrics_out = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("metrics-prom=") {
            metrics_prom = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("metrics-tolerance=") {
            metrics_tolerance = v.parse().expect("metrics-tolerance must be a float");
        } else if let Some(v) = arg.strip_prefix("batch-out=") {
            batch_out = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("trace-out=") {
            trace_out = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("trace-chrome=") {
            trace_chrome = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("trace-tolerance=") {
            trace_tolerance = v.parse().expect("trace-tolerance must be a float");
        } else {
            eprintln!(
                "unknown argument '{arg}' \
                 (use quick, seed=N, threads=N, out=PATH, check=PATH, tolerance=F, \
                  logging-out=PATH, logging-tolerance=F, \
                  metrics-out=PATH, metrics-prom=PATH, metrics-tolerance=F, \
                  batch-out=PATH, trace-out=PATH, trace-chrome=PATH, trace-tolerance=F)"
            );
            exit(2);
        }
    }
    settings.sink_overhead = logging_out.is_some();
    settings.metrics_overhead = metrics_out.is_some() || metrics_prom.is_some();
    settings.batch_overhead = batch_out.is_some();
    settings.trace_overhead = trace_out.is_some() || trace_chrome.is_some();

    let mut report = run_perf(&settings);

    println!(
        "dimensioning perf — seed {} | {} shard(s), {} worker thread(s) of {} core(s), {} s per mix",
        report.seed, report.shards, report.threads, report.available_cores, report.duration_secs
    );
    for s in &report.scales {
        println!(
            "  scale {:>2}x: {:>7} subscribers | {:>9} flows | {:>7.2} s wall | {:>10.0} flows/s \
             (median; envelope {:.0}..{:.0}) | peak {} mappings",
            s.scale,
            s.subscribers,
            s.flows,
            s.wall_secs,
            s.flows_per_sec,
            s.flows_per_sec_min,
            s.flows_per_sec_max,
            s.peak_mappings
        );
    }
    println!(
        "  speedup: {:.2}x ({:.0} parallel vs {:.0} sequential flows/s; digest {})",
        report.parallel_speedup,
        report.parallel_flows_per_sec,
        report.sequential_flows_per_sec,
        report.digest
    );
    println!(
        "  scaling ratio (largest/smallest scale flows/s): {:.3} | worst shard imbalance: flows {:.3}, mappings {:.3}",
        report.scaling_ratio,
        report.scales.iter().map(|s| s.flow_imbalance).fold(0.0, f64::max),
        report.scales.iter().map(|s| s.mapping_imbalance).fold(0.0, f64::max),
    );

    if let Some(section) = &report.logging {
        println!(
            "  sink overhead at {}x ({} subscribers):",
            section.scale, section.subscribers
        );
        for row in &section.rows {
            println!(
                "    {:<15} {:>10.0} flows/s ({:>5.1}% of off) | {:>9} records | {:>10} log bytes",
                row.mode,
                row.flows_per_sec,
                100.0 * row.relative_throughput,
                row.log_records,
                row.log_bytes
            );
        }
    }

    if let Some(section) = &report.metrics {
        println!(
            "  metrics overhead at {}x ({} subscribers), {} s windows:",
            section.scale, section.subscribers, section.window_secs
        );
        for row in &section.rows {
            println!(
                "    {:<10} {:>10.0} flows/s ({:>5.1}% of off)",
                row.mode,
                row.flows_per_sec,
                100.0 * row.relative_throughput,
            );
        }
        println!(
            "    snapshot digest {} (bit-identical across thread counts) | \
             worst window imbalance {:.3} at t={} s",
            section.snapshot_digest,
            section.worst_window_flow_imbalance,
            section.worst_window_start_secs
        );
        if let Some(p) = &section.probe_latency {
            println!(
                "    trace probe latency: p50 {} ns | p95 {} ns | p99 {} ns ({} probes)",
                p.p50_ns, p.p95_ns, p.p99_ns, p.probes
            );
        }
    }

    if let Some(section) = &report.trace {
        println!(
            "  tracing overhead at {}x ({} subscribers), 1-in-{} flow sampling, ring {}:",
            section.scale, section.subscribers, section.sample_one_in, section.ring_capacity
        );
        for row in &section.rows {
            println!(
                "    {:<10} {:>10.0} flows/s ({:>5.1}% of off)",
                row.mode,
                row.flows_per_sec,
                100.0 * row.relative_throughput,
            );
        }
        println!(
            "    flight recorder: {} events | {} sampled flows | {} evicted | digest {} (bit-identical to the untraced sweep)",
            section.events, section.sampled_flows, section.evicted, section.digest
        );
        for p in &section.phases {
            println!(
                "    phase {:<16} p50 {:>10.0} ns | p95 {:>10.0} ns | p99 {:>10.0} ns ({} laps)",
                p.phase, p.p50_ns, p.p95_ns, p.p99_ns, p.count
            );
        }
    }

    // Burst-pipeline gate: burst-128 must at least match the burst=1
    // scalar-equivalent pass. Self-relative, so it needs no baseline;
    // a miss re-measures the leg (up to best-of-3) before failing —
    // scheduling noise only subtracts throughput, while a batched path
    // that is genuinely slower than scalar loses every pass. Runs
    // before the artifacts are written so the envelope lands in them.
    let mut batch_gate_failed = false;
    if settings.batch_overhead {
        let mut section = report.batch.take().expect("batch leg measured");
        let mut passes = 1;
        // Both sweeps must clear the bar: the last (largest) burst row
        // of the outbound sweep and of the inbound-reply sweep.
        let gate = |s: &cgn_bench::perf::BatchSection| {
            let worst = |rows: &[cgn_bench::perf::BurstPerf], leg: &str| {
                let last = rows.last().expect("burst rows present");
                (last.burst, last.relative_throughput, leg.to_string())
            };
            let out = worst(&s.rows, "outbound");
            match &s.inbound {
                Some(i) => {
                    let inb = worst(&i.rows, "inbound");
                    if inb.1 < out.1 {
                        inb
                    } else {
                        out
                    }
                }
                None => out,
            }
        };
        while gate(&section).1 < 1.0 && passes < 3 {
            let (burst, rel, leg) = gate(&section);
            passes += 1;
            println!(
                "batch gate: {leg} burst-{burst} at {:.1}% of scalar on pass {} — \
                 re-measuring burst sweeps (best-of-{passes} envelope)",
                100.0 * rel,
                passes - 1
            );
            fold_best_batch(&mut section, &settings, report.threads);
        }
        println!(
            "  burst sweep at {}x ({} subscribers):",
            section.scale, section.subscribers
        );
        for row in &section.rows {
            println!(
                "    burst {:>4} {:>10.0} flows/s ({:>5.1}% of scalar)",
                row.burst,
                row.flows_per_sec,
                100.0 * row.relative_throughput
            );
        }
        if let Some(inbound) = &section.inbound {
            println!(
                "  inbound burst sweep ({} permille of flows answered in-batch):",
                inbound.reply_permille
            );
            for row in &inbound.rows {
                println!(
                    "    burst {:>4} {:>10.0} flows/s ({:>5.1}% of scalar)",
                    row.burst,
                    row.flows_per_sec,
                    100.0 * row.relative_throughput
                );
            }
            let a = &inbound.arena;
            println!(
                "  arena at {}x ({} subscribers): {} chunks at warm-up (t={} s) -> {} final \
                 | {} free slots | {} chunk(s) grown after warm-up",
                a.scale,
                a.subscribers,
                a.chunks_warm,
                a.warmup_secs,
                a.chunks_final,
                a.slots_free_final,
                a.chunks_grown_after_warmup
            );
            if a.chunks_grown_after_warmup > 0 {
                batch_gate_failed = true;
                eprintln!(
                    "arena gate FAILED: {} chunk(s) allocated after warm-up at {}x scale \
                     (the slab must reach steady state within half the run)",
                    a.chunks_grown_after_warmup, a.scale
                );
            } else {
                println!(
                    "arena gate passed: zero slab growth after warm-up at {}x scale \
                     (zero reallocation copies by construction)",
                    a.scale
                );
            }
        }
        let (burst, rel, leg) = gate(&section);
        if rel < 1.0 {
            batch_gate_failed = true;
            eprintln!(
                "batch gate FAILED: {leg} burst-{burst} at {:.1}% of scalar throughput on \
                 every one of {passes} pass(es)",
                100.0 * rel
            );
        } else {
            println!(
                "batch gate passed: worst leg ({leg}) burst-{burst} at {:.1}% of scalar \
                 (best of {passes} pass(es)); digests bit-identical across burst sizes \
                 (outbound {}, inbound {})",
                100.0 * rel,
                section.digest,
                section
                    .inbound
                    .as_ref()
                    .map(|i| i.digest.as_str())
                    .unwrap_or("-")
            );
        }
        report.batch = Some(section);
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&out, json.as_bytes()) {
        eprintln!("failed to write {}: {e}", out.display());
        exit(1);
    }
    println!("wrote {}", out.display());

    if let Some(path) = &logging_out {
        match report.logging_report() {
            Some(standalone) => {
                let json = serde_json::to_string_pretty(&standalone).expect("logging serializes");
                if let Err(e) = std::fs::write(path, json.as_bytes()) {
                    eprintln!("failed to write {}: {e}", path.display());
                    exit(1);
                }
                println!("wrote {}", path.display());
            }
            None => {
                eprintln!("logging-out given but no overhead section was measured");
                exit(1);
            }
        }
    }

    if metrics_out.is_some() || metrics_prom.is_some() {
        let Some(standalone) = report.metrics_report() else {
            eprintln!("metrics-out given but no metrics section was measured");
            exit(1);
        };
        if let Some(path) = &metrics_out {
            let json = serde_json::to_string_pretty(&standalone).expect("metrics serializes");
            if let Err(e) = std::fs::write(path, json.as_bytes()) {
                eprintln!("failed to write {}: {e}", path.display());
                exit(1);
            }
            println!("wrote {}", path.display());
        }
        if let Some(path) = &metrics_prom {
            if let Err(e) = std::fs::write(path, standalone.metrics.exposition().as_bytes()) {
                eprintln!("failed to write {}: {e}", path.display());
                exit(1);
            }
            println!("wrote {}", path.display());
        }
    }

    if let Some(path) = &batch_out {
        match report.batch_report() {
            Some(standalone) => {
                let json = serde_json::to_string_pretty(&standalone).expect("batch serializes");
                if let Err(e) = std::fs::write(path, json.as_bytes()) {
                    eprintln!("failed to write {}: {e}", path.display());
                    exit(1);
                }
                println!("wrote {}", path.display());
            }
            None => {
                eprintln!("batch-out given but no batch section was measured");
                exit(1);
            }
        }
    }
    if trace_out.is_some() || trace_chrome.is_some() {
        let Some(standalone) = report.trace_report() else {
            eprintln!("trace-out given but no trace section was measured");
            exit(1);
        };
        if let Some(path) = &trace_out {
            let json = serde_json::to_string_pretty(&standalone).expect("trace serializes");
            if let Err(e) = std::fs::write(path, json.as_bytes()) {
                eprintln!("failed to write {}: {e}", path.display());
                exit(1);
            }
            println!("wrote {}", path.display());
        }
        if let Some(path) = &trace_chrome {
            if let Err(e) = std::fs::write(path, standalone.trace.chrome.as_bytes()) {
                eprintln!("failed to write {}: {e}", path.display());
                exit(1);
            }
            println!("wrote {}", path.display());
        }
    }
    // Fail after the artifacts are on disk, so a gate trip is
    // diagnosable from the uploaded JSON alone.
    if batch_gate_failed {
        exit(1);
    }

    if let Some(path) = check {
        let baseline: PerfReport = match std::fs::read_to_string(&path) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("failed to parse baseline {}: {e:?}", path.display());
                    exit(2);
                }
            },
            Err(e) => {
                eprintln!("failed to read baseline {}: {e}", path.display());
                exit(2);
            }
        };
        match check_against_baseline(&report, &baseline, tolerance) {
            Ok(notes) => {
                for n in notes {
                    println!("{n}");
                }
                println!(
                    "baseline check passed (tolerance {:.0}%)",
                    tolerance * 100.0
                );
            }
            Err(failures) => {
                for f in failures {
                    eprintln!("{f}");
                }
                eprintln!(
                    "baseline check FAILED (tolerance {:.0}%)",
                    tolerance * 100.0
                );
                exit(1);
            }
        }

        // The logging leg's stricter gate: the scale sweep above ran
        // with the sink DISABLED, so re-checking its machine-relative
        // ratios at the logging tolerance pins the zero-cost-when-
        // disabled contract against the committed baseline.
        if logging_out.is_some() {
            match check_against_baseline(&report, &baseline, logging_tolerance) {
                Ok(_) => println!(
                    "logging gate passed: sink-disabled ratios within {:.0}% of baseline",
                    logging_tolerance * 100.0
                ),
                Err(failures) => {
                    for f in failures {
                        eprintln!("{f}");
                    }
                    eprintln!(
                        "logging gate FAILED: sink-disabled configuration regressed \
                         baseline throughput ratios by more than {:.0}%",
                        logging_tolerance * 100.0
                    );
                    exit(1);
                }
            }
        }

        // The metrics leg's strictest gate: the scale sweep above ran
        // with NO metric registries installed, so re-checking its
        // machine-relative ratios at the metrics tolerance pins the
        // one-untaken-branch cost of the disabled instrumentation
        // against the committed baseline. A 2% bar is tighter than
        // single-pass scheduling noise on shared runners, so on a miss
        // the sweep is re-measured (up to twice) and the gate holds
        // the best-of-N envelope: interference only ever subtracts
        // throughput, while a real regression depresses every pass.
        if settings.metrics_overhead {
            let mut envelope = report.clone();
            let mut outcome = check_against_baseline(&envelope, &baseline, metrics_tolerance);
            let mut passes = 1;
            while outcome.is_err() && passes < 3 {
                passes += 1;
                println!(
                    "metrics gate: ratios outside {:.0}% on pass {} — re-measuring \
                     registry-disabled sweep (best-of-{passes} envelope)",
                    metrics_tolerance * 100.0,
                    passes - 1
                );
                cgn_bench::perf::fold_best_scales(&mut envelope, &settings);
                outcome = check_against_baseline(&envelope, &baseline, metrics_tolerance);
            }
            match outcome {
                Ok(_) => println!(
                    "metrics gate passed: registry-disabled ratios within {:.0}% of baseline \
                     (best of {passes} pass(es))",
                    metrics_tolerance * 100.0
                ),
                Err(failures) => {
                    for f in failures {
                        eprintln!("{f}");
                    }
                    eprintln!(
                        "metrics gate FAILED: registry-disabled configuration regressed \
                         baseline throughput ratios by more than {:.0}% on every one of \
                         {passes} passes",
                        metrics_tolerance * 100.0
                    );
                    exit(1);
                }
            }
        }

        // The trace leg's gate, same discipline: the scale sweep above
        // ran with NO tracer installed, so re-checking its machine-
        // relative ratios at the trace tolerance pins the cost of the
        // disabled fire sites — one untaken branch per packet batch —
        // against the committed baseline, with best-of-3 re-measures
        // absorbing scheduling noise.
        if settings.trace_overhead {
            let mut envelope = report.clone();
            let mut outcome = check_against_baseline(&envelope, &baseline, trace_tolerance);
            let mut passes = 1;
            while outcome.is_err() && passes < 3 {
                passes += 1;
                println!(
                    "trace gate: ratios outside {:.0}% on pass {} — re-measuring \
                     tracer-disabled sweep (best-of-{passes} envelope)",
                    trace_tolerance * 100.0,
                    passes - 1
                );
                cgn_bench::perf::fold_best_scales(&mut envelope, &settings);
                outcome = check_against_baseline(&envelope, &baseline, trace_tolerance);
            }
            match outcome {
                Ok(_) => println!(
                    "trace gate passed: tracer-disabled ratios within {:.0}% of baseline \
                     (best of {passes} pass(es))",
                    trace_tolerance * 100.0
                ),
                Err(failures) => {
                    for f in failures {
                        eprintln!("{f}");
                    }
                    eprintln!(
                        "trace gate FAILED: tracer-disabled configuration regressed \
                         baseline throughput ratios by more than {:.0}% on every one of \
                         {passes} passes",
                        trace_tolerance * 100.0
                    );
                    exit(1);
                }
            }
        }
    }
}
