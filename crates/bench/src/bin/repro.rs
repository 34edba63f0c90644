//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p cgn-bench --bin repro            # full report
//! cargo run --release -p cgn-bench --bin repro -- small   # smaller world
//! cargo run --release -p cgn-bench --bin repro -- seed=7  # other seed
//! cargo run --release -p cgn-bench --bin repro -- export=plots/  # + TSV figure data
//! cargo run --release -p cgn-bench --bin repro -- dimensioning   # + CGN port-demand sweep
//! cargo run --release -p cgn-bench --bin repro -- dimensioning --threads 4
//! cargo run --release -p cgn-bench --bin repro -- dimensioning --metrics  # + windowed metrics
//! cargo run --release -p cgn-bench --bin repro -- detection      # detection campaign
//! cargo run --release -p cgn-bench --bin repro -- small detection --threads 4
//! cargo run --release -p cgn-bench --bin repro -- soak           # 1M-subscriber soak + gates
//! cargo run --release -p cgn-bench --bin repro -- small soak --events-dir target/soak-events
//! cargo run --release -p cgn-bench --bin repro -- dimensioning --trace-out=trace.json
//! cargo run --release -p cgn-bench --bin repro -- top 127.0.0.1:9321  # live TUI on a soak
//! ```
//!
//! The output is the "measured" side of EXPERIMENTS.md: every section is
//! annotated with the paper's published numbers for comparison.
//!
//! `soak` runs the always-on operator mode instead of the study
//! pipeline: a [`cgn_opsd`] soak session (scale maps `default` → the
//! 1M-subscriber hour, `small` → CI scale, `tiny` → smoke scale) with
//! a live scrape endpoint, streamed JSONL window stats
//! (`BENCH_soak_windows.jsonl`), optional rotating event logs
//! (`--events-dir DIR`), and the leak gates. The report lands in
//! `BENCH_soak.json`; any failed gate (or unverifiable scrape) exits
//! nonzero.
//!
//! `--trace-out=PATH` (with `dimensioning`) re-runs the reference mix
//! with the flight recorder sampling 1-in-N flows (`--trace-sample=N`,
//! default 64) and writes the merged dump as Chrome-trace JSON — load
//! it in Perfetto / `chrome://tracing`.
//!
//! `top ADDR` is the `lqtop`-style live dashboard: it scrapes a
//! running soak's `/metrics` endpoint every `--interval` seconds
//! (default 2) and redraws per-shard flow rates, allocator fill,
//! wheel depth, arena growth and phase-latency sparklines with plain
//! ANSI. `--iterations=N` stops after N frames (0 = until ^C).
//!
//! `detection` runs the multi-perspective CGN detection campaign
//! instead of the study pipeline: the standard scenario library at
//! ≥100k subscribers (tiny/small scales run the quick library),
//! scored against topology ground truth, exported to
//! `BENCH_detection.json` (+ TSVs under `export=DIR`). The run exits
//! nonzero when an export fails or the committed precision/recall
//! gates are missed.

use cgn_bench::metrics_artifact::MetricsReport;
use cgn_study::{run_study, StudyConfig};

fn main() {
    let mut scale = "default".to_string();
    let mut seed: u64 = 2016;
    let mut export_dir: Option<std::path::PathBuf> = None;
    let mut dimensioning = false;
    let mut detection = false;
    let mut soak = false;
    let mut metrics = false;
    let mut seed_set = false;
    let mut events_dir: Option<std::path::PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut trace_sample: u32 = 64;
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("top") {
        args.next();
        run_top_mode(args.collect());
        return;
    }
    while let Some(arg) = args.next() {
        if let Some(s) = arg.strip_prefix("seed=") {
            seed = s.parse().expect("seed must be an integer");
            seed_set = true;
        } else if let Some(d) = arg.strip_prefix("export=") {
            export_dir = Some(d.into());
        } else if arg == "dimensioning" {
            dimensioning = true;
        } else if arg == "detection" {
            detection = true;
        } else if arg == "soak" {
            soak = true;
        } else if arg == "--metrics" {
            metrics = true;
        } else if arg == "--events-dir" {
            let v = args.next().unwrap_or_else(|| {
                eprintln!("--events-dir needs a directory for the rotating event-log generations");
                std::process::exit(2);
            });
            events_dir = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("--events-dir=") {
            events_dir = Some(v.into());
        } else if arg == "--threads" {
            let v = args.next().unwrap_or_else(|| {
                eprintln!("--threads needs a value (worker count; 0 = one per core)");
                std::process::exit(2);
            });
            threads = Some(v.parse().expect("--threads must be an integer"));
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            threads = Some(v.parse().expect("--threads must be an integer"));
        } else if arg == "--trace-out" {
            let v = args.next().unwrap_or_else(|| {
                eprintln!("--trace-out needs a destination for the Chrome-trace JSON");
                std::process::exit(2);
            });
            trace_out = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("--trace-out=") {
            trace_out = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("--trace-sample=") {
            trace_sample = v.parse().expect("--trace-sample must be an integer");
        } else {
            scale = arg;
        }
    }
    if soak {
        let seed = seed_set.then_some(seed);
        run_soak_mode(&scale, seed, threads, events_dir.as_deref());
        return;
    }
    if detection {
        run_detection_campaign(&scale, seed, threads, export_dir.as_deref());
        return;
    }
    let mut config = match scale.as_str() {
        "tiny" => StudyConfig::tiny(seed),
        "small" => StudyConfig::small(seed),
        "default" => StudyConfig::default_with_seed(seed),
        other => {
            eprintln!("unknown scale '{other}' (use tiny|small|default)");
            std::process::exit(2);
        }
    };
    if metrics && !dimensioning {
        eprintln!("--metrics needs the dimensioning subcommand (windowed metrics ride the sweep)");
        std::process::exit(2);
    }
    if trace_out.is_some() && !dimensioning {
        eprintln!("--trace-out needs the dimensioning subcommand (the traced leg rides the sweep)");
        std::process::exit(2);
    }
    if dimensioning {
        let mut dim = match scale.as_str() {
            "tiny" | "small" => cgn_study::DimensioningConfig::small(seed),
            _ => cgn_study::DimensioningConfig::release(seed),
        };
        if let Some(t) = threads {
            dim.threads = t;
        }
        if metrics {
            // One window per sample barrier: the live table in the
            // rendered report and the BENCH_metrics.json artifact.
            dim.metrics_window_secs = Some(dim.sample_secs);
        }
        config.dimensioning = Some(dim);
    }
    let t0 = std::time::Instant::now();
    let report = run_study(config);
    let elapsed = t0.elapsed();
    println!("{}", report.render());
    if metrics {
        write_metrics_artifacts(report.dimensioning.as_ref());
    }
    if let Some(path) = &trace_out {
        let dim = report
            .dimensioning
            .as_ref()
            .map(|d| d.config.clone())
            .unwrap_or_else(|| {
                eprintln!("--trace-out given but the study produced no dimensioning report");
                std::process::exit(1);
            });
        write_trace_artifact(&dim, path, trace_sample);
    }
    if let Some(dir) = export_dir {
        match cgn_study::write_to_dir(&report, &dir) {
            Ok(written) => println!(
                "\nexported {} figure data files to {}",
                written.len(),
                dir.display()
            ),
            Err(e) => {
                eprintln!("figure export to {} failed: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    println!("\n(reproduced in {elapsed:.2?} at scale '{scale}', seed {seed})");
}

/// The `soak` mode: run the always-on operator session at the
/// requested scale, stream the window stats to
/// `BENCH_soak_windows.jsonl`, write the gated report to
/// `BENCH_soak.json`, and exit nonzero when any leak gate (or the
/// scrape verification) fails.
fn run_soak_mode(
    scale: &str,
    seed: Option<u64>,
    threads: Option<usize>,
    events_dir: Option<&std::path::Path>,
) {
    let mut config = match scale {
        "tiny" => cgn_opsd::SoakConfig::smoke(),
        "small" => cgn_opsd::SoakConfig::ci(),
        "default" => cgn_opsd::SoakConfig::full(),
        other => {
            eprintln!("unknown scale '{other}' (use tiny|small|default)");
            std::process::exit(2);
        }
    };
    if let Some(s) = seed {
        config.seed = s;
    }
    if let Some(t) = threads {
        config.threads = t;
    }
    config.stats_path = Some("BENCH_soak_windows.jsonl".into());
    if let Some(dir) = events_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("creating {} failed: {e}", dir.display());
            std::process::exit(1);
        }
        config.event_log_stem = Some(dir.join("events"));
    }
    println!(
        "soak '{}': {} subscribers x {} shards, {} simulated seconds (mix {}, seed {})",
        config.preset,
        config.subscribers,
        config.shards,
        config.duration_secs,
        config.mix.name,
        config.seed
    );
    let report = match cgn_opsd::run_soak(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("soak run failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "  {} flows ({} blocked), {} packets, {} mappings created / {} expired",
        report.flows_started,
        report.flows_blocked,
        report.packets_sent,
        report.mappings_created,
        report.mappings_expired
    );
    println!(
        "  {} windows streamed (digest {:016x}), ring never held more than {} windows",
        report.windows_streamed, report.window_stream_digest, report.max_windows_retained
    );
    println!(
        "  scrape endpoint answered {} requests; final scrape verified {} series: {}",
        report.scrapes_served,
        report.scrape_series_verified,
        if report.scrape_verified {
            "ok"
        } else {
            "FAILED"
        }
    );
    if let Some(v) = &report.event_log {
        println!(
            "  event logs: {} generations, {} records, {} bytes ({} modeled archived)",
            v.generations, v.records, v.bytes, v.compressed_bytes_modeled
        );
    }
    for g in &report.gates {
        println!(
            "  gate {:<22} {}  (observed {:.4}, limit {:.4}: {})",
            g.name,
            if g.passed { "pass" } else { "FAIL" },
            g.observed,
            g.limit,
            g.detail
        );
    }
    println!(
        "  wall {:.1}s ({:.0} simulated seconds per wall second)",
        report.wall_secs, report.sim_rate
    );

    let json = serde_json::to_string_pretty(&report).expect("soak report serializes");
    if let Err(e) = std::fs::write("BENCH_soak.json", json) {
        eprintln!("writing BENCH_soak.json failed: {e}");
        std::process::exit(1);
    }
    println!("wrote BENCH_soak.json (schema {})", report.schema);
    if !report.all_gates_passed {
        eprintln!("soak leak gates FAILED");
        std::process::exit(1);
    }
    println!("all soak gates passed");
}

/// The `detection` mode: run the multi-perspective campaign, print
/// the scored report, write `BENCH_detection.json` (and the TSV
/// exports when `export=DIR` is given), and hold the result against
/// the committed precision/recall gates. Export failures and missed
/// gates exit nonzero, mirroring the `dimensioning` subcommand.
fn run_detection_campaign(
    scale: &str,
    seed: u64,
    threads: Option<usize>,
    export_dir: Option<&std::path::Path>,
) {
    let mut cfg = match scale {
        "tiny" | "small" => cgn_detect::CampaignConfig::quick(seed),
        "default" => cgn_detect::CampaignConfig::standard(seed),
        other => {
            eprintln!("unknown scale '{other}' (use tiny|small|default)");
            std::process::exit(2);
        }
    };
    if let Some(t) = threads {
        cfg = cfg.with_threads(t);
    }
    let t0 = std::time::Instant::now();
    let report = cgn_detect::run_campaign(&cfg);
    let elapsed = t0.elapsed();
    println!("{}", report.render());

    let artifact = cgn_study::DetectionArtifact::new(report.clone());
    let json = serde_json::to_string_pretty(&artifact).expect("report serializes");
    if let Err(e) = std::fs::write("BENCH_detection.json", json) {
        eprintln!("writing BENCH_detection.json failed: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote BENCH_detection.json (digest {:016x})",
        report.digest()
    );

    if let Some(dir) = export_dir {
        match cgn_study::write_detection_to_dir(&report, dir) {
            Ok(written) => println!(
                "exported {} detection data files to {}",
                written.len(),
                dir.display()
            ),
            Err(e) => {
                eprintln!("detection export to {} failed: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }

    println!("\n(campaign ran in {elapsed:.2?} at scale '{scale}', seed {seed})");
    if let Err(msg) = cgn_study::check_gates(&report) {
        eprintln!("detection quality gate FAILED: {msg}");
        std::process::exit(1);
    }
    println!(
        "quality gates passed: CGN precision {:.3} ≥ {} | CGN recall {:.3} ≥ {}",
        report.cgn_precision,
        cgn_study::GATE_CGN_PRECISION,
        report.cgn_recall,
        cgn_study::GATE_CGN_RECALL
    );
}

/// The `--metrics` mode's artifacts: `BENCH_metrics.json` (windowed
/// aggregates) and the Prometheus text exposition
/// `BENCH_metrics.prom`, built from the metrics-enabled dimensioning
/// run the study just performed. The live per-window table is part of
/// the rendered report already.
fn write_metrics_artifacts(dimensioning: Option<&cgn_study::DimensioningReport>) {
    let Some(dim) = dimensioning else {
        eprintln!("--metrics given but the study produced no dimensioning report");
        std::process::exit(1);
    };
    let Some(artifact) = MetricsReport::from_dimensioning(dim) else {
        eprintln!("--metrics given but the dimensioning runs carried no metrics");
        std::process::exit(1);
    };
    let json = serde_json::to_string_pretty(&artifact).expect("metrics serializes");
    if let Err(e) = std::fs::write("BENCH_metrics.json", json) {
        eprintln!("writing BENCH_metrics.json failed: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote BENCH_metrics.json (snapshot digest {})",
        artifact.metrics.snapshot_digest
    );
    if let Err(e) = std::fs::write("BENCH_metrics.prom", artifact.metrics.exposition()) {
        eprintln!("writing BENCH_metrics.prom failed: {e}");
        std::process::exit(1);
    }
    println!("wrote BENCH_metrics.prom");
}

/// The `--trace-out` leg: re-run the dimensioning sweep's reference
/// mix with the flight recorder on (1-in-`sample` flow sampling) and
/// write the merged dump as Chrome-trace JSON. A separate run keeps
/// the sweep itself on the zero-cost path; the dump is sim-time
/// deterministic, so re-running changes nothing but wall time.
fn write_trace_artifact(dim: &cgn_study::DimensioningConfig, path: &std::path::Path, sample: u32) {
    let mix = dim.mixes.first().cloned().unwrap_or_else(|| {
        eprintln!("--trace-out needs at least one workload mix in the dimensioning config");
        std::process::exit(1);
    });
    let mut config = dim.driver_config(mix);
    config.trace = cgn_traffic::TraceConfig::sampled(sample.max(1));
    let t0 = std::time::Instant::now();
    let mut session = cgn_traffic::DriverSession::new(&config);
    while session.step().is_some() {}
    let dump = session
        .trace_dump()
        .expect("tracer installed for the traced leg");
    let json = cgn_trace::chrome_trace_json(&dump);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("writing {} failed: {e}", path.display());
        std::process::exit(1);
    }
    println!(
        "wrote {} ({} events from {} sampled flows, 1-in-{} sampling, \
         {} evicted; traced leg took {:.2?})",
        path.display(),
        dump.events.len(),
        dump.sampled_flows,
        dump.sample_one_in,
        dump.evicted,
        t0.elapsed()
    );
}

/// The `top` mode: a live dashboard over a running soak's scrape
/// endpoint. Pure client — everything rendered comes from `/metrics`
/// and `/healthz`, so it attaches to any cgn-opsd session.
fn run_top_mode(args: Vec<String>) {
    let mut addr: Option<String> = None;
    let mut interval_secs: f64 = 2.0;
    let mut iterations: u64 = 0;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if let Some(v) = arg.strip_prefix("--interval=") {
            interval_secs = v.parse().expect("--interval must be seconds");
        } else if arg == "--interval" {
            let v = it.next().expect("--interval needs seconds");
            interval_secs = v.parse().expect("--interval must be seconds");
        } else if let Some(v) = arg.strip_prefix("--iterations=") {
            iterations = v.parse().expect("--iterations must be an integer");
        } else if arg == "--iterations" {
            let v = it.next().expect("--iterations needs a count");
            iterations = v.parse().expect("--iterations must be an integer");
        } else if addr.is_none() {
            addr = Some(arg);
        } else {
            eprintln!(
                "unexpected argument '{arg}' (usage: top ADDR [--interval=S] [--iterations=N])"
            );
            std::process::exit(2);
        }
    }
    let Some(addr) = addr else {
        eprintln!("top needs the scrape address of a running soak (e.g. 127.0.0.1:9321)");
        std::process::exit(2);
    };

    use std::io::Write as _;
    let mut prev = std::collections::BTreeMap::new();
    let mut frames = 0u64;
    loop {
        let body = match cgn_opsd::scrape(&addr, "/metrics") {
            Ok(b) => b,
            Err(e) => {
                eprintln!("scraping {addr}/metrics failed: {e}");
                std::process::exit(1);
            }
        };
        let cur = cgn_opsd::parse_scalars(&body);
        let header = match cgn_opsd::scrape(&addr, "/healthz")
            .ok()
            .and_then(|h| serde_json::from_str::<cgn_traffic::SessionHealth>(&h).ok())
        {
            Some(h) => format!(
                "cgn top \u{2014} {addr}  sim {}s/{}s  slots {} ({} free)",
                h.now_secs, h.horizon_secs, h.store.slots, h.store.free
            ),
            None => format!("cgn top \u{2014} {addr}"),
        };
        let text = cgn_trace::top::render_top(&header, &prev, &cur, interval_secs);
        print!("{}{}", cgn_trace::top::CLEAR, text);
        std::io::stdout().flush().ok();
        prev = cur;
        frames += 1;
        if iterations > 0 && frames >= iterations {
            return;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(
            interval_secs.clamp(0.1, 3600.0),
        ));
    }
}
