//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cgn-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! cgn-benchmark all [--seed N] [--seconds S] [--set NAME]          every workload, untraced then traced
//! cgn-benchmark compare A.json B.json                              two result sets against the bounds
//! ```
//!
//! A single run prints its digest and exact counts as the second-last
//! line of its standard output and the result object as the last;
//! everything else goes to standard error.

mod compare;
mod driver;
mod json;
mod os;
mod replay;
mod run;
mod set;
mod soak;
mod spec;
mod study;
mod trace;

use run::{Outcome, RunArgs};
use serde_json::Value;
use spec::spec;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where traces, result sets and the soak's event logs go, relative to
/// the directory the benchmark is run from (the root of the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

pub fn write_trace(args: &RunArgs, rec: &trace::Recorder) {
    let run = format!(
        "{} seed={} pid={}",
        args.workload,
        args.seed,
        std::process::id()
    );
    let path = out_dir().join(format!("trace-{}.json", args.workload));
    let text = serde_json::to_string(&rec.to_json(&run)).expect("trace renders");
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, text)) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cgn-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--steps N] [--smoke]\n\
         \x20      cgn-benchmark all [--seed N] [--seconds S] [--steps N] [--smoke] [--set NAME]\n\
         \x20      cgn-benchmark compare A.json B.json",
        spec().workloads.join("|")
    );
    ExitCode::from(2)
}

/// Options shared by a single run and a set.
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub steps: Option<u64>,
    pub smoke: bool,
    pub set: String,
}

fn parse(args: &[String]) -> Option<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 2016,
        seconds: 10.0,
        traced: false,
        steps: None,
        smoke: false,
        set: "latest".to_string(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => cli.smoke = true,
            "--workload" => cli.workload = Some(it.next()?.clone()),
            "--seed" => cli.seed = it.next()?.parse().ok()?,
            "--seconds" => cli.seconds = it.next()?.parse().ok().filter(|s| *s > 0.0)?,
            "--trace" => cli.traced = it.next()?.parse::<u8>().ok().filter(|t| *t <= 1)? == 1,
            "--steps" => cli.steps = Some(it.next()?.parse().ok().filter(|s| *s > 0)?),
            "--set" => cli.set = it.next()?.clone(),
            _ => return None,
        }
    }
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    name_ok(&cli.set).then_some(cli)
}

fn run_workload(args: &RunArgs) -> Outcome {
    match args.workload.as_str() {
        "driver-steady" => driver::run(args),
        "replay-hit" => replay::run_hit(args),
        "replay-churn" => replay::run_churn(args),
        "soak-observed" => soak::run(args),
        "study-pipeline" => study::run(args),
        other => unreachable!("workload {other} was validated"),
    }
}

/// What the kernel charged the whole process: one workload runs per
/// process, so these are the workload's figures.
fn process_layers(outcome: &mut Outcome) {
    let cpu = os::CpuTimes::now();
    outcome.layer("os.sys_cpu_s", cpu.sys_s);
    outcome.layer(
        "os.sys_cpu_share",
        cpu.sys_s / (cpu.user_s + cpu.sys_s).max(1e-9),
    );
    outcome.layer("os.minor_faults", cpu.minor_faults as f64);
    let nats = outcome.layers.get("nat.instances").copied().unwrap_or(0.0);
    outcome.layer("store.rss_mib_per_nat", os::peak_rss_mib() / nats.max(1.0));
}

/// The result object of one run: the contract's four keys.
fn result_json(args: &RunArgs, outcome: &Outcome) -> Value {
    let metric = |value: f64, unit: &str| {
        Value::Map(vec![
            ("value".into(), Value::F64(value)),
            ("unit".into(), Value::Str(unit.into())),
        ])
    };
    let declared = if args.traced {
        &spec().per_layer
    } else {
        &spec().end_to_end
    };
    let metrics = declared
        .iter()
        .map(|m| {
            let value = if args.traced {
                outcome.layers.get(m.name.as_str()).copied().unwrap_or(0.0)
            } else {
                match m.name.as_str() {
                    "setup_s" => outcome.setup_s,
                    "flows_per_s" => outcome.flows_per_s,
                    "packets_per_s" => outcome.packets_per_s,
                    "peak_rss_mib" => os::peak_rss_mib(),
                    "delivered_share" => outcome.delivered_share,
                    other => unreachable!("BENCHMARK.json names an end-to-end metric {other} the benchmark does not measure"),
                }
            };
            (m.name.clone(), metric(value, &m.unit))
        })
        .collect();
    Value::Map(vec![
        ("correct".into(), Value::Bool(outcome.failures.is_empty())),
        ("attempted".into(), Value::U64(outcome.attempted.max(1))),
        ("failed".into(), Value::U64(outcome.failures.len() as u64)),
        ("metrics".into(), Value::Map(metrics)),
    ])
}

/// The run's fingerprint and exact counts, which `compare` holds two
/// sets of the same seed and step count to.
fn detail_json(outcome: &Outcome) -> Value {
    let counts = outcome
        .counts
        .iter()
        .map(|(k, v)| (k.to_string(), Value::U64(*v)))
        .collect();
    Value::Map(vec![
        (
            "digest".into(),
            Value::Str(format!("{:016x}", outcome.digest)),
        ),
        ("counts".into(), Value::Map(counts)),
    ])
}

fn single(cli: Cli) -> ExitCode {
    let Some(workload) = cli.workload.filter(|w| spec().workloads.contains(w)) else {
        return usage();
    };
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        steps: cli.steps,
        smoke: cli.smoke,
    };
    let mut outcome = run_workload(&args);
    if args.traced {
        process_layers(&mut outcome);
    }
    for failure in &outcome.failures {
        eprintln!("{}: output check failed: {failure}", args.workload);
    }
    let render = |v: Value| serde_json::to_string(&v).expect("result renders");
    println!("{}", render(detail_json(&outcome)));
    println!("{}", render(result_json(&args, &outcome)));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("all") => match parse(&args[1..]) {
            Some(cli) if cli.workload.is_none() => set::run(&cli),
            _ => usage(),
        },
        Some(_) => match parse(&args) {
            Some(cli) => single(cli),
            None => usage(),
        },
        None => usage(),
    }
}
