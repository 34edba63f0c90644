//! `all`: one complete set of runs. Every workload runs in a process
//! of its own (so peak memory and kernel time are that workload's),
//! one after the other, first with tracing off for the end-to-end
//! metrics, then traced for the per-layer ones. The set is printed as
//! one JSON document on standard output and written to
//! `benchmark/out/results-<set>.json`; a table goes to standard error.

use crate::json::{as_f64, as_str, entries, field};
use crate::spec::spec;
use crate::Cli;
use serde_json::Value;
use std::process::{Command, ExitCode, Stdio};

pub const SCHEMA: &str = "cgn-benchmark-set/1";

/// Run one workload in a child process; its detail and result objects.
fn child(cli: &Cli, workload: &str, traced: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(steps) = cli.steps {
        cmd.args(["--steps", &steps.to_string()]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let mut object = |what: &str| -> Result<Value, String> {
        let line = lines
            .next()
            .ok_or(format!("{workload} printed no {what}"))?;
        serde_json::from_str(line).map_err(|e| format!("{workload}: bad {what}: {e}"))
    };
    let result = object("result")?;
    let detail = object("detail")?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {traced}) exited with {}",
            output.status
        ));
    }
    Ok((detail, result))
}

fn print_metrics(title: &str, metrics: &Value) {
    eprintln!("  {title}");
    for (name, m) in entries(metrics) {
        let value = field(m, "value").and_then(as_f64).unwrap_or(f64::NAN);
        let unit = field(m, "unit").and_then(as_str).unwrap_or("?");
        eprintln!("    {name:<34} {value:>16.6} {unit}");
    }
}

pub fn run(cli: &Cli) -> ExitCode {
    let mut failed = false;
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for traced in [false, true] {
        for (i, workload) in spec().workloads.iter().enumerate() {
            eprintln!("== {workload} (trace {})", traced as u8);
            let (detail, result) = match child(cli, workload, traced) {
                Ok(objects) => objects,
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                    continue;
                }
            };
            let metrics = field(&result, "metrics").cloned().unwrap_or(Value::Null);
            if traced {
                print_metrics("per layer", &metrics);
                if let Some((_, Value::Map(entry))) = workloads.get_mut(i) {
                    entry.push(("per_layer".into(), metrics));
                }
            } else {
                print_metrics("end to end", &metrics);
                let mut entry = match result {
                    Value::Map(entry) => entry,
                    _ => Vec::new(),
                };
                entry.retain(|(k, _)| k != "metrics");
                entry.extend(entries(&detail).iter().cloned());
                entry.push(("end_to_end".into(), metrics));
                workloads.push((workload.clone(), Value::Map(entry)));
            }
        }
        if failed {
            // Without every untraced result the set is not one.
            break;
        }
    }

    let doc = Value::Map(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        ("set".into(), Value::Str(cli.set.clone())),
        ("seed".into(), Value::U64(cli.seed)),
        ("seconds".into(), Value::F64(cli.seconds)),
        ("steps".into(), cli.steps.map_or(Value::Null, Value::U64)),
        ("smoke".into(), Value::Bool(cli.smoke)),
        ("workloads".into(), Value::Map(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("set renders");
    println!("{text}");
    let path = crate::out_dir().join(format!("results-{}.json", cli.set));
    match std::fs::create_dir_all(crate::out_dir()).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
