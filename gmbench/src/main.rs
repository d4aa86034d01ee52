//! `gmbench` — GraphM's benchmark: four socket-level workloads, their
//! end-to-end metrics, and a per-crate ladder. See `README.md`.
//!
//! ```text
//! gmbench --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! gmbench run   [--seed N] [--seconds S] [--repeat K] [--out F]   all workloads, tracing off
//! gmbench trace [--seed N] [--seconds S] [--pairs K] [--out F]   the ladder + K untraced/traced pairs a workload
//! gmbench check A.json B.json   compare two `run` files
//! gmbench pass --workload W [--seed N] [--seconds S] [--trace 0|1] [--out F]   one workload, no ladder (what `run` and `trace` start as children)
//! ```

mod check;
mod inputs;
mod ladder;
mod plan;
mod report;
mod serve;
#[cfg(test)]
mod tests;
mod workloads;

use plan::{reported_on, Scale, Workload, DRIVER_END_TO_END};
use report::{git_rev, median, metrics_to_json, nproc, Metrics, Record};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Run;

/// Seconds one run measures; the same number as `run_seconds` in
/// `BENCHMARK.json` (the issue's 30 s windows shrunk by one factor, ⅔,
/// to fit that contract's time budget).
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 42;
/// On the repository's filesystem — never `/tmp`, which may be tmpfs.
const DEFAULT_DIR: &str = "target/gmbench";
/// Untraced / traced pairs `trace` runs of every workload.
const DEFAULT_PAIRS: usize = 3;

struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.number("seconds", DEFAULT_SECONDS)?;
        if s.is_finite() && s > 0.0 && s <= 600.0 {
            Ok(s)
        } else {
            Err(format!("--seconds: {s} is not a duration this benchmark measures"))
        }
    }

    fn dir(&self) -> PathBuf {
        PathBuf::from(self.get("dir").unwrap_or(DEFAULT_DIR))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("run") => Args::parse(&raw[1..]).and_then(|a| run_all(&a)),
        Some("trace") => Args::parse(&raw[1..]).and_then(|a| trace_all(&a)),
        Some("check") => Args::parse(&raw[1..]).and_then(|a| check::command(&a.positional)),
        Some("pass") => Args::parse(&raw[1..]).and_then(|a| pass(&a).map(|_| true)),
        Some(first) if first.starts_with("--") => Args::parse(&raw).and_then(|a| one_run(&a)),
        _ => Err("usage: gmbench --workload W --seed N --seconds S --trace 0|1 \
                  | run | trace | check A.json B.json | pass --workload W"
            .to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gmbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, m) in metrics {
        println!("  {name:<34} {:>16.4} {:<9} n={}", m.value, m.unit, m.samples);
    }
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// `gmbench pass`: one workload, measured, checked, printed and (with
/// `--out`) written down.
fn pass(args: &Args) -> Result<Record, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.seconds()?;
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let dir = args.dir().join(format!("{name}-s{seed}-{}", std::process::id()));
    let run = Run { workload, scale: &Scale::FULL, seed, seconds, traced, dir: &dir };
    let record = run.execute()?;

    println!(
        "{name}: seed {seed}, {seconds} s, tracing {}, {} vertices / {} edges",
        if traced { "on" } else { "off" },
        record.info.get("vertices").map_or(Value::Null, Value::clone),
        record.info.get("edges").map_or(Value::Null, Value::clone),
    );
    print_metrics("end to end:", &record.metrics);
    if traced {
        print_metrics("per layer (this workload's traced window):", &record.layers);
    }
    for e in &record.errors {
        println!("  failure: {e}");
    }
    if let Some(out) = args.get("out") {
        write_json(Path::new(out), &record.to_json())?;
    }
    Ok(record)
}

/// `--workload W --seed N --seconds S --trace 0|1`, the `BENCHMARK.json`
/// command: a pass, after a traced one the ladder, and the result
/// object as the last line of standard output.
fn one_run(args: &Args) -> Result<bool, String> {
    let record = pass(args)?;
    let shown: Metrics = if record.traced {
        let ladder_dir = args.dir().join(format!("ladder-{}", std::process::id()));
        let rungs = ladder::run(&Scale::FULL, record.seed, &ladder_dir)?;
        print_metrics("per layer (ladder, median per rung):", &rungs);
        record.layers.iter().chain(&rungs).map(|(k, m)| (k.clone(), m.clone())).collect()
    } else {
        let mut shown = Metrics::new();
        for metric in DRIVER_END_TO_END {
            let m = record
                .metrics
                .get(metric)
                .ok_or(format!("{} produced no {metric}", record.workload))?;
            shown.insert(metric.to_string(), m.clone());
        }
        shown
    };
    let result = json!({
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics_to_json(&shown, false),
    });
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(true)
}

/// Runs one workload in a fresh child process and reads its record back.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    root: &Path,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    let out = root.join(format!("record-{}-{}.json", workload.name(), std::process::id()));
    let child = Command::new(exe)
        .args(["pass", "--workload", workload.name()])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(root)
        .arg("--out")
        .arg(&out)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    if !child.status.success() {
        return Err(format!(
            "the {} run failed ({}):\n{}",
            workload.name(),
            child.status,
            String::from_utf8_lossy(&child.stderr)
        ));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    std::fs::remove_file(&out).ok();
    Record::from_json(&serde_json::from_str(&text).map_err(|e| e.to_string())?)
}

/// The metrics `run` reports for a record's workload, in table order.
fn reported(record: &Record) -> Vec<(&'static str, &report::Metric)> {
    reported_on(&record.workload)
        .filter_map(|d| record.metrics.get(d.name).map(|m| (d.name, m)))
        .collect()
}

fn print_record(record: &Record) {
    println!("{} (seed {}, {} s measured):", record.workload, record.seed, record.seconds);
    for (name, m) in reported(record) {
        println!("  {name:<22} {:>14.4} {:<6} n={}", m.value, m.unit, m.samples);
    }
    for e in &record.errors {
        println!("  failure: {e}");
    }
}

fn header(seed: u64, seconds: f64) -> serde_json::Map {
    let mut map = serde_json::Map::new();
    map.insert("git_rev".into(), json!(git_rev()));
    map.insert("nproc".into(), json!(nproc()));
    map.insert("seed".into(), json!(seed));
    map.insert("seconds".into(), json!(seconds));
    map
}

/// `gmbench run`: the four workloads with tracing off, each in a fresh
/// child process, `--repeat` times over.
fn run_all(args: &Args) -> Result<bool, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.seconds()?;
    let repeat: usize = args.number("repeat", 1)?;
    let root = args.dir();
    let mut records = Vec::new();
    for _ in 0..repeat.max(1) {
        for workload in Workload::ALL {
            let record = child_run(workload, seed, seconds, false, &root)?;
            print_record(&record);
            records.push(record);
        }
    }
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    if let Some(out) = args.get("out") {
        let mut file = header(seed, seconds);
        file.insert("repeat".into(), json!(repeat.max(1)));
        file.insert("runs".into(), Value::Array(records.iter().map(Record::to_json).collect()));
        write_json(Path::new(out), &Value::Object(file))?;
    }
    if failed > 0 {
        println!("{failed} operations failed");
    }
    Ok(failed == 0)
}

/// `gmbench trace`: the ladder, then `--pairs` untraced / traced pairs of
/// every workload, back to back; the median difference in `jobs_per_s`
/// over the pairs is the tracing overhead.
fn trace_all(args: &Args) -> Result<bool, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.seconds()?;
    let pairs: usize = args.number("pairs", DEFAULT_PAIRS)?;
    let root = args.dir();
    let ladder_dir = root.join(format!("ladder-{}", std::process::id()));
    let rungs = ladder::run(&Scale::FULL, seed, &ladder_dir)?;
    print_metrics("ladder (median per rung):", &rungs);

    let mut file = header(seed, seconds);
    file.insert("ladder".into(), metrics_to_json(&rungs, true));
    let mut passes = Vec::new();
    let mut overhead = serde_json::Map::new();
    let mut failed = 0;
    let rate = |r: &Record| r.metrics.get("jobs_per_s").map_or(f64::NAN, |m| m.value);
    for workload in Workload::ALL {
        let mut shares = Vec::new();
        for _ in 0..pairs.max(1) {
            let plain = child_run(workload, seed, seconds, false, &root)?;
            let traced = child_run(workload, seed, seconds, true, &root)?;
            failed += plain.failed + traced.failed;
            shares.push((rate(&plain) - rate(&traced)) / rate(&plain));
            print_metrics(&format!("{} (traced pass):", workload.name()), &traced.layers);
            println!(
                "  jobs_per_s {:.4} untraced, {:.4} traced ({:+.2} % of untraced)",
                rate(&plain),
                rate(&traced),
                shares[shares.len() - 1] * 100.0
            );
            passes.push(plain.to_json());
            passes.push(traced.to_json());
        }
        let share = median(&shares);
        println!(
            "{}: tracing overhead {:+.2} % of jobs_per_s (median of {} pairs)",
            workload.name(),
            share * 100.0,
            shares.len()
        );
        overhead.insert(
            workload.name().into(),
            json!({ "overhead_share": share, "overhead_share_per_pair": shares }),
        );
    }
    file.insert("tracing_overhead".into(), Value::Object(overhead));
    file.insert("runs".into(), Value::Array(passes));
    if let Some(out) = args.get("out") {
        write_json(Path::new(out), &Value::Object(file))?;
    }
    Ok(failed == 0)
}
