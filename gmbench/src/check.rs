//! `gmbench check A.json B.json`: per (workload, metric) row, both
//! medians, the ratio with its base, and `ok` / `worse` / `unresolved`
//! against the metric's bound. This is the ROADMAP's `bench-diff`.

use crate::plan::{reported_on, Better, BENCHMARK_JSON, END_TO_END};
use crate::report::{median, quartile_spread, Record};
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared (workload, metric).
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: String,
    pub base: f64,
    pub change: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Every run of `file`, grouped by workload.
pub fn load_runs(path: &str) -> Result<BTreeMap<String, Vec<Record>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = file
        .get("runs")
        .and_then(Value::as_array)
        .ok_or(format!("{path}: not a `gmbench run --out` file (no \"runs\")"))?;
    let mut by_workload: BTreeMap<String, Vec<Record>> = BTreeMap::new();
    for run in runs {
        let record = Record::from_json(run).map_err(|e| format!("{path}: {e}"))?;
        if !record.traced {
            by_workload.entry(record.workload.clone()).or_default().push(record);
        }
    }
    Ok(by_workload)
}

/// Every metric's bound, each from the one place that holds it:
/// `BENCHMARK.json` (as built into this binary) for the metrics it
/// lists, the table in `plan` for the rest. A metric bounded in both, or
/// in neither, is an error.
pub fn bounds() -> Result<BTreeMap<&'static str, f64>, String> {
    let file = serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed: BTreeMap<&str, f64> = file
        .get("end_to_end")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(|e| Some((e.get("name")?.as_str()?, e.get("bound")?.as_f64()?)))
        .collect();
    let mut out = BTreeMap::new();
    for def in &END_TO_END {
        let bound = match (def.bound, listed.get(def.name)) {
            (Some(own), None) => own,
            (None, Some(&listed)) => listed,
            (Some(_), Some(_)) => return Err(format!("{} has two bounds", def.name)),
            (None, None) => return Err(format!("{} has no bound", def.name)),
        };
        out.insert(def.name, bound);
    }
    match listed.keys().find(|name| !out.contains_key(*name)) {
        Some(unknown) => Err(format!("BENCHMARK.json bounds {unknown}, which nothing reports")),
        None => Ok(out),
    }
}

/// The verdict for one metric given each side's runs.
///
/// Where either side's own spread (quartile distance over median) is
/// wider than the bound, a difference cannot be told from noise: the row
/// is `unresolved`, unless every run of the change reads better than
/// every run of the base.
pub fn judge(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (a, b) = (median(base), median(change));
    let worse_by = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    let spread =
        quartile_spread(base).into_iter().chain(quartile_spread(change)).fold(0.0, f64::max);
    if spread > bound && bound > 0.0 {
        let dominates = change.iter().all(|&c| {
            base.iter().all(|&p| match better {
                Better::Higher => c > p,
                Better::Lower => c < p,
            })
        });
        return if dominates { Verdict::Ok } else { Verdict::Unresolved };
    }
    if worse_by > bound * a.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn compare(
    base: &BTreeMap<String, Vec<Record>>,
    change: &BTreeMap<String, Vec<Record>>,
    bounds: &BTreeMap<&'static str, f64>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, base_runs) in base {
        let Some(change_runs) = change.get(workload) else { continue };
        for def in reported_on(workload) {
            let values = |runs: &[Record]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metrics.get(def.name)).map(|m| m.value).collect()
            };
            let (a, b) = (values(base_runs), values(change_runs));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let bound = bounds[def.name];
            let unit = base_runs
                .iter()
                .find_map(|r| r.metrics.get(def.name))
                .map_or(def.unit.to_string(), |m| m.unit.clone());
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                unit,
                base: median(&a),
                change: median(&b),
                bound,
                verdict: judge(&a, &b, def.better, bound),
            });
        }
    }
    rows
}

pub fn command(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else { return Err("usage: gmbench check A.json B.json".to_string()) };
    let rows = compare(&load_runs(a)?, &load_runs(b)?, &bounds()?);
    if rows.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    println!(
        "{:<13} {:<21} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B / A", "bound"
    );
    for r in &rows {
        let ratio = if r.base != 0.0 {
            format!("{:.3} (of {:.4} {})", r.change / r.base, r.base, r.unit)
        } else {
            "-".to_string()
        };
        println!(
            "{:<13} {:<21} {:>14.4} {:>14.4} {:>22} {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.change,
            ratio,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count();
    println!("{} rows: {worse} worse, {unresolved} unresolved", rows.len());
    Ok(worse == 0)
}
