//! Result records: what one workload run measured, how it is written
//! down, and the summary statistics `check` compares.

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    /// How many timings (or counted events) the value summarises.
    pub samples: usize,
}

pub type Metrics = BTreeMap<String, Metric>;

pub fn put(metrics: &mut Metrics, name: &str, unit: &str, value: f64, samples: usize) {
    metrics.insert(name.to_string(), Metric { value, unit: unit.to_string(), samples });
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Submits, waits, commits and verifications tried …
    pub attempted: u64,
    /// … and how many of them failed (error report, refusal, mismatch).
    pub failed: u64,
    /// The first few failure messages, for the human reading the output.
    pub errors: Vec<String>,
    /// End-to-end metrics.
    pub metrics: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// The run record: input sizes, window counts and lengths, lateness.
    pub info: Map,
}

impl Record {
    pub fn to_json(&self) -> Value {
        json!({
            "workload": self.workload.as_str(),
            "seed": self.seed,
            "seconds": self.seconds,
            "traced": self.traced,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors.clone(),
            "metrics": metrics_to_json(&self.metrics, true),
            "layers": metrics_to_json(&self.layers, true),
            "info": Value::Object(self.info.clone()),
        })
    }

    pub fn from_json(v: &Value) -> Result<Record, String> {
        let text = |k: &str| {
            v.get(k).and_then(Value::as_str).map(str::to_string).ok_or(format!("record lacks {k}"))
        };
        let num = |k: &str| v.get(k).and_then(Value::as_f64).ok_or(format!("record lacks {k}"));
        Ok(Record {
            workload: text("workload")?,
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            traced: v.get("traced").and_then(Value::as_bool).unwrap_or(false),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            errors: v
                .get("errors")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_str).map(str::to_string).collect())
                .unwrap_or_default(),
            metrics: metrics_from_json(v.get("metrics"))?,
            layers: metrics_from_json(v.get("layers"))?,
            info: v.get("info").and_then(Value::as_object).cloned().unwrap_or_default(),
        })
    }
}

/// `{name: {value, unit[, samples]}}`.
pub fn metrics_to_json(metrics: &Metrics, with_samples: bool) -> Value {
    let mut map = Map::new();
    for (name, m) in metrics {
        let mut entry = json!({ "value": m.value, "unit": m.unit.as_str() });
        if let (true, Value::Object(fields)) = (with_samples, &mut entry) {
            fields.insert("samples".to_string(), json!(m.samples));
        }
        map.insert(name.clone(), entry);
    }
    Value::Object(map)
}

pub fn metrics_from_json(v: Option<&Value>) -> Result<Metrics, String> {
    let mut out = Metrics::new();
    let Some(map) = v.and_then(Value::as_object) else { return Ok(out) };
    for (name, entry) in map {
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .ok_or(format!("metric {name} has no numeric value"))?;
        let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("").to_string();
        let samples = entry.get("samples").and_then(Value::as_u64).unwrap_or(1) as usize;
        out.insert(name.clone(), Metric { value, unit, samples });
    }
    Ok(out)
}

/// Nearest-rank percentile of an unsorted sample (`p` in `0..=1`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the midpoint rule for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the bounds are confirmed against. Quartiles as
/// Python's `statistics.quantiles(values, n=4)` gives them (exclusive
/// method). `None` for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quantile = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - j as f64).clamp(0.0, 1.0);
        sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
    };
    let mid = median(&sorted);
    (mid != 0.0).then(|| (quantile(3) - quantile(1)) / mid.abs())
}

/// Resident set size of this process in MB, from `/proc/self/status`.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the numbers belong to (`unknown` outside a git checkout).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
