//! Pins the JSON record of every `figures` entry.
//!
//! `tests/golden/<name>.json` are the files the per-figure binaries of the
//! commit before the registry wrote at `GRAPHM_SCALE=1024 GRAPHM_JOBS=16
//! GRAPHM_SEED=42` — one binary per file, each recomputing everything it
//! needed. The registry must reproduce them byte for byte however its
//! shared context was filled, and so must any later change to the runner
//! or the service the figures replay through. Regenerate a file (`figures
//! <name>` at those knobs, copy from `target/graphm-results/`) only for a
//! change that means to move the paper's numbers.

use graphm_bench::{find, Ctx, Params, REGISTRY};
use serde_json::Value;
use std::path::{Path, PathBuf};

const PARAMS: Params = Params { scale: 1024, jobs: 16, seed: 42 };

/// The one entry with wall-clock columns.
const TIMED: &str = "tab03_preprocessing";
const TIMED_COLUMNS: [&str; 2] = ["convert_ms", "with_graphm_ms"];

/// The entries that read the §5.3 sweep or its `-M` leg.
const SWEEP_READERS: [&str; 8] = [
    "fig09_total_time",
    "fig10_breakdown",
    "fig11_memory",
    "fig12_io",
    "fig13_llc_missrate",
    "fig14_llc_volume",
    "fig18_scheduling",
    "ablate_sync",
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(golden_dir().join(format!("{name}.json"))).expect("golden file")
}

/// Runs an entry and renders its record the way `figures` saves it.
fn record(name: &str, ctx: &mut Ctx) -> String {
    let entry = find(name).expect("registered entry");
    format!("{}\n", serde_json::to_string_pretty(&(entry.run)(ctx)).unwrap())
}

/// A Table-3 record with its wall-clock cells checked to be numbers and
/// blanked, so two runs compare on keys, rows and the other columns.
fn without_timings(json: &str) -> Value {
    let mut record = serde_json::from_str(json).expect("valid JSON");
    let Value::Object(top) = &mut record else { panic!("record is an object") };
    let Some(Value::Array(rows)) = top.get_mut("rows") else { panic!("record has rows") };
    for row in rows {
        let Value::Object(cells) = row else { panic!("row is an object") };
        for column in TIMED_COLUMNS {
            let cell = cells.get_mut(column).expect("timed column present");
            assert!(cell.as_f64().is_some_and(|ms| ms > 0.0), "{column} is a duration");
            *cell = Value::Null;
        }
    }
    record
}

#[test]
fn registry_lists_the_parent_bins() {
    let mut files: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden dir")
        .map(|f| f.unwrap().file_name().to_string_lossy().trim_end_matches(".json").to_string())
        .collect();
    files.sort();
    assert_eq!(files.len(), 21);
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(names, files);
}

/// `figures all`: every record identical to the parent's, off one sweep.
#[test]
fn all_entries_reproduce_the_golden_records_off_one_sweep() {
    let mut ctx = Ctx::new(PARAMS);
    for entry in REGISTRY {
        let got = record(entry.name, &mut ctx);
        if entry.name == TIMED {
            assert_eq!(without_timings(&got), without_timings(&golden(TIMED)));
        } else {
            assert!(got == golden(entry.name), "{} drifted from its golden record", entry.name);
        }
    }
    assert_eq!(ctx.sweeps, 1, "Figures 9-14 share one sweep");
}

/// Each reader of the sweep on a context of its own gives the bytes it
/// gives after `all` filled the context (both equal the golden record).
#[test]
fn sweep_readers_alone_match_their_records_after_all() {
    for name in SWEEP_READERS {
        let mut ctx = Ctx::new(PARAMS);
        assert!(record(name, &mut ctx) == golden(name), "{name} alone drifted");
    }
}
