//! Smoke test: every workload and the ladder on scaled-down inputs, and
//! `BENCHMARK.json` held against the tables in `plan`.

use crate::check::{compare, judge, Verdict};
use crate::inputs::{graph, model_graph, Mutations};
use crate::plan::{
    Better, GraphSize, Scale, Workload, BENCHMARK_JSON, DRIVER_END_TO_END, END_TO_END, LADDER,
    SERVER_COUNTS,
};
use crate::report::{quartile_spread, Record};
use crate::workloads::Run;
use crate::{check, ladder};
use graphm_graph::delta::apply_delta_to_edge_list;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join(format!("gmbench-test-{name}-{}", std::process::id()))
}

fn well_named(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn smoke_run(workload: Workload, traced: bool, dir: &Path) -> Record {
    let scale = Scale::smoke();
    let run = Run { workload, scale: &scale, seed: 7, seconds: 1.0, traced, dir };
    let record = run.execute().expect("the smoke run completes");
    assert_eq!(record.failed, 0, "{}: {:?}", workload.name(), record.errors);
    assert!(record.attempted > 0);
    record
}

#[test]
fn every_workload_emits_its_metrics_and_checks_clean_against_itself() {
    let dir = scratch("workloads");
    let mut runs: BTreeMap<String, Vec<Record>> = BTreeMap::new();
    for workload in Workload::ALL {
        let record = smoke_run(workload, false, &dir.join(workload.name()));
        for def in END_TO_END.iter().filter(|d| d.on.contains(&workload)) {
            let m = record
                .metrics
                .get(def.name)
                .unwrap_or_else(|| panic!("{} lacks {}", workload.name(), def.name));
            assert!(m.value.is_finite(), "{} {} = {}", workload.name(), def.name, m.value);
            assert_eq!(m.unit, def.unit);
            assert!(m.samples > 0 && well_named(def.name));
        }
        for name in DRIVER_END_TO_END {
            let m = &record.metrics[name];
            assert!(m.value > 0.0, "{} {name} must never be zero", workload.name());
        }
        assert!(record.layers.is_empty(), "an untraced run carries no layer metrics");
        assert_eq!(record.info["vertices"], Value::Number(512.0));
        let again = Record::from_json(&record.to_json()).expect("a record reads back");
        assert_eq!(again.metrics, record.metrics);
        runs.entry(record.workload.clone()).or_default().push(record);
    }
    let rows = compare(&runs, &runs, &check::bounds().expect("every metric has one bound"));
    let expected: usize = END_TO_END.iter().map(|d| d.on.len()).sum();
    assert_eq!(rows.len(), expected, "one row per (workload, metric) the tables list");
    assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_run_and_ladder_emit_every_layer_metric() {
    let dir = scratch("layers");
    let record = smoke_run(Workload::IngestServe, true, &dir.join("traced"));
    for (name, unit) in SERVER_COUNTS {
        let m = record.layers.get(name).unwrap_or_else(|| panic!("traced run lacks {name}"));
        assert!(m.value.is_finite() && m.unit == unit && well_named(name));
    }
    assert!(record.layers["server.wal_syncs_per_commit"].value > 0.0);
    assert!(record.layers["server.jobs_per_round"].value > 0.0);
    let trace_file = record.info["trace_file"].as_str().expect("a traced run names its trace");
    let trace = serde_json::from_str(&std::fs::read_to_string(trace_file).expect("trace exists"))
        .expect("the trace is JSON");
    let spans = trace.get("spans").and_then(Value::as_array).expect("spans");
    for name in ["window", "submit", "wait", "ingest", "ingest_commit"] {
        assert!(spans.iter().any(|s| s.get("name").and_then(Value::as_str) == Some(name)));
    }
    assert!(!trace.get("snapshots").and_then(Value::as_array).expect("snapshots").is_empty());

    let rungs = ladder::run(&Scale::smoke(), 7, &dir.join("ladder")).expect("ladder runs");
    assert_eq!(rungs.len(), LADDER.len());
    for (name, unit, _) in LADDER {
        let m = rungs.get(name).unwrap_or_else(|| panic!("ladder lacks {name}"));
        assert!(m.value.is_finite() && m.value >= 0.0, "{name} = {}", m.value);
        assert!(m.unit == unit && m.samples > 0 && well_named(name));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn benchmark_json_lists_exactly_what_the_harness_emits() {
    let file = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let entries = |key: &str| file.get(key).and_then(Value::as_array).cloned().expect("a list");
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();

    let workloads: Vec<String> = entries("workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    assert!(entries("workloads").iter().all(|w| !text(w, "why").is_empty()));

    // A bound lives in BENCHMARK.json or in the table, never in both.
    let unbounded_here: Vec<&str> =
        END_TO_END.iter().filter(|d| d.bound.is_none()).map(|d| d.name).collect();
    assert_eq!(unbounded_here, DRIVER_END_TO_END);
    let bounds = check::bounds().expect("every metric has exactly one bound");
    assert_eq!(bounds.len(), END_TO_END.len());

    let listed = entries("end_to_end");
    assert_eq!(listed.len(), DRIVER_END_TO_END.len());
    for (entry, name) in listed.iter().zip(DRIVER_END_TO_END) {
        let def = END_TO_END.iter().find(|d| d.name == name).expect("a known metric");
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(bounds[name]));
        assert_eq!(text(entry, "name"), name);
        assert_eq!(text(entry, "unit"), def.unit);
        assert_eq!(text(entry, "better"), def.better.name());
        let bound = entry.get("bound").and_then(Value::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }

    let layers: Vec<(String, String)> =
        entries("per_layer").iter().map(|e| (text(e, "name"), text(e, "unit"))).collect();
    let emitted: Vec<(String, String)> = LADDER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .chain(SERVER_COUNTS.iter().map(|(n, u)| (n.to_string(), u.to_string())))
        .collect();
    assert_eq!(layers, emitted);
    for entry in entries("per_layer") {
        let better = text(&entry, "better");
        assert!(better == "higher" || better == "lower");
        if let Some((_, _, b)) = LADDER.iter().find(|(n, _, _)| *n == text(&entry, "name")) {
            assert_eq!(better, b.name());
        }
    }
    assert_eq!(file.get("run_seconds").and_then(Value::as_f64), Some(crate::DEFAULT_SECONDS));
}

#[test]
fn model_graph_is_apply_delta_in_one_pass() {
    let base = graph(GraphSize { vertices: 64, edges: 1_024 }, 3);
    let mut stream = Mutations::new(&base, 3);
    let batches: Vec<_> = (0..6).map(|_| stream.batch(40)).collect();
    assert!(batches.iter().flatten().any(|r| !r.is_insert()));
    let mut replayed = base.clone();
    for batch in &batches {
        apply_delta_to_edge_list(&mut replayed, batch);
    }
    let model = model_graph(&base, batches.iter().flatten());
    assert!(model.edges.len() < base.edges.len() + 6 * 35, "deletes removed base edges");
    assert!(model.edges == replayed.edges);
}

#[test]
fn spread_is_pythons_quartile_distance_over_the_median() {
    let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartile_spread(&one_to_ten), Some(1.0));
    assert_eq!(quartile_spread(&[4.0]), None);
    // two values: the quartiles are the values themselves
    assert_eq!(quartile_spread(&[10.0, 12.0]), Some(2.0 / 11.0));
}

#[test]
fn verdicts_follow_the_bound_and_the_spread() {
    let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
    let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
    assert_eq!(judge(&steady, &steady, Better::Higher, 0.1), Verdict::Ok);
    assert_eq!(judge(&steady, &slower, Better::Higher, 0.1), Verdict::Worse);
    assert_eq!(judge(&slower, &steady, Better::Higher, 0.1), Verdict::Ok);
    assert_eq!(judge(&steady, &slower, Better::Lower, 0.1), Verdict::Ok);
    // Runs that scatter wider than the bound cannot show "unchanged" …
    let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
    assert_eq!(judge(&noisy, &noisy, Better::Higher, 0.1), Verdict::Unresolved);
    // … unless every run of the change beats every run of the base.
    let faster = [200.0, 210.0, 190.0, 220.0, 205.0];
    assert_eq!(judge(&noisy, &faster, Better::Higher, 0.1), Verdict::Ok);
    // A zero bound (failed_share): any rise is a regression.
    assert_eq!(judge(&[0.0], &[0.0], Better::Lower, 0.0), Verdict::Ok);
    assert_eq!(judge(&[0.0], &[0.01], Better::Lower, 0.0), Verdict::Worse);
}
