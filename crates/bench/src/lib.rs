//! # graphm-bench — the paper's tables and figures, one program
//!
//! Every experiment of the evaluation is an [`Entry`] of [`REGISTRY`]: a
//! name, a banner title and a function that prints the paper's rows or
//! series and returns the JSON record. The `figures` binary
//! (`src/bin/figures.rs`) runs the entries it is given — `figures list`,
//! `figures fig09_total_time fig12_io`, `figures all` — through [`run`],
//! which prints the banner, calls the entry and writes the record to
//! `target/graphm-results/<name>.json`.
//!
//! Entries share a [`Ctx`]: the run's [`Params`] and what more than one
//! entry needs — the [`Workbench`] of each dataset and the §5.3 16-job
//! sweep behind Figures 9–14 — each computed once, however many entries
//! ask. Everything here is virtual time on the cache simulator and
//! deterministic run to run (Table 3's wall-clock columns aside); wall
//! clock through the real socket path is measured by `gmbench/`.
//!
//! `figures` reads three environment knobs, once, into [`Params`]:
//!
//! * `GRAPHM_SCALE` — dataset scale divisor (default 16; 1 = full
//!   stand-in scale, slower but highest fidelity);
//! * `GRAPHM_JOBS` — concurrent job count where the paper uses 16;
//! * `GRAPHM_SEED` — workload seed (default 42).
//!
//! Run it with `--release`; the cache simulator is the hot loop.

mod main_eval;
mod motivation;
mod other_systems;
mod sensitivity;

use graphm_cachesim::keys;
use graphm_core::{RunReport, Scheme};
use graphm_graph::DatasetId;
use graphm_workloads::{immediate_arrivals, Workbench};
use serde_json::Value;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::rc::Rc;

/// Grid dimension used by the GridGraph experiments (64 blocks; the paper
/// sizes `P` so blocks stream through memory comfortably — per-process
/// stream buffers must stay small next to DRAM).
pub const GRID_P: usize = 8;

/// What a run of the figures is parameterised by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Dataset scale divisor (≥ 1).
    pub scale: usize,
    /// Concurrent job count for the 16-job experiments (≥ 1).
    pub jobs: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Params {
        Params { scale: 16, jobs: 16, seed: 42 }
    }
}

impl Params {
    /// Reads `GRAPHM_SCALE` / `GRAPHM_JOBS` / `GRAPHM_SEED` through
    /// `lookup` (the process environment, in `figures`' `main`); a knob
    /// that is unset or not a number keeps its default.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Params {
        let knob = |name: &str, default: usize| {
            lookup(name).and_then(|v| v.parse::<usize>().ok()).unwrap_or(default)
        };
        let d = Params::default();
        Params {
            scale: knob("GRAPHM_SCALE", d.scale).max(1),
            jobs: knob("GRAPHM_JOBS", d.jobs).max(1),
            seed: knob("GRAPHM_SEED", d.seed as usize) as u64,
        }
    }
}

/// One dataset's §5.3 runs: the paper's job mix under `-S`, `-C`, `-M`.
pub struct SchemeRuns {
    /// The dataset.
    pub id: DatasetId,
    /// Scheme S (sequential).
    pub s: Rc<RunReport>,
    /// Scheme C (concurrent, private copies).
    pub c: Rc<RunReport>,
    /// Scheme M (concurrent, shared through GraphM).
    pub m: Rc<RunReport>,
}

/// What the entries of one `figures` run share.
#[derive(Default)]
pub struct Ctx {
    /// The run's parameters.
    pub params: Params,
    /// How often the §5.3 sweep was computed (at most once per `Ctx`; the
    /// golden test pins it).
    pub sweeps: usize,
    workbenches: HashMap<DatasetId, Rc<Workbench>>,
    paper_runs: Vec<(DatasetId, Scheme, Rc<RunReport>)>,
    sweep: Option<Rc<Vec<SchemeRuns>>>,
}

impl Ctx {
    /// An empty context over `params`.
    pub fn new(params: Params) -> Ctx {
        Ctx { params, ..Ctx::default() }
    }

    /// The standard workbench of a dataset at the run's scale.
    pub fn workbench(&mut self, id: DatasetId) -> Rc<Workbench> {
        let scale = self.params.scale;
        Rc::clone(
            self.workbenches
                .entry(id)
                .or_insert_with(|| Rc::new(Workbench::dataset(id, scale, GRID_P))),
        )
    }

    /// The paper's job mix, submitted at once, on `id` under `scheme` with
    /// the workbench's default runner configuration — one leg of the §5.3
    /// sweep, which Figure 18 and the synchronization ablation also start
    /// from.
    pub fn paper_run(&mut self, id: DatasetId, scheme: Scheme) -> Rc<RunReport> {
        if let Some((_, _, run)) = self.paper_runs.iter().find(|(i, s, _)| (*i, *s) == (id, scheme))
        {
            return Rc::clone(run);
        }
        let wb = self.workbench(id);
        let specs = wb.paper_mix(self.params.jobs, self.params.seed);
        let run = Rc::new(wb.run(scheme, &specs, &immediate_arrivals(specs.len())));
        self.paper_runs.push((id, scheme, Rc::clone(&run)));
        run
    }

    /// The §5.3 main-evaluation sweep: the paper's 16-job mix on every
    /// dataset under all three schemes. Shared by Figures 9–14.
    pub fn sweep(&mut self) -> Rc<Vec<SchemeRuns>> {
        if let Some(runs) = &self.sweep {
            return Rc::clone(runs);
        }
        self.sweeps += 1;
        let runs: Vec<SchemeRuns> = DatasetId::ALL
            .into_iter()
            .map(|id| {
                let s = self.paper_run(id, Scheme::Sequential);
                let c = self.paper_run(id, Scheme::Concurrent);
                let m = self.paper_run(id, Scheme::Shared);
                eprintln!(
                    "[{}] S={:.3}s C={:.3}s M={:.3}s",
                    id.name(),
                    ns_to_s(s.makespan_ns),
                    ns_to_s(c.makespan_ns),
                    ns_to_s(m.makespan_ns)
                );
                SchemeRuns { id, s, c, m }
            })
            .collect();
        Rc::clone(self.sweep.insert(Rc::new(runs)))
    }
}

/// One experiment of the paper's evaluation.
pub struct Entry {
    /// Name on the command line and of the JSON record.
    pub name: &'static str,
    /// Banner title: the paper artifact and what it shows.
    pub title: &'static str,
    /// Prints the experiment's rows and returns its JSON record.
    pub run: fn(&mut Ctx) -> Value,
}

/// Builds [`REGISTRY`]: every entry is named after the function that runs it.
macro_rules! registry {
    ($($module:ident::$name:ident: $title:literal,)*) => {
        &[$(Entry { name: stringify!($name), title: $title, run: $module::$name }),*]
    };
}

/// Every experiment, in name order (the order `figures all` runs them in).
pub const REGISTRY: &[Entry] = registry! {
    sensitivity::ablate_chunk_size:
        "Ablation — chunk size vs the Formula-1 optimum (twitter-sim)",
    sensitivity::ablate_sync:
        "Ablation — fine-grained synchronization on/off",
    motivation::fig02_trace:
        "Figure 2 — concurrent jobs over one traced week",
    motivation::fig03_motivation:
        "Figure 3 — concurrent jobs on GridGraph-C over twitter-sim",
    motivation::fig04_similarity:
        "Figure 4 — access similarity on the traced workload",
    main_eval::fig09_total_time:
        "Figure 9 — total execution time for 16 concurrent jobs",
    main_eval::fig10_breakdown:
        "Figure 10 — execution time breakdown (processing vs data access)",
    main_eval::fig11_memory:
        "Figure 11 — memory usage for 16 concurrent jobs",
    main_eval::fig12_io:
        "Figure 12 — total I/O overhead for 16 concurrent jobs",
    main_eval::fig13_llc_missrate:
        "Figure 13 — LLC miss rate for 16 concurrent jobs",
    main_eval::fig14_llc_volume:
        "Figure 14 — volume of data swapped into the LLC",
    sensitivity::fig15_real_trace:
        "Figure 15 — performance of the jobs for the real trace",
    sensitivity::fig16_lambda:
        "Figure 16 — performance of GraphM for various lambda (UK-union)",
    sensitivity::fig17_root_hops:
        "Figure 17 — impact of BFS/SSSP root distance (livej-sim)",
    sensitivity::fig18_scheduling:
        "Figure 18 — loading-order scheduling strategy on/off",
    sensitivity::fig19_job_scaling:
        "Figure 19 — scaling with the number of jobs (clueweb-sim, PageRank)",
    sensitivity::fig20_core_scaling:
        "Figure 20 — scaling with the number of CPU cores (twitter-sim)",
    other_systems::fig21_distributed_scaling:
        "Figure 21 — scalability of the distributed schemes (ukunion-sim)",
    other_systems::tab02_datasets:
        "Table 2 — graph datasets used in the experiments",
    other_systems::tab03_preprocessing:
        "Table 3 — preprocessing time (wall-clock) and labelling overhead",
    other_systems::tab04_other_systems:
        "Table 4 — execution time for other systems integrated with GraphM",
};

/// Looks an entry up by name.
pub fn find(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Runs one entry the way `figures` presents it: banner, the entry's own
/// output, then the JSON record saved under `target/graphm-results/`.
pub fn run(entry: &Entry, ctx: &mut Ctx) {
    let Params { scale, jobs, seed } = ctx.params;
    println!("================================================================");
    println!("{}", entry.title);
    println!(
        "scale=1/{scale}  jobs={jobs}  seed={seed}  (GRAPHM_SCALE / GRAPHM_JOBS / GRAPHM_SEED)"
    );
    println!("================================================================");
    let record = (entry.run)(ctx);
    save_json(entry.name, &record);
}

/// Writes an experiment's JSON record to `target/graphm-results/`.
fn save_json(name: &str, value: &Value) {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.push("target");
    dir.push("graphm-results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    dir.push(format!("{name}.json"));
    if let Ok(mut file) = std::fs::File::create(&dir) {
        let _ = writeln!(file, "{}", serde_json::to_string_pretty(value).unwrap());
        println!("\n[saved {}]", dir.display());
    }
}

/// Prints a table header.
fn header(cols: &[&str]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
    println!("{}", "-".repeat(15 * cols.len()));
}

/// Prints one row of mixed-format cells.
fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Formats a float compactly.
fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Normalizes a series to its maximum (the paper's "normalized" y-axes).
fn normalize(series: &[f64]) -> Vec<f64> {
    let max = series.iter().cloned().fold(0.0f64, f64::max);
    if max == 0.0 {
        series.to_vec()
    } else {
        series.iter().map(|v| v / max).collect()
    }
}

/// Converts virtual nanoseconds to seconds for display.
fn ns_to_s(ns: f64) -> f64 {
    ns / 1e9
}

/// Formats virtual nanoseconds as seconds to the millisecond (the table
/// cell most experiments print).
fn secs(ns: f64) -> String {
    format!("{:.3}", ns_to_s(ns))
}

/// LLC miss rate of a run, in percent.
fn miss_pct(r: &RunReport) -> f64 {
    r.metrics.get(keys::LLC_MISSES) / r.metrics.get(keys::LLC_ACCESSES).max(1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        assert_eq!(Params::from_lookup(|_| None), Params::default());
        let set = |name: &str| match name {
            "GRAPHM_SCALE" => Some("0".to_string()),
            "GRAPHM_JOBS" => Some("four".to_string()),
            _ => Some("7".to_string()),
        };
        assert_eq!(Params::from_lookup(set), Params { scale: 1, jobs: 16, seed: 7 });
    }

    #[test]
    fn normalize_caps_at_one() {
        let n = normalize(&[1.0, 2.0, 4.0]);
        assert_eq!(n, vec![0.25, 0.5, 1.0]);
        assert_eq!(normalize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn format_compact() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1.5), "1.500");
        assert!(f(1e9).contains('e'));
    }
}
