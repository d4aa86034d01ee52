//! GridGraph-S / GridGraph-C / GridGraph-M.
//!
//! Two execution paths per scheme:
//!
//! * **Deterministic** ([`run_gridgraph`]) — replays through the simulated
//!   memory hierarchy (`graphm_core::runner`), producing the virtual-time
//!   figures of §5.
//! * **Wall-clock** ([`wall`]) — real OS threads, real caches: `-S` runs
//!   jobs back-to-back, `-C` gives each thread a *private clone* of every
//!   block it streams, `-M` shares each block load among the jobs through
//!   [`graphm_core::WallClockExecutor`]'s sweep driver with chunk pacing.
//!   Used by the Criterion benches.

use crate::engine::GridGraphEngine;
use crate::source::GridSource;
use graphm_core::{
    run_scheme, GraphJob, GraphM, GraphMConfig, PartitionSource, RunReport, RunnerConfig, Scheme,
    Submission,
};
use graphm_graph::EDGE_BYTES;
use std::sync::Arc;
use std::time::Instant;

/// Runs a job mix on GridGraph under the given scheme, deterministically.
pub fn run_gridgraph(
    scheme: Scheme,
    subs: Vec<Submission>,
    engine: &GridGraphEngine,
    cfg: &RunnerConfig,
) -> RunReport {
    let source = GridSource::new(engine.grid());
    run_scheme(scheme, subs, &source, cfg)
}

/// Runs a job mix on a *disk-resident* grid store under the given scheme.
/// Same runtime as [`run_gridgraph`]; partitions stream from the mmap'd
/// segments and per-partition byte counts come from the store manifest.
pub fn run_gridgraph_disk(
    scheme: Scheme,
    subs: Vec<Submission>,
    source: &graphm_store::DiskGridSource,
    cfg: &RunnerConfig,
) -> RunReport {
    run_scheme(scheme, subs, source, cfg)
}

/// Table-3 helper: wall-clock time of GraphM's extra preprocessing
/// (Formula-1 sizing + Algorithm-1 labelling) on top of the grid convert.
pub fn graphm_preprocess_wall(
    engine: &GridGraphEngine,
    cfg: GraphMConfig,
) -> (GraphM, std::time::Duration) {
    let source = GridSource::new(engine.grid());
    let start = Instant::now();
    let gm = GraphM::init(&source, 8, cfg);
    (gm, start.elapsed())
}

/// Wall-clock runners (real threads, real memory).
pub mod wall {
    use super::*;

    /// Per-run wall-clock outcome.
    pub struct WallReport {
        /// Total elapsed milliseconds.
        pub total_ms: f64,
        /// Per-job results (vertex values).
        pub results: Vec<Vec<f64>>,
        /// Per-job iteration counts.
        pub iterations: Vec<usize>,
        /// Partition loads performed (shared scheme: actual shared loads).
        pub loads: u64,
    }

    /// GridGraph-S: jobs one after another on the calling thread.
    pub fn run_sequential(
        jobs: Vec<Box<dyn GraphJob>>,
        engine: &GridGraphEngine,
        max_iters: usize,
    ) -> WallReport {
        let start = Instant::now();
        let mut results = Vec::new();
        let mut iterations = Vec::new();
        let mut loads = 0u64;
        let blocks = engine.grid().num_blocks() as u64;
        for mut job in jobs {
            let iters = engine.run_job(job.as_mut(), max_iters);
            loads += blocks * iters as u64; // every iteration re-streams
            iterations.push(iters);
            results.push(job.vertex_values());
        }
        WallReport { total_ms: start.elapsed().as_secs_f64() * 1e3, results, iterations, loads }
    }

    /// GridGraph-C: one OS thread per job; each thread clones every block
    /// it streams (private copies, as independent engine processes would
    /// hold).
    pub fn run_concurrent(
        jobs: Vec<Box<dyn GraphJob>>,
        engine: &GridGraphEngine,
        max_iters: usize,
    ) -> WallReport {
        let start = Instant::now();
        let grid = Arc::clone(engine.grid());
        let mut handles = Vec::new();
        for mut job in jobs {
            let grid = Arc::clone(&grid);
            handles.push(std::thread::spawn(move || {
                let mut iters = 0usize;
                let mut loads = 0u64;
                for _ in 0..max_iters {
                    for idx in grid.streaming_order() {
                        let (row, _) = grid.block_coords(idx);
                        let (lo, hi) = grid.ranges().bounds(row);
                        if job.skips_inactive()
                            && !(lo < hi && job.active().any_in_range(lo as usize, hi as usize))
                        {
                            continue;
                        }
                        // The private copy: this job's own buffer of the
                        // block, re-materialized like a private read.
                        let private: Vec<graphm_graph::Edge> = grid.block_by_index(idx).to_vec();
                        loads += 1;
                        for e in &private {
                            if !job.skips_inactive() || job.active().get(e.src as usize) {
                                job.process_edge(e);
                            }
                        }
                    }
                    iters += 1;
                    if job.end_iteration() {
                        break;
                    }
                }
                (job.vertex_values(), iters, loads)
            }));
        }
        let mut results = Vec::new();
        let mut iterations = Vec::new();
        let mut loads = 0u64;
        for h in handles {
            let (vals, iters, l) = h.join().expect("job thread panicked");
            results.push(vals);
            iterations.push(iters);
            loads += l;
        }
        WallReport { total_ms: start.elapsed().as_secs_f64() * 1e3, results, iterations, loads }
    }

    /// GridGraph-M: one shared load per block, its chunks streamed through
    /// the interested jobs by the worker pool's lanes, jobs paced chunk by
    /// chunk. Delegates to the engine-agnostic
    /// [`graphm_core::WallClockExecutor`], which also powers the daemon's
    /// `wallclock` mode and the disk-resident speedup bench.
    pub fn run_shared(
        jobs: Vec<Box<dyn GraphJob>>,
        engine: &GridGraphEngine,
        max_iters: usize,
    ) -> WallReport {
        let source: Arc<dyn PartitionSource> = Arc::new(GridSource::new(engine.grid()));
        let cfg = graphm_core::WallClockConfig {
            max_iterations: max_iters,
            ..graphm_core::WallClockConfig::default()
        };
        let report = graphm_core::run_shared_wallclock(source, jobs, &cfg, None);
        WallReport {
            total_ms: report.total_ms,
            iterations: report.jobs.iter().map(|j| j.iterations).collect(),
            results: report.jobs.into_iter().map(|j| j.values).collect(),
            loads: report.partition_loads,
        }
    }

    /// Bytes one block-load moves, for I/O comparisons in benches.
    pub fn block_bytes(engine: &GridGraphEngine, idx: usize) -> usize {
        engine.grid().block_by_index(idx).len() * EDGE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_algos::reference;
    use graphm_algos::{Bfs, PageRank, Wcc};
    use graphm_cachesim::keys;
    use graphm_graph::{generators, MemoryProfile};

    fn engine() -> (graphm_graph::EdgeList, GridGraphEngine) {
        let g = generators::rmat(400, 3000, generators::RmatParams::GRAPH500, 55);
        let (e, _) = GridGraphEngine::convert(&g, 3);
        (g, e)
    }

    fn pr_subs(g: &graphm_graph::EdgeList, engine: &GridGraphEngine, n: usize) -> Vec<Submission> {
        (0..n)
            .map(|i| {
                Submission::immediate(Box::new(
                    PageRank::new(g.num_vertices, engine.out_degrees(), 0.5 + 0.05 * i as f64, 25)
                        .with_tolerance(0.0),
                ))
            })
            .collect()
    }

    #[test]
    fn deterministic_schemes_match_oracle() {
        let (g, engine) = engine();
        let cfg = RunnerConfig::new(MemoryProfile::TEST);
        for scheme in [Scheme::Sequential, Scheme::Concurrent, Scheme::Shared] {
            let report = run_gridgraph(scheme, pr_subs(&g, &engine, 2), &engine, &cfg);
            for (i, job) in report.jobs.iter().enumerate() {
                let oracle = reference::pagerank_ref(&g, 0.5 + 0.05 * i as f64, 25, 0.0);
                for (a, b) in job.values.iter().zip(&oracle) {
                    assert!((a - b).abs() < 1e-9, "{scheme:?} job {i}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn shared_scheme_beats_concurrent_on_io_and_llc() {
        let (g, engine) = engine();
        let cfg = RunnerConfig::new(MemoryProfile::TEST);
        let m = run_gridgraph(Scheme::Shared, pr_subs(&g, &engine, 4), &engine, &cfg);
        let c = run_gridgraph(Scheme::Concurrent, pr_subs(&g, &engine, 4), &engine, &cfg);
        assert!(m.metrics.get(keys::DISK_READ_BYTES) <= c.metrics.get(keys::DISK_READ_BYTES));
        let m_rate = m.metrics.get(keys::LLC_MISSES) / m.metrics.get(keys::LLC_ACCESSES);
        let c_rate = c.metrics.get(keys::LLC_MISSES) / c.metrics.get(keys::LLC_ACCESSES);
        assert!(m_rate < c_rate, "M {m_rate} vs C {c_rate}");
        assert!(m.makespan_ns < c.makespan_ns);
    }

    #[test]
    fn wall_schemes_agree_with_each_other() {
        let (g, engine) = engine();
        let mk = |count: usize| -> Vec<Box<dyn GraphJob>> {
            (0..count)
                .map(|i| {
                    Box::new(
                        PageRank::new(
                            g.num_vertices,
                            engine.out_degrees(),
                            0.6 + 0.1 * i as f64,
                            4,
                        )
                        .with_tolerance(0.0),
                    ) as Box<dyn GraphJob>
                })
                .collect()
        };
        let s = wall::run_sequential(mk(3), &engine, 100);
        let c = wall::run_concurrent(mk(3), &engine, 100);
        let m = wall::run_shared(mk(3), &engine, 100);
        for i in 0..3 {
            for ((a, b), z) in s.results[i].iter().zip(&c.results[i]).zip(&m.results[i]) {
                assert!((a - b).abs() < 1e-9, "S vs C");
                assert!((a - z).abs() < 1e-9, "S vs M");
            }
        }
        // Sharing loads each block once per sweep; sequential streams it
        // once per job per sweep.
        assert!(m.loads < s.loads, "M loads {} vs S loads {}", m.loads, s.loads);
    }

    #[test]
    fn wall_shared_runs_frontier_jobs() {
        let (g, engine) = engine();
        let jobs: Vec<Box<dyn GraphJob>> = vec![
            Box::new(Bfs::new(g.num_vertices, 1)),
            Box::new(Wcc::new(g.num_vertices)),
            Box::new(Bfs::new(g.num_vertices, 7)),
        ];
        let m = wall::run_shared(jobs, &engine, 1000);
        let bfs_oracle = reference::bfs_ref(&g, 1);
        for (a, b) in m.results[0].iter().zip(&bfs_oracle) {
            assert_eq!(*a, *b as f64);
        }
        let wcc_oracle = reference::wcc_ref(&g);
        for (a, b) in m.results[1].iter().zip(&wcc_oracle) {
            assert_eq!(*a, *b as f64);
        }
    }

    #[test]
    fn preprocessing_overhead_is_small() {
        // Table 3: GridGraph-M adds a single labelling traversal on top of
        // the grid conversion.
        let g = generators::rmat(400, 6000, generators::RmatParams::GRAPH500, 9);
        let (engine, convert_time) = GridGraphEngine::convert(&g, 4);
        let (gm, label_time) =
            graphm_preprocess_wall(&engine, GraphMConfig::new(MemoryProfile::DEFAULT));
        assert!(gm.overhead_bytes() > 0);
        // Labelling is one pass; conversion sorts — labelling should not
        // dwarf conversion (allow generous slack for timer noise).
        assert!(label_time.as_secs_f64() < convert_time.as_secs_f64() * 10.0 + 0.05);
    }
}
