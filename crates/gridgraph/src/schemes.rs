//! GridGraph-S / GridGraph-C / GridGraph-M.
//!
//! [`run_gridgraph`] replays a job mix through the simulated memory
//! hierarchy (`graphm_core::runner`), producing the virtual-time figures
//! of §5. On real threads and real caches the three schemes need nothing
//! grid-specific: a [`GridSource`] handed to
//! [`graphm_core::WallClockExecutor`] gives `-M` (`run_batch`) and `-C`
//! (`run_batch_exclusive`), and [`GridGraphEngine::run_job`] per job is
//! `-S`.

use crate::engine::GridGraphEngine;
use crate::source::GridSource;
use graphm_core::{run_scheme, GraphM, GraphMConfig, RunReport, RunnerConfig, Scheme, Submission};
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

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_algos::reference;
    use graphm_algos::{Bfs, RankBundle, Wcc};
    use graphm_cachesim::keys;
    use graphm_core::{GraphJob, WallClockConfig, WallClockExecutor};
    use graphm_graph::{generators, MemoryProfile};
    use std::sync::Arc;

    fn engine() -> (graphm_graph::EdgeList, GridGraphEngine) {
        let g = generators::rmat(400, 3000, generators::RmatParams::GRAPH500, 55);
        let (e, _) = GridGraphEngine::convert(&g, 3);
        (g, e)
    }

    fn pr_subs(g: &graphm_graph::EdgeList, engine: &GridGraphEngine, n: usize) -> Vec<Submission> {
        (0..n)
            .map(|i| {
                Submission::immediate(Box::new(
                    RankBundle::pagerank(
                        g.num_vertices,
                        engine.out_degrees(),
                        &[(0.5 + 0.05 * i as f64, 25)],
                    )
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

    /// The wall-clock runtime over the engine's grid (`run_batch` = `-M`,
    /// `run_batch_exclusive` = `-C`).
    fn wall(engine: &GridGraphEngine, max_iters: usize) -> WallClockExecutor {
        let mut cfg = WallClockConfig::default();
        cfg.max_iterations = max_iters;
        WallClockExecutor::new(Arc::new(GridSource::new(engine.grid())), cfg, None)
    }

    #[test]
    fn wall_schemes_agree_with_each_other() {
        let (g, engine) = engine();
        let mk = |count: usize| -> Vec<Box<dyn GraphJob>> {
            (0..count)
                .map(|i| {
                    Box::new(
                        RankBundle::pagerank(
                            g.num_vertices,
                            engine.out_degrees(),
                            &[(0.6 + 0.1 * i as f64, 4)],
                        )
                        .with_tolerance(0.0),
                    ) as Box<dyn GraphJob>
                })
                .collect()
        };
        // -S: the engine's own loop, one job after another, re-streaming
        // every block every iteration.
        let mut s_loads = 0u64;
        let s: Vec<Vec<f64>> = mk(3)
            .into_iter()
            .map(|mut job| {
                let iters = engine.run_job(job.as_mut(), 100);
                s_loads += engine.grid().num_blocks() as u64 * iters as u64;
                job.vertex_values()
            })
            .collect();
        let c = wall(&engine, 100).run_batch_exclusive(mk(3));
        let m = wall(&engine, 100).run_batch(mk(3));
        assert_eq!((s.len(), c.jobs.len(), m.jobs.len()), (3, 3, 3));
        for ((s, c), m) in s.iter().zip(&c.jobs).zip(&m.jobs) {
            for ((a, b), z) in s.iter().zip(&c.values).zip(&m.values) {
                assert!((a - b).abs() < 1e-9, "S vs C");
                assert!((a - z).abs() < 1e-9, "S vs M");
            }
        }
        // Sharing loads each block once per sweep; sequential streams it
        // once per job per sweep.
        assert!(
            m.partition_loads < s_loads,
            "M loads {} vs S loads {}",
            m.partition_loads,
            s_loads
        );
    }

    #[test]
    fn wall_shared_runs_frontier_jobs() {
        let (g, engine) = engine();
        let jobs: Vec<Box<dyn GraphJob>> = vec![
            Box::new(Bfs::new(g.num_vertices, 1)),
            Box::new(Wcc::new(g.num_vertices)),
            Box::new(Bfs::new(g.num_vertices, 7)),
        ];
        let m = wall(&engine, 1000).run_batch(jobs);
        let bfs_oracle = reference::bfs_ref(&g, 1);
        for (a, b) in m.jobs[0].values.iter().zip(&bfs_oracle) {
            assert_eq!(*a, *b as f64);
        }
        let wcc_oracle = reference::wcc_ref(&g);
        for (a, b) in m.jobs[1].values.iter().zip(&wcc_oracle) {
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
