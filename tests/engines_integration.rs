//! Integration across host engines: the same jobs on GridGraph, GraphChi,
//! and both distributed engines produce identical fixpoints, and GraphM's
//! scheme orderings hold on each.

use graphm::algos::{reference, Bfs, RankBundle};
use graphm::core::GraphJob;
use graphm::distributed::{run_chaos, run_powergraph, ClusterConfig};
use graphm::graphchi::{run_graphchi, GraphChiEngine};
use graphm::gridgraph::{run_gridgraph, GridGraphEngine, GridSource};
use graphm::prelude::*;
use std::sync::Arc;

fn graph() -> EdgeList {
    graphm::graph::generators::rmat(400, 3600, graphm::graph::generators::RmatParams::GRAPH500, 123)
}

#[test]
fn same_fixpoint_on_every_engine() {
    let g = graph();
    let oracle = reference::bfs_ref(&g, 7);

    // GridGraph.
    let (grid, _) = GridGraphEngine::convert(&g, 4);
    let mut bfs = Bfs::new(g.num_vertices, 7);
    grid.run_job(&mut bfs, 1000);
    assert_eq!(bfs.levels(), oracle.as_slice(), "gridgraph");

    // GraphChi.
    let (chi, _) = GraphChiEngine::convert(&g, 5);
    let mut bfs = Bfs::new(g.num_vertices, 7);
    chi.run_job(&mut bfs, 1000);
    assert_eq!(bfs.levels(), oracle.as_slice(), "graphchi");

    // PowerGraph (simulated cluster).
    let jobs: Vec<Box<dyn GraphJob>> = vec![Box::new(Bfs::new(g.num_vertices, 7))];
    let r = run_powergraph(Scheme::Shared, jobs, &g, ClusterConfig::new(4), 1, 1000);
    let got: Vec<u32> = r.results[0].iter().map(|&v| v as u32).collect();
    assert_eq!(got, oracle, "powergraph");

    // Chaos (simulated cluster).
    let jobs: Vec<Box<dyn GraphJob>> = vec![Box::new(Bfs::new(g.num_vertices, 7))];
    let r = run_chaos(Scheme::Shared, jobs, &g, ClusterConfig::new(4), 1, 1000);
    let got: Vec<u32> = r.results[0].iter().map(|&v| v as u32).collect();
    assert_eq!(got, oracle, "chaos");
}

#[test]
fn graphm_helps_every_single_machine_engine() {
    let g = graphm::graph::generators::rmat(
        2_000,
        40_000,
        graphm::graph::generators::RmatParams::GRAPH500,
        77,
    );
    let deg = Arc::new(g.out_degrees());
    let mk = |n: usize| -> Vec<Submission> {
        (0..n)
            .map(|i| {
                Submission::immediate(Box::new(RankBundle::pagerank(
                    g.num_vertices,
                    Arc::clone(&deg),
                    &[(0.4 + 0.1 * i as f64, 15)],
                )))
            })
            .collect()
    };
    let cfg = RunnerConfig::new(MemoryProfile::TEST);

    let (grid, _) = GridGraphEngine::convert(&g, 4);
    let gm = run_gridgraph(Scheme::Shared, mk(4), &grid, &cfg);
    let gc = run_gridgraph(Scheme::Concurrent, mk(4), &grid, &cfg);
    assert!(
        gm.makespan_ns < gc.makespan_ns,
        "gridgraph: M {} C {}",
        gm.makespan_ns,
        gc.makespan_ns
    );

    let (chi, _) = GraphChiEngine::convert(&g, 4);
    let cm = run_graphchi(Scheme::Shared, mk(4), &chi, &cfg);
    let cc = run_graphchi(Scheme::Concurrent, mk(4), &chi, &cfg);
    assert!(cm.makespan_ns < cc.makespan_ns, "graphchi: M {} C {}", cm.makespan_ns, cc.makespan_ns);
}

#[test]
fn distributed_m_beats_c_and_chaos_c_trails_s() {
    let g = graph();
    let deg = Arc::new(g.out_degrees());
    let mk = || -> Vec<Box<dyn GraphJob>> {
        (0..8)
            .map(|i| {
                Box::new(RankBundle::pagerank(
                    g.num_vertices,
                    Arc::clone(&deg),
                    &[(0.4 + 0.05 * i as f64, 5)],
                )) as Box<dyn GraphJob>
            })
            .collect()
    };
    let cluster = ClusterConfig::new(8);
    let total = |r: &graphm::distributed::DistReport| r.metrics.get(keys::TOTAL_NS);

    let pg_c = total(&run_powergraph(Scheme::Concurrent, mk(), &g, cluster, 2, 100));
    let pg_m = total(&run_powergraph(Scheme::Shared, mk(), &g, cluster, 2, 100));
    assert!(pg_m < pg_c, "powergraph M {pg_m} vs C {pg_c}");

    let ch_s = total(&run_chaos(Scheme::Sequential, mk(), &g, cluster, 2, 100));
    let ch_c = total(&run_chaos(Scheme::Concurrent, mk(), &g, cluster, 2, 100));
    let ch_m = total(&run_chaos(Scheme::Shared, mk(), &g, cluster, 2, 100));
    assert!(ch_c > ch_s, "Table 4's anomaly: Chaos-C slower than Chaos-S");
    assert!(ch_m < ch_s, "chaos M {ch_m} vs S {ch_s}");
}

/// The threaded wall-clock runtime agrees with the deterministic one on
/// results while sharing loads.
#[test]
fn wall_and_deterministic_agree() {
    let g = graph();
    let (engine, _) = GridGraphEngine::convert(&g, 3);
    let mk = || -> Vec<Box<dyn GraphJob>> {
        vec![
            Box::new(RankBundle::pagerank(g.num_vertices, engine.out_degrees(), &[(0.85, 5)])),
            Box::new(Bfs::new(g.num_vertices, 2)),
        ]
    };
    let mut cfg = WallClockConfig::default();
    cfg.max_iterations = 1000;
    let wall =
        WallClockExecutor::new(Arc::new(GridSource::new(engine.grid())), cfg, None).run_batch(mk());
    let det = run_gridgraph(
        Scheme::Shared,
        mk().into_iter().map(Submission::immediate).collect(),
        &engine,
        &RunnerConfig::new(MemoryProfile::TEST),
    );
    for (w, d) in wall.jobs.iter().zip(&det.jobs) {
        for (a, b) in w.values.iter().zip(&d.values) {
            assert!(
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9,
                "wall vs deterministic: {a} vs {b}"
            );
        }
    }
}
