//! The threaded Sharing() runtime (Algorithm 2) with real OS threads:
//! three jobs co-traverse one shared graph, loads happen once per sweep,
//! and the chunk pacer keeps their traversals aligned.
//!
//! ```sh
//! cargo run --release --example sharing_runtime
//! ```

use graphm::algos::{Bfs, RankBundle, Wcc};
use graphm::core::{GraphJob, WallClockConfig, WallClockExecutor};
use graphm::gridgraph::{GridGraphEngine, GridSource};
use std::sync::Arc;

fn main() {
    let graph = graphm::graph::generators::rmat(
        20_000,
        240_000,
        graphm::graph::generators::RmatParams::GRAPH500,
        5,
    );
    let (engine, prep) = GridGraphEngine::convert(&graph, 4);
    println!(
        "grid-converted {} edges into {} blocks in {:.1} ms",
        graph.num_edges(),
        engine.grid().num_blocks(),
        prep.as_secs_f64() * 1e3
    );

    let jobs: Vec<Box<dyn GraphJob>> = vec![
        Box::new(RankBundle::pagerank(graph.num_vertices, engine.out_degrees(), &[(0.85, 5)])),
        Box::new(Wcc::new(graph.num_vertices)),
        Box::new(Bfs::new(graph.num_vertices, 0)),
    ];
    let mut cfg = WallClockConfig::default();
    cfg.max_iterations = 100;
    let exec = WallClockExecutor::new(Arc::new(GridSource::new(engine.grid())), cfg, None);
    let report = exec.run_batch(jobs);
    println!(
        "\n3 jobs finished in {:.1} ms wall-clock with {} shared partition loads",
        report.total_ms, report.partition_loads
    );
    for job in &report.jobs {
        println!("  job {}: {} iterations", job.id, job.iterations);
    }

    // Versus: each job streaming privately.
    let jobs: Vec<Box<dyn GraphJob>> = vec![
        Box::new(RankBundle::pagerank(graph.num_vertices, engine.out_degrees(), &[(0.85, 5)])),
        Box::new(Wcc::new(graph.num_vertices)),
        Box::new(Bfs::new(graph.num_vertices, 0)),
    ];
    let solo = exec.run_batch_exclusive(jobs);
    println!(
        "private streaming: {:.1} ms with {} per-job block loads",
        solo.total_ms, solo.partition_loads
    );
    assert!(report.partition_loads < solo.partition_loads, "sharing must amortize loads");
}
