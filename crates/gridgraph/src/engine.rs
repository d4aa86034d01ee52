//! The GridGraph-style host engine.
//!
//! GridGraph [Zhu et al., ATC '15] is the paper's primary integration
//! target: a single-machine out-of-core engine with 2-level grid
//! partitioning and a streaming-apply execution model. This module is the
//! engine proper — `Convert()` preprocessing, the per-job `StreamEdges`
//! loop with selective scheduling — independent of any execution scheme.

use graphm_core::GraphJob;
use graphm_graph::{EdgeList, Grid};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A preprocessed GridGraph instance.
pub struct GridGraphEngine {
    grid: Arc<Grid>,
    out_degrees: Arc<Vec<u32>>,
}

impl GridGraphEngine {
    /// `Convert()` — preprocesses an edge list into the grid format,
    /// returning the engine and the wall-clock preprocessing time
    /// (Table 3's GridGraph column).
    pub fn convert(graph: &EdgeList, p: usize) -> (GridGraphEngine, Duration) {
        let start = Instant::now();
        let grid = Grid::convert(graph, p);
        let out_degrees = graph.out_degrees();
        let elapsed = start.elapsed();
        (GridGraphEngine { grid: Arc::new(grid), out_degrees: Arc::new(out_degrees) }, elapsed)
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Arc<Grid> {
        &self.grid
    }

    /// Out-degrees of the converted graph (PageRank-family jobs need them).
    pub fn out_degrees(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.out_degrees)
    }

    /// GridGraph's `StreamEdges` for one job and one iteration: walks
    /// active blocks in streaming order, skipping blocks whose source rows
    /// hold no active vertex (`should_access_shard`). Returns the number
    /// of edges streamed.
    pub fn stream_edges_once(&self, job: &mut dyn GraphJob) -> u64 {
        let mut streamed = 0u64;
        for idx in self.grid.streaming_order() {
            let (row, _) = self.grid.block_coords(idx);
            let (lo, hi) = self.grid.ranges().bounds(row);
            if job.skips_inactive()
                && !(lo < hi && job.active().any_in_range(lo as usize, hi as usize))
            {
                continue;
            }
            let block = self.grid.block_by_index(idx);
            streamed += block.len() as u64;
            job.process_chunk(block);
        }
        streamed
    }

    /// Runs one job to convergence (or `max_iters`), returning the number
    /// of iterations executed. This is the plain single-job GridGraph the
    /// paper starts from.
    pub fn run_job(&self, job: &mut dyn GraphJob, max_iters: usize) -> usize {
        for i in 0..max_iters {
            self.stream_edges_once(job);
            if job.end_iteration() {
                return i + 1;
            }
        }
        max_iters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_algos::reference;
    use graphm_algos::{Bfs, RankBundle, Sssp, Wcc};
    use graphm_graph::generators;

    fn graph() -> EdgeList {
        generators::rmat(300, 2500, generators::RmatParams::GRAPH500, 77)
    }

    #[test]
    fn pagerank_on_grid_matches_reference() {
        let g = graph();
        let (engine, prep) = GridGraphEngine::convert(&g, 4);
        assert!(prep.as_nanos() > 0);
        let mut pr = RankBundle::pagerank(g.num_vertices, engine.out_degrees(), &[(0.85, 8)])
            .with_tolerance(0.0);
        let iters = engine.run_job(&mut pr, 100);
        assert_eq!(iters, 8);
        let oracle = reference::pagerank_ref(&g, 0.85, 8, 0.0);
        for (a, b) in pr.vertex_values().iter().zip(&oracle) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn wcc_on_grid_matches_reference() {
        let g = generators::symmetrize(&graph());
        let (engine, _) = GridGraphEngine::convert(&g, 4);
        let mut wcc = Wcc::new(g.num_vertices);
        engine.run_job(&mut wcc, 1000);
        assert_eq!(wcc.labels(), reference::wcc_ref(&g).as_slice());
    }

    #[test]
    fn bfs_on_grid_matches_reference() {
        let g = graph();
        let (engine, _) = GridGraphEngine::convert(&g, 4);
        let mut bfs = Bfs::new(g.num_vertices, 5);
        engine.run_job(&mut bfs, 1000);
        assert_eq!(
            bfs.vertex_values(),
            reference::bfs_ref(&g, 5).iter().map(|&l| l as f64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sssp_on_grid_matches_reference() {
        let g = graph();
        let (engine, _) = GridGraphEngine::convert(&g, 4);
        let mut sssp = Sssp::new(g.num_vertices, 5);
        engine.run_job(&mut sssp, 1000);
        let oracle = reference::sssp_ref(&g, 5);
        for (a, b) in sssp.distances().iter().zip(&oracle) {
            assert!((a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn selective_scheduling_skips_blocks() {
        // A BFS frontier confined to one row must stream fewer edges than
        // a full sweep.
        let g = graph();
        let (engine, _) = GridGraphEngine::convert(&g, 4);
        let mut bfs = Bfs::new(g.num_vertices, 0);
        let first_sweep = engine.stream_edges_once(&mut bfs);
        let total_edges = g.num_edges() as u64;
        assert!(
            first_sweep < total_edges,
            "frontier of 1 vertex must not stream all {total_edges} edges"
        );
    }
}
