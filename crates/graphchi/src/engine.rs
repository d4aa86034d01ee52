//! The GraphChi-style host engine.
//!
//! GraphChi [Kyrola et al., OSDI '12] processes a graph in `P` vertex
//! intervals; executing interval `s` loads its *memory shard* (all
//! in-edges of the interval) plus a *sliding window* of every other shard.
//! One full iteration visits every interval, so every edge is streamed
//! once per iteration — like GridGraph, but with the heavier per-interval
//! load set that makes GraphChi's absolute times larger (Table 4).

use graphm_core::GraphJob;
use graphm_graph::{EdgeList, Shards};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A preprocessed GraphChi instance.
pub struct GraphChiEngine {
    shards: Arc<Shards>,
    out_degrees: Arc<Vec<u32>>,
}

impl GraphChiEngine {
    /// `Convert()` — shards an edge list (Table 3's GraphChi-style
    /// preprocessing), returning the engine and the conversion time.
    pub fn convert(graph: &EdgeList, p: usize) -> (GraphChiEngine, Duration) {
        let start = Instant::now();
        let shards = Shards::convert(graph, p);
        let out_degrees = graph.out_degrees();
        (
            GraphChiEngine { shards: Arc::new(shards), out_degrees: Arc::new(out_degrees) },
            start.elapsed(),
        )
    }

    /// The underlying shards.
    pub fn shards(&self) -> &Arc<Shards> {
        &self.shards
    }

    /// Out-degrees of the converted graph.
    pub fn out_degrees(&self) -> Arc<Vec<u32>> {
        Arc::clone(&self.out_degrees)
    }

    /// One parallel-sliding-windows iteration for one job: walks intervals
    /// in order, streaming each memory shard's edges. Returns edges
    /// streamed.
    pub fn psw_once(&self, job: &mut dyn GraphJob) -> u64 {
        let mut streamed = 0u64;
        for s in 0..self.shards.num_shards() {
            let shard = self.shards.shard(s);
            streamed += shard.len() as u64;
            job.process_chunk(shard);
        }
        streamed
    }

    /// Runs one job to convergence (or `max_iters`); returns iterations.
    pub fn run_job(&self, job: &mut dyn GraphJob, max_iters: usize) -> usize {
        for i in 0..max_iters {
            self.psw_once(job);
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
        generators::rmat(250, 2000, generators::RmatParams::GRAPH500, 91)
    }

    #[test]
    fn pagerank_on_shards_matches_reference() {
        let g = graph();
        let (engine, prep) = GraphChiEngine::convert(&g, 4);
        assert!(prep.as_nanos() > 0);
        let mut pr = RankBundle::pagerank(g.num_vertices, engine.out_degrees(), &[(0.85, 6)])
            .with_tolerance(0.0);
        engine.run_job(&mut pr, 6);
        let oracle = reference::pagerank_ref(&g, 0.85, 6, 0.0);
        for (a, b) in pr.vertex_values().iter().zip(&oracle) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn frontier_algorithms_match_reference() {
        let g = graph();
        let (engine, _) = GraphChiEngine::convert(&g, 5);
        let mut bfs = Bfs::new(g.num_vertices, 2);
        engine.run_job(&mut bfs, 1000);
        assert_eq!(
            bfs.vertex_values(),
            reference::bfs_ref(&g, 2).iter().map(|&l| l as f64).collect::<Vec<_>>()
        );
        let mut wcc = Wcc::new(g.num_vertices);
        engine.run_job(&mut wcc, 1000);
        assert_eq!(wcc.labels(), reference::wcc_ref(&g).as_slice());
        let mut sssp = Sssp::new(g.num_vertices, 2);
        engine.run_job(&mut sssp, 1000);
        let oracle = reference::sssp_ref(&g, 2);
        for (a, b) in sssp.distances().iter().zip(&oracle) {
            assert!((a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn one_iteration_streams_every_edge_once() {
        let g = graph();
        let (engine, _) = GraphChiEngine::convert(&g, 4);
        let mut pr = RankBundle::pagerank(g.num_vertices, engine.out_degrees(), &[(0.85, 1)])
            .with_tolerance(0.0);
        assert_eq!(engine.psw_once(&mut pr), g.num_edges() as u64);
    }
}
