//! Sequential reference implementations ("oracles").
//!
//! Every integration test compares scheme results against these: if
//! GridGraph-S/-C/-M (or any other engine) disagrees with the oracle,
//! the storage layer corrupted the computation. The oracles run on plain
//! CSR with textbook algorithms, structurally unrelated to the streaming
//! engines, so agreement is meaningful.

use graphm_graph::{Csr, EdgeList, VertexId};
use std::collections::VecDeque;

/// Reference PageRank: synchronous power iteration with uniform
/// teleport (push-based with rank leak at dangling vertices), run for
/// exactly `iters` iterations or until the L1 delta drops below
/// `tolerance`.
pub fn pagerank_ref(g: &EdgeList, damping: f64, iters: usize, tolerance: f64) -> Vec<f64> {
    let n = g.num_vertices as usize;
    let base = (1.0 - damping) / n as f64;
    power_iteration(g, damping, iters, tolerance, vec![1.0 / n as f64; n], |_| base).0
}

/// Reference personalized PageRank: power iteration starting with all
/// mass on `seed` and teleporting `1 - damping` there. Returns the ranks
/// and the iterations run.
pub fn ppr_ref(
    g: &EdgeList,
    seed: VertexId,
    damping: f64,
    iters: usize,
    tolerance: f64,
) -> (Vec<f64>, usize) {
    let (n, seed) = (g.num_vertices as usize, seed as usize);
    let init = (0..n).map(|v| if v == seed { 1.0 } else { 0.0 }).collect();
    let teleport = |v| if v == seed { 1.0 - damping } else { 0.0 };
    power_iteration(g, damping, iters, tolerance, init, teleport)
}

/// The textbook loop both rank oracles share: from `ranks`, each
/// iteration pushes `rank / out_degree` along every edge of `g` in order,
/// then sets `rank = teleport(v) + damping · received`; it stops after
/// `iters` iterations or once the L1 delta drops below `tolerance`.
/// Returns the ranks and the iterations run.
pub(crate) fn power_iteration(
    g: &EdgeList,
    damping: f64,
    iters: usize,
    tolerance: f64,
    mut ranks: Vec<f64>,
    teleport: impl Fn(usize) -> f64,
) -> (Vec<f64>, usize) {
    let deg = g.out_degrees();
    let mut next = vec![0.0f64; ranks.len()];
    for iteration in 1..=iters {
        for e in &g.edges {
            let d = deg[e.src as usize];
            if d > 0 {
                next[e.dst as usize] += ranks[e.src as usize] / d as f64;
            }
        }
        let mut delta = 0.0;
        for (v, (r, nx)) in ranks.iter_mut().zip(next.iter_mut()).enumerate() {
            let new = teleport(v) + damping * *nx;
            delta += (new - *r).abs();
            *r = new;
            *nx = 0.0;
        }
        if delta < tolerance {
            return (ranks, iteration);
        }
    }
    (ranks, iters)
}

/// Reference WCC fixpoint: repeated min-label relaxation over the edge
/// list until nothing changes (matches the streaming job's "minimum
/// reaching id" semantics on directed inputs).
pub fn wcc_ref(g: &EdgeList) -> Vec<VertexId> {
    let n = g.num_vertices as usize;
    let mut labels: Vec<VertexId> = (0..g.num_vertices).collect();
    let mut changed = n > 0;
    while changed {
        changed = false;
        for e in &g.edges {
            let ls = labels[e.src as usize];
            if ls < labels[e.dst as usize] {
                labels[e.dst as usize] = ls;
                changed = true;
            }
        }
    }
    labels
}

/// Reference BFS levels via a queue.
pub fn bfs_ref(g: &EdgeList, root: VertexId) -> Vec<u32> {
    let csr = Csr::from_edge_list(g);
    let n = csr.num_vertices();
    let mut levels = vec![u32::MAX; n];
    levels[root as usize] = 0;
    let mut q = VecDeque::from([root]);
    while let Some(v) = q.pop_front() {
        for &t in csr.neighbors(v) {
            if levels[t as usize] == u32::MAX {
                levels[t as usize] = levels[v as usize] + 1;
                q.push_back(t);
            }
        }
    }
    levels
}

/// Reference SSSP via Bellman–Ford to fixpoint (weights are non-negative
/// in our generators; Bellman–Ford keeps the oracle independent of the
/// streaming implementation while computing the same fixpoint).
pub fn sssp_ref(g: &EdgeList, root: VertexId) -> Vec<f32> {
    let n = g.num_vertices as usize;
    let mut dist = vec![f32::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut changed = true;
    while changed {
        changed = false;
        for e in &g.edges {
            if dist[e.src as usize].is_finite() {
                let cand = dist[e.src as usize] + e.weight;
                if cand < dist[e.dst as usize] {
                    dist[e.dst as usize] = cand;
                    changed = true;
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bfs, RankBundle, Sssp, Wcc};
    use graphm_core::GraphJob;
    use graphm_graph::generators;
    use std::sync::Arc;

    /// Drives a job sequentially over the raw edge list (no engine).
    fn drive(job: &mut dyn GraphJob, g: &EdgeList, max_iters: usize) {
        for _ in 0..max_iters {
            for e in &g.edges {
                if !job.skips_inactive() || job.active().get(e.src as usize) {
                    job.process_edge(e);
                }
            }
            if job.end_iteration() {
                break;
            }
        }
    }

    use graphm_graph::EdgeList;

    #[test]
    fn streaming_pagerank_matches_reference() {
        let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 3);
        let deg = Arc::new(g.out_degrees());
        let mut job = RankBundle::pagerank(200, deg, &[(0.85, 10)]).with_tolerance(0.0);
        drive(&mut job, &g, 10);
        let oracle = pagerank_ref(&g, 0.85, 10, 0.0);
        for (a, b) in job.vertex_values().iter().zip(&oracle) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn streaming_wcc_matches_reference() {
        let g = generators::symmetrize(&generators::rmat(
            150,
            600,
            generators::RmatParams::GRAPH500,
            4,
        ));
        let mut job = Wcc::new(150);
        drive(&mut job, &g, 1000);
        assert_eq!(job.labels(), wcc_ref(&g).as_slice());
    }

    #[test]
    fn streaming_bfs_matches_reference() {
        let g = generators::rmat(150, 900, generators::RmatParams::GRAPH500, 5);
        let mut job = Bfs::new(150, 3);
        drive(&mut job, &g, 1000);
        assert_eq!(job.levels(), bfs_ref(&g, 3).as_slice());
    }

    #[test]
    fn streaming_sssp_matches_reference() {
        let g = generators::rmat(150, 900, generators::RmatParams::GRAPH500, 6);
        let mut job = Sssp::new(150, 3);
        drive(&mut job, &g, 1000);
        let oracle = sssp_ref(&g, 3);
        for (a, b) in job.distances().iter().zip(&oracle) {
            assert!((a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn empty_graph_oracles() {
        let g = EdgeList::new(0);
        assert!(pagerank_ref(&g, 0.85, 5, 0.0).is_empty());
        assert!(wcc_ref(&g).is_empty());
    }
}
