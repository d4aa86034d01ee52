//! Single-source shortest paths as a GraphM job.
//!
//! Streaming Bellman–Ford: edge `(s, t, w)` relaxes
//! `dist[t] = min(dist[t], dist[s] + w)`; relaxed destinations join the
//! next frontier. Like BFS, SSSP "may only need to process a part of the
//! graph data" each iteration (§3.4.1) — it exercises GraphM's inactive
//! chunk skipping and the §4 scheduler. Up to four SSSP jobs of a cohort
//! share each edge read as members of one [`Sssp`].

use crate::traversal::{Relax, Traversal};
use graphm_core::{ChunkEntry, GraphJob, Retired};
use graphm_graph::{AtomicBitmap, Edge, VertexId};

/// Distance for unreached vertices.
pub const UNREACHABLE: f32 = f32::INFINITY;

impl Relax for f32 {
    const ROOT: f32 = 0.0;
    const UNREACHED: f32 = UNREACHABLE;

    #[inline]
    fn relax(from: f32, to: &mut f32, e: &Edge) -> bool {
        debug_assert!(e.weight >= 0.0, "SSSP requires non-negative weights");
        let cand = from + e.weight;
        let moved = cand < *to;
        if moved {
            *to = cand;
        }
        moved
    }

    fn report(self) -> f64 {
        self as f64
    }
}

/// The SSSP kernel: 1, 2 or 4 members, one per root, served as one job
/// so that one read of a run of edges relaxes it for every member whose
/// frontier holds its source (see `traversal.rs`). A solo SSSP job is a
/// bundle of one ([`Sssp::new`]). Members are numbered in the order
/// their roots were given; each keeps its own distances, frontier,
/// relaxed flag, iterations and edges processed, bit for bit those of a
/// bundle of one.
pub struct Sssp {
    lanes: Traversal<f32>,
}

impl Sssp {
    /// An SSSP job from `root` over non-negative edge weights: a bundle
    /// of one.
    pub fn new(num_vertices: VertexId, root: VertexId) -> Sssp {
        Sssp::bundle(num_vertices, &[root])
    }

    /// One member per root, over non-negative edge weights.
    ///
    /// # Panics
    ///
    /// Unless there are 1, 2 or 4 roots, each below `num_vertices`.
    pub fn bundle(num_vertices: VertexId, roots: &[VertexId]) -> Sssp {
        Sssp { lanes: Traversal::new(num_vertices, roots) }
    }

    /// Member 0's tentative distances.
    pub fn distances(&self) -> Vec<f32> {
        self.lanes.values(0)
    }
}

impl GraphJob for Sssp {
    fn name(&self) -> &str {
        "SSSP"
    }

    fn state_bytes_per_vertex(&self) -> usize {
        4 * self.lanes.width()
    }

    fn edge_cost_factor(&self) -> f64 {
        0.7
    }

    fn active(&self) -> &AtomicBitmap {
        self.lanes.active()
    }

    fn process_edge(&mut self, e: &Edge) {
        let run = ChunkEntry { vertex: e.src, out_edges: 1 };
        self.lanes.process_chunk(std::slice::from_ref(e), &[run]);
    }

    fn process_chunk(&mut self, edges: &[Edge], runs: &[ChunkEntry]) -> u64 {
        self.lanes.process_chunk(edges, runs)
    }

    fn end_iteration(&mut self) -> bool {
        self.lanes.end_iteration()
    }

    fn iterations(&self) -> usize {
        self.lanes.iterations()
    }

    /// Member 0's distances.
    fn vertex_values(&self) -> Vec<f64> {
        self.distances().into_iter().map(f64::from).collect()
    }

    fn members(&self) -> usize {
        self.lanes.width()
    }

    fn member_frontiers(&self) -> Option<&[u8]> {
        Some(self.lanes.frontiers())
    }

    fn retire_members(&mut self, idle: &[usize]) -> Vec<Retired> {
        self.lanes.retire(idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_graph::{generators, EdgeList};

    fn run(g: &EdgeList, root: VertexId) -> Sssp {
        let mut sssp = Sssp::new(g.num_vertices, root);
        loop {
            for e in &g.edges {
                if sssp.active().get(e.src as usize) {
                    sssp.process_edge(e);
                }
            }
            if sssp.end_iteration() {
                break;
            }
        }
        sssp
    }

    #[test]
    fn weighted_diamond_picks_shorter_path() {
        // 0 -> 1 (1.0) -> 3 (1.0)  vs  0 -> 2 (5.0) -> 3 (0.5)
        let g = EdgeList::from_edges(
            4,
            vec![
                Edge::weighted(0, 1, 1.0),
                Edge::weighted(1, 3, 1.0),
                Edge::weighted(0, 2, 5.0),
                Edge::weighted(2, 3, 0.5),
            ],
        )
        .unwrap();
        let s = run(&g, 0);
        assert_eq!(s.distances()[3], 2.0);
        assert_eq!(s.distances()[2], 5.0);
    }

    #[test]
    fn unreachable_is_infinite() {
        let s = run(&generators::path(4), 2);
        assert!(s.distances()[0].is_infinite());
        assert_eq!(s.distances()[2], 0.0);
    }

    #[test]
    fn path_distances_accumulate_weights() {
        let mut g = EdgeList::new(5);
        for i in 0..4u32 {
            g.edges.push(Edge::weighted(i, i + 1, (i + 1) as f32));
        }
        let s = run(&g, 0);
        assert_eq!(s.distances()[4], 1.0 + 2.0 + 3.0 + 4.0);
    }

    #[test]
    fn converges_on_cycle() {
        let s = run(&generators::ring(10), 0);
        // weight 1.0 default: dist[k] = k.
        for k in 0..10usize {
            assert_eq!(s.distances()[k], k as f32);
        }
    }
}
