//! Single-source shortest paths as a GraphM job.
//!
//! Streaming Bellman–Ford: edge `(s, t, w)` relaxes
//! `dist[t] = min(dist[t], dist[s] + w)`; relaxed destinations join the
//! next frontier. Like BFS, SSSP "may only need to process a part of the
//! graph data" each iteration (§3.4.1) — it exercises GraphM's inactive
//! chunk skipping and the §4 scheduler.

use graphm_core::GraphJob;
use graphm_graph::{AtomicBitmap, Edge, VertexId};

/// Distance for unreached vertices.
pub const UNREACHABLE: f32 = f32::INFINITY;

/// SSSP job state.
pub struct Sssp {
    root: VertexId,
    dist: Vec<f32>,
    active: AtomicBitmap,
    next_active: AtomicBitmap,
    relaxed: bool,
    iters: usize,
}

impl Sssp {
    /// An SSSP job from `root` over non-negative edge weights.
    pub fn new(num_vertices: VertexId, root: VertexId) -> Sssp {
        assert!(root < num_vertices, "root out of range");
        let n = num_vertices as usize;
        let mut dist = vec![UNREACHABLE; n];
        dist[root as usize] = 0.0;
        let active = AtomicBitmap::new(n);
        active.set(root as usize);
        Sssp { root, dist, active, next_active: AtomicBitmap::new(n), relaxed: false, iters: 0 }
    }

    /// The root vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Current tentative distances.
    pub fn distances(&self) -> &[f32] {
        &self.dist
    }
}

impl GraphJob for Sssp {
    fn name(&self) -> &str {
        "SSSP"
    }

    fn state_bytes_per_vertex(&self) -> usize {
        4
    }

    fn edge_cost_factor(&self) -> f64 {
        0.7
    }

    fn active(&self) -> &AtomicBitmap {
        &self.active
    }

    fn process_edge(&mut self, e: &Edge) {
        debug_assert!(e.weight >= 0.0, "SSSP requires non-negative weights");
        let cand = self.dist[e.src as usize] + e.weight;
        if cand < self.dist[e.dst as usize] {
            self.dist[e.dst as usize] = cand;
            self.next_active.set(e.dst as usize);
            self.relaxed = true;
        }
    }

    fn end_iteration(&mut self) -> bool {
        self.iters += 1;
        self.active.copy_from(&self.next_active);
        self.next_active.clear_all();
        let converged = !self.relaxed;
        self.relaxed = false;
        converged
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn vertex_values(&self) -> Vec<f64> {
        self.dist.iter().map(|&d| d as f64).collect()
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
