//! Breadth-first search as a GraphM job.
//!
//! Frontier-driven level assignment: iteration `k` processes out-edges of
//! the level-`k` frontier and assigns level `k + 1` to undiscovered
//! destinations. BFS is the paper's prototypical *sparse-access* benchmark:
//! "only one or a few vertices are active at the beginning, but then a
//! large number of vertices will be activated" (§4) — the workload the
//! scheduling strategy exists for.

use graphm_core::GraphJob;
use graphm_graph::{AtomicBitmap, Edge, VertexId};

/// Level value for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// BFS job state.
pub struct Bfs {
    root: VertexId,
    levels: Vec<u32>,
    active: AtomicBitmap,
    next_active: AtomicBitmap,
    discovered: bool,
    iters: usize,
}

impl Bfs {
    /// A BFS job from `root`.
    pub fn new(num_vertices: VertexId, root: VertexId) -> Bfs {
        assert!(root < num_vertices, "root out of range");
        let n = num_vertices as usize;
        let mut levels = vec![UNREACHED; n];
        levels[root as usize] = 0;
        let active = AtomicBitmap::new(n);
        active.set(root as usize);
        Bfs { root, levels, active, next_active: AtomicBitmap::new(n), discovered: false, iters: 0 }
    }

    /// The root vertex.
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// BFS levels (`UNREACHED` for unreachable vertices).
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }
}

impl GraphJob for Bfs {
    fn name(&self) -> &str {
        "BFS"
    }

    fn state_bytes_per_vertex(&self) -> usize {
        4
    }

    fn edge_cost_factor(&self) -> f64 {
        0.5
    }

    fn active(&self) -> &AtomicBitmap {
        &self.active
    }

    fn process_edge(&mut self, e: &Edge) {
        if self.levels[e.dst as usize] == UNREACHED {
            self.levels[e.dst as usize] = self.levels[e.src as usize] + 1;
            self.next_active.set(e.dst as usize);
            self.discovered = true;
        }
    }

    fn end_iteration(&mut self) -> bool {
        self.iters += 1;
        self.active.copy_from(&self.next_active);
        self.next_active.clear_all();
        let converged = !self.discovered;
        self.discovered = false;
        converged
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn vertex_values(&self) -> Vec<f64> {
        self.levels.iter().map(|&l| l as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_graph::generators;

    fn run(g: &graphm_graph::EdgeList, root: VertexId) -> Bfs {
        let mut bfs = Bfs::new(g.num_vertices, root);
        loop {
            for e in &g.edges {
                if bfs.active().get(e.src as usize) {
                    bfs.process_edge(e);
                }
            }
            if bfs.end_iteration() {
                break;
            }
        }
        bfs
    }

    #[test]
    fn path_levels() {
        let bfs = run(&generators::path(6), 0);
        assert_eq!(bfs.levels(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn unreachable_stays_unreached() {
        let bfs = run(&generators::path(6), 3);
        assert_eq!(bfs.levels()[0], UNREACHED);
        assert_eq!(bfs.levels()[3], 0);
        assert_eq!(bfs.levels()[5], 2);
    }

    #[test]
    fn star_one_hop() {
        let bfs = run(&generators::star(8), 0);
        assert_eq!(bfs.levels()[0], 0);
        for v in 1..8 {
            assert_eq!(bfs.levels()[v], 1);
        }
        assert_eq!(bfs.iterations(), 2, "frontier empties after hop 1");
    }

    #[test]
    fn only_frontier_active() {
        let g = generators::path(6);
        let bfs = Bfs::new(6, 2);
        assert!(bfs.skips_inactive());
        assert_eq!(bfs.active().count(), 1);
        assert!(bfs.active().get(2));
        let _ = g;
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn root_validated() {
        Bfs::new(4, 9);
    }
}
