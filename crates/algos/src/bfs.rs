//! Breadth-first search as a GraphM job.
//!
//! Frontier-driven level assignment: iteration `k` processes out-edges of
//! the level-`k` frontier and assigns level `k + 1` to undiscovered
//! destinations. BFS is the paper's prototypical *sparse-access* benchmark:
//! "only one or a few vertices are active at the beginning, but then a
//! large number of vertices will be activated" (§4) — the workload the
//! scheduling strategy exists for. Up to four BFS jobs of a cohort share
//! each edge read as members of one [`Bfs`].

use crate::traversal::{Relax, Traversal};
use graphm_core::{ChunkEntry, GraphJob, Retired};
use graphm_graph::{AtomicBitmap, Edge, VertexId};

/// Level value for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

impl Relax for u32 {
    const ROOT: u32 = 0;
    const UNREACHED: u32 = UNREACHED;

    #[inline]
    fn relax(from: u32, to: &mut u32, _: &Edge) -> bool {
        let moved = *to == UNREACHED;
        if moved {
            *to = from + 1;
        }
        moved
    }

    fn report(self) -> f64 {
        self as f64
    }
}

/// The BFS kernel: 1, 2 or 4 members, one per root, served as one job
/// so that one read of a run of edges expands it for every member whose
/// frontier holds its source (see `traversal.rs`). A solo BFS job is a
/// bundle of one ([`Bfs::new`]). Members are numbered in the order their
/// roots were given; each keeps its own levels, frontier, discovered
/// flag, iterations and edges processed, bit for bit those of a bundle of
/// one.
pub struct Bfs {
    lanes: Traversal<u32>,
}

impl Bfs {
    /// A BFS job from `root`: a bundle of one.
    pub fn new(num_vertices: VertexId, root: VertexId) -> Bfs {
        Bfs::bundle(num_vertices, &[root])
    }

    /// One member per root.
    ///
    /// # Panics
    ///
    /// Unless there are 1, 2 or 4 roots, each below `num_vertices`.
    pub fn bundle(num_vertices: VertexId, roots: &[VertexId]) -> Bfs {
        Bfs { lanes: Traversal::new(num_vertices, roots) }
    }

    /// Member 0's BFS levels (`UNREACHED` for unreachable vertices).
    pub fn levels(&self) -> Vec<u32> {
        self.lanes.values(0)
    }
}

impl GraphJob for Bfs {
    fn name(&self) -> &str {
        "BFS"
    }

    fn state_bytes_per_vertex(&self) -> usize {
        4 * self.lanes.width()
    }

    fn edge_cost_factor(&self) -> f64 {
        0.5
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

    /// Member 0's levels.
    fn vertex_values(&self) -> Vec<f64> {
        self.levels().into_iter().map(f64::from).collect()
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
