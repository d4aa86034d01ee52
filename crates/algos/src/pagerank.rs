//! PageRank as a GraphM job: [`RankBundle::pagerank`].
//!
//! The paper's job generator randomizes the damping factor per submission
//! ("the damping factor is randomly set by a value between 0.1 and 0.85
//! for each PageRank job", §5.1); PageRank is the network-intensive
//! benchmark that streams the whole graph every iteration. Every vertex
//! starts at `1/n` and teleports `(1 - damping)/n`.

use crate::bundle::{Lane, RankBundle};
use graphm_graph::VertexId;
use std::sync::Arc;

/// PageRank's default convergence tolerance on the L1 rank delta.
pub(crate) const PAGERANK_TOLERANCE: f64 = 1e-7;

impl RankBundle {
    /// PageRank members, one per `(damping, max_iters)`. `out_degrees`
    /// comes from the preprocessed graph (all engines expose it); a
    /// member stops at `max_iters` or when its L1 rank delta drops below
    /// its tolerance (see [`RankBundle::with_tolerance`]).
    ///
    /// # Panics
    ///
    /// Unless there are 1, 2 or 4 members, each damping in `(0, 1)`.
    pub fn pagerank(
        num_vertices: VertexId,
        out_degrees: Arc<Vec<u32>>,
        members: &[(f64, usize)],
    ) -> RankBundle {
        let n = (num_vertices as usize).max(1) as f64;
        let lanes = members.iter().map(|&(damping, max_iters)| {
            let base = (1.0 - damping) / n;
            Lane {
                damping,
                max_iters,
                tolerance: PAGERANK_TOLERANCE,
                base,
                seed: usize::MAX,
                seed_mass: base,
            }
        });
        let init = 1.0 / n;
        RankBundle::new("PageRank", num_vertices, out_degrees, lanes.collect(), |_, _| init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_core::GraphJob;
    use graphm_graph::generators;

    fn pagerank(g: &graphm_graph::EdgeList, damping: f64, iters: usize) -> RankBundle {
        RankBundle::pagerank(g.num_vertices, Arc::new(g.out_degrees()), &[(damping, iters)])
    }

    fn run_streaming(g: &graphm_graph::EdgeList, damping: f64, iters: usize) -> Vec<f64> {
        let mut pr = pagerank(g, damping, iters);
        loop {
            for e in &g.edges {
                pr.process_edge(e);
            }
            if pr.end_iteration() {
                break;
            }
        }
        pr.vertex_values()
    }

    #[test]
    fn ranks_sum_to_one_without_dangling() {
        let g = generators::ring(50); // every vertex has out-degree 1
        let ranks = run_streaming(&g, 0.85, 30);
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        // Ring symmetry: all ranks equal.
        for r in &ranks {
            assert!((r - ranks[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn star_center_receives_no_rank_mass() {
        let g = generators::star(10); // 0 -> 1..9, no edges into 0
        let ranks = run_streaming(&g, 0.5, 20);
        let n = 10.0;
        assert!((ranks[0] - 0.5 / n).abs() < 1e-9, "center keeps only base rank");
        assert!(ranks[1] > ranks[0]);
    }

    #[test]
    fn converges_before_max_iters() {
        let g = generators::ring(16);
        let mut pr = pagerank(&g, 0.85, 1000).with_tolerance(1e-10);
        let mut iters = 0;
        loop {
            for e in &g.edges {
                pr.process_edge(e);
            }
            iters += 1;
            if pr.end_iteration() {
                break;
            }
        }
        assert!(iters < 1000, "should converge, took {iters}");
        assert_eq!(pr.iterations(), iters);
    }

    #[test]
    fn damping_validated() {
        for damping in [0.0, 1.0, 1.5] {
            let result = std::panic::catch_unwind(|| {
                RankBundle::pagerank(2, Arc::new(vec![0, 0]), &[(damping, 5)])
            });
            assert!(result.is_err(), "damping {damping}");
        }
    }

    #[test]
    fn all_vertices_stay_active() {
        let g = generators::path(8);
        let mut pr = pagerank(&g, 0.85, 3);
        assert!(!pr.skips_inactive());
        assert_eq!(pr.active().count(), 8);
        for e in &g.edges {
            pr.process_edge(e);
        }
        pr.end_iteration();
        assert_eq!(pr.active().count(), 8);
    }
}
