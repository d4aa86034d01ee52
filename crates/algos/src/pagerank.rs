//! PageRank as a GraphM job.
//!
//! The paper's job generator randomizes the damping factor per submission
//! ("the damping factor is randomly set by a value between 0.1 and 0.85
//! for each PageRank job", §5.1); PageRank is the network-intensive
//! benchmark that streams the whole graph every iteration.
//!
//! Push-style synchronous iteration: each edge `(s, t)` transfers
//! `rank[s] / out_degree[s]` into `next[t]`; `end_iteration` applies the
//! damping rule, tests the L1 delta against a tolerance, and computes the
//! next iteration's per-vertex quotients once (see `Push`).

use graphm_core::GraphJob;
use graphm_graph::{AtomicBitmap, Edge, VertexId};
use std::sync::Arc;

/// PageRank job state (the paper's job-specific data `S`).
pub struct PageRank {
    damping: f64,
    max_iters: usize,
    tolerance: f64,
    push: Push,
    active: AtomicBitmap,
    iters: usize,
}

/// The push-update state [`PageRank`] and [`crate::PersonalizedPageRank`]
/// share — their edge functions are identical; only the teleport rule of
/// `end_iteration` differs.
///
/// Each edge `(s, t)` adds `ranks[s] / deg[s]` into `next[t]`. That
/// quotient is constant for the whole iteration, so it is computed once
/// per vertex into `contrib` (`0.0` where `deg` is 0) and the per-edge
/// work is one load and one add. It is the same IEEE division of the same
/// operands, so ranks are bit-identical to dividing on every edge; and as
/// `next` starts at `+0.0` and only ever receives non-negative terms, it
/// is never `-0.0`, so adding a degree-0 source's `0.0` leaves it bit for
/// bit unchanged — no per-edge degree test.
pub(crate) struct Push {
    out_degrees: Arc<Vec<u32>>,
    ranks: Vec<f64>,
    /// `ranks[v] / deg[v]` for the current iteration, rewritten in
    /// `end_iteration`.
    contrib: Vec<f64>,
    next: Vec<f64>,
}

/// PageRank's default convergence tolerance on the L1 rank delta.
pub(crate) const PAGERANK_TOLERANCE: f64 = 1e-7;

/// A source's share of its rank: `rank / deg`, or `0.0` without out-edges.
#[inline]
pub(crate) fn contribution(rank: f64, deg: u32) -> f64 {
    if deg > 0 {
        rank / deg as f64
    } else {
        0.0
    }
}

impl Push {
    /// Push state starting from `ranks`.
    pub(crate) fn new(out_degrees: Arc<Vec<u32>>, ranks: Vec<f64>) -> Push {
        assert_eq!(out_degrees.len(), ranks.len());
        let contrib = ranks.iter().zip(out_degrees.iter()).map(|(&r, &d)| contribution(r, d));
        let contrib = contrib.collect();
        let next = vec![0.0; ranks.len()];
        Push { out_degrees, ranks, contrib, next }
    }

    /// Current ranks.
    pub(crate) fn ranks(&self) -> &[f64] {
        &self.ranks
    }

    /// One edge: the chunk loop over a one-edge chunk.
    #[inline]
    pub(crate) fn process_edge(&mut self, e: &Edge) {
        self.process_chunk(std::slice::from_ref(e));
    }

    /// The chunk loop: every edge, in order (all vertices are active).
    /// It overrides the trait's default body, which calls `process_edge`
    /// per edge, because borrowing `next` and `contrib` once per chunk
    /// measured faster where the add is the whole edge function
    /// (PageRank alone on one thread, a 100k-vertex 2M-edge R-MAT graph,
    /// 2 vCPUs: 138–201 Medges/s through the default body, 210–262
    /// through this loop).
    pub(crate) fn process_chunk(&mut self, edges: &[Edge]) -> u64 {
        let (next, contrib) = (&mut self.next[..], &self.contrib[..]);
        for e in edges {
            next[e.dst as usize] += contrib[e.src as usize];
        }
        edges.len() as u64
    }

    /// Ends the iteration: `rank = teleport(v) + damping · next[v]`,
    /// refreshes `contrib` and resets `next`. Returns the L1 rank delta.
    pub(crate) fn end_iteration(&mut self, damping: f64, teleport: impl Fn(usize) -> f64) -> f64 {
        let mut delta = 0.0;
        let state = self.ranks.iter_mut().zip(self.next.iter_mut()).zip(self.contrib.iter_mut());
        for (v, ((r, nx), c)) in state.enumerate() {
            let new = teleport(v) + damping * *nx;
            delta += (new - *r).abs();
            *r = new;
            *c = contribution(new, self.out_degrees[v]);
            *nx = 0.0;
        }
        delta
    }
}

impl PageRank {
    /// Creates a PageRank job. `out_degrees` comes from the preprocessed
    /// graph (all engines expose it); `damping ∈ (0, 1)`; iteration stops
    /// at `max_iters` or when the L1 rank delta drops below `tolerance`.
    pub fn new(
        num_vertices: VertexId,
        out_degrees: Arc<Vec<u32>>,
        damping: f64,
        max_iters: usize,
    ) -> PageRank {
        assert!(damping > 0.0 && damping < 1.0, "damping must be in (0, 1)");
        assert_eq!(out_degrees.len(), num_vertices as usize);
        let n = num_vertices as usize;
        let init = 1.0 / n.max(1) as f64;
        let active = AtomicBitmap::new(n);
        active.set_all();
        PageRank {
            damping,
            max_iters,
            tolerance: PAGERANK_TOLERANCE,
            push: Push::new(out_degrees, vec![init; n]),
            active,
            iters: 0,
        }
    }

    /// Overrides the convergence tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> PageRank {
        self.tolerance = tolerance;
        self
    }

    /// The damping factor of this job.
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// Current ranks.
    pub fn ranks(&self) -> &[f64] {
        self.push.ranks()
    }
}

impl GraphJob for PageRank {
    fn name(&self) -> &str {
        "PageRank"
    }

    fn state_bytes_per_vertex(&self) -> usize {
        8
    }

    fn edge_cost_factor(&self) -> f64 {
        1.0
    }

    fn skips_inactive(&self) -> bool {
        false // streams the entire graph structure every iteration (§3.4.1)
    }

    fn active(&self) -> &AtomicBitmap {
        &self.active
    }

    fn process_edge(&mut self, e: &Edge) {
        self.push.process_edge(e);
    }

    fn process_chunk(&mut self, edges: &[Edge]) -> u64 {
        self.push.process_chunk(edges)
    }

    fn end_iteration(&mut self) -> bool {
        self.iters += 1;
        let n = self.push.ranks().len().max(1) as f64;
        let base = (1.0 - self.damping) / n;
        let delta = self.push.end_iteration(self.damping, |_| base);
        self.iters >= self.max_iters || delta < self.tolerance
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn vertex_values(&self) -> Vec<f64> {
        self.push.ranks().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_graph::generators;

    fn run_streaming(g: &graphm_graph::EdgeList, damping: f64, iters: usize) -> Vec<f64> {
        let deg = Arc::new(g.out_degrees());
        let mut pr = PageRank::new(g.num_vertices, deg, damping, iters);
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
        let deg = Arc::new(g.out_degrees());
        let mut pr = PageRank::new(16, deg, 0.85, 1000).with_tolerance(1e-10);
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
        let result = std::panic::catch_unwind(|| PageRank::new(2, Arc::new(vec![0, 0]), 1.5, 5));
        assert!(result.is_err());
    }

    #[test]
    fn all_vertices_stay_active() {
        let g = generators::path(8);
        let deg = Arc::new(g.out_degrees());
        let mut pr = PageRank::new(8, deg, 0.85, 3);
        assert!(!pr.skips_inactive());
        assert_eq!(pr.active().count(), 8);
        for e in &g.edges {
            pr.process_edge(e);
        }
        pr.end_iteration();
        assert_eq!(pr.active().count(), 8);
    }
}
