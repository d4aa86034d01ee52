//! Personalized PageRank — one of the "variants of PageRank" the paper's
//! introduction cites as Facebook's concurrent workload.
//!
//! Identical streaming structure to [`crate::PageRank`], but the teleport
//! mass concentrates on a seed vertex instead of spreading uniformly, so
//! different submissions of the same algorithm have genuinely different
//! job-specific data while sharing every byte of graph structure — the
//! sharing opportunity GraphM exploits.

use crate::pagerank::Push;
use graphm_core::GraphJob;
use graphm_graph::{AtomicBitmap, Edge, VertexId};
use std::sync::Arc;

/// PPR's convergence tolerance on the L1 rank delta.
pub(crate) const PPR_TOLERANCE: f64 = 1e-9;

/// Personalized PageRank job state.
pub struct PersonalizedPageRank {
    seed: VertexId,
    damping: f64,
    max_iters: usize,
    tolerance: f64,
    /// The push state PageRank uses (same edge function).
    push: Push,
    active: AtomicBitmap,
    iters: usize,
}

impl PersonalizedPageRank {
    /// A PPR job teleporting to `seed`.
    pub fn new(
        num_vertices: VertexId,
        out_degrees: Arc<Vec<u32>>,
        seed: VertexId,
        damping: f64,
        max_iters: usize,
    ) -> PersonalizedPageRank {
        assert!(seed < num_vertices, "seed out of range");
        assert!(damping > 0.0 && damping < 1.0);
        let n = num_vertices as usize;
        let mut ranks = vec![0.0; n];
        ranks[seed as usize] = 1.0;
        let active = AtomicBitmap::new(n);
        active.set_all();
        PersonalizedPageRank {
            seed,
            damping,
            max_iters,
            tolerance: PPR_TOLERANCE,
            push: Push::new(out_degrees, ranks),
            active,
            iters: 0,
        }
    }

    /// The personalization seed.
    pub fn seed(&self) -> VertexId {
        self.seed
    }

    /// Current personalized ranks.
    pub fn ranks(&self) -> &[f64] {
        self.push.ranks()
    }
}

impl GraphJob for PersonalizedPageRank {
    fn name(&self) -> &str {
        "PPR"
    }

    fn state_bytes_per_vertex(&self) -> usize {
        8
    }

    fn edge_cost_factor(&self) -> f64 {
        1.0
    }

    fn skips_inactive(&self) -> bool {
        false
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
        let (seed, teleport) = (self.seed as usize, 1.0 - self.damping);
        let delta =
            self.push.end_iteration(self.damping, |v| if v == seed { teleport } else { 0.0 });
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

    #[test]
    fn mass_stays_near_seed() {
        let g = generators::ring(10);
        let deg = Arc::new(g.out_degrees());
        let mut ppr = PersonalizedPageRank::new(10, deg, 3, 0.5, 50);
        loop {
            for e in &g.edges {
                ppr.process_edge(e);
            }
            if ppr.end_iteration() {
                break;
            }
        }
        let ranks = ppr.ranks();
        assert!(ranks[3] > ranks[8], "seed outranks the far side of the ring");
        assert!(ranks[4] > ranks[5], "rank decays along the ring");
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "no dangling vertices: mass conserved, sum={sum}");
    }

    #[test]
    fn seed_validated() {
        let r = std::panic::catch_unwind(|| {
            PersonalizedPageRank::new(3, Arc::new(vec![0, 0, 0]), 7, 0.5, 5)
        });
        assert!(r.is_err());
    }
}
