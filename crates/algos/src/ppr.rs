//! Personalized PageRank — one of the "variants of PageRank" the paper's
//! introduction cites as Facebook's concurrent workload:
//! [`RankBundle::ppr`].
//!
//! Identical streaming structure to PageRank, but the teleport mass
//! concentrates on a seed vertex instead of spreading uniformly, so
//! different submissions of the same algorithm have genuinely different
//! job-specific data while sharing every byte of graph structure — the
//! sharing opportunity GraphM exploits.

use crate::bundle::{Lane, RankBundle};
use graphm_graph::VertexId;
use std::sync::Arc;

/// PPR's convergence tolerance on the L1 rank delta.
pub(crate) const PPR_TOLERANCE: f64 = 1e-9;

impl RankBundle {
    /// PPR members, one per `(seed, damping, max_iters)`: each starts
    /// with all its mass on `seed` and teleports `1 - damping` there.
    ///
    /// # Panics
    ///
    /// Unless there are 1, 2 or 4 members, each seed a vertex and each
    /// damping in `(0, 1)`.
    pub fn ppr(
        num_vertices: VertexId,
        out_degrees: Arc<Vec<u32>>,
        members: &[(VertexId, f64, usize)],
    ) -> RankBundle {
        let lanes: Vec<Lane> = members
            .iter()
            .map(|&(seed, damping, max_iters)| {
                assert!(seed < num_vertices, "seed out of range");
                let (seed, seed_mass) = (seed as usize, 1.0 - damping);
                Lane { damping, max_iters, tolerance: PPR_TOLERANCE, base: 0.0, seed, seed_mass }
            })
            .collect();
        let seeds: Vec<usize> = lanes.iter().map(|lane| lane.seed).collect();
        let init = move |k: usize, v: usize| if v == seeds[k] { 1.0 } else { 0.0 };
        RankBundle::new("PPR", num_vertices, out_degrees, lanes, init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_core::GraphJob;
    use graphm_graph::generators;

    #[test]
    fn mass_stays_near_seed() {
        let g = generators::ring(10);
        let deg = Arc::new(g.out_degrees());
        let mut ppr = RankBundle::ppr(10, deg, &[(3, 0.5, 50)]);
        loop {
            for e in &g.edges {
                ppr.process_edge(e);
            }
            if ppr.end_iteration() {
                break;
            }
        }
        let ranks = ppr.vertex_values();
        assert!(ranks[3] > ranks[8], "seed outranks the far side of the ring");
        assert!(ranks[4] > ranks[5], "rank decays along the ring");
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "no dangling vertices: mass conserved, sum={sum}");
    }

    #[test]
    fn seed_validated() {
        let r = std::panic::catch_unwind(|| {
            RankBundle::ppr(3, Arc::new(vec![0, 0, 0]), &[(7, 0.5, 5)])
        });
        assert!(r.is_err());
    }
}
