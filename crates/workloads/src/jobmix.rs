//! The §5.1 job-mix generator.
//!
//! "We submit WCC, PageRank, SSSP, and BFS in turn in a sequential or
//! concurrent manner until the specific number of jobs are generated,
//! where the parameters are randomly set for different jobs":
//!
//! * PageRank — damping uniform in `[0.1, 0.85]`;
//! * BFS / SSSP — uniformly random root vertices;
//! * WCC — iteration cap uniform in `[1, max]`.

use graphm_algos::{Bfs, LabelPropagation, RankBundle, Sssp, Wcc};
use graphm_core::GraphJob;
use graphm_graph::{Csr, EdgeList, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Algorithm families available to the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoKind {
    /// Weakly connected components.
    Wcc,
    /// PageRank.
    PageRank,
    /// Single-source shortest paths.
    Sssp,
    /// Breadth-first search.
    Bfs,
    /// Personalized PageRank (extension workload).
    Ppr,
    /// Min-hash label propagation (extension workload).
    LabelProp,
}

impl AlgoKind {
    /// The paper's §5.1 rotation: WCC, PageRank, SSSP, BFS, in turn.
    pub const PAPER_MIX: [AlgoKind; 4] =
        [AlgoKind::Wcc, AlgoKind::PageRank, AlgoKind::Sssp, AlgoKind::Bfs];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::Wcc => "WCC",
            AlgoKind::PageRank => "PageRank",
            AlgoKind::Sssp => "SSSP",
            AlgoKind::Bfs => "BFS",
            AlgoKind::Ppr => "PPR",
            AlgoKind::LabelProp => "LabelProp",
        }
    }
}

/// A fully parameterized job waiting to be instantiated.
#[derive(Clone, Copy, Debug)]
pub struct JobSpec {
    /// Algorithm family.
    pub kind: AlgoKind,
    /// Damping factor (PageRank/PPR).
    pub damping: f64,
    /// Root/seed vertex (BFS/SSSP/PPR) or salt (LabelProp).
    pub root: VertexId,
    /// Iteration cap (WCC's random cap; PageRank's max iterations).
    pub max_iters: usize,
}

impl JobSpec {
    /// Instantiates the runnable job for a graph with `num_vertices`
    /// vertices and the given out-degrees: the cohort of this one spec.
    pub fn instantiate(
        &self,
        num_vertices: VertexId,
        out_degrees: &Arc<Vec<u32>>,
    ) -> Box<dyn GraphJob> {
        let mut cohort = JobSpec::instantiate_cohort(&[*self], num_vertices, out_degrees);
        cohort.pop().expect("one spec makes one job").1
    }

    /// Instantiates `specs` as the jobs of one cohort, same-kind specs
    /// sharing a job so that one read of an edge feeds them all:
    ///
    /// * PageRank specs in [`RankBundle`]s of 4, then one of 2, then one
    ///   of 1 (never padded); PPR, SSSP and BFS specs the same, each kind
    ///   among itself ([`Sssp::bundle`], [`Bfs::bundle`]);
    /// * every WCC spec in one [`Wcc`];
    /// * every label-propagation spec alone.
    ///
    /// Each job comes with the indices into `specs` of its members, in
    /// member order; jobs are in the order of their first members. A
    /// member reports, bit for bit, what its spec's
    /// [`JobSpec::instantiate`] job reports in the same cohort admitted
    /// one job per spec.
    pub fn instantiate_cohort(
        specs: &[JobSpec],
        num_vertices: VertexId,
        out_degrees: &Arc<Vec<u32>>,
    ) -> Vec<(Vec<usize>, Box<dyn GraphJob>)> {
        let of_kind =
            |kind| -> Vec<usize> { (0..specs.len()).filter(|&i| specs[i].kind == kind).collect() };
        let mut jobs: Vec<(Vec<usize>, Box<dyn GraphJob>)> = Vec::with_capacity(specs.len());
        for kind in [AlgoKind::PageRank, AlgoKind::Ppr, AlgoKind::Sssp, AlgoKind::Bfs] {
            let of = of_kind(kind);
            let mut rest = &of[..];
            while !rest.is_empty() {
                let width = match rest.len() {
                    1 => 1,
                    2 | 3 => 2,
                    _ => 4,
                };
                let (members, tail) = rest.split_at(width);
                let roots: Vec<VertexId> = members.iter().map(|&i| specs[i].root).collect();
                let degrees = || Arc::clone(out_degrees);
                let bundle: Box<dyn GraphJob> = match kind {
                    AlgoKind::PageRank => {
                        let lanes: Vec<_> = members
                            .iter()
                            .map(|&i| (specs[i].damping, specs[i].max_iters))
                            .collect();
                        Box::new(RankBundle::pagerank(num_vertices, degrees(), &lanes))
                    }
                    AlgoKind::Ppr => {
                        let lanes: Vec<_> = members
                            .iter()
                            .map(|&i| (specs[i].root, specs[i].damping, specs[i].max_iters))
                            .collect();
                        Box::new(RankBundle::ppr(num_vertices, degrees(), &lanes))
                    }
                    AlgoKind::Sssp => Box::new(Sssp::bundle(num_vertices, &roots)),
                    _ => Box::new(Bfs::bundle(num_vertices, &roots)),
                };
                jobs.push((members.to_vec(), bundle));
                rest = tail;
            }
        }
        let wcc = of_kind(AlgoKind::Wcc);
        if !wcc.is_empty() {
            let caps: Vec<usize> = wcc.iter().map(|&i| specs[i].max_iters).collect();
            jobs.push((wcc, Box::new(Wcc::group(num_vertices, &caps))));
        }
        for i in of_kind(AlgoKind::LabelProp) {
            let (salt, max_iters) = (specs[i].root as u64, specs[i].max_iters);
            jobs.push((vec![i], Box::new(LabelPropagation::new(num_vertices, salt, max_iters))));
        }
        jobs.sort_by_key(|(members, _)| members[0]);
        jobs
    }
}

/// Configuration of a generated mix.
#[derive(Clone, Debug)]
pub struct MixConfig {
    /// How many jobs.
    pub count: usize,
    /// Families rotated through ("in turn").
    pub kinds: Vec<AlgoKind>,
    /// RNG seed.
    pub seed: u64,
    /// Iteration cap for PageRank-family jobs.
    pub pr_max_iters: usize,
    /// Upper bound of the random WCC iteration cap.
    pub wcc_max_iters: usize,
}

impl MixConfig {
    /// The paper's default mix of `count` jobs. Iteration budgets follow
    /// the paper's convergence-driven runs: PageRank iterates until its
    /// tolerance (up to 30 rounds), WCC caps are drawn from `[1, 15]`.
    pub fn paper(count: usize, seed: u64) -> MixConfig {
        MixConfig {
            count,
            kinds: AlgoKind::PAPER_MIX.to_vec(),
            seed,
            pr_max_iters: 30,
            wcc_max_iters: 15,
        }
    }

    /// A mix of a single family (Figures 17 and 19).
    pub fn uniform(kind: AlgoKind, count: usize, seed: u64) -> MixConfig {
        MixConfig { count, kinds: vec![kind], seed, pr_max_iters: 10, wcc_max_iters: 10 }
    }
}

/// Generates the specs for a mix over a graph with `num_vertices`.
pub fn generate_mix(num_vertices: VertexId, cfg: &MixConfig) -> Vec<JobSpec> {
    assert!(!cfg.kinds.is_empty());
    assert!(num_vertices > 0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    (0..cfg.count)
        .map(|i| {
            let kind = cfg.kinds[i % cfg.kinds.len()];
            JobSpec {
                kind,
                damping: 0.1 + rng.random::<f64>() * 0.75,
                root: rng.random_range(0..num_vertices),
                max_iters: match kind {
                    AlgoKind::Wcc => 1 + rng.random_range(0..cfg.wcc_max_iters),
                    _ => cfg.pr_max_iters,
                },
            }
        })
        .collect()
}

/// Samples `count` roots within `hops` hops of `base` (Figure 17's
/// "root vertices within the range of different number of hops").
pub fn roots_within_hops(
    graph: &EdgeList,
    base: VertexId,
    hops: usize,
    count: usize,
    seed: u64,
) -> Vec<VertexId> {
    let csr = Csr::from_edge_list(graph);
    let mut reachable = vec![base];
    let mut frontier = vec![base];
    let mut seen = vec![false; graph.num_vertices as usize];
    seen[base as usize] = true;
    for _ in 0..hops {
        let mut next = Vec::new();
        for &v in &frontier {
            for &t in csr.neighbors(v) {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    next.push(t);
                    reachable.push(t);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| reachable[rng.random_range(0..reachable.len())]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_graph::generators;

    #[test]
    fn mix_rotates_kinds_and_randomizes_params() {
        let specs = generate_mix(1000, &MixConfig::paper(8, 7));
        assert_eq!(specs.len(), 8);
        assert_eq!(specs[0].kind, AlgoKind::Wcc);
        assert_eq!(specs[1].kind, AlgoKind::PageRank);
        assert_eq!(specs[4].kind, AlgoKind::Wcc);
        // Damping in [0.1, 0.85].
        for s in &specs {
            assert!(s.damping >= 0.1 && s.damping <= 0.85);
            assert!(s.root < 1000);
        }
        // Two PageRank jobs should differ in damping.
        assert_ne!(specs[1].damping, specs[5].damping);
        // WCC caps within [1, 15].
        assert!(specs[0].max_iters >= 1 && specs[0].max_iters <= 15);
    }

    #[test]
    fn mix_is_deterministic() {
        let a = generate_mix(100, &MixConfig::paper(6, 42));
        let b = generate_mix(100, &MixConfig::paper(6, 42));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.root, y.root);
            assert_eq!(x.damping, y.damping);
        }
    }

    #[test]
    fn instantiate_all_kinds() {
        let g = generators::rmat(64, 300, generators::RmatParams::GRAPH500, 2);
        let deg = Arc::new(g.out_degrees());
        for kind in [
            AlgoKind::Wcc,
            AlgoKind::PageRank,
            AlgoKind::Sssp,
            AlgoKind::Bfs,
            AlgoKind::Ppr,
            AlgoKind::LabelProp,
        ] {
            let spec = JobSpec { kind, damping: 0.5, root: 3, max_iters: 4 };
            let job = spec.instantiate(64, &deg);
            assert_eq!(job.name(), kind.name());
        }
    }

    #[test]
    fn hop_bounded_roots_are_close() {
        let g = generators::path(50);
        let roots = roots_within_hops(&g, 10, 3, 20, 1);
        for r in roots {
            assert!((10..=13).contains(&r), "root {r} outside 3 hops of 10");
        }
    }

    #[test]
    fn zero_hops_returns_base() {
        let g = generators::path(10);
        let roots = roots_within_hops(&g, 4, 0, 5, 1);
        assert!(roots.iter().all(|&r| r == 4));
    }
}
