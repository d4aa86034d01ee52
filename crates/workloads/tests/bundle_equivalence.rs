//! A cohort instantiated with `JobSpec::instantiate_cohort` — PageRank,
//! PPR, SSSP and BFS members in bundles, WCC members on one state —
//! reports, member by member, what the same cohort reports with one job
//! per spec: value bits, iterations and edges processed.

use graphm_core::{GraphJob, VecSource, WallClockConfig, WallClockExecutor, WallJobReport};
use graphm_graph::{generators, Grid, MemoryProfile, VertexId};
use graphm_workloads::{AlgoKind, JobSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// One splitmix64 step: the test's own stream for parameters and order.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const KINDS: [AlgoKind; 6] = [
    AlgoKind::PageRank,
    AlgoKind::Ppr,
    AlgoKind::Wcc,
    AlgoKind::Bfs,
    AlgoKind::Sssp,
    AlgoKind::LabelProp,
];

/// `counts[k]` specs of `KINDS[k]` with drawn parameters, in a drawn
/// order.
fn cohort(counts: &[usize], n: VertexId, seed: u64) -> Vec<JobSpec> {
    let mut state = seed;
    let mut specs = Vec::new();
    for (&kind, &count) in KINDS.iter().zip(counts) {
        for _ in 0..count {
            let (a, b) = (mix(&mut state), mix(&mut state));
            let max_iters = match kind {
                AlgoKind::Wcc => 1 + (a % 15) as usize,
                _ => 1 + (a % 30) as usize,
            };
            let damping = 0.1 + (b % 76) as f64 / 100.0;
            specs.push(JobSpec { kind, damping, root: (b % n as u64) as VertexId, max_iters });
        }
    }
    for i in (1..specs.len()).rev() {
        specs.swap(i, (mix(&mut state) % (i as u64 + 1)) as usize);
    }
    specs
}

fn assert_same(got: &WallJobReport, want: &WallJobReport, spec: usize) {
    assert_eq!(got.name, want.name, "spec {spec}");
    assert_eq!(got.iterations, want.iterations, "spec {spec}: iterations");
    assert_eq!(got.edges_processed, want.edges_processed, "spec {spec}: edges processed");
    assert_eq!(got.values.len(), want.values.len(), "spec {spec}");
    let same = got.values.iter().zip(&want.values).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "spec {spec}: value bits");
    assert!(got.error.is_none() && want.error.is_none(), "spec {spec}: no failure");
}

proptest! {
    /// Every member of a bundled cohort equals its spec's one-member job
    /// in the unbundled cohort, for 0–9 specs of each kind, any damping,
    /// cap and root, in any order, at several Formula-1 chunk sizes, on
    /// one lane and on the pool's.
    #[test]
    fn bundled_members_equal_the_cohort_unbundled(
        counts in proptest::collection::vec(0usize..10, 6..7),
        seed in any::<u64>(),
        grid in 1usize..4,
        llc_kb in 0usize..4,
    ) {
        let g = generators::rmat(300, 3000, generators::RmatParams::SOCIAL, seed % 64);
        let n = g.num_vertices;
        let grid = Grid::convert(&g, grid);
        let blocks = (0..grid.num_blocks()).map(|b| grid.block_by_index(b).to_vec()).collect();
        let source = Arc::new(VecSource::new(n, blocks));
        let degrees = Arc::new(g.out_degrees());
        let profile = MemoryProfile { llc_bytes: [8, 16, 64, 256][llc_kb] << 10, ..MemoryProfile::TEST };
        let exec = WallClockExecutor::new(source, WallClockConfig::new(profile), None);
        let specs = cohort(&counts, n, seed);

        let solo: Vec<Box<dyn GraphJob>> = specs.iter().map(|s| s.instantiate(n, &degrees)).collect();
        let want = exec.run_batch_single_thread(solo);
        let seats = JobSpec::instantiate_cohort(&specs, n, &degrees);
        let members: Vec<usize> = seats.iter().flat_map(|(members, _)| members.clone()).collect();
        let mut order = members.clone();
        order.sort_unstable();
        prop_assert_eq!(order, (0..specs.len()).collect::<Vec<_>>(), "each spec is one member");
        let shared = seats.iter().filter(|(members, _)| members.len() > 1).count();
        // Every kind but label propagation (the last) shares jobs.
        let groupable = counts[..5].iter().filter(|&&c| c >= 2).count();
        prop_assert!(shared >= groupable, "same-kind specs share jobs");

        let jobs: Vec<Box<dyn GraphJob>> = seats.into_iter().map(|(_, job)| job).collect();
        let single = exec.run_batch_single_thread(jobs);
        let jobs = JobSpec::instantiate_cohort(&specs, n, &degrees).into_iter().map(|(_, j)| j);
        let threaded = exec.run_batch(jobs.collect());
        prop_assert_eq!(single.partition_loads, want.partition_loads);
        for run in [&single, &threaded] {
            prop_assert_eq!(run.jobs.len(), specs.len());
            for report in &run.jobs {
                let spec = members[report.id];
                assert_same(report, &want.jobs[spec], spec);
            }
        }
    }
}
