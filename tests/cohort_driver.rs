//! The sweep driver's contract with real algorithms: cohorts of PageRank,
//! WCC, SSSP, BFS and counting jobs admitted into one long-lived
//! [`CohortDriver`] while others are in flight each report exactly what
//! `run_batch_single_thread` reports for them alone — iterations and
//! every value bit — on 1, 2 and 4 lanes.
//!
//! This is the property the serving daemon and its benchmark stand on: a
//! job's answer does not depend on who else is being served. (The
//! in-crate tests of `graphm_core::exec_parallel` cover the same property
//! with admission points counted in driver tasks.)

use graphm::core::job::CountingJob;
use graphm::core::{
    CohortDriver, CohortId, GraphJob, VecSource, WallClockConfig, WallClockExecutor, WallJobReport,
};
use graphm::graph::{generators, MemoryProfile};
use graphm::workloads::{AlgoKind, JobSpec};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const VERTICES: u32 = 384;

/// A 4-partition source over a small R-MAT graph, and its out-degrees.
fn graph() -> (Arc<VecSource>, Arc<Vec<u32>>) {
    let g = generators::rmat(VERTICES, 6000, generators::RmatParams::GRAPH500, 29);
    let mut degrees = vec![0u32; VERTICES as usize];
    for e in &g.edges {
        degrees[e.src as usize] += 1;
    }
    let mut edges = g.edges;
    edges.sort_by_key(|e| e.src);
    let per = edges.len().div_ceil(4);
    let parts = edges.chunks(per).map(<[_]>::to_vec).collect();
    (Arc::new(VecSource::new(VERTICES, parts)), Arc::new(degrees))
}

/// The job a generated `(kind, parameter)` pair names: the paper's four
/// kinds, then the core's counting job.
fn job((kind, n): (usize, u32), degrees: &Arc<Vec<u32>>) -> Box<dyn GraphJob> {
    let Some(&kind) = AlgoKind::PAPER_MIX.get(kind) else {
        return Box::new(CountingJob::new(VERTICES, 1 + n as usize % 3));
    };
    let spec = JobSpec {
        kind,
        damping: 0.1 + 0.75 * f64::from(n % 16) / 16.0,
        root: n % VERTICES,
        max_iters: 1 + n as usize % 12,
    };
    spec.instantiate(VERTICES, degrees)
}

/// Waits for `reports` more reports; a stalled driver fails the test.
fn collect(driver: &CohortDriver, reports: usize, into: &mut Vec<(CohortId, WallJobReport)>) {
    let want = into.len() + reports;
    while into.len() < want {
        let retired = driver.retired(Duration::from_secs(60));
        assert!(!retired.is_empty(), "driver stalled with {} reports out", into.len());
        into.extend(retired);
    }
}

proptest! {
    #[test]
    fn overlapping_cohorts_equal_their_solo_runs_bit_for_bit(
        lanes in 0usize..3,
        // Per cohort: its jobs, and how many of the reports then owed to
        // wait for before admitting the next cohort (0 = at once).
        cohorts in proptest::collection::vec(
            (proptest::collection::vec((0usize..5, 0u32..4096), 1..5), 0usize..4),
            2..5,
        ),
    ) {
        let (source, degrees) = graph();
        let mut cfg = WallClockConfig::new(MemoryProfile::TEST);
        cfg.max_iterations = 40;
        let exec = WallClockExecutor::new(source, cfg, None);
        let jobs_of = |jobs: &[(usize, u32)]| -> Vec<Box<dyn GraphJob>> {
            jobs.iter().map(|&j| job(j, &degrees)).collect()
        };

        let driver = CohortDriver::spawn([1, 2, 4][lanes]);
        let (mut retired, mut jobs_in) = (Vec::new(), 0);
        let mut admitted = Vec::new();
        for (jobs, wait_for) in &cohorts {
            admitted.push(driver.admit(&exec, jobs_of(jobs)));
            jobs_in += jobs.len();
            // (`collect` may come back with more than it was asked for.)
            collect(&driver, (*wait_for).min(jobs_in - retired.len()), &mut retired);
        }
        collect(&driver, jobs_in - retired.len(), &mut retired);
        prop_assert_eq!(driver.live(), 0);

        for ((jobs, _), cohort) in cohorts.iter().zip(admitted) {
            let solo = exec.run_batch_single_thread(jobs_of(jobs));
            let mut served: Vec<&WallJobReport> =
                retired.iter().filter(|(c, _)| *c == cohort).map(|(_, r)| r).collect();
            served.sort_by_key(|r| r.id);
            prop_assert_eq!(served.len(), solo.jobs.len());
            for (got, want) in served.iter().zip(&solo.jobs) {
                prop_assert!(got.error.is_none());
                prop_assert_eq!((got.id, &got.name), (want.id, &want.name));
                prop_assert_eq!(got.iterations, want.iterations, "{} in {:?}", got.name, jobs);
                prop_assert_eq!(got.edges_processed, want.edges_processed);
                let bits = |r: &WallJobReport| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(got), bits(want), "{} in {:?}", got.name, jobs);
            }
        }
    }
}
