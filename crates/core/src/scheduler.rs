//! The §4 scheduling strategy for out-of-core graph analysis.
//!
//! Loading order is free (streaming results don't depend on it), so GraphM
//! orders partition loads to maximize how many jobs each loaded partition
//! serves. Formula 5:
//!
//! ```text
//! Pri(P^i) = MAX_{j ∈ J^i} (1 / N_j(P)) × N(J^i)
//! ```
//!
//! * partitions of jobs with *few* active partitions come first (those jobs
//!   finish their iteration quickly and activate more partitions);
//! * partitions wanted by *many* jobs come first (amortize one load across
//!   all of them).

use crate::global_table::GlobalTable;
use crate::job::JobId;
use std::collections::HashMap;

/// Which loading order the runtime uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulingPolicy {
    /// Ascending partition id — the host engine's native order
    /// (GridGraph-M-without in Figure 18).
    Default,
    /// Formula 5 priority order (GridGraph-M in Figure 18).
    #[default]
    Prioritized,
}

/// Computes `Pri(P^i)` for one partition given the jobs that need it and
/// each job's active-partition count. Returns 0 for unwanted partitions.
pub fn priority(jobs_for_partition: &[JobId], active_counts: &HashMap<JobId, usize>) -> f64 {
    if jobs_for_partition.is_empty() {
        return 0.0;
    }
    let n_ji = jobs_for_partition.len() as f64;
    let max_inv = jobs_for_partition
        .iter()
        .map(|j| {
            let nj = active_counts.get(j).copied().unwrap_or(1).max(1);
            1.0 / nj as f64
        })
        .fold(0.0f64, f64::max);
    max_inv * n_ji
}

/// Produces the loading order for the coming traversal.
///
/// "The priority is calculated before each complete traversal over all the
/// partitions. After that, the entries in the global table are sorted
/// according to the priority of their corresponding partitions."
///
/// Ties break on ascending partition id so the order is deterministic.
pub fn loading_order(table: &GlobalTable, policy: SchedulingPolicy) -> Vec<usize> {
    let active = table.active_partition_ids();
    match policy {
        SchedulingPolicy::Default => active,
        SchedulingPolicy::Prioritized => {
            // Gather Nj(P) once per job.
            let mut counts: HashMap<JobId, usize> = HashMap::new();
            for &pid in &active {
                for j in table.jobs_for(pid) {
                    *counts.entry(j).or_insert(0) += 0; // ensure key
                }
            }
            for j in counts.keys().copied().collect::<Vec<_>>() {
                counts.insert(j, table.active_partitions_of(j));
            }
            let score = |pid| priority(&table.jobs_for(pid), &counts);
            let mut scored: Vec<(usize, f64)> =
                active.iter().map(|&pid| (pid, score(pid))).collect();
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });
            scored.into_iter().map(|(pid, _)| pid).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(pairs: &[(JobId, usize)]) -> HashMap<JobId, usize> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn priority_formula() {
        // Job 0 has 1 active partition, job 1 has 4.
        let c = counts(&[(0, 1), (1, 4)]);
        // Partition wanted by both: max(1/1, 1/4) * 2 = 2.
        assert!((priority(&[0, 1], &c) - 2.0).abs() < 1e-12);
        // Partition wanted only by job 1: (1/4) * 1 = 0.25.
        assert!((priority(&[1], &c) - 0.25).abs() < 1e-12);
        assert_eq!(priority(&[], &c), 0.0);
    }

    #[test]
    fn figure8_scenario() {
        // Figure 8: job 1 actives = {2,3} at iteration x (partition 1
        // activates next iteration); job 2 actives = {1,2,3,4}. Partition
        // priorities: Pri(2) = Pri(3) = max(1/2, 1/4) * 2 = 1;
        // Pri(1) = Pri(4) = (1/4) * 1 = 0.25. So partitions 2 and 3 load
        // before 1 and 4 and job 1 finishes its iteration early.
        let t = GlobalTable::new(5);
        t.set_active_partitions(1, &[2, 3]);
        t.set_active_partitions(2, &[1, 2, 3, 4]);
        let order = loading_order(&t, SchedulingPolicy::Prioritized);
        assert_eq!(order, vec![2, 3, 1, 4]);
        let default = loading_order(&t, SchedulingPolicy::Default);
        assert_eq!(default, vec![1, 2, 3, 4]);
    }

    #[test]
    fn most_shared_wins_at_equal_job_breadth() {
        let t = GlobalTable::new(3);
        // All jobs have 2 active partitions; partition 1 is shared by 3
        // jobs, partition 0 by 1, partition 2 by 2.
        t.set_active_partitions(0, &[0, 1]);
        t.set_active_partitions(1, &[1, 2]);
        t.set_active_partitions(2, &[1, 0]);
        // Nj = 2 for all jobs. Pri(0) = 1, Pri(1) = 1.5, Pri(2) = 1.
        let order = loading_order(&t, SchedulingPolicy::Prioritized);
        assert_eq!(order[0], 1);
    }

    #[test]
    fn deterministic_tie_break() {
        let t = GlobalTable::new(4);
        t.set_active_partitions(0, &[3, 1]);
        let order = loading_order(&t, SchedulingPolicy::Prioritized);
        assert_eq!(order, vec![1, 3], "equal priorities break by pid");
    }

    #[test]
    fn empty_table_empty_order() {
        let t = GlobalTable::new(4);
        assert!(loading_order(&t, SchedulingPolicy::Prioritized).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The prioritized order is a permutation of the default order, and
        /// priorities along it are non-increasing.
        #[test]
        fn order_is_priority_sorted_permutation(
            assignments in proptest::collection::vec(
                (0usize..8, proptest::collection::btree_set(0usize..6, 0..5)), 1..12)
        ) {
            let t = GlobalTable::new(8);
            for (job, (pid, _)) in assignments.iter().enumerate() {
                // each tuple assigns one job to a few partitions
                let pids: Vec<usize> = assignments[job].1.iter().copied().map(|p| p.min(7)).collect();
                let _ = pid;
                t.set_active_partitions(job, &pids);
            }
            let default = loading_order(&t, SchedulingPolicy::Default);
            let pri = loading_order(&t, SchedulingPolicy::Prioritized);
            let mut a = default.clone();
            let mut b = pri.clone();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "same set of partitions");
            // Recompute scores and check monotone.
            let mut counts = HashMap::new();
            for pid in &default {
                for j in t.jobs_for(*pid) {
                    counts.insert(j, t.active_partitions_of(j));
                }
            }
            let scores: Vec<f64> = pri.iter().map(|&p| priority(&t.jobs_for(p), &counts)).collect();
            for w in scores.windows(2) {
                prop_assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }
}
