//! The global table of §3.3.1.
//!
//! "A global table is created to gather this information. Each entry in the
//! global table is a linked list to store the process IDs of the active
//! jobs of the corresponding graph partition. Each job needs to update the
//! global table in real time."
//!
//! Entries map partition → set of jobs that must process it in the coming
//! iteration; the §4 scheduler reads it to order partition loads, and the
//! sharing controller reads it to decide which jobs to resume/suspend.

use crate::job::JobId;
use parking_lot::RwLock;
use std::collections::BTreeSet;

/// Thread-safe partition → active-job-set table.
///
/// A job that holds several members (a bundle, see
/// [`crate::GraphJob::members`]) enters each member under a key of its
/// own, with the member's own active partitions, so that `N(J^i)` counts
/// the members that need partition `i` and `N_j(P)` is each member's own
/// count: the §4 order is that of the same members entered as jobs.
pub struct GlobalTable {
    entries: Vec<RwLock<BTreeSet<JobId>>>,
}

impl GlobalTable {
    /// Creates a table over `num_partitions` partitions.
    pub fn new(num_partitions: usize) -> GlobalTable {
        GlobalTable { entries: (0..num_partitions).map(|_| RwLock::new(BTreeSet::new())).collect() }
    }

    /// Number of partitions tracked.
    pub fn num_partitions(&self) -> usize {
        self.entries.len()
    }

    /// Marks partition `pid` active (or not) for `job`.
    pub fn set_active(&self, job: JobId, pid: usize, active: bool) {
        let mut e = self.entries[pid].write();
        if active {
            e.insert(job);
        } else {
            e.remove(&job);
        }
    }

    /// Replaces `job`'s active set with exactly `pids`.
    pub fn set_active_partitions(&self, job: JobId, pids: &[usize]) {
        self.remove_job(job);
        for &pid in pids {
            self.entries[pid].write().insert(job);
        }
    }

    /// Removes `job` from every entry (job finished / retired).
    pub fn remove_job(&self, job: JobId) {
        for e in &self.entries {
            e.write().remove(&job);
        }
    }

    /// The set of jobs that need partition `pid` (`J^i` in Algorithm 2).
    pub fn jobs_for(&self, pid: usize) -> Vec<JobId> {
        self.entries[pid].read().iter().copied().collect()
    }

    /// Number of jobs needing `pid` (`N(J^i)` in Formula 5).
    pub fn num_jobs_for(&self, pid: usize) -> usize {
        self.entries[pid].read().len()
    }

    /// Number of active partitions of `job` (`N_j(P)` in Formula 5).
    pub fn active_partitions_of(&self, job: JobId) -> usize {
        self.entries.iter().filter(|e| e.read().contains(&job)).count()
    }

    /// Partitions with at least one interested job, ascending pid — the
    /// default loading order before the §4 scheduler reorders it.
    pub fn active_partition_ids(&self) -> Vec<usize> {
        (0..self.entries.len()).filter(|&pid| !self.entries[pid].read().is_empty()).collect()
    }

    /// True when no job needs any partition.
    pub fn is_idle(&self) -> bool {
        self.entries.iter().all(|e| e.read().is_empty())
    }

    /// Fraction of active partitions shared by more than `k` jobs — the
    /// spatial-similarity statistic of Figure 4(a).
    pub fn shared_fraction(&self, k: usize) -> f64 {
        let active: Vec<usize> =
            self.entries.iter().map(|e| e.read().len()).filter(|&n| n > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active.iter().filter(|&&n| n > k).count() as f64 / active.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_query() {
        let t = GlobalTable::new(4);
        t.set_active(0, 1, true);
        t.set_active(1, 1, true);
        t.set_active(1, 3, true);
        assert_eq!(t.jobs_for(1), vec![0, 1]);
        assert_eq!(t.num_jobs_for(1), 2);
        assert_eq!(t.active_partitions_of(1), 2);
        assert_eq!(t.active_partition_ids(), vec![1, 3]);
        t.set_active(0, 1, false);
        assert_eq!(t.jobs_for(1), vec![1]);
    }

    #[test]
    fn members_count_as_jobs() {
        // A seat of three members keyed 1, 2 and 3, each with its own
        // frontier, beside job 0.
        let t = GlobalTable::new(3);
        t.set_active_partitions(0, &[0, 1]);
        t.set_active_partitions(1, &[1]);
        t.set_active_partitions(2, &[1, 2]);
        t.set_active_partitions(3, &[2]);
        assert_eq!(t.num_jobs_for(1), 3, "N(J^1) counts the members that need it");
        assert_eq!(t.num_jobs_for(2), 2);
        assert_eq!(t.active_partitions_of(2), 2, "N_j(P) is the member's own");
        t.remove_job(2);
        assert_eq!((t.num_jobs_for(1), t.num_jobs_for(2)), (2, 1), "a member retires alone");
    }

    #[test]
    fn replace_active_set() {
        let t = GlobalTable::new(4);
        t.set_active_partitions(7, &[0, 2]);
        assert_eq!(t.active_partitions_of(7), 2);
        t.set_active_partitions(7, &[3]);
        assert_eq!(t.active_partitions_of(7), 1);
        assert_eq!(t.jobs_for(3), vec![7]);
        assert!(t.jobs_for(0).is_empty());
    }

    #[test]
    fn remove_job_clears_everywhere() {
        let t = GlobalTable::new(3);
        t.set_active_partitions(1, &[0, 1, 2]);
        t.remove_job(1);
        assert!(t.is_idle());
    }

    #[test]
    fn shared_fraction() {
        let t = GlobalTable::new(4);
        // p0: 3 jobs, p1: 1 job, p2: 2 jobs, p3: none.
        t.set_active_partitions(0, &[0, 1, 2]);
        t.set_active_partitions(1, &[0, 2]);
        t.set_active_partitions(2, &[0]);
        assert!((t.shared_fraction(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.shared_fraction(2) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.shared_fraction(3), 0.0);
        let empty = GlobalTable::new(2);
        assert_eq!(empty.shared_fraction(0), 0.0);
    }

    #[test]
    fn concurrent_updates() {
        use std::sync::Arc;
        let t = Arc::new(GlobalTable::new(64));
        let mut handles = Vec::new();
        for job in 0..8usize {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for pid in 0..64 {
                    t.set_active(job, pid, pid % (job + 1) == 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every partition divisible by 1 has job 0.
        assert_eq!(t.active_partitions_of(0), 64);
    }
}
