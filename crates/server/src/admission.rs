//! Admission: the submission queue, the drain policy, and the job
//! lifecycle table — the daemon's bookkeeping between a `submit` and its
//! report, as plain data structures under the locks `state::Shared` holds
//! them in.
//!
//! Batching: when the runtime is idle, the first arrival is drained only
//! after `ServerConfig::batch_window` elapses, so a concurrent burst of
//! submissions lands in one admission and shares from the first sweep;
//! [`drain_admissible`] then applies the in-flight Batch bound. While the
//! runtime is busy it drains again after every advance.

use crate::protocol::Priority;
use graphm_core::{JobId, JobReport};
use graphm_workloads::JobSpec;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Daemon-side job lifecycle entry.
pub(crate) enum JobEntry {
    Queued,
    Running,
    Done {
        report: Arc<JobReport>,
        /// A `wait` response carrying the report reached its socket.
        delivered: bool,
    },
}

/// One admitted-but-not-yet-running submission.
pub(crate) struct Pending {
    pub(crate) id: JobId,
    pub(crate) spec: JobSpec,
    pub(crate) tenant: String,
    pub(crate) priority: Priority,
}

/// Submission queue: ids are assigned here, in push order. Specs, not
/// instantiated jobs, are queued: instantiation happens at drain time on
/// the runtime thread, so a job's out-degrees always match the generation
/// it is admitted on. `Priority::Batch` entries may be *retained* across
/// drains by the in-flight bound, so drain order need not match id order
/// across drains (within one drain it does) — an engine that numbers jobs
/// itself keeps an explicit map back to these ids.
///
/// The per-tenant gauges back admission quotas: `queued` counts entries
/// still in `pending`; `inflight` counts queued + running (decremented
/// when the job's report is published). Zeroed entries are removed so the
/// maps don't grow with tenant-name churn.
#[derive(Default)]
pub(crate) struct Queue {
    pub(crate) next_id: JobId,
    pub(crate) pending: VecDeque<Pending>,
    pub(crate) queued_by_tenant: HashMap<String, u64>,
    pub(crate) inflight_by_tenant: HashMap<String, u64>,
}

impl Queue {
    /// Assigns the next id to an admitted submission and queues it,
    /// charging the tenant's gauges.
    pub(crate) fn push(&mut self, spec: JobSpec, tenant: String, priority: Priority) -> JobId {
        let id = self.next_id;
        self.next_id += 1;
        *self.queued_by_tenant.entry(tenant.clone()).or_insert(0) += 1;
        *self.inflight_by_tenant.entry(tenant.clone()).or_insert(0) += 1;
        self.pending.push_back(Pending { id, spec, tenant, priority });
        id
    }

    pub(crate) fn dec(map: &mut HashMap<String, u64>, tenant: &str) {
        if let Some(n) = map.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                map.remove(tenant);
            }
        }
    }
}

/// Pops every admissible pending entry, honouring
/// `ServerConfig::max_batch_per_round`: `Interactive` jobs always drain;
/// `Batch` jobs drain while `batch_budget` — the cap less the Batch jobs
/// in flight — allows, and the rest stay queued *in order* for a later
/// drain. The runtime spends the budget here and gives it back as Batch
/// jobs retire, so a deep batch backlog cannot trickle past the cap one
/// advance at a time.
pub(crate) fn drain_admissible(q: &mut Queue, batch_budget: &mut usize) -> Vec<Pending> {
    let mut admitted = Vec::new();
    let mut retained = VecDeque::new();
    while let Some(p) = q.pending.pop_front() {
        let admit = p.priority == Priority::Interactive || *batch_budget > 0;
        if admit {
            if p.priority == Priority::Batch {
                *batch_budget -= 1;
            }
            Queue::dec(&mut q.queued_by_tenant, &p.tenant);
            admitted.push(p);
        } else {
            retained.push_back(p);
        }
    }
    q.pending = retained;
    admitted
}

/// Job lifecycle table with bounded retention of finished reports: by
/// count until a report has been delivered, by bytes afterwards — so what
/// the daemon keeps does not grow with how many jobs it completes.
pub(crate) struct JobsTable {
    pub(crate) entries: HashMap<JobId, JobEntry>,
    /// Retained finished ids, oldest first.
    done_order: VecDeque<JobId>,
    /// Count cap on retained finished reports, delivered or not.
    retain: usize,
    /// [`retained_bytes`] summed over the retained *delivered* reports.
    delivered_bytes: u64,
    /// Cap on `delivered_bytes`: the served store's structure size at
    /// start. Reports nobody may ask for again never outweigh the one
    /// shared copy of the graph they were computed from.
    delivered_budget: u64,
}

/// What retaining `report` costs: its `O(num_vertices)` values vector,
/// plus the fixed part so reports without values are bounded too.
fn retained_bytes(report: &JobReport) -> u64 {
    (std::mem::size_of::<JobReport>() + std::mem::size_of_val(report.values.as_slice())) as u64
}

impl JobsTable {
    pub(crate) fn new(retain: usize, delivered_budget: u64) -> JobsTable {
        JobsTable {
            entries: HashMap::new(),
            done_order: VecDeque::new(),
            retain,
            delivered_bytes: 0,
            delivered_budget,
        }
    }

    /// Marks `id` done and evicts the oldest finished entries past the
    /// retention cap (in-flight responders keep their `Arc` alive).
    pub(crate) fn finish(&mut self, report: JobReport) {
        let id = report.id;
        self.entries.insert(id, JobEntry::Done { report: Arc::new(report), delivered: false });
        self.done_order.push_back(id);
        while self.done_order.len() > self.retain.max(1) {
            if let Some(old) = self.done_order.pop_front() {
                self.evict(old);
            }
        }
    }

    /// Forgets a finished job (already off `done_order`); later queries
    /// for it answer `unknown job`.
    fn evict(&mut self, id: JobId) {
        if let Some(JobEntry::Done { report, delivered: true }) = self.entries.remove(&id) {
            self.delivered_bytes -= retained_bytes(&report);
        }
    }

    /// Records that a `wait` response carrying `id`'s report was written
    /// to its socket. From here on the report is only a courtesy copy for
    /// a repeated `wait`/`status`: the oldest delivered reports go once
    /// together they exceed the byte budget. Undelivered reports — nobody
    /// has their results yet — are left to the count cap alone.
    pub(crate) fn mark_delivered(&mut self, id: JobId) {
        match self.entries.get_mut(&id) {
            Some(JobEntry::Done { report, delivered }) if !*delivered => {
                *delivered = true;
                self.delivered_bytes += retained_bytes(report);
            }
            _ => return,
        }
        while self.delivered_bytes > self.delivered_budget {
            let oldest = self.done_order.iter().position(|id| {
                matches!(self.entries.get(id), Some(JobEntry::Done { delivered: true, .. }))
            });
            let Some(old) = oldest.and_then(|at| self.done_order.remove(at)) else { break };
            self.evict(old);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: JobId, values: usize) -> JobReport {
        JobReport {
            id,
            name: "test".to_string(),
            iterations: 1,
            clock: Default::default(),
            instructions: 0,
            edges_processed: 0,
            submit_ns: 0.0,
            finish_ns: 0.0,
            values: vec![0.0; values],
            error: None,
        }
    }

    fn is_known(table: &JobsTable, id: JobId) -> bool {
        table.entries.contains_key(&id)
    }

    /// Delivered reports go oldest-first once together they exceed the
    /// byte budget; undelivered ones are untouched by any number of
    /// deliveries and still obey the count cap.
    #[test]
    fn delivered_reports_are_evicted_by_bytes_undelivered_by_count() {
        let one = retained_bytes(&report(0, 100));
        let mut table = JobsTable::new(1024, 3 * one);
        // Two reports nobody collects, then thirty that are collected at
        // once — ten times what the budget holds.
        table.finish(report(0, 100));
        table.finish(report(1, 100));
        for id in 2..32 {
            table.finish(report(id, 100));
            table.mark_delivered(id);
            table.mark_delivered(id); // a repeated `wait` is charged once
            assert!(table.delivered_bytes <= 3 * one);
        }
        assert!(is_known(&table, 0) && is_known(&table, 1), "undelivered reports survive");
        for id in 2..29 {
            assert!(!is_known(&table, id), "delivered report {id} should be gone");
        }
        for id in 29..32 {
            assert!(is_known(&table, id), "the newest deliveries fit the budget");
        }
        assert_eq!(table.done_order, [0, 1, 29, 30, 31], "no stale ids linger");
        assert_eq!(table.delivered_bytes, 3 * one);

        // The count cap still applies to everything, and un-charges a
        // delivered report it evicts.
        let mut table = JobsTable::new(2, 10 * one);
        for id in 0..3 {
            table.finish(report(id, 100));
            table.mark_delivered(id);
        }
        assert!(!is_known(&table, 0));
        assert_eq!(table.done_order, [1, 2]);
        assert_eq!(table.delivered_bytes, 2 * one);

        // Reports without values (failed jobs) are bounded too.
        let mut table = JobsTable::new(1024, one);
        for id in 0..100 {
            table.finish(report(id, 0));
            table.mark_delivered(id);
        }
        assert!(table.done_order.len() as u64 <= one / retained_bytes(&report(0, 0)));
    }
}
