//! Admission: the submission queue, the drain policy, and the job
//! lifecycle table — the daemon's bookkeeping between a `submit` and its
//! report, as plain data structures under the locks `state::Shared` holds
//! them in.
//!
//! Batching: a connection's *burst* is the run of `submit` requests it
//! sends before its next request of any other kind, or before it hangs
//! up. [`Queue::readiness`] lets the runtime drain once no job the drain
//! would admit belongs to a burst still open — so a whole burst lands in
//! one admission and shares from the first sweep — or once the oldest of
//! them has waited `ServerConfig::batch_window`, the cap a client that
//! goes quiet mid-burst pays. [`drain_admissible`] then applies the
//! in-flight Batch bound. The rule is the same whether the runtime is idle
//! or busy.

use crate::protocol::Priority;
use graphm_core::{JobId, JobReport};
use graphm_workloads::JobSpec;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Names a client connection for the daemon's life.
pub(crate) type ConnId = u64;

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
    /// The connection whose burst it arrived in.
    pub(crate) conn: ConnId,
    pub(crate) queued_at: Instant,
}

/// Whether the runtime may drain the queue now (see [`Queue::readiness`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Readiness {
    /// The drain would admit nothing: no event but a push or a retirement
    /// can change that.
    Nothing,
    /// A job the drain would admit belongs to an open burst: wait for the
    /// burst to settle, at the latest until this instant.
    Until(Instant),
    /// Drain now; `capped` when the cap forced it while a burst was open.
    Drain { capped: bool },
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
    /// Connections whose burst is still open.
    pub(crate) open_bursts: HashSet<ConnId>,
    /// The engine has retired a job since the runtime last looked: set by
    /// its notifier under this lock, so the wake-up cannot be lost.
    pub(crate) retired: bool,
}

impl Queue {
    /// Assigns the next id to an admitted submission and queues it,
    /// charging the tenant's gauges; `conn`'s burst is open from here
    /// until it sends something else.
    pub(crate) fn push(
        &mut self,
        spec: JobSpec,
        tenant: String,
        priority: Priority,
        conn: ConnId,
    ) -> JobId {
        let id = self.next_id;
        self.next_id += 1;
        *self.queued_by_tenant.entry(tenant.clone()).or_insert(0) += 1;
        *self.inflight_by_tenant.entry(tenant.clone()).or_insert(0) += 1;
        self.open_bursts.insert(conn);
        let queued_at = Instant::now();
        self.pending.push_back(Pending { id, spec, tenant, priority, conn, queued_at });
        id
    }

    /// Whether the runtime may drain now, given `batch_budget` and the
    /// `cap` on how long a job waits for its burst. Only the jobs the
    /// drain would admit count: one the in-flight Batch bound holds back
    /// neither holds the drain nor forces it. `settle_all` (shutdown)
    /// drains without waiting for any burst.
    pub(crate) fn readiness(
        &self,
        mut batch_budget: usize,
        cap: Duration,
        settle_all: bool,
    ) -> Readiness {
        // Pending is in push order, so the first admissible job is the
        // oldest one.
        let mut oldest = None;
        let mut open = false;
        for p in self.pending.iter().filter(|p| admits(p, &mut batch_budget)) {
            oldest.get_or_insert(p.queued_at);
            open |= self.open_bursts.contains(&p.conn);
        }
        let Some(oldest) = oldest else { return Readiness::Nothing };
        if !open || settle_all {
            return Readiness::Drain { capped: false };
        }
        let deadline = oldest + cap;
        if Instant::now() >= deadline {
            Readiness::Drain { capped: true }
        } else {
            Readiness::Until(deadline)
        }
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

/// Whether a drain admits `p`, spending the budget if it does.
fn admits(p: &Pending, batch_budget: &mut usize) -> bool {
    let admit = p.priority == Priority::Interactive || *batch_budget > 0;
    if admit && p.priority == Priority::Batch {
        *batch_budget -= 1;
    }
    admit
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
        if admits(&p, batch_budget) {
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

    /// The drain rule: a job the drain would admit holds it while its
    /// burst is open, until the cap; one the Batch budget holds back
    /// neither holds it nor forces it; shutdown settles every burst.
    #[test]
    fn a_drain_waits_for_open_bursts_it_would_admit_until_the_cap() {
        let spec =
            JobSpec { kind: graphm_workloads::AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 1 };
        let cap = Duration::from_secs(60);
        let mut q = Queue::default();
        assert_eq!(q.readiness(1, cap, false), Readiness::Nothing);
        q.push(spec, "a".to_string(), Priority::Batch, 1);
        let Readiness::Until(deadline) = q.readiness(1, cap, false) else { panic!("burst open") };
        assert_eq!(deadline, q.pending[0].queued_at + cap);
        assert_eq!(q.readiness(1, cap, true), Readiness::Drain { capped: false });
        assert_eq!(q.readiness(1, Duration::ZERO, false), Readiness::Drain { capped: true });
        q.open_bursts.remove(&1);
        assert_eq!(q.readiness(1, cap, false), Readiness::Drain { capped: false });
        // A second connection's Batch job past the budget does not hold
        // the drain, however open its burst…
        q.push(spec, "b".to_string(), Priority::Batch, 2);
        assert_eq!(q.readiness(1, cap, false), Readiness::Drain { capped: false });
        // …but its Interactive job, which the drain would admit, does.
        q.push(spec, "b".to_string(), Priority::Interactive, 2);
        assert!(matches!(q.readiness(1, cap, false), Readiness::Until(_)));
        // With the budget spent, nothing is admissible but the Interactive job.
        assert_eq!(q.readiness(0, Duration::ZERO, false), Readiness::Drain { capped: true });
        q.pending.pop_back();
        assert_eq!(q.readiness(0, Duration::ZERO, false), Readiness::Nothing);
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
