//! The job and ingest verbs: what `submit`, `status`, `wait`, `ingest`
//! and `ingest_commit` do to the shared state once a request line has
//! been parsed. `submit` is where admission control answers — a shed
//! submission gets its typed `overloaded` error here, before an id
//! exists; the replication verbs live in `replication`.

use crate::admission::{ConnId, JobEntry};
use crate::ingest::IngestCoordinator;
use crate::protocol::{
    error_response, error_response_coded, report_to_json, JobState, Priority, ERR_NOT_PRIMARY,
    ERR_OVERLOADED, ERR_SHUTTING_DOWN, ERR_STALE_REPLICA,
};
use crate::state::Shared;
use graphm_core::JobId;
use graphm_graph::delta::DeltaRecord;
use graphm_workloads::JobSpec;
use serde_json::{json, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Queues `spec` in `conn`'s burst — or sheds it, leaving the burst as it
/// was.
pub(crate) fn submit(
    spec: JobSpec,
    tenant: String,
    priority: Priority,
    conn: ConnId,
    shared: &Shared,
) -> Value {
    if shared.is_shutting_down() {
        return error_response_coded("server is shutting down", ERR_SHUTTING_DOWN);
    }
    // Staleness bound: a follower that knows it trails the primary by
    // more than the configured lag refuses reads rather than serving
    // arbitrarily old state (0 = serve at any lag).
    if shared.is_follower() && shared.config.max_replica_lag > 0 {
        let lag = shared.replica_lag();
        if lag > shared.config.max_replica_lag {
            return error_response_coded(
                &format!(
                    "replica is {lag} generations behind the primary \
                     (staleness bound {}); retry with backoff or read the primary",
                    shared.config.max_replica_lag
                ),
                ERR_STALE_REPLICA,
            );
        }
    }
    if spec.root >= shared.num_vertices {
        return error_response(&format!(
            "root {} out of range (store has {} vertices)",
            spec.root, shared.num_vertices
        ));
    }
    // A shed submission gets a typed `overloaded` error *before* an id is
    // assigned — nothing to clean up, nothing queued, the client retries
    // with backoff (`graphm-client --retries`).
    let shed = |msg: String| {
        shared.stats.lock().jobs_shed += 1;
        error_response_coded(&msg, ERR_OVERLOADED)
    };
    let limits = &shared.config;
    let id = {
        // Lock order queue -> jobs (see `Shared`); the entry must exist
        // before the runtime can drain the submission and mark it Running.
        // The spec is instantiated by the runtime thread at drain time so
        // its out-degrees match the generation of the round it runs in.
        let mut q = shared.queue.lock();
        if limits.max_pending > 0 && q.pending.len() >= limits.max_pending {
            return shed(format!(
                "queue full ({} pending, cap {}); retry with backoff",
                q.pending.len(),
                limits.max_pending
            ));
        }
        if limits.tenant_max_pending > 0 {
            let queued = q.queued_by_tenant.get(&tenant).copied().unwrap_or(0);
            if queued >= limits.tenant_max_pending as u64 {
                return shed(format!(
                    "tenant {tenant:?} has {queued} queued jobs (quota {})",
                    limits.tenant_max_pending
                ));
            }
        }
        if limits.tenant_max_inflight > 0 {
            let inflight = q.inflight_by_tenant.get(&tenant).copied().unwrap_or(0);
            if inflight >= limits.tenant_max_inflight as u64 {
                return shed(format!(
                    "tenant {tenant:?} has {inflight} jobs in flight (quota {})",
                    limits.tenant_max_inflight
                ));
            }
        }
        // Out-of-core pressure: sustained eviction churn means the round
        // working set outgrew the memory budget, so adding Batch work
        // would only deepen the thrash. Interactive jobs still land.
        if priority == Priority::Batch && limits.shed_eviction_rate > 0.0 {
            let rate = shared.stats.lock().eviction_rate;
            if rate > limits.shed_eviction_rate {
                return shed(format!(
                    "store is thrashing ({rate:.1} evictions/round, shed above {:.1}); \
                     batch work rejected",
                    limits.shed_eviction_rate
                ));
            }
        }
        let id = q.push(spec, tenant, priority, conn);
        shared.jobs.lock().entries.insert(id, JobEntry::Queued);
        id
    };
    shared.queue_cv.notify_all();
    shared.stats.lock().jobs_submitted += 1;
    json!({ "ok": true, "job_id": id })
}

pub(crate) fn job_state(shared: &Shared, id: JobId) -> Option<JobState> {
    let jobs = shared.jobs.lock();
    Some(match jobs.entries.get(&id)? {
        JobEntry::Queued => JobState::Queued,
        JobEntry::Running => JobState::Running,
        JobEntry::Done { .. } => JobState::Done,
    })
}

pub(crate) fn wait_for(shared: &Shared, id: JobId) -> Value {
    let mut jobs = shared.jobs.lock();
    loop {
        match jobs.entries.get(&id) {
            None => return error_response(&format!("unknown job {id}")),
            Some(JobEntry::Done { report, .. }) => {
                let report = Arc::clone(report);
                drop(jobs);
                return json!({
                    "ok": true,
                    "job_id": id,
                    "state": JobState::Done.name(),
                    "report": report_to_json(&report),
                });
            }
            Some(_) => {
                // The runtime drains queued jobs before exiting on
                // shutdown, so normally this wait ends in Done; the exit
                // flag covers the race where a submission slips in after
                // the runtime's final queue check.
                if shared.runtime_exited.load(Ordering::SeqCst) {
                    return error_response("server shut down before the job finished");
                }
                shared.done_cv.wait(&mut jobs);
            }
        }
    }
}

pub(crate) fn ingest_stage(
    shared: &Shared,
    staged: &mut Vec<DeltaRecord>,
    ops: Vec<DeltaRecord>,
) -> Value {
    if let Err(refusal) = ingest_writer(shared) {
        return refusal;
    }
    // Bounds-check at staging so a commit can only fail on real I/O, and
    // a bad op is rejected while the client can still tell which request
    // carried it.
    for r in &ops {
        for v in [r.src, r.dst] {
            if v >= shared.num_vertices {
                return error_response(&format!(
                    "vertex {v} out of range (store has {} vertices); nothing staged",
                    shared.num_vertices
                ));
            }
        }
    }
    staged.extend(ops);
    json!({ "ok": true, "staged": staged.len() })
}

/// The coordinator mutation verbs write through, or the refusal to send
/// instead: a typed `not_primary` redirect on a follower (the message
/// names the primary so clients can rotate their peer list), a plain
/// error when ingest is off, `shutting_down` once shutdown began.
fn ingest_writer(shared: &Shared) -> Result<Arc<IngestCoordinator>, Value> {
    if shared.is_follower() {
        let msg =
            format!("not primary: this daemon follows {}; redirect writes there", shared.peer());
        return Err(error_response_coded(&msg, ERR_NOT_PRIMARY));
    }
    let Some(ingest) = shared.ingest_handle() else {
        return Err(error_response("ingest is disabled (start the server with --ingest)"));
    };
    if shared.is_shutting_down() {
        return Err(error_response_coded("server is shutting down", ERR_SHUTTING_DOWN));
    }
    Ok(ingest)
}

pub(crate) fn ingest_commit(shared: &Shared, staged: &mut Vec<DeltaRecord>) -> Value {
    let ingest = match ingest_writer(shared) {
        Ok(ingest) => ingest,
        Err(refusal) => return refusal,
    };
    let records = staged.len();
    match ingest.commit(std::mem::take(staged)) {
        Ok(outcome) => {
            // Wake follower long-polls: the generation is durable on
            // disk, so `repl_frames` can rebuild and ship it now.
            // fetch_max: concurrent group leaders report out of order.
            shared.hub.notify_published(outcome.generation);
            shared.applied_gen.fetch_max(outcome.generation, Ordering::SeqCst);
            shared.primary_gen_seen.fetch_max(outcome.generation, Ordering::SeqCst);
            json!({
                "ok": true,
                "generation": outcome.generation,
                "records": records,
                "group": outcome.group_size,
            })
        }
        Err(msg) => error_response(&msg),
    }
}
