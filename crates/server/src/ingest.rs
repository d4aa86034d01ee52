//! Group-commit ingest: multiplexing concurrent client mutation batches
//! through the store's single leased writer.
//!
//! The delta store is single-writer by design (one `DeltaWriter`, one
//! writer lease), but the daemon serves many connections. The
//! [`IngestCoordinator`] bridges the two with classic **group commit**:
//!
//! 1. A committing connection enqueues its batch under the queue lock
//!    and waits on a condvar.
//! 2. The first waiter to find no commit in flight becomes the *leader*:
//!    it drains the whole queue (its own batch plus everything that
//!    piled up), releases the queue lock, and applies the group through
//!    the writer — every batch in ticket order, then **one** `publish`:
//!    one WAL append, one fsync, one generation for the entire group.
//! 3. The leader posts per-ticket results and wakes the group. Batches
//!    that arrived while it was publishing form the next group, so
//!    throughput scales with batches-per-fsync rather than fsyncs.
//!
//! Failure is group-granular: if any batch in the group fails to apply,
//! the leader discards the writer's pending records and fails every
//! ticket in the group — a generation either contains the whole group or
//! none of it (mirroring the WAL's frame atomicity).

use graphm_graph::delta::{DeltaRecord, DELTA_OP_DELETE};
use graphm_store::{DeltaWriter, WalStats};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;

/// What a successful commit observed.
#[derive(Clone, Copy, Debug)]
pub struct CommitOutcome {
    /// The generation the batch became durable in.
    pub generation: u64,
    /// How many client commits shared that generation (≥ 1).
    pub group_size: usize,
}

/// Cumulative coordinator counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestStats {
    /// Client commits applied.
    pub commits: u64,
    /// Groups published (one generation each).
    pub groups: u64,
}

/// Queue state, guarded separately from the writer so followers can
/// enqueue while the leader is deep in fsync.
struct GroupState {
    next_ticket: u64,
    queue: Vec<(u64, Vec<DeltaRecord>)>,
    /// A leader is applying/publishing; the queue is the *next* group.
    committing: bool,
    results: HashMap<u64, Result<CommitOutcome, String>>,
    stats: IngestStats,
}

/// See the module docs. One per ingest-enabled daemon.
pub struct IngestCoordinator {
    state: Mutex<GroupState>,
    cv: Condvar,
    writer: Mutex<DeltaWriter>,
}

impl IngestCoordinator {
    /// Wraps the daemon's leased writer.
    pub fn new(writer: DeltaWriter) -> IngestCoordinator {
        IngestCoordinator {
            state: Mutex::new(GroupState {
                next_ticket: 0,
                queue: Vec::new(),
                committing: false,
                results: HashMap::new(),
                stats: IngestStats::default(),
            }),
            cv: Condvar::new(),
            writer: Mutex::new(writer),
        }
    }

    /// Commits one connection's staged batch, blocking until the group
    /// that absorbed it is durably published (or failed). An empty batch
    /// rides along for free and reports the group's generation.
    pub fn commit(&self, batch: Vec<DeltaRecord>) -> Result<CommitOutcome, String> {
        let ticket = {
            let mut st = self.state.lock();
            let ticket = st.next_ticket;
            st.next_ticket += 1;
            st.queue.push((ticket, batch));
            ticket
        };
        loop {
            // Decide under the queue lock: take our result, become the
            // leader, or wait.
            let group = {
                let mut st = self.state.lock();
                loop {
                    if let Some(result) = st.results.remove(&ticket) {
                        return result;
                    }
                    if !st.committing && !st.queue.is_empty() {
                        st.committing = true;
                        break std::mem::take(&mut st.queue);
                    }
                    self.cv.wait(&mut st);
                }
            };
            // Leader, queue lock released: apply the group in ticket
            // order and publish it as one generation. Followers keep
            // enqueueing into the next group meanwhile.
            let outcome = self.publish_group(&group);
            {
                let mut st = self.state.lock();
                st.stats.groups += 1;
                st.stats.commits += group.len() as u64;
                for (t, _) in &group {
                    st.results.insert(*t, outcome.clone());
                }
                st.committing = false;
            }
            self.cv.notify_all();
            // Our own result is among those just posted; loop re-checks.
        }
    }

    /// Applies and publishes one group through the leased writer.
    fn publish_group(&self, group: &[(u64, Vec<DeltaRecord>)]) -> Result<CommitOutcome, String> {
        let mut writer = self.writer.lock();
        for (_, batch) in group {
            for r in batch {
                let applied = if r.op == DELTA_OP_DELETE {
                    writer.delete(r.src, r.dst)
                } else {
                    writer.insert(r.src, r.dst, r.weight)
                };
                if let Err(e) = applied {
                    // All-or-nothing: the whole group rolls back.
                    writer.discard_pending();
                    return Err(format!("ingest group failed to apply: {e}"));
                }
            }
        }
        match writer.publish() {
            Ok(generation) => Ok(CommitOutcome { generation, group_size: group.len() }),
            Err(e) => {
                writer.discard_pending();
                Err(format!("ingest group failed to publish: {e}"))
            }
        }
    }

    /// Coordinator counters.
    pub fn stats(&self) -> IngestStats {
        self.state.lock().stats
    }

    /// The writer's WAL counters and lease epoch, for `stats` responses.
    pub fn writer_stats(&self) -> (WalStats, u64) {
        let writer = self.writer.lock();
        (writer.wal_stats(), writer.lease_epoch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_store::Convert;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphm-ingest-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn store(name: &str, vertices: u32, edges: usize) -> PathBuf {
        let g = graphm_graph::generators::rmat(
            vertices,
            edges,
            graphm_graph::generators::RmatParams::GRAPH500,
            11,
        );
        let dir = tmpdir(name);
        Convert::grid(2).write(&g, &dir).unwrap();
        dir
    }

    #[test]
    fn concurrent_commits_share_generations() {
        let dir = store("group", 64, 300);
        let coord = Arc::new(IngestCoordinator::new(DeltaWriter::open(&dir).unwrap()));
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let coord = Arc::clone(&coord);
                std::thread::spawn(move || {
                    let mut gens = Vec::new();
                    for i in 0..5u32 {
                        let batch = vec![DeltaRecord::insert(t, (i + 1) % 64, 1.0)];
                        let out = coord.commit(batch).unwrap();
                        assert!(out.group_size >= 1);
                        gens.push(out.generation);
                    }
                    gens
                })
            })
            .collect();
        let mut all_gens = Vec::new();
        for t in threads {
            let gens = t.join().unwrap();
            // Each thread's own commits land in increasing generations.
            for w in gens.windows(2) {
                assert!(w[0] < w[1], "a later commit cannot land in an earlier generation");
            }
            all_gens.extend(gens);
        }
        let stats = coord.stats();
        assert_eq!(stats.commits, 20);
        assert!(stats.groups <= 20);
        assert!(stats.groups >= 1);
        let (wal, epoch) = coord.writer_stats();
        assert_eq!(wal.records, 20);
        assert_eq!(epoch, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_batch_fails_its_whole_group_and_rolls_back() {
        let dir = store("rollback", 32, 200);
        let coord = IngestCoordinator::new(DeltaWriter::open(&dir).unwrap());
        let before = {
            let w = coord.writer.lock();
            w.generation()
        };
        // Out-of-range vertex: staging-level validation is the daemon's
        // job, but the coordinator must still fail closed.
        let err = coord.commit(vec![DeltaRecord::insert(999, 0, 1.0)]).unwrap_err();
        assert!(err.contains("failed to apply"), "{err}");
        let w = coord.writer.lock();
        assert_eq!(w.generation(), before, "no generation published");
        assert_eq!(w.pending_mutations(), 0, "pending rolled back");
        drop(w);
        // The writer still works afterwards.
        let out = coord.commit(vec![DeltaRecord::insert(1, 2, 1.0)]).unwrap();
        assert_eq!(out.generation, before + 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
