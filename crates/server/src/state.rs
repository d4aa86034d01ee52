//! The state every daemon thread shares: [`Shared`] — the admission
//! structures under their locks, the served store, the ingest writer and
//! the replication role — plus the status record `stats` and `health`
//! answer with. Nothing here knows an engine, and of sockets only where
//! the daemon's own listeners can be reached (to wake them at shutdown);
//! listeners, verbs and the runtime loop all meet through this one struct.
//!
//! Roles: a daemon started with [`ServerConfig::follow`] runs as a
//! **follower** — it serves read-only jobs on replicated generations
//! (behind [`ServerConfig::max_replica_lag`]) until a `promote` request
//! takes it through the store's epoch fence to primary; `role_follower`,
//! `applier` and the generation high-waters below carry that role.

use crate::admission::{ConnId, JobEntry, JobsTable, Queue};
use crate::config::ServerConfig;
use crate::ingest::IngestCoordinator;
use crate::protocol::ServerStats;
use crate::repl::ReplicationHub;
use graphm_core::{GraphJob, PartitionSource};
use graphm_store::{DiskGridSource, PrefetchTarget, ReplicaApplier};
use graphm_workloads::JobSpec;
use parking_lot::{Condvar, Mutex};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Where the daemon's listeners are bound. Their accept loops block, so
/// [`Shared::request_shutdown`] connects here to make each one look at
/// the shutdown flag.
pub(crate) struct Listening {
    unix: Option<PathBuf>,
    tcp: Option<SocketAddr>,
    /// Set by the first [`Listening::wake`]; later ones are no-ops.
    woken: AtomicBool,
}

impl Listening {
    pub(crate) fn new(unix: Option<PathBuf>, tcp: Option<SocketAddr>) -> Listening {
        Listening { unix, tcp, woken: AtomicBool::new(false) }
    }

    /// One throw-away connection per listener, the first time only.
    /// Failures are ignored: a listener that cannot be reached is not
    /// blocked in `accept` on this address any more.
    fn wake(&self) {
        if self.woken.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(path) = &self.unix {
            drop(UnixStream::connect(path));
        }
        if let Some(mut addr) = self.tcp {
            // A wildcard bind is reached through loopback.
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            drop(TcpStream::connect_timeout(&addr, Duration::from_secs(1)));
        }
    }
}

/// State shared between listeners, connection handlers, and the runtime.
///
/// Lock order: `queue` before `jobs` before `stats`; never the reverse.
pub(crate) struct Shared {
    pub(crate) queue: Mutex<Queue>,
    pub(crate) queue_cv: Condvar,
    pub(crate) jobs: Mutex<JobsTable>,
    pub(crate) done_cv: Condvar,
    pub(crate) stats: Mutex<ServerStats>,
    /// What the daemon was started with; limits, quotas and the follower's
    /// peer are read from here (`max_line_bytes` clamped to ≥ 64).
    pub(crate) config: ServerConfig,
    /// Live connection-handler count, for the connection limit.
    pub(crate) connections: AtomicUsize,
    /// The next connection's [`ConnId`].
    pub(crate) next_conn: AtomicU64,
    /// Daemon start time, for the status record's uptime.
    pub(crate) started: Instant,
    pub(crate) shutdown: AtomicBool,
    /// Set once by `Server::start`, after the binds and before any thread.
    pub(crate) listening: OnceLock<Listening>,
    /// Set (under the `jobs` lock) when the runtime thread exits, so
    /// `wait`ers can fail cleanly instead of blocking on a job that will
    /// never be drained.
    pub(crate) runtime_exited: AtomicBool,
    pub(crate) num_vertices: u32,
    /// Out-degrees of the served generation's merged view; replaced by
    /// the runtime thread on every rotation (PageRank-family jobs divide
    /// by them, so they must match the graph the job streams).
    pub(crate) out_degrees: Mutex<Arc<Vec<u32>>>,
    /// The served store, for live residency/prefetch/generation readings
    /// in `stats` responses.
    pub(crate) store: Arc<DiskGridSource>,
    /// Group-commit ingest over the store's leased writer; `None` unless
    /// [`ServerConfig::enable_ingest`] was set or a `promote` installed
    /// one. Behind a mutex so graceful shutdown can *take* it (see
    /// [`Shared::publish_runtime_exit`]).
    pub(crate) ingest: Mutex<Option<Arc<IngestCoordinator>>>,
    /// Replication ledger and publish-notify signal (both roles).
    pub(crate) hub: ReplicationHub,
    /// `true` while this daemon is a follower replica; flipped to
    /// `false` (primary) by a successful `promote`.
    pub(crate) role_follower: AtomicBool,
    /// Highest primary generation the tailer has observed — minus
    /// `applied_gen`, the replica lag.
    pub(crate) primary_gen_seen: AtomicU64,
    /// Highest generation durably applied by this follower's applier.
    pub(crate) applied_gen: AtomicU64,
    /// The follower's frame applier; `promote` *takes* it to reopen the
    /// store's writer through the epoch fence. `None` on primaries.
    pub(crate) applier: Mutex<Option<ReplicaApplier>>,
}

impl Shared {
    /// Wraps what [`Server::start`](crate::Server::start) opened: the
    /// served store plus the writer this daemon's role holds (`ingest` on
    /// an ingesting primary, `applier` on a follower, neither on a pure
    /// reader).
    pub(crate) fn new(
        mut config: ServerConfig,
        store: Arc<DiskGridSource>,
        ingest: Option<Arc<IngestCoordinator>>,
        applier: Option<ReplicaApplier>,
    ) -> Shared {
        let num_vertices = PartitionSource::num_vertices(store.as_ref());
        let current_gen = store.delta_stats().generation;
        config.max_line_bytes = config.max_line_bytes.max(64);
        let epoch = match (&ingest, &applier) {
            (Some(ingest), _) => ingest.writer_stats().1,
            (_, Some(applier)) => applier.lease_epoch(),
            _ => 0,
        };
        Shared {
            queue: Mutex::new(Queue::default()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(JobsTable::new(
                config.max_done_reports,
                PartitionSource::graph_bytes(store.as_ref()) as u64,
            )),
            done_cv: Condvar::new(),
            stats: Mutex::new(ServerStats {
                num_partitions: store.num_partitions() as u64,
                num_vertices: num_vertices as u64,
                ..ServerStats::default()
            }),
            connections: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            listening: OnceLock::new(),
            runtime_exited: AtomicBool::new(false),
            num_vertices,
            out_degrees: Mutex::new(Arc::new(store.out_degrees())),
            store,
            ingest: Mutex::new(ingest),
            hub: ReplicationHub::new(current_gen, epoch),
            role_follower: AtomicBool::new(config.follow.is_some()),
            primary_gen_seen: AtomicU64::new(current_gen),
            applied_gen: AtomicU64::new(current_gen),
            applier: Mutex::new(applier),
            config,
        }
    }

    /// The primary this follower tails (empty on a daemon started as one).
    pub(crate) fn peer(&self) -> &str {
        self.config.follow.as_deref().unwrap_or("")
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// `conn` sent something other than `submit`, or hung up: its burst
    /// is over, and the runtime takes another look at the queue.
    pub(crate) fn end_burst(&self, conn: ConnId) {
        if self.queue.lock().open_bursts.remove(&conn) {
            self.queue_cv.notify_all();
        }
    }

    /// The engine's retirement notifier: wakes the runtime to collect the
    /// reports it has retired.
    pub(crate) fn signal_retirement(&self) {
        self.queue.lock().retired = true;
        self.queue_cv.notify_all();
    }

    /// Raises the shutdown flag and wakes every thread parked on the
    /// daemon to act on it.
    pub(crate) fn request_shutdown(&self) {
        self.refuse_new_work();
        self.wake_for_shutdown();
    }

    /// The first half of [`Shared::request_shutdown`]: from here on new
    /// work is refused, but no parked thread has looked yet. A `shutdown`
    /// request raises the flag before its ack and wakes the daemon after
    /// writing it: woken first, the daemon's threads could all stop — and
    /// the process exit — before the ack is written.
    pub(crate) fn refuse_new_work(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The second half of [`Shared::request_shutdown`]: the runtime,
    /// waiters and accept loops look at the flag.
    pub(crate) fn wake_for_shutdown(&self) {
        // The runtime reads the flag under `queue` and then parks on
        // `queue_cv`; passing through the lock first means it is either
        // parked by now or will read the raised flag, so the notify below
        // cannot fall between its read and its wait and be lost.
        drop(self.queue.lock());
        self.queue_cv.notify_all();
        self.done_cv.notify_all();
        if let Some(listening) = self.listening.get() {
            listening.wake();
        }
    }

    /// The status record: runtime counters merged with the store's *live*
    /// residency, prefetch and generation state (which accumulate outside
    /// the stats lock), the writer lease this daemon's role holds, and its
    /// liveness.
    pub(crate) fn stats_snapshot(&self) -> ServerStats {
        let mut stats = self.stats.lock().clone();
        let rs = self.store.residency_stats();
        stats.resident_bytes = rs.resident_bytes;
        stats.evicted_bytes = rs.evicted_bytes;
        stats.evictions = rs.evictions;
        stats.memory_budget_bytes = rs.budget_bytes;
        stats.prefetch_window = rs.prefetch_window;
        let pf = self.store.prefetch_stats();
        stats.prefetch_issued = pf.issued;
        stats.prefetch_hits = pf.hits;
        let ds = self.store.delta_stats();
        stats.generation = ds.generation;
        stats.generation_rotations = ds.rotations;
        stats.delta_bytes = ds.delta_bytes;
        stats.delta_records = ds.delta_records;
        stats.compactions = ds.compactions;
        if let Some(ingest) = self.ingest_handle() {
            let wal = ingest.writer_stats().0;
            stats.delta_wal_records = wal.records;
            stats.delta_wal_batches = wal.batches;
            stats.delta_wal_syncs = wal.syncs;
            stats.delta_wal_bytes = wal.bytes;
            let is = ingest.stats();
            stats.ingest_commits = is.commits;
            stats.ingest_groups = is.groups;
        }
        let lease = self.held_lease_epoch();
        stats.lease_held = u64::from(lease.is_some());
        stats.lease_epoch = lease.unwrap_or(0);
        let hub = self.hub.snapshot();
        stats.repl_frames_shipped = hub.frames_shipped;
        stats.repl_frames_acked = hub.frames_acked;
        stats.repl_followers = hub.followers;
        stats.repl_reconnects = hub.reconnects;
        stats.queue_depth = self.queue.lock().pending.len() as u64;
        stats.running = {
            let jobs = self.jobs.lock();
            jobs.entries.values().filter(|e| matches!(e, JobEntry::Running)).count() as u64
        };
        stats.uptime_ms = self.started.elapsed().as_millis() as u64;
        stats.shutting_down = self.is_shutting_down();
        let follower = self.is_follower();
        stats.role = if follower { "follower" } else { "primary" }.to_string();
        stats.replica_lag_generations = if follower { self.replica_lag() } else { 0 };
        stats.peer = if follower { self.peer() } else { "" }.to_string();
        stats
    }

    /// Whether this daemon currently serves as a follower replica.
    pub(crate) fn is_follower(&self) -> bool {
        self.role_follower.load(Ordering::SeqCst)
    }

    /// How many generations this follower trails the primary's observed
    /// high-water (0 on primaries by construction).
    pub(crate) fn replica_lag(&self) -> u64 {
        self.primary_gen_seen
            .load(Ordering::SeqCst)
            .saturating_sub(self.applied_gen.load(Ordering::SeqCst))
    }

    /// The epoch of the writer lease this daemon holds, if any: through
    /// the ingest writer on a primary, through the applier on a follower.
    fn held_lease_epoch(&self) -> Option<u64> {
        match self.ingest_handle() {
            Some(ingest) => Some(ingest.writer_stats().1),
            None => self.applier.lock().as_ref().map(|applier| applier.lease_epoch()),
        }
    }

    /// The lease epoch frames from this daemon carry.
    pub(crate) fn current_epoch(&self) -> u64 {
        self.held_lease_epoch().unwrap_or_else(|| self.hub.snapshot().epoch)
    }

    /// Clones the ingest coordinator handle, if still held (graceful
    /// shutdown takes it to release the writer lease early).
    pub(crate) fn ingest_handle(&self) -> Option<Arc<IngestCoordinator>> {
        self.ingest.lock().clone()
    }

    /// Publishes the runtime thread's exit under the jobs lock so a
    /// waiter's check-then-wait cannot race past it, then wakes every
    /// waiter for its final check.
    pub(crate) fn publish_runtime_exit(&self) {
        // Graceful shutdown releases the store's writer lease here, once
        // no more rounds will run: dropping the coordinator closes the
        // leased `DeltaWriter` as soon as in-flight commits (holding `Arc`
        // clones) drain, so an external writer can take over without
        // waiting for the daemon process to exit.
        drop(self.ingest.lock().take());
        let jobs = self.jobs.lock();
        self.runtime_exited.store(true, Ordering::SeqCst);
        drop(jobs);
        self.done_cv.notify_all();
    }

    /// Instantiates the specs of one cohort against the currently served
    /// generation: `JobSpec::instantiate_cohort`'s jobs, each with the
    /// indices into `specs` of its members.
    pub(crate) fn instantiate_cohort(
        &self,
        specs: &[JobSpec],
    ) -> Vec<(Vec<usize>, Box<dyn GraphJob>)> {
        let degrees = Arc::clone(&self.out_degrees.lock());
        JobSpec::instantiate_cohort(specs, self.num_vertices, &degrees)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_store::Convert;

    /// A shutdown requested between the runtime's flag check and its
    /// wait still wakes it: the runtime holds `queue` across both, as
    /// `wait_for_work` does.
    #[test]
    fn a_shutdown_requested_before_the_runtime_parks_still_wakes_it() {
        let dir = std::env::temp_dir().join(format!("graphm-state-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let g = graphm_graph::generators::rmat(
            64,
            400,
            graphm_graph::generators::RmatParams::GRAPH500,
            5,
        );
        Convert::grid(2).write(&g, &dir).unwrap();
        let store = DiskGridSource::open_shared(&dir).unwrap();
        let shared = Arc::new(Shared::new(ServerConfig::new(&dir), store, None, None));

        let mut q = shared.queue.lock();
        assert!(!shared.is_shutting_down());
        let requester = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.request_shutdown())
        };
        std::thread::sleep(Duration::from_millis(50));
        let parked = Instant::now();
        shared.queue_cv.wait_for(&mut q, Duration::from_secs(5));
        let waited = parked.elapsed();
        drop(q);
        requester.join().unwrap();
        assert!(shared.is_shutting_down());
        assert!(waited < Duration::from_secs(2), "the shutdown wake-up was lost ({waited:?})");
        std::fs::remove_dir_all(&dir).ok();
    }
}
