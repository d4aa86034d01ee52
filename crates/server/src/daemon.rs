//! The daemon: listeners, the submission queue, and the runtime thread.
//!
//! Dataflow (one box per thread):
//!
//! ```text
//!  unix accept loop ─┐                         ┌─> conn handler ─┐
//!  tcp  accept loop ─┴─> one thread per conn ──┤   parse line    │
//!                                              └─> respond <─────┘
//!          conn handlers push (job_id, job) ──> submission queue
//!                                                     │ drain (batched)
//!                                                     v
//!          runtime thread: SharingService over one shared DiskGridSource
//!            - drains arrivals before every step (mid-round joiners
//!              enter at the next sweep boundary),
//!            - publishes JobReports + wakes `wait`ers as jobs finish.
//! ```
//!
//! One `SharingService` lives for the whole daemon: `Init()` preprocessing
//! and `T(E)` calibration happen once at startup, then every socket-
//! submitted job shares partition passes with whatever else is in flight —
//! the paper's concurrency story with real clients instead of an arrival
//! script.
//!
//! Batching: when the runtime is idle, the first arrival starts a round
//! only after [`ServerConfig::batch_window`] elapses, so a concurrent
//! burst of submissions lands in one admission and shares from the first
//! sweep. Jobs arriving mid-round join at the next sweep boundary.
//!
//! Roles: a daemon started with [`ServerConfig::follow`] runs as a
//! **follower** — a tailer thread subscribes to the named primary,
//! replays shipped replication frames through a
//! [`graphm_store::ReplicaApplier`] into its own store directory, and
//! the daemon serves read-only jobs on replicated generations (behind
//! [`ServerConfig::max_replica_lag`]) until a `promote` request takes it
//! through the store's epoch fence to primary.

use crate::client::{retry_delay, Client, ClientError};
use crate::ingest::IngestCoordinator;
use crate::protocol::{
    error_response, error_response_coded, parse_request, report_to_json, HealthReport, JobState,
    Priority, Request, ServerStats, ERR_LINE_TOO_LONG, ERR_NOT_PRIMARY, ERR_OVERLOADED,
    ERR_SHUTTING_DOWN, ERR_STALE_REPLICA, ERR_UNAUTHORIZED,
};
use crate::repl::{hex_encode, ReplicationHub};
use graphm_cachesim::VirtualClock;
use graphm_core::{
    GraphJob, JobId, JobReport, PartitionSource, RunnerConfig, SharingService, WallClockConfig,
    WallClockExecutor,
};
use graphm_graph::delta::{read_current_generation, DeltaRecord};
use graphm_graph::{GraphError, MemoryProfile, Result};
use graphm_store::{
    decode_frame, read_generation_frame, DeltaWriter, DiskGridSource, PrefetchTarget, Prefetcher,
    ReplicaApplier,
};
use graphm_workloads::JobSpec;
use serde_json::{json, Value};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one `repl_frames` request may wait for a fresh publish
/// before answering with an empty frame list. Followers poll with a
/// read timeout comfortably above this (see [`REPL_READ_TIMEOUT`]).
const REPL_LONG_POLL: Duration = Duration::from_millis(750);

/// Follower tailer's socket read timeout, so a primary that dies
/// without an RST surfaces as an `Io` error instead of a hung tailer.
const REPL_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Backoff exponent cap for follower reconnects: caps the retry storm
/// at `repl_backoff * 2^6` per attempt (attempts are counted and
/// surfaced by `repl_status`).
const REPL_MAX_BACKOFF_EXP: u32 = 6;

/// How the runtime thread executes jobs.
///
/// Both modes drain the same submission queue into the same shared-store
/// sharing runtime and produce **algorithmically identical** reports
/// (same vertex values, same converged iteration counts) — they differ
/// only in what the timing fields mean and how fast the wall clock moves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Bit-exact virtual-time replay through the simulated memory
    /// hierarchy (`SharingService`) on one OS thread — what tests and
    /// figure harnesses compare against.
    #[default]
    Deterministic,
    /// Real parallel serving: the `WallClockExecutor`'s sweep driver on
    /// the worker pool's lanes, with a partition [`Prefetcher`] reading
    /// the §4 loading order ahead. Report timing
    /// fields carry wall-clock nanoseconds; `instructions` and the
    /// simulated clock breakdown are zero.
    Wallclock,
}

impl ExecutionMode {
    /// CLI / wire name.
    pub fn name(self) -> &'static str {
        match self {
            ExecutionMode::Deterministic => "deterministic",
            ExecutionMode::Wallclock => "wallclock",
        }
    }

    /// Parses a CLI / wire name.
    pub fn from_name(s: &str) -> Option<ExecutionMode> {
        match s {
            "deterministic" => Some(ExecutionMode::Deterministic),
            "wallclock" => Some(ExecutionMode::Wallclock),
            _ => None,
        }
    }
}

/// How a daemon is configured.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Directory holding a grid store written by `graphm-convert` /
    /// `Convert::grid`. Opened read-only through the shared-mapping
    /// registry; the daemon never writes it (single-writer/multi-reader —
    /// see `docs/ARCHITECTURE.md`).
    pub store_dir: PathBuf,
    /// Unix-domain socket to listen on (removed and re-created at bind).
    pub socket_path: Option<PathBuf>,
    /// TCP address to listen on, e.g. `"127.0.0.1:7421"` (port 0 picks a
    /// free port; read it back with [`Server::tcp_addr`]).
    pub tcp_addr: Option<String>,
    /// Simulated memory hierarchy for the runtime (the same profile a
    /// `Workbench` would use; out-of-core is derived from the store size
    /// exactly like `Workbench::runner_config`).
    pub profile: MemoryProfile,
    /// Idle-round batching window: how long the runtime waits after the
    /// first arrival of a fresh round before draining, so a concurrent
    /// burst shares from sweep one.
    pub batch_window: Duration,
    /// Formula-1 `U_v` used for chunk sizing (8 covers every shipped
    /// algorithm; see `SharingService::new`).
    pub state_bytes_per_vertex: usize,
    /// How many finished reports to retain for `wait`/`status` (each
    /// holds an `O(num_vertices)` values vector, so unbounded retention
    /// would grow a long-lived daemon without limit). Oldest finished
    /// jobs are evicted past this cap; waiting on an evicted id reports
    /// an unknown job. Reports a `wait` already delivered are kept for a
    /// repeated query only while together they fit the store's structure
    /// size, so they may be evicted sooner.
    pub max_done_reports: usize,
    /// How the runtime thread executes jobs (see [`ExecutionMode`]).
    pub mode: ExecutionMode,
    /// Page-cache budget for the served store, in bytes (0 = unlimited).
    /// When modeled residency exceeds it, the store releases segments
    /// behind the sweep frontier with `madvise(MADV_DONTNEED)` and the
    /// `stats` response reports resident/evicted bytes.
    pub memory_budget_bytes: u64,
    /// Adaptive prefetch window (wallclock mode): on (default) lets the
    /// store's feedback controller size the readahead depth from
    /// issued/hits and residency pressure; off advises the full announced
    /// lookahead (the pre-adaptive fixed-depth behaviour).
    pub adaptive_prefetch: bool,
    /// Maximum announced prefetch lookahead (wallclock mode).
    pub max_prefetch_lookahead: usize,
    /// Check the store's `CURRENT` pointer between rounds and rotate to
    /// newly published delta generations (on by default; `--no-rotate`
    /// pins the daemon to its open-time generation). Jobs always run
    /// entirely within one generation — rotation happens only while no
    /// round is in flight, and mutated graphs re-run `Init()`
    /// preprocessing before the next round.
    pub auto_rotate: bool,
    /// Serve `ingest`/`ingest_commit` sessions (off by default). When on,
    /// the daemon acquires the store's **writer lease** at startup —
    /// startup fails with [`GraphError::LeaseHeld`] if another writer
    /// (e.g. a `graphm-delta` process) holds it — and multiplexes client
    /// mutation batches through one group-commit [`IngestCoordinator`].
    /// Off keeps the daemon a pure reader, compatible with an external
    /// writer publishing generations it rotates to.
    pub enable_ingest: bool,
    /// Admission control: submissions beyond this many pending jobs are
    /// rejected with a typed `overloaded` error instead of queuing
    /// without bound (0 = unlimited, the pre-admission behaviour).
    pub max_pending: usize,
    /// Connection limit: accepts beyond this many live connections get
    /// one typed `overloaded` error line and are closed (0 = unlimited).
    pub max_connections: usize,
    /// Per-read socket timeout: a connection that sends no byte for this
    /// long is closed, so half-dead clients cannot hold connection slots
    /// forever (zero = no timeout).
    pub read_timeout: Duration,
    /// Cap on one request line's bytes; longer lines are discarded
    /// unparsed and answered with a typed `line_too_long` error (the
    /// connection stays usable — framing is recovered at the newline).
    pub max_line_bytes: usize,
    /// Per-tenant cap on *queued* submissions (0 = unlimited). Beyond it
    /// that tenant's submissions are shed with `overloaded`; other
    /// tenants are unaffected.
    pub tenant_max_pending: usize,
    /// Per-tenant cap on queued + running jobs (0 = unlimited).
    pub tenant_max_inflight: usize,
    /// Round-size policy: at most this many `Priority::Batch` jobs are
    /// admitted into one round/batch (0 = unlimited). `Interactive` jobs
    /// always join the next round, so a latency-sensitive tenant is never
    /// stuck behind a hundred-job batch backlog.
    pub max_batch_per_round: usize,
    /// Out-of-core admission signal: when the EWMA of store partition
    /// evictions per round exceeds this, `Batch` submissions are shed
    /// with `overloaded` while `Interactive` ones are still admitted
    /// (0.0 = disabled). Sustained eviction churn means the working set
    /// no longer fits the memory budget — adding batch work would only
    /// deepen the thrash.
    pub shed_eviction_rate: f64,
    /// Shared-secret listener auth: when set, TCP connections must send
    /// `auth` with this token before any other request (typed
    /// `unauthorized` otherwise). Unix-socket connections are exempt —
    /// the filesystem already gates them — but their `SO_PEERCRED`
    /// identity is logged at accept, so tenant names are attributable.
    pub auth_token: Option<String>,
    /// Follower role: tail this primary address (TCP, e.g.
    /// `"127.0.0.1:7421"`), replaying its replication frames into
    /// `store_dir`. Mutually exclusive with [`ServerConfig::enable_ingest`]
    /// (a follower owns its store's writer lease through the applier,
    /// not the ingest coordinator) — `promote` flips the role live.
    pub follow: Option<String>,
    /// Follower staleness bound: reject `submit` with a typed
    /// `stale_replica` error while the replica is more than this many
    /// generations behind the primary's observed high-water
    /// (0 = serve at any lag, the default).
    pub max_replica_lag: u64,
    /// Base delay for the follower tailer's full-jitter exponential
    /// reconnect backoff (the same curve as `graphm-client
    /// --backoff-ms`; exponent capped so retry storms stay bounded).
    pub repl_backoff: Duration,
}

impl ServerConfig {
    /// Defaults over `store_dir`: no listeners yet (set at least one),
    /// `MemoryProfile::DEFAULT`, a 20 ms batch window, 8-byte `U_v`.
    pub fn new(store_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            store_dir: store_dir.into(),
            socket_path: None,
            tcp_addr: None,
            profile: MemoryProfile::DEFAULT,
            batch_window: Duration::from_millis(20),
            state_bytes_per_vertex: 8,
            max_done_reports: 1024,
            mode: ExecutionMode::Deterministic,
            memory_budget_bytes: 0,
            adaptive_prefetch: true,
            max_prefetch_lookahead: graphm_store::DEFAULT_MAX_PREFETCH_LOOKAHEAD,
            auto_rotate: true,
            enable_ingest: false,
            max_pending: 0,
            max_connections: 0,
            read_timeout: Duration::ZERO,
            max_line_bytes: 1 << 20,
            tenant_max_pending: 0,
            tenant_max_inflight: 0,
            max_batch_per_round: 0,
            shed_eviction_rate: 0.0,
            auth_token: None,
            follow: None,
            max_replica_lag: 0,
            repl_backoff: Duration::from_millis(200),
        }
    }
}

/// Daemon-side job lifecycle entry.
enum JobEntry {
    Queued,
    Running,
    Done {
        report: Arc<JobReport>,
        /// A `wait` response carrying the report reached its socket.
        delivered: bool,
    },
}

/// One admitted-but-not-yet-running submission.
struct Pending {
    id: JobId,
    spec: JobSpec,
    tenant: String,
    priority: Priority,
}

/// Submission queue: ids are assigned here, in push order. Specs, not
/// instantiated jobs, are queued: instantiation happens at drain time on
/// the runtime thread, so a job's out-degrees always match the generation
/// of the round it runs in. `Priority::Batch` entries may be *retained*
/// across drains by the round-size policy, so drain order is no longer
/// guaranteed to match service-id order — the runtime keeps an explicit
/// service-id → daemon-id map instead.
///
/// The per-tenant gauges back admission quotas: `queued` counts entries
/// still in `pending`; `inflight` counts queued + running (decremented
/// when the job's report is published). Zeroed entries are removed so the
/// maps don't grow with tenant-name churn.
struct Queue {
    next_id: JobId,
    pending: VecDeque<Pending>,
    queued_by_tenant: HashMap<String, u64>,
    inflight_by_tenant: HashMap<String, u64>,
}

impl Queue {
    fn dec(map: &mut HashMap<String, u64>, tenant: &str) {
        if let Some(n) = map.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                map.remove(tenant);
            }
        }
    }
}

/// Pops every admissible pending entry, honouring the round-size policy:
/// `Interactive` jobs always drain; `Batch` jobs drain while the round's
/// remaining `batch_budget` allows, and the rest stay queued *in order*
/// for a later round. The budget is shared across all of one round's
/// drains (the runtime drains before every step), so a deep batch backlog
/// cannot trickle past the cap mid-round.
fn drain_admissible(q: &mut Queue, batch_budget: &mut usize) -> Vec<Pending> {
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
struct JobsTable {
    entries: HashMap<JobId, JobEntry>,
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
    fn new(retain: usize, delivered_budget: u64) -> JobsTable {
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
    fn finish(&mut self, report: JobReport) {
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
    fn mark_delivered(&mut self, id: JobId) {
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

/// Admission-control knobs, copied out of [`ServerConfig`] so connection
/// handlers don't carry the whole config around.
struct Admission {
    max_pending: usize,
    tenant_max_pending: usize,
    tenant_max_inflight: usize,
    shed_eviction_rate: f64,
}

/// State shared between listeners, connection handlers, and the runtime.
///
/// Lock order: `queue` before `jobs` before `stats`; never the reverse.
struct Shared {
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    jobs: Mutex<JobsTable>,
    done_cv: Condvar,
    stats: Mutex<ServerStats>,
    admission: Admission,
    /// Live connection-handler count, for the connection limit.
    connections: AtomicUsize,
    max_connections: usize,
    /// Request-line byte cap (see [`ServerConfig::max_line_bytes`]).
    max_line_bytes: usize,
    /// Daemon start time, for `health` uptime.
    started: Instant,
    shutdown: AtomicBool,
    /// Set (under the `jobs` lock) when the runtime thread exits, so
    /// `wait`ers can fail cleanly instead of blocking on a job that will
    /// never be drained.
    runtime_exited: AtomicBool,
    num_vertices: u32,
    /// Out-degrees of the served generation's merged view; replaced by
    /// the runtime thread on every rotation (PageRank-family jobs divide
    /// by them, so they must match the graph the job streams).
    out_degrees: Mutex<Arc<Vec<u32>>>,
    /// The served store, for live residency/prefetch/generation readings
    /// in `stats` responses (counters accumulate in both execution
    /// modes).
    store: Arc<DiskGridSource>,
    /// Group-commit ingest over the store's leased writer; `None` unless
    /// [`ServerConfig::enable_ingest`] was set. Behind a mutex so graceful
    /// shutdown can *take* it — dropping the coordinator releases the
    /// writer lease as soon as in-flight commits (holding `Arc` clones)
    /// finish, letting an external writer take over without waiting for
    /// the daemon process to exit.
    ingest: Mutex<Option<Arc<IngestCoordinator>>>,
    /// The served store directory, for rebuilding replication frames
    /// from committed generations on demand.
    store_dir: PathBuf,
    /// Replication ledger and publish-notify signal (both roles).
    hub: ReplicationHub,
    /// Shared listener secret (see [`ServerConfig::auth_token`]).
    auth_token: Option<String>,
    /// `true` while this daemon is a follower replica; flipped to
    /// `false` (primary) by a successful `promote`.
    role_follower: AtomicBool,
    /// The primary this follower tails (empty string on a primary).
    peer: String,
    /// Follower staleness bound (see [`ServerConfig::max_replica_lag`]).
    max_replica_lag: u64,
    /// Highest primary generation the tailer has observed — minus
    /// `applied_gen`, the replica lag.
    primary_gen_seen: AtomicU64,
    /// Highest generation durably applied by this follower's applier.
    applied_gen: AtomicU64,
    /// The follower's frame applier; `promote` *takes* it to reopen the
    /// store's writer through the epoch fence. `None` on primaries.
    applier: Mutex<Option<ReplicaApplier>>,
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Runtime counters merged with the store's *live* residency and
    /// prefetch state (the latter accumulate outside the stats lock, in
    /// whichever execution mode is driving loads).
    fn stats_snapshot(&self) -> ServerStats {
        let mut stats = *self.stats.lock().unwrap_or_else(|e| e.into_inner());
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
            let (wal, epoch) = ingest.writer_stats();
            stats.delta_wal_records = wal.records;
            stats.delta_wal_batches = wal.batches;
            stats.delta_wal_syncs = wal.syncs;
            stats.delta_wal_bytes = wal.bytes;
            stats.lease_epoch = epoch;
            stats.lease_held = 1;
            let is = ingest.stats();
            stats.ingest_commits = is.commits;
            stats.ingest_groups = is.groups;
        }
        let hub = self.hub.snapshot();
        stats.repl_frames_shipped = hub.frames_shipped;
        stats.repl_frames_acked = hub.frames_acked;
        stats.repl_followers = hub.followers;
        stats.repl_reconnects = hub.reconnects;
        stats.queue_depth =
            self.queue.lock().unwrap_or_else(|e| e.into_inner()).pending.len() as u64;
        stats
    }

    /// Whether this daemon currently serves as a follower replica.
    fn is_follower(&self) -> bool {
        self.role_follower.load(Ordering::SeqCst)
    }

    /// How many generations this follower trails the primary's observed
    /// high-water (0 on primaries by construction).
    fn replica_lag(&self) -> u64 {
        self.primary_gen_seen
            .load(Ordering::SeqCst)
            .saturating_sub(self.applied_gen.load(Ordering::SeqCst))
    }

    /// The lease epoch frames from this daemon carry: the ingest
    /// writer's on a primary, the applier's on a follower.
    fn current_epoch(&self) -> u64 {
        if let Some(ingest) = self.ingest_handle() {
            return ingest.writer_stats().1;
        }
        match self.applier.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
            Some(applier) => applier.lease_epoch(),
            None => self.hub.snapshot().epoch,
        }
    }

    /// Clones the ingest coordinator handle, if still held (graceful
    /// shutdown takes it to release the writer lease early).
    fn ingest_handle(&self) -> Option<Arc<IngestCoordinator>> {
        self.ingest.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Point-in-time liveness/readiness snapshot for the `health` verb.
    fn health_snapshot(&self) -> HealthReport {
        let queue_depth = self.queue.lock().unwrap_or_else(|e| e.into_inner()).pending.len() as u64;
        let running = {
            let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            jobs.entries.values().filter(|e| matches!(e, JobEntry::Running)).count() as u64
        };
        let (lease_held, lease_epoch) = match self.ingest_handle() {
            Some(ingest) => {
                let (_, epoch) = ingest.writer_stats();
                (true, epoch)
            }
            // A follower holds its store's lease through the applier.
            None => match self.applier.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                Some(applier) => (true, applier.lease_epoch()),
                None => (false, 0),
            },
        };
        let follower = self.is_follower();
        HealthReport {
            lease_held,
            lease_epoch,
            generation: self.store.delta_stats().generation,
            queue_depth,
            running,
            resident_bytes: self.store.residency_stats().resident_bytes,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            shutting_down: self.shutdown.load(Ordering::SeqCst),
            role: if follower { "follower".to_string() } else { "primary".to_string() },
            replica_lag_generations: if follower { self.replica_lag() } else { 0 },
            peer: if follower { self.peer.clone() } else { String::new() },
        }
    }

    /// Instantiates a spec against the currently served generation.
    fn instantiate(&self, spec: &JobSpec) -> Box<dyn GraphJob> {
        let degrees = Arc::clone(&self.out_degrees.lock().unwrap_or_else(|e| e.into_inner()));
        spec.instantiate(self.num_vertices, &degrees)
    }
}

/// A running daemon. Dropping it (or calling [`Server::shutdown`]) stops
/// the listeners, drains the queue, and joins the runtime thread.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    socket_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
}

impl Server {
    /// Opens the store, starts the runtime thread and the configured
    /// listeners, and returns once all are accepting.
    pub fn start(config: ServerConfig) -> Result<Server> {
        if config.socket_path.is_none() && config.tcp_addr.is_none() {
            return Err(GraphError::Format(
                "server config needs a unix socket path or a tcp address".to_string(),
            ));
        }
        if config.follow.is_some() && config.enable_ingest {
            return Err(GraphError::Format(
                "a follower cannot also serve ingest (it writes only replicated frames); \
                 drop --ingest or --follow"
                    .to_string(),
            ));
        }
        // Ingest acquires the writer lease up front: failing here (e.g. a
        // graphm-delta process holds the store) beats failing on the
        // first client commit. Opening the writer *before* the reader
        // also replays any crashed writer's WAL first, so the daemon
        // starts serving the recovered generation directly.
        let ingest = if config.enable_ingest {
            Some(Arc::new(IngestCoordinator::new(DeltaWriter::open(&config.store_dir)?)))
        } else {
            None
        };
        // A follower owns its store's writer lease through the frame
        // applier instead — opened before the reader for the same
        // WAL-replay reason (a follower killed mid-apply recovers to a
        // publish boundary before serving).
        let applier = if config.follow.is_some() {
            Some(ReplicaApplier::open(&config.store_dir)?)
        } else {
            None
        };
        let source = DiskGridSource::open_shared(&config.store_dir)?;
        source.set_memory_budget(config.memory_budget_bytes);
        source.set_adaptive_prefetch(config.adaptive_prefetch);
        source.set_prefetch_max_lookahead(config.max_prefetch_lookahead.max(1));
        let out_degrees = Mutex::new(Arc::new(source.out_degrees()));
        let num_vertices = PartitionSource::num_vertices(source.as_ref());
        let num_partitions = source.num_partitions() as u64;
        let current_gen = source.delta_stats().generation;
        let epoch = match (&ingest, &applier) {
            (Some(ingest), _) => ingest.writer_stats().1,
            (_, Some(applier)) => applier.lease_epoch(),
            _ => 0,
        };

        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                next_id: 0,
                pending: VecDeque::new(),
                queued_by_tenant: HashMap::new(),
                inflight_by_tenant: HashMap::new(),
            }),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(JobsTable::new(
                config.max_done_reports,
                PartitionSource::graph_bytes(source.as_ref()) as u64,
            )),
            done_cv: Condvar::new(),
            stats: Mutex::new(ServerStats {
                num_partitions,
                num_vertices: num_vertices as u64,
                ..ServerStats::default()
            }),
            admission: Admission {
                max_pending: config.max_pending,
                tenant_max_pending: config.tenant_max_pending,
                tenant_max_inflight: config.tenant_max_inflight,
                shed_eviction_rate: config.shed_eviction_rate,
            },
            connections: AtomicUsize::new(0),
            max_connections: config.max_connections,
            max_line_bytes: config.max_line_bytes.max(64),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            runtime_exited: AtomicBool::new(false),
            num_vertices,
            out_degrees,
            store: Arc::clone(&source),
            ingest: Mutex::new(ingest),
            store_dir: config.store_dir.clone(),
            hub: ReplicationHub::new(current_gen, epoch),
            auth_token: config.auth_token.clone(),
            role_follower: AtomicBool::new(config.follow.is_some()),
            peer: config.follow.clone().unwrap_or_default(),
            max_replica_lag: config.max_replica_lag,
            primary_gen_seen: AtomicU64::new(current_gen),
            applied_gen: AtomicU64::new(current_gen),
            applier: Mutex::new(applier),
        });

        // Bind every listener *before* spawning any thread: a bind
        // failure must return cleanly, not leak a parked runtime thread
        // (which would also pin the shared store mapping).
        let unix = match &config.socket_path {
            Some(path) => {
                // A stale socket file from a dead daemon would fail the
                // bind; a *live* daemon's socket is taken over the same
                // way, so point two daemons at distinct paths.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                Some((listener, path.clone()))
            }
            None => None,
        };
        let tcp = match &config.tcp_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                listener.set_nonblocking(true)?;
                let local = listener.local_addr()?;
                Some((listener, local))
            }
            None => None,
        };

        // From here on, an error must tear down what already started.
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let socket_path = unix.as_ref().map(|(_, path)| path.clone());
        let abort = |threads: &mut Vec<JoinHandle<()>>, e: std::io::Error| {
            shared.request_shutdown();
            for t in threads.drain(..) {
                let _ = t.join();
            }
            if let Some(path) = &socket_path {
                let _ = std::fs::remove_file(path);
            }
            GraphError::Io(e)
        };
        {
            let shared = Arc::clone(&shared);
            let window = config.batch_window;
            let sbpv = config.state_bytes_per_vertex.max(1);
            let mode = config.mode;
            let profile = config.profile;
            let auto_rotate = config.auto_rotate;
            let max_batch = config.max_batch_per_round;
            let wall_cfg = WallClockConfig {
                state_bytes_per_vertex: sbpv,
                max_prefetch_lookahead: config.max_prefetch_lookahead.max(1),
                ..WallClockConfig::new(config.profile)
            };
            let spawned = std::thread::Builder::new()
                .name("graphm-runtime".to_string())
                .spawn(move || {
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match mode {
                            ExecutionMode::Deterministic => runtime_loop(
                                &shared,
                                &source,
                                profile,
                                sbpv,
                                window,
                                auto_rotate,
                                max_batch,
                            ),
                            ExecutionMode::Wallclock => runtime_loop_wallclock(
                                &shared,
                                source,
                                wall_cfg,
                                window,
                                auto_rotate,
                                max_batch,
                            ),
                        }));
                    if result.is_err() {
                        // A runtime panic (e.g. thread-spawn exhaustion in
                        // a wallclock batch) must not strand clients: stop
                        // admissions and fail every waiter cleanly instead
                        // of leaving them parked on done_cv forever.
                        shared.request_shutdown();
                        publish_runtime_exit(&shared);
                    }
                })
                .map_err(|e| abort(&mut threads, e));
            threads.push(spawned?);
        }
        if let Some(peer) = config.follow.clone() {
            let shared = Arc::clone(&shared);
            let token = config.auth_token.clone();
            let backoff_ms = config.repl_backoff.as_millis().max(1) as u64;
            let spawned = std::thread::Builder::new()
                .name("graphm-repl-tail".to_string())
                .spawn(move || follower_tail_loop(&shared, &peer, token.as_deref(), backoff_ms))
                .map_err(|e| abort(&mut threads, e));
            threads.push(spawned?);
        }
        let read_timeout = config.read_timeout;
        if let Some((listener, _)) = unix {
            let shared_for_loop = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name("graphm-accept-unix".to_string())
                .spawn(move || accept_loop(listener_unix(listener, read_timeout), &shared_for_loop))
                .map_err(|e| abort(&mut threads, e));
            threads.push(spawned?);
        }
        let tcp_addr = match tcp {
            Some((listener, local)) => {
                let shared_for_loop = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("graphm-accept-tcp".to_string())
                    .spawn(move || {
                        accept_loop(listener_tcp(listener, read_timeout), &shared_for_loop)
                    })
                    .map_err(|e| abort(&mut threads, e));
                threads.push(spawned?);
                Some(local)
            }
            None => None,
        };

        Ok(Server { shared, threads, socket_path, tcp_addr })
    }

    /// The unix socket the daemon listens on, if configured.
    pub fn socket_path(&self) -> Option<&Path> {
        self.socket_path.as_deref()
    }

    /// The TCP address the daemon listens on, if configured (with the
    /// real port when the config asked for port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Current daemon-wide counters (runtime counters plus the store's
    /// live residency/prefetch state).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// Whether a shutdown has been requested (via this handle or a
    /// client's `shutdown` command).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the daemon's threads exit (after a `shutdown` request
    /// from any client or [`Server::shutdown`] from another thread).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Requests shutdown and joins all daemon threads. Queued jobs still
    /// run to completion; connections waiting on them are answered first.
    pub fn shutdown(mut self) {
        self.shared.request_shutdown();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        self.join_threads();
    }
}

// ---------------------------------------------------------------------------
// Runtime thread.
// ---------------------------------------------------------------------------

/// Derives the deterministic runner config for the store's *current*
/// generation — the same derivation as `Workbench::runner_config`, so
/// socket-submitted jobs replay identically to in-process runs over the
/// same (possibly mutated) store.
fn runner_config_for(store: &DiskGridSource, profile: MemoryProfile) -> RunnerConfig {
    let mut cfg = RunnerConfig::new(profile);
    cfg.out_of_core = PartitionSource::graph_bytes(store) > profile.memory_bytes;
    cfg
}

fn runtime_loop(
    shared: &Shared,
    store: &Arc<DiskGridSource>,
    profile: MemoryProfile,
    state_bytes_per_vertex: usize,
    batch_window: Duration,
    auto_rotate: bool,
    max_batch_per_round: usize,
) {
    let source: &dyn PartitionSource = store.as_ref();
    let mut svc =
        SharingService::new(source, runner_config_for(store, profile), state_bytes_per_vertex);
    // Service ids restart at 0 whenever a rotation rebuilds the service,
    // and the round-size policy may reorder admission across priorities,
    // so finished service ids are mapped back to (daemon id, tenant)
    // explicitly. The `loads`/`vnow` bases keep the published counters
    // cumulative and monotone across rebuilds.
    let mut sid_map: HashMap<JobId, (JobId, String)> = HashMap::new();
    let mut loads_base = 0u64;
    let mut vnow_base = 0.0f64;
    let mut served_gen = store.generation();
    let mut last_evictions = store.residency_stats().evictions;
    let mut eviction_ewma = 0.0f64;
    {
        let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.chunk_bytes = svc.chunk_bytes() as u64;
    }
    loop {
        // Idle: wait for the first arrival of the next round (or shutdown).
        {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            while q.pending.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            if q.pending.is_empty() {
                break; // Shutdown with an empty queue.
            }
        }
        // Between rounds — no job in flight — adopt any newly published
        // delta generation: rotate the store's view, recompute the merged
        // out-degrees, and re-run Init() preprocessing (chunk tables are
        // per-generation). Jobs queued for this round run entirely
        // against the rotated graph.
        if auto_rotate {
            // The idle service still holds its preprocessing-time
            // generation pin; drop it so the refresh below adopts a new
            // generation immediately instead of staging it behind the
            // pin (this round's jobs must run on the rotated graph, not
            // rotate it mid-flight at the first sweep boundary).
            svc.release_idle_pin();
            if let Err(e) = store.refresh_generation() {
                // A corrupt CURRENT / generation manifest must not look
                // like "no publish happened": keep serving the pinned
                // generation, but say so.
                eprintln!(
                    "[graphm-server] generation refresh failed, serving gen {served_gen}: {e}"
                );
            }
            // Rebuild on the *observed* generation, not refresh's return
            // value: with several runtimes sharing one store handle, a
            // peer may have adopted the rotation first.
            if store.generation() != served_gen {
                debug_assert_eq!(svc.jobs_unfinished(), 0, "rotation only between rounds");
                debug_assert!(sid_map.is_empty(), "finished jobs published before rotation");
                served_gen = store.generation();
                sid_map.clear();
                loads_base += svc.partition_loads();
                vnow_base += svc.now_ns();
                svc = SharingService::new(
                    source,
                    runner_config_for(store, profile),
                    state_bytes_per_vertex,
                );
                *shared.out_degrees.lock().unwrap_or_else(|e| e.into_inner()) =
                    Arc::new(store.out_degrees());
                let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
                stats.chunk_bytes = svc.chunk_bytes() as u64;
            }
        }
        // Let the concurrent burst land in one admission.
        if !batch_window.is_zero() {
            std::thread::sleep(batch_window);
        }
        {
            // Counted at round start so it is stable by the time any job
            // of this round reports done.
            let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
            stats.rounds += 1;
        }
        // Round: drain arrivals before every step so mid-round submitters
        // join at the next sweep boundary; publish finishers as they come.
        // The batch budget is per *round*: mid-round drains share it, so a
        // deep Batch backlog cannot trickle past the cap one step at a
        // time while Interactive submissions always join immediately.
        let mut batch_budget =
            if max_batch_per_round == 0 { usize::MAX } else { max_batch_per_round };
        loop {
            let drained: Vec<Pending> = {
                let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                drain_admissible(&mut q, &mut batch_budget)
            };
            if !drained.is_empty() {
                let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
                for p in drained {
                    // Instantiated here — not at submit — so the job's
                    // out-degrees match this round's generation.
                    let sid = svc.submit(shared.instantiate(&p.spec));
                    sid_map.insert(sid, (p.id, p.tenant));
                    jobs.entries.insert(p.id, JobEntry::Running);
                }
            }
            let more = svc.step();
            publish_finished(shared, &mut svc, &mut sid_map, loads_base, vnow_base);
            if !more {
                break;
            }
        }
        // Per-round eviction-rate EWMA: the admission signal for Batch
        // shedding under out-of-core thrash (see `shed_eviction_rate`).
        let ev = store.residency_stats().evictions;
        eviction_ewma = 0.5 * eviction_ewma + 0.5 * ev.saturating_sub(last_evictions) as f64;
        last_evictions = ev;
        let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.eviction_rate = eviction_ewma;
        drop(stats);
    }
    publish_runtime_exit(shared);
}

/// Publishes the runtime thread's exit under the jobs lock so a waiter's
/// check-then-wait cannot race past it, then wakes every waiter for its
/// final check.
fn publish_runtime_exit(shared: &Shared) {
    // Graceful shutdown releases the store's writer lease here, once no
    // more rounds will run: dropping the coordinator closes the leased
    // `DeltaWriter` as soon as in-flight commits (holding `Arc` clones)
    // drain, so an external writer can take over without waiting for the
    // daemon process to exit.
    drop(shared.ingest.lock().unwrap_or_else(|e| e.into_inner()).take());
    let jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
    shared.runtime_exited.store(true, Ordering::SeqCst);
    drop(jobs);
    shared.done_cv.notify_all();
}

/// The wall-clock runtime: drains submission batches into a
/// [`WallClockExecutor`] — its sweep driver on the worker pool's lanes,
/// partition readahead fed by the §4 loading order. Jobs arriving while a
/// batch is running join the next batch (the next "round" here is a whole
/// executor batch rather than a sweep).
///
/// Report mapping: vertex values, iterations, and edges processed are the
/// real algorithm outcome (identical to deterministic mode); `submit_ns`/
/// `finish_ns` are wall nanoseconds since the runtime started, batch
/// start and the job's retirement; `clock.compute_ns` carries
/// `WallJobReport::busy_ms`, the summed wall time of the job's own tasks
/// (so `finish_ns − submit_ns − compute_ns` is what the job spent queued
/// behind, or paced by, its co-batched peers); `instructions` and the
/// remaining simulated-clock fields are zero.
fn runtime_loop_wallclock(
    shared: &Shared,
    source: Arc<DiskGridSource>,
    cfg: WallClockConfig,
    batch_window: Duration,
    auto_rotate: bool,
    max_batch_per_round: usize,
) {
    let prefetcher = Prefetcher::spawn(Arc::clone(&source) as Arc<dyn PrefetchTarget>);
    let mut exec = WallClockExecutor::new(
        Arc::clone(&source) as Arc<dyn PartitionSource>,
        cfg.clone(),
        Some(prefetcher.hook()),
    );
    {
        let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.chunk_bytes = exec.chunk_bytes() as u64;
    }
    let epoch = std::time::Instant::now();
    let mut loads_total = 0u64;
    let mut served_gen = source.generation();
    let mut last_evictions = source.residency_stats().evictions;
    let mut eviction_ewma = 0.0f64;
    loop {
        // Idle: wait for the first arrival of the next round (or shutdown).
        {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            while q.pending.is_empty() && !shared.shutdown.load(Ordering::SeqCst) {
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
            if q.pending.is_empty() {
                break; // Shutdown with an empty queue.
            }
        }
        // Between batches — no executor run in flight — adopt any newly
        // published delta generation and re-run Init() over the rotated
        // view (chunk tables and out-degrees are per-generation). The
        // prefetcher keeps feeding the same store handle.
        if auto_rotate {
            if let Err(e) = source.refresh_generation() {
                eprintln!(
                    "[graphm-server] generation refresh failed, serving gen {served_gen}: {e}"
                );
            }
            if source.generation() != served_gen {
                served_gen = source.generation();
                exec = WallClockExecutor::new(
                    Arc::clone(&source) as Arc<dyn PartitionSource>,
                    cfg.clone(),
                    Some(prefetcher.hook()),
                );
                *shared.out_degrees.lock().unwrap_or_else(|e| e.into_inner()) =
                    Arc::new(source.out_degrees());
                let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
                stats.chunk_bytes = exec.chunk_bytes() as u64;
            }
        }
        // Let the concurrent burst land in one batch.
        if !batch_window.is_zero() {
            std::thread::sleep(batch_window);
        }
        {
            let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
            stats.rounds += 1;
        }
        loop {
            // Each executor batch is one "round" for the round-size
            // policy: a fresh budget per drain, Interactive always joins.
            let mut batch_budget =
                if max_batch_per_round == 0 { usize::MAX } else { max_batch_per_round };
            let drained: Vec<Pending> = {
                let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                drain_admissible(&mut q, &mut batch_budget)
            };
            if drained.is_empty() {
                break;
            }
            let mut ids = Vec::with_capacity(drained.len());
            let mut tenants = Vec::with_capacity(drained.len());
            let mut batch = Vec::with_capacity(drained.len());
            {
                let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
                for p in drained {
                    jobs.entries.insert(p.id, JobEntry::Running);
                    ids.push(p.id);
                    tenants.push(p.tenant);
                    batch.push(shared.instantiate(&p.spec));
                }
            }
            let batch_start_ns = epoch.elapsed().as_nanos() as f64;
            let round = exec.run_batch(batch);
            loads_total += round.partition_loads;
            let finished: Vec<JobReport> = round
                .jobs
                .into_iter()
                .zip(&ids)
                .map(|(wj, &id)| JobReport {
                    id,
                    name: wj.name,
                    iterations: wj.iterations,
                    clock: VirtualClock {
                        compute_ns: wj.busy_ms * 1e6,
                        mem_access_ns: 0.0,
                        disk_ns: 0.0,
                        sync_ns: 0.0,
                    },
                    instructions: 0,
                    edges_processed: wj.edges_processed,
                    submit_ns: batch_start_ns,
                    finish_ns: batch_start_ns + wj.finish_ms * 1e6,
                    values: wj.values,
                    error: wj.error,
                })
                .collect();
            let failed = finished.iter().filter(|r| r.error.is_some()).count() as u64;
            {
                let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                for t in &tenants {
                    Queue::dec(&mut q.inflight_by_tenant, t);
                }
            }
            let ev = source.residency_stats().evictions;
            eviction_ewma = 0.5 * eviction_ewma + 0.5 * ev.saturating_sub(last_evictions) as f64;
            last_evictions = ev;
            {
                let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
                stats.partition_loads = loads_total;
                stats.virtual_ns = epoch.elapsed().as_nanos() as f64;
                stats.jobs_completed += finished.len() as u64 - failed;
                stats.jobs_failed += failed;
                stats.eviction_rate = eviction_ewma;
                let pf = source.prefetch_stats();
                stats.prefetch_issued = pf.issued;
                stats.prefetch_hits = pf.hits;
            }
            let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
            for report in finished {
                jobs.finish(report);
            }
            drop(jobs);
            shared.done_cv.notify_all();
        }
    }
    publish_runtime_exit(shared);
}

fn publish_finished(
    shared: &Shared,
    svc: &mut SharingService<'_>,
    sid_map: &mut HashMap<JobId, (JobId, String)>,
    loads_base: u64,
    vnow_base: f64,
) {
    let mut finished = svc.take_finished();
    let mut tenants: Vec<String> = Vec::with_capacity(finished.len());
    let mut failed = 0u64;
    for report in &mut finished {
        // Service ids restart after a rotation rebuild and admission may
        // reorder across priorities; clients know the daemon's dense ids.
        // (Report *timings* stay on the per-generation virtual timeline —
        // each generation is a fresh deterministic replay — but the
        // daemon-wide counters below are cumulative.)
        let (daemon_id, tenant) =
            sid_map.remove(&report.id).expect("finished service id must be mapped");
        report.id = daemon_id;
        tenants.push(tenant);
        if report.error.is_some() {
            failed += 1;
        }
    }
    if !tenants.is_empty() {
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        for t in &tenants {
            Queue::dec(&mut q.inflight_by_tenant, t);
        }
    }
    {
        let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.partition_loads = loads_base + svc.partition_loads();
        stats.virtual_ns = vnow_base + svc.now_ns();
        stats.jobs_completed += finished.len() as u64 - failed;
        stats.jobs_failed += failed;
    }
    if finished.is_empty() {
        return;
    }
    let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
    for report in finished {
        jobs.finish(report);
    }
    drop(jobs);
    shared.done_cv.notify_all();
}

// ---------------------------------------------------------------------------
// Listeners and connection handlers.
// ---------------------------------------------------------------------------

/// Transport identity of an accepted connection, for auth gating and
/// peer-credential logging.
#[derive(Clone, Copy, Debug)]
enum ConnInfo {
    /// Unix-domain connection. The filesystem already gates these, so
    /// they are exempt from token auth, but their kernel-reported
    /// `SO_PEERCRED` identity is logged at accept so tenant names are
    /// attributable.
    Unix,
    /// TCP connection — the transport `--auth-token` gates.
    Tcp,
}

/// A connection split into transferable read/write halves, plus who
/// connected.
type ConnPair = (Box<dyn Read + Send>, Box<dyn Write + Send>, ConnInfo);

/// A polling accept function: `Ok(Some)` on connection, `Ok(None)` when
/// none is pending (nonblocking), `Err` on listener failure.
type Acceptor = Box<dyn FnMut() -> std::io::Result<Option<ConnPair>> + Send>;

/// Reads the unix peer's kernel credentials (`SO_PEERCRED`): the uid,
/// gid, and pid the kernel recorded at `connect`, unforgeable by the
/// client. Declared directly (no libc crate — the binary links the
/// system libc regardless).
#[cfg(target_os = "linux")]
fn peer_credentials(stream: &UnixStream) -> Option<(u32, u32, i32)> {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct Ucred {
        pid: i32,
        uid: u32,
        gid: u32,
    }
    extern "C" {
        fn getsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *mut core::ffi::c_void,
            len: *mut u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_PEERCRED: i32 = 17;
    let mut cred = Ucred { pid: 0, uid: 0, gid: 0 };
    let mut len = std::mem::size_of::<Ucred>() as u32;
    let rc = unsafe {
        getsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_PEERCRED,
            (&mut cred as *mut Ucred).cast(),
            &mut len,
        )
    };
    if rc == 0 && len as usize == std::mem::size_of::<Ucred>() {
        Some((cred.uid, cred.gid, cred.pid))
    } else {
        None
    }
}

#[cfg(not(target_os = "linux"))]
fn peer_credentials(_stream: &UnixStream) -> Option<(u32, u32, i32)> {
    None
}

fn listener_unix(listener: UnixListener, read_timeout: Duration) -> Acceptor {
    Box::new(move || match listener.accept() {
        Ok((stream, _)) => {
            if let Some((uid, gid, pid)) = peer_credentials(&stream) {
                eprintln!("[graphm-server] unix peer connected: uid={uid} gid={gid} pid={pid}");
            }
            let (r, w) = split_unix(stream, read_timeout)?;
            Ok(Some((r, w, ConnInfo::Unix)))
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    })
}

fn listener_tcp(listener: TcpListener, read_timeout: Duration) -> Acceptor {
    Box::new(move || match listener.accept() {
        Ok((stream, _)) => {
            let (r, w) = split_tcp(stream, read_timeout)?;
            Ok(Some((r, w, ConnInfo::Tcp)))
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    })
}

type SplitPair = (Box<dyn Read + Send>, Box<dyn Write + Send>);

fn split_unix(s: UnixStream, read_timeout: Duration) -> std::io::Result<SplitPair> {
    s.set_nonblocking(false)?;
    if !read_timeout.is_zero() {
        s.set_read_timeout(Some(read_timeout))?;
    }
    let r = s.try_clone()?;
    Ok((Box::new(r), Box::new(s)))
}

fn split_tcp(s: TcpStream, read_timeout: Duration) -> std::io::Result<SplitPair> {
    s.set_nonblocking(false)?;
    if !read_timeout.is_zero() {
        s.set_read_timeout(Some(read_timeout))?;
    }
    let r = s.try_clone()?;
    Ok((Box::new(r), Box::new(s)))
}

/// Decrements the live-connection gauge when a handler exits (or when its
/// spawn fails and the closure is dropped unrun).
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(mut accept: Acceptor, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match accept() {
            Ok(Some((read, mut write, info))) => {
                // Connection limit: shed the accept with one typed error
                // line instead of letting handler threads (each pinning a
                // queue of blocking reads) grow without bound.
                if shared.max_connections > 0
                    && shared.connections.load(Ordering::SeqCst) >= shared.max_connections
                {
                    let _ = write_line(
                        write.as_mut(),
                        &error_response_coded(
                            "connection limit reached; retry with backoff",
                            ERR_OVERLOADED,
                        ),
                    );
                    let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
                    stats.connections_rejected += 1;
                    continue;
                }
                shared.connections.fetch_add(1, Ordering::SeqCst);
                let guard = ConnGuard(Arc::clone(shared));
                // Handlers are detached: they exit at client EOF, on
                // transport errors (including read timeouts), or when
                // shutdown wakes their waits.
                let _ =
                    std::thread::Builder::new().name("graphm-conn".to_string()).spawn(move || {
                        serve_connection(read, write, &guard.0, info);
                    });
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(_) => break,
        }
    }
}

fn write_line(w: &mut dyn Write, v: &Value) -> std::io::Result<()> {
    let line = serde_json::to_string(v).expect("serialization is infallible");
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Outcome of one bounded line read.
enum LineOutcome {
    Line(String),
    /// The line exceeded the cap; it was discarded through its newline,
    /// so the connection's framing is intact.
    Oversized,
    Eof,
    /// Transport error — including a `read_timeout` expiry.
    Failed,
}

/// Reads one `\n`-terminated line of at most `max` bytes. Longer lines
/// are consumed (never buffered) up to their newline and reported as
/// [`LineOutcome::Oversized`], so a hostile or buggy client cannot make
/// the daemon buffer an unbounded request while the connection stays
/// usable afterwards. A final unterminated line at EOF still parses.
fn read_bounded_line(r: &mut BufReader<Box<dyn Read + Send>>, max: usize) -> LineOutcome {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = match r.fill_buf() {
            Ok(b) => b,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineOutcome::Failed,
        };
        if available.is_empty() {
            return if buf.is_empty() {
                LineOutcome::Eof
            } else {
                LineOutcome::Line(String::from_utf8_lossy(&buf).into_owned())
            };
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let over = buf.len() + pos > max;
                if !over {
                    buf.extend_from_slice(&available[..pos]);
                }
                r.consume(pos + 1);
                return if over {
                    LineOutcome::Oversized
                } else {
                    LineOutcome::Line(String::from_utf8_lossy(&buf).into_owned())
                };
            }
            None => {
                let n = available.len();
                if buf.len() + n > max {
                    buf.clear();
                    r.consume(n);
                    return discard_to_newline(r);
                }
                buf.extend_from_slice(available);
                r.consume(n);
            }
        }
    }
}

/// Consumes the rest of an oversized line through its newline.
fn discard_to_newline(r: &mut BufReader<Box<dyn Read + Send>>) -> LineOutcome {
    loop {
        let available = match r.fill_buf() {
            Ok(b) => b,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineOutcome::Failed,
        };
        if available.is_empty() {
            return LineOutcome::Oversized; // EOF mid-line; next read sees Eof.
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                r.consume(pos + 1);
                return LineOutcome::Oversized;
            }
            None => {
                let n = available.len();
                r.consume(n);
            }
        }
    }
}

/// Per-connection session state.
struct ConnState {
    /// Mutations staged by this connection's `ingest` requests, awaiting
    /// its `ingest_commit`/`ingest_abort`. Dropped with the connection: a
    /// client that hangs up mid-session implicitly aborts.
    staged: Vec<DeltaRecord>,
    /// Whether this connection may issue non-`auth` requests: unix
    /// transport and token-less daemons start authenticated; TCP under
    /// `--auth-token` must earn it with the `auth` handshake first.
    authed: bool,
    /// Whether this connection `repl_subscribe`d, for the follower
    /// gauge (decremented when the connection exits).
    subscribed: bool,
}

fn serve_connection(
    read: Box<dyn Read + Send>,
    write: Box<dyn Write + Send>,
    shared: &Shared,
    info: ConnInfo,
) {
    let mut conn = ConnState {
        staged: Vec::new(),
        authed: shared.auth_token.is_none() || matches!(info, ConnInfo::Unix),
        subscribed: false,
    };
    serve_requests(read, write, shared, &mut conn);
    if conn.subscribed {
        shared.hub.subscriber_left();
    }
}

fn serve_requests(
    read: Box<dyn Read + Send>,
    mut write: Box<dyn Write + Send>,
    shared: &Shared,
    conn: &mut ConnState,
) {
    let mut reader = BufReader::new(read);
    loop {
        let line = match read_bounded_line(&mut reader, shared.max_line_bytes) {
            LineOutcome::Eof | LineOutcome::Failed => return,
            LineOutcome::Oversized => {
                {
                    let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
                    stats.oversized_lines += 1;
                }
                let resp = error_response_coded(
                    &format!("request line exceeds {} bytes", shared.max_line_bytes),
                    ERR_LINE_TOO_LONG,
                );
                if write_line(write.as_mut(), &resp).is_err() {
                    return;
                }
                continue;
            }
            LineOutcome::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(&line) {
            Err(msg) => error_response(&msg),
            Ok(req) => {
                // Auth gate: an unauthenticated TCP connection may only
                // authenticate. Everything else — including replication
                // subscriptions — gets the typed `unauthorized` error
                // (the connection stays open for a retry).
                if !conn.authed && !matches!(req, Request::Auth { .. }) {
                    let resp = error_response_coded(
                        "authentication required: send auth with the shared token first",
                        ERR_UNAUTHORIZED,
                    );
                    if write_line(write.as_mut(), &resp).is_err() {
                        return;
                    }
                    continue;
                }
                let is_shutdown = matches!(req, Request::Shutdown);
                let waited = if let Request::Wait(id) = &req { Some(*id) } else { None };
                let resp = respond(req, shared, conn);
                let written = write_line(write.as_mut(), &resp);
                if let (Some(id), Ok(()), Some(_)) = (waited, written, resp.get("report")) {
                    // Only now has the client got its results; a failed
                    // write leaves the report for a reconnecting `wait`.
                    let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
                    jobs.mark_delivered(id);
                }
                if is_shutdown {
                    return;
                }
                continue;
            }
        };
        if write_line(write.as_mut(), &response).is_err() {
            return;
        }
    }
}

fn respond(req: Request, shared: &Shared, conn: &mut ConnState) -> Value {
    match req {
        Request::Ping => json!({ "ok": true, "pong": true }),
        Request::Stats => {
            let stats = shared.stats_snapshot();
            json!({ "ok": true, "stats": stats.to_json() })
        }
        Request::Shutdown => {
            shared.request_shutdown();
            json!({ "ok": true, "shutting_down": true })
        }
        Request::Submit { spec, tenant, priority } => submit(spec, tenant, priority, shared),
        Request::Health => json!({ "ok": true, "health": shared.health_snapshot().to_json() }),
        Request::Status(id) => match job_state(shared, id) {
            Some(state) => json!({ "ok": true, "job_id": id, "state": state.name() }),
            None => error_response(&format!("unknown job {id}")),
        },
        Request::Wait(id) => wait_for(shared, id),
        Request::Ingest(ops) => ingest_stage(shared, &mut conn.staged, ops),
        Request::IngestCommit => ingest_commit(shared, &mut conn.staged),
        Request::IngestAbort => {
            let discarded = conn.staged.len();
            conn.staged.clear();
            json!({ "ok": true, "discarded": discarded })
        }
        Request::Auth { token } => auth_check(shared, conn, &token),
        Request::ReplSubscribe { from_generation } => repl_subscribe(shared, conn, from_generation),
        Request::ReplFrames { from_generation, max } => repl_frames(shared, from_generation, max),
        Request::ReplStatus => json!({ "ok": true, "repl": repl_status_json(shared) }),
        Request::Promote => promote(shared),
    }
}

/// Validates the shared secret. Byte-folded comparison so a mismatch
/// costs the same regardless of where the tokens diverge.
fn auth_check(shared: &Shared, conn: &mut ConnState, token: &str) -> Value {
    let ok = match &shared.auth_token {
        // No secret configured: the handshake is a no-op courtesy.
        None => true,
        Some(expected) => {
            let a = expected.as_bytes();
            let b = token.as_bytes();
            let mut diff = a.len() ^ b.len();
            for i in 0..a.len().max(b.len()) {
                let x = a.get(i).copied().unwrap_or(0);
                let y = b.get(i).copied().unwrap_or(0);
                diff |= (x ^ y) as usize;
            }
            diff == 0
        }
    };
    if ok {
        conn.authed = true;
        json!({ "ok": true, "authenticated": true })
    } else {
        let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.auth_failures += 1;
        drop(stats);
        error_response_coded("bad auth token", ERR_UNAUTHORIZED)
    }
}

/// Registers this connection as a follower and reports the publish
/// high-water so the subscriber can size its catch-up.
fn repl_subscribe(shared: &Shared, conn: &mut ConnState, from_generation: u64) -> Value {
    if !conn.subscribed {
        conn.subscribed = true;
        shared.hub.subscriber_joined();
    }
    shared.hub.note_acked(from_generation.saturating_sub(1));
    let current = current_generation(shared);
    shared.hub.notify_published(current);
    json!({ "ok": true, "generation": current, "epoch": shared.current_epoch() })
}

/// The store's durably committed generation, read fresh from `CURRENT`
/// so frames ship even when the publisher is an external process the
/// hub never hears from.
fn current_generation(shared: &Shared) -> u64 {
    read_current_generation(&shared.store_dir).unwrap_or(0)
}

/// Ships up to `max` frames starting at `from_generation`, rebuilding
/// each from the committed on-disk generation (manifest + delta
/// segments) — the same path whether the follower is live-tailing or
/// catching up after downtime. Long-polls briefly when the follower is
/// already caught up, so tailing costs one request per publish, not a
/// busy loop.
fn repl_frames(shared: &Shared, from_generation: u64, max: u64) -> Value {
    if from_generation == 0 {
        return error_response(
            "from_generation must be >= 1 (generation 0 is the base store; seed followers \
             by copying it)",
        );
    }
    shared.hub.note_acked(from_generation - 1);
    let epoch = shared.current_epoch();
    // Long-poll: wait for a publish notification, then confirm against
    // CURRENT (covers external writers, which never notify the hub).
    let deadline = Instant::now() + REPL_LONG_POLL;
    let mut current = current_generation(shared);
    while current < from_generation
        && !shared.shutdown.load(Ordering::SeqCst)
        && Instant::now() < deadline
    {
        shared.hub.wait_published(from_generation, Duration::from_millis(50));
        current = current_generation(shared);
    }
    shared.hub.notify_published(current);
    let mut frames = Vec::new();
    let mut gen = from_generation;
    while gen <= current && (frames.len() as u64) < max.max(1) {
        match read_generation_frame(&shared.store_dir, gen, epoch) {
            Ok(frame) => {
                frames.push(Value::String(hex_encode(&graphm_store::encode_frame(&frame))))
            }
            Err(e) => {
                // A retired or unreadable generation cannot be shipped;
                // the follower must re-seed from a store copy.
                return error_response(&format!("cannot ship generation {gen}: {e}"));
            }
        }
        gen += 1;
    }
    shared.hub.note_shipped(frames.len() as u64);
    json!({ "ok": true, "generation": current, "epoch": epoch, "frames": frames })
}

/// The replication ledger for `repl_status`.
fn repl_status_json(shared: &Shared) -> Value {
    let hub = shared.hub.snapshot();
    let follower = shared.is_follower();
    json!({
        "role": if follower { "follower" } else { "primary" },
        "peer": if follower { shared.peer.as_str() } else { "" },
        "generation": shared.applied_gen.load(Ordering::SeqCst),
        "primary_generation": shared.primary_gen_seen.load(Ordering::SeqCst),
        "replica_lag_generations": if follower { shared.replica_lag() } else { 0 },
        "epoch": shared.current_epoch(),
        "frames_shipped": hub.frames_shipped,
        "frames_acked": hub.frames_acked,
        "acked_generation": hub.acked_generation,
        "followers": hub.followers,
        "reconnects": hub.reconnects,
    })
}

/// Promotes a follower to primary: takes the applier, reopens the
/// store's writer through the epoch fence (`epoch + 1` — the fenced
/// ex-primary's next publish fails with `EpochFenced`), and installs a
/// fresh ingest coordinator so mutation verbs start landing here.
fn promote(shared: &Shared) -> Value {
    if !shared.is_follower() {
        return error_response("already primary");
    }
    let taken = shared.applier.lock().unwrap_or_else(|e| e.into_inner()).take();
    let Some(applier) = taken else {
        return error_response("promotion already in flight");
    };
    match applier.promote() {
        Ok(writer) => {
            let epoch = writer.lease_epoch();
            let generation = writer.generation();
            *shared.ingest.lock().unwrap_or_else(|e| e.into_inner()) =
                Some(Arc::new(IngestCoordinator::new(writer)));
            shared.role_follower.store(false, Ordering::SeqCst);
            shared.hub.set_epoch(epoch);
            shared.hub.notify_published(generation);
            shared.primary_gen_seen.store(generation, Ordering::SeqCst);
            shared.applied_gen.store(generation, Ordering::SeqCst);
            eprintln!("[graphm-server] promoted to primary at lease epoch {epoch}");
            json!({ "ok": true, "role": "primary", "epoch": epoch })
        }
        // The applier was consumed: this follower can no longer tail and
        // needs an operator restart. Failing loudly beats a half-role.
        Err(e) => error_response(&format!("promotion failed (restart this follower): {e}")),
    }
}

fn ingest_stage(shared: &Shared, staged: &mut Vec<DeltaRecord>, ops: Vec<DeltaRecord>) -> Value {
    if let Some(resp) = reject_if_follower(shared) {
        return resp;
    }
    if shared.ingest_handle().is_none() {
        return error_response("ingest is disabled (start the server with --ingest)");
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        return error_response_coded("server is shutting down", ERR_SHUTTING_DOWN);
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

/// Typed `not_primary` redirect for mutation verbs on a follower: the
/// message names the primary so clients can rotate their peer list.
fn reject_if_follower(shared: &Shared) -> Option<Value> {
    if !shared.is_follower() {
        return None;
    }
    let msg = if shared.peer.is_empty() {
        "not primary: this daemon is a follower replica".to_string()
    } else {
        format!("not primary: this daemon follows {}; redirect writes there", shared.peer)
    };
    Some(error_response_coded(&msg, ERR_NOT_PRIMARY))
}

fn ingest_commit(shared: &Shared, staged: &mut Vec<DeltaRecord>) -> Value {
    if let Some(resp) = reject_if_follower(shared) {
        return resp;
    }
    let Some(ingest) = shared.ingest_handle() else {
        return error_response("ingest is disabled (start the server with --ingest)");
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        return error_response_coded("server is shutting down", ERR_SHUTTING_DOWN);
    }
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

fn submit(spec: JobSpec, tenant: String, priority: Priority, shared: &Shared) -> Value {
    if shared.shutdown.load(Ordering::SeqCst) {
        return error_response_coded("server is shutting down", ERR_SHUTTING_DOWN);
    }
    // Staleness bound: a follower that knows it trails the primary by
    // more than the configured lag refuses reads rather than serving
    // arbitrarily old state (0 = serve at any lag).
    if shared.is_follower() && shared.max_replica_lag > 0 {
        let lag = shared.replica_lag();
        if lag > shared.max_replica_lag {
            return error_response_coded(
                &format!(
                    "replica is {lag} generations behind the primary \
                     (staleness bound {}); retry with backoff or read the primary",
                    shared.max_replica_lag
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
        let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.jobs_shed += 1;
        drop(stats);
        error_response_coded(&msg, ERR_OVERLOADED)
    };
    let a = &shared.admission;
    let id = {
        // Lock order queue -> jobs (see `Shared`); the entry must exist
        // before the runtime can drain the submission and mark it Running.
        // The spec is instantiated by the runtime thread at drain time so
        // its out-degrees match the generation of the round it runs in.
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if a.max_pending > 0 && q.pending.len() >= a.max_pending {
            return shed(format!(
                "queue full ({} pending, cap {}); retry with backoff",
                q.pending.len(),
                a.max_pending
            ));
        }
        if a.tenant_max_pending > 0 {
            let queued = q.queued_by_tenant.get(&tenant).copied().unwrap_or(0);
            if queued >= a.tenant_max_pending as u64 {
                return shed(format!(
                    "tenant {tenant:?} has {queued} queued jobs (quota {})",
                    a.tenant_max_pending
                ));
            }
        }
        if a.tenant_max_inflight > 0 {
            let inflight = q.inflight_by_tenant.get(&tenant).copied().unwrap_or(0);
            if inflight >= a.tenant_max_inflight as u64 {
                return shed(format!(
                    "tenant {tenant:?} has {inflight} jobs in flight (quota {})",
                    a.tenant_max_inflight
                ));
            }
        }
        // Out-of-core pressure: sustained eviction churn means the round
        // working set outgrew the memory budget, so adding Batch work
        // would only deepen the thrash. Interactive jobs still land.
        if priority == Priority::Batch && a.shed_eviction_rate > 0.0 {
            let rate = shared.stats.lock().unwrap_or_else(|e| e.into_inner()).eviction_rate;
            if rate > a.shed_eviction_rate {
                return shed(format!(
                    "store is thrashing ({rate:.1} evictions/round, shed above {:.1}); \
                     batch work rejected",
                    a.shed_eviction_rate
                ));
            }
        }
        let id = q.next_id;
        q.next_id += 1;
        *q.queued_by_tenant.entry(tenant.clone()).or_insert(0) += 1;
        *q.inflight_by_tenant.entry(tenant.clone()).or_insert(0) += 1;
        shared.jobs.lock().unwrap_or_else(|e| e.into_inner()).entries.insert(id, JobEntry::Queued);
        q.pending.push_back(Pending { id, spec, tenant, priority });
        id
    };
    shared.queue_cv.notify_all();
    let mut stats = shared.stats.lock().unwrap_or_else(|e| e.into_inner());
    stats.jobs_submitted += 1;
    drop(stats);
    json!({ "ok": true, "job_id": id })
}

fn job_state(shared: &Shared, id: JobId) -> Option<JobState> {
    let jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
    Some(match jobs.entries.get(&id)? {
        JobEntry::Queued => JobState::Queued,
        JobEntry::Running => JobState::Running,
        JobEntry::Done { .. } => JobState::Done,
    })
}

fn wait_for(shared: &Shared, id: JobId) -> Value {
    let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
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
                jobs = shared.done_cv.wait(jobs).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Follower tailer.
// ---------------------------------------------------------------------------

/// Shutdown-aware sleep in small slices, so a follower deep in reconnect
/// backoff still joins a shutdown promptly.
fn sleep_interruptible(shared: &Shared, total: Duration) {
    let deadline = Instant::now() + total;
    loop {
        let now = Instant::now();
        if now >= deadline || shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(25).min(deadline - now));
    }
}

/// The follower's tailer thread: tail sessions against the primary,
/// reconnected with the client's full-jitter exponential backoff
/// (exponent capped at [`REPL_MAX_BACKOFF_EXP`]; every attempt lands in
/// `repl_status.reconnects`, so a retry storm is visible, bounded, and
/// log-rate-limited). Exits on shutdown or promotion.
fn follower_tail_loop(shared: &Arc<Shared>, peer: &str, token: Option<&str>, backoff_ms: u64) {
    let mut rng = 0x5bd1_e995 ^ u64::from(std::process::id());
    let mut attempt = 0u32;
    while !shared.shutdown.load(Ordering::SeqCst) && shared.is_follower() {
        match tail_once(shared, peer, token) {
            Ok(()) => return, // shutdown or promotion ended the tail cleanly
            Err(e) => {
                if shared.shutdown.load(Ordering::SeqCst) || !shared.is_follower() {
                    return;
                }
                let total = shared.hub.note_reconnect();
                let delay = retry_delay(backoff_ms, attempt.min(REPL_MAX_BACKOFF_EXP), &mut rng);
                // First few attempts verbosely, then every 16th: a dead
                // primary at the backoff cap must not flood the log.
                if total <= 4 || total.is_multiple_of(16) {
                    eprintln!(
                        "[graphm-server] replication tail to {peer} failed ({e}); \
                         reconnect attempt {total} in {}ms",
                        delay.as_millis()
                    );
                }
                attempt = attempt.saturating_add(1);
                sleep_interruptible(shared, delay);
            }
        }
    }
}

/// One tail session: subscribe at our next generation, long-poll frames,
/// and apply them in order through the store's publish path. Any failure
/// — transport, a corrupt frame, an injected apply fault — returns `Err`
/// and the caller reconnects with backoff; the applier's own atomicity
/// guarantees the store is at a publish boundary either way.
fn tail_once(
    shared: &Arc<Shared>,
    peer: &str,
    token: Option<&str>,
) -> std::result::Result<(), String> {
    let mut client = Client::connect_tcp_with_timeout(peer, REPL_READ_TIMEOUT)
        .map_err(|e| format!("connect: {e}"))?;
    if let Some(token) = token {
        client.auth(token).map_err(|e| format!("auth: {e}"))?;
    }
    let from = shared.applied_gen.load(Ordering::SeqCst) + 1;
    let (pgen, _epoch) = client.repl_subscribe(from).map_err(|e| format!("subscribe: {e}"))?;
    shared.primary_gen_seen.fetch_max(pgen, Ordering::SeqCst);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || !shared.is_follower() {
            return Ok(());
        }
        let next = shared.applied_gen.load(Ordering::SeqCst) + 1;
        let (pgen, frames) = match client.repl_frames(next, 16) {
            Ok(r) => r,
            Err(ClientError::NotPrimary(m)) => return Err(format!("peer is not primary: {m}")),
            Err(e) => return Err(format!("poll: {e}")),
        };
        shared.primary_gen_seen.fetch_max(pgen, Ordering::SeqCst);
        for raw in frames {
            let frame = decode_frame(&raw).map_err(|e| format!("frame decode: {e}"))?;
            let mut guard = shared.applier.lock().unwrap_or_else(|e| e.into_inner());
            let Some(applier) = guard.as_mut() else {
                return Ok(()); // promotion took the applier mid-batch
            };
            applier
                .apply(&frame)
                .map_err(|e| format!("apply generation {}: {e}", frame.generation))?;
            let applied = applier.generation();
            drop(guard);
            shared.applied_gen.fetch_max(applied, Ordering::SeqCst);
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
