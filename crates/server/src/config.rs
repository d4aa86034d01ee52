//! What a daemon is told at start: [`ServerConfig`]. Plain data — every
//! other module of the daemon reads it, none of them is imported here.

use graphm_graph::MemoryProfile;
use std::path::PathBuf;
use std::time::Duration;

/// The runtime's engine, of which there is one: real parallel serving by
/// one long-lived sweep driver ([`CohortDriver`](graphm_core::CohortDriver))
/// with a fixed set of worker lanes, and a partition
/// [`Prefetcher`](graphm_store::Prefetcher) reading the §4 loading order
/// ahead.
///
/// Nothing reads it. It stays only because gmbench writes
/// `config.mode = ExecutionMode::Wallclock`; it goes together with
/// [`ServerConfig::mode`] once gmbench stops naming them (ROADMAP.md,
/// direction 3(a)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Every admission runs as a cohort of its own beside whatever is in
    /// flight, and a job is answered when it converges. Report timing
    /// fields carry wall-clock nanoseconds; `instructions` and the
    /// simulated clock breakdown are zero.
    #[default]
    Wallclock,
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
    /// free port; read it back with [`Server::tcp_addr`](crate::Server::tcp_addr)).
    pub tcp_addr: Option<String>,
    /// Memory profile whose cache and memory geometry Formula 1 sizes
    /// chunks for (the same profile a `Workbench` would use). Timings are
    /// real: the profile only sizes chunks.
    pub profile: MemoryProfile,
    /// Batching cap: the longest a pending job waits for a connection's
    /// burst of submissions to end. The runtime drains the moment no job
    /// it would admit belongs to an open burst — a burst ends at the
    /// connection's next request of any other kind (`wait`, `status`, …)
    /// or when it hangs up — so a burst shares from sweep one, and a
    /// client that submits and then waits never pays this. It bounds
    /// what a client that goes quiet mid-burst costs the jobs queued
    /// beside its own (`stats.rounds_capped` counts those admissions).
    /// Zero drains at once, bursts or not.
    pub batch_window: Duration,
    /// Formula-1 `U_v` used for chunk sizing (8 covers every shipped
    /// algorithm; see `WallClockConfig::state_bytes_per_vertex`).
    pub state_bytes_per_vertex: usize,
    /// How many finished reports to retain for `wait`/`status` (each
    /// holds an `O(num_vertices)` values vector, so unbounded retention
    /// would grow a long-lived daemon without limit). Oldest finished
    /// jobs are evicted past this cap; waiting on an evicted id reports
    /// an unknown job. Reports a `wait` already delivered are kept for a
    /// repeated query only while together they fit the store's structure
    /// size, so they may be evicted sooner.
    pub max_done_reports: usize,
    /// Read by nothing: the daemon has one engine. Kept only because
    /// gmbench writes it; deleted together with [`ExecutionMode`].
    pub mode: ExecutionMode,
    /// Page-cache budget for the served store, in bytes (0 = unlimited).
    /// When modeled residency exceeds it, the store releases segments
    /// behind the sweep frontier with `madvise(MADV_DONTNEED)` and the
    /// `stats` response reports resident/evicted bytes.
    pub memory_budget_bytes: u64,
    /// Check the store's `CURRENT` pointer before every drain and rotate
    /// to newly published delta generations (on by default; `--no-rotate`
    /// pins the daemon to its open-time generation). Jobs always run
    /// entirely within one generation — once a newer one is seen nothing
    /// more is admitted, rotation happens when the jobs in flight have
    /// drained, and mutated graphs re-run `Init()` preprocessing before
    /// the next admission.
    pub auto_rotate: bool,
    /// Serve `ingest`/`ingest_commit` sessions (off by default). When on,
    /// the daemon acquires the store's **writer lease** at startup —
    /// startup fails with [`GraphError::LeaseHeld`](graphm_graph::GraphError::LeaseHeld) if another writer
    /// (e.g. a `graphm-delta` process) holds it — and multiplexes client
    /// mutation batches through one group-commit [`IngestCoordinator`](crate::IngestCoordinator).
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
    /// In-flight bound: at most this many `Priority::Batch` jobs run at
    /// any moment (0 = unlimited); a retained backlog is admitted as
    /// earlier Batch jobs retire. `Interactive` jobs are always admitted
    /// at the next drain, so a latency-sensitive tenant is never stuck
    /// behind a hundred-job batch backlog.
    pub max_batch_per_round: usize,
    /// Out-of-core admission signal: when the EWMA of store partition
    /// evictions per admission exceeds this, `Batch` submissions are shed
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
    /// `MemoryProfile::DEFAULT`, a 20 ms batching cap, 8-byte `U_v`.
    pub fn new(store_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            store_dir: store_dir.into(),
            socket_path: None,
            tcp_addr: None,
            profile: MemoryProfile::DEFAULT,
            batch_window: Duration::from_millis(20),
            state_bytes_per_vertex: 8,
            max_done_reports: 1024,
            mode: ExecutionMode::Wallclock,
            memory_budget_bytes: 0,
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
