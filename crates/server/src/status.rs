//! The daemon's status record, [`ServerStats`]: `stats` and `health`
//! both answer with it (see [`crate::protocol`]). It is declared once, in
//! the `status_record!` table below, which generates the struct and its
//! JSON codec.

use serde_json::Value;

/// A status field's JSON type (`u64`, `f64`, `bool` or `String`): how the
/// code `status_record!` generates writes it and reads it back.
trait Wire: Clone + Into<Value> {
    /// What a present key of another JSON type is refused for not being.
    const KIND: &'static str;
    fn read(v: &Value) -> Option<Self>;
    fn write(&self) -> Value {
        self.clone().into()
    }
}

macro_rules! wire {
    ($($ty:ty: $kind:literal, |$v:ident| $read:expr;)*) => {$(
        impl Wire for $ty {
            const KIND: &'static str = $kind;
            fn read($v: &Value) -> Option<$ty> { $read }
        }
    )*};
}

wire! {
    u64: "a non-negative integer", |v| v.as_u64();
    f64: "a number", |v| v.as_f64();
    bool: "a boolean", |v| v.as_bool();
    String: "a string", |v| v.as_str().map(str::to_string);
}

/// The decode rule, stated once: a present key of the wrong JSON type is
/// an error naming it; an absent key reads as `absent` — its default when
/// an older daemon may not send it, an error when it is required.
fn status_field<T: Wire>(v: &Value, key: &str, absent: Option<T>) -> Result<T, String> {
    match v.get(key) {
        Some(x) => T::read(x).ok_or_else(|| format!("status key {key:?} is not {}", T::KIND)),
        None => absent.ok_or_else(|| format!("status record missing required key {key:?}")),
    }
}

/// Declares the status record once: each field's doc, name, JSON type
/// (`u64`, `f64`, `bool` or `String`) and marker — `required`, or
/// `later(default)` for a key added after the first daemon release, which
/// an older daemon does not send. The struct, `to_json` and `from_json`
/// are generated from that one table.
macro_rules! status_record {
    (@absent $ty:ident required) => { None };
    (@absent String later($default:expr)) => { Some(String::from($default)) };
    (@absent $ty:ident later($default:expr)) => { Some::<$ty>($default) };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[doc = $doc:literal])* $field:ident: $ty:ident = $marker:ident $(($default:expr))?, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[doc = $doc])* pub $field: $ty, )*
        }

        impl $name {
            /// Serializes to the `stats` / `health` response payload.
            pub fn to_json(&self) -> Value {
                let mut map = serde_json::Map::new();
                $( map.insert(stringify!($field).to_string(), self.$field.write()); )*
                Value::Object(map)
            }

            /// Decodes a `stats` / `health` response payload: a present
            /// key of the wrong JSON type or an absent required key is an
            /// error naming it; an absent later key reads as its default.
            pub fn from_json(v: &Value) -> Result<$name, String> {
                Ok($name {
                    $( $field: status_field(v, stringify!($field),
                        status_record!(@absent $ty $marker $(($default))?))?, )*
                })
            }
        }
    };
}

status_record! {
    /// The daemon's status record: its counters and gauges, the store's
    /// live residency, prefetch, generation and writer state, and its
    /// liveness. `stats` and `health` both answer with it.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct ServerStats {
        /// Jobs accepted over the daemon's lifetime.
        jobs_submitted: u64 = required,
        /// Jobs finished (reports published).
        jobs_completed: u64 = required,
        /// Admissions: non-empty drains of the submission queue. The jobs
        /// of one admission share a traversal from their first sweep.
        rounds: u64 = required,
        /// Admissions the `batch_window` cap forced while a submitting
        /// connection's burst was still open — each one cost its jobs the
        /// whole window. A client that sends `wait` (or anything else)
        /// after its submissions never pays it.
        rounds_capped: u64 = later(0),
        /// Shared partition loads performed by the runtime — one per
        /// `(sweep, partition)` with interested jobs, *not* one per job.
        /// The gap to `jobs × partitions × iterations` is the sharing win.
        partition_loads: u64 = required,
        /// Partitions in the served store.
        num_partitions: u64 = required,
        /// Vertices in the served store.
        num_vertices: u64 = required,
        /// Formula-1 chunk size the runtime preprocessed with.
        chunk_bytes: u64 = required,
        /// Worker lanes of the runtime's sweep driver. The four `lane_*`
        /// keys below sum their wall time over these lanes, as of the
        /// last published retirement; what is left of `lanes × uptime`
        /// is chunk hand-out under the driver's lock.
        lanes: u64 = later(0),
        /// Nanoseconds the lanes spent streaming chunks through jobs.
        lane_stream_ns: u64 = later(0),
        /// Nanoseconds the lanes spent loading partitions.
        lane_load_ns: u64 = later(0),
        /// Nanoseconds the lanes spent ending iterations: `end_iteration`,
        /// each member's next active partitions, retirements.
        lane_end_ns: u64 = later(0),
        /// Nanoseconds the lanes slept with no task in any cohort.
        lane_idle_ns: u64 = later(0),
        /// Readahead hints issued by the runtime's partition prefetcher.
        prefetch_issued: u64 = later(0),
        /// Partition loads that found their segment already advised — the
        /// prefetcher ran ahead of the sweep.
        prefetch_hits: u64 = later(0),
        /// Current adaptive prefetch window depth (readahead partitions in
        /// flight per announcement).
        prefetch_window: u64 = later(0),
        /// Store segment bytes currently modeled as page-cache resident.
        resident_bytes: u64 = later(0),
        /// Segment bytes released behind the sweep frontier
        /// (`madvise(MADV_DONTNEED)`) to honour the memory budget.
        evicted_bytes: u64 = later(0),
        /// Partition evictions performed so far.
        evictions: u64 = later(0),
        /// Configured page-cache budget in bytes (0 = unlimited).
        memory_budget_bytes: u64 = later(0),
        /// Data generation the daemon currently serves (0 = the bare base
        /// store; delta publishes rotate it once nothing is in flight).
        generation: u64 = later(0),
        /// Generation rotations adopted since the daemon opened the store.
        generation_rotations: u64 = later(0),
        /// Delta payload bytes overlaid on the base this generation.
        delta_bytes: u64 = later(0),
        /// Mutation records overlaid on the base this generation.
        delta_records: u64 = later(0),
        /// Cumulative compactions folded into the served store's base.
        compactions: u64 = later(0),
        /// Mutation records appended to the ingest writer's write-ahead
        /// log (0 when ingest is disabled).
        delta_wal_records: u64 = later(0),
        /// Batches (WAL frames) appended by the ingest writer.
        delta_wal_batches: u64 = later(0),
        /// fsyncs the ingest WAL issued — `delta_wal_batches` per
        /// `delta_wal_syncs` is the group-commit amortization.
        delta_wal_syncs: u64 = later(0),
        /// Frame bytes appended to the ingest WAL.
        delta_wal_bytes: u64 = later(0),
        /// Epoch of the writer lease the daemon holds (0 = no lease).
        lease_epoch: u64 = later(0),
        /// 1 when the daemon holds the store's writer lease: through the
        /// ingest writer on a primary, through the frame applier on a
        /// follower.
        lease_held: u64 = later(0),
        /// Client commits applied through ingest sessions.
        ingest_commits: u64 = later(0),
        /// Commit groups published (≤ `ingest_commits`; the gap is the
        /// group-commit win).
        ingest_groups: u64 = later(0),
        /// Submissions rejected by admission control (queue full, tenant
        /// quota, eviction pressure) with an `overloaded` error.
        jobs_shed: u64 = later(0),
        /// Jobs that finished with an error report (injected or real read
        /// faults, panicking kernels) instead of converging.
        jobs_failed: u64 = later(0),
        /// Connections refused at accept because the connection limit was
        /// reached.
        connections_rejected: u64 = later(0),
        /// Request lines discarded for exceeding the line cap.
        oversized_lines: u64 = later(0),
        /// Submissions queued but not yet drained.
        queue_depth: u64 = later(0),
        /// Jobs admitted and not yet finished.
        running: u64 = later(0),
        /// EWMA of store partition evictions per round — the out-of-core
        /// admission signal: past `ServerConfig::shed_eviction_rate`, batch
        /// submissions are shed.
        eviction_rate: f64 = later(0.0),
        /// Replication frames shipped to followers (live or catch-up).
        repl_frames_shipped: u64 = later(0),
        /// Generations followers have acknowledged (a follower's next
        /// `repl_frames` request acks everything below its start).
        repl_frames_acked: u64 = later(0),
        /// Follower connections currently subscribed.
        repl_followers: u64 = later(0),
        /// Follower-side reconnect attempts to the primary (gauge of retry
        /// storms; 0 on a primary).
        repl_reconnects: u64 = later(0),
        /// Connections that failed the shared-secret handshake.
        auth_failures: u64 = later(0),
        /// Milliseconds since the daemon started serving.
        uptime_ms: u64 = later(0),
        /// Whether a shutdown has been requested (draining).
        shutting_down: bool = later(false),
        /// `"primary"` or `"follower"`.
        role: String = later("primary"),
        /// Generations a follower is behind its primary (0 on a primary).
        replica_lag_generations: u64 = later(0),
        /// The primary a follower tails (empty on a primary).
        peer: String = later(""),
    }
}
