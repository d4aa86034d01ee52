//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, over a unix-domain or TCP
//! stream. Requests are objects with a `cmd` member:
//!
//! | request | response |
//! |---------|----------|
//! | `{"cmd":"ping"}` | `{"ok":true,"pong":true}` |
//! | `{"cmd":"submit","algo":"pagerank","damping":0.85,"root":0,"max_iters":30}` | `{"ok":true,"job_id":N}` |
//! | `{"cmd":"status","job_id":N}` | `{"ok":true,"job_id":N,"state":"queued"\|"running"\|"done"}` |
//! | `{"cmd":"wait","job_id":N}` | `{"ok":true,"job_id":N,"state":"done","report":{...,"values":"<hex>"}}` |
//! | `{"cmd":"stats"}` | `{"ok":true,"stats":{...}}` (the status record, [`ServerStats`]) |
//! | `{"cmd":"shutdown"}` | `{"ok":true,"shutting_down":true}` |
//! | `{"cmd":"ingest","ops":[{"op":"insert","src":1,"dst":2,"weight":1.0},{"op":"delete","src":3,"dst":4}]}` | `{"ok":true,"staged":N}` |
//! | `{"cmd":"ingest_commit"}` | `{"ok":true,"generation":G,"records":N,"group":K}` |
//! | `{"cmd":"ingest_abort"}` | `{"ok":true,"discarded":N}` |
//! | `{"cmd":"health"}` | `{"ok":true,"health":{...}}` (the same record as `stats`) |
//! | `{"cmd":"auth","token":"..."}` | `{"ok":true,"authenticated":true}` |
//! | `{"cmd":"repl_subscribe","from_generation":G}` | `{"ok":true,"generation":N,"epoch":E}` |
//! | `{"cmd":"repl_frames","from_generation":G,"max":K}` | `{"ok":true,"generation":N,"frames":["<hex>",...]}` |
//! | `{"cmd":"repl_status"}` | `{"ok":true,"repl":{...}}` |
//! | `{"cmd":"promote"}` | `{"ok":true,"role":"primary","epoch":E}` |
//!
//! `submit` additionally accepts optional `tenant` (string identity the
//! daemon applies per-tenant admission quotas to; defaults to the
//! anonymous tenant `""`) and `priority` (`"interactive"` \| `"batch"`,
//! default `"batch"` — see [`Priority`]).
//!
//! Consecutive `submit`s on one connection are a *burst*: the daemon
//! admits them together (the in-flight Batch bound permitting) once the
//! connection sends any other request or hangs up — or once the oldest
//! has waited the daemon's batch window. A client that submits and then
//! waits is admitted at its `wait`.
//!
//! Failures answer `{"ok":false,"error":"..."}` and keep the connection
//! open; only `shutdown`, EOF, or a transport error end it. Overload and
//! lifecycle rejections additionally carry a machine-readable `"code"`
//! member ([`ERR_OVERLOADED`], [`ERR_SHUTTING_DOWN`],
//! [`ERR_LINE_TOO_LONG`], [`ERR_UNAUTHORIZED`], [`ERR_NOT_PRIMARY`],
//! [`ERR_STALE_REPLICA`]) so clients can distinguish "retry later" from
//! "bad request" without parsing prose.
//!
//! ## Replication and roles
//!
//! `repl_subscribe` / `repl_frames` exist on primaries (ingest-enabled
//! daemons): a follower subscribes, then pulls committed generation
//! frames — hex-encoded [`graphm_store::replica`] binary frames — in
//! order. Followers answer write verbs (`ingest*`) and the replication
//! source verbs with a typed [`ERR_NOT_PRIMARY`] redirect naming their
//! primary; `promote` turns a follower into a primary through the
//! writer-lease epoch fence. Daemons started with `--auth-token` demand
//! an `auth` verb before anything else on TCP connections
//! ([`ERR_UNAUTHORIZED`] otherwise); unix-socket peers are identified by
//! `SO_PEERCRED` instead.
//!
//! ## Ingest sessions
//!
//! `ingest` verbs exist only on daemons started with ingest enabled (the
//! daemon then holds the store's writer lease). Mutations accumulate
//! per-connection with `ingest`; `ingest_commit` hands the staged batch
//! to the group-commit coordinator, which merges concurrently committing
//! connections into one WAL append + one published generation, and
//! blocks until that generation is durable. `ingest_abort` drops the
//! staged batch. The connection's stage is empty after either.
//!
//! ## Exactness
//!
//! A serialized [`JobReport`] decodes back to the *same bits*. The
//! `values` member is one string, a column: [`hex_encode`] of the values'
//! little-endian `f64` bytes in vertex order, 16 digits per vertex (the
//! codec replication frames ship in). Bits are copied, not printed, so
//! `±inf` (unreached BFS/SSSP vertices), `-0.0` and NaN payloads survive,
//! and neither side builds a JSON value per vertex. Scalars are JSON
//! numbers in Rust's shortest-round-trip formatting. This is what lets
//! the end-to-end test demand bit-identical reports between
//! socket-submitted and in-process jobs.

use graphm_cachesim::VirtualClock;
use graphm_core::{JobId, JobReport};
use graphm_graph::delta::{DeltaRecord, DELTA_OP_DELETE, DELTA_OP_INSERT};
use graphm_workloads::{AlgoKind, JobSpec};
use serde_json::{json, Value};

pub use crate::status::ServerStats;

/// Machine-readable error code: the daemon shed the request because a
/// queue, quota, or connection limit is at capacity. Retry with backoff.
pub const ERR_OVERLOADED: &str = "overloaded";
/// Machine-readable error code: the daemon is draining for shutdown and
/// admits no new work.
pub const ERR_SHUTTING_DOWN: &str = "shutting_down";
/// Machine-readable error code: the request line exceeded the daemon's
/// line cap and was discarded unparsed.
pub const ERR_LINE_TOO_LONG: &str = "line_too_long";
/// Machine-readable error code: the connection has not authenticated
/// (daemons started with `--auth-token` require an `auth` verb first on
/// TCP) or presented a wrong token.
pub const ERR_UNAUTHORIZED: &str = "unauthorized";
/// Machine-readable error code: a write/replication-source verb reached
/// a follower. The error message names the current primary (`peer`);
/// clients should redirect there and retry with backoff.
pub const ERR_NOT_PRIMARY: &str = "not_primary";
/// Machine-readable error code: a follower refused a read because its
/// replica lag exceeds the `--max-replica-lag` staleness bound.
pub const ERR_STALE_REPLICA: &str = "stale_replica";

/// Priority class of a submission, wired into the daemon's admission
/// policy: `Interactive` jobs join every drain, while the number of
/// `Batch` jobs in flight can be capped
/// (`ServerConfig::max_batch_per_round`) so a latency-sensitive tenant is
/// never stuck behind a hundred-job batch, and `Batch` submissions are
/// shed first under eviction pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive: admitted at every drain, never shed by the
    /// eviction-pressure signal.
    Interactive,
    /// Throughput work (the default): admission may be capped and
    /// overload sheds these first.
    #[default]
    Batch,
}

impl Priority {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }

    /// Parses a wire name.
    pub fn from_name(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// A parsed client request.
#[derive(Debug)]
pub enum Request {
    /// Liveness / banner check.
    Ping,
    /// Submit a job; answered with its id immediately (the job runs in a
    /// later sharing round). Carries the submitting tenant's identity
    /// (`""` = anonymous) and priority class for admission control.
    Submit { spec: JobSpec, tenant: String, priority: Priority },
    /// Non-blocking lifecycle query.
    Status(JobId),
    /// Block until the job finishes; answered with its report.
    Wait(JobId),
    /// The daemon's status record.
    Stats,
    /// Stop accepting work and exit once the queue drains.
    Shutdown,
    /// Stage mutations on this connection (ingest-enabled daemons only).
    Ingest(Vec<DeltaRecord>),
    /// Group-commit this connection's staged mutations; blocks until the
    /// resulting generation is durable.
    IngestCommit,
    /// Drop this connection's staged mutations.
    IngestAbort,
    /// Readiness/health probe, answered with the same status record as
    /// `stats` (lease, served generation, queue depth, role, uptime).
    /// Never blocks on the runtime.
    Health,
    /// Authenticates this connection against the daemon's shared secret
    /// (`--auth-token`). Must be the first verb on TCP when a token is
    /// configured.
    Auth { token: String },
    /// Registers this connection as a replication follower, declaring
    /// the generation it already has. Answered with the primary's
    /// current generation and lease epoch.
    ReplSubscribe { from_generation: u64 },
    /// Pulls committed replication frames for generations
    /// `(from_generation, from_generation + max]`. Long-polls briefly
    /// when the follower is already caught up. Requesting from
    /// generation G acknowledges everything at or below G.
    ReplFrames { from_generation: u64, max: u64 },
    /// Replication status snapshot: role, peer, lag, frames
    /// shipped/acked, follower count, reconnect storms.
    ReplStatus,
    /// Promotes a follower to primary: stops tailing, fences its own
    /// writer lease at `epoch + 1`, and enables ingest.
    Promote,
}

/// Lifecycle of a submitted job, as reported by `status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for its sharing round.
    Queued,
    /// Participating in sweeps.
    Running,
    /// Finished; report available via `wait`.
    Done,
}

impl JobState {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }

    /// Parses a wire name.
    pub fn from_name(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "done" => Some(JobState::Done),
            _ => None,
        }
    }
}

/// Wire name of an algorithm family (lowercase).
pub fn algo_name(kind: AlgoKind) -> &'static str {
    match kind {
        AlgoKind::Wcc => "wcc",
        AlgoKind::PageRank => "pagerank",
        AlgoKind::Sssp => "sssp",
        AlgoKind::Bfs => "bfs",
        AlgoKind::Ppr => "ppr",
        AlgoKind::LabelProp => "labelprop",
    }
}

/// Parses a wire algorithm name.
pub fn algo_from_name(name: &str) -> Option<AlgoKind> {
    match name {
        "wcc" => Some(AlgoKind::Wcc),
        "pagerank" => Some(AlgoKind::PageRank),
        "sssp" => Some(AlgoKind::Sssp),
        "bfs" => Some(AlgoKind::Bfs),
        "ppr" => Some(AlgoKind::Ppr),
        "labelprop" => Some(AlgoKind::LabelProp),
        _ => None,
    }
}

/// Lowercase hex digits by value.
const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// The value of every hex digit (either case); `0xff` for other bytes.
const NIBBLES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut d = 0;
    while d < 16 {
        table[DIGITS[d] as usize] = d as u8;
        table[DIGITS[d].to_ascii_uppercase() as usize] = d as u8;
        d += 1;
    }
    table
};

/// Appends the lowercase hex of `bytes`.
fn push_hex(bytes: &[u8], out: &mut String) {
    for &b in bytes {
        out.push(char::from(DIGITS[usize::from(b >> 4)]));
        out.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
}

/// Decodes `hex` (two digits per byte) into `out`, which holds half as
/// many bytes; `out` is garbage when this fails.
fn unhex(hex: &[u8], out: &mut [u8]) -> Result<(), String> {
    let mut seen = 0u8;
    for (byte, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
        let (hi, lo) = (NIBBLES[pair[0] as usize], NIBBLES[pair[1] as usize]);
        seen |= hi | lo;
        *byte = (hi << 4) | lo;
    }
    // Digits are below 16: only a non-hex byte sets the high nibble.
    if seen & 0xf0 == 0 {
        return Ok(());
    }
    let bad = hex.iter().find(|&&b| NIBBLES[b as usize] == 0xff).copied().unwrap_or(0);
    Err(format!("bad hex byte 0x{bad:02x}"))
}

/// Lowercase hex, two digits per byte: the one way the line protocol
/// carries bytes (replication frames, report value columns).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    push_hex(bytes, &mut out);
    out
}

/// Inverse of [`hex_encode`] (either case). Rejects odd length and
/// non-hex bytes with a message (never panics): transport corruption must
/// surface as a typed error the caller can retry on.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    let raw = s.as_bytes();
    if !raw.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", raw.len()));
    }
    let mut out = vec![0u8; raw.len() / 2];
    unhex(raw, &mut out)?;
    Ok(out)
}

/// Hex digits per vertex value in a report's `values` column.
const VALUE_DIGITS: usize = 16;

/// A report's `values` column: the little-endian bits of each value in
/// hex, 16 digits per value.
fn values_to_hex(values: &[f64]) -> String {
    let mut out = String::with_capacity(VALUE_DIGITS * values.len());
    for v in values {
        push_hex(&v.to_le_bytes(), &mut out);
    }
    out
}

/// Inverse of [`values_to_hex`]: the same bits back, NaN payloads and
/// signed zeros included.
fn values_from_hex(s: &str) -> Result<Vec<f64>, String> {
    let raw = s.as_bytes();
    if !raw.len().is_multiple_of(VALUE_DIGITS) {
        let n = raw.len();
        return Err(format!("report values: {n} hex digits, not a multiple of {VALUE_DIGITS}"));
    }
    let mut values = Vec::with_capacity(raw.len() / VALUE_DIGITS);
    let mut bits = [0u8; 8];
    for digits in raw.chunks_exact(VALUE_DIGITS) {
        unhex(digits, &mut bits).map_err(|e| format!("report values: {e}"))?;
        values.push(f64::from_le_bytes(bits));
    }
    Ok(values)
}

/// Serializes a job spec into `submit` parameters.
pub fn spec_to_json(spec: &JobSpec) -> Value {
    json!({
        "algo": algo_name(spec.kind),
        "damping": spec.damping,
        "root": spec.root,
        "max_iters": spec.max_iters,
    })
}

/// Decodes `submit` parameters into a spec. Only `algo` is required;
/// `damping` defaults to 0.85, `root` to 0, `max_iters` to 30.
pub fn spec_from_json(v: &Value) -> Result<JobSpec, String> {
    let algo = v.get("algo").and_then(Value::as_str).ok_or("submit needs an \"algo\" string")?;
    let kind = algo_from_name(algo).ok_or_else(|| format!("unknown algo {algo:?}"))?;
    let damping = match v.get("damping") {
        None => 0.85,
        Some(d) => d.as_f64().ok_or("damping must be a number")?,
    };
    if !(damping > 0.0 && damping < 1.0) {
        return Err(format!("damping {damping} outside (0, 1)"));
    }
    let root = match v.get("root") {
        None => 0,
        Some(r) => r.as_u64().ok_or("root must be a non-negative integer")?,
    };
    let root = u32::try_from(root).map_err(|_| format!("root {root} exceeds u32"))?;
    let max_iters = match v.get("max_iters") {
        None => 30,
        Some(m) => m.as_u64().ok_or("max_iters must be a non-negative integer")? as usize,
    };
    if max_iters == 0 {
        return Err("max_iters must be at least 1".to_string());
    }
    Ok(JobSpec { kind, damping, root, max_iters })
}

/// Serializes a finished job's full report. The `error` member is
/// present only on failed jobs (absent = converged normally), so older
/// decoders keep working.
pub fn report_to_json(r: &JobReport) -> Value {
    let mut v = json!({
        "job_id": r.id,
        "name": r.name.as_str(),
        "iterations": r.iterations,
        "instructions": r.instructions,
        "edges_processed": r.edges_processed,
        "submit_ns": r.submit_ns,
        "finish_ns": r.finish_ns,
        "clock": json!({
            "compute_ns": r.clock.compute_ns,
            "mem_access_ns": r.clock.mem_access_ns,
            "disk_ns": r.clock.disk_ns,
            "sync_ns": r.clock.sync_ns,
        }),
        "values": values_to_hex(&r.values),
    });
    if let Some(err) = &r.error {
        if let Value::Object(map) = &mut v {
            map.insert("error".to_string(), Value::String(err.clone()));
        }
    }
    v
}

/// Decodes [`report_to_json`]'s encoding back into a [`JobReport`].
pub fn report_from_json(v: &Value) -> Result<JobReport, String> {
    let f = |k: &str| {
        v.get(k).and_then(Value::as_f64).ok_or_else(|| format!("report missing number {k:?}"))
    };
    let u = |k: &str| {
        v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("report missing u64 {k:?}"))
    };
    let clock = v.get("clock").ok_or("report missing clock")?;
    let c = |k: &str| {
        clock.get(k).and_then(Value::as_f64).ok_or_else(|| format!("clock missing {k:?}"))
    };
    let values = values_from_hex(
        v.get("values").and_then(Value::as_str).ok_or("report values must be a hex string")?,
    )?;
    Ok(JobReport {
        id: u("job_id")? as JobId,
        name: v.get("name").and_then(Value::as_str).ok_or("report missing name")?.to_string(),
        iterations: u("iterations")? as usize,
        clock: VirtualClock {
            compute_ns: c("compute_ns")?,
            mem_access_ns: c("mem_access_ns")?,
            disk_ns: c("disk_ns")?,
            sync_ns: c("sync_ns")?,
        },
        instructions: u("instructions")?,
        edges_processed: u("edges_processed")?,
        submit_ns: f("submit_ns")?,
        finish_ns: f("finish_ns")?,
        values,
        error: v.get("error").and_then(Value::as_str).map(str::to_string),
    })
}

/// Serializes mutation records into `ingest` `ops`.
pub fn ops_to_json(ops: &[DeltaRecord]) -> Value {
    Value::Array(
        ops.iter()
            .map(|r| {
                if r.op == DELTA_OP_DELETE {
                    json!({ "op": "delete", "src": r.src, "dst": r.dst })
                } else {
                    json!({ "op": "insert", "src": r.src, "dst": r.dst,
                            "weight": f64::from(r.weight) })
                }
            })
            .collect(),
    )
}

/// Decodes `ingest` `ops` into mutation records. Weights default to 1.0
/// on insert; deletes ignore them.
pub fn ops_from_json(v: &Value) -> Result<Vec<DeltaRecord>, String> {
    let arr = v.as_array().ok_or("ingest needs an \"ops\" array")?;
    let mut out = Vec::with_capacity(arr.len());
    for (i, op) in arr.iter().enumerate() {
        let vertex = |k: &str| -> Result<u32, String> {
            let raw = op
                .get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("ops[{i}] needs a non-negative \"{k}\""))?;
            u32::try_from(raw).map_err(|_| format!("ops[{i}].{k} {raw} exceeds u32"))
        };
        let kind = match op.get("op") {
            None => "insert",
            Some(kind) => kind.as_str().ok_or_else(|| format!("ops[{i}].op must be a string"))?,
        };
        let (src, dst) = (vertex("src")?, vertex("dst")?);
        out.push(match kind {
            "insert" => {
                let weight = match op.get("weight") {
                    None => 1.0,
                    Some(w) => {
                        w.as_f64().ok_or_else(|| format!("ops[{i}].weight must be a number"))?
                            as f32
                    }
                };
                if !weight.is_finite() {
                    return Err(format!("ops[{i}].weight must be finite"));
                }
                // SSSP relaxes over non-negative weights only; a negative
                // cycle would run it to its sweep cap.
                if weight < 0.0 {
                    return Err(format!("ops[{i}].weight {weight} must not be negative"));
                }
                DeltaRecord { src, dst, weight, op: DELTA_OP_INSERT }
            }
            "delete" => DeltaRecord::delete(src, dst),
            other => return Err(format!("ops[{i}].op {other:?} (expected insert|delete)")),
        });
    }
    Ok(out)
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = serde_json::from_str(line).map_err(|e| format!("bad json: {e}"))?;
    let cmd = v.get("cmd").and_then(Value::as_str).ok_or("request needs a \"cmd\" string")?;
    let job_id = || {
        v.get("job_id")
            .and_then(Value::as_u64)
            .map(|id| id as JobId)
            .ok_or_else(|| format!("{cmd} needs a \"job_id\""))
    };
    match cmd {
        "ping" => Ok(Request::Ping),
        "submit" => {
            let tenant = match v.get("tenant") {
                None => String::new(),
                Some(t) => t.as_str().ok_or("tenant must be a string")?.to_string(),
            };
            if tenant.len() > 256 {
                return Err("tenant name exceeds 256 bytes".to_string());
            }
            let priority = match v.get("priority") {
                None => Priority::default(),
                Some(p) => {
                    let name = p.as_str().ok_or("priority must be a string")?;
                    Priority::from_name(name).ok_or_else(|| format!("unknown priority {name:?}"))?
                }
            };
            Ok(Request::Submit { spec: spec_from_json(&v)?, tenant, priority })
        }
        "status" => Ok(Request::Status(job_id()?)),
        "wait" => Ok(Request::Wait(job_id()?)),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "ingest" => {
            Ok(Request::Ingest(ops_from_json(v.get("ops").ok_or("ingest needs \"ops\"")?)?))
        }
        "ingest_commit" => Ok(Request::IngestCommit),
        "ingest_abort" => Ok(Request::IngestAbort),
        "health" => Ok(Request::Health),
        "auth" => {
            let token =
                v.get("token").and_then(Value::as_str).ok_or("auth needs a \"token\" string")?;
            if token.len() > 1024 {
                return Err("auth token exceeds 1024 bytes".to_string());
            }
            Ok(Request::Auth { token: token.to_string() })
        }
        "repl_subscribe" => {
            let from = v
                .get("from_generation")
                .and_then(Value::as_u64)
                .ok_or("repl_subscribe needs a \"from_generation\"")?;
            Ok(Request::ReplSubscribe { from_generation: from })
        }
        "repl_frames" => {
            let from = v
                .get("from_generation")
                .and_then(Value::as_u64)
                .ok_or("repl_frames needs a \"from_generation\"")?;
            let max = match v.get("max") {
                None => 16,
                Some(max) => max.as_u64().ok_or("max must be a non-negative integer")?,
            };
            let max = max.clamp(1, 1024);
            Ok(Request::ReplFrames { from_generation: from, max })
        }
        "repl_status" => Ok(Request::ReplStatus),
        "promote" => Ok(Request::Promote),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

/// Serializes a request (the client side of [`parse_request`]).
pub fn request_to_json(req: &Request) -> Value {
    match req {
        Request::Ping => json!({ "cmd": "ping" }),
        Request::Submit { spec, tenant, priority } => {
            let mut v = spec_to_json(spec);
            if let Value::Object(map) = &mut v {
                map.insert("cmd".to_string(), Value::String("submit".to_string()));
                if !tenant.is_empty() {
                    map.insert("tenant".to_string(), Value::String(tenant.clone()));
                }
                if *priority != Priority::default() {
                    map.insert("priority".to_string(), Value::String(priority.name().to_string()));
                }
            }
            v
        }
        Request::Status(id) => json!({ "cmd": "status", "job_id": *id }),
        Request::Wait(id) => json!({ "cmd": "wait", "job_id": *id }),
        Request::Stats => json!({ "cmd": "stats" }),
        Request::Shutdown => json!({ "cmd": "shutdown" }),
        Request::Ingest(ops) => json!({ "cmd": "ingest", "ops": ops_to_json(ops) }),
        Request::IngestCommit => json!({ "cmd": "ingest_commit" }),
        Request::IngestAbort => json!({ "cmd": "ingest_abort" }),
        Request::Health => json!({ "cmd": "health" }),
        Request::Auth { token } => json!({ "cmd": "auth", "token": token.as_str() }),
        Request::ReplSubscribe { from_generation } => {
            json!({ "cmd": "repl_subscribe", "from_generation": *from_generation })
        }
        Request::ReplFrames { from_generation, max } => {
            json!({ "cmd": "repl_frames", "from_generation": *from_generation, "max": *max })
        }
        Request::ReplStatus => json!({ "cmd": "repl_status" }),
        Request::Promote => json!({ "cmd": "promote" }),
    }
}

/// An `{"ok":false,...}` error response.
pub fn error_response(msg: &str) -> Value {
    json!({ "ok": false, "error": msg })
}

/// An `{"ok":false,...}` error response with a machine-readable `code`
/// ([`ERR_OVERLOADED`], [`ERR_SHUTTING_DOWN`], [`ERR_LINE_TOO_LONG`]).
pub fn error_response_coded(msg: &str, code: &str) -> Value {
    json!({ "ok": false, "error": msg, "code": code })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for (line, expect) in [
            (r#"{"cmd":"ping"}"#, "Ping"),
            (r#"{"cmd":"stats"}"#, "Stats"),
            (r#"{"cmd":"shutdown"}"#, "Shutdown"),
            (r#"{"cmd":"status","job_id":3}"#, "Status(3)"),
            (r#"{"cmd":"wait","job_id":0}"#, "Wait(0)"),
        ] {
            let req = parse_request(line).unwrap();
            assert_eq!(format!("{req:?}"), expect);
            // Client encoding parses back to the same request.
            let re = parse_request(&serde_json::to_string(&request_to_json(&req)).unwrap());
            assert_eq!(format!("{:?}", re.unwrap()), expect);
        }
    }

    #[test]
    fn submit_spec_round_trips_with_defaults() {
        let req = parse_request(r#"{"cmd":"submit","algo":"pagerank","damping":0.5}"#).unwrap();
        let Request::Submit { spec, tenant, priority } = req else { panic!("not a submit") };
        assert_eq!(spec.kind, AlgoKind::PageRank);
        assert_eq!(spec.damping, 0.5);
        assert_eq!(spec.root, 0);
        assert_eq!(spec.max_iters, 30);
        assert_eq!(tenant, "", "tenant defaults to anonymous");
        assert_eq!(priority, Priority::Batch, "priority defaults to batch");

        let spec2 = JobSpec { kind: AlgoKind::Sssp, damping: 0.2, root: 77, max_iters: 9 };
        let back = spec_from_json(&spec_to_json(&spec2)).unwrap();
        assert_eq!(back.kind, spec2.kind);
        assert_eq!(back.damping.to_bits(), spec2.damping.to_bits());
        assert_eq!(back.root, spec2.root);
        assert_eq!(back.max_iters, spec2.max_iters);
    }

    #[test]
    fn submit_tenant_and_priority_round_trip() {
        let req = parse_request(
            r#"{"cmd":"submit","algo":"bfs","root":3,"tenant":"svc-a","priority":"interactive"}"#,
        )
        .unwrap();
        let Request::Submit { tenant, priority, .. } = &req else { panic!("not a submit") };
        assert_eq!(tenant, "svc-a");
        assert_eq!(*priority, Priority::Interactive);
        // Client encoding carries them back.
        let line = serde_json::to_string(&request_to_json(&req)).unwrap();
        let Request::Submit { tenant, priority, spec } = parse_request(&line).unwrap() else {
            panic!("not a submit")
        };
        assert_eq!(tenant, "svc-a");
        assert_eq!(priority, Priority::Interactive);
        assert_eq!(spec.root, 3);
        // Bad values are typed parse errors.
        for line in [
            r#"{"cmd":"submit","algo":"bfs","priority":"urgent"}"#,
            r#"{"cmd":"submit","algo":"bfs","priority":7}"#,
            r#"{"cmd":"submit","algo":"bfs","tenant":42}"#,
        ] {
            assert!(parse_request(line).is_err(), "accepted {line}");
        }
        for p in [Priority::Interactive, Priority::Batch] {
            assert_eq!(Priority::from_name(p.name()), Some(p));
        }
    }

    #[test]
    fn health_and_coded_errors_round_trip() {
        assert!(matches!(parse_request(r#"{"cmd":"health"}"#), Ok(Request::Health)));
        let line = serde_json::to_string(&request_to_json(&Request::Health)).unwrap();
        assert!(matches!(parse_request(&line), Ok(Request::Health)));
        let e = error_response_coded("queue full", ERR_OVERLOADED);
        assert_eq!(e.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(e.get("code").and_then(Value::as_str), Some(ERR_OVERLOADED));
        assert_eq!(error_response("plain").get("code"), None);
    }

    #[test]
    fn submit_rejects_bad_parameters() {
        for line in [
            r#"{"cmd":"submit"}"#,
            r#"{"cmd":"submit","algo":"quicksort"}"#,
            r#"{"cmd":"submit","algo":"pagerank","damping":1.5}"#,
            r#"{"cmd":"submit","algo":"pagerank","damping":1.0}"#,
            r#"{"cmd":"submit","algo":"ppr","damping":0}"#,
            r#"{"cmd":"submit","algo":"bfs","root":-1}"#,
            r#"{"cmd":"submit","algo":"bfs","root":4294967296}"#,
            r#"{"cmd":"submit","algo":"wcc","max_iters":0}"#,
            r#"{"cmd":"nope"}"#,
            r#"not json"#,
        ] {
            assert!(parse_request(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn all_algo_names_round_trip() {
        for kind in [
            AlgoKind::Wcc,
            AlgoKind::PageRank,
            AlgoKind::Sssp,
            AlgoKind::Bfs,
            AlgoKind::Ppr,
            AlgoKind::LabelProp,
        ] {
            assert_eq!(algo_from_name(algo_name(kind)), Some(kind));
        }
        assert_eq!(algo_from_name("dijkstra"), None);
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let report = JobReport {
            id: 5,
            name: "SSSP".to_string(),
            iterations: 12,
            clock: VirtualClock {
                compute_ns: 1.0 / 3.0,
                mem_access_ns: 0.1 + 0.2,
                disk_ns: 1e9,
                sync_ns: 0.0,
            },
            instructions: 123_456_789,
            edges_processed: 42,
            submit_ns: 17.25,
            finish_ns: 1e12 + 0.5,
            values: vec![0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, 1.0 / 7.0],
            error: None,
        };
        let line = serde_json::to_string(&report_to_json(&report)).unwrap();
        assert!(!line.contains("error"), "completed reports omit the error member");
        let back = report_from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back.error, None);
        // Failed reports carry the message through.
        let failed = JobReport {
            error: Some("crash injected at failpoint read:load".into()),
            ..report.clone()
        };
        let line = serde_json::to_string(&report_to_json(&failed)).unwrap();
        let back2 = report_from_json(&serde_json::from_str(&line).unwrap()).unwrap();
        assert_eq!(back2.error.as_deref(), Some("crash injected at failpoint read:load"));
        assert_eq!(back.id, report.id);
        assert_eq!(back.name, report.name);
        assert_eq!(back.iterations, report.iterations);
        assert_eq!(back.instructions, report.instructions);
        assert_eq!(back.edges_processed, report.edges_processed);
        assert_eq!(back.submit_ns.to_bits(), report.submit_ns.to_bits());
        assert_eq!(back.finish_ns.to_bits(), report.finish_ns.to_bits());
        assert_eq!(back.clock.compute_ns.to_bits(), report.clock.compute_ns.to_bits());
        assert_eq!(back.clock.mem_access_ns.to_bits(), report.clock.mem_access_ns.to_bits());
        assert_eq!(back.values.len(), report.values.len());
        for (a, b) in back.values.iter().zip(&report.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The record every status test starts from.
    fn sample_stats() -> ServerStats {
        ServerStats {
            jobs_submitted: 8,
            jobs_completed: 7,
            rounds: 2,
            rounds_capped: 1,
            partition_loads: 96,
            num_partitions: 16,
            num_vertices: 600,
            chunk_bytes: 4096,
            lanes: 2,
            lane_stream_ns: 7_000_000,
            lane_load_ns: 1_000_000,
            lane_end_ns: 500_000,
            lane_idle_ns: 3_000_000,
            prefetch_issued: 12,
            prefetch_hits: 9,
            prefetch_window: 5,
            resident_bytes: 1 << 20,
            evicted_bytes: 3 << 19,
            evictions: 6,
            memory_budget_bytes: 2 << 20,
            generation: 3,
            generation_rotations: 2,
            delta_bytes: 4096,
            delta_records: 256,
            compactions: 1,
            delta_wal_records: 512,
            delta_wal_batches: 17,
            delta_wal_syncs: 5,
            delta_wal_bytes: 9000,
            lease_epoch: 2,
            lease_held: 1,
            ingest_commits: 21,
            ingest_groups: 6,
            jobs_shed: 4,
            jobs_failed: 2,
            connections_rejected: 3,
            oversized_lines: 1,
            queue_depth: 5,
            running: 4,
            eviction_rate: 2.5,
            repl_frames_shipped: 11,
            repl_frames_acked: 9,
            repl_followers: 1,
            repl_reconnects: 3,
            auth_failures: 2,
            uptime_ms: 1234,
            shutting_down: false,
            role: "follower".to_string(),
            replica_lag_generations: 2,
            peer: "tcp:127.0.0.1:7421".to_string(),
        }
    }

    #[test]
    fn stats_round_trip() {
        let s = sample_stats();
        let back = ServerStats::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        // A daemon that predates a counter reads as 0 on it.
        let Value::Object(mut older) = s.to_json() else { panic!("stats are an object") };
        older.remove("rounds_capped");
        assert_eq!(ServerStats::from_json(&Value::Object(older)).unwrap().rounds_capped, 0);
    }

    /// The stats keys keep their bytes: the encoding before `health` was
    /// folded in (`virtual_ns` then 1.5e9) is today's minus `virtual_ns`,
    /// plus the six keys `health` used to carry alone and the five lane
    /// keys added after.
    #[test]
    fn stats_wire_bytes_are_pinned() {
        let before = r#"{"auth_failures":2,"chunk_bytes":4096,"compactions":1,"connections_rejected":3,"delta_bytes":4096,"delta_records":256,"delta_wal_batches":17,"delta_wal_bytes":9000,"delta_wal_records":512,"delta_wal_syncs":5,"evicted_bytes":1572864,"eviction_rate":2.5,"evictions":6,"generation":3,"generation_rotations":2,"ingest_commits":21,"ingest_groups":6,"jobs_completed":7,"jobs_failed":2,"jobs_shed":4,"jobs_submitted":8,"lease_epoch":2,"lease_held":1,"memory_budget_bytes":2097152,"num_partitions":16,"num_vertices":600,"oversized_lines":1,"partition_loads":96,"prefetch_hits":9,"prefetch_issued":12,"prefetch_window":5,"queue_depth":5,"repl_followers":1,"repl_frames_acked":9,"repl_frames_shipped":11,"repl_reconnects":3,"resident_bytes":1048576,"rounds":2,"rounds_capped":1,"virtual_ns":1500000000}"#;
        let Ok(Value::Object(mut expect)) = serde_json::from_str(before) else { panic!() };
        expect.remove("virtual_ns");
        for (key, value) in [
            ("running", json!(4)),
            ("uptime_ms", json!(1234)),
            ("shutting_down", json!(false)),
            ("role", json!("follower")),
            ("replica_lag_generations", json!(2)),
            ("peer", json!("tcp:127.0.0.1:7421")),
            ("lanes", json!(2)),
            ("lane_stream_ns", json!(7_000_000)),
            ("lane_load_ns", json!(1_000_000)),
            ("lane_end_ns", json!(500_000)),
            ("lane_idle_ns", json!(3_000_000)),
        ] {
            expect.insert(key.to_string(), value);
        }
        let expect = serde_json::to_string(&Value::Object(expect)).unwrap();
        assert_eq!(serde_json::to_string(&sample_stats().to_json()).unwrap(), expect);
    }

    /// Every key is checked for its JSON type, and a payload without the
    /// required keys is refused, not read as zeros.
    #[test]
    fn status_decode_refuses_wrong_types_and_old_health() {
        use serde_json::Map;
        let Value::Object(mut wrong) = sample_stats().to_json() else { panic!() };
        wrong.insert("rounds_capped".to_string(), json!("7"));
        let e = ServerStats::from_json(&Value::Object(wrong)).unwrap_err();
        assert!(e.contains("\"rounds_capped\""), "{e}");
        for (key, value) in [("jobs_submitted", json!(-1)), ("role", json!(1))] {
            let Value::Object(mut wrong) = sample_stats().to_json() else { panic!() };
            wrong.insert(key.to_string(), value);
            let e = ServerStats::from_json(&Value::Object(wrong)).unwrap_err();
            assert!(e.contains(&format!("{key:?}")), "{e}");
        }
        // A `health` answer from before the one record.
        let old = json!({ "generation": 1, "uptime_ms": 5 });
        let e = ServerStats::from_json(&old).unwrap_err();
        assert!(e.contains("\"jobs_submitted\""), "{e}");
        // Later keys an older daemon does not send read as their defaults.
        let required = ["jobs_submitted", "jobs_completed", "rounds", "partition_loads"];
        let required = [&required[..], &["num_partitions", "num_vertices", "chunk_bytes"]].concat();
        let minimal: Map = required.iter().map(|k| (k.to_string(), json!(1))).collect();
        let back = ServerStats::from_json(&Value::Object(minimal.clone())).unwrap();
        assert_eq!(
            (back.role.as_str(), back.peer.as_str(), back.shutting_down),
            ("primary", "", false)
        );
        assert_eq!((back.rounds_capped, back.eviction_rate), (0, 0.0));
        // ... but each of the seven keys every daemon has sent is required.
        for key in required {
            let mut without = minimal.clone();
            without.remove(key);
            let e = ServerStats::from_json(&Value::Object(without)).unwrap_err();
            assert!(e.contains(&format!("{key:?}")), "{e}");
        }
    }

    #[test]
    fn replication_verbs_round_trip() {
        let req = parse_request(r#"{"cmd":"auth","token":"s3cret"}"#).unwrap();
        let Request::Auth { token } = &req else { panic!("not auth") };
        assert_eq!(token, "s3cret");
        let line = serde_json::to_string(&request_to_json(&req)).unwrap();
        assert!(matches!(parse_request(&line), Ok(Request::Auth { .. })));

        let req = parse_request(r#"{"cmd":"repl_subscribe","from_generation":4}"#).unwrap();
        assert!(matches!(req, Request::ReplSubscribe { from_generation: 4 }));
        let line = serde_json::to_string(&request_to_json(&req)).unwrap();
        assert!(matches!(parse_request(&line), Ok(Request::ReplSubscribe { from_generation: 4 })));

        let req = parse_request(r#"{"cmd":"repl_frames","from_generation":2,"max":8}"#).unwrap();
        assert!(matches!(req, Request::ReplFrames { from_generation: 2, max: 8 }));
        // max defaults and is clamped into [1, 1024].
        let req = parse_request(r#"{"cmd":"repl_frames","from_generation":0}"#).unwrap();
        assert!(matches!(req, Request::ReplFrames { from_generation: 0, max: 16 }));
        let req = parse_request(r#"{"cmd":"repl_frames","from_generation":0,"max":9999}"#).unwrap();
        assert!(matches!(req, Request::ReplFrames { max: 1024, .. }));

        assert!(matches!(parse_request(r#"{"cmd":"repl_status"}"#), Ok(Request::ReplStatus)));
        assert!(matches!(parse_request(r#"{"cmd":"promote"}"#), Ok(Request::Promote)));
        for (req, cmd) in [(Request::ReplStatus, "repl_status"), (Request::Promote, "promote")] {
            let line = serde_json::to_string(&request_to_json(&req)).unwrap();
            assert!(line.contains(cmd));
        }
        // Bad inputs are typed parse errors.
        for line in [
            r#"{"cmd":"auth"}"#,
            r#"{"cmd":"auth","token":7}"#,
            r#"{"cmd":"repl_subscribe"}"#,
            r#"{"cmd":"repl_frames"}"#,
            r#"{"cmd":"repl_frames","from_generation":0,"max":"all"}"#,
        ] {
            assert!(parse_request(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn ingest_ops_round_trip() {
        let ops = vec![
            DeltaRecord::insert(1, 2, 0.5),
            DeltaRecord::delete(3, 4),
            DeltaRecord::insert(5, 6, 1.0),
        ];
        let back = ops_from_json(&ops_to_json(&ops)).unwrap();
        assert_eq!(back.len(), ops.len());
        for (a, b) in back.iter().zip(&ops) {
            assert_eq!((a.src, a.dst, a.op), (b.src, b.dst, b.op));
            assert_eq!(a.weight.to_bits(), b.weight.to_bits());
        }
        // Through the full request layer, including defaults.
        let req = parse_request(
            r#"{"cmd":"ingest","ops":[{"src":7,"dst":8},{"op":"delete","src":1,"dst":1}]}"#,
        )
        .unwrap();
        let Request::Ingest(ops) = req else { panic!("not an ingest") };
        assert_eq!(ops[0].op, DELTA_OP_INSERT);
        assert_eq!(ops[0].weight, 1.0, "weight defaults to 1.0");
        assert_eq!(ops[1].op, DELTA_OP_DELETE);
        let line = serde_json::to_string(&request_to_json(&Request::Ingest(ops.clone()))).unwrap();
        let Request::Ingest(back) = parse_request(&line).unwrap() else { panic!() };
        assert_eq!(back.len(), ops.len());
        assert!(matches!(parse_request(r#"{"cmd":"ingest_commit"}"#), Ok(Request::IngestCommit)));
        assert!(matches!(parse_request(r#"{"cmd":"ingest_abort"}"#), Ok(Request::IngestAbort)));
    }

    #[test]
    fn ingest_ops_reject_bad_input() {
        for line in [
            r#"{"cmd":"ingest"}"#,
            r#"{"cmd":"ingest","ops":{}}"#,
            r#"{"cmd":"ingest","ops":[{"op":"upsert","src":1,"dst":2}]}"#,
            r#"{"cmd":"ingest","ops":[{"src":-1,"dst":2}]}"#,
            r#"{"cmd":"ingest","ops":[{"src":4294967296,"dst":2}]}"#,
            r#"{"cmd":"ingest","ops":[{"src":1}]}"#,
            r#"{"cmd":"ingest","ops":[{"src":1,"dst":2,"weight":"heavy"}]}"#,
            r#"{"cmd":"ingest","ops":[{"op":1,"src":3,"dst":4}]}"#,
        ] {
            assert!(parse_request(line).is_err(), "accepted {line}");
        }
    }

    #[test]
    fn ingest_ops_reject_negative_weights() {
        let line = r#"{"cmd":"ingest","ops":[{"src":1,"dst":2},{"src":2,"dst":1,"weight":-0.5}]}"#;
        let err = parse_request(line).unwrap_err();
        assert!(err.contains("ops[1].weight"), "{err}");
        let zero = r#"{"cmd":"ingest","ops":[{"src":1,"dst":2,"weight":0.0}]}"#;
        assert!(parse_request(zero).is_ok(), "a zero weight is a valid SSSP edge");
    }
}
