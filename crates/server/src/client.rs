//! Blocking client for the `graphm-server` line protocol.
//!
//! One [`Client`] wraps one connection (unix-domain or TCP) and issues
//! requests synchronously; open several clients for concurrent
//! submissions (the daemon handles each connection on its own thread).

use crate::protocol::{
    hex_decode, report_from_json, request_to_json, JobState, Priority, Request, ServerStats,
    ERR_NOT_PRIMARY, ERR_OVERLOADED, ERR_SHUTTING_DOWN, ERR_STALE_REPLICA, ERR_UNAUTHORIZED,
};
use graphm_core::{JobId, JobReport};
use graphm_graph::delta::DeltaRecord;
use graphm_workloads::JobSpec;
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or server hangup).
    Io(std::io::Error),
    /// The server shed this request with a typed `overloaded` error
    /// (queue full, quota exceeded, connection limit, eviction
    /// pressure). Retryable with backoff — see `graphm-client
    /// --retries`.
    Overloaded(String),
    /// The server is shutting down and rejected new work.
    ShuttingDown(String),
    /// The server requires authentication (`auth` with the shared
    /// secret) before this request, or the presented token was wrong.
    Unauthorized(String),
    /// The server is a follower replica and rejected a primary-only
    /// request; the message names the primary to redirect to. Retry the
    /// peer list with backoff — see `graphm-client --tcp A,B`.
    NotPrimary(String),
    /// A follower replica refused a read because its replication lag
    /// exceeds its `--max-replica-lag` staleness bound.
    StaleReplica(String),
    /// The server answered `{"ok":false,...}` with this message.
    Server(String),
    /// The server answered something this client cannot decode.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Overloaded(m) => write!(f, "server overloaded: {m}"),
            ClientError::ShuttingDown(m) => write!(f, "server shutting down: {m}"),
            ClientError::Unauthorized(m) => write!(f, "unauthorized: {m}"),
            ClientError::NotPrimary(m) => write!(f, "not primary: {m}"),
            ClientError::StaleReplica(m) => write!(f, "stale replica: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One connection to a daemon.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Client {
    /// Connects over a unix-domain socket.
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        let read = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(Box::new(read)), writer: Box::new(stream) })
    }

    /// Connects over TCP (e.g. `"127.0.0.1:7421"`).
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::connect_tcp_with_timeout(addr, Duration::ZERO)
    }

    /// Connects over TCP with a read timeout, so a caller tailing a
    /// peer that dies silently (no RST) gets an `Io` error instead of
    /// blocking forever. Pick a timeout comfortably above the server's
    /// `repl_frames` long-poll window; zero means none.
    pub fn connect_tcp_with_timeout(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Every request is one complete line: send it now, not after the
        // daemon's delayed ACK.
        stream.set_nodelay(true)?;
        if !read_timeout.is_zero() {
            stream.set_read_timeout(Some(read_timeout))?;
        }
        let read = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(Box::new(read)), writer: Box::new(stream) })
    }

    /// One request/response round trip. The request goes out in one
    /// `write`, newline included.
    fn request(&mut self, req: &Request) -> Result<Value, ClientError> {
        let mut line =
            serde_json::to_string(&request_to_json(req)).expect("serialization is infallible");
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let v = serde_json::from_str(response.trim_end())
            .map_err(|e| ClientError::Protocol(format!("bad response json: {e}")))?;
        match v.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(v),
            Some(false) => {
                let msg =
                    v.get("error").and_then(Value::as_str).unwrap_or("unspecified").to_string();
                Err(match v.get("code").and_then(Value::as_str) {
                    Some(ERR_OVERLOADED) => ClientError::Overloaded(msg),
                    Some(ERR_SHUTTING_DOWN) => ClientError::ShuttingDown(msg),
                    Some(ERR_UNAUTHORIZED) => ClientError::Unauthorized(msg),
                    Some(ERR_NOT_PRIMARY) => ClientError::NotPrimary(msg),
                    Some(ERR_STALE_REPLICA) => ClientError::StaleReplica(msg),
                    _ => ClientError::Server(msg),
                })
            }
            None => Err(ClientError::Protocol("response missing \"ok\"".to_string())),
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Ping).map(|_| ())
    }

    /// Submits a job under the default (anonymous, `Batch`) identity;
    /// returns its daemon-assigned id immediately.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<JobId, ClientError> {
        self.submit_as(spec, "", Priority::Batch)
    }

    /// Submits a job with an explicit tenant identity and priority class.
    /// The daemon enforces per-tenant quotas against `tenant` and admits
    /// `Priority::Interactive` jobs into every round regardless of the
    /// batch backlog. Shed submissions fail with
    /// [`ClientError::Overloaded`].
    pub fn submit_as(
        &mut self,
        spec: &JobSpec,
        tenant: &str,
        priority: Priority,
    ) -> Result<JobId, ClientError> {
        let v =
            self.request(&Request::Submit { spec: *spec, tenant: tenant.to_string(), priority })?;
        v.get("job_id")
            .and_then(Value::as_u64)
            .map(|id| id as JobId)
            .ok_or_else(|| ClientError::Protocol("submit ack missing job_id".to_string()))
    }

    /// The daemon's status record through the `health` verb — the same
    /// record as [`Client::stats`] (lease, served generation, queue depth,
    /// role, uptime, ...). It never waits on the runtime thread, so it is
    /// cheap enough for readiness polling.
    pub fn health(&mut self) -> Result<ServerStats, ClientError> {
        self.status_record(&Request::Health, "health")
    }

    /// Non-blocking lifecycle query.
    pub fn status(&mut self, id: JobId) -> Result<JobState, ClientError> {
        let v = self.request(&Request::Status(id))?;
        v.get("state")
            .and_then(Value::as_str)
            .and_then(JobState::from_name)
            .ok_or_else(|| ClientError::Protocol("status missing state".to_string()))
    }

    /// Blocks until job `id` finishes; returns its full report.
    pub fn wait(&mut self, id: JobId) -> Result<JobReport, ClientError> {
        let v = self.request(&Request::Wait(id))?;
        let report = v
            .get("report")
            .ok_or_else(|| ClientError::Protocol("wait response missing report".to_string()))?;
        report_from_json(report).map_err(ClientError::Protocol)
    }

    /// Submits and waits in one call.
    pub fn run(&mut self, spec: &JobSpec) -> Result<JobReport, ClientError> {
        let id = self.submit(spec)?;
        self.wait(id)
    }

    /// The daemon's status record: its counters, the store's live state,
    /// the held lease, role and uptime.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        self.status_record(&Request::Stats, "stats")
    }

    /// Sends `req` and decodes the status record under `key`.
    fn status_record(&mut self, req: &Request, key: &str) -> Result<ServerStats, ClientError> {
        let v = self.request(req)?;
        let record = v.get(key).ok_or_else(|| ClientError::Protocol(format!("missing {key}")))?;
        ServerStats::from_json(record).map_err(ClientError::Protocol)
    }

    /// Asks the daemon to shut down (queued jobs still drain).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown).map(|_| ())
    }

    /// Stages mutations on this connection (ingest-enabled daemons
    /// only); returns the total staged so far.
    pub fn ingest(&mut self, ops: &[DeltaRecord]) -> Result<usize, ClientError> {
        let v = self.request(&Request::Ingest(ops.to_vec()))?;
        v.get("staged")
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| ClientError::Protocol("ingest ack missing staged".to_string()))
    }

    /// Group-commits this connection's staged mutations; blocks until
    /// the absorbing generation is durable. Returns `(generation,
    /// records_committed)`.
    pub fn ingest_commit(&mut self) -> Result<(u64, u64), ClientError> {
        let v = self.request(&Request::IngestCommit)?;
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("ingest_commit ack missing {k}")))
        };
        Ok((field("generation")?, field("records")?))
    }

    /// Drops this connection's staged mutations; returns how many were
    /// discarded.
    pub fn ingest_abort(&mut self) -> Result<usize, ClientError> {
        let v = self.request(&Request::IngestAbort)?;
        v.get("discarded")
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| ClientError::Protocol("ingest_abort ack missing discarded".to_string()))
    }

    /// Presents the shared secret. Must be the first request on a TCP
    /// connection to a daemon started with `--auth-token`; a no-op
    /// elsewhere. A wrong token fails with
    /// [`ClientError::Unauthorized`] (the connection stays open for a
    /// retry).
    pub fn auth(&mut self, token: &str) -> Result<(), ClientError> {
        self.request(&Request::Auth { token: token.to_string() }).map(|_| ())
    }

    /// Subscribes this connection as a replication follower starting at
    /// `from_generation`; returns the server's `(generation, epoch)`
    /// high-water.
    pub fn repl_subscribe(&mut self, from_generation: u64) -> Result<(u64, u64), ClientError> {
        let v = self.request(&Request::ReplSubscribe { from_generation })?;
        let field = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| ClientError::Protocol(format!("repl_subscribe ack missing {k}")))
        };
        Ok((field("generation")?, field("epoch")?))
    }

    /// Long-polls for up to `max` replication frames starting at
    /// `from_generation` (implicitly acking everything below it).
    /// Returns the server's published high-water and the decoded frame
    /// bytes — possibly empty when the poll timed out with nothing new.
    pub fn repl_frames(
        &mut self,
        from_generation: u64,
        max: u64,
    ) -> Result<(u64, Vec<Vec<u8>>), ClientError> {
        let v = self.request(&Request::ReplFrames { from_generation, max })?;
        let generation = v.get("generation").and_then(Value::as_u64).ok_or_else(|| {
            ClientError::Protocol("repl_frames ack missing generation".to_string())
        })?;
        let hexes = v
            .get("frames")
            .and_then(Value::as_array)
            .ok_or_else(|| ClientError::Protocol("repl_frames ack missing frames".to_string()))?;
        let mut frames = Vec::with_capacity(hexes.len());
        for h in hexes {
            let s =
                h.as_str().ok_or_else(|| ClientError::Protocol("non-string frame".to_string()))?;
            frames.push(hex_decode(s).map_err(ClientError::Protocol)?);
        }
        Ok((generation, frames))
    }

    /// The daemon's replication ledger (role, shipped/acked counters,
    /// follower count, reconnects) as raw JSON.
    pub fn repl_status(&mut self) -> Result<Value, ClientError> {
        let v = self.request(&Request::ReplStatus)?;
        v.get("repl")
            .cloned()
            .ok_or_else(|| ClientError::Protocol("repl_status ack missing repl".to_string()))
    }

    /// Promotes a follower daemon to primary through the store's epoch
    /// fence; returns the new lease epoch.
    pub fn promote(&mut self) -> Result<u64, ClientError> {
        let v = self.request(&Request::Promote)?;
        v.get("epoch")
            .and_then(Value::as_u64)
            .ok_or_else(|| ClientError::Protocol("promote ack missing epoch".to_string()))
    }
}

/// SplitMix64 step: the cheap deterministic stream behind
/// [`retry_delay`] jitter (and `graphm-client ingest-random`).
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Full-jitter exponential backoff: uniform over `[base/2, base]` where
/// `base = backoff_ms * 2^attempt` (exponent capped at 10), so a burst
/// of shed clients — or a fleet of followers reconnecting to a dead
/// primary — doesn't retry in lockstep.
pub fn retry_delay(backoff_ms: u64, attempt: u32, rng: &mut u64) -> Duration {
    let base = backoff_ms.max(1).saturating_mul(1u64 << attempt.min(10));
    let half = base / 2;
    Duration::from_millis(half + splitmix(rng) % (base - half + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_stays_in_the_jitter_window() {
        let mut rng = 42u64;
        for attempt in 0..12u32 {
            let base = 50u64.saturating_mul(1 << attempt.min(10));
            for _ in 0..32 {
                let d = retry_delay(50, attempt, &mut rng).as_millis() as u64;
                assert!(d >= base / 2 && d <= base, "attempt {attempt}: {d} not in window");
            }
        }
    }
}
