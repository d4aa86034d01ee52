//! The listeners: blocking accept loops (woken at shutdown by a
//! connection from the daemon itself), one handler thread per
//! connection, bounded line framing, and the dispatch from a parsed
//! [`Request`] to the verb that answers it. Everything a socket touches is
//! here and nothing else is — handlers reach the runtime only through the
//! shared state's queue and condvars:
//!
//! ```text
//!  unix accept loop ─┐                         ┌─> conn handler ─┐
//!  tcp  accept loop ─┴─> one thread per conn ──┤   parse line    │
//!                                              └─> respond <─────┘
//!      submit: push (job_id, spec) ──> submission queue ──> runtime
//!      wait:   block on done_cv   <── reports published by the runtime
//!      anything but submit, or hang-up: end the connection's burst
//! ```

use crate::admission::ConnId;
use crate::protocol::{
    error_response, error_response_coded, parse_request, Request, ERR_LINE_TOO_LONG,
    ERR_OVERLOADED, ERR_UNAUTHORIZED,
};
use crate::replication::{promote, repl_frames, repl_status_json, repl_subscribe};
use crate::state::Shared;
use crate::verbs::{ingest_commit, ingest_stage, job_state, submit, wait_for};
use graphm_graph::delta::DeltaRecord;
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Transport identity of an accepted connection, for auth gating and
/// peer-credential logging.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ConnInfo {
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
pub(crate) type ConnPair = (Box<dyn Read + Send>, Box<dyn Write + Send>, ConnInfo);

/// A blocking accept function: the next connection, or `Err` on listener
/// failure.
pub(crate) type Acceptor = Box<dyn FnMut() -> std::io::Result<ConnPair> + Send>;

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

pub(crate) fn listener_unix(listener: UnixListener, read_timeout: Duration) -> Acceptor {
    Box::new(move || {
        let (stream, _) = listener.accept()?;
        if let Some((uid, gid, pid)) = peer_credentials(&stream) {
            eprintln!("[graphm-server] unix peer connected: uid={uid} gid={gid} pid={pid}");
        }
        let (r, w) = split_unix(stream, read_timeout)?;
        Ok((r, w, ConnInfo::Unix))
    })
}

pub(crate) fn listener_tcp(listener: TcpListener, read_timeout: Duration) -> Acceptor {
    Box::new(move || {
        let (stream, _) = listener.accept()?;
        let (r, w) = split_tcp(stream, read_timeout)?;
        Ok((r, w, ConnInfo::Tcp))
    })
}

type SplitPair = (Box<dyn Read + Send>, Box<dyn Write + Send>);

fn split_unix(s: UnixStream, read_timeout: Duration) -> std::io::Result<SplitPair> {
    if !read_timeout.is_zero() {
        s.set_read_timeout(Some(read_timeout))?;
    }
    let r = s.try_clone()?;
    Ok((Box::new(r), Box::new(s)))
}

fn split_tcp(s: TcpStream, read_timeout: Duration) -> std::io::Result<SplitPair> {
    // Every response is one complete line: send it now, not after the
    // peer's delayed ACK.
    s.set_nodelay(true)?;
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

pub(crate) fn accept_loop(mut accept: Acceptor, shared: &Arc<Shared>) {
    loop {
        // Blocks until a client connects — or until `request_shutdown`
        // does, to get this thread to look at the flag.
        let accepted = accept();
        if shared.is_shutting_down() {
            break;
        }
        let Ok((read, mut write, info)) = accepted else { break };
        // Connection limit: shed the accept with one typed error line
        // instead of letting handler threads (each pinning a queue of
        // blocking reads) grow without bound.
        if shared.config.max_connections > 0
            && shared.connections.load(Ordering::SeqCst) >= shared.config.max_connections
        {
            let _ = write_line(
                write.as_mut(),
                &error_response_coded(
                    "connection limit reached; retry with backoff",
                    ERR_OVERLOADED,
                ),
            );
            shared.stats.lock().connections_rejected += 1;
            continue;
        }
        shared.connections.fetch_add(1, Ordering::SeqCst);
        let guard = ConnGuard(Arc::clone(shared));
        // Handlers are detached: they exit at client EOF, on transport
        // errors (including read timeouts), or when shutdown wakes their
        // waits.
        let _ = std::thread::Builder::new().name("graphm-conn".to_string()).spawn(move || {
            serve_connection(read, write, &guard.0, info);
        });
    }
}

/// One `write` per line: a line split over two writes stalls on TCP
/// (Nagle holds the second until the peer's delayed ACK of the first).
fn write_line(w: &mut dyn Write, v: &Value) -> std::io::Result<()> {
    let mut line = serde_json::to_string(v).expect("serialization is infallible");
    line.push('\n');
    w.write_all(line.as_bytes())?;
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
    // Set once the line outgrows `max`: the rest is consumed unbuffered.
    let mut oversized = false;
    let line = |buf: &[u8]| LineOutcome::Line(String::from_utf8_lossy(buf).into_owned());
    loop {
        let available = match r.fill_buf() {
            Ok(b) => b,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return LineOutcome::Failed,
        };
        if available.is_empty() {
            return match (oversized, buf.is_empty()) {
                (true, _) => LineOutcome::Oversized, // EOF mid-line; next read sees Eof.
                (false, true) => LineOutcome::Eof,
                (false, false) => line(&buf),
            };
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(available.len());
        oversized |= buf.len() + take > max;
        if oversized {
            buf.clear();
        } else {
            buf.extend_from_slice(&available[..take]);
        }
        r.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            return if oversized { LineOutcome::Oversized } else { line(&buf) };
        }
    }
}

/// Per-connection session state.
struct ConnState {
    /// Whose burst this connection's submissions join (see `admission`).
    id: ConnId,
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
        id: shared.next_conn.fetch_add(1, Ordering::Relaxed),
        staged: Vec::new(),
        authed: shared.config.auth_token.is_none() || matches!(info, ConnInfo::Unix),
        subscribed: false,
    };
    serve_requests(read, write, shared, &mut conn);
    shared.end_burst(conn.id);
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
        let line = match read_bounded_line(&mut reader, shared.config.max_line_bytes) {
            LineOutcome::Eof | LineOutcome::Failed => return,
            LineOutcome::Oversized => {
                shared.end_burst(conn.id);
                shared.stats.lock().oversized_lines += 1;
                let resp = error_response_coded(
                    &format!("request line exceeds {} bytes", shared.config.max_line_bytes),
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
        let parsed = parse_request(&line);
        if !matches!(parsed, Ok(Request::Submit { .. })) {
            // Any other request ends the connection's burst.
            shared.end_burst(conn.id);
        }
        let response = match parsed {
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
                    let mut jobs = shared.jobs.lock();
                    jobs.mark_delivered(id);
                }
                if is_shutdown {
                    // Only now may the daemon stop: its ack is written.
                    shared.wake_for_shutdown();
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
        Request::Stats => json!({ "ok": true, "stats": shared.stats_snapshot().to_json() }),
        Request::Shutdown => {
            // The wake-up waits for the ack (see `serve_requests`).
            shared.refuse_new_work();
            json!({ "ok": true, "shutting_down": true })
        }
        Request::Submit { spec, tenant, priority } => {
            submit(spec, tenant, priority, conn.id, shared)
        }
        Request::Health => json!({ "ok": true, "health": shared.stats_snapshot().to_json() }),
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
        Request::ReplSubscribe { from_generation } => {
            repl_subscribe(shared, &mut conn.subscribed, from_generation)
        }
        Request::ReplFrames { from_generation, max } => repl_frames(shared, from_generation, max),
        Request::ReplStatus => json!({ "ok": true, "repl": repl_status_json(shared) }),
        Request::Promote => promote(shared),
    }
}

/// Validates the shared secret. Byte-folded comparison so a mismatch
/// costs the same regardless of where the tokens diverge.
fn auth_check(shared: &Shared, conn: &mut ConnState, token: &str) -> Value {
    let ok = match &shared.config.auth_token {
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
        shared.stats.lock().auth_failures += 1;
        error_response_coded("bad auth token", ERR_UNAUTHORIZED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `input` through an 8-byte read buffer, so long lines span
    /// several fills.
    fn outcomes(input: &[u8], max: usize) -> Vec<String> {
        let read: Box<dyn Read + Send> = Box::new(std::io::Cursor::new(input.to_vec()));
        let mut reader = BufReader::with_capacity(8, read);
        let mut seen = Vec::new();
        loop {
            match read_bounded_line(&mut reader, max) {
                LineOutcome::Line(line) => seen.push(line),
                LineOutcome::Oversized => seen.push("<oversized>".to_string()),
                LineOutcome::Eof => return seen,
                LineOutcome::Failed => panic!("cursor reads cannot fail"),
            }
        }
    }

    #[test]
    fn bounded_lines_cap_exactly_and_recover_framing() {
        // At the cap is a line; one byte over is discarded through its
        // newline and the next line parses.
        assert_eq!(outcomes(b"0123456789\nok\n", 10), ["0123456789", "ok"]);
        assert_eq!(outcomes(b"0123456789a\nok\n", 10), ["<oversized>", "ok"]);
        assert_eq!(
            outcomes(&[&[b'x'; 100][..], b"\nping\n"].concat(), 10),
            ["<oversized>", "ping"]
        );
        // A final unterminated line still parses; EOF inside an oversized
        // line reports it once, then EOF.
        assert_eq!(outcomes(b"a\nlast", 10), ["a", "last"]);
        assert_eq!(outcomes(&[b'x'; 100], 10), ["<oversized>"]);
        assert_eq!(outcomes(b"\n\n", 10), ["", ""]);
    }
}
