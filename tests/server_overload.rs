//! Overload-safe serving: admission control, per-tenant quotas, priority
//! round-size policy, connection hygiene, the `health` verb, and graceful
//! shutdown that releases the ingest writer lease.
//!
//! The contract under test: a daemon past its configured limits answers
//! with *typed* errors (`overloaded`, `shutting_down`, `line_too_long`)
//! instead of hanging, crashing, or queueing without bound — and sheds
//! work without leaking queue slots, so admission recovers as soon as the
//! backlog drains.

mod common;

use common::{daemon_config, serve, Store};
use graphm::graph::delta::DeltaRecord;
use graphm::graph::generators;
use graphm::server::{
    Client, ClientError, ExecutionMode, JobState, Priority, Server, ServerConfig,
};
use graphm::store::DeltaWriter;
use graphm::workloads::{AlgoKind, JobSpec};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// `daemon_config` for the admission tests that run twice: once on the
/// default config (`None`) and once with `mode` written explicitly, the way
/// gmbench configures the daemon. The admission rules live in the one
/// runtime loop, so they must hold however the config was built.
fn mode_config(
    dir: &std::path::Path,
    name: &str,
    batch_ms: u64,
    mode: Option<ExecutionMode>,
) -> ServerConfig {
    let mut config = daemon_config(dir, &format!("{name}-{}", tag(mode)), batch_ms);
    if let Some(mode) = mode {
        config.mode = mode;
    }
    config
}

/// Keeps the store and socket of the two runs of one body apart.
fn tag(mode: Option<ExecutionMode>) -> &'static str {
    match mode {
        None => "default",
        Some(ExecutionMode::Wallclock) => "wallclock",
    }
}

fn small_store(name: &str) -> Store {
    let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 9);
    Store::convert(name, &g, 2)
}

fn wcc(max_iters: usize) -> JobSpec {
    JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters }
}

/// Queue-full submissions get a typed `overloaded` rejection immediately
/// (not a hang), the shed does not leak a queue slot, and admission
/// recovers once the backlog drains.
#[test]
fn queue_full_submissions_get_typed_overloaded_error() {
    let dir = small_store("queuefull");
    // A 1-second batching window keeps the first submission *queued*
    // while the second arrives microseconds later.
    let mut config = daemon_config(&dir, "queuefull", 1000);
    config.max_pending = 1;
    let (server, mut client) = serve(config);

    let id = client.submit(&wcc(3)).unwrap();
    match client.submit(&wcc(3)) {
        Err(ClientError::Overloaded(msg)) => {
            assert!(msg.contains("queue full"), "shed message names the cause: {msg}")
        }
        other => panic!("expected a typed overloaded error, got {other:?}"),
    }

    // The shed job never got an id; the admitted one still runs.
    let report = client.wait(id).unwrap();
    assert!(report.error.is_none());

    // Backlog drained: admission recovers and the daemon serves again.
    let id2 = client.submit(&wcc(3)).unwrap();
    assert!(client.wait(id2).unwrap().error.is_none());

    let stats = server.stats();
    assert_eq!(stats.jobs_shed, 1, "exactly one submission was shed");
    assert_eq!(stats.jobs_submitted, 2, "shed submissions are not counted as admitted");
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.jobs_failed, 0);
}

/// Per-tenant pending quotas isolate tenants: one tenant exhausting its
/// queued quota is shed while another tenant's submissions are still
/// admitted, and the quota frees once the backlog drains into a round.
#[test]
fn tenant_pending_quota_sheds_one_tenant_without_starving_another() {
    let dir = small_store("tenants");
    let mut config = daemon_config(&dir, "tenants", 1000);
    config.tenant_max_pending = 1;
    let (_server, mut client) = serve(config);

    let a1 = client.submit_as(&wcc(3), "alice", Priority::Batch).unwrap();
    match client.submit_as(&wcc(3), "alice", Priority::Batch) {
        Err(ClientError::Overloaded(msg)) => {
            assert!(msg.contains("alice"), "shed message names the tenant: {msg}")
        }
        other => panic!("alice's second submission should be shed, got {other:?}"),
    }
    // Bob's quota is untouched by alice's backlog.
    let b1 = client.submit_as(&wcc(3), "bob", Priority::Batch).unwrap();

    assert!(client.wait(a1).unwrap().error.is_none());
    assert!(client.wait(b1).unwrap().error.is_none());

    // The queued count drained with the round: alice is admitted again —
    // a leaked slot would shed her forever.
    let a2 = client.submit_as(&wcc(3), "alice", Priority::Batch).unwrap();
    assert!(client.wait(a2).unwrap().error.is_none());
}

/// The inflight quota caps queued + running jobs per tenant, and its
/// bookkeeping is released when reports publish (no slow leak that would
/// eventually shed a well-behaved tenant).
#[test]
fn tenant_inflight_quota_caps_concurrency_and_releases_on_finish() {
    tenant_inflight_quota(None);
}

#[test]
fn tenant_inflight_quota_caps_concurrency_and_releases_on_finish_wallclock() {
    tenant_inflight_quota(Some(ExecutionMode::Wallclock));
}

fn tenant_inflight_quota(mode: Option<ExecutionMode>) {
    let dir = small_store(&format!("inflight-{}", tag(mode)));
    let mut config = mode_config(&dir, "inflight", 1000, mode);
    config.tenant_max_inflight = 2;
    let (server, mut client) = serve(config);

    let a1 = client.submit_as(&wcc(3), "alice", Priority::Batch).unwrap();
    let a2 = client.submit_as(&wcc(3), "alice", Priority::Interactive).unwrap();
    match client.submit_as(&wcc(3), "alice", Priority::Batch) {
        Err(ClientError::Overloaded(msg)) => {
            assert!(msg.contains("in flight"), "shed message names the cause: {msg}")
        }
        other => panic!("alice's third concurrent job should be shed, got {other:?}"),
    }
    // Other tenants are unaffected by alice's saturation.
    let b1 = client.submit_as(&wcc(3), "bob", Priority::Batch).unwrap();

    for id in [a1, a2, b1] {
        assert!(client.wait(id).unwrap().error.is_none());
    }
    // Inflight counts were released with the reports (the daemon
    // decrements before publishing, so this cannot race the waits).
    let a3 = client.submit_as(&wcc(3), "alice", Priority::Batch).unwrap();
    let a4 = client.submit_as(&wcc(3), "alice", Priority::Batch).unwrap();
    assert!(client.wait(a3).unwrap().error.is_none());
    assert!(client.wait(a4).unwrap().error.is_none());
    assert_eq!(server.stats().jobs_shed, 1);
}

/// In-flight Batch bound: with `max_batch_per_round = 1`, a backlog of
/// batch jobs is spread over later admissions while an interactive job
/// joins the first one — the latency-sensitive tenant is not stuck behind
/// the batch queue.
#[test]
fn interactive_jobs_are_not_stuck_behind_batch_backlog() {
    interactive_not_stuck(None);
}

#[test]
fn interactive_jobs_are_not_stuck_behind_batch_backlog_wallclock() {
    interactive_not_stuck(Some(ExecutionMode::Wallclock));
}

fn interactive_not_stuck(mode: Option<ExecutionMode>) {
    let dir = small_store(&format!("priority-{}", tag(mode)));
    let mut config = mode_config(&dir, "priority", 400, mode);
    config.max_batch_per_round = 1;
    let (server, mut client) = serve(config);

    // Three batch jobs queue up first, then the interactive one.
    let batch_ids: Vec<_> =
        (0..3).map(|_| client.submit_as(&wcc(4), "batchy", Priority::Batch).unwrap()).collect();
    let interactive = client.submit_as(&wcc(4), "dash", Priority::Interactive).unwrap();

    // The interactive job runs in the *first* admission, alongside the
    // one batch job the cap lets in; the rest of the backlog follows one
    // at a time, each admitted only once the one before it has retired
    // and given the cap's slot back.
    let report = client.wait(interactive).unwrap();
    assert!(report.error.is_none());
    let batch: Vec<_> = batch_ids.iter().map(|&id| client.wait(id).unwrap()).collect();
    assert!(batch.iter().all(|r| r.error.is_none()));
    assert_eq!(
        report.submit_ns.to_bits(),
        batch[0].submit_ns.to_bits(),
        "the interactive job joined the first admission"
    );
    for pair in batch.windows(2) {
        assert!(
            pair[0].finish_ns <= pair[1].submit_ns,
            "batch job {} was admitted at {} with job {} in flight until {}",
            pair[1].id,
            pair[1].submit_ns,
            pair[0].id,
            pair[0].finish_ns
        );
    }
    assert!(server.stats().rounds >= 3, "the batch cap forces the backlog across admissions");
}

/// The cap bounds Batch jobs *in flight*; it is not a budget per busy
/// period. Interactive clients in closed loops keep the runtime busy
/// without a pause, and a Batch backlog deeper than the cap still
/// completes — its slot comes back each time a Batch job retires.
#[test]
fn capped_batch_backlog_completes_under_an_interactive_stream() {
    capped_backlog_completes(None);
}

#[test]
fn capped_batch_backlog_completes_under_an_interactive_stream_wallclock() {
    capped_backlog_completes(Some(ExecutionMode::Wallclock));
}

fn capped_backlog_completes(mode: Option<ExecutionMode>) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    // Jobs of milliseconds, and loops of different lengths so they cannot
    // fall into step: some interactive job is always in flight.
    let g = generators::rmat(2000, 40_000, generators::RmatParams::GRAPH500, 13);
    let dir = Store::convert(&format!("stream-{}", tag(mode)), &g, 2);
    let mut config = mode_config(&dir, "stream", 5, mode);
    config.max_batch_per_round = 1;
    let server = Server::start(config).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();

    let (stop, streamed) = (AtomicBool::new(false), AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for stream in 0..3 {
            let (socket, stop, streamed) = (&socket, &stop, &streamed);
            scope.spawn(move || {
                let spec = JobSpec {
                    kind: AlgoKind::PageRank,
                    damping: 0.85,
                    root: 0,
                    max_iters: 5 + 4 * stream,
                };
                let mut client = Client::connect_unix(socket).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    let id = client.submit_as(&spec, "dash", Priority::Interactive).unwrap();
                    assert!(client.wait(id).unwrap().error.is_none());
                    streamed.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let until = |what: &str, reached: &mut dyn FnMut() -> bool| {
            while !reached() {
                if std::time::Instant::now() > deadline {
                    stop.store(true, Ordering::SeqCst); // or the scope never joins
                    panic!("timed out waiting for {what}");
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        until("the interactive streams to be running", &mut || {
            streamed.load(Ordering::SeqCst) >= 6
        });

        let mut client = Client::connect_unix(&socket).unwrap();
        let backlog: Vec<_> =
            (0..4).map(|_| client.submit_as(&wcc(4), "batchy", Priority::Batch).unwrap()).collect();
        let last = *backlog.last().unwrap();
        until("the capped batch backlog to complete", &mut || {
            client.status(last).unwrap() == JobState::Done
        });
        stop.store(true, Ordering::SeqCst);
        let reports: Vec<_> = backlog.iter().map(|&id| client.wait(id).unwrap()).collect();
        for pair in reports.windows(2) {
            assert!(pair[0].finish_ns <= pair[1].submit_ns, "one batch job in flight at a time");
        }
    });
    assert_eq!(server.stats().jobs_failed, 0);
}

/// Graceful shutdown: in-flight jobs drain and answer their waiters, new
/// submissions get a typed `shutting_down` error, and the ingest writer
/// lease is released so an external writer can take over — even while
/// the `Server` handle (and its shared state) is still alive.
#[test]
fn graceful_shutdown_drains_rejects_and_releases_lease() {
    graceful_shutdown(None);
}

#[test]
fn graceful_shutdown_drains_rejects_and_releases_lease_wallclock() {
    graceful_shutdown(Some(ExecutionMode::Wallclock));
}

fn graceful_shutdown(mode: Option<ExecutionMode>) {
    let dir = small_store(&format!("shutdown-{}", tag(mode)));
    let mut config = mode_config(&dir, "shutdown", 500, mode);
    config.enable_ingest = true;
    let server = Server::start(config).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();

    let mut submitter = Client::connect_unix(&socket).unwrap();
    // Ingest works and health reflects the held lease before shutdown.
    let mut other = Client::connect_unix(&socket).unwrap();
    other.ingest(&[DeltaRecord::insert(1, 2, 1.0)]).unwrap();
    other.ingest_commit().unwrap();
    let health = other.health().unwrap();
    assert_eq!(health.lease_held, 1, "ingest-enabled daemon holds the writer lease");
    assert!(!health.shutting_down);

    // A job queued inside the open batching window...
    let id = submitter.submit(&wcc(3)).unwrap();
    // ...survives the shutdown request (the shutdown connection closes
    // after its ack, per protocol).
    other.shutdown_server().unwrap();

    // New work is rejected with the typed shutdown error.
    match submitter.submit(&wcc(3)) {
        Err(ClientError::ShuttingDown(_)) => {}
        other => panic!("expected a typed shutting_down error, got {other:?}"),
    }
    // The queued job still drains and answers its waiter.
    let report = submitter.wait(id).unwrap();
    assert!(report.error.is_none());

    // The runtime released the writer lease on exit: a fresh writer can
    // open the store while the Server handle is still alive. (Without
    // the release this would fail with LeaseHeld until process exit.)
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let writer = loop {
        match DeltaWriter::open(&dir) {
            Ok(w) => break w,
            Err(e) if std::time::Instant::now() < deadline => {
                // The runtime thread publishes its exit just after the
                // final report; give it a moment.
                std::thread::sleep(Duration::from_millis(20));
                let _ = e;
            }
            Err(e) => panic!("writer lease was not released by graceful shutdown: {e}"),
        }
    };
    drop(writer);
}

/// Out-of-core pressure: once a round has thrashed the memory budget, the
/// evictions-per-round EWMA sheds `batch` submissions with `overloaded`
/// while `interactive` ones are still admitted and run.
#[test]
fn eviction_pressure_sheds_batch_and_admits_interactive() {
    eviction_pressure(None);
}

#[test]
fn eviction_pressure_sheds_batch_and_admits_interactive_wallclock() {
    eviction_pressure(Some(ExecutionMode::Wallclock));
}

fn eviction_pressure(mode: Option<ExecutionMode>) {
    let dir = small_store(&format!("evict-{}", tag(mode)));
    let mut config = mode_config(&dir, "evict", 5, mode);
    // Four ~4.5 KB partitions under a one-partition budget: every sweep
    // evicts what it just left behind.
    config.memory_budget_bytes = 4096;
    config.shed_eviction_rate = 0.01;
    let (server, mut client) = serve(config);

    // Before any round the signal is quiet: batch work is admitted.
    let first = client.submit_as(&wcc(3), "batchy", Priority::Batch).unwrap();
    assert!(client.wait(first).unwrap().error.is_none());
    // The rate moves at the end of the round, just after its reports.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().eviction_rate <= 0.0 {
        assert!(std::time::Instant::now() < deadline, "the thrashing round never registered");
        std::thread::sleep(Duration::from_millis(2));
    }

    match client.submit_as(&wcc(3), "batchy", Priority::Batch) {
        Err(ClientError::Overloaded(msg)) => {
            assert!(msg.contains("thrashing"), "shed message names the cause: {msg}")
        }
        other => panic!("batch work should be shed under eviction pressure, got {other:?}"),
    }
    let urgent = client.submit_as(&wcc(3), "dash", Priority::Interactive).unwrap();
    assert!(client.wait(urgent).unwrap().error.is_none());

    let stats = server.stats();
    assert!(stats.eviction_rate > 0.0);
    assert!(stats.evictions > 0);
    assert_eq!(stats.jobs_shed, 1);
    assert_eq!(stats.jobs_completed, 2);
}

/// The `health` verb: cheap, lock-light readiness probe carrying lease
/// state, served generation, queue depth, and uptime.
#[test]
fn health_verb_reports_daemon_state() {
    let dir = small_store("health");
    let (_server, mut client) = serve(daemon_config(&dir, "health", 5));

    let h1 = client.health().unwrap();
    assert_eq!(h1.lease_held, 0, "plain reader daemon holds no writer lease");
    assert_eq!(h1.lease_epoch, 0);
    assert_eq!(h1.queue_depth, 0);
    assert_eq!(h1.running, 0);
    assert!(!h1.shutting_down);

    // Uptime moves; a job leaves queue depth back at zero once done.
    let id = client.submit(&wcc(3)).unwrap();
    client.wait(id).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    let h2 = client.health().unwrap();
    assert!(h2.uptime_ms >= h1.uptime_ms);
    assert_eq!(h2.queue_depth, 0);
}

/// Connection limit: accepts past the cap get one typed `overloaded`
/// error line and are closed; existing connections keep working, and
/// slots free when a connection ends.
#[test]
fn connection_limit_sheds_accepts_with_typed_error() {
    let dir = small_store("connlimit");
    let mut config = daemon_config(&dir, "connlimit", 5);
    config.max_connections = 1;
    let server = Server::start(config).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();

    let mut first = Client::connect_unix(&socket).unwrap();
    first.ping().unwrap();

    // The daemon writes the shed line before the second client sends
    // anything; depending on timing the client sees it as a typed
    // overloaded response or a transport error on the closed socket.
    let mut second = Client::connect_unix(&socket).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    match second.ping() {
        Err(ClientError::Overloaded(_)) | Err(ClientError::Io(_)) => {}
        other => panic!("second connection should be shed, got {other:?}"),
    }
    drop(second);

    // The surviving connection is unaffected, and the daemon counted
    // the rejection.
    first.ping().unwrap();
    assert!(server.stats().connections_rejected >= 1);

    // Dropping the first connection frees its slot (poll: the handler
    // thread decrements as it exits).
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let mut fresh = Client::connect_unix(&socket).unwrap();
        match fresh.ping() {
            Ok(()) => break,
            Err(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(e) => panic!("slot never freed after disconnect: {e}"),
        }
    }
}

/// Oversized request lines are rejected with a typed `line_too_long`
/// error and the connection stays usable — framing recovers at the
/// newline, nothing unbounded is buffered.
#[test]
fn oversized_line_gets_typed_error_and_connection_survives() {
    let dir = small_store("oversize");
    let mut config = daemon_config(&dir, "oversize", 5);
    config.max_line_bytes = 256;
    let server = Server::start(config).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();

    let mut stream = UnixStream::connect(&socket).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Far past the cap, in several writes (exercises the discard path).
    let big = vec![b'x'; 4096];
    stream.write_all(&big).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":false"), "oversized line answered: {line}");
    assert!(line.contains("line_too_long"), "typed code present: {line}");

    // Same connection, valid request: framing recovered.
    stream.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\":true"), "connection survives an oversized line: {line}");

    assert!(server.stats().oversized_lines >= 1);
}

/// Per-read socket timeouts close half-dead connections instead of
/// letting them pin handler threads (and connection slots) forever.
#[test]
fn read_timeout_closes_idle_connections() {
    let dir = small_store("timeout");
    let mut config = daemon_config(&dir, "timeout", 5);
    config.read_timeout = Duration::from_millis(150);
    let server = Server::start(config).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();

    // An active client inside the timeout keeps working.
    let mut stream = UnixStream::connect(&socket).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("pong"));

    // Then it goes silent: the daemon closes the connection (EOF on our
    // side) once the read timeout expires.
    std::thread::sleep(Duration::from_millis(600));
    line.clear();
    let n = reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(n, 0, "daemon should close an idle connection, got {line:?}");
}

/// A client that disconnects mid-request (truncated frame, no newline)
/// must not leak a queue slot or wedge the daemon.
#[test]
fn mid_request_disconnect_leaks_nothing() {
    let dir = small_store("disconnect");
    let server = Server::start(daemon_config(&dir, "disconnect", 5)).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();

    for _ in 0..4 {
        let mut stream = UnixStream::connect(&socket).unwrap();
        // Half a submit request, never terminated.
        stream.write_all(b"{\"cmd\":\"submit\",\"algo\":\"pagerank\"").unwrap();
        drop(stream);
    }
    // An unterminated-but-complete line at EOF still parses (and errors
    // normally); a pure fragment is dropped silently.
    let mut stream = UnixStream::connect(&socket).unwrap();
    stream.write_all(b"{\"cmd\":").unwrap();
    drop(stream);

    let mut client = Client::connect_unix(&socket).unwrap();
    client.ping().unwrap();
    let stats = server.stats();
    assert_eq!(stats.jobs_submitted, 0, "no truncated frame became a queued job");
    assert_eq!(stats.queue_depth, 0);
}
