//! End-to-end daemon integration: a `graphm-server` over a disk-resident
//! store must give concurrently connected socket clients *exactly* the
//! results an in-process run of the same job mix gives — bit-identical
//! vertex values, iterations and edge counts — while actually sharing
//! partition passes across the socket-submitted jobs (fewer total loads
//! than jobs x partitions).

mod common;

use common::{assert_served_identical, assert_values_identical, daemon_config, serve, Store};
use graphm::core::{JobReport, PartitionSource, Scheme, WallClockConfig, WallClockExecutor};
use graphm::graph::{generators, MemoryProfile};
use graphm::server::{Client, JobState, Server};
use graphm::store::DiskGridSource;
use graphm::workloads::{immediate_arrivals, AlgoKind, JobSpec, MixConfig, Workbench};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The headline test: 8 concurrent client connections, one job each,
/// submitted into one batching window, are served as one cohort. Their
/// results must be bit-identical to the same mix run in-process — by the
/// simulator's Shared scheme and by `run_batch_single_thread`, gmbench's
/// per-cohort rule — and the cohort must have merged partition passes
/// across the socket-submitted jobs exactly as that replay does.
#[test]
fn eight_concurrent_clients_match_in_process_run_bit_for_bit() {
    let g = generators::rmat(600, 5200, generators::RmatParams::GRAPH500, 33);
    let dir = Store::convert("concurrent", &g, 4);

    // Capped iteration budgets keep total sweeps well below the job
    // count, so the sharing criterion (loads < jobs x partitions) has
    // teeth; the mix still rotates through all four paper algorithms.
    let wb = Workbench::from_disk(&dir, MemoryProfile::TEST).unwrap();
    let mix = MixConfig {
        count: 8,
        kinds: AlgoKind::PAPER_MIX.to_vec(),
        seed: 11,
        pr_max_iters: 4,
        wcc_max_iters: 4,
    };
    let specs = graphm::workloads::generate_mix(wb.num_vertices(), &mix);

    // Every client submits before any of them waits, so until the last
    // `wait` arrives some burst is open and nothing is drained: all 8
    // land in one admission, exactly like the in-process runs' immediate
    // arrivals. (The batch window only caps how long that may take.)
    let server = Server::start(daemon_config(&dir, "concurrent", 1500)).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();

    let connected = Arc::new(Barrier::new(specs.len()));
    let submitted = Arc::new(Barrier::new(specs.len()));
    let mut handles = Vec::new();
    for (i, spec) in specs.iter().copied().enumerate() {
        let socket = socket.clone();
        let (connected, submitted) = (Arc::clone(&connected), Arc::clone(&submitted));
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect_unix(&socket).expect("connect");
            connected.wait();
            let id = client.submit(&spec).expect("submit");
            submitted.wait();
            let report = client.wait(id).expect("wait");
            (i, id, report)
        }));
    }
    let mut by_server_id: Vec<Option<(usize, JobReport)>> = vec![None; specs.len()];
    for h in handles {
        let (spec_idx, id, report) = h.join().expect("client thread");
        assert_eq!(report.id, id);
        assert!(by_server_id[id].is_none(), "job ids are unique");
        by_server_id[id] = Some((spec_idx, report));
    }

    let stats = server.stats();
    assert_eq!((stats.rounds, stats.rounds_capped), (1, 0), "the burst lands in one cohort");

    // Replay the same mix in-process, ordered the way the daemon admitted
    // it (ids are assigned in arrival order): through the simulator with
    // immediate arrivals, and as one single-threaded cohort.
    let ordered_specs: Vec<JobSpec> =
        by_server_id.iter().map(|e| specs[e.as_ref().unwrap().0]).collect();
    let arr = immediate_arrivals(ordered_specs.len());
    let simulated = wb.run(Scheme::Shared, &ordered_specs, &arr);
    let source = Arc::new(DiskGridSource::open(&dir).unwrap());
    let degrees = Arc::new(source.out_degrees());
    let exec = WallClockExecutor::new(
        Arc::clone(&source) as Arc<dyn PartitionSource>,
        WallClockConfig::new(MemoryProfile::TEST),
        None,
    );
    let cohort = exec.run_batch_single_thread(
        ordered_specs.iter().map(|s| s.instantiate(wb.num_vertices(), &degrees)).collect(),
    );

    for (id, entry) in by_server_id.iter().enumerate() {
        let (_, served) = entry.as_ref().unwrap();
        let (sim, solo) = (&simulated.jobs[id], &cohort.jobs[id]);
        assert_served_identical(served, sim);
        assert_eq!(
            (&served.name, served.iterations, served.edges_processed),
            (&solo.name, solo.iterations, solo.edges_processed),
            "job {id}"
        );
        assert_values_identical(&served.values, &solo.values, &format!("job {id}"));
    }

    // Sharing engaged across socket-submitted jobs: the daemon's loads
    // match the cohort's in-process replay exactly and stay below what
    // per-job loading (jobs x partitions, even at one pass per job)
    // would cost.
    assert_eq!(stats.partition_loads, cohort.partition_loads, "daemon loads match the replay");
    let jobs_x_partitions = (specs.len() * stats.num_partitions as usize) as u64;
    assert!(
        stats.partition_loads < jobs_x_partitions,
        "sharing must engage: {} loads vs jobs x partitions = {}",
        stats.partition_loads,
        jobs_x_partitions
    );
    assert_eq!(stats.jobs_submitted, 8);
    assert_eq!(stats.jobs_completed, 8);
    assert_eq!(stats.num_vertices, 600);
}

/// Real threaded sweeps with partition prefetch must produce
/// **algorithmically identical** reports to the simulator's Shared run —
/// same names, iteration counts, edges processed, and vertex values
/// (bit-for-bit) — while timing fields are wall time; the prefetcher must
/// record hits on the disk-resident store.
#[test]
fn wallclock_mode_matches_deterministic_results_with_prefetch_hits() {
    let g = generators::rmat(600, 5200, generators::RmatParams::GRAPH500, 33);
    let dir = Store::convert("wallclock", &g, 4);

    // Same shape as the headline test: capped iteration
    // budgets keep total sweeps well below the job count so the sharing
    // criterion (loads < jobs x partitions) has teeth.
    let wb = Workbench::from_disk(&dir, MemoryProfile::TEST).unwrap();
    let mix = MixConfig {
        count: 8,
        kinds: AlgoKind::PAPER_MIX.to_vec(),
        seed: 19,
        pr_max_iters: 4,
        wcc_max_iters: 4,
    };
    let specs = graphm::workloads::generate_mix(wb.num_vertices(), &mix);

    let (server, mut client) = serve(daemon_config(&dir, "wallclock", 20));

    // Submissions come sequentially from one client: one burst, so one
    // threaded batch (ids in submit order). The bit-exact comparison
    // depends on that: a split batch changes the co-scheduled job set and
    // hence the Formula-5 loading order, which legitimately perturbs f64
    // accumulation order.
    let ids: Vec<_> = specs.iter().map(|s| client.submit(s).expect("submit")).collect();
    let served: Vec<JobReport> = ids.iter().map(|&id| client.wait(id).expect("wait")).collect();
    assert_eq!(server.stats().rounds, 1, "one burst is one batch");

    // The simulator's reference for the same specs in the same order.
    let expected = wb.run(Scheme::Shared, &specs, &immediate_arrivals(specs.len()));

    for (id, (got, want)) in served.iter().zip(&expected.jobs).enumerate() {
        assert_served_identical(got, want);
        // Wallclock timing is real: non-negative wall nanoseconds, and
        // the simulated instruction counter stays unused.
        assert!(got.finish_ns >= got.submit_ns, "job {id}");
        assert_eq!(got.instructions, 0, "job {id} carries no simulated instructions");
    }

    let stats = server.stats();
    assert_eq!(stats.jobs_completed, specs.len() as u64);
    let jobs_x_partitions = (specs.len() * stats.num_partitions as usize) as u64;
    assert!(
        stats.partition_loads < jobs_x_partitions,
        "threaded sharing must engage: {} loads vs jobs x partitions = {}",
        stats.partition_loads,
        jobs_x_partitions
    );
    assert!(stats.prefetch_issued > 0, "prefetcher issued no hints");
    assert!(
        stats.prefetch_hits > 0,
        "prefetcher never ran ahead of a load (issued {})",
        stats.prefetch_issued
    );
}

/// The TCP listener speaks the same protocol.
#[test]
fn tcp_listener_serves_jobs() {
    let g = generators::rmat(300, 2400, generators::RmatParams::GRAPH500, 5);
    let dir = Store::convert("tcp", &g, 4);

    let mut config = daemon_config(&dir, "tcp", 5);
    config.tcp_addr = Some("127.0.0.1:0".to_string());
    let server = Server::start(config).unwrap();
    let addr = server.tcp_addr().unwrap();

    let mut client = Client::connect_tcp(addr).unwrap();
    client.ping().unwrap();
    let spec = JobSpec { kind: AlgoKind::Bfs, damping: 0.85, root: 3, max_iters: 30 };
    let report = client.run(&spec).unwrap();
    assert_eq!(report.name, "BFS");
    assert_eq!(report.values.len(), 300);
    // BFS levels: the root is 0, unreached vertices serialize as +inf and
    // must survive the wire.
    assert_eq!(report.values[3], 0.0);
    assert!(report.values.iter().all(|v| v.is_infinite() || *v >= 0.0));
}

/// Lifecycle and error behavior over one connection.
#[test]
fn status_lifecycle_and_errors() {
    let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 9);
    let dir = Store::convert("lifecycle", &g, 2);
    let (_server, mut client) = serve(daemon_config(&dir, "lifecycle", 5));

    // Unknown job.
    assert!(matches!(
        client.status(99),
        Err(graphm::server::ClientError::Server(ref m)) if m.contains("unknown job")
    ));
    // Out-of-range root is rejected at submit.
    let bad = JobSpec { kind: AlgoKind::Bfs, damping: 0.85, root: 4_000, max_iters: 5 };
    assert!(client.submit(&bad).is_err());

    // Normal lifecycle: submitted -> (queued|running) -> done.
    let spec = JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 6 };
    let id = client.submit(&spec).unwrap();
    let early = client.status(id).unwrap();
    assert!(matches!(early, JobState::Queued | JobState::Running | JobState::Done));
    let report = client.wait(id).unwrap();
    assert_eq!(report.name, "WCC");
    assert_eq!(client.status(id).unwrap(), JobState::Done);
    // Reports stay available for repeated waits.
    let again = client.wait(id).unwrap();
    assert_eq!(again.values, report.values);

    // The daemon keeps serving rounds: a second batch after idle.
    let id2 = client.submit(&spec).unwrap();
    assert!(id2 > id);
    let r2 = client.wait(id2).unwrap();
    assert_eq!(r2.values, report.values, "same spec, same results, later round");
}

/// Shutdown drains queued jobs, answers waiting clients, then stops
/// accepting; the socket file is removed.
#[test]
fn shutdown_drains_and_cleans_up() {
    let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 21);
    let dir = Store::convert("shutdown", &g, 2);
    let server = Server::start(daemon_config(&dir, "shutdown", 400)).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();

    let mut submitter = Client::connect_unix(&socket).unwrap();
    let spec = JobSpec { kind: AlgoKind::PageRank, damping: 0.5, root: 0, max_iters: 4 };
    let id = submitter.submit(&spec).unwrap();

    // Ask for shutdown from a second connection while the job is queued
    // (the 400 ms batch window is still open).
    let mut other = Client::connect_unix(&socket).unwrap();
    other.shutdown_server().unwrap();

    // The queued job still completes and the waiter gets its report.
    let report = submitter.wait(id).unwrap();
    assert_eq!(report.name, "PageRank");

    server.shutdown();
    assert!(!socket.exists(), "socket file removed on shutdown");
}

/// Finished-report retention is bounded: past `max_done_reports`, the
/// oldest reports are evicted and later queries say "unknown job".
#[test]
fn done_report_retention_is_bounded() {
    let g = generators::rmat(150, 1000, generators::RmatParams::GRAPH500, 3);
    let dir = Store::convert("retention", &g, 2);
    let mut config = daemon_config(&dir, "retention", 5);
    config.max_done_reports = 2;
    let (_server, mut client) = serve(config);

    let spec = JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 3 };
    let ids: Vec<_> = (0..4)
        .map(|_| {
            let id = client.submit(&spec).unwrap();
            client.wait(id).unwrap();
            id
        })
        .collect();
    // The two newest reports survive; the two oldest were evicted.
    assert_eq!(client.status(ids[3]).unwrap(), JobState::Done);
    assert_eq!(client.status(ids[2]).unwrap(), JobState::Done);
    for &old in &ids[..2] {
        assert!(
            matches!(client.status(old), Err(graphm::server::ClientError::Server(ref m))
                if m.contains("unknown job")),
            "job {old} should have been evicted"
        );
    }
}

/// A report counts as *delivered* only once a `wait` response carrying it
/// was written to its socket: a waiter that hung up leaves it for the
/// next `wait`, and a delivered report is kept only while delivered
/// reports together fit the store's structure size.
#[test]
fn a_failed_wait_response_is_not_a_delivery() {
    use std::io::Write;
    // 3,000 vertices over 100 edges: one report's values (24 kB) outweigh
    // the structure (1.2 kB), so a delivered report is evicted at once and
    // "still there" can only mean "not delivered yet".
    let g = generators::rmat(3000, 100, generators::RmatParams::GRAPH500, 5);
    let dir = Store::convert("delivery", &g, 2);
    let mut config = daemon_config(&dir, "delivery", 300);
    config.max_connections = 2;
    let server = Server::start(config).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();
    let mut client = Client::connect_unix(&socket).unwrap();
    let spec = JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 3 };

    // A second connection asks for the report and hangs up while the job
    // is still inside its batch window: the response write must fail.
    let lost = client.submit(&spec).unwrap();
    let mut waiter = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    writeln!(waiter, "{{\"cmd\":\"wait\",\"job_id\":{lost}}}").unwrap();
    drop(waiter);
    while client.status(lost).unwrap() != JobState::Done {
        std::thread::sleep(Duration::from_millis(10));
    }
    // The waiter's handler holds one of the two connection slots until it
    // has tried (and failed) to answer: once a third connection is let
    // in, that write is behind us.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while Client::connect_unix(&socket).unwrap().ping().is_err() {
        assert!(std::time::Instant::now() < deadline, "the waiter's handler never exited");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Nobody got the report, so it is still served ...
    assert_eq!(client.status(lost).unwrap(), JobState::Done);
    assert_eq!(client.wait(lost).unwrap().id, lost);
    // ... and now that it was, it is over budget and gone.
    for again in [client.status(lost).map(|_| ()), client.wait(lost).map(|_| ())] {
        assert!(
            matches!(again, Err(graphm::server::ClientError::Server(ref m))
                if m.contains("unknown job")),
            "a delivered report past the byte budget answers unknown job, got {again:?}"
        );
    }
}
