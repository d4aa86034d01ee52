//! What serving by cohorts promises a wallclock-mode client: a job leaves
//! when it converges — a short job admitted beside a long one is answered
//! first, with the bits of its solo run — and `submit_ns` names the
//! admission group; a connection's burst of submissions is admitted the
//! moment it sends anything else, the batch window only capping how long
//! a quiet one is waited for. Plus what the blocking accept loops promise everyone:
//! the first request is answered without waiting out a poll, and idle
//! listeners stop the moment shutdown is requested.

mod common;

use common::{assert_values_identical, daemon_config, serve, Store};
use graphm::core::{PartitionSource, WallClockConfig, WallClockExecutor};
use graphm::graph::{generators, MemoryProfile};
use graphm::server::{Client, JobState, Server};
use graphm::store::DiskGridSource;
use graphm::workloads::{AlgoKind, JobSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A one-sweep WCC submitted while a thirty-sweep PageRank is in flight
/// is admitted at once, retires first, and reports exactly what it
/// reports when run alone.
#[test]
fn a_short_job_overtakes_a_long_one_and_equals_its_solo_run() {
    let g = generators::rmat(8_000, 200_000, generators::RmatParams::GRAPH500, 61);
    let dir = Store::convert("overtake", &g, 4);
    let (server, mut client) = serve(daemon_config(&dir, "overtake", 5));

    let long = JobSpec { kind: AlgoKind::PageRank, damping: 0.85, root: 0, max_iters: 30 };
    let short = JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 1 };
    let long_id = client.submit(&long).unwrap();
    while client.status(long_id).unwrap() == JobState::Queued {
        std::thread::sleep(Duration::from_millis(1));
    }
    let short_id = client.submit(&short).unwrap();
    let short_report = client.wait(short_id).unwrap();
    let long_report = client.wait(long_id).unwrap();
    assert!(short_report.error.is_none() && long_report.error.is_none());
    assert!(long_report.iterations >= 10, "the long job must be long: {}", long_report.iterations);
    assert_eq!(short_report.iterations, 1);
    assert!(
        long_report.submit_ns < short_report.submit_ns
            && short_report.submit_ns < short_report.finish_ns
            && short_report.finish_ns < long_report.finish_ns,
        "admitted while the long job ran ({} < {}), retired before it ({} < {})",
        long_report.submit_ns,
        short_report.submit_ns,
        short_report.finish_ns,
        long_report.finish_ns
    );
    assert_eq!(server.stats().rounds, 2, "two admissions");

    // The reference: the short job alone, one thread, over the same store.
    let source = Arc::new(DiskGridSource::open(&dir).unwrap());
    let degrees = Arc::new(source.out_degrees());
    let exec = WallClockExecutor::new(
        Arc::clone(&source) as Arc<dyn PartitionSource>,
        WallClockConfig::new(MemoryProfile::TEST),
        None,
    );
    for (spec, served) in [(short, &short_report), (long, &long_report)] {
        let solo = exec.run_batch_single_thread(vec![spec.instantiate(g.num_vertices, &degrees)]);
        assert_eq!(served.iterations, solo.jobs[0].iterations, "{}", served.name);
        assert_values_identical(&served.values, &solo.jobs[0].values, &served.name);
    }
}

/// Reports of one burst (one admission) share `submit_ns`; a later burst
/// has its own.
#[test]
fn one_burst_shares_submit_ns_and_the_next_has_its_own() {
    let g = generators::rmat(300, 2400, generators::RmatParams::GRAPH500, 67);
    let dir = Store::convert("bursts", &g, 2);
    // The default window: a connection's sequential submissions are one
    // burst until its first `wait`, whatever the window.
    let (server, mut client) = serve(daemon_config(&dir, "bursts", 20));
    let spec = JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 4 };

    let mut burst = |jobs: usize| -> Vec<u64> {
        let ids: Vec<_> = (0..jobs).map(|_| client.submit(&spec).unwrap()).collect();
        ids.into_iter().map(|id| client.wait(id).unwrap().submit_ns.to_bits()).collect()
    };
    let first = burst(3);
    assert_eq!(server.stats().rounds, 1);
    let second = burst(2);
    assert_eq!(server.stats().rounds, 2);
    assert!(first.iter().all(|&ns| ns == first[0]), "{first:?}");
    assert!(second.iter().all(|&ns| ns == second[0]), "{second:?}");
    assert_ne!(first[0], second[0]);
}

fn small_store(name: &str) -> Store {
    let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 71);
    Store::convert(name, &g, 2)
}

const WCC: JobSpec = JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 4 };

/// The batch window is a cap, not a sleep: a `submit` followed by its
/// `wait` is admitted at the `wait`, however long the window.
#[test]
fn a_submit_then_wait_is_admitted_at_the_wait_not_after_the_window() {
    let dir = small_store("no-sleep");
    let (server, mut client) = serve(daemon_config(&dir, "no-sleep", 2_000));
    let begun = Instant::now();
    let id = client.submit(&WCC).unwrap();
    let report = client.wait(id).unwrap();
    let took = begun.elapsed();
    assert!(report.error.is_none());
    assert!(took < Duration::from_millis(500), "answered after {took:?}");
    assert_eq!(server.stats().rounds_capped, 0);
}

/// A burst that arrives while a long job runs is admitted when it
/// settles — not when the long job retires — and is answered first.
#[test]
fn a_burst_arriving_while_busy_is_admitted_without_waiting_for_a_retirement() {
    let g = generators::rmat(8_000, 200_000, generators::RmatParams::GRAPH500, 61);
    let dir = Store::convert("busy-burst", &g, 4);
    let (server, mut client) = serve(daemon_config(&dir, "busy-burst", 10_000));

    let long = JobSpec { kind: AlgoKind::PageRank, damping: 0.85, root: 0, max_iters: 30 };
    let long_id = client.submit(&long).unwrap();
    // `status` settles the long job's burst: it is admitted at once.
    while client.status(long_id).unwrap() == JobState::Queued {
        std::thread::sleep(Duration::from_millis(1));
    }
    let short_ids = [client.submit(&WCC).unwrap(), client.submit(&WCC).unwrap()];
    let shorts: Vec<_> = short_ids.iter().map(|&id| client.wait(id).unwrap()).collect();
    let long_report = client.wait(long_id).unwrap();
    assert!(long_report.iterations >= 10, "the long job must be long: {}", long_report.iterations);
    for short in &shorts {
        assert!(
            short.submit_ns < long_report.finish_ns && short.finish_ns < long_report.finish_ns,
            "admitted ({}) and retired ({}) before the long job retired ({})",
            short.submit_ns,
            short.finish_ns,
            long_report.finish_ns
        );
    }
    assert_eq!(shorts[0].submit_ns.to_bits(), shorts[1].submit_ns.to_bits(), "one cohort");
    let stats = server.stats();
    assert_eq!((stats.rounds, stats.rounds_capped), (2, 0));
}

/// A connection that goes quiet after `submit` holds its job back only
/// until the cap, and `rounds_capped` says that happened.
#[test]
fn a_burst_that_never_settles_is_admitted_at_the_cap() {
    let dir = small_store("capped");
    let server = Server::start(daemon_config(&dir, "capped", 300)).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();
    let mut quiet = Client::connect_unix(&socket).unwrap();
    let mut watcher = Client::connect_unix(&socket).unwrap();
    let begun = Instant::now();
    let id = quiet.submit(&WCC).unwrap();
    let mut queued_for = Duration::ZERO;
    loop {
        let state = watcher.status(id).unwrap();
        if state == JobState::Queued {
            queued_for = begun.elapsed();
        }
        if state == JobState::Done {
            break;
        }
        assert!(begun.elapsed() < Duration::from_secs(2), "still {state:?} after 2 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(queued_for >= Duration::from_millis(250), "admitted after only {queued_for:?}");
    let stats = server.stats();
    assert_eq!((stats.rounds, stats.rounds_capped), (1, 1));
    drop(quiet);
}

/// Bursts of two connections that overlap are one admission: jobs that
/// settled wait for the burst still open beside them.
#[test]
fn overlapping_bursts_of_two_connections_are_one_cohort() {
    let dir = small_store("two-bursts");
    let server = Server::start(daemon_config(&dir, "two-bursts", 5_000)).unwrap();
    let socket = server.socket_path().unwrap().to_path_buf();
    let submitted = std::sync::Barrier::new(2);
    let reports: Vec<_> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect_unix(&socket).unwrap();
                    let ids: Vec<_> = (0..4).map(|_| client.submit(&WCC).unwrap()).collect();
                    submitted.wait();
                    ids.into_iter().map(|id| client.wait(id).unwrap()).collect::<Vec<_>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(reports.len(), 8);
    assert!(reports.iter().all(|r| r.submit_ns.to_bits() == reports[0].submit_ns.to_bits()));
    let stats = server.stats();
    assert_eq!((stats.rounds, stats.rounds_capped), (1, 0));
}

/// The accept loops block instead of polling every 20 ms: a client that
/// connects a moment after `Server::start` — past the look a polling
/// loop would take as its thread starts — is answered at once, on both
/// transports. (Best of five: one scheduler hiccup must not fail this.)
#[test]
fn the_first_request_does_not_wait_out_an_accept_poll() {
    let dir = small_store("first-health");
    let mut best = [Duration::MAX; 2];
    for trial in 0..5 {
        let mut config = daemon_config(&dir, &format!("first-health-{trial}"), 5);
        config.tcp_addr = Some("127.0.0.1:0".to_string());
        let server = Server::start(config).unwrap();
        std::thread::sleep(Duration::from_millis(3));
        let begun = Instant::now();
        Client::connect_unix(server.socket_path().unwrap()).unwrap().health().unwrap();
        best[0] = best[0].min(begun.elapsed());
        let begun = Instant::now();
        Client::connect_tcp(server.tcp_addr().unwrap()).unwrap().health().unwrap();
        best[1] = best[1].min(begun.elapsed());
        server.shutdown();
    }
    let limit = Duration::from_millis(10);
    assert!(best[0] < limit && best[1] < limit, "unix {:?}, tcp {:?}", best[0], best[1]);
}

/// Listeners nobody ever connected to are blocked in `accept`; shutdown
/// — through the handle, through a client's verb and `join`, or by
/// dropping the handle — must reach them. A listener that missed its
/// wake-up would hang the join: the watchdog turns that into a failure.
#[test]
fn idle_listeners_stop_promptly_on_both_transports() {
    let dir = small_store("idle-listeners");
    let (done, watchdog) = std::sync::mpsc::channel();
    let scenario_dir = dir.to_path_buf();
    let scenarios = std::thread::spawn(move || {
        let start = |name: &str| {
            let mut config = daemon_config(&scenario_dir, name, 5);
            config.tcp_addr = Some("127.0.0.1:0".to_string());
            Server::start(config).unwrap()
        };
        let mut slowest = Duration::ZERO;
        let mut timed = |stop: Box<dyn FnOnce()>| {
            let begun = Instant::now();
            stop();
            slowest = slowest.max(begun.elapsed());
        };

        let server = start("idle-shutdown");
        let socket = server.socket_path().unwrap().to_path_buf();
        timed(Box::new(move || server.shutdown()));
        assert!(!socket.exists(), "socket file removed");

        // The unix listener has served one client; the TCP one none.
        let server = start("idle-join");
        let mut client = Client::connect_unix(server.socket_path().unwrap()).unwrap();
        client.shutdown_server().unwrap();
        timed(Box::new(move || server.join()));

        let server = start("idle-drop");
        timed(Box::new(move || drop(server)));
        done.send(slowest).ok();
    });
    let slowest = watchdog
        .recv_timeout(Duration::from_secs(30))
        .expect("a blocked listener never saw the shutdown");
    scenarios.join().unwrap();
    assert!(slowest < Duration::from_secs(2), "slowest stop took {slowest:?}");
}
