//! What serving by cohorts promises a wallclock-mode client: a job leaves
//! when it converges — a short job admitted beside a long one is answered
//! first, with the bits of its solo run — and `submit_ns` names the
//! admission group. Plus what the blocking accept loops promise everyone:
//! the first request is answered without waiting out a poll, and idle
//! listeners stop the moment shutdown is requested.

use graphm::core::{PartitionSource, WallClockConfig, WallClockExecutor};
use graphm::graph::{generators, MemoryProfile};
use graphm::server::{Client, ExecutionMode, JobState, Server, ServerConfig};
use graphm::store::{Convert, DiskGridSource};
use graphm::workloads::{AlgoKind, JobSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn store_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("graphm-server-cohorts-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn config(dir: &std::path::Path, name: &str, batch_ms: u64) -> ServerConfig {
    let mut config = ServerConfig::new(dir);
    config.socket_path = Some(
        std::env::temp_dir().join(format!("graphm-cohorts-{name}-{}.sock", std::process::id())),
    );
    config.profile = MemoryProfile::TEST;
    config.batch_window = Duration::from_millis(batch_ms);
    config.mode = ExecutionMode::Wallclock;
    config
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A one-sweep WCC submitted while a thirty-sweep PageRank is in flight
/// is admitted at once, retires first, and reports exactly what it
/// reports when run alone.
#[test]
fn a_short_job_overtakes_a_long_one_and_equals_its_solo_run() {
    let g = generators::rmat(8_000, 200_000, generators::RmatParams::GRAPH500, 61);
    let dir = store_dir("overtake");
    Convert::grid(4).write(&g, &dir).unwrap();
    let server = Server::start(config(&dir, "overtake", 5)).unwrap();
    let mut client = Client::connect_unix(server.socket_path().unwrap()).unwrap();

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
        assert_eq!(bits(&served.values), bits(&solo.jobs[0].values), "{}", served.name);
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Reports of one burst (one admission) share `submit_ns`; a later burst
/// has its own.
#[test]
fn one_burst_shares_submit_ns_and_the_next_has_its_own() {
    let g = generators::rmat(300, 2400, generators::RmatParams::GRAPH500, 67);
    let dir = store_dir("bursts");
    Convert::grid(2).write(&g, &dir).unwrap();
    // A generous window: the three sequential submissions of a burst land
    // in one drain (the `rounds` asserts turn a machine stall into a clear
    // diagnostic).
    let server = Server::start(config(&dir, "bursts", 500)).unwrap();
    let mut client = Client::connect_unix(server.socket_path().unwrap()).unwrap();
    let spec = JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 4 };

    let mut burst = |jobs: usize| -> Vec<u64> {
        let ids: Vec<_> = (0..jobs).map(|_| client.submit(&spec).unwrap()).collect();
        ids.into_iter().map(|id| client.wait(id).unwrap().submit_ns.to_bits()).collect()
    };
    let first = burst(3);
    assert_eq!(server.stats().rounds, 1, "burst split by a stall; rerun");
    let second = burst(2);
    assert_eq!(server.stats().rounds, 2, "burst split by a stall; rerun");
    assert!(first.iter().all(|&ns| ns == first[0]), "{first:?}");
    assert!(second.iter().all(|&ns| ns == second[0]), "{second:?}");
    assert_ne!(first[0], second[0]);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

fn small_store(name: &str) -> std::path::PathBuf {
    let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 71);
    let dir = store_dir(name);
    Convert::grid(2).write(&g, &dir).unwrap();
    dir
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
        let mut config = config(&dir, &format!("first-health-{trial}"), 5);
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
    std::fs::remove_dir_all(&dir).ok();
}

/// Listeners nobody ever connected to are blocked in `accept`; shutdown
/// — through the handle, through a client's verb and `join`, or by
/// dropping the handle — must reach them. A listener that missed its
/// wake-up would hang the join: the watchdog turns that into a failure.
#[test]
fn idle_listeners_stop_promptly_on_both_transports() {
    let dir = small_store("idle-listeners");
    let (done, watchdog) = std::sync::mpsc::channel();
    let scenario_dir = dir.clone();
    let scenarios = std::thread::spawn(move || {
        let start = |name: &str| {
            let mut config = config(&scenario_dir, name, 5);
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
    std::fs::remove_dir_all(&dir).ok();
}
