//! Evolving-graph integration: the disk-resident delta store must serve
//! mutated graphs **bit-identically** to an in-memory run over the same
//! mutated edge list, and the daemon must rotate to newly published
//! generations between rounds so that every job sees exactly one
//! consistent generation.

mod common;

use common::history::{mutations, History, Op};
use common::{assert_job_reports_identical, batch, daemon_config, pagerank, serve};
use graphm::core::{GraphJob, Scheme, SharingService, Submission};
use graphm::graph::{generators, MemoryProfile};
use graphm::server::Client;
use graphm::store::DiskGridSource;
use graphm::workloads::{immediate_arrivals, AlgoKind, JobSpec, Workbench};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// The acceptance criterion: a disk store mutated through `DeltaWriter`
/// and re-opened at the published generation replays the paper mix
/// bit-identically to an in-memory workbench over the same mutated edge
/// list — and keeps doing so after compaction folds the chain away and
/// retirement removes it (the history harness checks the store itself
/// after each of those steps).
#[test]
fn evolving_disk_run_matches_in_memory_mutated_run() {
    let g = generators::rmat(600, 5200, generators::RmatParams::GRAPH500, 51);
    let mut h = History::new("bitident", &g, 4, false);
    h.run(mutations(&batch(&g, 0))).run([Op::Publish]);
    let mutated = h.model[1].clone();
    assert_ne!(mutated.edges.len(), g.edges.len(), "mutations must change the graph");

    let wb_mem = Workbench::from_graph(mutated, 4, MemoryProfile::TEST);
    let wb_disk = Workbench::from_disk(&h.primary, MemoryProfile::TEST).unwrap();
    let specs = wb_mem.paper_mix(6, 19);
    assert!(specs.iter().any(|s| s.kind == AlgoKind::PageRank));
    let arrivals = immediate_arrivals(specs.len());

    for scheme in [Scheme::Sequential, Scheme::Concurrent, Scheme::Shared] {
        let mem = wb_mem.run(scheme, &specs, &arrivals);
        let disk = wb_disk.run(scheme, &specs, &arrivals);
        assert_job_reports_identical(&mem.jobs, &disk.jobs, &format!("{scheme:?} gen 1"));
    }

    // Compaction rewrites the base, drops the chain, and must not change
    // a single bit of any report. Drop the live workbench first so the
    // share registry cannot hand back its still-generation-1 handle —
    // the post-compaction run must read the folded gen-2 base segments.
    drop(wb_disk);
    h.run([Op::Compact, Op::Retire]);
    assert_eq!(h.writer().delta_bytes(), 0);
    let wb_compacted = Workbench::from_disk(&h.primary, MemoryProfile::TEST).unwrap();
    let compacted = DiskGridSource::open_shared(&h.primary).unwrap();
    assert_eq!(compacted.generation(), 2, "fresh handle resolves the compacted generation");
    assert_eq!(compacted.delta_stats().delta_bytes, 0);
    drop(compacted);
    let mem = wb_mem.run(Scheme::Shared, &specs, &arrivals);
    let disk = wb_compacted.run(Scheme::Shared, &specs, &arrivals);
    assert_job_reports_identical(&mem.jobs, &disk.jobs, "Shared post-compaction");
}

/// The simulator's service pins the generation of a shared handle from
/// construction to drop: a publish adopted by that handle while the
/// service lives is only staged, the service's jobs stream generation 0
/// — bit-identical to a from-scratch run of the unmutated graph — and
/// dropping the service lets the handle adopt generation 1.
#[test]
fn sharing_service_pins_its_generation_until_dropped() {
    let g = generators::rmat(600, 5200, generators::RmatParams::GRAPH500, 53);
    let mut h = History::new("service-pin", &g, 4, false);
    let wb_gen0 = Workbench::from_graph(g.clone(), 4, MemoryProfile::TEST);
    let specs = wb_gen0.paper_mix(4, 23);
    let arrivals = immediate_arrivals(specs.len());
    let expected = wb_gen0.run(Scheme::Shared, &specs, &arrivals);

    let source = DiskGridSource::open_shared(&h.primary).unwrap();
    let degrees = std::sync::Arc::new(source.out_degrees());
    let jobs: Vec<Box<dyn GraphJob>> =
        specs.iter().map(|s| s.instantiate(g.num_vertices, &degrees)).collect();
    let state_bytes = jobs.iter().map(|j| j.state_bytes_per_vertex()).max().unwrap();
    let mut service = SharingService::new(source.as_ref(), wb_gen0.runner_config(), state_bytes);

    h.run(mutations(&batch(&g, 0))).run([Op::Publish]);
    assert!(source.refresh_generation().unwrap(), "the handle sees the publish");
    assert_eq!((source.generation(), source.staged_generation()), (0, Some(1)), "staged only");

    for job in jobs {
        service.enqueue(Submission::immediate(job));
    }
    service.run_until_idle();
    assert_eq!(source.staged_generation(), Some(1), "still pinned once idle");
    let served = service.into_run_report();
    assert_job_reports_identical(&expected.jobs, &served.jobs, "service over generation 0");
    assert_eq!((source.generation(), source.staged_generation()), (1, None), "adopted at drop");
}

/// Jobs submitted across a generation rotation each see exactly one
/// consistent generation: the pre-publish job answers from the base
/// graph, the post-publish job from the mutated graph (the harness holds
/// each `Submit` to a solo run over the model at the daemon's
/// generation), and the daemon's stats report the rotation and the later
/// compaction.
#[test]
fn daemon_rotates_between_rounds_wallclock() {
    let g = generators::rmat(500, 4200, generators::RmatParams::GRAPH500, 77);
    let mut h = History::new("daemon", &g, 4, false);
    h.run([Op::Submit(pagerank(12))]);
    let stats_gen0 = h.stats();

    // Publish generation 1 while the daemon idles. The next job must run
    // entirely against it (fresh out-degrees included): the daemon
    // rotated between rounds.
    let records = batch(&g, 0);
    h.run(mutations(&records)).run([Op::Publish, Op::Submit(pagerank(12))]);
    assert_ne!(h.reports[0].values, h.reports[1].values, "the mutation changes PageRank");
    let stats = h.stats();
    assert_eq!((stats.generation, stats.generation_rotations, stats.compactions), (1, 1, 0));
    assert_eq!(stats.delta_records, records.len() as u64);

    // Compaction publishes generation 2; results stay identical.
    h.run([Op::Compact, Op::Submit(pagerank(12))]);
    let stats = h.stats();
    assert_eq!((stats.generation, stats.generation_rotations), (2, 2));
    assert_eq!(stats.delta_bytes, 0, "compaction folded the chain");
    assert_eq!((stats.compactions, stats.jobs_completed), (1, 3));
    // Daemon-wide counters stay cumulative across rotation rebuilds —
    // they must never move backwards.
    assert!(
        stats.partition_loads > stats_gen0.partition_loads,
        "partition_loads is cumulative ({} -> {})",
        stats_gen0.partition_loads,
        stats.partition_loads
    );
}

/// Four clients in closed loops never let the runtime go idle, so a
/// rotation that waited for "between rounds" would never come. The loop
/// polls the store while it is busy and stops admitting once a newer
/// generation is waiting: what is in flight drains, the generation is
/// adopted — `stats.generation` moves with the loops still running — and
/// a job submitted afterwards runs on it, bit-identical to a from-scratch
/// conversion of the mutated graph.
#[test]
fn busy_daemon_adopts_a_publish_wallclock() {
    // Jobs long enough (milliseconds) that four closed loops overlap all
    // the time: the runtime is never idle.
    let g = generators::rmat(2000, 40_000, generators::RmatParams::GRAPH500, 79);
    let mut h = History::new("busy", &g, 4, false);
    h.daemon = Some(serve(daemon_config(&h.primary, "delta-busy", 5)));
    let socket = h.daemon.as_ref().unwrap().0.socket_path().unwrap().to_path_buf();

    /// Stops the closed loops however the scope's body ends — a failed
    /// check included — or the scope would never join them.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let (stop, served) = (AtomicBool::new(false), AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for client in 0..4 {
            let (socket, stop, served) = (&socket, &stop, &served);
            scope.spawn(move || {
                // Different lengths, so the loops cannot fall into step
                // and leave a gap when they all finish together.
                let spec = JobSpec { max_iters: 5 + 3 * client, ..pagerank(12) };
                let mut client = Client::connect_unix(socket).expect("connect");
                while !stop.load(Ordering::SeqCst) {
                    let report = client.run(&spec).expect("closed-loop job");
                    assert!(report.error.is_none());
                    served.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let _stop = Stop(&stop);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let until = |what: &str, reached: &dyn Fn() -> bool| {
            while !reached() {
                assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        until("the loops to be running", &|| served.load(Ordering::SeqCst) >= 8);

        h.run(mutations(&batch(&g, 0))).run([Op::Publish]);
        let at_publish = served.load(Ordering::SeqCst);
        until("the busy daemon to adopt generation 1", &|| h.stats().generation == 1);
        let before = served.load(Ordering::SeqCst);
        // Staleness is bounded by what was in flight: at most four jobs
        // were, and at most four reports were still on their way to a
        // counter. Waiting for an idle moment instead serves hundreds.
        assert!(before - at_publish <= 16, "{} jobs served stale", before - at_publish);
        until("the loops to be served on generation 1", &|| {
            served.load(Ordering::SeqCst) >= before + 4
        });
    });
    // Alone, so that the in-memory reference of one job is its reference
    // (co-scheduled jobs may legitimately perturb PageRank's last bits).
    h.run([Op::Submit(pagerank(12))]);
    let stats = h.stats();
    assert_eq!((stats.generation, stats.generation_rotations, stats.jobs_failed), (1, 1, 0));
}

/// A generation published *before the daemon's first job round* is
/// served by that first round. Regression test: the idle service's
/// construction-time generation pin used to make the round-start
/// refresh stage (not adopt) the rotation, so the first round silently
/// served the startup generation while `stats.generation` flipped to
/// the new one mid-round.
#[test]
fn daemon_first_round_serves_pre_round_publish() {
    let g = generators::rmat(400, 3200, generators::RmatParams::GRAPH500, 83);
    let mut h = History::new("firstround", &g, 3, false);
    h.daemon = Some(serve(daemon_config(&h.primary, "firstround", 5)));
    // Publish while the daemon idles — no job has ever run. The very
    // first job must already run on generation 1.
    h.run(mutations(&batch(&g, 0))).run([Op::Publish, Op::Submit(pagerank(12))]);
    let stats = h.stats();
    assert_eq!(stats.generation, 1, "first round adopted the pre-round publish");
    assert_eq!(stats.generation_rotations, 1);
}

/// `--no-rotate` pins the daemon to its open-time generation even when
/// newer generations exist on disk.
#[test]
fn daemon_no_rotate_pins_open_time_generation() {
    let g = generators::rmat(300, 2400, generators::RmatParams::GRAPH500, 91);
    let mut h = History::new("norotate", &g, 3, false);
    let mut config = daemon_config(&h.primary, "norotate", 5);
    config.auto_rotate = false;
    h.daemon = Some(serve(config));
    // Both jobs answer from generation 0, which the harness checks.
    h.run([Op::Submit(pagerank(12))]).run(mutations(&batch(&g, 0)));
    h.run([Op::Publish, Op::Submit(pagerank(12))]);
    let stats = h.stats();
    assert_eq!((stats.generation, stats.generation_rotations), (0, 0));
}
