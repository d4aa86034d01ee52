//! Evolving-graph integration: the disk-resident delta store must serve
//! mutated graphs **bit-identically** to an in-memory run over the same
//! mutated edge list, and the daemon must rotate to newly published
//! generations between rounds so that every job sees exactly one
//! consistent generation.

mod common;

use common::store_dir;
use graphm::core::{GraphJob, JobReport, Scheme, SharingService, Submission};
use graphm::graph::delta::apply_delta_to_edge_list;
use graphm::graph::{generators, DeltaRecord, EdgeList, MemoryProfile};
use graphm::server::{Client, Server, ServerConfig};
use graphm::store::{CompactionPolicy, Convert, DeltaWriter, DiskGridSource};
use graphm::workloads::{immediate_arrivals, AlgoKind, JobSpec, Workbench};
use std::time::Duration;

/// A deterministic mutation batch that genuinely changes results: real
/// edges deleted (every copy), fresh edges inserted.
fn mutate(writer: &mut DeltaWriter, graph: &EdgeList) -> Vec<DeltaRecord> {
    let mut records = Vec::new();
    for e in graph.edges.iter().step_by(211).take(10) {
        writer.delete(e.src, e.dst).unwrap();
        records.push(DeltaRecord::delete(e.src, e.dst));
    }
    let nv = graph.num_vertices;
    for i in 0..25u32 {
        let (src, dst, w) = ((i * 37) % nv, (i * 101 + 5) % nv, 1.0);
        writer.insert(src, dst, w).unwrap();
        records.push(DeltaRecord::insert(src, dst, w));
    }
    records
}

fn assert_job_reports_identical(mem: &[JobReport], disk: &[JobReport], ctx: &str) {
    assert_eq!(mem.len(), disk.len(), "{ctx}: job counts");
    for (a, b) in mem.iter().zip(disk) {
        assert_eq!(a.id, b.id, "{ctx}: {}", a.name);
        assert_eq!(a.name, b.name, "{ctx}");
        assert_eq!(a.iterations, b.iterations, "{ctx}: {}", a.name);
        assert_eq!(a.instructions, b.instructions, "{ctx}: {}", a.name);
        assert_eq!(a.edges_processed, b.edges_processed, "{ctx}: {}", a.name);
        assert_eq!(a.submit_ns.to_bits(), b.submit_ns.to_bits(), "{ctx}: {}", a.name);
        assert_eq!(a.finish_ns.to_bits(), b.finish_ns.to_bits(), "{ctx}: {}", a.name);
        assert_eq!(a.values.len(), b.values.len(), "{ctx}: {}", a.name);
        for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {} vertex {i}: {x} vs {y}", a.name);
        }
    }
}

/// The acceptance criterion: a disk store mutated through `DeltaWriter`
/// and re-opened at the published generation replays the paper mix
/// bit-identically to an in-memory workbench over the same mutated edge
/// list — and keeps doing so after compaction folds the chain away.
#[test]
fn evolving_disk_run_matches_in_memory_mutated_run() {
    let g = generators::rmat(600, 5200, generators::RmatParams::GRAPH500, 51);
    let dir = store_dir("bitident");
    Convert::grid(4).write(&g, &dir).unwrap();

    let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
    let records = mutate(&mut writer, &g);
    assert_eq!(writer.publish().unwrap(), 1);

    let mut mutated = g.clone();
    apply_delta_to_edge_list(&mut mutated, &records);
    assert_ne!(mutated.edges.len(), g.edges.len(), "mutations must change the graph");

    let wb_mem = Workbench::from_graph(mutated.clone(), 4, MemoryProfile::TEST);
    let wb_disk = Workbench::from_disk(&dir, MemoryProfile::TEST).unwrap();
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
    assert_eq!(writer.compact().unwrap(), 2);
    assert_eq!(writer.delta_bytes(), 0);
    let wb_compacted = Workbench::from_disk(&dir, MemoryProfile::TEST).unwrap();
    let compacted = DiskGridSource::open_shared(&dir).unwrap();
    assert_eq!(compacted.generation(), 2, "fresh handle resolves the compacted generation");
    assert_eq!(compacted.delta_stats().delta_bytes, 0);
    drop(compacted);
    let mem = wb_mem.run(Scheme::Shared, &specs, &arrivals);
    let disk = wb_compacted.run(Scheme::Shared, &specs, &arrivals);
    assert_job_reports_identical(&mem.jobs, &disk.jobs, "Shared post-compaction");

    std::fs::remove_dir_all(&dir).ok();
}

/// The simulator's service pins the generation of a shared handle from
/// construction to drop: a publish adopted by that handle while the
/// service lives is only staged, the service's jobs stream generation 0
/// — bit-identical to a from-scratch run of the unmutated graph — and
/// dropping the service lets the handle adopt generation 1.
#[test]
fn sharing_service_pins_its_generation_until_dropped() {
    let g = generators::rmat(600, 5200, generators::RmatParams::GRAPH500, 53);
    let dir = store_dir("service-pin");
    Convert::grid(4).write(&g, &dir).unwrap();
    let wb_gen0 = Workbench::from_graph(g.clone(), 4, MemoryProfile::TEST);
    let specs = wb_gen0.paper_mix(4, 23);
    let arrivals = immediate_arrivals(specs.len());
    let expected = wb_gen0.run(Scheme::Shared, &specs, &arrivals);

    let source = DiskGridSource::open_shared(&dir).unwrap();
    let degrees = std::sync::Arc::new(source.out_degrees());
    let jobs: Vec<Box<dyn GraphJob>> =
        specs.iter().map(|s| s.instantiate(g.num_vertices, &degrees)).collect();
    let state_bytes = jobs.iter().map(|j| j.state_bytes_per_vertex()).max().unwrap();
    let mut service = SharingService::new(source.as_ref(), wb_gen0.runner_config(), state_bytes);

    let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
    mutate(&mut writer, &g);
    assert_eq!(writer.publish().unwrap(), 1);
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

    drop(source);
    std::fs::remove_dir_all(&dir).ok();
}

/// Lets the daemon's runtime thread close the current round. Rotation
/// happens only *between* rounds, and a round stays open as long as
/// drains keep finding work — a submission racing the round's final
/// (empty) drain legitimately joins the old round and serves the old
/// generation. Tests that assert on rotation counters must not race
/// that window.
fn settle() {
    std::thread::sleep(Duration::from_millis(300));
}

fn rotation_spec() -> JobSpec {
    JobSpec { kind: AlgoKind::PageRank, damping: 0.85, root: 0, max_iters: 12 }
}

/// Reference values for `rotation_spec` over a given edge list, via the
/// deterministic in-memory Shared runtime.
fn reference_values(graph: &EdgeList) -> Vec<f64> {
    let wb = Workbench::from_graph(graph.clone(), 4, MemoryProfile::TEST);
    let report = wb.run(Scheme::Shared, &[rotation_spec()], &immediate_arrivals(1));
    report.jobs.into_iter().next().unwrap().values
}

fn assert_values_bits(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: lengths");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: vertex {i}: {x} vs {y}");
    }
}

/// Jobs submitted across a generation rotation each see exactly one
/// consistent generation: the pre-publish job answers from the base
/// graph, the post-publish job from the mutated graph, and the daemon's
/// stats report the rotation and the later compaction.
#[test]
fn daemon_rotates_between_rounds_wallclock() {
    let g = generators::rmat(500, 4200, generators::RmatParams::GRAPH500, 77);
    let dir = store_dir("daemon");
    Convert::grid(4).write(&g, &dir).unwrap();

    let mut config = ServerConfig::new(&dir);
    config.socket_path =
        Some(std::env::temp_dir().join(format!("graphm-delta-{}.sock", std::process::id())));
    config.profile = MemoryProfile::TEST;
    config.batch_window = Duration::from_millis(5);
    let server = Server::start(config).expect("server starts");
    let socket = server.socket_path().unwrap().to_path_buf();
    let mut client = Client::connect_unix(&socket).expect("connect");

    // Round 1: generation 0.
    let r1 = client.run(&rotation_spec()).expect("job 1");
    assert_values_bits(&r1.values, &reference_values(&g), "generation 0");
    let stats_gen0 = client.stats().expect("stats gen 0");
    settle();

    // Publish generation 1 while the daemon idles.
    let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
    let records = mutate(&mut writer, &g);
    assert_eq!(writer.publish().unwrap(), 1);
    let mut mutated = g.clone();
    apply_delta_to_edge_list(&mut mutated, &records);
    let mutated_reference = reference_values(&mutated);

    // Round 2: the daemon must have rotated between rounds; the job runs
    // entirely against generation 1 (fresh out-degrees included).
    let r2 = client.run(&rotation_spec()).expect("job 2");
    assert_values_bits(&r2.values, &mutated_reference, "generation 1");
    assert_ne!(
        r1.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        r2.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "the mutation must change PageRank"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stats.generation, 1, "daemon serves the published generation");
    assert_eq!(stats.generation_rotations, 1);
    assert_eq!(stats.delta_records, records.len() as u64);
    assert_eq!(stats.compactions, 0);

    // Compaction publishes generation 2; results stay identical.
    settle();
    assert_eq!(writer.compact().unwrap(), 2);
    let r3 = client.run(&rotation_spec()).expect("job 3");
    assert_values_bits(&r3.values, &mutated_reference, "generation 2 (compacted)");
    let stats = client.stats().expect("stats after compaction");
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.generation_rotations, 2);
    assert_eq!(stats.delta_bytes, 0, "compaction folded the chain");
    assert_eq!(stats.compactions, 1);
    assert_eq!(stats.jobs_completed, 3);
    // Daemon-wide counters stay cumulative across rotation rebuilds —
    // they must never move backwards.
    assert!(
        stats.partition_loads > stats_gen0.partition_loads,
        "partition_loads is cumulative ({} -> {})",
        stats_gen0.partition_loads,
        stats.partition_loads
    );

    client.shutdown_server().expect("shutdown");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    // Jobs long enough (milliseconds) that four closed loops overlap all
    // the time: the runtime is never idle.
    let g = generators::rmat(2000, 40_000, generators::RmatParams::GRAPH500, 79);
    let dir = store_dir("busy");
    Convert::grid(4).write(&g, &dir).unwrap();

    let mut config = ServerConfig::new(&dir);
    config.socket_path =
        Some(std::env::temp_dir().join(format!("graphm-delta-busy-{}.sock", std::process::id())));
    config.profile = MemoryProfile::TEST;
    config.batch_window = Duration::from_millis(5);
    let server = Server::start(config).expect("server starts");
    let socket = server.socket_path().unwrap().to_path_buf();

    let (stop, served) = (AtomicBool::new(false), AtomicUsize::new(0));
    let records = std::thread::scope(|scope| {
        for client in 0..4 {
            let (socket, stop, served) = (&socket, &stop, &served);
            scope.spawn(move || {
                // Different lengths, so the loops cannot fall into step
                // and leave a gap when they all finish together.
                let spec = JobSpec { max_iters: 5 + 3 * client, ..rotation_spec() };
                let mut client = Client::connect_unix(socket).expect("connect");
                while !stop.load(Ordering::SeqCst) {
                    let report = client.run(&spec).expect("closed-loop job");
                    assert!(report.error.is_none());
                    served.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let until = |what: &str, reached: &dyn Fn() -> bool| {
            while !reached() {
                if std::time::Instant::now() > deadline {
                    stop.store(true, Ordering::SeqCst); // or the scope never joins
                    panic!("timed out waiting for {what}");
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        until("the loops to be running", &|| served.load(Ordering::SeqCst) >= 8);

        let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
        let records = mutate(&mut writer, &g);
        assert_eq!(writer.publish().unwrap(), 1);
        let at_publish = served.load(Ordering::SeqCst);
        until("the busy daemon to adopt generation 1", &|| server.stats().generation == 1);
        let before = served.load(Ordering::SeqCst);
        // Staleness is bounded by what was in flight: at most four jobs
        // were, and at most four reports were still on their way to a
        // counter. Waiting for an idle moment instead serves hundreds.
        assert!(before - at_publish <= 16, "{} jobs served stale", before - at_publish);
        until("the loops to be served on generation 1", &|| {
            served.load(Ordering::SeqCst) >= before + 4
        });
        stop.store(true, Ordering::SeqCst);
        records
    });
    // Alone, so that the in-memory reference of one job is its reference
    // (co-scheduled jobs may legitimately perturb PageRank's last bits).
    let mut mutated = g.clone();
    apply_delta_to_edge_list(&mut mutated, &records);
    let mut client = Client::connect_unix(&socket).expect("connect");
    let report = client.run(&rotation_spec()).expect("job after the rotation");
    assert_values_bits(&report.values, &reference_values(&mutated), "generation 1");
    let stats = server.stats();
    assert_eq!((stats.generation, stats.generation_rotations), (1, 1));
    assert_eq!(stats.jobs_failed, 0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
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
    let dir = store_dir("firstround");
    Convert::grid(3).write(&g, &dir).unwrap();

    let mut config = ServerConfig::new(&dir);
    config.socket_path =
        Some(std::env::temp_dir().join(format!("graphm-firstround-{}.sock", std::process::id())));
    config.profile = MemoryProfile::TEST;
    config.batch_window = Duration::from_millis(5);
    let server = Server::start(config).expect("server starts");
    let mut client = Client::connect_unix(server.socket_path().unwrap()).expect("connect");

    // Publish while the daemon idles — no job has ever run.
    let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
    let records = mutate(&mut writer, &g);
    assert_eq!(writer.publish().unwrap(), 1);
    let mut mutated = g.clone();
    apply_delta_to_edge_list(&mut mutated, &records);

    // The very first job must already run on generation 1.
    let r1 = client.run(&rotation_spec()).expect("job 1");
    assert_values_bits(&r1.values, &reference_values(&mutated), "first round, generation 1");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.generation, 1, "first round adopted the pre-round publish");
    assert_eq!(stats.generation_rotations, 1);

    client.shutdown_server().expect("shutdown");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// `--no-rotate` pins the daemon to its open-time generation even when
/// newer generations exist on disk.
#[test]
fn daemon_no_rotate_pins_open_time_generation() {
    let g = generators::rmat(300, 2400, generators::RmatParams::GRAPH500, 91);
    let dir = store_dir("norotate");
    Convert::grid(3).write(&g, &dir).unwrap();

    let mut config = ServerConfig::new(&dir);
    config.socket_path =
        Some(std::env::temp_dir().join(format!("graphm-norotate-{}.sock", std::process::id())));
    config.profile = MemoryProfile::TEST;
    config.batch_window = Duration::from_millis(5);
    config.auto_rotate = false;
    let server = Server::start(config).expect("server starts");
    let mut client = Client::connect_unix(server.socket_path().unwrap()).expect("connect");

    let r1 = client.run(&rotation_spec()).expect("job 1");
    settle();
    let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
    mutate(&mut writer, &g);
    writer.publish().unwrap();

    let r2 = client.run(&rotation_spec()).expect("job 2");
    assert_values_bits(&r2.values, &r1.values, "pinned daemon ignores the publish");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.generation, 0);
    assert_eq!(stats.generation_rotations, 0);

    client.shutdown_server().expect("shutdown");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
