//! Durable-ingest crash and race harness.
//!
//! Three families of tests over the WAL + writer-lease publish path:
//!
//! 1. **Crash matrix** — a clean publish records the ordered failpoint
//!    trace of every fsync/rename boundary it crosses; each boundary is
//!    then re-run with a crash injected exactly there, the writer is
//!    abandoned mid-flight, and the reopened store must read bit-identical
//!    to either the pre-publish or the post-publish generation — never
//!    anything in between. Boundaries strictly after the WAL sync must
//!    recover *forward* (the logged batch replays into the identical
//!    generation).
//! 2. **Writer races** — a second `DeltaWriter` on a live store fails with
//!    a typed `LeaseHeld`; a fenced writer whose lease was taken over gets
//!    `EpochFenced`/`LeaseLost`, never a silent lost update.
//! 3. **Concurrent daemon ingest** — N client threads group-commit
//!    interleaved insert/delete batches through one ingest-enabled daemon
//!    while jobs run; the final merged store equals a serial reference
//!    replay, and every mid-stream reader snapshot is bit-identical to
//!    some published generation.

mod common;

use common::store_dir;
use graphm::core::PartitionSource;
use graphm::graph::delta::{apply_delta_to_edge_list, gen_manifest_file_name};
use graphm::graph::{failpoint, generators, DeltaRecord, EdgeList, GraphError, MemoryProfile};
use graphm::server::{Client, Server, ServerConfig};
use graphm::store::{CompactionPolicy, Convert, DeltaWriter, DiskGridSource, LeaseConfig};
use graphm::workloads::{AlgoKind, JobSpec};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An edge as a bit-comparable triple (`weight` by its raw bits, so two
/// stores agree only when every byte of the merged view agrees).
type EdgeBits = (u32, u32, u32);

/// The store's merged view in partition-major order — the exact edge
/// stream a reader consumes. Equal vectors ⇒ bit-identical generations.
fn read_merged(dir: &Path) -> (u64, Vec<EdgeBits>) {
    let src = DiskGridSource::open(dir).expect("open store for inspection");
    let mut edges = Vec::new();
    for pid in 0..src.num_partitions() {
        edges.extend(src.load(pid).iter().map(|e| (e.src, e.dst, e.weight.to_bits())));
    }
    (src.generation(), edges)
}

/// Same view as an order-insensitive multiset (for comparisons against an
/// `EdgeList` reference, whose edge order is not partition-major).
fn sorted_multiset(edges: &[EdgeBits]) -> Vec<EdgeBits> {
    let mut v = edges.to_vec();
    v.sort_unstable();
    v
}

fn edge_list_multiset(g: &EdgeList) -> Vec<EdgeBits> {
    let mut v: Vec<EdgeBits> = g.edges.iter().map(|e| (e.src, e.dst, e.weight.to_bits())).collect();
    v.sort_unstable();
    v
}

/// The deterministic mutation batch every crash-matrix scenario publishes:
/// real base edges deleted, fresh edges inserted across all partitions.
fn crash_batch(g: &EdgeList) -> Vec<DeltaRecord> {
    let mut records = Vec::new();
    for e in g.edges.iter().step_by(173).take(8) {
        records.push(DeltaRecord::delete(e.src, e.dst));
    }
    let nv = g.num_vertices;
    for i in 0..30u32 {
        records.push(DeltaRecord::insert((i * 29) % nv, (i * 83 + 11) % nv, 2.5));
    }
    records
}

fn stage(writer: &mut DeltaWriter, records: &[DeltaRecord]) {
    for r in records {
        if r.op == graphm::graph::delta::DELTA_OP_DELETE {
            writer.delete(r.src, r.dst).unwrap();
        } else {
            writer.insert(r.src, r.dst, r.weight).unwrap();
        }
    }
}

/// After `retire_older_generations`, the directory must hold *only* live
/// infrastructure, the generation-0 base, and files of the current
/// generation — a crash plus recovery must never strand an orphan.
fn assert_no_orphans(dir: &Path, generation: u64) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name();
        let name = name.to_str().unwrap().to_string();
        let base_seg = name.starts_with("part-") && name.ends_with(".seg") && !name.contains("-g");
        let current_delta = generation > 0
            && name.starts_with(&format!("delta-{generation:06}-"))
            && name.ends_with(".dseg");
        let current_manifest = generation > 0 && name == gen_manifest_file_name(generation);
        let allowed = matches!(name.as_str(), "manifest.bin" | "CURRENT" | "wal.log" | "EPOCH")
            || base_seg
            || current_delta
            || current_manifest;
        assert!(allowed, "orphan file {name:?} survived retirement at generation {generation}");
    }
}

/// The crash matrix. One clean traced publish enumerates every
/// fsync/rename boundary; each boundary then gets its own store copy, an
/// armed failpoint, a mid-publish "kill", and a forced-takeover recovery
/// whose merged view must be bit-identical to the pre- or post-publish
/// generation. From the WAL sync onward the direction is pinned: the
/// batch is durable, so recovery must land on the post-publish state.
#[test]
fn crash_matrix_recovers_pre_or_post_at_every_boundary() {
    let g = generators::rmat(300, 2600, generators::RmatParams::GRAPH500, 33);
    let records = crash_batch(&g);

    // Pre-publish reference: the untouched generation-0 base.
    let pre_dir = store_dir("matrix-pre");
    Convert::grid(3).write(&g, &pre_dir).unwrap();
    let (pre_gen, pre_edges) = read_merged(&pre_dir);
    assert_eq!(pre_gen, 0);
    std::fs::remove_dir_all(&pre_dir).ok();

    // Post-publish reference + boundary enumeration from one clean run.
    let post_dir = store_dir("matrix-post");
    Convert::grid(3).write(&g, &post_dir).unwrap();
    let mut writer = DeltaWriter::open(&post_dir).unwrap().with_policy(CompactionPolicy::never());
    stage(&mut writer, &records);
    failpoint::reset();
    failpoint::record();
    assert_eq!(writer.publish().unwrap(), 1);
    let trace = failpoint::trace();
    failpoint::reset();
    drop(writer);
    let (post_gen, post_edges) = read_merged(&post_dir);
    assert_eq!(post_gen, 1);
    assert_ne!(pre_edges, post_edges, "the batch must change the merged view");
    std::fs::remove_dir_all(&post_dir).ok();

    // The publish path must expose all of its durability boundaries; a
    // new fsync/rename added later grows this trace (and the matrix)
    // automatically, but silently *losing* coverage is a bug.
    assert!(trace.len() >= 10, "suspiciously short boundary trace: {trace:?}");
    for required in ["wal.frame.written", "wal.synced", "current.renamed", "wal.reset.truncated"] {
        assert!(trace.iter().any(|p| p == required), "{required} missing from {trace:?}");
    }
    let wal_synced = trace.iter().position(|p| p == "wal.synced").unwrap();

    for (i, point) in trace.iter().enumerate() {
        // Arm the i-th crossing: skip as many earlier crossings of the
        // same point as the clean trace saw before index i.
        let skip = trace[..i].iter().filter(|p| *p == point).count();
        let dir = store_dir(&format!("matrix-{i}"));
        Convert::grid(3).write(&g, &dir).unwrap();
        let mut w = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
        stage(&mut w, &records);
        failpoint::reset();
        failpoint::arm(point, skip);
        let err = w.publish().expect_err("armed boundary must abort the publish");
        assert!(failpoint::is_injected(&err), "crossing {i} ({point}): real error {err}");
        failpoint::reset();
        // Abandon mid-flight: lease file and WAL stay exactly as a killed
        // process would leave them.
        w.crash();

        let recovered = DeltaWriter::open_with(&dir, LeaseConfig::force_takeover())
            .expect("recovery open after crash")
            .with_policy(CompactionPolicy::never());
        let (gen, merged) = read_merged(&dir);
        let is_pre = merged == pre_edges;
        let is_post = merged == post_edges;
        assert!(
            is_pre || is_post,
            "crossing {i} ({point}): recovered generation {gen} is neither the \
             pre- nor the post-publish state"
        );
        if i >= wal_synced {
            // The WAL frame is durable: recovery must replay it forward
            // into the bit-identical published generation.
            assert!(is_post, "crossing {i} ({point}): durable batch rolled back");
            assert_eq!(gen, 1, "crossing {i} ({point})");
        }
        // Whatever half-written files the crash left, retirement must
        // sweep the directory back to exactly the live set.
        recovered.retire_older_generations().unwrap();
        assert_no_orphans(&dir, gen);
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A crash can also lose WAL bytes that were written but never synced.
/// Simulate it by truncating the log mid-frame after a crash at the
/// frame-write boundary: replay must stop at the clean prefix (here, the
/// empty log) and roll the batch back to the pre-publish generation —
/// after which the same batch publishes again bit-identically.
#[test]
fn torn_wal_tail_rolls_back_then_republished_batch_is_identical() {
    let g = generators::rmat(300, 2600, generators::RmatParams::GRAPH500, 33);
    let records = crash_batch(&g);

    let post_dir = store_dir("torn-post");
    Convert::grid(3).write(&g, &post_dir).unwrap();
    let mut writer = DeltaWriter::open(&post_dir).unwrap().with_policy(CompactionPolicy::never());
    stage(&mut writer, &records);
    writer.publish().unwrap();
    drop(writer);
    let (_, post_edges) = read_merged(&post_dir);
    std::fs::remove_dir_all(&post_dir).ok();

    // Chop progressively more of the torn frame away: down to one byte
    // past the header, and down to the bare header.
    for keep_past_header in [1usize, 0] {
        let dir = store_dir(&format!("torn-{keep_past_header}"));
        Convert::grid(3).write(&g, &dir).unwrap();
        let mut w = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
        stage(&mut w, &records);
        failpoint::reset();
        failpoint::arm("wal.frame.written", 0);
        let err = w.publish().expect_err("armed frame write must abort");
        assert!(failpoint::is_injected(&err), "{err}");
        failpoint::reset();
        w.crash();

        // The unsynced tail evaporates with the "power loss".
        let wal_path = dir.join("wal.log");
        let header = graphm::store::wal::WAL_MAGIC.len() as u64;
        let torn_len = header + keep_past_header as u64;
        assert!(std::fs::metadata(&wal_path).unwrap().len() > torn_len);
        let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(torn_len).unwrap();
        drop(f);

        let mut recovered = DeltaWriter::open_with(&dir, LeaseConfig::force_takeover())
            .expect("recovery open after torn tail")
            .with_policy(CompactionPolicy::never());
        let (gen, merged) = read_merged(&dir);
        assert_eq!(gen, 0, "no durable frame ⇒ the batch rolls back entirely");
        assert_ne!(merged, post_edges);

        // The rolled-back batch, re-staged and published cleanly, lands
        // on the bit-identical generation the uncrashed run produced.
        stage(&mut recovered, &records);
        assert_eq!(recovered.publish().unwrap(), 1);
        let (_, republished) = read_merged(&dir);
        assert_eq!(republished, post_edges, "recovered publish must be deterministic");
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Two-writer race: the store admits exactly one live writer, and a
/// writer whose lease was taken over fails its next flip with a typed
/// fencing error instead of silently clobbering the new epoch's work.
#[test]
fn second_writer_is_rejected_and_stale_writer_is_fenced() {
    let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 9);
    let dir = store_dir("race");
    Convert::grid(2).write(&g, &dir).unwrap();

    let mut first = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
    assert_eq!(first.lease_epoch(), 1);

    // Satellite: a second writer on a live store is a typed error.
    let second = match DeltaWriter::open(&dir) {
        Ok(_) => panic!("second writer must be rejected while the lease is held"),
        Err(e) => e,
    };
    assert!(matches!(second, GraphError::LeaseHeld { .. }), "wrong error: {second}");

    // An operator forces a takeover (dead-process recovery path); the
    // usurper gets a bumped epoch.
    let mut usurper = DeltaWriter::open_with(&dir, LeaseConfig::force_takeover())
        .unwrap()
        .with_policy(CompactionPolicy::never());
    assert_eq!(usurper.lease_epoch(), 2);

    // The fenced original may still buffer, but can never flip CURRENT.
    first.insert(0, 1, 1.0).unwrap();
    let fenced = first.publish().expect_err("fenced writer must not publish");
    assert!(
        matches!(fenced, GraphError::EpochFenced { .. } | GraphError::LeaseLost { .. }),
        "wrong error: {fenced}"
    );

    // The epoch holder proceeds normally.
    usurper.insert(1, 2, 1.0).unwrap();
    assert_eq!(usurper.publish().unwrap(), 1);
    let (gen, _) = read_merged(&dir);
    assert_eq!(gen, 1);

    drop(first);
    // Dropping the fenced writer must not release the usurper's lease.
    let still_fenced = match DeltaWriter::open(&dir) {
        Ok(_) => panic!("usurper's lease must survive the fenced writer's drop"),
        Err(e) => e,
    };
    assert!(matches!(still_fenced, GraphError::LeaseHeld { .. }), "{still_fenced}");
    drop(usurper);
    std::fs::remove_dir_all(&dir).ok();
}

const NV: u32 = 400;
const THREADS: usize = 4;
const COMMITS: usize = 3;
/// Each ingest thread owns a disjoint source-vertex range, so batches
/// from different threads commute and any group-commit interleaving
/// yields the same final graph.
const SPAN: u32 = NV / THREADS as u32;

/// Thread `t`'s commit `c`: fresh inserts in its private src range, base
/// edges tombstoned, and (from the second commit on) one retraction of an
/// edge the thread itself inserted earlier.
fn thread_batch(g: &EdgeList, t: usize, c: usize) -> Vec<DeltaRecord> {
    let lo = t as u32 * SPAN;
    let mut ops = Vec::new();
    for k in 0..20u32 {
        let src = lo + (c as u32 * 20 + k) % SPAN;
        let dst = (src * 31 + k * 7 + 3) % NV;
        ops.push(DeltaRecord::insert(src, dst, (c + 1) as f32));
    }
    for e in g.edges.iter().filter(|e| e.src >= lo && e.src < lo + SPAN).step_by(97).take(2) {
        ops.push(DeltaRecord::delete(e.src, e.dst));
    }
    if c > 0 {
        let src = lo + ((c as u32 - 1) * 20) % SPAN;
        ops.push(DeltaRecord::delete(src, (src * 31 + 3) % NV));
    }
    ops
}

fn job_spec() -> JobSpec {
    JobSpec { kind: AlgoKind::PageRank, damping: 0.85, root: 0, max_iters: 8 }
}

/// Concurrent daemon ingest: N client threads group-commit interleaved
/// insert/delete batches while PageRank jobs run. The final merged store
/// must equal a serial replay of the committed batches in generation
/// order, and every snapshot a concurrent reader took mid-stream must be
/// bit-identical to some published generation — never a torn mix.
#[test]
fn concurrent_daemon_ingest_matches_serial_reference() {
    let g = generators::rmat(NV, 3600, generators::RmatParams::GRAPH500, 63);
    let dir = store_dir("daemon");
    Convert::grid(4).write(&g, &dir).unwrap();

    let mut config = ServerConfig::new(&dir);
    config.socket_path =
        Some(std::env::temp_dir().join(format!("graphm-ingest-{}.sock", std::process::id())));
    config.profile = MemoryProfile::TEST;
    config.batch_window = Duration::from_millis(5);
    config.enable_ingest = true;
    let server = Server::start(config).expect("ingest-enabled server starts");
    let socket = server.socket_path().unwrap().to_path_buf();

    // A concurrent reader snapshotting the store while commits land.
    let done = Arc::new(AtomicBool::new(false));
    let snapshot_thread = {
        let dir = dir.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut snaps: Vec<(u64, Vec<EdgeBits>)> = Vec::new();
            while !done.load(Ordering::Relaxed) {
                let (gen, edges) = read_merged(&dir);
                snaps.push((gen, sorted_multiset(&edges)));
                std::thread::sleep(Duration::from_millis(3));
            }
            snaps
        })
    };

    // N ingest threads, each its own connection, interleaved commits.
    let ingest_threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let socket = socket.clone();
            let g = g.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_unix(&socket).expect("ingest client");
                let mut log: Vec<(u64, Vec<DeltaRecord>)> = Vec::new();
                for c in 0..COMMITS {
                    let batch = thread_batch(&g, t, c);
                    assert_eq!(client.ingest(&batch).unwrap(), batch.len());
                    let (generation, records) = client.ingest_commit().unwrap();
                    assert!(records >= batch.len() as u64, "commit absorbs at least its own batch");
                    log.push((generation, batch));
                }
                log
            })
        })
        .collect();

    // Jobs share the daemon with the ingest threads.
    let mut client = Client::connect_unix(&socket).expect("job client");
    let mid = client.run(&job_spec()).expect("job during ingest");
    assert_eq!(mid.values.len(), NV as usize);

    let logs: Vec<Vec<(u64, Vec<DeltaRecord>)>> =
        ingest_threads.into_iter().map(|h| h.join().expect("ingest thread")).collect();
    done.store(true, Ordering::Relaxed);
    let snapshots = snapshot_thread.join().expect("snapshot thread");

    // Each thread's generations are strictly increasing: later commits
    // land in strictly later generations.
    for (t, log) in logs.iter().enumerate() {
        for pair in log.windows(2) {
            assert!(pair[0].0 < pair[1].0, "thread {t}: generations not increasing");
        }
    }
    let max_gen = logs.iter().flat_map(|l| l.iter().map(|(g, _)| *g)).max().unwrap();

    // A post-ingest job forces a round, after which the daemon must have
    // rotated to the newest published generation.
    std::thread::sleep(Duration::from_millis(300));
    client.run(&job_spec()).expect("job after ingest");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.generation, max_gen, "daemon rotated to the last commit");
    assert_eq!(stats.ingest_commits, (THREADS * COMMITS) as u64);
    assert!(stats.ingest_groups >= 1 && stats.ingest_groups <= stats.ingest_commits);
    let total_records: u64 = logs.iter().flat_map(|l| l.iter().map(|(_, b)| b.len() as u64)).sum();
    assert_eq!(stats.delta_wal_records, total_records);
    assert!(stats.delta_wal_syncs >= 1 && stats.delta_wal_syncs <= stats.delta_wal_batches);
    assert_eq!(stats.lease_held, 1);
    assert!(stats.lease_epoch >= 1);

    client.shutdown_server().expect("shutdown");
    server.join();

    // Serial reference: apply the batches generation by generation.
    // Within one generation (one commit group) the ticket order is not
    // observable, but the threads' disjoint src ranges make the batches
    // commute, so any fixed order reproduces the group's result.
    let mut by_gen: HashMap<u64, Vec<(usize, &Vec<DeltaRecord>)>> = HashMap::new();
    for (t, log) in logs.iter().enumerate() {
        for (gen, batch) in log {
            by_gen.entry(*gen).or_default().push((t, batch));
        }
    }
    let mut reference = g.clone();
    let mut state_at: HashMap<u64, Vec<EdgeBits>> = HashMap::new();
    state_at.insert(0, edge_list_multiset(&reference));
    for gen in 1..=max_gen {
        let mut group = by_gen.remove(&gen).unwrap_or_default();
        group.sort_by_key(|(t, _)| *t);
        assert!(!group.is_empty(), "generation {gen} published without a commit");
        for (_, batch) in group {
            apply_delta_to_edge_list(&mut reference, batch);
        }
        state_at.insert(gen, edge_list_multiset(&reference));
    }

    // Final merged store == serial reference.
    let (final_gen, final_edges) = read_merged(&dir);
    assert_eq!(final_gen, max_gen);
    assert_eq!(
        sorted_multiset(&final_edges),
        state_at[&max_gen],
        "final merged edges diverge from the serial replay"
    );

    // Every concurrent snapshot is bit-identical to the published state
    // of the generation it resolved — no torn reads across a flip.
    assert!(!snapshots.is_empty());
    for (i, (gen, edges)) in snapshots.iter().enumerate() {
        let expected = state_at
            .get(gen)
            .unwrap_or_else(|| panic!("snapshot {i} saw unpublished generation {gen}"));
        assert_eq!(edges, expected, "snapshot {i} at generation {gen} is torn");
    }

    std::fs::remove_dir_all(&dir).ok();
}
