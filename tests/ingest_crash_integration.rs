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

use common::history::{mutations, History, Op};
use common::{batch, converted, daemon_config, pagerank, read_merged, serve, EdgeBits, Store};
use graphm::graph::delta::apply_delta_to_edge_list;
use graphm::graph::{failpoint, generators, DeltaRecord, EdgeList, GraphError};
use graphm::server::Client;
use graphm::store::DeltaWriter;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The crash matrix. One clean traced publish enumerates every
/// fsync/rename boundary; each boundary then gets its own store, an
/// armed failpoint, a mid-publish "kill", a forced-takeover recovery and
/// a retirement, all checked by the history harness: the recovered store
/// is the pre- or the post-publish generation (the post one from the WAL
/// sync onward), and retirement sweeps the directory back to exactly the
/// live set.
#[test]
fn crash_matrix_recovers_pre_or_post_at_every_boundary() {
    let g = generators::rmat(300, 2600, generators::RmatParams::GRAPH500, 33);
    let staged = mutations(&batch(&g, 0));
    let mut clean = History::new("matrix-trace", &g, 3, false);
    clean.run(staged.clone());
    failpoint::record();
    clean.run([Op::Publish]);
    let mut trace = failpoint::trace();
    failpoint::reset();
    assert!(clean.model[0].edges != clean.model[1].edges, "the batch must change the graph");
    // The harness's own checks read the store after the publish.
    trace.retain(|point| !point.starts_with("read:"));

    // The publish path must expose all of its durability boundaries; a
    // new fsync/rename added later grows this trace (and the matrix)
    // automatically, but silently *losing* coverage is a bug.
    assert!(trace.len() >= 10, "suspiciously short boundary trace: {trace:?}");
    for required in ["wal.frame.written", "wal.synced", "current.renamed", "wal.reset.truncated"] {
        assert!(trace.iter().any(|p| p == required), "{required} missing from {trace:?}");
    }
    for (i, point) in trace.iter().enumerate() {
        // Arm the i-th crossing: skip as many earlier crossings of the
        // same point as the clean trace saw before index i.
        let skip = trace[..i].iter().filter(|p| *p == point).count();
        let crash = [Op::Crash(point.clone(), skip), Op::Publish, Op::Reopen, Op::Retire];
        History::new(&format!("matrix-{i}"), &g, 3, false).run(staged.clone()).run(crash);
    }
}

/// A crash can also lose WAL bytes that were written but never synced.
/// Simulate it by truncating the log mid-frame after a crash at the
/// frame-write boundary: replay must stop at the clean prefix (here, the
/// empty log) and roll the batch back to the pre-publish generation —
/// after which the same batch publishes again bit-identically (the
/// harness holds both to a conversion of the same model).
#[test]
fn torn_wal_tail_rolls_back_then_republished_batch_is_identical() {
    let g = generators::rmat(300, 2600, generators::RmatParams::GRAPH500, 33);
    let staged = mutations(&batch(&g, 0));
    // Chop progressively more of the torn frame away: down to one byte
    // past the header, and down to the bare header.
    for keep_past_header in [1u64, 0] {
        let mut h = History::new(&format!("torn-{keep_past_header}"), &g, 3, false);
        h.run(staged.clone()).run([Op::Crash("wal.frame.written".into(), 0), Op::Publish]);
        // The unsynced tail evaporates with the "power loss".
        let wal = std::fs::OpenOptions::new().write(true).open(h.primary.join("wal.log")).unwrap();
        let torn_len = graphm::store::wal::WAL_MAGIC.len() as u64 + keep_past_header;
        assert!(wal.metadata().unwrap().len() > torn_len);
        wal.set_len(torn_len).unwrap();
        h.run([Op::Reopen]);
        assert_eq!(h.generation(), 0, "no durable frame ⇒ the batch rolls back entirely");
        h.run(staged.clone()).run([Op::Publish]);
        assert_eq!(h.generation(), 1);
    }
}

/// Two-writer race: the store admits exactly one live writer, and a
/// writer whose lease was taken over fails its next flip with a typed
/// fencing error instead of silently clobbering the new epoch's work.
#[test]
fn second_writer_is_rejected_and_stale_writer_is_fenced() {
    let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 9);
    let mut h = History::new("race", &g, 2, false);
    assert_eq!(h.writer().lease_epoch(), 1);
    let held = |dir: &std::path::Path| DeltaWriter::open(dir).err().expect("the lease is held");
    assert!(matches!(held(&h.primary), GraphError::LeaseHeld { .. }));

    // An operator forces a takeover (dead-process recovery path): the
    // usurper gets a bumped epoch, and the original becomes a zombie that
    // may still buffer but can never flip CURRENT.
    h.run([Op::Reopen]);
    assert_eq!(h.writer().lease_epoch(), 2);
    let zombie = h.zombie.as_mut().unwrap();
    zombie.insert(0, 1, 1.0).unwrap();
    let fenced = zombie.publish().expect_err("fenced writer must not publish");
    assert!(
        matches!(fenced, GraphError::EpochFenced { .. } | GraphError::LeaseLost { .. }),
        "wrong error: {fenced}"
    );

    // The epoch holder proceeds normally.
    h.run([Op::Insert(1, 2, 1.0), Op::Publish]);
    assert_eq!(h.generation(), 1);
    // Dropping the fenced writer must not release the usurper's lease.
    h.zombie = None;
    assert!(matches!(held(&h.primary), GraphError::LeaseHeld { .. }));
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

/// Concurrent daemon ingest: N client threads group-commit interleaved
/// insert/delete batches while PageRank jobs run. The final merged store
/// must equal a serial replay of the committed batches in generation
/// order, and every snapshot a concurrent reader took mid-stream must be
/// bit-identical to some published generation — never a torn mix.
#[test]
fn concurrent_daemon_ingest_matches_serial_reference() {
    let g = generators::rmat(NV, 3600, generators::RmatParams::GRAPH500, 63);
    let dir = Store::convert("daemon", &g, 4);
    let mut config = daemon_config(&dir, "daemon", 5);
    config.enable_ingest = true;
    let (server, mut client) = serve(config);
    let socket = server.socket_path().unwrap().to_path_buf();

    // A concurrent reader snapshotting the store while commits land.
    let done = Arc::new(AtomicBool::new(false));
    let snapshot_thread = {
        let (dir, done) = (dir.to_path_buf(), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut snaps: Vec<(u64, Vec<EdgeBits>)> = Vec::new();
            while !done.load(Ordering::Relaxed) {
                snaps.push(read_merged(&dir));
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
    let mid = client.run(&pagerank(8)).expect("job during ingest");
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
    client.run(&pagerank(8)).expect("job after ingest");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.generation, max_gen, "daemon rotated to the last commit");
    assert_eq!(stats.ingest_commits, (THREADS * COMMITS) as u64);
    assert!(stats.ingest_groups >= 1 && stats.ingest_groups <= stats.ingest_commits);
    let total_records: u64 = logs.iter().flat_map(|l| l.iter().map(|(_, b)| b.len() as u64)).sum();
    assert_eq!(stats.delta_wal_records, total_records);
    assert!(stats.delta_wal_syncs >= 1 && stats.delta_wal_syncs <= stats.delta_wal_batches);
    assert_eq!(stats.lease_held, 1);
    assert!(stats.lease_epoch >= 1);
    drop((client, server));

    // Serial reference: apply the batches generation by generation, and
    // convert each result from scratch. Within one generation (one commit
    // group) the ticket order is not observable, but the threads'
    // disjoint src ranges make the batches commute, so any fixed order
    // reproduces the group's result.
    let mut by_gen: HashMap<u64, Vec<(usize, &Vec<DeltaRecord>)>> = HashMap::new();
    for (t, log) in logs.iter().enumerate() {
        for (gen, batch) in log {
            by_gen.entry(*gen).or_default().push((t, batch));
        }
    }
    let mut reference = g.clone();
    let mut state_at = vec![converted(&reference, 4)];
    for gen in 1..=max_gen {
        let mut group = by_gen.remove(&gen).unwrap_or_default();
        group.sort_by_key(|(t, _)| *t);
        assert!(!group.is_empty(), "generation {gen} published without a commit");
        for (_, batch) in group {
            apply_delta_to_edge_list(&mut reference, batch);
        }
        state_at.push(converted(&reference, 4));
    }

    // The final merged store, and every concurrent snapshot, is — in
    // partition-major order, bit for bit — the from-scratch conversion of
    // the serial replay at the generation it resolved: no torn reads
    // across a flip.
    let last = read_merged(&dir);
    assert_eq!(last.0, max_gen);
    assert!(!snapshots.is_empty());
    for (i, (gen, edges)) in snapshots.iter().chain([&last]).enumerate() {
        let expected = state_at
            .get(*gen as usize)
            .unwrap_or_else(|| panic!("snapshot {i} saw unpublished generation {gen}"));
        assert!(edges == expected, "snapshot {i} at generation {gen} is torn");
    }
}
