//! Hot-standby replication harness.
//!
//! Five families of tests over the frame codec + applier + daemon stack:
//!
//! 1. **Stream bit-identity** — a follower replaying the primary's
//!    shipped frames (including an explicit compaction) through
//!    `ReplicaApplier` ends with byte-identical `CURRENT`, generation
//!    manifests, and delta segments; duplicates are idempotent and gaps
//!    are typed errors.
//! 2. **Chaos matrix** — one clean *replicated* publish (primary
//!    publish → frame ship → follower apply) records every
//!    fsync/rename/send boundary it crosses; each boundary is re-run
//!    with a crash injected exactly there, both sides are abandoned
//!    mid-flight, and after recovery + anti-entropy catch-up the
//!    follower must be bit-identical to the pre- or post-publish
//!    generation — never torn — and identical to the recovered primary.
//! 3. **Promotion and fencing** — a follower promotes through the epoch
//!    fence at `epoch + 1`, the ex-primary rejoins as a follower of the
//!    new primary, and the zombie ex-primary writer's next publish fails
//!    with a typed `EpochFenced`/`LeaseLost`.
//! 4. **Two-daemon failover** — a live primary (`--ingest`, TCP, auth)
//!    streams generations to a live follower daemon; reads on both are
//!    bit-identical, writes to the follower get `not_primary`, TCP
//!    without the shared token gets `unauthorized`, and after the
//!    primary dies the promoted follower serves writes at the bumped
//!    epoch.
//! 5. **Staleness bound** — a follower wedged behind `--max-replica-lag`
//!    rejects reads with a typed `stale_replica` and recovers once the
//!    tail catches up through the jittered reconnect path.
//!
//! Families 1–3 are op lists run by the history harness
//! (`tests/common/history.rs`), which checks both stores after every
//! step. `graph::failpoint` global arms are process-wide, so every test
//! that crosses `repl.apply` serializes on the shared failpoint lock:
//! plain tests take it shared, the global-arm staleness test alone.

mod common;

use common::history::{mutations, History, Op};
use common::{assert_served_identical, batch, daemon_config, failpoints_exclusive};
use common::{failpoints_shared, pagerank, poll_until, replicated_files, serve, Store};
use graphm::graph::delta::read_current_generation;
use graphm::graph::{failpoint, generators, GraphError};
use graphm::server::{Client, ClientError, Server};
use graphm::store::{read_generation_frame, ReplFrame};
use std::time::Duration;

/// 1. A follower replaying the primary's stream — three delta publishes
///    around an explicit compaction — converges to byte-identical
///    replicated state; resends are idempotent, gaps and generation 0 are
///    typed errors, and retirement on the primary leaves nothing stale,
///    crash orphans of a temp write included.
#[test]
fn replicated_stream_is_bit_identical_including_compaction() {
    let _guard = failpoints_shared();
    let g = generators::rmat(240, 2000, generators::RmatParams::GRAPH500, 17);
    let mut h = History::new("stream", &g, 3, true);
    // Primary: gen 1, 2 are delta publishes, gen 3 a compaction, gen 4
    // another delta publish on the folded base.
    for salt in [0, 1] {
        h.run(mutations(&batch(&g, salt))).run([Op::Publish]);
    }
    h.run([Op::Compact]).run(mutations(&batch(&g, 9))).run([Op::Publish]);
    assert_eq!(h.generation(), 4);

    // Generation 0 never ships as a frame: followers seed by copying.
    let epoch = h.writer().lease_epoch();
    assert!(read_generation_frame(&h.primary, 0, epoch).is_err());

    // Follower: apply the stream in order through the wire codec, then
    // a resend after a primary crash-recovery republish (a duplicate).
    h.run([Op::Ship(1), Op::Ship(2), Op::Ship(3), Op::Ship(4), Op::Apply]);
    h.run([Op::Ship(4), Op::Apply]);
    // Before retirement both sides hold every file, byte for byte.
    let follower = replicated_files(h.follower.as_deref().unwrap());
    assert_eq!(replicated_files(&h.primary), follower, "replicated bytes diverge");
    // What a crash between a temp write and its rename strands is stale.
    for orphan in ["CURRENT.tmp", "EPOCH.tmp"] {
        std::fs::write(h.primary.join(orphan), b"torn").unwrap();
    }
    h.run([Op::Retire]);
    let applier = h.applier();
    assert_eq!((applier.generation(), applier.frames_applied()), (4, 4));
    assert_eq!(applier.primary_epoch(), epoch);

    // A frame beyond have+1 is a typed gap, not a silent skip.
    let frame = read_generation_frame(&h.primary, 4, epoch).unwrap();
    let err = h.applier().apply(&ReplFrame { generation: 6, ..frame }).expect_err("a gap");
    assert!(format!("{err}").contains("replication gap"), "{err}");
    // A flipped magic byte is a typed `verify` error, never a panic.
    h.run([Op::FlipByte("manifest.bin".into(), 0)]);
}

/// 2. The chaos matrix over one *replicated* publish: primary publish →
///    frame ship → follower apply, with a crash injected at every
///    fsync/rename/send boundary the clean run crosses (both sides'
///    publish boundaries plus `repl.ship` and `repl.apply`). Both nodes
///    die there, reopen, and the follower catches up; the harness holds
///    each to the pre- or post-publish state (post from the primary's
///    WAL sync onward) and the follower to the primary, byte for byte.
///    The retired primary must also hold exactly the files of a clean
///    run, `CURRENT` and the generation manifest included, so recovery
///    cannot roll forward to a layout an uncrashed publish never writes.
#[test]
fn chaos_matrix_converges_follower_at_every_boundary() {
    let _guard = failpoints_shared();
    let g = generators::rmat(200, 1600, generators::RmatParams::GRAPH500, 41);
    let staged = mutations(&batch(&g, 3));
    let replicate = [Op::Publish, Op::Ship(1), Op::Apply];
    let mut clean = History::new("chaos-trace", &g, 2, true);
    let pre_files = replicated_files(&clean.primary);
    clean.run(staged.clone()).run([Op::Apply]);
    failpoint::record();
    clean.run(replicate.clone());
    let mut trace = failpoint::trace();
    failpoint::reset();
    trace.retain(|point| !point.starts_with("read:"));
    let post_files = replicated_files(&clean.primary);
    let follower = replicated_files(clean.follower.as_deref().unwrap());
    assert_eq!(follower, post_files, "clean replicated run must be bit-identical");

    // The replicated path must cross the primary's publish boundaries,
    // the ship/apply boundaries, and the follower's own publish
    // boundaries (the apply path *is* a publish) — losing any of these
    // silently would shrink chaos coverage.
    assert!(trace.len() >= 20, "suspiciously short boundary trace: {trace:?}");
    for required in ["wal.synced", "current.renamed", "repl.ship", "repl.apply"] {
        assert!(trace.iter().any(|p| p == required), "{required} missing from {trace:?}");
    }
    let syncs = trace.iter().filter(|p| *p == "wal.synced").count();
    assert_eq!(syncs, 2, "expected one primary and one follower WAL sync in {trace:?}");
    let primary_wal_synced = trace.iter().position(|p| p == "wal.synced").unwrap();

    for (i, point) in trace.iter().enumerate() {
        let skip = trace[..i].iter().filter(|p| *p == point).count();
        let mut h = History::new(&format!("chaos-{i}"), &g, 2, true);
        h.run(staged.clone()).run([Op::Apply, Op::Crash(point.clone(), skip)]);
        h.run(replicate.clone()).run([Op::Reopen, Op::CatchUp, Op::Retire]);
        assert_eq!(h.applier().generation(), h.writer().generation(), "crossing {i} ({point})");
        let files = replicated_files(&h.primary);
        let durable = i >= primary_wal_synced;
        assert!(
            files == post_files || (!durable && files == pre_files),
            "crossing {i} ({point}): primary bytes diverge from the clean run's"
        );
    }
}

/// 3. Promotion through the epoch fence: the follower re-acquires its
///    lease at `epoch + 1` and serves writes; the ex-primary rejoins as a
///    follower of the new primary and converges; the zombie ex-primary
///    writer is fenced with a typed error on its next flip.
#[test]
fn promotion_bumps_epoch_and_fences_the_ex_primary() {
    let _guard = failpoints_shared();
    let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 5);
    let mut h = History::new("promote", &g, 2, true);
    h.run(mutations(&batch(&g, 0))).run([Op::Publish, Op::Ship(1), Op::Apply]);
    assert_eq!((h.writer().lease_epoch(), h.applier().lease_epoch()), (1, 1));

    // Promote: the follower's own lease is fenced and re-acquired one
    // epoch up; the ex-primary rejoins as its follower, bit-identical up
    // to generation 1, so tailing resumes at 2.
    h.run([Op::Promote]);
    assert_eq!(h.writer().lease_epoch(), 2);
    h.run(mutations(&batch(&g, 1))).run([Op::Publish, Op::Ship(2), Op::Apply]);
    assert_eq!(h.applier().generation(), 2);
    let rejoined = replicated_files(h.follower.as_deref().unwrap());
    assert_eq!(replicated_files(&h.primary), rejoined, "rejoined ex-primary diverges");

    // The zombie ex-primary writer can buffer but never flip CURRENT.
    let zombie = h.zombie.as_mut().unwrap();
    zombie.insert(0, 1, 1.0).unwrap();
    let fenced = zombie.publish().expect_err("fenced ex-primary must not publish");
    assert!(
        matches!(fenced, GraphError::EpochFenced { .. } | GraphError::LeaseLost { .. }),
        "wrong error: {fenced}"
    );
}

const NV: u32 = 300;

/// 4. Two live daemons: the follower tails the primary over TCP with the
///    shared-secret handshake, serves bit-identical reads, redirects writes
///    with `not_primary`, and — after the primary dies — promotes through
///    the `promote` verb and serves writes at the bumped epoch.
#[test]
fn follower_daemon_tails_serves_reads_and_promotes() {
    let _guard = failpoints_shared();
    let g = generators::rmat(NV, 2600, generators::RmatParams::GRAPH500, 63);
    let p = Store::convert("e2e-p", &g, 3);
    let f = Store::follower("e2e-f", &p);

    let token = "repl-e2e-secret";
    let mut pconfig = daemon_config(&p, "e2e-p", 5);
    pconfig.tcp_addr = Some("127.0.0.1:0".to_string());
    pconfig.enable_ingest = true;
    pconfig.auth_token = Some(token.to_string());
    let primary = Server::start(pconfig).expect("primary starts");
    let paddr = primary.tcp_addr().unwrap().to_string();

    // A follower cannot also hold the ingest lease.
    let mut bad = daemon_config(&f, "bad", 5);
    bad.follow = Some(paddr.clone());
    bad.enable_ingest = true;
    assert!(Server::start(bad).is_err(), "follower + ingest must be rejected");

    let mut fconfig = daemon_config(&f, "e2e-f", 5);
    fconfig.follow = Some(paddr.clone());
    fconfig.auth_token = Some(token.to_string());
    fconfig.max_replica_lag = 64;
    fconfig.repl_backoff = Duration::from_millis(100);
    let (_follower, mut fc) = serve(fconfig);

    // Satellite: TCP without the token is a typed `unauthorized`; the
    // connection survives for a retry with the right secret.
    let mut nosy = Client::connect_tcp(paddr.as_str()).unwrap();
    assert!(matches!(nosy.ping(), Err(ClientError::Unauthorized(_))), "unauthenticated ping");
    assert!(matches!(nosy.auth("wrong-token"), Err(ClientError::Unauthorized(_))));
    nosy.auth(token).expect("correct token after a failure");
    nosy.ping().expect("authenticated ping");
    drop(nosy);

    // Ingest three generations on the primary.
    let mut pc = Client::connect_tcp(paddr.as_str()).unwrap();
    pc.auth(token).unwrap();
    for salt in 0..3u32 {
        let ops = batch(&g, salt);
        assert_eq!(pc.ingest(&ops).unwrap(), ops.len());
        let (generation, _) = pc.ingest_commit().unwrap();
        assert_eq!(generation, u64::from(salt) + 1);
    }

    // The follower tails to lag 0 (its unix socket is auth-exempt).
    poll_until("follower catch-up", Duration::from_secs(20), || {
        let repl = fc.repl_status().unwrap();
        (repl.get("generation").and_then(|v| v.as_u64()) == Some(3)).then_some(())
    });
    let health = fc.health().unwrap();
    assert_eq!(health.role, "follower");
    assert_eq!(health.peer, paddr);
    assert_eq!(health.replica_lag_generations, 0);
    assert_eq!(read_current_generation(&f).unwrap(), 3);
    // The follower holds its own store's writer lease through its frame
    // applier, and `stats` says so: epoch 1 on a freshly seeded store
    // (promotion below fences it at epoch + 1).
    let fstats = fc.stats().unwrap();
    assert_eq!(fstats.lease_held, 1, "the follower's applier holds the writer lease");
    assert_eq!(fstats.lease_epoch, 1);
    assert_eq!((fstats.role.as_str(), fstats.peer.as_str()), ("follower", paddr.as_str()));

    // Satellite: replication ledgers on both sides.
    let pstats = pc.stats().unwrap();
    assert_eq!(pstats.repl_followers, 1, "one live subscriber");
    assert!(pstats.repl_frames_shipped >= 3, "{}", pstats.repl_frames_shipped);
    assert!(pstats.repl_frames_acked >= 3, "{}", pstats.repl_frames_acked);
    let prepl = pc.repl_status().unwrap();
    assert_eq!(prepl.get("role").and_then(|v| v.as_str()), Some("primary"));
    assert_eq!(prepl.get("followers").and_then(|v| v.as_u64()), Some(1));

    // Reads on the follower are bit-identical to the primary's. Each
    // run forces a round; the daemons rotate to the newest published
    // generation between rounds.
    let on_primary = poll_until("primary rotation", Duration::from_secs(20), || {
        let report = pc.run(&pagerank(8)).expect("job on primary");
        (pc.stats().unwrap().generation == 3).then_some(report)
    });
    let on_follower = poll_until("follower rotation", Duration::from_secs(20), || {
        let report = fc.run(&pagerank(8)).expect("job on follower");
        (fc.stats().unwrap().generation == 3).then_some(report)
    });
    assert_eq!(replicated_files(&p), replicated_files(&f), "replicated dirs diverge");
    assert_served_identical(&on_follower, &on_primary);

    // Writes to the follower are redirected with a typed `not_primary`.
    let redirect = fc.ingest(&batch(&g, 7));
    assert!(matches!(redirect, Err(ClientError::NotPrimary(_))), "got {redirect:?}");
    // Promoting a primary is equally typed.
    assert!(pc.promote().is_err(), "primary must refuse promote");

    // The primary dies; the operator promotes the follower.
    drop(pc);
    primary.shutdown();
    let epoch = fc.promote().expect("promotion");
    assert_eq!(epoch, fstats.lease_epoch + 1, "epoch fence bumps the follower's lease");
    let health = fc.health().unwrap();
    assert_eq!(health.role, "primary");
    assert_eq!(health.lease_epoch, 2);
    assert_eq!(health.lease_held, 1);

    // The promoted node owns the write path at the new epoch.
    let ops = batch(&g, 11);
    fc.ingest(&ops).unwrap();
    let (generation, _) = fc.ingest_commit().expect("ingest on promoted follower");
    assert_eq!(generation, 4);
    fc.run(&pagerank(8)).expect("job after promotion");
}

/// 5. The staleness bound: a follower wedged mid-tail (global
///    `repl.apply` arm + a long reconnect backoff) rejects reads beyond
///    `--max-replica-lag` with a typed `stale_replica`, surfaces the retry
///    in `repl_status.reconnects`, and recovers through the jittered
///    reconnect without operator help.
#[test]
fn stale_follower_rejects_reads_until_it_catches_up() {
    let _guard = failpoints_exclusive();
    let g = generators::rmat(NV, 2600, generators::RmatParams::GRAPH500, 12);
    let p = Store::convert("stale-p", &g, 3);
    let f = Store::follower("stale-f", &p);

    let mut pconfig = daemon_config(&p, "stale-p", 5);
    pconfig.tcp_addr = Some("127.0.0.1:0".to_string());
    pconfig.enable_ingest = true;
    let primary = Server::start(pconfig).expect("primary starts");
    let paddr = primary.tcp_addr().unwrap().to_string();

    // Two generations land before the follower ever connects, so its
    // first tail session sees lag 2 — beyond the bound of 1.
    let mut pc = Client::connect_tcp(paddr.as_str()).unwrap();
    for salt in 0..2u32 {
        let ops = batch(&g, salt);
        pc.ingest(&ops).unwrap();
        pc.ingest_commit().unwrap();
    }

    // The first apply dies on the armed failpoint (consumed by that one
    // crossing), forcing a full reconnect backoff window during which
    // the follower is observably stale.
    failpoint::arm_global("repl.apply", 0);
    let mut fconfig = daemon_config(&f, "stale-f", 5);
    fconfig.follow = Some(paddr.clone());
    fconfig.max_replica_lag = 1;
    fconfig.repl_backoff = Duration::from_secs(3);
    let (_follower, mut fc) = serve(fconfig);
    poll_until("wedged tail to enter backoff", Duration::from_secs(20), || {
        let repl = fc.repl_status().unwrap();
        (repl.get("reconnects").and_then(|v| v.as_u64()) >= Some(1)).then_some(())
    });
    let health = fc.health().unwrap();
    assert_eq!(health.role, "follower");
    assert_eq!(health.replica_lag_generations, 2);

    // Beyond the bound: reads are rejected with a typed error naming it.
    let stale = fc.submit(&pagerank(8));
    match stale {
        Err(ClientError::StaleReplica(m)) => {
            assert!(m.contains("2 generations"), "unhelpful staleness message: {m}")
        }
        other => panic!("expected stale_replica, got {other:?}"),
    }

    // The armed crossing was consumed, so the jittered reconnect heals
    // the tail; once lag is back inside the bound, reads flow again.
    poll_until("tail recovery after backoff", Duration::from_secs(30), || {
        let repl = fc.repl_status().unwrap();
        (repl.get("generation").and_then(|v| v.as_u64()) == Some(2)).then_some(())
    });
    failpoint::reset_global();
    assert_eq!(fc.health().unwrap().replica_lag_generations, 0);
    fc.run(&pagerank(8)).expect("read after catch-up");
}
