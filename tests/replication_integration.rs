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
//! `graph::failpoint` global arms are process-wide, so every test that
//! crosses `repl.apply` serializes on [`FAILPOINTS`]: plain tests take a
//! read lock, the global-arm staleness test takes the write lock.

mod common;

use common::store_dir;
use graphm::graph::delta::read_current_generation;
use graphm::graph::{failpoint, generators, DeltaRecord, GraphError, MemoryProfile};
use graphm::server::{Client, ClientError, Server, ServerConfig};
use graphm::store::{
    decode_frame, encode_frame, read_generation_frame, ApplyOutcome, CompactionPolicy, Convert,
    DeltaWriter, DiskGridSource, LeaseConfig, ReplFrame, ReplicaApplier,
};
use graphm::workloads::{AlgoKind, JobSpec};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Serializes access to the process-global failpoint registry: a global
/// arm set by one test must never be consumed by another test's thread.
static FAILPOINTS: RwLock<()> = RwLock::new(());

fn failpoints_shared() -> RwLockReadGuard<'static, ()> {
    FAILPOINTS.read().unwrap_or_else(|e| e.into_inner())
}

fn failpoints_exclusive() -> RwLockWriteGuard<'static, ()> {
    FAILPOINTS.write().unwrap_or_else(|e| e.into_inner())
}

/// Seeds a follower: generation 0 replicates by copying the base store
/// (the directory is flat). Must run before either side opens a writer,
/// so no lease or WAL state is cloned.
fn seed_follower(primary: &Path, follower: &Path) {
    std::fs::create_dir_all(follower).unwrap();
    for entry in std::fs::read_dir(primary).unwrap() {
        let e = entry.unwrap();
        std::fs::copy(e.path(), follower.join(e.file_name())).unwrap();
    }
}

/// Every replicated byte in the directory: all files except the node's
/// private lease (`EPOCH`) and WAL (`wal.log`). Two convergent stores
/// must agree on this map exactly — `CURRENT`, generation manifests,
/// delta segments, and base segments included.
fn replicated_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut map = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let e = entry.unwrap();
        let name = e.file_name().to_str().unwrap().to_string();
        if name == "EPOCH" || name == "wal.log" {
            continue;
        }
        map.insert(name, std::fs::read(e.path()).unwrap());
    }
    map
}

/// An edge as a bit-comparable triple (`weight` by its raw bits).
type EdgeBits = (u32, u32, u32);

/// The merged view a reader consumes, in partition-major order.
fn read_merged(dir: &Path) -> (u64, Vec<EdgeBits>) {
    let src = DiskGridSource::open(dir).expect("open store for inspection");
    let mut edges = Vec::new();
    for pid in 0..graphm::core::PartitionSource::num_partitions(&src) {
        edges.extend(
            graphm::core::PartitionSource::load(&src, pid)
                .iter()
                .map(|e| (e.src, e.dst, e.weight.to_bits())),
        );
    }
    (src.generation(), edges)
}

/// A deterministic mutation batch touching all partitions: base edges
/// tombstoned plus fresh inserts, varied by `salt` so successive
/// generations differ.
fn batch(g: &graphm::graph::EdgeList, salt: u32) -> Vec<DeltaRecord> {
    let mut records = Vec::new();
    for e in g.edges.iter().skip(salt as usize).step_by(151).take(5) {
        records.push(DeltaRecord::delete(e.src, e.dst));
    }
    let nv = g.num_vertices;
    for i in 0..25u32 {
        let k = i + salt * 31;
        records.push(DeltaRecord::insert((k * 29) % nv, (k * 83 + 7) % nv, 1.5 + salt as f32));
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

/// Ships generation `gen` from `dir` through a full wire round-trip
/// (encode → decode), exactly what the daemon's hex transport carries.
fn ship(dir: &Path, gen: u64, epoch: u64) -> ReplFrame {
    let frame = read_generation_frame(dir, gen, epoch).expect("rebuild frame");
    decode_frame(&encode_frame(&frame)).expect("wire round-trip")
}

/// 1. A follower replaying the primary's stream — three delta publishes
///    around an explicit compaction — converges to byte-identical
///    replicated state; resends are idempotent, gaps and generation 0 are
///    typed errors.
#[test]
fn replicated_stream_is_bit_identical_including_compaction() {
    let _guard = failpoints_shared();
    let g = generators::rmat(240, 2000, generators::RmatParams::GRAPH500, 17);
    let p = store_dir("stream-p");
    let f = store_dir("stream-f");
    Convert::grid(3).write(&g, &p).unwrap();
    seed_follower(&p, &f);

    // Primary: gen 1, 2 are delta publishes, gen 3 a compaction, gen 4
    // another delta publish on the folded base.
    let mut w = DeltaWriter::open(&p).unwrap().with_policy(CompactionPolicy::never());
    for salt in 0..2u32 {
        stage(&mut w, &batch(&g, salt));
        assert_eq!(w.publish().unwrap(), u64::from(salt) + 1);
    }
    assert_eq!(w.compact().unwrap(), 3);
    stage(&mut w, &batch(&g, 9));
    assert_eq!(w.publish().unwrap(), 4);

    // Generation 0 never ships as a frame: followers seed by copying.
    assert!(read_generation_frame(&p, 0, w.lease_epoch()).is_err());

    // Follower: apply the stream in order through the wire codec.
    let mut applier = ReplicaApplier::open(&f).unwrap();
    for gen in 1..=4u64 {
        let frame = ship(&p, gen, w.lease_epoch());
        assert_eq!(applier.apply(&frame).unwrap(), ApplyOutcome::Applied(gen));
    }
    assert_eq!(applier.generation(), 4);
    assert_eq!(applier.frames_applied(), 4);
    assert_eq!(applier.primary_epoch(), w.lease_epoch());

    // A resend after a primary crash-recovery republish is harmless.
    let resend = ship(&p, 4, w.lease_epoch());
    assert_eq!(applier.apply(&resend).unwrap(), ApplyOutcome::Duplicate);
    assert_eq!(applier.frames_applied(), 4);

    // A frame beyond have+1 is a typed gap, not a silent skip.
    let gap = ReplFrame { generation: 6, ..resend };
    let err = applier.apply(&gap).expect_err("gap must be typed");
    assert!(format!("{err}").contains("replication gap"), "{err}");

    // Byte-identical replicated state, and identical merged views.
    assert_eq!(replicated_files(&p), replicated_files(&f), "replicated bytes diverge");
    assert_eq!(read_merged(&p), read_merged(&f));

    drop(w);
    drop(applier);
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_dir_all(&f).ok();
}

/// 2. The chaos matrix over one *replicated* publish: primary publish →
///    frame ship → follower apply, with a crash injected at every
///    fsync/rename/send boundary the clean run crosses (both sides'
///    publish boundaries plus `repl.ship` and `repl.apply`). Recovery +
///    catch-up must leave the follower bit-identical to the pre- or
///    post-publish state and equal to the recovered primary; from the
///    primary's WAL sync onward the batch is durable and the direction is
///    pinned forward.
#[test]
fn chaos_matrix_converges_follower_at_every_boundary() {
    let _guard = failpoints_shared();
    let g = generators::rmat(200, 1600, generators::RmatParams::GRAPH500, 41);
    let records = batch(&g, 3);

    // Pre-publish reference: the pristine base store's replicated bytes.
    let pre_dir = store_dir("chaos-pre");
    Convert::grid(2).write(&g, &pre_dir).unwrap();
    let pre_files = replicated_files(&pre_dir);
    let (pre_gen, pre_edges) = read_merged(&pre_dir);
    assert_eq!(pre_gen, 0);
    std::fs::remove_dir_all(&pre_dir).ok();

    // Clean traced run: enumerate every boundary of the replicated
    // publish and capture the post-publish reference bytes.
    let pt = store_dir("chaos-trace-p");
    let ft = store_dir("chaos-trace-f");
    Convert::grid(2).write(&g, &pt).unwrap();
    seed_follower(&pt, &ft);
    let mut w = DeltaWriter::open(&pt).unwrap().with_policy(CompactionPolicy::never());
    let mut a = ReplicaApplier::open(&ft).unwrap();
    stage(&mut w, &records);
    failpoint::reset();
    failpoint::record();
    assert_eq!(w.publish().unwrap(), 1);
    let frame = ship(&pt, 1, w.lease_epoch());
    assert_eq!(a.apply(&frame).unwrap(), ApplyOutcome::Applied(1));
    let trace = failpoint::trace();
    failpoint::reset();
    let post_files = replicated_files(&pt);
    let (_, post_edges) = read_merged(&pt);
    assert_eq!(replicated_files(&ft), post_files, "clean replicated run must be bit-identical");
    drop(w);
    drop(a);
    std::fs::remove_dir_all(&pt).ok();
    std::fs::remove_dir_all(&ft).ok();

    // The replicated path must cross the primary's publish boundaries,
    // the ship/apply boundaries, and the follower's own publish
    // boundaries (the apply path *is* a publish) — losing any of these
    // silently would shrink chaos coverage.
    assert!(trace.len() >= 20, "suspiciously short boundary trace: {trace:?}");
    for required in ["wal.synced", "current.renamed", "repl.ship", "repl.apply"] {
        assert!(trace.iter().any(|p| p == required), "{required} missing from {trace:?}");
    }
    assert_eq!(
        trace.iter().filter(|p| *p == "wal.synced").count(),
        2,
        "expected one primary and one follower WAL sync in {trace:?}"
    );
    let primary_wal_synced = trace.iter().position(|p| p == "wal.synced").unwrap();

    for (i, point) in trace.iter().enumerate() {
        let skip = trace[..i].iter().filter(|p| *p == point).count();
        let p = store_dir(&format!("chaos-p-{i}"));
        let f = store_dir(&format!("chaos-f-{i}"));
        Convert::grid(2).write(&g, &p).unwrap();
        seed_follower(&p, &f);
        let mut w = DeltaWriter::open(&p).unwrap().with_policy(CompactionPolicy::never());
        let mut a = ReplicaApplier::open(&f).unwrap();
        stage(&mut w, &records);
        failpoint::reset();
        failpoint::arm(point, skip);
        let result = (|| -> Result<(), GraphError> {
            w.publish()?;
            let frame = read_generation_frame(&p, 1, w.lease_epoch())?;
            let frame = decode_frame(&encode_frame(&frame))?;
            a.apply(&frame)?;
            Ok(())
        })();
        let err = result.expect_err("armed boundary must abort the replicated publish");
        assert!(failpoint::is_injected(&err), "crossing {i} ({point}): real error {err}");
        failpoint::reset();
        // kill -9 both processes at the boundary: leases and WALs stay
        // exactly as abandoned.
        w.crash();
        a.crash();

        // Recovery: each node reopens its own store (WAL replay inside),
        // then the follower anti-entropy-catches-up over the generation
        // range it missed — the same read_generation_frame path the live
        // tail uses.
        let rec_w = DeltaWriter::open_with(&p, LeaseConfig::force_takeover())
            .expect("primary recovery open")
            .with_policy(CompactionPolicy::never());
        let mut rec_a = ReplicaApplier::open_with(&f, LeaseConfig::force_takeover())
            .expect("follower recovery open");
        let current = rec_w.generation();
        for gen in rec_a.generation() + 1..=current {
            let frame = ship(&p, gen, rec_w.lease_epoch());
            assert_eq!(rec_a.apply(&frame).unwrap(), ApplyOutcome::Applied(gen));
        }

        // Half-written files from the crash must not survive as
        // asymmetric orphans: sweep both sides to the live set.
        rec_w.retire_older_generations().unwrap();
        let (p_gen, p_edges) = read_merged(&p);
        let (f_gen, f_edges) = read_merged(&f);
        assert_eq!((p_gen, &p_edges), (f_gen, &f_edges), "crossing {i} ({point}): divergent");
        let is_pre = p_edges == pre_edges;
        let is_post = p_edges == post_edges;
        assert!(
            is_pre || is_post,
            "crossing {i} ({point}): converged state at generation {p_gen} is neither \
             pre- nor post-publish"
        );
        if i >= primary_wal_synced {
            assert!(is_post, "crossing {i} ({point}): durable batch rolled back");
        }
        // Bit-identical to the reference run, manifest and CURRENT
        // included (the follower never re-publishes crashed partials, so
        // only the primary needed retirement).
        let reference = if is_post { &post_files } else { &pre_files };
        assert_eq!(
            &replicated_files(&p),
            reference,
            "crossing {i} ({point}): primary bytes diverge from reference"
        );
        let f_files = replicated_files(&f);
        for (name, bytes) in reference {
            assert_eq!(
                f_files.get(name),
                Some(bytes),
                "crossing {i} ({point}): follower file {name} diverges"
            );
        }
        drop(rec_w);
        drop(rec_a);
        std::fs::remove_dir_all(&p).ok();
        std::fs::remove_dir_all(&f).ok();
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
    let p = store_dir("promote-p");
    let f = store_dir("promote-f");
    Convert::grid(2).write(&g, &p).unwrap();
    seed_follower(&p, &f);

    let mut old_primary = DeltaWriter::open(&p).unwrap().with_policy(CompactionPolicy::never());
    assert_eq!(old_primary.lease_epoch(), 1);
    stage(&mut old_primary, &batch(&g, 0));
    assert_eq!(old_primary.publish().unwrap(), 1);

    let mut applier = ReplicaApplier::open(&f).unwrap();
    applier.apply(&ship(&p, 1, old_primary.lease_epoch())).unwrap();
    assert_eq!(applier.lease_epoch(), 1);

    // Promote: the follower's own lease is fenced and re-acquired one
    // epoch up; the returned writer serves primary duty immediately.
    let mut new_primary =
        applier.promote().expect("promotion").with_policy(CompactionPolicy::never());
    assert_eq!(new_primary.lease_epoch(), 2);
    stage(&mut new_primary, &batch(&g, 1));
    assert_eq!(new_primary.publish().unwrap(), 2);

    // The ex-primary rejoins as a follower of the new primary: its store
    // is bit-identical up to generation 1, so tailing resumes at 2. Its
    // stale lease (the zombie still holds it) is force-fenced the same
    // way a crashed node's would be.
    let mut rejoined = ReplicaApplier::open_with(&p, LeaseConfig::force_takeover()).unwrap();
    assert_eq!(rejoined.generation(), 1);
    rejoined.apply(&ship(&f, 2, new_primary.lease_epoch())).unwrap();
    assert_eq!(replicated_files(&p), replicated_files(&f), "rejoined ex-primary diverges");

    // The zombie ex-primary writer can buffer but never flip CURRENT.
    old_primary.insert(0, 1, 1.0).unwrap();
    let fenced = old_primary.publish().expect_err("fenced ex-primary must not publish");
    assert!(
        matches!(fenced, GraphError::EpochFenced { .. } | GraphError::LeaseLost { .. }),
        "wrong error: {fenced}"
    );

    drop(old_primary);
    drop(new_primary);
    drop(rejoined);
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_dir_all(&f).ok();
}

const NV: u32 = 300;

fn job_spec() -> JobSpec {
    JobSpec { kind: AlgoKind::PageRank, damping: 0.85, root: 0, max_iters: 8 }
}

fn poll_until<T>(what: &str, deadline: Duration, mut probe: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// 4. Two live daemons: the follower tails the primary over TCP with the
///    shared-secret handshake, serves bit-identical reads, redirects writes
///    with `not_primary`, and — after the primary dies — promotes through
///    the `promote` verb and serves writes at the bumped epoch.
#[test]
fn follower_daemon_tails_serves_reads_and_promotes() {
    let _guard = failpoints_shared();
    let g = generators::rmat(NV, 2600, generators::RmatParams::GRAPH500, 63);
    let p = store_dir("e2e-p");
    let f = store_dir("e2e-f");
    Convert::grid(3).write(&g, &p).unwrap();
    seed_follower(&p, &f);

    let token = "repl-e2e-secret";
    let mut pconfig = ServerConfig::new(&p);
    pconfig.tcp_addr = Some("127.0.0.1:0".to_string());
    pconfig.profile = MemoryProfile::TEST;
    pconfig.batch_window = Duration::from_millis(5);
    pconfig.enable_ingest = true;
    pconfig.auth_token = Some(token.to_string());
    let primary = Server::start(pconfig).expect("primary starts");
    let paddr = primary.tcp_addr().unwrap().to_string();

    // A follower cannot also hold the ingest lease.
    let mut bad = ServerConfig::new(&f);
    bad.follow = Some(paddr.clone());
    bad.enable_ingest = true;
    assert!(Server::start(bad).is_err(), "follower + ingest must be rejected");

    let mut fconfig = ServerConfig::new(&f);
    fconfig.socket_path =
        Some(std::env::temp_dir().join(format!("graphm-repl-e2e-{}.sock", std::process::id())));
    fconfig.profile = MemoryProfile::TEST;
    fconfig.batch_window = Duration::from_millis(5);
    fconfig.follow = Some(paddr.clone());
    fconfig.auth_token = Some(token.to_string());
    fconfig.max_replica_lag = 64;
    fconfig.repl_backoff = Duration::from_millis(100);
    let follower = Server::start(fconfig).expect("follower starts");
    let fsock = follower.socket_path().unwrap().to_path_buf();

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
    let mut fc = Client::connect_unix(&fsock).unwrap();
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
        let report = pc.run(&job_spec()).expect("job on primary");
        (pc.stats().unwrap().generation == 3).then_some(report)
    });
    let on_follower = poll_until("follower rotation", Duration::from_secs(20), || {
        let report = fc.run(&job_spec()).expect("job on follower");
        (fc.stats().unwrap().generation == 3).then_some(report)
    });
    assert_eq!(replicated_files(&p), replicated_files(&f), "replicated dirs diverge");
    assert_eq!(on_primary.values.len(), on_follower.values.len());
    assert_eq!(
        on_primary.edges_processed, on_follower.edges_processed,
        "primary and follower served different generations"
    );
    for (a, b) in on_primary.values.iter().zip(&on_follower.values) {
        assert_eq!(a.to_bits(), b.to_bits(), "follower read diverges bit-wise");
    }

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
    fc.run(&job_spec()).expect("job after promotion");

    fc.shutdown_server().unwrap();
    follower.join();
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_dir_all(&f).ok();
    std::fs::remove_file(&fsock).ok();
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
    let p = store_dir("stale-p");
    let f = store_dir("stale-f");
    Convert::grid(3).write(&g, &p).unwrap();
    seed_follower(&p, &f);

    let mut pconfig = ServerConfig::new(&p);
    pconfig.tcp_addr = Some("127.0.0.1:0".to_string());
    pconfig.profile = MemoryProfile::TEST;
    pconfig.batch_window = Duration::from_millis(5);
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
    failpoint::reset_global();
    failpoint::arm_global("repl.apply", 0);
    let mut fconfig = ServerConfig::new(&f);
    fconfig.socket_path =
        Some(std::env::temp_dir().join(format!("graphm-repl-stale-{}.sock", std::process::id())));
    fconfig.profile = MemoryProfile::TEST;
    fconfig.batch_window = Duration::from_millis(5);
    fconfig.follow = Some(paddr.clone());
    fconfig.max_replica_lag = 1;
    fconfig.repl_backoff = Duration::from_secs(3);
    let follower = Server::start(fconfig).expect("follower starts");
    let fsock = follower.socket_path().unwrap().to_path_buf();

    let mut fc = Client::connect_unix(&fsock).unwrap();
    poll_until("wedged tail to enter backoff", Duration::from_secs(20), || {
        let repl = fc.repl_status().unwrap();
        (repl.get("reconnects").and_then(|v| v.as_u64()) >= Some(1)).then_some(())
    });
    let health = fc.health().unwrap();
    assert_eq!(health.role, "follower");
    assert_eq!(health.replica_lag_generations, 2);

    // Beyond the bound: reads are rejected with a typed error naming it.
    let stale = fc.submit(&job_spec());
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
    fc.run(&job_spec()).expect("read after catch-up");

    fc.shutdown_server().unwrap();
    follower.join();
    primary.shutdown();
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_dir_all(&f).ok();
    std::fs::remove_file(&fsock).ok();
}
