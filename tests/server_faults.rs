//! Read-path fault injection: an I/O error injected at a store read-path
//! boundary must surface as a *per-job* failure — a `JobReport` with a
//! typed error — never as a daemon abort. Co-batched jobs that did not
//! need the failed load stay bit-identical to an uninjected run, and the
//! daemon keeps serving the very next round.
//!
//! Failpoint arming is process-global, so every test here serializes on
//! one mutex and resets the global state on entry and exit.

mod common;

use common::store_dir;
use graphm::graph::delta::DeltaRecord;
use graphm::graph::{failpoint, generators, MemoryProfile};
use graphm::server::{Client, Server, ServerConfig};
use graphm::store::Convert;
use graphm::workloads::{AlgoKind, JobSpec};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes the tests in this binary (cargo runs them on parallel
/// threads, but `failpoint::arm_global` is one process-wide slot).
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::reset_global();
    guard
}

fn fault_store(name: &str) -> std::path::PathBuf {
    let g = generators::rmat(600, 5200, generators::RmatParams::GRAPH500, 33);
    let dir = store_dir(name);
    Convert::grid(4).write(&g, &dir).unwrap();
    dir
}

fn config(dir: &std::path::Path, name: &str, batch_ms: u64) -> ServerConfig {
    let mut config = ServerConfig::new(dir);
    config.socket_path =
        Some(std::env::temp_dir().join(format!("graphm-flt-{name}-{}.sock", std::process::id())));
    config.profile = MemoryProfile::TEST;
    config.batch_window = Duration::from_millis(batch_ms);
    config
}

fn pagerank(max_iters: usize) -> JobSpec {
    JobSpec { kind: AlgoKind::PageRank, damping: 0.85, root: 0, max_iters }
}

fn assert_bit_identical(got: &graphm::core::JobReport, want: &graphm::core::JobReport) {
    assert_eq!(got.name, want.name);
    assert_eq!(got.iterations, want.iterations);
    assert_eq!(got.edges_processed, want.edges_processed);
    assert_eq!(got.values.len(), want.values.len());
    for (v, (a, b)) in got.values.iter().zip(&want.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v} ({})", got.name);
    }
}

/// The fault contract, end to end over the socket: a `read:load` failure
/// after sweep 1 fails exactly the job that still needed the partition.
/// Its co-batched neighbor — retired after sweep 1 — publishes a report
/// bit-identical to the uninjected run, and the daemon serves the next
/// round normally.
#[test]
fn deterministic_read_fault_fails_one_job_and_spares_its_batch() {
    let _guard = serialized();
    let dir = fault_store("det");

    // Probe daemon: count the read-path crossings of one sweep — loads,
    // materialisations and readahead hints — so the injection can be aimed
    // past sweep 1's loads. (The count is a property of the store layout,
    // not hardcoded here.)
    let probe = Server::start(config(&dir, "det-probe", 5)).unwrap();
    let mut client = Client::connect_unix(probe.socket_path().unwrap()).unwrap();
    let h0 = failpoint::global_hits();
    let id = client.submit(&pagerank(1)).unwrap();
    client.wait(id).unwrap();
    let per_sweep = (failpoint::global_hits() - h0) as usize;
    assert!(per_sweep > 0, "the read path must cross the failpoint");
    probe.shutdown();

    // Uninjected reference: round 1 co-batches A (1 sweep) + B (4
    // sweeps); round 2 runs B alone (the post-fault recovery round).
    let reference = Server::start(config(&dir, "det-ref", 600)).unwrap();
    let mut client = Client::connect_unix(reference.socket_path().unwrap()).unwrap();
    let ra = client.submit(&pagerank(1)).unwrap();
    let rb = client.submit(&pagerank(4)).unwrap();
    let ref_a = client.wait(ra).unwrap();
    let ref_b = client.wait(rb).unwrap();
    let rb2 = client.submit(&pagerank(4)).unwrap();
    let ref_b2 = client.wait(rb2).unwrap();
    assert!(ref_a.error.is_none() && ref_b.error.is_none() && ref_b2.error.is_none());
    reference.shutdown();

    // Injected run: the (per_sweep + 1)-th `read:load` crossing comes
    // after sweep 1's loads — after A retired, while B still runs.
    failpoint::arm_global("read:load", per_sweep);
    let server = Server::start(config(&dir, "det-inj", 600)).unwrap();
    let mut client = Client::connect_unix(server.socket_path().unwrap()).unwrap();
    let ia = client.submit(&pagerank(1)).unwrap();
    let ib = client.submit(&pagerank(4)).unwrap();
    let inj_a = client.wait(ia).unwrap();
    let inj_b = client.wait(ib).unwrap();

    // B carries the injected error on its report; nothing crashed.
    let err = inj_b.error.as_deref().expect("the injected job must fail");
    assert!(err.contains(failpoint::INJECTED_MARKER), "typed injected error, got: {err}");
    assert!(!failpoint::global_armed(), "the armed fault was consumed");

    // A is bit-identical to the uninjected run (the failure happened
    // after A retired).
    assert!(inj_a.error.is_none());
    assert_bit_identical(&inj_a, &ref_a);

    // The daemon keeps serving: the failed spec resubmitted in the next
    // round runs clean and matches the reference recovery round
    // bit-for-bit on values.
    client.ping().unwrap();
    let ib2 = client.submit(&pagerank(4)).unwrap();
    let inj_b2 = client.wait(ib2).unwrap();
    assert!(inj_b2.error.is_none());
    assert_bit_identical(&inj_b2, &ref_b2);

    let stats = server.stats();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 2, "completions count successes, not the failed job");

    server.shutdown();
    failpoint::reset_global();
    std::fs::remove_dir_all(&dir).ok();
}

/// An injected load failure fails the job with a typed error in its
/// report; the threaded runtime survives and the identical resubmission
/// produces bit-identical values.
#[test]
fn wallclock_read_fault_fails_job_daemon_recovers() {
    let _guard = serialized();
    let dir = fault_store("wall");
    let server = Server::start(config(&dir, "wall", 5)).unwrap();
    let mut client = Client::connect_unix(server.socket_path().unwrap()).unwrap();

    // Uninjected reference on the same daemon.
    let rid = client.submit(&pagerank(4)).unwrap();
    let reference = client.wait(rid).unwrap();
    assert!(reference.error.is_none());

    // First load of the next job trips.
    failpoint::arm_global("read:load", 0);
    let fid = client.submit(&pagerank(4)).unwrap();
    let failed = client.wait(fid).unwrap();
    let err = failed.error.as_deref().expect("injected job must fail");
    assert!(err.contains(failpoint::INJECTED_MARKER), "typed injected error, got: {err}");

    // Consumed fault; daemon alive; clean resubmission is bit-identical.
    client.ping().unwrap();
    let cid = client.submit(&pagerank(4)).unwrap();
    let clean = client.wait(cid).unwrap();
    assert!(clean.error.is_none());
    assert_bit_identical(&clean, &reference);
    assert_eq!(server.stats().jobs_failed, 1);

    server.shutdown();
    failpoint::reset_global();
    std::fs::remove_dir_all(&dir).ok();
}

/// A prefetch-path fault degrades to "no hint" — the job succeeds with
/// no error and unchanged values; nothing fails loudly on an advisory
/// path.
#[test]
fn wallclock_prefetch_fault_degrades_to_no_hint() {
    let _guard = serialized();
    let dir = fault_store("prefetch");
    let server = Server::start(config(&dir, "prefetch", 5)).unwrap();
    let mut client = Client::connect_unix(server.socket_path().unwrap()).unwrap();

    let rid = client.submit(&pagerank(4)).unwrap();
    let reference = client.wait(rid).unwrap();

    failpoint::arm_global("read:prefetch", 0);
    let id = client.submit(&pagerank(4)).unwrap();
    let report = client.wait(id).unwrap();
    assert!(report.error.is_none(), "a prefetch fault must not fail the job: {:?}", report.error);
    assert_bit_identical(&report, &reference);
    assert!(
        !failpoint::global_armed(),
        "the prefetch path must actually cross (and consume) the failpoint"
    );
    assert_eq!(server.stats().jobs_failed, 0);

    server.shutdown();
    failpoint::reset_global();
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault at segment-open time fails `Server::start` with the typed
/// injected error — a broken store is a startup error, not a half-alive
/// daemon — and the same store opens clean once the fault is gone.
#[test]
fn startup_segment_open_fault_fails_start_cleanly() {
    let _guard = serialized();
    let dir = fault_store("startup");

    failpoint::arm_global("read:segment_open", 0);
    match Server::start(config(&dir, "startup-a", 5)) {
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains(failpoint::INJECTED_MARKER), "typed startup error, got: {msg}")
        }
        Ok(_) => panic!("Server::start must fail while the open path is faulted"),
    }

    // Nothing was corrupted: the identical config starts clean.
    failpoint::reset_global();
    let server = Server::start(config(&dir, "startup-b", 5)).unwrap();
    let mut client = Client::connect_unix(server.socket_path().unwrap()).unwrap();
    let id = client.submit(&pagerank(2)).unwrap();
    assert!(client.wait(id).unwrap().error.is_none());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault while opening a freshly published delta generation pins the
/// served generation (jobs keep succeeding on the old view) and the next
/// round's refresh adopts the new generation once the fault clears.
#[test]
fn delta_refresh_fault_pins_generation_then_recovers() {
    let _guard = serialized();
    let dir = fault_store("delta");
    let mut cfg = config(&dir, "delta", 5);
    cfg.enable_ingest = true;
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect_unix(server.socket_path().unwrap()).unwrap();

    let gen0 = client.health().unwrap().generation;
    let id = client.submit(&pagerank(2)).unwrap();
    let on_gen0 = client.wait(id).unwrap();
    assert!(on_gen0.error.is_none());

    // Publish a new generation, then fault the path that opens it.
    client.ingest(&[DeltaRecord::insert(3, 4, 1.0)]).unwrap();
    client.ingest_commit().unwrap();
    failpoint::arm_global("read:delta_open", 0);

    // The round-start refresh trips, the daemon serves the pinned
    // generation — the job's values are those of the job before the
    // publish, bit for bit — and the job still succeeds. (What `health`
    // reports by now is not pinned: the poll beside the running job has
    // crossed the cleared failpoint and the store adopts the staged
    // generation the moment the job lets go of the old one.)
    let id = client.submit(&pagerank(2)).unwrap();
    let under_fault = client.wait(id).unwrap();
    assert!(under_fault.error.is_none());
    assert!(!failpoint::global_armed(), "the refresh must cross (and consume) the failpoint");
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&under_fault.values), bits(&on_gen0.values), "served the pinned generation");

    // Fault consumed: the next *round start* adopts the published
    // generation. One more job need not reach one: `wait` returns as soon
    // as the job's report is in, which can be before the runtime has
    // drained the queue for the last time in that round — a job submitted
    // right then joins the round that just finished serving and never
    // crosses the between-rounds refresh. So submit until the generation
    // moves: every job that does open a round refreshes first.
    let mut gen_after = gen0;
    for _ in 0..5 {
        let id = client.submit(&pagerank(2)).unwrap();
        assert!(client.wait(id).unwrap().error.is_none());
        gen_after = client.health().unwrap().generation;
        if gen_after > gen0 {
            break;
        }
    }
    assert!(gen_after > gen0, "refresh recovers after the fault ({gen_after} vs {gen0})");
    assert_eq!(server.stats().jobs_failed, 0);

    server.shutdown();
    failpoint::reset_global();
    std::fs::remove_dir_all(&dir).ok();
}
