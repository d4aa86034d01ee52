//! Read-path fault injection: an I/O error injected at a store read-path
//! boundary must surface as a *per-job* failure — a `JobReport` with a
//! typed error — never as a daemon abort. Co-batched jobs that did not
//! need the failed load stay bit-identical to an uninjected run, and the
//! daemon keeps serving the very next round.
//!
//! Failpoint arming is process-global, so every test here holds the
//! shared failpoint lock alone (which resets the global state on entry)
//! until its daemons are down.

mod common;

use common::{assert_served_identical, assert_values_identical, daemon_config};
use common::{failpoints_exclusive, pagerank, serve, Store};
use graphm::graph::delta::DeltaRecord;
use graphm::graph::{failpoint, generators};
use graphm::server::Server;

fn fault_store(name: &str) -> Store {
    let g = generators::rmat(600, 5200, generators::RmatParams::GRAPH500, 33);
    Store::convert(name, &g, 4)
}

/// The fault contract, end to end over the socket: a `read:load` failure
/// after sweep 1 fails exactly the job that still needed the partition.
/// Its co-batched neighbor — retired after sweep 1 — publishes a report
/// bit-identical to the uninjected run, and the daemon serves the next
/// round normally.
#[test]
fn deterministic_read_fault_fails_one_job_and_spares_its_batch() {
    let _guard = failpoints_exclusive();
    let dir = fault_store("det");

    // Probe daemon: count the read-path crossings of one sweep — loads,
    // materialisations and readahead hints — so the injection can be aimed
    // past sweep 1's loads. (The count is a property of the store layout,
    // not hardcoded here.)
    let (probe, mut client) = serve(daemon_config(&dir, "det-probe", 5));
    let h0 = failpoint::global_hits();
    client.run(&pagerank(1)).unwrap();
    let per_sweep = (failpoint::global_hits() - h0) as usize;
    assert!(per_sweep > 0, "the read path must cross the failpoint");
    drop((client, probe));

    // Uninjected reference: round 1 co-batches A (1 sweep) + B (4
    // sweeps); round 2 runs B alone (the post-fault recovery round).
    let (reference, mut client) = serve(daemon_config(&dir, "det-ref", 600));
    let ra = client.submit(&pagerank(1)).unwrap();
    let rb = client.submit(&pagerank(4)).unwrap();
    let ref_a = client.wait(ra).unwrap();
    let ref_b = client.wait(rb).unwrap();
    let ref_b2 = client.run(&pagerank(4)).unwrap();
    assert!(ref_a.error.is_none() && ref_b.error.is_none() && ref_b2.error.is_none());
    drop((client, reference));

    // Injected run: the (per_sweep + 1)-th `read:load` crossing comes
    // after sweep 1's loads — after A retired, while B still runs.
    failpoint::arm_global("read:load", per_sweep);
    let (server, mut client) = serve(daemon_config(&dir, "det-inj", 600));
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
    assert_served_identical(&inj_a, &ref_a);

    // The daemon keeps serving: the failed spec resubmitted in the next
    // round runs clean and matches the reference recovery round
    // bit-for-bit on values.
    client.ping().unwrap();
    let inj_b2 = client.run(&pagerank(4)).unwrap();
    assert!(inj_b2.error.is_none());
    assert_served_identical(&inj_b2, &ref_b2);

    let stats = server.stats();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 2, "completions count successes, not the failed job");
}

/// An injected load failure fails the job with a typed error in its
/// report; the threaded runtime survives and the identical resubmission
/// produces bit-identical values.
#[test]
fn wallclock_read_fault_fails_job_daemon_recovers() {
    let _guard = failpoints_exclusive();
    let dir = fault_store("wall");
    let (server, mut client) = serve(daemon_config(&dir, "wall", 5));

    // Uninjected reference on the same daemon.
    let reference = client.run(&pagerank(4)).unwrap();
    assert!(reference.error.is_none());

    // First load of the next job trips.
    failpoint::arm_global("read:load", 0);
    let failed = client.run(&pagerank(4)).unwrap();
    let err = failed.error.as_deref().expect("injected job must fail");
    assert!(err.contains(failpoint::INJECTED_MARKER), "typed injected error, got: {err}");

    // Consumed fault; daemon alive; clean resubmission is bit-identical.
    client.ping().unwrap();
    let clean = client.run(&pagerank(4)).unwrap();
    assert!(clean.error.is_none());
    assert_served_identical(&clean, &reference);
    assert_eq!(server.stats().jobs_failed, 1);
}

/// A prefetch-path fault degrades to "no hint" — the job succeeds with
/// no error and unchanged values; nothing fails loudly on an advisory
/// path.
#[test]
fn wallclock_prefetch_fault_degrades_to_no_hint() {
    let _guard = failpoints_exclusive();
    let dir = fault_store("prefetch");
    let (server, mut client) = serve(daemon_config(&dir, "prefetch", 5));
    let reference = client.run(&pagerank(4)).unwrap();

    failpoint::arm_global("read:prefetch", 0);
    let report = client.run(&pagerank(4)).unwrap();
    assert!(report.error.is_none(), "a prefetch fault must not fail the job: {:?}", report.error);
    assert_served_identical(&report, &reference);
    assert!(
        !failpoint::global_armed(),
        "the prefetch path must actually cross (and consume) the failpoint"
    );
    assert_eq!(server.stats().jobs_failed, 0);
}

/// A fault at segment-open time fails `Server::start` with the typed
/// injected error — a broken store is a startup error, not a half-alive
/// daemon — and the same store opens clean once the fault is gone.
#[test]
fn startup_segment_open_fault_fails_start_cleanly() {
    let _guard = failpoints_exclusive();
    let dir = fault_store("startup");

    failpoint::arm_global("read:segment_open", 0);
    match Server::start(daemon_config(&dir, "startup-a", 5)) {
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains(failpoint::INJECTED_MARKER), "typed startup error, got: {msg}")
        }
        Ok(_) => panic!("Server::start must fail while the open path is faulted"),
    }

    // Nothing was corrupted: the identical config starts clean.
    failpoint::reset_global();
    let (_server, mut client) = serve(daemon_config(&dir, "startup-b", 5));
    assert!(client.run(&pagerank(2)).unwrap().error.is_none());
}

/// A fault while opening a freshly published delta generation pins the
/// served generation (jobs keep succeeding on the old view) and the next
/// round's refresh adopts the new generation once the fault clears.
#[test]
fn delta_refresh_fault_pins_generation_then_recovers() {
    let _guard = failpoints_exclusive();
    let dir = fault_store("delta");
    let mut cfg = daemon_config(&dir, "delta", 5);
    cfg.enable_ingest = true;
    let (server, mut client) = serve(cfg);

    let gen0 = client.health().unwrap().generation;
    let on_gen0 = client.run(&pagerank(2)).unwrap();
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
    let under_fault = client.run(&pagerank(2)).unwrap();
    assert!(under_fault.error.is_none());
    assert!(!failpoint::global_armed(), "the refresh must cross (and consume) the failpoint");
    assert_values_identical(&under_fault.values, &on_gen0.values, "pinned generation");

    // Fault consumed: the next *round start* adopts the published
    // generation. One more job need not reach one: `wait` returns as soon
    // as the job's report is in, which can be before the runtime has
    // drained the queue for the last time in that round — a job submitted
    // right then joins the round that just finished serving and never
    // crosses the between-rounds refresh. So submit until the generation
    // moves: every job that does open a round refreshes first.
    let mut gen_after = gen0;
    for _ in 0..5 {
        assert!(client.run(&pagerank(2)).unwrap().error.is_none());
        gen_after = client.health().unwrap().generation;
        if gen_after > gen0 {
            break;
        }
    }
    assert!(gen_after > gen0, "refresh recovers after the fault ({gen_after} vs {gen0})");
    assert_eq!(server.stats().jobs_failed, 0);
}
