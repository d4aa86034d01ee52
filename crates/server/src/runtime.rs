//! The runtime thread: one serving loop over an execution engine.
//!
//! GraphM is a storage runtime an engine plugs into (Table 1: `Init()` /
//! `Sharing()` / `Start()` / `Barrier()`), so the daemon has one
//! [`runtime_loop`] whatever executes the jobs:
//!
//! ```text
//!  submission queue ──drain (Batch jobs in flight ≤ cap)──┐
//!                                                         v
//!  sleep on queue_cv → poll generation → drain → engine.advance → publish
//!     ^  woken by: a retirement (the engine's notifier), a burst     │
//!     │  settling, the batch_window cap, shutdown                    │
//!     └──────── admitting nothing while a newer generation waits ────┘
//! ```
//!
//! The thread blocks in exactly one place, `Shared::queue_cv`. A drain
//! happens the moment no job it would admit belongs to a connection's
//! open burst (`admission`), or once the oldest of them has waited
//! `batch_window`, idle or busy alike: a client that submits and then
//! waits is admitted at its `wait`, and a burst never splits at whatever
//! point a retirement happened to fall.
//!
//! An [`Engine`] only decides *how jobs execute* — its unit of work and
//! what survives a rotation; everything a client can observe about
//! admission (its order, the in-flight Batch bound, the rotation gate,
//! publish and tenant release, the counters) is written once, in the
//! loop. `docs/ARCHITECTURE.md` ("The server") tabulates the split.
//!
//! The daemon's engine is [`Batcher`]: a `CohortDriver` with its worker
//! lanes plus the `Prefetcher`; every non-empty drain starts at once as a
//! cohort of its own beside whatever is running, and the driver wakes the
//! loop each time a job retires. (The trait is the seam through which the
//! tests below substitute scripted and sabotaged engines.) A reader runs
//! entirely inside one published generation: the loop rotates only with
//! nothing in flight — and stops admitting as soon as a newer generation
//! is waiting, so that moment comes — and instantiates specs at drain time
//! so a job's out-degrees match the generation it streams.

use crate::admission::{drain_admissible, JobEntry, Queue, Readiness};
use crate::protocol::Priority;
use crate::state::Shared;
use graphm_cachesim::VirtualClock;
use graphm_core::{
    CohortDriver, CohortId, GraphJob, JobId, JobReport, PartitionSource, WallClockConfig,
    WallClockExecutor,
};
use graphm_store::{DiskGridSource, PrefetchTarget, Prefetcher};
use graphm_workloads::JobSpec;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What [`runtime_loop`] needs from whatever executes jobs (see the module
/// docs for the split). Job ids crossing this interface are daemon ids.
pub(crate) trait Engine {
    /// The Formula-1 chunk size of the current `Init()`.
    fn chunk_bytes(&self) -> usize;

    /// The served generation changed with nothing in flight: re-run
    /// `Init()` over it (chunk tables are per generation), keeping
    /// [`Engine::partition_loads`] cumulative.
    fn rebuild(&mut self);

    /// Admits `admitted` — jobs that share a traversal from their first
    /// sweep, each with the ids of its members in member order (several
    /// for a bundle, see `JobSpec::instantiate_cohort`) — and returns the
    /// jobs that have finished since the last call, without waiting for
    /// any. The loop calls it again only when woken: every retirement it
    /// has not returned yet must reach [`Shared::signal_retirement`], or
    /// the loop sleeps through it.
    fn advance(&mut self, admitted: Vec<(Vec<JobId>, Box<dyn GraphJob>)>) -> Vec<JobReport>;

    /// Whether any admitted job is still unfinished.
    fn in_flight(&self) -> bool;

    /// Partition loads since the runtime started.
    fn partition_loads(&self) -> u64;
}

/// The serving engine: one sweep driver for the runtime's life — `lanes`
/// long-lived workers, partition readahead fed by the §4 loading order —
/// running every non-empty drain as a *cohort* of its own.
///
/// A cohort starts the moment it is admitted, beside whatever is already
/// in flight, and never mixes with it: each is bit-identical to
/// `run_batch_single_thread` of its jobs in id order, whoever else is
/// being served (see `graphm_core::exec_parallel`). The driver wakes the
/// loop as each job retires, so a three-sweep WCC is answered while a
/// thirty-sweep PageRank of the same burst is still running.
///
/// Report mapping: vertex values, iterations, and edges processed are the
/// real algorithm outcome; `submit_ns`/`finish_ns` are wall nanoseconds
/// since the runtime started — the cohort's admission instant (equal within a cohort, distinct across
/// cohorts) and the job's own retirement; `clock.compute_ns` carries
/// `WallJobReport::busy_ms`, the summed wall time of the job's own tasks
/// (so `finish_ns − submit_ns − compute_ns` is what the job spent queued
/// behind, or paced by, everything else on the lanes); `instructions` and
/// the remaining simulated-clock fields are zero.
struct Batcher {
    store: Arc<DiskGridSource>,
    cfg: WallClockConfig,
    /// The current generation's `Init()`. Cohorts keep the one they were
    /// admitted under alive themselves.
    exec: WallClockExecutor,
    /// Outlives rebuilds: the daemon's thread count is fixed at start.
    driver: CohortDriver,
    /// Outlives rebuilds too: it keeps feeding the same store handle.
    /// (After `driver`, so dropped after it: no load of an abandoned
    /// cohort announces to a stopped readahead thread.)
    prefetcher: Prefetcher,
    /// Cohorts with a report still to come.
    cohorts: HashMap<CohortId, Admission>,
    /// Runtime start; report timestamps count from it across rebuilds, so
    /// every cohort has a distinct `submit_ns`.
    epoch: Instant,
}

/// What the reports of one cohort are mapped back with.
struct Admission {
    submit_ns: f64,
    /// Daemon ids in the order of the cohort's members (a
    /// `WallJobReport::id` indexes it).
    ids: Vec<JobId>,
    /// Reports still to come.
    left: usize,
}

impl Batcher {
    /// Serves `shared`'s store on `driver`, which wakes `shared`'s runtime
    /// at every retirement.
    fn new(shared: &Arc<Shared>, cfg: WallClockConfig, driver: CohortDriver) -> Batcher {
        let store = Arc::clone(&shared.store);
        let prefetcher = Prefetcher::spawn(Arc::clone(&store) as Arc<dyn PrefetchTarget>);
        let exec = Self::init(&store, &cfg, &prefetcher);
        let notified = Arc::clone(shared);
        driver.on_retirement(move || notified.signal_retirement());
        Batcher {
            store,
            cfg,
            exec,
            driver,
            prefetcher,
            cohorts: HashMap::new(),
            epoch: Instant::now(),
        }
    }

    fn init(
        store: &Arc<DiskGridSource>,
        cfg: &WallClockConfig,
        prefetcher: &Prefetcher,
    ) -> WallClockExecutor {
        WallClockExecutor::new(
            Arc::clone(store) as Arc<dyn PartitionSource>,
            cfg.clone(),
            Some(prefetcher.hook()),
        )
    }
}

impl Engine for Batcher {
    fn chunk_bytes(&self) -> usize {
        self.exec.chunk_bytes()
    }

    fn rebuild(&mut self) {
        debug_assert!(self.cohorts.is_empty(), "rotation only with nothing in flight");
        self.exec = Self::init(&self.store, &self.cfg, &self.prefetcher);
    }

    fn advance(&mut self, admitted: Vec<(Vec<JobId>, Box<dyn GraphJob>)>) -> Vec<JobReport> {
        if !admitted.is_empty() {
            let (ids, jobs): (Vec<Vec<JobId>>, Vec<Box<dyn GraphJob>>) =
                admitted.into_iter().unzip();
            let ids: Vec<JobId> = ids.into_iter().flatten().collect();
            let submit_ns = self.epoch.elapsed().as_nanos() as f64;
            let cohort = self.driver.admit(&self.exec, jobs);
            self.cohorts.insert(cohort, Admission { submit_ns, left: ids.len(), ids });
        }
        let retired = self.driver.retired(Duration::ZERO);
        let reports = retired.into_iter().map(|(cohort, wj)| {
            let admission = self.cohorts.get_mut(&cohort).expect("a report's cohort is known");
            let (id, submit_ns) = (admission.ids[wj.id], admission.submit_ns);
            admission.left -= 1;
            if admission.left == 0 {
                self.cohorts.remove(&cohort);
            }
            JobReport {
                id,
                name: wj.name,
                iterations: wj.iterations,
                clock: VirtualClock {
                    compute_ns: wj.busy_ms * 1e6,
                    mem_access_ns: 0.0,
                    disk_ns: 0.0,
                    sync_ns: 0.0,
                },
                instructions: 0,
                edges_processed: wj.edges_processed,
                submit_ns,
                finish_ns: submit_ns + wj.finish_ms * 1e6,
                values: wj.values,
                error: wj.error,
            }
        });
        reports.collect()
    }

    fn in_flight(&self) -> bool {
        // Not `driver.live()`: a job that has retired is in flight until
        // its report has been handed to the loop.
        !self.cohorts.is_empty()
    }

    fn partition_loads(&self) -> u64 {
        self.driver.partition_loads()
    }
}

/// Body of the `graphm-runtime` thread: serves with a [`Batcher`] until
/// shutdown drains the queue.
pub(crate) fn run(shared: &Arc<Shared>) {
    let config = &shared.config;
    run_engine(shared, || {
        let mut cfg = WallClockConfig::new(config.profile);
        cfg.state_bytes_per_vertex = config.state_bytes_per_vertex.max(1);
        Batcher::new(shared, cfg, CohortDriver::spawn_pool_sized())
    })
}

/// Builds the engine on this thread — `Init()` must not hold up
/// `Server::start` — and serves with it; the runtime's exit is published
/// whether the loop returns or unwinds.
fn run_engine<E: Engine>(shared: &Shared, build: impl FnOnce() -> E) {
    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        runtime_loop(shared, &mut build())
    }));
    if served.is_err() {
        // A runtime panic (e.g. a sweep-driver worker that died) must not
        // strand clients: stop admissions and fail every waiter cleanly
        // instead of leaving them parked on done_cv.
        shared.request_shutdown();
    }
    shared.publish_runtime_exit();
}

/// Polls the store for a newer generation (a failure is logged, not
/// fatal: a corrupt `CURRENT` / generation manifest must not look like "no
/// publish happened") and says whether one is waiting to be served:
/// staged behind the pins of what is in flight, or already adopted and
/// not yet rebuilt for.
fn generation_waits(store: &DiskGridSource, served_gen: u64) -> bool {
    if let Err(e) = store.refresh_generation() {
        eprintln!("[graphm-server] generation refresh failed, serving gen {served_gen}: {e}");
    }
    store.staged_generation().is_some() || store.generation() != served_gen
}

fn runtime_loop(shared: &Shared, engine: &mut dyn Engine) {
    let (store, config) = (&shared.store, &shared.config);
    let mut served_gen = store.generation();
    let mut last_evictions = store.residency_stats().evictions;
    let mut eviction_ewma = 0.0f64;
    // Evictions-per-admission EWMA: the admission signal for Batch
    // shedding under out-of-core thrash (see `shed_eviction_rate`).
    let mut sample_evictions = || {
        let evictions = store.residency_stats().evictions;
        eviction_ewma = 0.5 * eviction_ewma + 0.5 * evictions.saturating_sub(last_evictions) as f64;
        last_evictions = evictions;
        shared.stats.lock().eviction_rate = eviction_ewma;
    };
    // Whose in-flight quota, and which priority's budget, each admitted
    // job counts against.
    let mut admitted_as: HashMap<JobId, (String, Priority)> = HashMap::new();
    // How many more Batch-priority jobs may be in flight. Every drain
    // spends it and `publish` gives it back as Batch jobs retire, so a
    // deep Batch backlog can neither trickle past the cap one advance at
    // a time nor starve behind a steady Interactive stream.
    let mut batch_budget =
        if config.max_batch_per_round == 0 { usize::MAX } else { config.max_batch_per_round };
    shared.stats.lock().chunk_bytes = engine.chunk_bytes() as u64;
    // An admission whose evictions the EWMA has not sampled yet.
    let mut unsampled = false;
    // A newer generation waits for what is in flight to let go of the
    // old one: admit nothing more, so how stale a job can run is bounded
    // by the longest job in flight.
    let mut rotating = false;
    loop {
        let admitting = !(rotating && engine.in_flight());
        let Some(retired) = wait_for_work(shared, engine.in_flight(), admitting, batch_budget)
        else {
            break; // Shutdown with nothing queued or in flight.
        };
        // Two free-running clients keep the runtime busy for good, so the
        // store is polled at every wake-up. With nothing in flight, adopt
        // a newly published delta generation — rotate the store's view,
        // re-run Init() and recompute the merged out-degrees: jobs
        // admitted from here on run entirely against the rotated graph.
        rotating = config.auto_rotate && generation_waits(store, served_gen);
        if rotating && !engine.in_flight() {
            // Rebuild on the *observed* generation, not on what the poll
            // picked up: with several runtimes sharing one store handle,
            // a peer may have adopted the rotation first (and until it
            // has, nothing of ours holds the old one up).
            if store.generation() != served_gen {
                debug_assert!(admitted_as.is_empty(), "finished jobs published before rotation");
                served_gen = store.generation();
                engine.rebuild();
                *shared.out_degrees.lock() = Arc::new(store.out_degrees());
                shared.stats.lock().chunk_bytes = engine.chunk_bytes() as u64;
            }
            rotating = false;
        }
        // The rule is looked at again under the lock the drain takes: a
        // burst that opened since the wake-up is not split.
        let drained = if rotating {
            None
        } else {
            let mut q = shared.queue.lock();
            match q.readiness(batch_budget, config.batch_window, shared.is_shutting_down()) {
                Readiness::Drain { capped } => {
                    Some((capped, drain_admissible(&mut q, &mut batch_budget)))
                }
                Readiness::Until(_) | Readiness::Nothing => None,
            }
        };
        let mut admitted = Vec::new();
        if let Some((capped, drained)) = drained {
            if std::mem::replace(&mut unsampled, true) {
                sample_evictions();
            }
            // A round is one admission — jobs that share a traversal from
            // their first sweep. Counted before they run, so it is stable
            // by the time any of them reports done.
            {
                let mut stats = shared.stats.lock();
                stats.rounds += 1;
                stats.rounds_capped += u64::from(capped);
            }
            let mut jobs = shared.jobs.lock();
            for p in &drained {
                jobs.entries.insert(p.id, JobEntry::Running);
                admitted_as.insert(p.id, (p.tenant.clone(), p.priority));
            }
            drop(jobs);
            // Instantiated here — not at submit — so the jobs' out-degrees
            // match the generation they are admitted on; all at once, so
            // that same-kind jobs share one job of several members.
            let specs: Vec<JobSpec> = drained.iter().map(|p| p.spec).collect();
            let ids = |members: Vec<usize>| members.into_iter().map(|i| drained[i].id).collect();
            let jobs = shared.instantiate_cohort(&specs).into_iter();
            admitted = jobs.map(|(members, job)| (ids(members), job)).collect();
        }
        if admitted.is_empty() && !retired {
            continue;
        }
        let finished = engine.advance(admitted);
        publish(shared, engine.partition_loads(), &mut admitted_as, &mut batch_budget, finished);
        if unsampled && !engine.in_flight() {
            sample_evictions();
            unsampled = false;
        }
    }
}

/// Sleeps on `queue_cv` until the loop has something to do, and says
/// what: `Some(true)` when the engine signalled a retirement,
/// `Some(false)` when the queue is ready to drain (only looked at while
/// `admitting`), `None` once shutdown leaves nothing queued or in flight.
/// The only place the runtime thread blocks.
fn wait_for_work(
    shared: &Shared,
    in_flight: bool,
    admitting: bool,
    batch_budget: usize,
) -> Option<bool> {
    let mut q = shared.queue.lock();
    loop {
        if std::mem::take(&mut q.retired) {
            return Some(true);
        }
        let shutting_down = shared.is_shutting_down();
        let mut deadline = None;
        if admitting {
            match q.readiness(batch_budget, shared.config.batch_window, shutting_down) {
                Readiness::Drain { .. } => return Some(false),
                Readiness::Until(cap) => deadline = Some(cap),
                Readiness::Nothing => {}
            }
        }
        if shutting_down && q.pending.is_empty() && !in_flight {
            return None;
        }
        match deadline {
            None => shared.queue_cv.wait(&mut q),
            Some(cap) => {
                shared.queue_cv.wait_for(&mut q, cap.saturating_duration_since(Instant::now()))
            }
        }
    }
}

/// Publishes one advance: releases the finished jobs' tenant quotas and
/// Batch budget, moves the daemon-wide counters, then hands the reports
/// to the jobs table and wakes every `wait`er — in that order, so a
/// client holding its report can resubmit at once without tripping its
/// own quota.
fn publish(
    shared: &Shared,
    loads: u64,
    admitted_as: &mut HashMap<JobId, (String, Priority)>,
    batch_budget: &mut usize,
    finished: Vec<JobReport>,
) {
    let failed = finished.iter().filter(|r| r.error.is_some()).count() as u64;
    if !finished.is_empty() {
        let mut q = shared.queue.lock();
        for report in &finished {
            let (tenant, priority) =
                admitted_as.remove(&report.id).expect("finished job was admitted here");
            Queue::dec(&mut q.inflight_by_tenant, &tenant);
            if priority == Priority::Batch {
                *batch_budget += 1;
            }
        }
    }
    {
        let mut stats = shared.stats.lock();
        stats.partition_loads = loads;
        stats.jobs_completed += finished.len() as u64 - failed;
        stats.jobs_failed += failed;
    }
    if finished.is_empty() {
        return;
    }
    let mut jobs = shared.jobs.lock();
    for report in finished {
        jobs.finish(report);
    }
    drop(jobs);
    shared.done_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::protocol::Priority;
    use graphm_store::{Convert, DeltaWriter};
    use graphm_workloads::{AlgoKind, JobSpec};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// A scripted engine: every admitted job stays in flight for `hold`
    /// advances, and each call is logged with the jobs it was handed. Its
    /// clock runs in advances, so after each one that leaves a job in
    /// flight it signals a retirement to come — unless `paused`, when an
    /// advance admits but moves nothing and signals nothing: jobs in
    /// flight with no retirement coming. `looks` counts the loop's
    /// `in_flight` calls: every pass of the loop makes some, so a loop
    /// that spins without advancing shows there.
    struct Scripted {
        shared: Arc<Shared>,
        log: Arc<Mutex<Vec<String>>>,
        hold: usize,
        paused: Arc<AtomicBool>,
        looks: Arc<AtomicUsize>,
        running: Vec<(JobId, usize)>,
        advances: u64,
        panic_on_advance: bool,
    }

    impl Scripted {
        fn new(shared: &Arc<Shared>, hold: usize) -> Scripted {
            Scripted {
                shared: Arc::clone(shared),
                log: Arc::default(),
                hold,
                paused: Arc::default(),
                looks: Arc::default(),
                running: Vec::new(),
                advances: 0,
                panic_on_advance: false,
            }
        }
    }

    impl Engine for Scripted {
        fn chunk_bytes(&self) -> usize {
            4096
        }

        fn rebuild(&mut self) {
            self.log.lock().unwrap().push("rebuild".to_string());
        }

        fn advance(&mut self, admitted: Vec<(Vec<JobId>, Box<dyn GraphJob>)>) -> Vec<JobReport> {
            assert!(!self.panic_on_advance, "scripted engine failure");
            let mut ids: Vec<JobId> = admitted.into_iter().flat_map(|(ids, _)| ids).collect();
            ids.sort_unstable();
            self.log.lock().unwrap().push(format!("advance{ids:?}"));
            self.advances += 1;
            self.running.extend(ids.into_iter().map(|id| (id, self.hold)));
            if self.paused.load(Ordering::SeqCst) {
                return Vec::new();
            }
            self.running.iter_mut().for_each(|(_, left)| *left -= 1);
            let (done, running) = self.running.iter().partition(|(_, left)| *left == 0);
            self.running = running;
            if !self.running.is_empty() {
                self.shared.signal_retirement();
            }
            done.into_iter()
                .map(|(id, _): (JobId, usize)| JobReport {
                    id,
                    name: "scripted".to_string(),
                    iterations: 1,
                    clock: Default::default(),
                    instructions: 0,
                    edges_processed: 0,
                    submit_ns: 0.0,
                    finish_ns: 0.0,
                    values: Vec::new(),
                    error: None,
                })
                .collect()
        }

        fn in_flight(&self) -> bool {
            self.looks.fetch_add(1, Ordering::SeqCst);
            !self.running.is_empty()
        }

        fn partition_loads(&self) -> u64 {
            self.advances
        }
    }

    fn fixture(name: &str, configure: impl FnOnce(&mut ServerConfig)) -> Arc<Shared> {
        let dir =
            std::env::temp_dir().join(format!("graphm-runtime-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let g = graphm_graph::generators::rmat(
            64,
            400,
            graphm_graph::generators::RmatParams::GRAPH500,
            5,
        );
        Convert::grid(2).write(&g, &dir).unwrap();
        let mut config = ServerConfig::new(&dir);
        configure(&mut config);
        let store = DiskGridSource::open_shared(&dir).unwrap();
        Arc::new(Shared::new(config, store, None, None))
    }

    /// The connection the tests submit on.
    const CONN: u64 = 7;

    /// Submits a job on [`CONN`], whose burst stays open until [`settle`].
    fn enqueue(shared: &Shared, priority: Priority) -> JobId {
        let spec = JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 1 };
        let mut q = shared.queue.lock();
        let id = q.push(spec, "tenant".to_string(), priority, CONN);
        shared.jobs.lock().entries.insert(id, JobEntry::Queued);
        drop(q);
        shared.queue_cv.notify_all();
        id
    }

    /// [`CONN`] sends something other than `submit`.
    fn settle(shared: &Shared) {
        shared.end_burst(CONN);
    }

    fn wait_done(shared: &Shared, id: JobId) {
        let mut jobs = shared.jobs.lock();
        while !matches!(jobs.entries.get(&id), Some(JobEntry::Done { .. })) {
            assert!(!shared.runtime_exited.load(Ordering::SeqCst), "runtime exited early");
            shared.done_cv.wait(&mut jobs);
        }
    }

    fn wait_running(shared: &Shared, id: JobId) {
        while matches!(shared.jobs.lock().entries.get(&id), Some(JobEntry::Queued)) {
            std::thread::yield_now();
        }
    }

    /// The loop's order of business with a scripted engine in place of a
    /// real one: the cap on a burst that never settles → adopt a
    /// published generation (rebuild, out-degrees swapped) → drain in id
    /// order under the in-flight Batch bound → advance → publish
    /// (reports, counters, tenant and budget release).
    #[test]
    fn loop_adopts_then_windows_then_drains_advances_and_publishes() {
        let window = Duration::from_millis(40);
        let shared = fixture("order", |c| {
            c.batch_window = window;
            c.max_batch_per_round = 1;
        });
        // A generation published before the first round must be adopted
        // by it.
        let mut writer = DeltaWriter::open(&shared.config.store_dir).unwrap();
        writer.insert(1, 2, 1.0).unwrap();
        writer.publish().unwrap();
        drop(writer);
        let degrees_before = Arc::clone(&shared.out_degrees.lock());

        // Two batch jobs and an interactive one, all pending at the first
        // drain; the cap of one batch job in flight defers job 1. Their
        // burst never settles: only the batch window admits them.
        let submitted = Instant::now();
        let ids = [
            enqueue(&shared, Priority::Batch),
            enqueue(&shared, Priority::Batch),
            enqueue(&shared, Priority::Interactive),
        ];
        let engine = Scripted::new(&shared, 2);
        let log = Arc::clone(&engine.log);
        let mut first_done_after = Duration::ZERO;
        std::thread::scope(|scope| {
            scope.spawn(|| run_engine(&shared, || engine));
            wait_done(&shared, ids[0]);
            first_done_after = submitted.elapsed();
            ids.iter().for_each(|&id| wait_done(&shared, id));
            shared.request_shutdown();
        });

        let log = log.lock().unwrap().clone();
        let expected = [
            "rebuild",
            // The budget admits job 0 and the interactive job 2; the
            // re-drain while they are in flight finds it spent.
            "advance[0, 2]",
            "advance[]",
            // Job 0's retirement gave the budget back: job 1 is admitted
            // at the next drain, without going idle first.
            "advance[1]",
            "advance[]",
        ];
        assert_eq!(log, expected);
        assert!(first_done_after >= window, "the round waited out the batch window");
        assert_ne!(*degrees_before, **shared.out_degrees.lock(), "out-degrees follow the rotation");
        let stats = shared.stats_snapshot();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.rounds_capped, 2, "both admissions were forced by the cap");
        assert_eq!(stats.chunk_bytes, 4096);
        assert_eq!(stats.jobs_completed, 3);
        assert_eq!(stats.partition_loads, 4, "the engine's progress is published as is");
        assert!(shared.queue.lock().inflight_by_tenant.is_empty(), "tenant quota released");
        assert!(shared.runtime_exited.load(Ordering::SeqCst));
        std::fs::remove_dir_all(&shared.config.store_dir).ok();
    }

    /// Pauses `engine`, serves with it until the job `held` runs, runs
    /// `meanwhile`, then counts what the loop does over 200 ms with
    /// nothing to wake it: `(advances, looks at the engine)`. Then resumes
    /// the engine, and the loop must finish everything.
    fn activity_while_held(
        shared: &Arc<Shared>,
        engine: Scripted,
        held: JobId,
        meanwhile: impl FnOnce() -> Vec<JobId>,
    ) -> (usize, usize) {
        let (log, paused) = (Arc::clone(&engine.log), Arc::clone(&engine.paused));
        let looks = Arc::clone(&engine.looks);
        paused.store(true, Ordering::SeqCst);
        std::thread::scope(|scope| {
            scope.spawn(|| run_engine(shared, || engine));
            wait_running(shared, held);
            let ids = meanwhile();
            let before = (log.lock().unwrap().len(), looks.load(Ordering::SeqCst));
            std::thread::sleep(Duration::from_millis(200));
            let advances = log.lock().unwrap().len() - before.0;
            let looked = looks.load(Ordering::SeqCst) - before.1;
            paused.store(false, Ordering::SeqCst);
            shared.signal_retirement();
            ids.iter().chain([&held]).for_each(|&id| wait_done(shared, id));
            shared.request_shutdown();
            (advances, looked)
        })
    }

    /// The Batch budget is spent while a job is held: the retained job
    /// neither wakes the loop (nothing a drain could admit) nor forces it
    /// at the cap, so the loop sleeps until the retirement.
    #[test]
    fn a_spent_budget_does_not_spin_the_loop() {
        let shared = fixture("budget-spin", |c| {
            c.batch_window = Duration::from_millis(1);
            c.max_batch_per_round = 1;
        });
        let engine = Scripted::new(&shared, 1);
        let log = Arc::clone(&engine.log);
        let held = enqueue(&shared, Priority::Batch);
        let retained = enqueue(&shared, Priority::Batch);
        settle(&shared);
        let (advances, looks) = activity_while_held(&shared, engine, held, || vec![retained]);
        assert!(advances <= 3 && looks <= 20, "{advances} advances, {looks} looks in 200 ms");
        assert_eq!(*log.lock().unwrap(), ["advance[0]", "advance[]", "advance[1]"]);
        assert_eq!(shared.stats_snapshot().rounds, 2);
        std::fs::remove_dir_all(&shared.config.store_dir).ok();
    }

    /// A newer generation waits while a job is in flight and a settled
    /// burst is pending: the loop admits nothing and sleeps until the
    /// retirement, then rotates and admits.
    #[test]
    fn a_waiting_generation_does_not_spin_the_loop() {
        let shared = fixture("rotation-spin", |c| c.batch_window = Duration::from_millis(1));
        let engine = Scripted::new(&shared, 1);
        let log = Arc::clone(&engine.log);
        let held = enqueue(&shared, Priority::Batch);
        settle(&shared);
        let dir = shared.config.store_dir.clone();
        let (advances, looks) = activity_while_held(&shared, engine, held, || {
            let mut writer = DeltaWriter::open(&dir).unwrap();
            writer.insert(1, 2, 1.0).unwrap();
            writer.publish().unwrap();
            let pending = enqueue(&shared, Priority::Batch);
            settle(&shared);
            vec![pending]
        });
        assert!(advances <= 3 && looks <= 20, "{advances} advances, {looks} looks in 200 ms");
        assert_eq!(*log.lock().unwrap(), ["advance[0]", "advance[]", "rebuild", "advance[1]"]);
        let stats = shared.stats_snapshot();
        assert_eq!((stats.generation, stats.rounds), (1, 2));
        std::fs::remove_dir_all(&shared.config.store_dir).ok();
    }

    /// Arrivals racing retirements on the real engine: 2,000 one-job
    /// cohorts on two lanes, each submitted the moment the one before it
    /// is admitted, so its burst settles while that job retires. A lost
    /// wake-up hangs (the watchdog fails it); every report is published.
    #[test]
    fn arrivals_racing_retirements_neither_hang_nor_lose_a_report() {
        const JOBS: usize = 2_000;
        // A cap no burst reaches: a settle that failed to wake the loop
        // would cost ten seconds, not pass unseen.
        let shared = fixture("release-stress", |c| {
            c.max_done_reports = JOBS;
            c.batch_window = Duration::from_secs(10);
        });
        let (done, watchdog) = std::sync::mpsc::channel();
        let runner = Arc::clone(&shared);
        let stress = std::thread::spawn(move || {
            let shared = &runner;
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    run_engine(shared, || {
                        let cfg = WallClockConfig::new(shared.config.profile);
                        Batcher::new(shared, cfg, CohortDriver::spawn(2))
                    })
                });
                let ids: Vec<JobId> = (0..JOBS)
                    .map(|_| {
                        let id = enqueue(shared, Priority::Batch);
                        settle(shared);
                        wait_running(shared, id);
                        id
                    })
                    .collect();
                ids.iter().for_each(|&id| wait_done(shared, id));
                shared.request_shutdown();
            });
            done.send(()).ok();
        });
        watchdog.recv_timeout(Duration::from_secs(120)).expect("the runtime lost a wake-up");
        stress.join().unwrap();
        let stats = shared.stats_snapshot();
        assert_eq!((stats.rounds, stats.jobs_completed), (JOBS as u64, JOBS as u64));
        assert_eq!(stats.rounds_capped, 0);
        assert!(shared.runtime_exited.load(Ordering::SeqCst));
        std::fs::remove_dir_all(&shared.config.store_dir).ok();
    }

    /// The daemon's store, whose unpin panics. The sweep driver unpins
    /// when it drops a drained cohort, with the driver locked, outside any
    /// task's `catch_unwind`: a lane that drains a cohort over it dies.
    struct DiesUnpinning(Arc<DiskGridSource>);

    impl PartitionSource for DiesUnpinning {
        fn num_partitions(&self) -> usize {
            self.0.num_partitions()
        }
        fn num_vertices(&self) -> u32 {
            self.0.num_vertices()
        }
        fn load(&self, pid: usize) -> Arc<Vec<graphm_graph::Edge>> {
            self.0.load(pid)
        }
        fn partition_bytes(&self, pid: usize) -> usize {
            self.0.partition_bytes(pid)
        }
        fn graph_bytes(&self) -> usize {
            self.0.graph_bytes()
        }
        fn partition_active(&self, pid: usize, active: &graphm_graph::AtomicBitmap) -> bool {
            self.0.partition_active(pid, active)
        }
        fn sweep_begin(&self) {
            self.0.sweep_begin()
        }
        fn sweep_end(&self) {
            self.0.sweep_end();
            panic!("unpin panicked");
        }
    }

    /// A batcher whose executor reads the store through [`DiesUnpinning`].
    fn sabotaged(shared: &Arc<Shared>) -> Batcher {
        let cfg = WallClockConfig::new(shared.config.profile);
        let mut batcher = Batcher::new(shared, cfg.clone(), CohortDriver::spawn(2));
        let source = Arc::new(DiesUnpinning(Arc::clone(&shared.store)));
        batcher.exec = WallClockExecutor::new(source, cfg, None);
        batcher
    }

    /// A lane that dies outside a task's `catch_unwind` cannot be
    /// isolated — what it held will never retire. The batcher's next
    /// advance panics instead of waiting for it, and the runtime goes down
    /// the way it does for any engine panic: admissions stop, the exit is
    /// published, waiters fail, nothing hangs.
    #[test]
    fn a_dead_lane_takes_the_runtime_down_through_its_published_exit() {
        let shared = fixture("lane", |c| c.batch_window = Duration::from_millis(1));
        let id = enqueue(&shared, Priority::Batch);
        run_engine(&shared, || sabotaged(&shared));
        assert!(shared.is_shutting_down());
        assert!(shared.runtime_exited.load(Ordering::SeqCst));
        assert!(matches!(shared.jobs.lock().entries.get(&id), Some(JobEntry::Running)));
        std::fs::remove_dir_all(&shared.config.store_dir).ok();
    }

    /// An engine panic stops admissions and publishes the runtime's exit,
    /// so waiters fail cleanly instead of parking forever.
    #[test]
    fn engine_panic_publishes_runtime_exit() {
        let shared = fixture("panic", |c| c.batch_window = Duration::ZERO);
        let id = enqueue(&shared, Priority::Batch);
        let engine = Scripted { panic_on_advance: true, ..Scripted::new(&shared, 1) };
        run_engine(&shared, || engine);
        assert!(shared.is_shutting_down());
        assert!(shared.runtime_exited.load(Ordering::SeqCst));
        assert!(matches!(shared.jobs.lock().entries.get(&id), Some(JobEntry::Running)));
        std::fs::remove_dir_all(&shared.config.store_dir).ok();
    }
}
