//! The sweep driver: cohorts of jobs under one lock, worked one task at a
//! time by whichever lanes call [`Driver::work`]. The parent module's
//! docs describe cohorts and the pick order; this file is their
//! bookkeeping.

use super::{panic_message, Core, WallClockExecutor, WallJobReport};
use crate::chunk::Chunk;
use crate::global_table::GlobalTable;
use crate::job::{GraphJob, JobId, Retired};
use crate::scheduler::loading_order;
use crate::source::PartitionSource;
use graphm_graph::Edge;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Names a cohort of one driver, in admission order.
pub type CohortId = u64;

/// One job's seat in its cohort. A job with several members (a bundle,
/// [`GraphJob::members`]) takes one seat: one place in the plan, the
/// ready set and `Start()`'s window, one lane per chunk.
#[derive(Default)]
struct Slot {
    /// The job, home between its tasks; `None` while a worker runs one
    /// and once the job has retired.
    job: Option<Box<dyn GraphJob>>,
    name: String,
    /// The report id of the job's member 0: member `m` reports as
    /// `first + m`, so ids run through the cohort's members in admission
    /// order.
    first: JobId,
    /// The members not retired yet.
    members: Vec<usize>,
    /// Iterations ended (the `max_iterations` guard).
    iters: usize,
    /// Per member: every live member streamed the same edges.
    edges_processed: u64,
    /// Summed wall time of the job's tasks.
    busy: Duration,
    /// The first failure — a load error or a caught panic. A failed job
    /// is pulled out of the sweep and retires at its next task, every
    /// member with it.
    error: Option<String>,
    retired: bool,
    /// Partitions of the current sweep this job has yet to finish.
    parts_left: usize,
    /// Whether the job is still streaming the loaded partition.
    in_part: bool,
}

/// A cohort's loaded partition.
struct Part {
    pid: usize,
    /// The one shared copy of its edges.
    edges: Arc<Vec<Edge>>,
    /// How many of the jobs it was loaded for are still streaming it.
    pending: usize,
}

/// The cohort's share of the source's generation pin, released when the
/// cohort is dropped — drained, abandoned or unwound alike — so rotating
/// sources never flip under an in-flight job. Pins are counted: the
/// source stays pinned from the first admission until the last cohort
/// goes.
struct Pin(Arc<dyn PartitionSource>);

impl Pin {
    fn take(source: &Arc<dyn PartitionSource>) -> Pin {
        source.sweep_begin();
        Pin(Arc::clone(source))
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        self.0.sweep_end();
    }
}

/// A task a cohort can hand to a worker, best first.
enum Pick {
    Load,
    End,
    Chunk(JobId, usize),
}

/// A group of jobs admitted together: the unit that sweeps. Everything
/// §3.3–§4 keep per batch is here, so nothing in it depends on the other
/// cohorts of the driver.
struct Cohort {
    core: Arc<Core>,
    _pin: Pin,
    /// Admission instant; `finish_ms` counts from it.
    start: Instant,
    /// `Start()`'s window, at least 2.
    window: usize,
    /// Partition → interested-jobs table (§3.3.1), rewritten per job at
    /// its iteration's end.
    global: GlobalTable,
    slots: Vec<Slot>,
    /// The rest of the current sweep: `(partition, interested jobs)` in
    /// §4 order, fixed when the sweep begins.
    plan: VecDeque<(usize, Vec<JobId>)>,
    /// Live jobs whose iteration-end task for this sweep is not done.
    unended: usize,
    /// Jobs not retired.
    live: usize,
    part: Option<Part>,
    /// A worker is loading the plan's next partition.
    loading: bool,
    /// `(next chunk, job)` of the jobs streaming `part`, lowest first.
    ready: BTreeSet<(usize, JobId)>,
    /// The chunk indices being streamed, at most one per worker, in no
    /// order: the window is measured from the lowest.
    inflight: Vec<usize>,
    /// Jobs done with this sweep's partitions, awaiting `end_iteration`.
    ends: VecDeque<JobId>,
    /// Every sweep's loading order so far.
    #[cfg(test)]
    sweeps: Vec<Vec<usize>>,
}

impl Cohort {
    /// Seats `jobs` and fixes their first sweep's plan.
    fn new(core: &Arc<Core>, jobs: Vec<Box<dyn GraphJob>>) -> Cohort {
        let mut cohort = Cohort {
            core: Arc::clone(core),
            _pin: Pin::take(&core.source),
            start: Instant::now(),
            window: core.cfg.window.max(2),
            global: GlobalTable::new(core.source.num_partitions()),
            slots: Vec::with_capacity(jobs.len()),
            plan: VecDeque::new(),
            unended: 0,
            live: jobs.len(),
            part: None,
            loading: false,
            ready: BTreeSet::new(),
            inflight: Vec::new(),
            ends: VecDeque::new(),
            #[cfg(test)]
            sweeps: Vec::new(),
        };
        let mut first = 0;
        for (id, job) in jobs.into_iter().enumerate() {
            let members = job.members();
            assert!(members > 0, "a job has at least one member");
            cohort.global.set_active_partitions(id, &core.active_pids(job.as_ref()));
            cohort.global.set_members(id, members);
            cohort.slots.push(Slot {
                name: job.name().to_string(),
                job: Some(job),
                first,
                members: (0..members).collect(),
                ..Slot::default()
            });
            first += members;
        }
        cohort.begin_sweep();
        cohort
    }

    /// The cohort's next load / end / chunk task, if it has one.
    fn task(&self) -> Option<Pick> {
        if self.part.is_none() && !self.loading && !self.plan.is_empty() {
            return Some(Pick::Load);
        }
        // Before the next chunk: the job that just streamed its last one
        // is still in this worker's cache.
        if !self.ends.is_empty() {
            return Some(Pick::End);
        }
        let &(chunk, id) = self.ready.first()?;
        // `Start()`: every co-traversing job is queued at `chunk` or
        // later, so only the chunks in flight can be further behind.
        let in_window = self.inflight.iter().min().is_none_or(|&min| chunk < min + self.window);
        in_window.then_some(Pick::Chunk(id, chunk))
    }

    fn inflight_remove(&mut self, chunk: usize) {
        let at = self.inflight.iter().position(|&c| c == chunk).expect("chunk is in flight");
        self.inflight.swap_remove(at);
    }

    /// `id` is done with the loaded partition; the last one out drops it
    /// (the next pick loads the plan's next partition).
    fn leave_part(&mut self, id: JobId) {
        self.slots[id].in_part = false;
        let part = self.part.as_mut().expect("a streaming job implies a loaded partition");
        part.pending -= 1;
        if part.pending == 0 {
            self.part = None;
        }
    }

    /// Fixes the coming sweep's plan: the §4 loading order over the
    /// global table as the jobs' iteration ends left it.
    fn begin_sweep(&mut self) {
        let order = loading_order(&self.global, self.core.cfg.policy);
        #[cfg(test)]
        self.sweeps.push(order.clone());
        self.plan = order.into_iter().map(|pid| (pid, self.global.jobs_for(pid))).collect();
        let Cohort { slots, plan, ends, .. } = self;
        for slot in slots.iter_mut() {
            slot.parts_left = 0;
        }
        for &id in plan.iter().flat_map(|(_, jobs)| jobs) {
            slots[id].parts_left += 1;
        }
        // A live job with nothing to stream still ends an (empty) iteration.
        ends.extend(
            slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| !slot.retired && slot.parts_left == 0)
                .map(|(id, _)| id),
        );
        self.unended = self.live;
    }

    /// Queues job `id` at `chunk` of the loaded partition — or, past the
    /// last chunk, takes it off the partition (`Barrier()`), and off the
    /// sweep after its last partition.
    fn queue(&mut self, id: JobId, chunk: usize) {
        let pid = self.part.as_ref().expect("a streaming job implies a loaded partition").pid;
        if chunk < self.core.gm.tables[pid].chunks.len() {
            self.ready.insert((chunk, id));
            return;
        }
        self.leave_part(id);
        self.slots[id].parts_left -= 1;
        if self.slots[id].parts_left == 0 {
            self.ends.push_back(id);
        }
    }

    /// Records the failure of job `id` — home from the task that failed
    /// it, so queued nowhere — drops it from the sweep's plan and the
    /// loaded partition, and queues its retirement.
    fn fail(&mut self, id: JobId, msg: String) {
        self.slots[id].error.get_or_insert(msg);
        for (_, jobs) in self.plan.iter_mut() {
            jobs.retain(|&job| job != id);
        }
        self.plan.retain(|(_, jobs)| !jobs.is_empty());
        if self.slots[id].in_part {
            self.leave_part(id);
        }
        self.ends.push_back(id);
    }
}

/// Everything behind the driver's one lock.
#[derive(Default)]
struct State {
    cohorts: BTreeMap<CohortId, Cohort>,
    next_id: CohortId,
    /// Where the next pick starts its rotation: the cohort after the one
    /// served last.
    cursor: CohortId,
    loads: u64,
    /// Reports of retired jobs nobody has collected yet.
    retired: Vec<(CohortId, WallJobReport)>,
    /// The loading orders of every drained cohort's sweeps.
    #[cfg(test)]
    sweeps: BTreeMap<CohortId, Vec<Vec<usize>>>,
    /// Workers asleep on the driver's condvar.
    sleepers: usize,
    /// No further admissions: workers leave once the last cohort has.
    closed: bool,
    /// A worker died outside a task's `catch_unwind`. What it held is
    /// lost, so nothing still in flight can be trusted to finish.
    crashed: bool,
}

type Locked<'a> = MutexGuard<'a, State>;

/// The sweep driver. Every method taking a [`Locked`] runs one task of
/// one cohort: it takes the task's inputs out of the cohort, computes
/// with the driver unlocked, and books the outcome back — unless the
/// cohort is gone by then (abandoned with its driver), in which case the
/// outcome is dropped.
pub(super) struct Driver {
    /// How many workers are expected to call [`Driver::work`].
    lanes: usize,
    state: Mutex<State>,
    /// Workers sleep here while no cohort has a task.
    wake: Condvar,
    /// Whoever collects reports sleeps here.
    retirement: Condvar,
    /// Called with the driver unlocked after a report is handed out, and
    /// when a worker dies: how a collector that sleeps elsewhere learns of
    /// it.
    notify: OnceLock<Box<dyn Fn() + Send + Sync>>,
}

/// Marks the driver dead when the worker holding it unwinds.
struct CrashGuard<'a>(&'a Driver);

impl Drop for CrashGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.state.lock().crashed = true;
            self.0.wake.notify_all();
            self.0.retirement.notify_all();
            if let Some(notify) = self.0.notify.get() {
                notify();
            }
        }
    }
}

impl Driver {
    pub(super) fn new(lanes: usize) -> Driver {
        Driver {
            lanes: lanes.max(1),
            state: Mutex::default(),
            wake: Condvar::new(),
            retirement: Condvar::new(),
            notify: OnceLock::new(),
        }
    }

    /// Starts `jobs` as a new cohort, beside whatever is running.
    pub(super) fn admit(&self, core: &Arc<Core>, jobs: Vec<Box<dyn GraphJob>>) -> CohortId {
        // `Init()`-sized work (every job's active partitions): not under
        // the lock the lanes hand out chunks through.
        let cohort = Cohort::new(core, jobs);
        let mut st = self.state.lock();
        assert!(!st.closed, "admission to a closed driver");
        let id = st.next_id;
        st.next_id += 1;
        // (A cohort is live until its last job retires: never seat an
        // empty one.)
        if cohort.live > 0 {
            st.cohorts.insert(id, cohort);
        }
        drop(st);
        self.wake.notify_all();
        id
    }

    /// Ends admissions: workers return once every admitted job has
    /// retired.
    pub(super) fn close(&self) {
        self.state.lock().closed = true;
        self.wake.notify_all();
    }

    /// Closes the driver and drops every cohort where it stands. Tasks
    /// still out come back to nothing.
    fn abandon(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        let abandoned = std::mem::take(&mut st.cohorts);
        drop(st);
        self.wake.notify_all();
        drop(abandoned);
    }

    /// The reports retired and not yet collected — waiting up to `wait`
    /// for the first when there is none — and the loads so far.
    pub(super) fn retired(&self, wait: Duration) -> (Vec<(CohortId, WallJobReport)>, u64) {
        let deadline = Instant::now() + wait;
        let mut st = self.state.lock();
        while st.retired.is_empty() && !st.crashed {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.retirement.wait_for(&mut st, left);
        }
        assert!(!st.crashed, "a sweep-driver worker died; its cohorts cannot finish");
        (std::mem::take(&mut st.retired), st.loads)
    }

    /// A worker: runs tasks until the driver is closed and every job has
    /// retired, sleeping only when no cohort has a task to give.
    pub(super) fn work(&self) {
        let _crash = CrashGuard(self);
        let mut st = self.state.lock();
        while !st.crashed {
            st = match self.turn(st) {
                Ok(st) => st,
                Err(st) if st.closed && st.cohorts.is_empty() => return,
                Err(mut st) => {
                    st.sleepers += 1;
                    self.wake.wait(&mut st);
                    st.sleepers -= 1;
                    st
                }
            };
        }
    }

    /// Runs the best task any cohort has; `Err` hands the lock back when
    /// none has one.
    fn turn<'s>(&'s self, mut st: Locked<'s>) -> Result<Locked<'s>, Locked<'s>> {
        let Some((cohort, pick)) = self.pick(&st) else { return Err(st) };
        st.cursor = cohort + 1;
        Ok(match pick {
            Pick::Load => self.load(st, cohort),
            Pick::End => self.end(st, cohort),
            Pick::Chunk(id, chunk) => self.chunk(st, cohort, id, chunk),
        })
    }

    /// Runs up to `tasks` tasks on the calling thread and returns: how
    /// tests admit a cohort at a chosen point of the others' progress.
    #[cfg(test)]
    pub(super) fn run_tasks(&self, tasks: usize) {
        let mut st = self.state.lock();
        for _ in 0..tasks {
            match self.turn(st) {
                Ok(next) => st = next,
                Err(_) => return,
            }
        }
    }

    /// The best task for a worker: that of the first cohort in rotation
    /// with a load / end / chunk task.
    fn pick(&self, st: &State) -> Option<(CohortId, Pick)> {
        let mut rotation = st.cohorts.range(st.cursor..).chain(st.cohorts.range(..st.cursor));
        rotation.find_map(|(&id, cohort)| Some((id, cohort.task()?)))
    }

    /// Runs `task` with the driver unlocked — waking a sleeper first when
    /// there is another task to give — and returns the lock retaken, the
    /// task's output (or the message of the panic it ended in) and the
    /// wall time it took.
    fn unlocked<'s, T>(
        &'s self,
        st: Locked<'s>,
        task: impl FnOnce() -> T,
    ) -> (Locked<'s>, Result<T, String>, Duration) {
        if st.sleepers > 0 && self.pick(&st).is_some() {
            self.wake.notify_one();
        }
        drop(st);
        let begun = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(task))
            .map_err(|payload| format!("job panicked: {}", panic_message(payload.as_ref())));
        let took = begun.elapsed();
        (self.state.lock(), out, took)
    }

    /// `Sharing()`: loads the plan's next partition — one load serves
    /// every interested job of the cohort — and queues those jobs at its
    /// first chunk. A failed load fails exactly them; the sweep moves on.
    fn load<'s>(&'s self, mut st: Locked<'s>, cohort: CohortId) -> Locked<'s> {
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        let (pid, jobs) = co.plan.pop_front().expect("picked with a plan");
        co.loading = true;
        let core = Arc::clone(&co.core);
        let lookahead = core.cfg.max_prefetch_lookahead.max(1);
        let upcoming: Vec<usize> = co.plan.iter().map(|&(pid, _)| pid).take(lookahead).collect();
        let (mut st, loaded, _) = self.unlocked(st, || {
            // Feed the readahead thread before paying for the load: the
            // upcoming window is advised while this partition is loaded
            // and processed.
            if let Some(hook) = core.prefetch.as_ref().filter(|_| !upcoming.is_empty()) {
                hook(&upcoming);
            }
            core.source.try_load(pid).map_err(|e| e.to_string())
        });
        st.loads += 1;
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        co.loading = false;
        match loaded.and_then(|loaded| loaded) {
            Ok(edges) => {
                debug_assert!(!&co.core.gm.tables[pid].chunks.is_empty(), "active implies chunks");
                co.part = Some(Part { pid, edges, pending: jobs.len() });
                for id in jobs {
                    co.slots[id].in_part = true;
                    co.queue(id, 0);
                }
            }
            Err(msg) => {
                for id in jobs {
                    co.fail(id, msg.clone());
                }
            }
        }
        st
    }

    /// Streams `chunk` of the cohort's loaded partition through job `id`.
    fn chunk<'s>(
        &'s self,
        mut st: Locked<'s>,
        cohort: CohortId,
        id: JobId,
        chunk: usize,
    ) -> Locked<'s> {
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        co.ready.remove(&(chunk, id));
        co.inflight.push(chunk);
        let part = co.part.as_ref().expect("a queued chunk implies a loaded partition");
        let (pid, edges) = (part.pid, Arc::clone(&part.edges));
        let core = Arc::clone(&co.core);
        let mut job = co.slots[id].job.take().expect("a queued job is home");
        let (mut st, streamed, took) =
            self.unlocked(st, || stream(job.as_mut(), &core.gm.tables[pid].chunks[chunk], &edges));
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        co.inflight_remove(chunk);
        let slot = &mut co.slots[id];
        slot.job = Some(job);
        slot.busy += took;
        match streamed {
            Ok(streamed) => {
                slot.edges_processed += streamed;
                co.queue(id, chunk + 1);
            }
            Err(msg) => co.fail(id, msg),
        }
        st
    }

    /// Ends the iteration of the cohort's next job to have finished its
    /// sweep: `end_iteration`, then either its active partitions for the
    /// next sweep or its retirement — the reports are handed out there
    /// and then, one per member that retired. A failed job retires
    /// without ending the iteration. The last job to end begins the
    /// cohort's next sweep, or, with every job retired, drops the cohort.
    fn end<'s>(&'s self, mut st: Locked<'s>, cohort: CohortId) -> Locked<'s> {
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        let id = co.ends.pop_front().expect("picked with a job to end");
        let (core, start) = (Arc::clone(&co.core), co.start);
        let slot = &mut co.slots[id];
        let mut job = slot.job.take().expect("a job between sweeps is home");
        slot.iters += 1;
        let (iters, failed) = (slot.iters, slot.error.is_some());
        let (mut st, ended, took) = self.unlocked(st, move || {
            let done = failed || job.end_iteration() || iters >= core.cfg.max_iterations;
            let pids = if done { Vec::new() } else { core.active_pids(job.as_ref()) };
            let retired = job.retire_members(pids.is_empty());
            (retired, (!pids.is_empty()).then_some((pids, job)))
        });
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        let slot = &mut co.slots[id];
        slot.busy += took;
        let retired = match ended {
            Ok((retired, going_on)) => {
                if let Some((pids, job)) = going_on {
                    slot.job = Some(job);
                    co.global.set_active_partitions(id, &pids);
                }
                retired
            }
            // The job went with the panic; report what the driver knows.
            Err(msg) => {
                slot.error.get_or_insert(msg);
                let members = slot.members.iter();
                members
                    .map(|&member| Retired { member, iterations: 0, values: Vec::new() })
                    .collect()
            }
        };
        slot.members.retain(|member| retired.iter().all(|r| r.member != *member));
        let reports: Vec<_> = retired.into_iter().map(|r| report(slot, r, start)).collect();
        if slot.members.is_empty() {
            // (Every member retired: the job goes even if it had meant to
            // run on.)
            slot.job = None;
        }
        if slot.job.is_none() {
            debug_assert!(slot.members.is_empty(), "a finished job retires every member");
            slot.retired = true;
            co.global.remove_job(id);
            co.live -= 1;
        } else {
            co.global.set_members(id, slot.members.len());
        }
        co.unended -= 1;
        if co.unended == 0 && co.live > 0 {
            co.begin_sweep();
        }
        if co.live == 0 {
            let _drained = st.cohorts.remove(&cohort);
            #[cfg(test)]
            st.sweeps.insert(cohort, _drained.expect("the cohort is seated").sweeps);
        }
        if !reports.is_empty() {
            st.retired.extend(reports.into_iter().map(|report| (cohort, report)));
            self.retirement.notify_all();
            if st.closed && st.cohorts.is_empty() {
                self.wake.notify_all();
            }
            if let Some(notify) = self.notify.get() {
                drop(st);
                notify();
                st = self.state.lock();
            }
        }
        st
    }

    /// The loading order of each sweep of `cohort`, once it has drained.
    #[cfg(test)]
    pub(super) fn sweeps(&self, cohort: CohortId) -> Vec<Vec<usize>> {
        self.state.lock().sweeps.get(&cohort).cloned().unwrap_or_default()
    }
}

/// The report of `slot`'s member `retired`, stamped with the time since
/// its cohort's admission.
fn report(slot: &Slot, retired: Retired, start: Instant) -> WallJobReport {
    WallJobReport {
        id: slot.first + retired.member,
        name: slot.name.clone(),
        iterations: retired.iterations,
        edges_processed: slot.edges_processed,
        values: retired.values,
        busy_ms: slot.busy.as_secs_f64() * 1e3,
        finish_ms: start.elapsed().as_secs_f64() * 1e3,
        error: slot.error.clone(),
    }
}

/// Streams one chunk of `edges` (its partition) through `job` in one
/// [`GraphJob::process_chunk`] call — none when the job skips inactive
/// sources and the chunk has no active one.
fn stream(job: &mut dyn GraphJob, chunk: &Chunk, edges: &[Edge]) -> u64 {
    if job.skips_inactive() && !chunk.any_active(job.active()) {
        return 0;
    }
    job.process_chunk(&edges[chunk.edges.clone()])
}

/// A long-lived sweep driver with worker threads of its own: cohorts are
/// admitted while others run, and reports come out as jobs retire. See
/// the [module docs](super) for what cohorts share and what they do not.
///
/// The thread count is fixed at [`CohortDriver::spawn`], whatever the
/// number of cohorts. Dropping the driver abandons whatever is still in
/// flight and joins the workers.
pub struct CohortDriver {
    driver: Arc<Driver>,
    workers: Vec<JoinHandle<()>>,
}

impl CohortDriver {
    /// Starts as many workers as [`WallClockExecutor::run_batch`] has lanes
    /// on the process-wide pool (`RAYON_NUM_THREADS`, else the core
    /// count) — without starting that pool.
    pub fn spawn_pool_sized() -> CohortDriver {
        CohortDriver::spawn(rayon::current_num_threads())
    }

    /// Starts `lanes` workers (at least one), idle until the first
    /// admission.
    pub fn spawn(lanes: usize) -> CohortDriver {
        let driver = Arc::new(Driver::new(lanes));
        let workers = (0..driver.lanes)
            .map(|lane| {
                let driver = Arc::clone(&driver);
                std::thread::Builder::new()
                    .name(format!("graphm-lane-{lane}"))
                    .spawn(move || driver.work())
                    .expect("spawn a sweep-driver worker")
            })
            .collect();
        CohortDriver { driver, workers }
    }

    /// Starts `jobs` as a new cohort over what `exec` preprocessed, at
    /// once and beside whatever is already running. Its reports carry
    /// each member's place in the cohort as their id (one member per
    /// job, unless a job holds several: [`GraphJob::members`]), and are
    /// bit-identical to `exec.run_batch_single_thread(jobs)` whatever
    /// else is in flight.
    /// The cohort keeps the executor's preprocessing alive by itself:
    /// `exec` may be dropped or replaced while it runs.
    pub fn admit(&self, exec: &WallClockExecutor, jobs: Vec<Box<dyn GraphJob>>) -> CohortId {
        self.driver.admit(&exec.core, jobs)
    }

    /// The reports of the jobs that retired since the last call, each
    /// with its cohort, in retirement order. Returns as soon as there is
    /// one; with none, waits up to `wait` for the first.
    ///
    /// # Panics
    ///
    /// When a worker died outside a task (a bug in the driver): what it
    /// held can never retire, so waiting would hang.
    pub fn retired(&self, wait: Duration) -> Vec<(CohortId, WallJobReport)> {
        self.driver.retired(wait).0
    }

    /// Installs `notify`, called after every report is handed out — with
    /// the driver unlocked, on the worker that retired the job — and when
    /// a worker dies, so a collector sleeping on a condition of its own
    /// can call [`CohortDriver::retired`] without waiting. Install it
    /// before the first admission.
    ///
    /// # Panics
    ///
    /// When the driver already has a notifier.
    pub fn on_retirement(&self, notify: impl Fn() + Send + Sync + 'static) {
        let installed = self.driver.notify.set(Box::new(notify)).is_ok();
        assert!(installed, "one retirement notifier per driver");
    }

    /// Jobs admitted and not yet retired, every member of a bundle
    /// counted.
    pub fn live(&self) -> usize {
        let st = self.driver.state.lock();
        let slots = st.cohorts.values().flat_map(|cohort| &cohort.slots);
        slots.map(|slot| slot.members.len()).sum()
    }

    /// Partition loads since the driver started, over all cohorts.
    pub fn partition_loads(&self) -> u64 {
        self.driver.state.lock().loads
    }
}

impl Drop for CohortDriver {
    fn drop(&mut self) {
        self.driver.abandon();
        for worker in self.workers.drain(..) {
            // A worker's panic was already published through `crashed`.
            let _ = worker.join();
        }
    }
}
