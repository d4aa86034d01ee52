//! The sweep driver: cohorts of jobs under one lock, worked one task at a
//! time by whichever lanes call [`Driver::work`]. The parent module's
//! docs describe cohorts, the pick order and help-ahead; this file is
//! their bookkeeping.

use super::{panic_message, Core, WallClockExecutor, WallJobReport};
use crate::chunk::Chunk;
use crate::global_table::GlobalTable;
use crate::job::{GatherKernel, GraphJob, JobId};
use crate::scheduler::loading_order;
use crate::source::PartitionSource;
use graphm_graph::{AtomicBitmap, Edge};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Names a cohort of one driver, in admission order.
pub type CohortId = u64;

/// The iteration-stable half of a job's edge function — what helping
/// ahead for the job takes. Re-extracted every iteration and dropped
/// before `end_iteration` mutates the state it shares.
#[derive(Clone)]
enum Lens {
    Kernel(Arc<dyn GatherKernel>),
    /// A copy of [`GraphJob::active`], stable for the iteration by the
    /// trait contract.
    Frontier(Arc<AtomicBitmap>),
}

impl Lens {
    /// `job`'s lens for the coming iteration — none where nobody helps
    /// ahead, or the job has nothing order-insensitive to offer.
    fn of(job: &dyn GraphJob, helps: bool) -> Option<Lens> {
        if !helps {
            None
        } else if job.skips_inactive() {
            Some(Lens::Frontier(Arc::new(job.active().clone())))
        } else {
            job.gather_kernel().map(Lens::Kernel)
        }
    }
}

/// One chunk ahead of its job's position.
enum Ahead {
    /// A helper is computing it.
    Claimed,
    /// The chunk's per-edge contributions, in edge order.
    Gathered(Vec<f64>),
    /// Chunk-relative indices of the active-source edges, ascending.
    Filtered(Vec<u32>),
}

/// One job's seat in its cohort.
#[derive(Default)]
struct Slot {
    /// The job, home between its tasks; `None` while a worker runs one
    /// and once the job has retired.
    job: Option<Box<dyn GraphJob>>,
    name: String,
    /// Iterations ended (the `max_iterations` guard).
    iters: usize,
    edges_processed: u64,
    /// Summed wall time of the job's tasks.
    busy: Duration,
    /// The first failure — a load error or a caught panic. A failed job
    /// is pulled out of the sweep and retires at its next task.
    error: Option<String>,
    retired: bool,
    lens: Option<Lens>,
    /// Partitions of the current sweep this job has yet to finish.
    parts_left: usize,
    /// Whether the job is still streaming the loaded partition.
    in_part: bool,
    /// The chunk the job is queued at, streaming, or set aside at.
    pos: usize,
    /// Set aside: a helper holds chunk `pos` and has not parked it yet.
    /// `pos` stays in the in-flight set meanwhile, so the window holds.
    waiting: bool,
    /// Chunks past `pos` that helpers have claimed or parked.
    ahead: BTreeMap<usize, Ahead>,
    /// First chunk no helper has claimed (claims only move forward).
    help_to: usize,
}

/// A cohort's loaded partition.
struct Part {
    pid: usize,
    /// The one shared copy of its edges.
    edges: Arc<Vec<Edge>>,
    /// The jobs it was loaded for.
    jobs: Vec<JobId>,
    /// How many of them are still streaming it.
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
    Help(JobId, usize),
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
    /// How many chunks past its job's position a helper may claim; 0 =
    /// no helping ahead.
    help_ahead: usize,
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
    /// The chunk indices being streamed (or held by a set-aside job), at
    /// most two per worker, in no order: the window is measured from the
    /// lowest.
    inflight: Vec<usize>,
    /// Jobs done with this sweep's partitions, awaiting `end_iteration`.
    ends: VecDeque<JobId>,
}

impl Cohort {
    /// Seats `jobs` and fixes their first sweep's plan.
    fn new(core: &Arc<Core>, help_ahead: usize, jobs: Vec<Box<dyn GraphJob>>) -> Cohort {
        let mut cohort = Cohort {
            core: Arc::clone(core),
            _pin: Pin::take(&core.source),
            start: Instant::now(),
            window: core.cfg.window.max(2),
            help_ahead,
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
        };
        for (id, job) in jobs.into_iter().enumerate() {
            cohort.global.set_active_partitions(id, &core.active_pids(job.as_ref()));
            cohort.slots.push(Slot {
                name: job.name().to_string(),
                lens: Lens::of(job.as_ref(), help_ahead > 0),
                job: Some(job),
                ..Slot::default()
            });
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

    /// Help-ahead for the job furthest behind on the loaded partition:
    /// its next unclaimed chunk, at most `lead` past its position.
    fn help(&self, lead: usize) -> Option<Pick> {
        let part = self.part.as_ref().filter(|_| lead > 0)?;
        let chunks = self.core.gm.tables[part.pid].chunks.len();
        part.jobs
            .iter()
            .filter_map(|&id| {
                let slot = &self.slots[id];
                let chunk = slot.help_to.max(slot.pos + 1);
                let open = slot.in_part && slot.error.is_none() && slot.lens.is_some();
                (open && chunk < chunks && chunk - slot.pos <= lead).then_some((chunk, id))
            })
            .min()
            .map(|(chunk, id)| Pick::Help(id, chunk))
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

    /// Queues job `id` at `chunk` of the loaded partition — or sets it
    /// aside while a helper still holds that chunk — or, past the last
    /// chunk, takes it off the partition (`Barrier()`), and off the sweep
    /// after its last partition.
    fn queue(&mut self, id: JobId, chunk: usize) {
        let pid = self.part.as_ref().expect("a streaming job implies a loaded partition").pid;
        if chunk < self.core.gm.tables[pid].chunks.len() {
            self.slots[id].pos = chunk;
            if matches!(self.slots[id].ahead.get(&chunk), Some(Ahead::Claimed)) {
                self.slots[id].waiting = true;
                self.inflight.push(chunk);
            } else {
                self.ready.insert((chunk, id));
            }
            return;
        }
        self.leave_part(id);
        self.slots[id].parts_left -= 1;
        if self.slots[id].parts_left == 0 {
            self.ends.push_back(id);
        }
    }

    /// Records job `id`'s failure and drops it from the sweep's plan. A
    /// job that is home is pulled at once; one away on a worker is pulled
    /// when that worker brings it back.
    fn fail(&mut self, id: JobId, msg: String) {
        self.slots[id].error.get_or_insert(msg);
        for (_, jobs) in self.plan.iter_mut() {
            jobs.retain(|&job| job != id);
        }
        self.plan.retain(|(_, jobs)| !jobs.is_empty());
        if self.slots[id].job.is_some() {
            self.pull(id);
        }
    }

    /// Takes the (failed, home) job `id` off the loaded partition,
    /// wherever it stood, and queues its retirement.
    fn pull(&mut self, id: JobId) {
        if self.slots[id].in_part {
            let pos = self.slots[id].pos;
            self.ready.remove(&(pos, id));
            if std::mem::take(&mut self.slots[id].waiting) {
                self.inflight_remove(pos);
            }
            self.slots[id].ahead.clear();
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

    /// Whether cohorts over `core` help ahead on this driver: there must
    /// be a lane to spare.
    pub(super) fn helps(&self, core: &Core) -> bool {
        core.cfg.chunk_fanout && self.lanes > 1
    }

    /// Starts `jobs` as a new cohort, beside whatever is running.
    pub(super) fn admit(&self, core: &Arc<Core>, jobs: Vec<Box<dyn GraphJob>>) -> CohortId {
        // Two chunks of lead per worker keeps every helper busy while
        // the parked outputs still fit the cache the apply reads from.
        let help_ahead = if self.helps(core) { 2 * self.lanes } else { 0 };
        // `Init()`-sized work (every job's active partitions): not under
        // the lock the lanes hand out chunks through.
        let cohort = Cohort::new(core, help_ahead, jobs);
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
        let Some((cohort, pick)) = self.pick(&st, 1) else { return Err(st) };
        st.cursor = cohort + 1;
        Ok(match pick {
            Pick::Load => self.load(st, cohort),
            Pick::End => self.end(st, cohort),
            Pick::Chunk(id, chunk) => self.chunk(st, cohort, id, chunk),
            Pick::Help(id, chunk) => self.help(st, cohort, id, chunk),
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

    /// The best task for a worker: the first cohort in rotation with a
    /// load / end / chunk task; failing that, the first with a chunk to
    /// help ahead on, using one `share`-th of its lead.
    fn pick(&self, st: &State, share: usize) -> Option<(CohortId, Pick)> {
        let rotation = || st.cohorts.range(st.cursor..).chain(st.cohorts.range(..st.cursor));
        rotation().find_map(|(&id, cohort)| Some((id, cohort.task()?))).or_else(|| {
            rotation().find_map(|(&id, cohort)| Some((id, cohort.help(cohort.help_ahead / share)?)))
        })
    }

    /// Runs `task` with the driver unlocked — waking a sleeper first when
    /// there is another task to give — and returns the lock retaken, the
    /// task's output (or the message of the panic it ended in) and the
    /// wall time it took. A sleeper is woken to help only once the
    /// helpers' lead is half used up, not for every chunk the job moves.
    fn unlocked<'s, T>(
        &'s self,
        st: Locked<'s>,
        task: impl FnOnce() -> T,
    ) -> (Locked<'s>, Result<T, String>, Duration) {
        if st.sleepers > 0 && self.pick(&st, 2).is_some() {
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
                co.part = Some(Part { pid, edges, pending: jobs.len(), jobs: jobs.clone() });
                for id in jobs {
                    co.slots[id].in_part = true;
                    co.slots[id].help_to = 0;
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
        let slot = &mut co.slots[id];
        let mut job = slot.job.take().expect("a queued job is home");
        let parked = slot.ahead.remove(&chunk);
        let (mut st, streamed, took) = self.unlocked(st, || {
            stream(job.as_mut(), &core.gm.tables[pid].chunks[chunk], &edges, parked)
        });
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        co.inflight_remove(chunk);
        let slot = &mut co.slots[id];
        slot.job = Some(job);
        slot.busy += took;
        // A helper of this job may have failed it while it was away.
        let failed = slot.error.is_some();
        match streamed {
            Ok(streamed) => {
                slot.edges_processed += streamed;
                if failed {
                    co.pull(id);
                } else {
                    co.queue(id, chunk + 1);
                }
            }
            Err(msg) => co.fail(id, msg),
        }
        st
    }

    /// Help-ahead: runs job `id`'s lens over `chunk` and parks the output
    /// for the job's in-order apply.
    fn help<'s>(
        &'s self,
        mut st: Locked<'s>,
        cohort: CohortId,
        id: JobId,
        chunk: usize,
    ) -> Locked<'s> {
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        let part = co.part.as_ref().expect("helping implies a loaded partition");
        let (pid, edges) = (part.pid, Arc::clone(&part.edges));
        let core = Arc::clone(&co.core);
        let slot = &mut co.slots[id];
        slot.ahead.insert(chunk, Ahead::Claimed);
        slot.help_to = chunk + 1;
        let lens = slot.lens.clone().expect("picked for its lens");
        // `move`: the helper's clone of the lens must be gone before the
        // outcome is booked — the job may end its iteration right after.
        let (mut st, parked, took) = self.unlocked(st, move || {
            let chunk = &core.gm.tables[pid].chunks[chunk];
            let edges = &edges[chunk.edges.clone()];
            match lens {
                Lens::Kernel(kernel) => {
                    let mut gathered = Vec::with_capacity(edges.len());
                    kernel.gather(edges, &mut gathered);
                    Ahead::Gathered(gathered)
                }
                Lens::Frontier(frontier) => {
                    assert!(edges.len() <= u32::MAX as usize, "chunks are cache-sized");
                    let mut active = Vec::new();
                    // Same chunk-level skip the serial loop performs.
                    if chunk.any_active(&frontier) {
                        for (i, e) in edges.iter().enumerate() {
                            if frontier.get(e.src as usize) {
                                active.push(i as u32);
                            }
                        }
                    }
                    Ahead::Filtered(active)
                }
            }
        });
        // A job pulled meanwhile (it failed elsewhere) holds no claims,
        // and its whole cohort may have drained behind it.
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        let slot = &mut co.slots[id];
        slot.busy += took;
        if !matches!(slot.ahead.get(&chunk), Some(Ahead::Claimed)) {
            return st;
        }
        match parked {
            Ok(parked) => {
                slot.ahead.insert(chunk, parked);
                if slot.waiting && slot.pos == chunk {
                    slot.waiting = false;
                    co.inflight_remove(chunk);
                    co.ready.insert((chunk, id));
                }
            }
            Err(msg) => co.fail(id, msg),
        }
        st
    }

    /// Ends the iteration of the cohort's next job to have finished its
    /// sweep: `end_iteration`, then either its active partitions for the
    /// next sweep or its retirement — the report is handed out there and
    /// then. A failed job retires without ending the iteration. The last
    /// job to end begins the cohort's next sweep, or, with every job
    /// retired, drops the cohort.
    fn end<'s>(&'s self, mut st: Locked<'s>, cohort: CohortId) -> Locked<'s> {
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        let id = co.ends.pop_front().expect("picked with a job to end");
        let (core, start, helps) = (Arc::clone(&co.core), co.start, co.help_ahead > 0);
        let slot = &mut co.slots[id];
        let mut job = slot.job.take().expect("a job between sweeps is home");
        slot.lens = None;
        slot.iters += 1;
        let (iters, failed) = (slot.iters, slot.error.is_some());
        let (mut st, ended, took) = self.unlocked(st, move || {
            let done = failed || job.end_iteration() || iters >= core.cfg.max_iterations;
            let pids = if done { Vec::new() } else { core.active_pids(job.as_ref()) };
            if pids.is_empty() {
                Err(report(id, job.name(), job.iterations(), job.vertex_values(), start))
            } else {
                Ok((Lens::of(job.as_ref(), helps), pids, job))
            }
        });
        let Some(co) = st.cohorts.get_mut(&cohort) else { return st };
        let slot = &mut co.slots[id];
        slot.busy += took;
        let retired = match ended {
            Ok(Ok((lens, pids, job))) => {
                slot.job = Some(job);
                slot.lens = lens;
                co.global.set_active_partitions(id, &pids);
                None
            }
            Ok(Err(report)) => Some(report),
            // The job went with the panic; report what the driver knows.
            Err(msg) => {
                slot.error.get_or_insert(msg);
                Some(report(id, &slot.name, 0, Vec::new(), start))
            }
        };
        let retired = retired.map(|mut report| {
            let slot = &mut co.slots[id];
            report.edges_processed = slot.edges_processed;
            report.busy_ms = slot.busy.as_secs_f64() * 1e3;
            report.error = slot.error.take();
            slot.retired = true;
            co.global.remove_job(id);
            co.live -= 1;
            report
        });
        co.unended -= 1;
        if co.unended == 0 && co.live > 0 {
            co.begin_sweep();
        }
        if co.live == 0 {
            st.cohorts.remove(&cohort);
        }
        if let Some(report) = retired {
            st.retired.push((cohort, report));
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
}

/// A report stamped with the time since its cohort's admission; the
/// caller fills in what the slot accumulated.
fn report(
    id: JobId,
    name: &str,
    iterations: usize,
    values: Vec<f64>,
    start: Instant,
) -> WallJobReport {
    WallJobReport {
        id,
        name: name.to_string(),
        iterations,
        edges_processed: 0,
        values,
        busy_ms: 0.0,
        finish_ms: start.elapsed().as_secs_f64() * 1e3,
        error: None,
    }
}

/// Streams one chunk of `edges` (its partition) through `job`: applies
/// what a helper parked for it, or runs the serial loop.
fn stream(job: &mut dyn GraphJob, chunk: &Chunk, edges: &[Edge], parked: Option<Ahead>) -> u64 {
    let edges = &edges[chunk.edges.clone()];
    match parked {
        Some(Ahead::Gathered(gathered)) => {
            debug_assert_eq!(gathered.len(), edges.len(), "kernel must gather every edge");
            job.apply_gathered_chunk(edges, &gathered)
        }
        Some(Ahead::Filtered(active)) => {
            for &i in &active {
                job.process_edge(&edges[i as usize]);
            }
            active.len() as u64
        }
        Some(Ahead::Claimed) => unreachable!("a job is set aside while a helper holds its chunk"),
        None => {
            if job.skips_inactive() && !chunk.any_active(job.active()) {
                return 0;
            }
            job.process_chunk(edges)
        }
    }
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
    /// each job's place in `jobs` as their id, and are bit-identical to
    /// `exec.run_batch_single_thread(jobs)` whatever else is in flight.
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

    /// Jobs admitted and not yet retired.
    pub fn live(&self) -> usize {
        self.driver.state.lock().cohorts.values().map(|cohort| cohort.live).sum()
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
