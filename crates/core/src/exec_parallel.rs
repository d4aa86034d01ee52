//! Wall-clock parallel execution of real jobs: one sweep driver run by a
//! fixed set of workers.
//!
//! The deterministic paths ([`crate::runner`], [`crate::service`]) replay
//! jobs through the simulated memory hierarchy on one OS thread — the
//! right tool for bit-exact figures, the wrong one for serving real
//! traffic. This module is the wall-clock counterpart: a
//! [`WallClockExecutor`] preprocesses a [`PartitionSource`] once
//! (Formula-1 chunk sizing + Algorithm-1 labelling) and then runs batches
//! of [`GraphJob`]s through one *sweep driver*, producing
//! [`WallJobReport`]s with real elapsed times.
//!
//! # The sweep driver
//!
//! The work of a batch is cut into block-at-a-time tasks — *load the next
//! partition*, *stream chunk `c` through job `j`*, *end job `j`'s
//! iteration* — handed to the worker pool's `lanes` threads (the calling
//! thread is one of them). Sweep state sits behind one lock: the
//! [`GlobalTable`], the §4 [`loading_order`] of the current sweep, the
//! loaded partition's shared `Arc<Vec<Edge>>`, and a ready set of
//! `(next chunk, job)` ordered lowest chunk first. A worker takes the
//! lowest ready entry whose chunk index is `< min(chunks in flight) +
//! window`, moves the job out of its slot, streams that one chunk through
//! it with no lock held, and re-queues it at `chunk + 1`. Table 1's
//! programming interface maps onto it as:
//!
//! * `Sharing()` — the hand-out: one `try_load` per `(sweep, partition)`
//!   with interested jobs, by the worker that drained the previous
//!   partition (it also announces the upcoming §4 window to the
//!   [`PrefetchHook`]); jobs that do not need the partition simply have
//!   no entry in the ready set (Algorithm 2's suspend);
//! * `Start()` — the window check at hand-out: co-traversing jobs stay
//!   within `window − 1` chunks of each other (2 = lock-step, §3.4.2);
//! * `Barrier()` — the ready-set drain: the partition is dropped, and the
//!   next one loaded, when the last interested job has streamed its last
//!   chunk.
//!
//! Per job, partitions arrive in §4 order, chunks ascending, and every
//! `process_edge` of a job runs on one thread at a time — the same
//! sequence the deterministic service replays — so vertex values and
//! iteration counts are bit-identical whatever the number of workers.
//! Nothing blocks per chunk: a worker sleeps only when no task of any
//! kind is available.
//!
//! Three batch modes share the preprocessing:
//!
//! * [`WallClockExecutor::run_batch`] — the driver on the pool's lanes
//!   (the paper's `-M` scheme on real cores);
//! * [`WallClockExecutor::run_batch_single_thread`] — the same driver
//!   with the calling thread as its only worker: the single-core
//!   baseline, and the reference served batches are replayed against;
//! * [`WallClockExecutor::run_batch_exclusive`] — one thread per job with
//!   *private* loads (the `-C` baseline): every job pays `partitions ×
//!   sweeps` loads instead of sharing them.
//!
//! # Help-ahead
//!
//! Jobs saturate the lanes only while they outnumber them. A worker that
//! finds no runnable chunk *helps ahead*: it runs the order-insensitive
//! slice of an upcoming chunk of a job in the current partition and parks
//! the output for that job's in-order apply, so a single heavy job uses
//! idle lanes too (the paper's Figure-20 regime at low concurrency):
//!
//! * jobs with a [`GatherKernel`] (PageRank-family): the helper computes
//!   per-edge contributions from iteration-stable state, and the job
//!   applies them serially in edge order, so every floating-point
//!   accumulation happens in the sequential order;
//! * jobs that skip inactive vertices (BFS/SSSP/WCC): the helper scans
//!   the chunk against a per-iteration snapshot of the frontier and
//!   collects the active-source edges, and the job replays `process_edge`
//!   over exactly those edges in exactly the serial order;
//! * everything else streams serially.
//!
//! A job whose next chunk a helper is still computing is set aside — not
//! waited for — and its worker moves on to other tasks.
//!
//! Failure isolation: a failed load retires exactly the jobs that needed
//! the partition; a panic in any task of a job is caught and retires that
//! job alone. Either way the job's report carries
//! [`WallJobReport::error`] and its co-batched peers keep sweeping.

use crate::chunk::Chunk;
use crate::global_table::GlobalTable;
use crate::graphm::{GraphM, GraphMConfig};
use crate::job::{GatherKernel, GraphJob, JobId};
use crate::scheduler::{loading_order, SchedulingPolicy};
use crate::source::PartitionSource;
use graphm_graph::{AtomicBitmap, Edge, MemoryProfile};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rayon::ThreadPool;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A readahead callback: called by the worker that advances the sweep,
/// just before it loads a partition, with the ids of the partitions the
/// §4 order will load after it. Disk-backed sources hand this to a
/// `Prefetcher` thread that issues `madvise(MADV_WILLNEED)` ahead of the
/// sweep (hiding cold-store latency under compute, à la GraphD's
/// pipelined loading).
pub type PrefetchHook = Arc<dyn Fn(&[usize]) + Send + Sync>;

/// Configuration of the wall-clock execution path.
#[derive(Clone, Debug)]
pub struct WallClockConfig {
    /// Memory profile supplying Formula 1's cache/memory geometry for
    /// chunk sizing (wall-clock runs use the *real* hierarchy; the
    /// profile only sizes chunks).
    pub profile: MemoryProfile,
    /// Safety bound on iterations per job (matches
    /// `RunnerConfig::max_iterations` so modes converge identically).
    pub max_iterations: usize,
    /// Formula 1's `U_v` (job state bytes per vertex).
    pub state_bytes_per_vertex: usize,
    // The rest has one value outside this crate's own tests, which vary
    // it to reach the paths they pin.
    /// §4 loading-order policy.
    pub(crate) policy: SchedulingPolicy,
    /// Chunk pacing window: a job is handed chunk `c` only while every
    /// job co-traversing the partition is at a chunk `> c − window`, so
    /// traversal positions stay within `window − 1` chunks of each other
    /// (2 = lock-step; smaller values are clamped to 2).
    pub(crate) window: usize,
    /// Chunk-size override (tests: many chunks a partition).
    pub(crate) chunk_bytes_override: Option<usize>,
    /// Upper bound on the prefetch window: how many upcoming partitions
    /// to announce to the prefetch hook on every advance. Disk sources
    /// advise only their current feedback-controlled window of these
    /// (grow on misses, shrink when hits saturate or residency
    /// approaches the memory budget).
    pub(crate) max_prefetch_lookahead: usize,
    /// Idle workers help ahead (see the module docs). Off — every chunk
    /// streams serially on the worker that holds the job — is the serial
    /// reference the `*_fanout_matches_serial_bit_for_bit` tests compare
    /// against.
    pub(crate) chunk_fanout: bool,
}

impl WallClockConfig {
    /// Defaults over `profile`: prioritized scheduling, lock-step window,
    /// 500-iteration guard, 8-byte `U_v`, 16-deep announced lookahead,
    /// help-ahead on.
    pub fn new(profile: MemoryProfile) -> WallClockConfig {
        WallClockConfig {
            profile,
            policy: SchedulingPolicy::Prioritized,
            window: 2,
            max_iterations: 500,
            state_bytes_per_vertex: 8,
            chunk_bytes_override: None,
            max_prefetch_lookahead: 16,
            chunk_fanout: true,
        }
    }
}

impl Default for WallClockConfig {
    fn default() -> Self {
        WallClockConfig::new(MemoryProfile::DEFAULT)
    }
}

/// One job's wall-clock outcome.
#[derive(Clone, Debug)]
pub struct WallJobReport {
    /// Batch-order id (the caller maps these to its own ids).
    pub id: JobId,
    /// Algorithm name.
    pub name: String,
    /// Iterations completed.
    pub iterations: usize,
    /// Active-source edges processed.
    pub edges_processed: u64,
    /// Final per-vertex values.
    pub values: Vec<f64>,
    /// Compute: summed wall milliseconds of this job's own tasks (chunks
    /// streamed, help-ahead done for it, iteration ends). Time the job
    /// sat in the ready set, or waited for a partition it did not need,
    /// is not in here — `finish_ms − busy_ms` is what sharing the sweep
    /// cost it. (The exclusive mode runs each job on a thread of its own
    /// and reports that thread's lifetime.)
    pub busy_ms: f64,
    /// Wall milliseconds from batch start to this job's retirement.
    pub finish_ms: f64,
    /// Set when the job failed instead of converging — a shared load
    /// error (real or injected I/O fault) or a panicking kernel.
    /// `iterations`/`values` reflect whatever state the job reached.
    /// `None` = completed normally. A failed job never poisons its
    /// batch: co-batched jobs finish with their usual results.
    pub error: Option<String>,
}

/// A whole batch's wall-clock outcome.
#[derive(Clone, Debug, Default)]
pub struct WallRunReport {
    /// Per-job outcomes, batch order.
    pub jobs: Vec<WallJobReport>,
    /// Wall milliseconds for the whole batch.
    pub total_ms: f64,
    /// Partition loads performed (shared modes: one per `(sweep,
    /// partition)` with interested jobs; exclusive mode: per job).
    pub partition_loads: u64,
}

impl WallRunReport {
    /// Serving throughput over the batch.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.total_ms <= 0.0 {
            0.0
        } else {
            self.jobs.len() as f64 / (self.total_ms / 1e3)
        }
    }
}

/// Preprocessed wall-clock runtime over one source. See the module docs.
pub struct WallClockExecutor {
    source: Arc<dyn PartitionSource>,
    gm: Arc<GraphM>,
    cfg: WallClockConfig,
    prefetch: Option<PrefetchHook>,
    /// Worker pool the sweep driver runs on; `None` = the process-wide
    /// [`ThreadPool::global`] pool.
    pool: Option<Arc<ThreadPool>>,
}

impl WallClockExecutor {
    /// Runs `Init()` over `source` (one labelling traversal) and returns
    /// an executor ready to serve batches. `prefetch` is announced the
    /// upcoming loading order during shared batches.
    pub fn new(
        source: Arc<dyn PartitionSource>,
        cfg: WallClockConfig,
        prefetch: Option<PrefetchHook>,
    ) -> WallClockExecutor {
        let mut gm_cfg = GraphMConfig::new(cfg.profile);
        gm_cfg.policy = cfg.policy;
        gm_cfg.chunk_bytes_override = cfg.chunk_bytes_override;
        let gm = Arc::new(GraphM::init(source.as_ref(), cfg.state_bytes_per_vertex, gm_cfg));
        WallClockExecutor { source, gm, cfg, prefetch, pool: None }
    }

    /// Overrides the worker pool (the global pool otherwise). Tests use
    /// explicit pools so several lanes are exercised even on single-core
    /// machines.
    pub fn with_pool(mut self, pool: Arc<ThreadPool>) -> WallClockExecutor {
        self.pool = Some(pool);
        self
    }

    /// The Formula-1 chunk size the executor preprocessed with.
    pub fn chunk_bytes(&self) -> usize {
        self.gm.chunk_bytes
    }

    /// The preprocessed GraphM instance (chunk tables).
    pub fn graphm(&self) -> &GraphM {
        &self.gm
    }

    fn active_pids(&self, job: &dyn GraphJob) -> Vec<usize> {
        self.source
            .order()
            .into_iter()
            .filter(|&pid| self.gm.partition_active(pid, job.active()))
            .collect()
    }

    /// Runs `jobs` to convergence through the sweep driver on the pool's
    /// lanes, sharing one load per `(sweep, partition)`.
    pub fn run_batch(&self, jobs: Vec<Box<dyn GraphJob>>) -> WallRunReport {
        let pool = self.pool.as_deref().unwrap_or_else(|| ThreadPool::global());
        self.drive(jobs, Some(pool))
    }

    /// Runs `jobs` through the same sweep driver with the calling thread
    /// as its only worker. Identical per-job partition/chunk order to
    /// [`WallClockExecutor::run_batch`], hence identical results — this
    /// is the single-core baseline the speedup bench compares against.
    pub fn run_batch_single_thread(&self, jobs: Vec<Box<dyn GraphJob>>) -> WallRunReport {
        self.drive(jobs, None)
    }

    /// The sweep driver: the calling thread plus, with `pool`, its other
    /// lanes work the batch's tasks until every job has retired.
    fn drive(&self, jobs: Vec<Box<dyn GraphJob>>, pool: Option<&ThreadPool>) -> WallRunReport {
        let start = Instant::now();
        if jobs.is_empty() {
            return WallRunReport::default();
        }
        let lanes = pool.map_or(1, ThreadPool::num_threads);
        let help = self.cfg.chunk_fanout && lanes > 1;
        // Without help-ahead a worker is only ever of use to a job of its own.
        let workers = if help { lanes } else { lanes.min(jobs.len()) };
        let driver = Driver {
            exec: self,
            start,
            window: self.cfg.window.max(2),
            // Two chunks of lead per worker keeps every helper busy while
            // the parked outputs still fit the cache the apply reads from.
            help_ahead: if help { 2 * workers } else { 0 },
            global: GlobalTable::new(self.source.num_partitions()),
            sweep: Mutex::default(),
            wake: Condvar::new(),
        };
        {
            let mut st = driver.sweep.lock();
            for (id, job) in jobs.into_iter().enumerate() {
                driver.global.set_active_partitions(id, &self.active_pids(job.as_ref()));
                st.slots.push(Slot {
                    name: job.name().to_string(),
                    lens: driver.lens(job.as_ref()),
                    job: Some(job),
                    ..Slot::default()
                });
            }
            st.live = st.slots.len();
            driver.begin_sweep(&mut st);
        }
        // One generation pin for the whole batch, released when it ends
        // or unwinds: rotating sources never flip under an in-flight job.
        self.source.sweep_begin();
        let _pin = PinGuard(self.source.as_ref());
        match pool {
            Some(pool) if workers > 1 => pool.scope(|s| {
                for _ in 1..workers {
                    s.spawn(|| driver.work());
                }
                driver.work();
            }),
            _ => driver.work(),
        }
        let mut st = driver.sweep.lock();
        let jobs = st
            .slots
            .iter_mut()
            .map(|slot| slot.report.take().expect("workers return once every job has retired"))
            .collect();
        WallRunReport {
            jobs,
            total_ms: start.elapsed().as_secs_f64() * 1e3,
            partition_loads: st.loads,
        }
    }

    /// Runs `jobs` on one thread each with *private* loading — every job
    /// streams every active partition itself, in the engine's native
    /// order, materializing its own copy (the `-C` baseline's cost
    /// model). No sharing, no pacing.
    pub fn run_batch_exclusive(&self, jobs: Vec<Box<dyn GraphJob>>) -> WallRunReport {
        let start = Instant::now();
        if jobs.is_empty() {
            return WallRunReport::default();
        }
        let names: Vec<String> = jobs.iter().map(|j| j.name().to_string()).collect();
        let mut handles = Vec::with_capacity(jobs.len());
        for (id, mut job) in jobs.into_iter().enumerate() {
            let source = Arc::clone(&self.source);
            let gm = Arc::clone(&self.gm);
            let max_iterations = self.cfg.max_iterations;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("graphm-excl-{id}"))
                    .spawn(move || {
                        let mut loads = 0u64;
                        let mut edges_processed = 0u64;
                        let mut iters = 0usize;
                        loop {
                            let pids: Vec<usize> = source
                                .order()
                                .into_iter()
                                .filter(|&pid| gm.partition_active(pid, job.active()))
                                .collect();
                            if pids.is_empty() {
                                break;
                            }
                            let skips = job.skips_inactive();
                            for pid in pids {
                                // The private copy an independent engine
                                // process would hold.
                                let private: Vec<graphm_graph::Edge> =
                                    source.load(pid).as_ref().clone();
                                loads += 1;
                                for e in &private {
                                    if !skips || job.active().get(e.src as usize) {
                                        job.process_edge(e);
                                        edges_processed += 1;
                                    }
                                }
                            }
                            iters += 1;
                            if job.end_iteration() || iters >= max_iterations {
                                break;
                            }
                        }
                        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
                        (
                            WallJobReport {
                                id,
                                name: job.name().to_string(),
                                iterations: job.iterations(),
                                edges_processed,
                                values: job.vertex_values(),
                                busy_ms: elapsed_ms,
                                finish_ms: elapsed_ms,
                                error: None,
                            },
                            loads,
                        )
                    })
                    .expect("spawn job thread"),
            );
        }
        let mut jobs = Vec::with_capacity(handles.len());
        let mut partition_loads = 0u64;
        for (id, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok((report, loads)) => {
                    jobs.push(report);
                    partition_loads += loads;
                }
                // Private loads, no shared runtime: a panicking job only
                // owes its own failed report.
                Err(payload) => jobs.push(WallJobReport {
                    id,
                    name: names[id].clone(),
                    iterations: 0,
                    edges_processed: 0,
                    values: Vec::new(),
                    busy_ms: 0.0,
                    finish_ms: start.elapsed().as_secs_f64() * 1e3,
                    error: Some(format!("job panicked: {}", panic_message(payload.as_ref()))),
                }),
            }
        }
        WallRunReport { jobs, total_ms: start.elapsed().as_secs_f64() * 1e3, partition_loads }
    }
}

/// Renders a panic payload for a failed [`WallJobReport`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Releases the batch's generation pin, also when the batch unwinds.
struct PinGuard<'a>(&'a dyn PartitionSource);

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.0.sweep_end();
    }
}

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

/// One chunk ahead of its job's position.
enum Ahead {
    /// A helper is computing it.
    Claimed,
    /// The chunk's per-edge contributions, in edge order.
    Gathered(Vec<f64>),
    /// Chunk-relative indices of the active-source edges, ascending.
    Filtered(Vec<u32>),
}

/// One job's seat in the driver.
#[derive(Default)]
struct Slot {
    /// The job, home between its tasks; `None` while a worker runs one.
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
    /// Set at retirement.
    report: Option<WallJobReport>,
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

/// The loaded partition.
struct Part {
    pid: usize,
    /// The one shared copy of its edges.
    edges: Arc<Vec<Edge>>,
    /// The jobs it was loaded for.
    jobs: Vec<JobId>,
    /// How many of them are still streaming it.
    pending: usize,
}

/// Sweep state, behind the driver's one lock.
#[derive(Default)]
struct Sweep {
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
    loads: u64,
    /// `(next chunk, job)` of the jobs streaming `part`, lowest first.
    ready: BTreeSet<(usize, JobId)>,
    /// The chunk indices being streamed (or held by a set-aside job), at
    /// most two per worker, in no order: the window is measured from the
    /// lowest.
    inflight: Vec<usize>,
    /// Jobs done with this sweep's partitions, awaiting `end_iteration`.
    ends: VecDeque<JobId>,
    /// Workers asleep on the driver's condvar.
    sleepers: usize,
}

impl Sweep {
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
}

/// A task the sweep can hand to a worker, best first.
enum Pick {
    Load,
    End,
    Chunk(JobId, usize),
    Help(JobId, usize),
}

type Locked<'a> = MutexGuard<'a, Sweep>;

/// One batch's sweep driver. Every method taking a [`Locked`] runs one
/// task: it takes the task's inputs out of the sweep, computes with the
/// sweep unlocked, and books the outcome back.
struct Driver<'a> {
    exec: &'a WallClockExecutor,
    start: Instant,
    window: usize,
    /// How many chunks past its job's position a helper may claim; 0 =
    /// no helping ahead.
    help_ahead: usize,
    /// Partition → interested-jobs table (§3.3.1), rewritten per job at
    /// its iteration's end — like the sweep, only with the lock held.
    global: GlobalTable,
    sweep: Mutex<Sweep>,
    wake: Condvar,
}

impl Driver<'_> {
    /// A worker: runs tasks until every job has retired, sleeping only
    /// when the sweep has none to give.
    fn work(&self) {
        let mut st = self.sweep.lock();
        loop {
            st = match self.pick(&st, self.help_ahead) {
                Some(Pick::Load) => self.load(st),
                Some(Pick::End) => self.end(st),
                Some(Pick::Chunk(id, chunk)) => self.chunk(st, id, chunk),
                Some(Pick::Help(id, chunk)) => self.help(st, id, chunk),
                None if st.live == 0 => return,
                None => {
                    st.sleepers += 1;
                    self.wake.wait(&mut st);
                    st.sleepers -= 1;
                    st
                }
            };
        }
    }

    /// The best task the sweep has for a worker that would help at most
    /// `lead` chunks ahead of a job's position.
    fn pick(&self, st: &Sweep, lead: usize) -> Option<Pick> {
        if st.part.is_none() && !st.loading && !st.plan.is_empty() {
            return Some(Pick::Load);
        }
        // Before the next chunk: the job that just streamed its last one
        // is still in this worker's cache.
        if !st.ends.is_empty() {
            return Some(Pick::End);
        }
        if let Some(&(chunk, id)) = st.ready.first() {
            // `Start()`: every co-traversing job is queued at `chunk` or
            // later, so only the chunks in flight can be further behind.
            if st.inflight.iter().min().is_none_or(|&min| chunk < min + self.window) {
                return Some(Pick::Chunk(id, chunk));
            }
        }
        // Nothing runnable: help the job furthest behind with its next
        // unclaimed chunk.
        let part = st.part.as_ref().filter(|_| lead > 0)?;
        let chunks = self.exec.gm.tables[part.pid].chunks.len();
        part.jobs
            .iter()
            .filter_map(|&id| {
                let slot = &st.slots[id];
                let chunk = slot.help_to.max(slot.pos + 1);
                let open = slot.in_part && slot.error.is_none() && slot.lens.is_some();
                (open && chunk < chunks && chunk - slot.pos <= lead).then_some((chunk, id))
            })
            .min()
            .map(|(chunk, id)| Pick::Help(id, chunk))
    }

    /// Runs `task` with the sweep unlocked — waking a sleeper first when
    /// the sweep has another task to give — and returns the lock retaken,
    /// the task's output (or the message of the panic it ended in) and
    /// the wall time it took. A sleeper is woken to help only once the
    /// helpers' lead is half used up, not for every chunk the job moves.
    fn unlocked<'s, T>(
        &'s self,
        st: Locked<'s>,
        task: impl FnOnce() -> T,
    ) -> (Locked<'s>, Result<T, String>, Duration) {
        if st.sleepers > 0 && self.pick(&st, self.help_ahead / 2).is_some() {
            self.wake.notify_one();
        }
        drop(st);
        let begun = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(task))
            .map_err(|payload| format!("job panicked: {}", panic_message(payload.as_ref())));
        let took = begun.elapsed();
        (self.sweep.lock(), out, took)
    }

    /// `Sharing()`: loads the plan's next partition — one load serves
    /// every interested job — and queues those jobs at its first chunk.
    /// A failed load fails exactly them; the sweep moves on.
    fn load<'s>(&'s self, mut st: Locked<'s>) -> Locked<'s> {
        let (pid, jobs) = st.plan.pop_front().expect("picked with a plan");
        st.loading = true;
        let lookahead = self.exec.cfg.max_prefetch_lookahead.max(1);
        let upcoming: Vec<usize> = st.plan.iter().map(|&(pid, _)| pid).take(lookahead).collect();
        let (mut st, loaded, _) = self.unlocked(st, || {
            // Feed the readahead thread before paying for the load: the
            // upcoming window is advised while this partition is loaded
            // and processed.
            if let Some(hook) = self.exec.prefetch.as_ref().filter(|_| !upcoming.is_empty()) {
                hook(&upcoming);
            }
            self.exec.source.try_load(pid).map_err(|e| e.to_string())
        });
        st.loading = false;
        st.loads += 1;
        match loaded.and_then(|loaded| loaded) {
            Ok(edges) => {
                debug_assert!(!self.exec.gm.tables[pid].chunks.is_empty(), "active implies chunks");
                st.part = Some(Part { pid, edges, pending: jobs.len(), jobs: jobs.clone() });
                for id in jobs {
                    st.slots[id].in_part = true;
                    st.slots[id].help_to = 0;
                    self.queue(&mut st, id, 0);
                }
            }
            Err(msg) => {
                for id in jobs {
                    self.fail(&mut st, id, msg.clone());
                }
            }
        }
        st
    }

    /// Streams `chunk` of the loaded partition through job `id`.
    fn chunk<'s>(&'s self, mut st: Locked<'s>, id: JobId, chunk: usize) -> Locked<'s> {
        st.ready.remove(&(chunk, id));
        st.inflight.push(chunk);
        let part = st.part.as_ref().expect("a queued chunk implies a loaded partition");
        let (pid, edges) = (part.pid, Arc::clone(&part.edges));
        let slot = &mut st.slots[id];
        let mut job = slot.job.take().expect("a queued job is home");
        let parked = slot.ahead.remove(&chunk);
        let (mut st, streamed, took) = self.unlocked(st, || {
            stream(job.as_mut(), &self.exec.gm.tables[pid].chunks[chunk], &edges, parked)
        });
        st.inflight_remove(chunk);
        let slot = &mut st.slots[id];
        slot.job = Some(job);
        slot.busy += took;
        // A helper of this job may have failed it while it was away.
        let failed = slot.error.is_some();
        match streamed {
            Ok(streamed) => {
                slot.edges_processed += streamed;
                if failed {
                    self.pull(&mut st, id);
                } else {
                    self.queue(&mut st, id, chunk + 1);
                }
            }
            Err(msg) => self.fail(&mut st, id, msg),
        }
        st
    }

    /// Help-ahead: runs job `id`'s lens over `chunk` and parks the output
    /// for the job's in-order apply.
    fn help<'s>(&'s self, mut st: Locked<'s>, id: JobId, chunk: usize) -> Locked<'s> {
        let part = st.part.as_ref().expect("helping implies a loaded partition");
        let (pid, edges) = (part.pid, Arc::clone(&part.edges));
        let slot = &mut st.slots[id];
        slot.ahead.insert(chunk, Ahead::Claimed);
        slot.help_to = chunk + 1;
        let lens = slot.lens.clone().expect("picked for its lens");
        // `move`: the helper's clone of the lens must be gone before the
        // outcome is booked — the job may end its iteration right after.
        let (mut st, parked, took) = self.unlocked(st, move || {
            let chunk = &self.exec.gm.tables[pid].chunks[chunk];
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
        let slot = &mut st.slots[id];
        slot.busy += took;
        // A job pulled meanwhile (it failed elsewhere) holds no claims.
        if !matches!(slot.ahead.get(&chunk), Some(Ahead::Claimed)) {
            return st;
        }
        match parked {
            Ok(parked) => {
                slot.ahead.insert(chunk, parked);
                if slot.waiting && slot.pos == chunk {
                    slot.waiting = false;
                    st.inflight_remove(chunk);
                    st.ready.insert((chunk, id));
                }
            }
            Err(msg) => self.fail(&mut st, id, msg),
        }
        st
    }

    /// Ends job `id`'s iteration: `end_iteration`, then either its active
    /// partitions for the next sweep or its retirement. A failed job
    /// retires without ending the iteration. The last job to end begins
    /// the next sweep.
    fn end<'s>(&'s self, mut st: Locked<'s>) -> Locked<'s> {
        let id = st.ends.pop_front().expect("picked with a job to end");
        let slot = &mut st.slots[id];
        let mut job = slot.job.take().expect("a job between sweeps is home");
        slot.lens = None;
        slot.iters += 1;
        let (iters, failed) = (slot.iters, slot.error.is_some());
        let (mut st, ended, took) = self.unlocked(st, move || {
            let done = failed || job.end_iteration() || iters >= self.exec.cfg.max_iterations;
            let pids = if done { Vec::new() } else { self.exec.active_pids(job.as_ref()) };
            if pids.is_empty() {
                Err(self.report(id, job.name(), job.iterations(), job.vertex_values()))
            } else {
                Ok((self.lens(job.as_ref()), pids, job))
            }
        });
        let slot = &mut st.slots[id];
        slot.busy += took;
        let retired = match ended {
            Ok(Ok((lens, pids, job))) => {
                slot.job = Some(job);
                slot.lens = lens;
                self.global.set_active_partitions(id, &pids);
                None
            }
            Ok(Err(report)) => Some(report),
            // The job went with the panic; report what the driver knows.
            Err(msg) => {
                slot.error.get_or_insert(msg);
                Some(self.report(id, &slot.name, 0, Vec::new()))
            }
        };
        if let Some(mut report) = retired {
            let slot = &mut st.slots[id];
            report.edges_processed = slot.edges_processed;
            report.busy_ms = slot.busy.as_secs_f64() * 1e3;
            report.error = slot.error.take();
            slot.report = Some(report);
            self.global.remove_job(id);
            st.live -= 1;
        }
        st.unended -= 1;
        if st.unended == 0 {
            if st.live > 0 {
                self.begin_sweep(&mut st);
            } else {
                self.wake.notify_all();
            }
        }
        st
    }

    /// A report stamped with the time since batch start; the caller fills
    /// in what the slot accumulated.
    fn report(&self, id: JobId, name: &str, iterations: usize, values: Vec<f64>) -> WallJobReport {
        WallJobReport {
            id,
            name: name.to_string(),
            iterations,
            edges_processed: 0,
            values,
            busy_ms: 0.0,
            finish_ms: self.start.elapsed().as_secs_f64() * 1e3,
            error: None,
        }
    }

    fn lens(&self, job: &dyn GraphJob) -> Option<Lens> {
        if self.help_ahead == 0 {
            None
        } else if job.skips_inactive() {
            Some(Lens::Frontier(Arc::new(job.active().clone())))
        } else {
            job.gather_kernel().map(Lens::Kernel)
        }
    }

    /// Fixes the coming sweep's plan: the §4 loading order over the
    /// global table as the jobs' iteration ends left it.
    fn begin_sweep(&self, st: &mut Sweep) {
        let order = loading_order(&self.global, self.exec.cfg.policy);
        st.plan = order.into_iter().map(|pid| (pid, self.global.jobs_for(pid))).collect();
        let Sweep { slots, plan, ends, .. } = st;
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
                .filter(|(_, slot)| slot.report.is_none() && slot.parts_left == 0)
                .map(|(id, _)| id),
        );
        st.unended = st.live;
    }

    /// Queues job `id` at `chunk` of the loaded partition — or sets it
    /// aside while a helper still holds that chunk — or, past the last
    /// chunk, takes it off the partition (`Barrier()`), and off the sweep
    /// after its last partition.
    fn queue(&self, st: &mut Sweep, id: JobId, chunk: usize) {
        let pid = st.part.as_ref().expect("a streaming job implies a loaded partition").pid;
        if chunk < self.exec.gm.tables[pid].chunks.len() {
            st.slots[id].pos = chunk;
            if matches!(st.slots[id].ahead.get(&chunk), Some(Ahead::Claimed)) {
                st.slots[id].waiting = true;
                st.inflight.push(chunk);
            } else {
                st.ready.insert((chunk, id));
            }
            return;
        }
        st.leave_part(id);
        st.slots[id].parts_left -= 1;
        if st.slots[id].parts_left == 0 {
            st.ends.push_back(id);
        }
    }

    /// Records job `id`'s failure and drops it from the sweep's plan. A
    /// job that is home is pulled at once; one away on a worker is pulled
    /// when that worker brings it back.
    fn fail(&self, st: &mut Sweep, id: JobId, msg: String) {
        st.slots[id].error.get_or_insert(msg);
        for (_, jobs) in st.plan.iter_mut() {
            jobs.retain(|&job| job != id);
        }
        st.plan.retain(|(_, jobs)| !jobs.is_empty());
        if st.slots[id].job.is_some() {
            self.pull(st, id);
        }
    }

    /// Takes the (failed, home) job `id` off the loaded partition,
    /// wherever it stood, and queues its retirement.
    fn pull(&self, st: &mut Sweep, id: JobId) {
        if st.slots[id].in_part {
            let pos = st.slots[id].pos;
            st.ready.remove(&(pos, id));
            if std::mem::take(&mut st.slots[id].waiting) {
                st.inflight_remove(pos);
            }
            st.slots[id].ahead.clear();
            st.leave_part(id);
        }
        st.ends.push_back(id);
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
            let skips = job.skips_inactive();
            if skips && !chunk.any_active(job.active()) {
                return 0;
            }
            let mut streamed = 0;
            for e in edges {
                if !skips || job.active().get(e.src as usize) {
                    job.process_edge(e);
                    streamed += 1;
                }
            }
            streamed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CountingJob, EdgeOutcome};
    use crate::source::VecSource;
    use graphm_graph::generators;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn source(parts: usize) -> Arc<VecSource> {
        let g = generators::rmat(256, 4096, generators::RmatParams::GRAPH500, 17);
        let mut edges = g.edges.clone();
        edges.sort_by_key(|e| e.src);
        let per = edges.len().div_ceil(parts);
        Arc::new(VecSource::new(256, edges.chunks(per).map(<[_]>::to_vec).collect()))
    }

    fn counting_jobs(n: usize, iters: usize) -> Vec<Box<dyn GraphJob>> {
        (0..n).map(|_| Box::new(CountingJob::new(256, iters)) as Box<dyn GraphJob>).collect()
    }

    fn executor(parts: usize) -> WallClockExecutor {
        let cfg = WallClockConfig::new(MemoryProfile::TEST);
        WallClockExecutor::new(source(parts), cfg, None)
    }

    /// Many chunks per partition, so pacing and help-ahead have work.
    fn small_chunks() -> WallClockConfig {
        let mut cfg = WallClockConfig::new(MemoryProfile::TEST);
        cfg.chunk_bytes_override = Some(1152);
        cfg
    }

    fn pool(lanes: usize) -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(lanes))
    }

    /// A BFS-like frontier job (no gather kernel, skips inactive sources)
    /// exercising the frontier-filter help-ahead.
    struct FrontierJob {
        levels: Vec<f64>,
        active: AtomicBitmap,
        next_active: AtomicBitmap,
        discovered: bool,
        iters: usize,
    }

    impl FrontierJob {
        fn new(n: usize, root: usize) -> FrontierJob {
            let mut levels = vec![f64::INFINITY; n];
            levels[root] = 0.0;
            let active = AtomicBitmap::new(n);
            active.set(root);
            FrontierJob {
                levels,
                active,
                next_active: AtomicBitmap::new(n),
                discovered: false,
                iters: 0,
            }
        }
    }

    impl GraphJob for FrontierJob {
        fn name(&self) -> &str {
            "Frontier"
        }
        fn state_bytes_per_vertex(&self) -> usize {
            8
        }
        fn active(&self) -> &AtomicBitmap {
            &self.active
        }
        fn process_edge(&mut self, e: &Edge) -> EdgeOutcome {
            if self.levels[e.dst as usize].is_infinite() {
                self.levels[e.dst as usize] = self.levels[e.src as usize] + 1.0;
                self.next_active.set(e.dst as usize);
                self.discovered = true;
                return EdgeOutcome { activated_dst: true };
            }
            EdgeOutcome { activated_dst: false }
        }
        fn end_iteration(&mut self) -> bool {
            self.iters += 1;
            self.active.copy_from(&self.next_active);
            self.next_active.clear_all();
            let converged = !self.discovered;
            self.discovered = false;
            converged
        }
        fn iterations(&self) -> usize {
            self.iters
        }
        fn vertex_values(&self) -> Vec<f64> {
            self.levels.clone()
        }
    }

    /// Counting and frontier jobs alternating, frontier roots spread out.
    fn mixed_jobs(n: usize) -> Vec<Box<dyn GraphJob>> {
        (0..n)
            .map(|i| match i % 2 {
                0 => Box::new(CountingJob::new(256, 2 + i % 3)) as Box<dyn GraphJob>,
                _ => Box::new(FrontierJob::new(256, (i * 37) % 256)) as Box<dyn GraphJob>,
            })
            .collect()
    }

    fn assert_same_reports(a: &WallRunReport, b: &WallRunReport) {
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_eq!(a.partition_loads, b.partition_loads, "shared load count must not change");
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.name, y.name);
            assert_eq!(x.iterations, y.iterations, "job {}", x.id);
            assert_eq!(x.edges_processed, y.edges_processed, "job {}", x.id);
            assert_eq!(x.values.len(), y.values.len());
            for (va, vb) in x.values.iter().zip(&y.values) {
                assert_eq!(va.to_bits(), vb.to_bits(), "job {}", x.id);
            }
        }
    }

    /// The gather-kernel fan-out (CountingJob) on an explicit multi-lane
    /// pool produces bit-identical reports to both the no-fanout threaded
    /// path and the single-thread baseline.
    #[test]
    fn gather_fanout_matches_serial_bit_for_bit() {
        let src = source(4);
        let mut cfg = WallClockConfig::new(MemoryProfile::TEST);
        cfg.chunk_bytes_override = Some(1152); // many chunks per partition
        let fan = WallClockExecutor::new(src.clone(), cfg.clone(), None)
            .with_pool(Arc::new(ThreadPool::new(4)));
        cfg.chunk_fanout = false;
        let serial = WallClockExecutor::new(src, cfg, None);
        let a = fan.run_batch(counting_jobs(3, 3));
        let b = serial.run_batch(counting_jobs(3, 3));
        let c = fan.run_batch_single_thread(counting_jobs(3, 3));
        assert_same_reports(&a, &b);
        assert_same_reports(&a, &c);
    }

    /// The active-filter fan-out (FrontierJob skips inactive sources)
    /// produces bit-identical reports to the no-fanout path, including
    /// iteration counts driven by frontier convergence.
    #[test]
    fn filter_fanout_matches_serial_bit_for_bit() {
        let src = source(4);
        let mut cfg = WallClockConfig::new(MemoryProfile::TEST);
        cfg.chunk_bytes_override = Some(1152);
        let mk = |roots: &[usize]| {
            roots
                .iter()
                .map(|&r| Box::new(FrontierJob::new(256, r)) as Box<dyn GraphJob>)
                .collect::<Vec<_>>()
        };
        let fan = WallClockExecutor::new(src.clone(), cfg.clone(), None)
            .with_pool(Arc::new(ThreadPool::new(4)));
        cfg.chunk_fanout = false;
        let serial = WallClockExecutor::new(src, cfg, None);
        let roots = [0usize, 17, 3];
        let a = fan.run_batch(mk(&roots));
        let b = serial.run_batch(mk(&roots));
        assert_same_reports(&a, &b);
        assert!(a.jobs[0].iterations > 1, "frontier job must actually traverse");
    }

    /// Where a saboteur job panics.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Boom {
        ProcessEdge,
        Gather,
        EndIteration,
    }

    /// Set by the kernel just before it panics.
    struct BoomKernel(Arc<AtomicBool>);

    impl GatherKernel for BoomKernel {
        fn gather(&self, _edges: &[Edge], _out: &mut Vec<f64>) {
            self.0.store(true, Ordering::SeqCst);
            panic!("boom in gather");
        }
    }

    /// A counting job that panics in one of its three kinds of task.
    struct Saboteur {
        inner: CountingJob,
        boom: Boom,
        gathered: Arc<AtomicBool>,
    }

    impl Saboteur {
        fn boxed(boom: Boom) -> Box<dyn GraphJob> {
            let gathered = Arc::new(AtomicBool::new(false));
            Box::new(Saboteur { inner: CountingJob::new(256, 2), boom, gathered })
        }
    }

    impl GraphJob for Saboteur {
        fn name(&self) -> &str {
            "Boom"
        }
        fn state_bytes_per_vertex(&self) -> usize {
            8
        }
        fn skips_inactive(&self) -> bool {
            false
        }
        fn active(&self) -> &AtomicBitmap {
            self.inner.active()
        }
        fn process_edge(&mut self, e: &Edge) -> EdgeOutcome {
            match self.boom {
                Boom::ProcessEdge => panic!("boom in process_edge"),
                // Hold the job's first chunk until a helper has run the
                // kernel on a later one: the panic must come from a
                // worker that does not own the job. (Bounded, so a driver
                // that never helps fails the test instead of hanging it.)
                Boom::Gather => {
                    let begun = Instant::now();
                    while !self.gathered.load(Ordering::SeqCst)
                        && begun.elapsed() < Duration::from_secs(10)
                    {
                        std::thread::yield_now();
                    }
                }
                Boom::EndIteration => {}
            }
            self.inner.process_edge(e)
        }
        fn gather_kernel(&self) -> Option<Arc<dyn GatherKernel>> {
            (self.boom == Boom::Gather)
                .then(|| Arc::new(BoomKernel(Arc::clone(&self.gathered))) as Arc<dyn GatherKernel>)
        }
        fn end_iteration(&mut self) -> bool {
            if self.boom == Boom::EndIteration {
                panic!("boom in end_iteration");
            }
            self.inner.end_iteration()
        }
        fn iterations(&self) -> usize {
            self.inner.iterations()
        }
        fn vertex_values(&self) -> Vec<f64> {
            self.inner.vertex_values()
        }
    }

    /// A panic in any task of a job — a chunk's `process_edge`, a
    /// helper's `gather`, the iteration's end — converts to a *failed
    /// report* for that job alone: co-batched jobs finish with results
    /// bit-identical to a batch that never contained the saboteur.
    #[test]
    fn panicking_kernel_becomes_failed_report_without_poisoning_batch() {
        let exec = WallClockExecutor::new(source(2), small_chunks(), None).with_pool(pool(3));
        // Reference: the survivors without the saboteur.
        let reference = exec.run_batch(counting_jobs(2, 2));
        for (boom, says) in [
            (Boom::ProcessEdge, "boom in process_edge"),
            (Boom::Gather, "boom in gather"),
            (Boom::EndIteration, "boom in end_iteration"),
        ] {
            let mut jobs = counting_jobs(2, 2);
            jobs.push(Saboteur::boxed(boom));
            let mixed = exec.run_batch(jobs);
            assert_eq!(mixed.jobs.len(), 3);
            let failed = &mixed.jobs[2];
            assert_eq!((failed.id, failed.name.as_str()), (2, "Boom"));
            let err = failed.error.as_deref().expect("the panicking job must report an error");
            assert!(err.contains(says), "{boom:?}: error carries the panic message: {err}");
            for (r, m) in reference.jobs.iter().zip(&mixed.jobs[..2]) {
                assert!(m.error.is_none(), "{boom:?}: survivor {} must not fail", m.id);
                assert_eq!(r.iterations, m.iterations, "{boom:?}: survivor {}", m.id);
                assert_eq!(r.edges_processed, m.edges_processed, "{boom:?}: survivor {}", m.id);
                for (a, b) in r.values.iter().zip(&m.values) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{boom:?}: survivor {}", m.id);
                }
            }
        }
    }

    /// Three partitions of 240 edges whose sources tell the partition
    /// (`src / 10`) and whose weights tell the edge's place in it.
    fn striped_source() -> Arc<VecSource> {
        let partition = |pid: u32| {
            (0..240u32)
                .map(|i| Edge { src: pid * 10 + i / 24, dst: (i * 7) % 30, weight: i as f32 })
                .collect::<Vec<_>>()
        };
        Arc::new(VecSource::new(30, (0..3).map(partition).collect()))
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Mark {
        Start,
        End,
    }

    /// `(job, iteration, partition, chunk, mark)`.
    type Event = (usize, usize, usize, usize, Mark);

    /// The events in the order the jobs reached them, and the threads
    /// that streamed.
    #[derive(Default)]
    struct Trace {
        events: std::sync::Mutex<Vec<Event>>,
        threads: std::sync::Mutex<HashSet<std::thread::ThreadId>>,
    }

    /// Counts in-edges over the partitions in `pids` of a
    /// [`striped_source`] for `iters` iterations, logging the first and
    /// last edge of every chunk it streams.
    struct TraceJob {
        id: usize,
        active: AtomicBitmap,
        counts: Vec<u64>,
        iters_done: usize,
        iters: usize,
        /// `(chunk, first edge?, last edge?)` per `[partition][edge]`.
        places: Arc<Vec<Vec<(usize, bool, bool)>>>,
        trace: Arc<Trace>,
    }

    fn places(exec: &WallClockExecutor) -> Arc<Vec<Vec<(usize, bool, bool)>>> {
        let per_partition = |table: &crate::chunk::ChunkTable| {
            let chunks = table.chunks.iter().enumerate();
            chunks
                .flat_map(|(c, chunk)| {
                    let (first, last) = (chunk.edges.start, chunk.edges.end - 1);
                    chunk.edges.clone().map(move |i| (c, i == first, i == last))
                })
                .collect()
        };
        Arc::new(exec.graphm().tables.iter().map(per_partition).collect())
    }

    fn trace_job(
        id: usize,
        pids: &[u32],
        iters: usize,
        exec: &WallClockExecutor,
        trace: &Arc<Trace>,
    ) -> Box<dyn GraphJob> {
        let active = AtomicBitmap::new(30);
        for v in pids.iter().flat_map(|&pid| pid * 10..pid * 10 + 10) {
            active.set(v as usize);
        }
        Box::new(TraceJob {
            id,
            active,
            counts: vec![0; 30],
            iters_done: 0,
            iters,
            places: places(exec),
            trace: Arc::clone(trace),
        })
    }

    impl GraphJob for TraceJob {
        fn name(&self) -> &str {
            "Trace"
        }
        fn state_bytes_per_vertex(&self) -> usize {
            8
        }
        fn active(&self) -> &AtomicBitmap {
            &self.active
        }
        fn process_edge(&mut self, e: &Edge) -> EdgeOutcome {
            let pid = (e.src / 10) as usize;
            let (chunk, first, last) = self.places[pid][e.weight as usize];
            if first || last {
                self.trace.threads.lock().unwrap().insert(std::thread::current().id());
                let mut events = self.trace.events.lock().unwrap();
                if first {
                    events.push((self.id, self.iters_done, pid, chunk, Mark::Start));
                }
                if last {
                    events.push((self.id, self.iters_done, pid, chunk, Mark::End));
                }
            }
            self.counts[e.dst as usize] += 1;
            EdgeOutcome { activated_dst: true }
        }
        fn end_iteration(&mut self) -> bool {
            self.iters_done += 1;
            self.iters_done >= self.iters
        }
        fn iterations(&self) -> usize {
            self.iters_done
        }
        fn vertex_values(&self) -> Vec<f64> {
            self.counts.iter().map(|&c| c as f64).collect()
        }
    }

    /// Per job, partitions arrive in §4 order and chunks ascending; among
    /// jobs on one partition, no job starts chunk `c` while another is
    /// still before chunk `c − (window − 1)`; and no more threads than the
    /// pool has lanes ever stream.
    #[test]
    fn jobs_stream_in_section4_order_within_the_window() {
        let mut cfg = WallClockConfig::new(MemoryProfile::TEST);
        cfg.chunk_bytes_override = Some(192); // 16 edges: 15 chunks a partition
        let (window, iters) = (cfg.window, 3);
        // Formula 5 ranks partition 2 (three jobs) over 1 (two) over 0.
        let interests: [&[u32]; 3] = [&[0, 1, 2], &[2], &[1, 2]];
        let table = GlobalTable::new(3);
        for (id, pids) in interests.iter().enumerate() {
            let pids: Vec<usize> = pids.iter().map(|&p| p as usize).collect();
            table.set_active_partitions(id, &pids);
        }
        let order = loading_order(&table, cfg.policy);
        assert_eq!(order, vec![2, 1, 0]);

        for lanes in [1, 2, 4] {
            let exec =
                WallClockExecutor::new(striped_source(), cfg.clone(), None).with_pool(pool(lanes));
            let chunks = exec.graphm().tables[0].chunks.len();
            assert_eq!(chunks, 15);
            let trace = Arc::new(Trace::default());
            let jobs = interests
                .iter()
                .enumerate()
                .map(|(id, pids)| trace_job(id, pids, iters, &exec, &trace))
                .collect();
            let run = exec.run_batch(jobs);
            assert_eq!(run.partition_loads, (3 * iters) as u64);
            assert!(trace.threads.lock().unwrap().len() <= lanes, "{lanes} lanes");

            let events = trace.events.lock().unwrap();
            // Per job: every iteration walks its partitions in §4 order,
            // every partition its chunks in ascending order.
            for (id, pids) in interests.iter().enumerate() {
                let mine: Vec<_> = events.iter().filter(|e| e.0 == id).collect();
                let mut expect = Vec::new();
                for iter in 0..iters {
                    for &pid in order.iter().filter(|&&p| pids.contains(&(p as u32))) {
                        for chunk in 0..chunks {
                            expect.push((id, iter, pid, chunk, Mark::Start));
                            expect.push((id, iter, pid, chunk, Mark::End));
                        }
                    }
                }
                assert_eq!(mine, expect.iter().collect::<Vec<_>>(), "job {id}, {lanes} lanes");
            }
            // Among jobs: where each stands on the partition — the chunk
            // it is in, or the one after the chunk it last finished.
            let mut stands = std::collections::HashMap::new();
            for &(id, iter, pid, chunk, mark) in events.iter() {
                if mark == Mark::Start {
                    for (other, pids) in interests.iter().enumerate() {
                        if other != id && pids.contains(&(pid as u32)) {
                            let at = stands.get(&(other, iter, pid)).copied().unwrap_or(0);
                            assert!(
                                at + window > chunk,
                                "{lanes} lanes: job {id} starts chunk {chunk} of partition \
                                 {pid} with job {other} still at chunk {at}"
                            );
                        }
                    }
                }
                stands.insert((id, iter, pid), chunk + usize::from(mark == Mark::End));
            }
        }
    }

    /// Jobs share one load per `(sweep, partition)` with interested
    /// jobs, whatever the number of workers: the load count equals the
    /// single-worker run's.
    #[test]
    fn threaded_jobs_share_loads() {
        let src = source(4);
        let exec = WallClockExecutor::new(src, small_chunks(), None).with_pool(pool(4));
        let threaded = exec.run_batch(mixed_jobs(6));
        let single = exec.run_batch_single_thread(mixed_jobs(6));
        assert_same_reports(&threaded, &single);
        let per_job: u64 = threaded.jobs.iter().map(|j| 4 * j.iterations as u64).sum();
        assert!(threaded.partition_loads < per_job, "shared, not per-job, loads");
        // The longest job streams all four partitions every sweep.
        let sweeps = threaded.jobs.iter().map(|j| j.iterations).max().unwrap() as u64;
        assert!(threaded.partition_loads <= 4 * sweeps);
    }

    /// Jobs that need different partitions never see each other's: each
    /// partition is loaded for, and streamed by, its own job only.
    #[test]
    fn jobs_with_disjoint_partitions_suspend_each_other() {
        let mut cfg = WallClockConfig::new(MemoryProfile::TEST);
        cfg.policy = SchedulingPolicy::Default;
        let exec = WallClockExecutor::new(striped_source(), cfg, None).with_pool(pool(2));
        let trace = Arc::new(Trace::default());
        let jobs = vec![trace_job(0, &[0], 1, &exec, &trace), trace_job(1, &[1], 1, &exec, &trace)];
        let run = exec.run_batch(jobs);
        assert_eq!(run.partition_loads, 2);
        let seen: HashSet<(usize, usize)> =
            trace.events.lock().unwrap().iter().map(|e| (e.0, e.2)).collect();
        assert_eq!(seen, HashSet::from([(0, 0), (1, 1)]));
        for job in &run.jobs {
            assert_eq!(job.edges_processed, 240);
        }
    }

    #[test]
    fn single_job_runs_alone() {
        let exec = WallClockExecutor::new(source(3), small_chunks(), None).with_pool(pool(4));
        let alone = exec.run_batch(counting_jobs(1, 3));
        assert_same_reports(&alone, &exec.run_batch_single_thread(counting_jobs(1, 3)));
        assert_eq!(alone.partition_loads, 3 * 3);
        assert_eq!(alone.jobs[0].values.iter().sum::<f64>() as u64, 3 * 4096);
    }

    /// Stress: 8 lock-step jobs through many short sweeps (the tightest
    /// window — 1 clamps to 2, the lock-step spread — and tiny
    /// partitions): hand-out and sweep turnover under maximum contention.
    #[test]
    fn stress_many_short_sweeps_lock_step() {
        let (parts, jobs, iters) = (2usize, 8usize, 40usize);
        let mut cfg = small_chunks();
        cfg.policy = SchedulingPolicy::Default;
        cfg.window = 1;
        let exec = WallClockExecutor::new(source(parts), cfg, None).with_pool(pool(4));
        let run = exec.run_batch(counting_jobs(jobs, iters));
        for job in &run.jobs {
            assert!(job.error.is_none());
            assert_eq!(job.edges_processed, (4096 * iters) as u64, "every edge, every iteration");
        }
        assert_eq!(run.partition_loads, (parts * iters) as u64);
    }

    /// Counts generation pins, asserts every load happens under one, and
    /// fails the loads of `failing` partitions.
    struct PinCounting {
        inner: Arc<VecSource>,
        failing: Vec<usize>,
        begins: AtomicU64,
        ends: AtomicU64,
    }

    impl PinCounting {
        fn over(inner: Arc<VecSource>, failing: &[usize]) -> Arc<PinCounting> {
            Arc::new(PinCounting {
                inner,
                failing: failing.to_vec(),
                begins: AtomicU64::new(0),
                ends: AtomicU64::new(0),
            })
        }

        fn pins(&self) -> (u64, u64) {
            (self.begins.load(Ordering::SeqCst), self.ends.load(Ordering::SeqCst))
        }
    }

    impl PartitionSource for PinCounting {
        fn num_partitions(&self) -> usize {
            self.inner.num_partitions()
        }
        fn num_vertices(&self) -> u32 {
            self.inner.num_vertices()
        }
        fn load(&self, pid: usize) -> Arc<Vec<Edge>> {
            self.inner.load(pid)
        }
        fn try_load(&self, pid: usize) -> graphm_graph::Result<Arc<Vec<Edge>>> {
            let (begins, ends) = self.pins();
            assert!(begins > ends, "load outside a pinned batch");
            if self.failing.contains(&pid) {
                return Err(graphm_graph::GraphError::Format(format!("injected: partition {pid}")));
            }
            Ok(self.inner.load(pid))
        }
        fn partition_bytes(&self, pid: usize) -> usize {
            self.inner.partition_bytes(pid)
        }
        fn graph_bytes(&self) -> usize {
            self.inner.graph_bytes()
        }
        fn partition_active(&self, pid: usize, active: &AtomicBitmap) -> bool {
            self.inner.partition_active(pid, active)
        }
        fn sweep_begin(&self) {
            self.begins.fetch_add(1, Ordering::SeqCst);
        }
        fn sweep_end(&self) {
            self.ends.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A batch takes exactly one generation pin before its first load and
    /// releases it when it ends — also when a task panicked — so a
    /// multi-iteration job can never straddle a rotation
    /// ([`PartitionSource::sweep_begin`] is the contract delta stores use
    /// to defer adoption).
    #[test]
    fn busy_period_pins_and_unpins_the_source() {
        let src = PinCounting::over(source(2), &[]);
        let exec = WallClockExecutor::new(
            Arc::clone(&src) as Arc<dyn PartitionSource>,
            small_chunks(),
            None,
        )
        .with_pool(pool(3));
        assert_eq!(src.pins(), (0, 0), "Init() takes no pin");
        exec.run_batch(counting_jobs(3, 3));
        assert_eq!(src.pins(), (1, 1), "one pin for the whole batch, not per sweep");
        let mut jobs = counting_jobs(2, 3);
        jobs.push(Saboteur::boxed(Boom::ProcessEdge));
        jobs.push(Saboteur::boxed(Boom::EndIteration));
        let run = exec.run_batch(jobs);
        assert_eq!(run.jobs.iter().filter(|j| j.error.is_some()).count(), 2);
        assert_eq!(src.pins(), (2, 2), "released after a batch with panicking tasks");
        exec.run_batch_single_thread(counting_jobs(1, 2));
        assert_eq!(src.pins(), (3, 3));
    }

    /// A failed load fails exactly the jobs that needed the partition —
    /// each with the load's error — and the others finish as if the
    /// fault had never been there.
    #[test]
    fn failed_load_fails_exactly_the_interested_jobs() {
        let mut cfg = WallClockConfig::new(MemoryProfile::TEST);
        cfg.chunk_bytes_override = Some(192);
        let interests: [&[u32]; 4] = [&[0, 1, 2], &[0], &[1, 2], &[0, 2]];
        let run = |failing: &[usize], lanes: usize| {
            let src = PinCounting::over(striped_source(), failing);
            let exec = WallClockExecutor::new(src as Arc<dyn PartitionSource>, cfg.clone(), None)
                .with_pool(pool(lanes));
            let trace = Arc::new(Trace::default());
            let jobs = interests
                .iter()
                .enumerate()
                .map(|(id, pids)| trace_job(id, pids, 3, &exec, &trace))
                .collect();
            exec.run_batch(jobs)
        };
        let clean = run(&[], 2);
        for lanes in [1, 2, 4] {
            let faulty = run(&[1], lanes);
            for (id, (job, reference)) in faulty.jobs.iter().zip(&clean.jobs).enumerate() {
                if interests[id].contains(&1) {
                    let err = job.error.as_deref().expect("needed the failing partition");
                    assert!(err.contains("injected: partition 1"), "{err}");
                } else {
                    assert!(job.error.is_none(), "job {id} never needed partition 1");
                    assert_eq!(job.iterations, reference.iterations);
                    assert_eq!(job.edges_processed, reference.edges_processed);
                    assert_eq!(job.values, reference.values);
                }
            }
            // Sweep 1 loads 0, fails 1, loads 2; sweeps 2 and 3 load 0 and
            // 2 for the two survivors.
            assert_eq!(faulty.partition_loads, 3 + 2 + 2, "{lanes} lanes");
        }
    }

    /// Batches of 1, `lanes − 1` and 4 × `lanes` jobs on pools of 1, 2
    /// and 4 lanes all agree with the single-worker run bit for bit.
    #[test]
    fn batch_and_pool_sizes_agree_bit_for_bit() {
        for lanes in [1usize, 2, 4] {
            let exec =
                WallClockExecutor::new(source(4), small_chunks(), None).with_pool(pool(lanes));
            for jobs in [1, lanes - 1, 4 * lanes] {
                let threaded = exec.run_batch(mixed_jobs(jobs));
                let single = exec.run_batch_single_thread(mixed_jobs(jobs));
                assert_eq!(threaded.jobs.len(), jobs);
                assert_same_reports(&threaded, &single);
                assert!(threaded.jobs.iter().all(|j| j.error.is_none()));
            }
        }
    }

    #[test]
    fn threaded_and_single_thread_agree_bit_for_bit() {
        let exec = executor(4);
        let threaded = exec.run_batch(counting_jobs(4, 3));
        let single = exec.run_batch_single_thread(counting_jobs(4, 3));
        assert_eq!(threaded.jobs.len(), 4);
        assert_eq!(threaded.partition_loads, single.partition_loads, "same shared loads");
        for (t, s) in threaded.jobs.iter().zip(&single.jobs) {
            assert_eq!(t.id, s.id);
            assert_eq!(t.name, s.name);
            assert_eq!(t.iterations, s.iterations);
            assert_eq!(t.edges_processed, s.edges_processed);
            assert_eq!(t.values, s.values, "job {}", t.id);
        }
        // 4 partitions x 3 sweeps, loaded once each.
        assert_eq!(threaded.partition_loads, 12);
        assert!(threaded.total_ms > 0.0);
        assert!(threaded.jobs_per_sec() > 0.0);
    }

    #[test]
    fn exclusive_pays_per_job_loads() {
        let exec = executor(4);
        let shared = exec.run_batch(counting_jobs(3, 2));
        let exclusive = exec.run_batch_exclusive(counting_jobs(3, 2));
        // Same answers...
        for (a, b) in shared.jobs.iter().zip(&exclusive.jobs) {
            assert_eq!(a.values, b.values);
            assert_eq!(a.iterations, b.iterations);
        }
        // ...but the exclusive path loads jobs x partitions x sweeps.
        assert_eq!(exclusive.partition_loads, 3 * 4 * 2);
        assert_eq!(shared.partition_loads, 4 * 2);
    }

    #[test]
    fn empty_batch_is_empty() {
        let exec = executor(2);
        let r = exec.run_batch(Vec::new());
        assert!(r.jobs.is_empty());
        assert_eq!(r.partition_loads, 0);
        assert_eq!(exec.run_batch_single_thread(Vec::new()).jobs.len(), 0);
        assert_eq!(exec.run_batch_exclusive(Vec::new()).jobs.len(), 0);
    }
}
