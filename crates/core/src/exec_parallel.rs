//! Wall-clock parallel execution of real jobs: one sweep driver that runs
//! concurrent *cohorts* of jobs on a fixed set of lanes.
//!
//! The deterministic paths ([`crate::runner`], [`crate::service`]) replay
//! jobs through the simulated memory hierarchy on one OS thread — the
//! right tool for bit-exact figures, the wrong one for serving real
//! traffic. This module is the wall-clock counterpart: a
//! [`WallClockExecutor`] preprocesses a [`PartitionSource`] once
//! (Formula-1 chunk sizing + Algorithm-1 labelling) and then runs
//! [`GraphJob`]s through the *sweep driver*, producing [`WallJobReport`]s
//! with real elapsed times.
//!
//! # Cohorts
//!
//! A **cohort** is a group of jobs admitted together. It is the unit the
//! driver sweeps: a cohort has its own [`GlobalTable`](crate::GlobalTable),
//! its own §4 [`loading_order`](crate::loading_order) per sweep, its own
//! loaded partition, ready set and pacing window — everything §3.3–§4
//! describe, scoped to the jobs that arrived together. One driver runs any number
//! of cohorts at once under its one lock; a job's report is handed out
//! **when that job retires** (§3.3.1: a job leaves the global table at
//! convergence), and a cohort that has retired its last job is dropped.
//! A three-sweep WCC therefore never waits out a thirty-sweep PageRank
//! of its own cohort, and a later arrival never waits for an earlier
//! cohort at all.
//!
//! **Within a cohort nothing depends on who else is in flight**: its jobs
//! see the same loading order, the same chunk order and the same in-order
//! apply as if the cohort ran alone, so a cohort's reports are
//! bit-identical to [`WallClockExecutor::run_batch_single_thread`] of its
//! jobs, whatever the number of lanes and whatever other cohorts run
//! beside it. What cohorts *do* share is the one copy of the graph: each
//! loads through the same [`PartitionSource`], and a source that keeps a
//! loaded partition alive while anyone holds it (the disk store's
//! per-partition cache) hands the second cohort an `Arc` clone instead of
//! a second materialisation. They also share the lanes, and the source's
//! generation pin (counted: held from the first admission until the last
//! cohort drains).
//!
//! Why arrivals do not *join* a running cohort at its next sweep
//! boundary (the cheaper design on paper): Formula 5 orders a sweep's
//! loads over all live jobs, so a joiner changes the loading order of the
//! jobs already running — and with it the last bits of PageRank's `f64`
//! sums and, through label propagation order, WCC's sweep count. Measured
//! on a prototype: 1–2 reports per 3-second run differed from their solo
//! replay ("values equal: false", "iterations 3 vs 2"). A job's answer
//! must not depend on who else is being served, so admission groups stay
//! separate and only the store is shared.
//!
//! # The pick order
//!
//! The work of a cohort is cut into block-at-a-time tasks — *load the next
//! partition*, *stream chunk `c` through job `j`*, *end job `j`'s
//! iteration* — handed to whichever lane asks next. A lane looking for
//! work **rotates over the live cohorts**, starting after the cohort
//! served last, and takes the first load / end / chunk task it finds. A
//! light cohort therefore gets its turn between every two tasks of a
//! heavy one (serving the oldest cohort first would starve it until the
//! heavy one converged).
//! Inside a cohort the order is the old one: a worker takes the lowest
//! ready `(chunk, job)` whose chunk index is `< min(chunks in flight) +
//! window`, moves the job out of its slot, streams that one chunk through
//! it with no lock held, and re-queues it at `chunk + 1`. Table 1's
//! programming interface maps onto it as:
//!
//! * `Sharing()` — the hand-out: one `try_load` per `(cohort, sweep,
//!   partition)` with interested jobs, by the worker that drained the
//!   previous partition (it also announces the upcoming §4 window to the
//!   [`PrefetchHook`]); jobs that do not need the partition simply have
//!   no entry in the ready set (Algorithm 2's suspend);
//! * `Start()` — the window check at hand-out: co-traversing jobs stay
//!   within `window − 1` chunks of each other (2 = lock-step, §3.4.2);
//! * `Barrier()` — the ready-set drain: the partition is dropped, and the
//!   next one loaded, when the last interested job has streamed its last
//!   chunk.
//!
//! Per job, partitions arrive in §4 order, chunks ascending, and every
//! chunk streams through the job in one [`GraphJob::process_chunk`] call
//! on the lane that holds it — the same sequence the deterministic
//! service replays — so vertex values and iteration counts are
//! bit-identical whatever the number of workers. Nothing blocks per
//! chunk: a worker sleeps only when no load, end or chunk task is
//! available in any cohort, and a worker about to run a task wakes a
//! sleeper whenever another one is waiting.
//!
//! A job may hold several same-kind **members** ([`GraphJob::members`]:
//! a PageRank bundle, a WCC group) that one edge read feeds. It takes
//! one seat — one place in the plan, the ready set and the window, one
//! lane per chunk — while the global table counts each live member (so
//! the §4 order is the unbundled cohort's) and each member gets its own
//! report when it retires (`docs/ARCHITECTURE.md`, "Bundles and
//! members").
//!
//! There are no helper threads: a lane streams a chunk only through the
//! job it holds, so a cohort of one job keeps one lane busy
//! (`docs/ARCHITECTURE.md`, "Why a lane only streams its own job", has
//! the measurement).
//!
//! Who drives:
//!
//! * [`CohortDriver`] — a long-lived driver with `lanes` worker threads
//!   of its own: [`CohortDriver::admit`] starts a cohort at once beside
//!   whatever is running, [`CohortDriver::retired`] hands out reports as
//!   jobs converge. The serving daemon keeps one for its lifetime.
//! * [`WallClockExecutor::run_batch`] — one cohort through a driver on
//!   the pool's lanes, returning when it has drained (the paper's `-M`
//!   scheme on real cores);
//! * [`WallClockExecutor::run_batch_single_thread`] — the same with the
//!   calling thread as the only lane: the single-core baseline, and the
//!   reference served cohorts are replayed against;
//! * [`WallClockExecutor::run_batch_exclusive`] — not the driver: one
//!   thread per job with *private* loads (the `-C` baseline), every job
//!   paying `partitions × sweeps` loads instead of sharing them.
//!
//! Failure isolation: a failed load retires exactly the jobs *of that
//! cohort* that needed the partition; a panic in any task of a job is
//! caught and retires that job alone (every member of it together).
//! Either way the job's report carries
//! [`WallJobReport::error`] and its peers — in its cohort and in every
//! other — keep sweeping. A lane that dies *outside* a task (a bug in the
//! driver, or a source whose unpin panics) cannot be isolated: the driver is marked dead, every
//! lane leaves, and whoever waits on it panics instead of hanging.

mod driver;

pub use driver::{CohortDriver, CohortId};

use crate::chunk::runs;
use crate::graphm::{GraphM, GraphMConfig};
use crate::job::{GraphJob, JobId};
use crate::scheduler::SchedulingPolicy;
use crate::source::PartitionSource;
use driver::Driver;
use graphm_graph::MemoryProfile;
use rayon::ThreadPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A readahead callback: called by the worker that advances a cohort's
/// sweep, just before it loads a partition, with the ids of the
/// partitions the §4 order will load after it. Disk-backed sources hand
/// this to a `Prefetcher` thread that issues `madvise(MADV_WILLNEED)`
/// ahead of the sweep (hiding cold-store latency under compute, à la
/// GraphD's pipelined loading).
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
}

impl WallClockConfig {
    /// Defaults over `profile`: prioritized scheduling, lock-step window,
    /// 500-iteration guard, 8-byte `U_v`, 16-deep announced lookahead.
    pub fn new(profile: MemoryProfile) -> WallClockConfig {
        WallClockConfig {
            profile,
            policy: SchedulingPolicy::Prioritized,
            window: 2,
            max_iterations: 500,
            state_bytes_per_vertex: 8,
            chunk_bytes_override: None,
            max_prefetch_lookahead: 16,
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
    /// The job's place in its cohort, in admission order (the caller maps
    /// these to its own ids). A job of several members
    /// ([`GraphJob::members`]) reports once per member, member `m` of a
    /// job whose members start at `first` as `first + m`.
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
    /// streamed, iteration ends). Time the job
    /// sat in the ready set, or waited for a partition it did not need,
    /// is not in here — `finish_ms − busy_ms` is what sharing the sweep
    /// and the lanes cost it. (The exclusive mode runs each job on a
    /// thread of its own and reports that thread's lifetime.)
    pub busy_ms: f64,
    /// Wall milliseconds from the cohort's admission to this job's
    /// retirement.
    pub finish_ms: f64,
    /// Set when the job failed instead of converging — a shared load
    /// error (real or injected I/O fault) or a panicking kernel.
    /// `iterations`/`values` reflect whatever state the job reached.
    /// `None` = completed normally. A failed job never poisons its
    /// cohort: its peers finish with their usual results.
    pub error: Option<String>,
}

/// Where one lane of a sweep driver spent its wall time, in nanoseconds
/// summed over its tasks: streaming chunks, loading partitions, ending
/// iterations, and asleep on the driver's condvar with no task to take.
/// What is left of the lane's lifetime is hand-out under the lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneTime {
    /// Chunks streamed through jobs (`process_chunk`).
    pub stream_ns: u64,
    /// Partition loads, readahead announcement included.
    pub load_ns: u64,
    /// Iteration ends: `end_iteration`, the members' next active
    /// partitions, retirements.
    pub end_ns: u64,
    /// Asleep with no task in any cohort.
    pub idle_ns: u64,
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
    /// Where each of the driver's lanes spent its time, by lane (empty
    /// in exclusive mode, which runs no driver).
    pub lanes: Vec<LaneTime>,
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

/// What a cohort runs over: one `Init()`'s source, chunk tables and
/// configuration. Cohorts hold it by `Arc`, so a cohort admitted through
/// an executor stays valid whatever happens to the executor meanwhile.
struct Core {
    source: Arc<dyn PartitionSource>,
    gm: Arc<GraphM>,
    cfg: WallClockConfig,
    prefetch: Option<PrefetchHook>,
}

impl Core {
    fn active_pids(&self, job: &dyn GraphJob) -> Vec<usize> {
        self.source
            .order()
            .into_iter()
            .filter(|&pid| self.gm.partition_active(pid, job.active()))
            .collect()
    }

    /// Each member's active partitions, in the source's order: `pids[m]`
    /// for member `m` (only those in `live` are filled). Members share
    /// the job's active set unless they keep frontiers of their own
    /// ([`GraphJob::member_frontiers`]); then one pass over the chunk
    /// tables ORs the members' masks per partition.
    fn member_pids(&self, job: &dyn GraphJob, live: &[usize]) -> Vec<Vec<usize>> {
        let mut pids = vec![Vec::new(); job.members()];
        let Some(masks) = job.member_frontiers() else {
            let shared = self.active_pids(job);
            live.iter().for_each(|&m| pids[m].clone_from(&shared));
            return pids;
        };
        let all = live.iter().fold(0u8, |all, &m| all | 1 << m);
        for pid in self.source.order() {
            let mut entries = self.gm.tables[pid].chunks.iter().flat_map(|c| &c.table);
            let mut found = 0u8;
            while found != all {
                let Some(entry) = entries.next() else { break };
                found |= masks[entry.vertex as usize] & all;
            }
            live.iter().filter(|&&m| found & 1 << m != 0).for_each(|&m| pids[m].push(pid));
        }
        pids
    }
}

/// Preprocessed wall-clock runtime over one source. See the module docs.
pub struct WallClockExecutor {
    core: Arc<Core>,
    /// Worker pool batches run on; `None` = the process-wide
    /// [`ThreadPool::global`] pool.
    pool: Option<Arc<ThreadPool>>,
}

impl WallClockExecutor {
    /// Runs `Init()` over `source` (one labelling traversal) and returns
    /// an executor ready to serve. `prefetch` is announced the upcoming
    /// loading order of every shared sweep.
    pub fn new(
        source: Arc<dyn PartitionSource>,
        cfg: WallClockConfig,
        prefetch: Option<PrefetchHook>,
    ) -> WallClockExecutor {
        let mut gm_cfg = GraphMConfig::new(cfg.profile);
        gm_cfg.policy = cfg.policy;
        gm_cfg.chunk_bytes_override = cfg.chunk_bytes_override;
        let gm = Arc::new(GraphM::init(source.as_ref(), cfg.state_bytes_per_vertex, gm_cfg));
        WallClockExecutor { core: Arc::new(Core { source, gm, cfg, prefetch }), pool: None }
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
        self.core.gm.chunk_bytes
    }

    /// The preprocessed GraphM instance (chunk tables).
    pub fn graphm(&self) -> &GraphM {
        &self.core.gm
    }

    /// Runs `jobs` to convergence as one cohort on the pool's lanes,
    /// sharing one load per `(sweep, partition)`.
    pub fn run_batch(&self, jobs: Vec<Box<dyn GraphJob>>) -> WallRunReport {
        let pool = self.pool.as_deref().unwrap_or_else(|| ThreadPool::global());
        self.drive(jobs, Some(pool))
    }

    /// Runs `jobs` as one cohort with the calling thread as the driver's
    /// only lane. Identical per-job partition/chunk order to
    /// [`WallClockExecutor::run_batch`], hence identical results — this
    /// is the single-core baseline the speedup bench compares against.
    pub fn run_batch_single_thread(&self, jobs: Vec<Box<dyn GraphJob>>) -> WallRunReport {
        self.drive(jobs, None)
    }

    /// One cohort through a driver of its own: the calling thread plus,
    /// with `pool`, its other lanes work until every job has retired.
    fn drive(&self, jobs: Vec<Box<dyn GraphJob>>, pool: Option<&ThreadPool>) -> WallRunReport {
        let start = Instant::now();
        if jobs.is_empty() {
            return WallRunReport::default();
        }
        // A worker is only ever of use to a job of its own.
        let workers = pool.map_or(1, ThreadPool::num_threads).min(jobs.len());
        let driver = Driver::new(workers);
        driver.admit(&self.core, jobs);
        driver.close();
        match pool {
            Some(pool) if workers > 1 => pool.scope(|s| {
                let driver = &driver;
                for lane in 1..workers {
                    s.spawn(move || driver.work(lane));
                }
                driver.work(0);
            }),
            _ => driver.work(0),
        }
        let (retired, partition_loads) = driver.retired(Duration::ZERO);
        let mut jobs: Vec<WallJobReport> = retired.into_iter().map(|(_, report)| report).collect();
        jobs.sort_by_key(|report| report.id);
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        WallRunReport { jobs, total_ms, partition_loads, lanes: driver.lane_times() }
    }

    /// Runs `jobs` on one thread each with *private* loading — every job
    /// streams every active partition itself, in the engine's native
    /// order, materializing its own copy (the `-C` baseline's cost
    /// model). No sharing, no pacing. Every job must have one member
    /// ([`GraphJob::members`]): bundles are a sharing mechanism.
    pub fn run_batch_exclusive(&self, jobs: Vec<Box<dyn GraphJob>>) -> WallRunReport {
        let start = Instant::now();
        if jobs.is_empty() {
            return WallRunReport::default();
        }
        assert!(jobs.iter().all(|job| job.members() == 1), "the exclusive baseline runs solo jobs");
        let names: Vec<String> = jobs.iter().map(|j| j.name().to_string()).collect();
        let mut handles = Vec::with_capacity(jobs.len());
        for (id, mut job) in jobs.into_iter().enumerate() {
            let source = Arc::clone(&self.core.source);
            let gm = Arc::clone(&self.core.gm);
            let max_iterations = self.core.cfg.max_iterations;
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
                            for pid in pids {
                                // The private copy an independent engine
                                // process would hold.
                                let private: Vec<graphm_graph::Edge> =
                                    source.load(pid).as_ref().clone();
                                loads += 1;
                                edges_processed += job.process_chunk(&private, &runs(&private));
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
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        WallRunReport { jobs, total_ms, partition_loads, lanes: Vec::new() }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkEntry;
    use crate::global_table::GlobalTable;
    use crate::job::CountingJob;
    use crate::scheduler::loading_order;
    use crate::source::VecSource;
    use graphm_graph::{generators, AtomicBitmap, Edge};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

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

    /// Many chunks per partition, so pacing has work.
    fn small_chunks() -> WallClockConfig {
        let mut cfg = WallClockConfig::new(MemoryProfile::TEST);
        cfg.chunk_bytes_override = Some(1152);
        cfg
    }

    fn pool(lanes: usize) -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(lanes))
    }

    /// A BFS-like frontier job: skips inactive sources, so whole chunks
    /// are skipped once the frontier leaves them.
    struct FrontierJob {
        levels: Vec<f64>,
        active: AtomicBitmap,
        next_active: AtomicBitmap,
        discovered: bool,
        iters: usize,
        cap: usize,
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
                cap: usize::MAX,
            }
        }

        /// Stops after `cap` iterations if the frontier lasts that long.
        fn capped(mut self, cap: usize) -> FrontierJob {
            self.cap = cap;
            self
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
        fn process_edge(&mut self, e: &Edge) {
            if self.levels[e.dst as usize].is_infinite() {
                self.levels[e.dst as usize] = self.levels[e.src as usize] + 1.0;
                self.next_active.set(e.dst as usize);
                self.discovered = true;
            }
        }
        fn end_iteration(&mut self) -> bool {
            self.iters += 1;
            self.active.copy_from(&self.next_active);
            self.next_active.clear_all();
            let converged = !self.discovered || self.iters >= self.cap;
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
        assert_eq!(a.partition_loads, b.partition_loads, "shared load count must not change");
        assert_same_jobs(&a.jobs, &b.jobs);
    }

    fn assert_same_jobs(a: &[WallJobReport], b: &[WallJobReport]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
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

    /// Streaming jobs (CountingJob streams every edge) on a 4-lane pool
    /// produce reports bit-identical to the single-thread baseline.
    #[test]
    fn gather_fanout_matches_serial_bit_for_bit() {
        let exec = WallClockExecutor::new(source(4), small_chunks(), None).with_pool(pool(4));
        let threaded = exec.run_batch(counting_jobs(3, 3));
        let single = exec.run_batch_single_thread(counting_jobs(3, 3));
        assert_same_reports(&threaded, &single);
    }

    /// Frontier jobs (FrontierJob skips inactive sources) on a 4-lane
    /// pool produce reports bit-identical to the single-thread baseline,
    /// including iteration counts driven by frontier convergence.
    #[test]
    fn filter_fanout_matches_serial_bit_for_bit() {
        let mk = |roots: &[usize]| {
            roots
                .iter()
                .map(|&r| Box::new(FrontierJob::new(256, r)) as Box<dyn GraphJob>)
                .collect::<Vec<_>>()
        };
        let exec = WallClockExecutor::new(source(4), small_chunks(), None).with_pool(pool(4));
        let roots = [0usize, 17, 3];
        let threaded = exec.run_batch(mk(&roots));
        let single = exec.run_batch_single_thread(mk(&roots));
        assert_same_reports(&threaded, &single);
        assert!(threaded.jobs[0].iterations > 1, "frontier job must actually traverse");
    }

    /// Where a saboteur job panics.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Boom {
        ProcessEdge,
        EndIteration,
    }

    /// A counting job that panics in one of its two kinds of task.
    struct Saboteur {
        inner: CountingJob,
        boom: Boom,
    }

    impl Saboteur {
        fn boxed(boom: Boom) -> Box<dyn GraphJob> {
            Box::new(Saboteur { inner: CountingJob::new(256, 2), boom })
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
        fn process_edge(&mut self, e: &Edge) {
            if self.boom == Boom::ProcessEdge {
                panic!("boom in process_edge");
            }
            self.inner.process_edge(e)
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

    /// A panic in any task of a job — a chunk's `process_edge`, the
    /// iteration's end — converts to a *failed report* for that job alone: co-batched jobs finish with results
    /// bit-identical to a batch that never contained the saboteur.
    #[test]
    fn panicking_kernel_becomes_failed_report_without_poisoning_batch() {
        let exec = WallClockExecutor::new(source(2), small_chunks(), None).with_pool(pool(3));
        // Reference: the survivors without the saboteur.
        let reference = exec.run_batch(counting_jobs(2, 2));
        for (boom, says) in [
            (Boom::ProcessEdge, "boom in process_edge"),
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
        fn process_edge(&mut self, e: &Edge) {
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
    /// fails the loads of `failing` partitions — or, `dies_unpinning`,
    /// panics at every unpin.
    struct PinCounting {
        inner: Arc<VecSource>,
        failing: Vec<usize>,
        dies_unpinning: bool,
        begins: AtomicU64,
        ends: AtomicU64,
    }

    impl PinCounting {
        fn over(inner: Arc<VecSource>, failing: &[usize]) -> Arc<PinCounting> {
            Arc::new(PinCounting {
                inner,
                failing: failing.to_vec(),
                dies_unpinning: false,
                begins: AtomicU64::new(0),
                ends: AtomicU64::new(0),
            })
        }

        fn dying_on_unpin(inner: Arc<VecSource>) -> Arc<PinCounting> {
            let mut source = Arc::into_inner(PinCounting::over(inner, &[])).expect("fresh");
            source.dies_unpinning = true;
            Arc::new(source)
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
            assert!(!self.dies_unpinning, "unpin panicked");
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

    /// Each lane of a batch books its own time: one per lane the batch
    /// ran on, streaming, loading and ending booked, and no lane's time
    /// beyond the batch's wall time.
    #[test]
    fn lane_times_account_for_each_lane() {
        let exec = WallClockExecutor::new(source(4), small_chunks(), None).with_pool(pool(2));
        let run = exec.run_batch(counting_jobs(4, 3));
        assert_eq!(run.lanes.len(), 2);
        let booked = |time: fn(&LaneTime) -> u64| run.lanes.iter().map(time).sum::<u64>() > 0;
        assert!(booked(|lane| lane.stream_ns), "{:?}", run.lanes);
        assert!(booked(|lane| lane.load_ns) && booked(|lane| lane.end_ns), "{:?}", run.lanes);
        let wall_ns = (run.total_ms * 1e6) as u64;
        for lane in &run.lanes {
            assert!(lane.stream_ns + lane.load_ns + lane.end_ns + lane.idle_ns <= wall_ns);
        }
        let single = exec.run_batch_single_thread(counting_jobs(1, 1));
        assert_eq!(single.lanes.len(), 1);
        assert!(exec.run_batch_exclusive(counting_jobs(1, 1)).lanes.is_empty());
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

    /// Every report a long-lived driver owes for `jobs` admitted jobs; a
    /// driver that stops retiring fails the test instead of hanging it.
    fn collect(driver: &CohortDriver, jobs: usize) -> Vec<(CohortId, WallJobReport)> {
        let mut got = Vec::new();
        while got.len() < jobs {
            let retired = driver.retired(Duration::from_secs(60));
            assert!(!retired.is_empty(), "driver stalled with {} of {jobs} reports out", got.len());
            got.extend(retired);
        }
        got
    }

    /// One cohort's reports out of what a driver retired, in job order.
    fn of_cohort(retired: &[(CohortId, WallJobReport)], cohort: CohortId) -> Vec<WallJobReport> {
        let mut jobs: Vec<WallJobReport> =
            retired.iter().filter(|(c, _)| *c == cohort).map(|(_, r)| r.clone()).collect();
        jobs.sort_by_key(|r| r.id);
        jobs
    }

    /// The jobs a generated cohort names: frontier jobs by root, counting
    /// jobs by iteration count.
    fn described(jobs: &[(bool, usize)]) -> Vec<Box<dyn GraphJob>> {
        jobs.iter()
            .map(|&(frontier, n)| match frontier {
                true => Box::new(FrontierJob::new(256, (n * 37) % 256)) as Box<dyn GraphJob>,
                false => Box::new(CountingJob::new(256, 1 + n % 4)) as Box<dyn GraphJob>,
            })
            .collect()
    }

    proptest::proptest! {
        /// Cohorts admitted into one driver after arbitrary numbers of
        /// each other's tasks, on 1, 2 and 4 lanes: every cohort's
        /// reports equal its own single-thread run alone, bit for bit.
        #[test]
        fn cohorts_admitted_at_any_task_count_equal_their_solo_runs(
            lanes in 0usize..3,
            cohorts in proptest::collection::vec(
                (proptest::collection::vec((proptest::prelude::any::<bool>(), 0usize..64), 1..5),
                 0usize..160),
                2..5,
            ),
        ) {
            let lanes = [1, 2, 4][lanes];
            let exec = WallClockExecutor::new(source(4), small_chunks(), None);
            let driver = Driver::new(lanes);
            let admitted: Vec<CohortId> = std::thread::scope(|scope| {
                let driver = &driver;
                for lane in 0..lanes - 1 {
                    scope.spawn(move || driver.work(lane));
                }
                // This thread is the last lane: it admits each cohort,
                // then works `gap` tasks of whatever is live.
                let admit = |(jobs, gap): &(Vec<(bool, usize)>, usize)| {
                    let cohort = driver.admit(&exec.core, described(jobs));
                    driver.run_tasks(*gap);
                    cohort
                };
                let admitted = cohorts.iter().map(admit).collect();
                driver.close();
                driver.work(lanes - 1);
                admitted
            });
            let (retired, loads) = driver.retired(Duration::ZERO);
            let mut solo_loads = 0;
            for ((jobs, _), cohort) in cohorts.iter().zip(admitted) {
                let solo = exec.run_batch_single_thread(described(jobs));
                assert_same_jobs(&of_cohort(&retired, cohort), &solo.jobs);
                solo_loads += solo.partition_loads;
            }
            proptest::prop_assert_eq!(loads, solo_loads, "a cohort loads for itself alone");
        }
    }

    /// Same-kind one-member jobs run side by side as one job of several
    /// members: a bundle's seat and retirements without its fused loop.
    /// Counting members share one all-active frontier; frontier members
    /// keep frontiers of their own, which the seat publishes as member
    /// masks ([`GraphJob::member_frontiers`]) with their union as its
    /// active set, and each reports the edges it processed itself.
    struct Side {
        members: Vec<Box<dyn GraphJob>>,
        live: Vec<bool>,
        /// Live members whose last `end_iteration` returned `true`.
        converged: Vec<usize>,
        /// Per member, the edges its `process_chunk` calls processed.
        edges: Vec<u64>,
        /// Frontier members: per vertex, the live members active on it.
        masks: Option<Vec<u8>>,
        union: AtomicBitmap,
    }

    impl Side {
        fn boxed(members: Vec<Box<dyn GraphJob>>) -> Box<dyn GraphJob> {
            let n = members[0].active().len();
            let masks = members[0].skips_inactive().then(|| vec![0; n]);
            let (live, edges) = (vec![true; members.len()], vec![0; members.len()]);
            let union = AtomicBitmap::new(n);
            let mut side = Side { members, live, converged: Vec::new(), edges, masks, union };
            side.refresh();
            Box::new(side)
        }

        fn leader(&self) -> &dyn GraphJob {
            let first = self.live.iter().position(|&live| live).unwrap_or(0);
            self.members[first].as_ref()
        }

        fn live_members(&mut self) -> impl Iterator<Item = (usize, &mut Box<dyn GraphJob>)> {
            let live = &self.live;
            self.members.iter_mut().enumerate().filter(move |(m, _)| live[*m])
        }

        /// Rebuilds the masks and their union from the live members.
        fn refresh(&mut self) {
            let Some(masks) = self.masks.as_mut() else { return };
            self.union.clear_all();
            for (v, mask) in masks.iter_mut().enumerate() {
                *mask = 0;
                for (m, job) in self.members.iter().enumerate() {
                    if self.live[m] && job.active().get(v) {
                        *mask |= 1 << m;
                        self.union.set(v);
                    }
                }
            }
        }
    }

    impl GraphJob for Side {
        fn name(&self) -> &str {
            self.members[0].name()
        }
        fn state_bytes_per_vertex(&self) -> usize {
            self.members[0].state_bytes_per_vertex()
        }
        fn skips_inactive(&self) -> bool {
            self.members[0].skips_inactive()
        }
        fn active(&self) -> &AtomicBitmap {
            match self.masks {
                Some(_) => &self.union,
                None => self.leader().active(),
            }
        }
        fn process_edge(&mut self, e: &Edge) {
            self.live_members().for_each(|(_, job)| job.process_edge(e));
        }
        fn process_chunk(&mut self, edges: &[Edge], runs: &[ChunkEntry]) -> u64 {
            // The edges of the runs some member is active on, read before
            // any member moves its frontier.
            let any = self.masks.as_ref().map(|masks| {
                let active = runs.iter().filter(|run| masks[run.vertex as usize] != 0);
                active.map(|run| run.out_edges as u64).sum::<u64>()
            });
            let counts: Vec<(usize, u64)> =
                self.live_members().map(|(m, j)| (m, j.process_chunk(edges, runs))).collect();
            for &(m, count) in &counts {
                self.edges[m] += count;
            }
            any.unwrap_or_else(|| {
                assert!(counts.windows(2).all(|w| w[0].1 == w[1].1), "members stream alike");
                counts[0].1
            })
        }
        fn end_iteration(&mut self) -> bool {
            let ended: Vec<usize> = self
                .live_members()
                .filter_map(|(m, job)| job.end_iteration().then_some(m))
                .collect();
            self.converged = ended;
            self.refresh();
            self.converged.len() == self.live.iter().filter(|&&live| live).count()
        }
        fn iterations(&self) -> usize {
            self.leader().iterations()
        }
        fn vertex_values(&self) -> Vec<f64> {
            self.members[0].vertex_values()
        }
        fn members(&self) -> usize {
            self.members.len()
        }
        fn member_frontiers(&self) -> Option<&[u8]> {
            self.masks.as_deref()
        }
        fn retire_members(&mut self, idle: &[usize]) -> Vec<crate::job::Retired> {
            let mut going = std::mem::take(&mut self.converged);
            going.extend(idle.iter().filter(|&&m| self.live[m]));
            going.sort_unstable();
            going.dedup();
            let retired = going
                .into_iter()
                .map(|member| {
                    self.live[member] = false;
                    let job = &self.members[member];
                    let (iterations, values) = (job.iterations(), job.vertex_values());
                    let edges_processed = self.masks.is_some().then_some(self.edges[member]);
                    crate::job::Retired { member, iterations, edges_processed, values }
                })
                .collect();
            self.refresh();
            retired
        }
    }

    /// One group of a generated cohort: `(frontier, root or length,
    /// per-member caps)`; a group of one is a one-member job.
    type Group = (bool, usize, Vec<usize>);

    /// A group's members as one-member jobs, in member order: frontier
    /// members each from a root of its own, so that their active sets
    /// differ and a seat's plan is the union of its members' partitions.
    fn group_members(&(frontier, n, ref caps): &Group) -> Vec<Box<dyn GraphJob>> {
        let member = |(m, &cap): (usize, &usize)| match frontier {
            true => {
                let root = (n * 37 + m * 101) % 256;
                Box::new(FrontierJob::new(256, root).capped(cap)) as Box<dyn GraphJob>
            }
            false => Box::new(CountingJob::new(256, cap)) as Box<dyn GraphJob>,
        };
        caps.iter().enumerate().map(member).collect()
    }

    fn bundled(groups: &[Group]) -> Vec<Box<dyn GraphJob>> {
        let seat = |members: Vec<Box<dyn GraphJob>>| match members.len() {
            1 => members.into_iter().next().expect("one member"),
            _ => Side::boxed(members),
        };
        groups.iter().map(|group| seat(group_members(group))).collect()
    }

    fn unbundled(groups: &[Group]) -> Vec<Box<dyn GraphJob>> {
        groups.iter().flat_map(group_members).collect()
    }

    proptest::proptest! {
        /// A cohort whose same-kind jobs sit as one seat each reports,
        /// member by member, what the same cohort reports unbundled —
        /// values, iterations, edges processed, loads — and sweeps in the
        /// same §4 order, on 1, 2 and 4 lanes.
        #[test]
        fn members_of_a_seat_equal_the_cohort_unbundled(
            lanes in 0usize..3,
            groups in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0usize..64,
                 proptest::collection::vec(1usize..7, 1..5)),
                1..5,
            ),
        ) {
            let lanes = [1, 2, 4][lanes];
            let exec = WallClockExecutor::new(source(4), small_chunks(), None).with_pool(pool(lanes));
            let driver = Driver::new(1);
            let bundled_id = driver.admit(&exec.core, bundled(&groups));
            let unbundled_id = driver.admit(&exec.core, unbundled(&groups));
            driver.close();
            driver.work(0);
            let plans = driver.sweeps(bundled_id);
            proptest::prop_assert!(!plans.is_empty());
            proptest::prop_assert_eq!(&plans, &driver.sweeps(unbundled_id));
            let (retired, _) = driver.retired(Duration::ZERO);
            let want = of_cohort(&retired, unbundled_id);
            assert_same_jobs(&of_cohort(&retired, bundled_id), &want);
            let threaded = exec.run_batch(bundled(&groups));
            let single = exec.run_batch_single_thread(unbundled(&groups));
            assert_same_reports(&threaded, &single);
            assert_same_jobs(&threaded.jobs, &want);
        }
    }

    /// A panic in a seat fails every member of it — and nothing else of
    /// the cohort.
    #[test]
    fn members_fail_together() {
        let exec = WallClockExecutor::new(source(2), small_chunks(), None).with_pool(pool(2));
        let reference = exec.run_batch(counting_jobs(1, 3));
        let seat = Side::boxed(vec![
            Box::new(CountingJob::new(256, 2)),
            Saboteur::boxed(Boom::ProcessEdge),
            Box::new(CountingJob::new(256, 4)),
        ]);
        let mut jobs = counting_jobs(1, 3);
        jobs.push(seat);
        let report = exec.run_batch(jobs);
        let ids: Vec<usize> = report.jobs.iter().map(|r| r.id).collect();
        assert_eq!(ids, [0, 1, 2, 3], "one report per member, ids in member order");
        assert!(report.jobs[1..].iter().all(|r| r.error.is_some()), "the seat fails as one");
        assert_same_jobs(&report.jobs[..1], &reference.jobs);
        assert!(report.jobs[0].error.is_none());
    }

    /// A load error and a panicking kernel in cohort A fail exactly A's
    /// interested jobs; cohort B, in flight beside it on the same lanes,
    /// reports what it reports alone.
    #[test]
    fn failures_stay_inside_their_cohort() {
        let mut cfg = WallClockConfig::new(MemoryProfile::TEST);
        cfg.chunk_bytes_override = Some(192);
        let interests: [&[u32]; 4] = [&[0, 1, 2], &[0], &[1, 2], &[0, 2]];
        for lanes in [1, 2, 4] {
            let driver = CohortDriver::spawn(lanes);

            // A's source cannot load partition 1; B streams the same
            // graph through an intact one.
            let faulty = PinCounting::over(striped_source(), &[1]);
            let faulty =
                WallClockExecutor::new(faulty as Arc<dyn PartitionSource>, cfg.clone(), None);
            let intact = WallClockExecutor::new(striped_source(), cfg.clone(), None);
            let trace = Arc::new(Trace::default());
            let jobs = |exec: &WallClockExecutor| -> Vec<Box<dyn GraphJob>> {
                let jobs = interests.iter().enumerate();
                jobs.map(|(id, pids)| trace_job(id, pids, 3, exec, &trace)).collect()
            };
            let alone = intact.run_batch_single_thread(jobs(&intact));
            let (a, b) =
                (driver.admit(&faulty, jobs(&faulty)), driver.admit(&intact, jobs(&intact)));
            let retired = collect(&driver, 8);
            for (id, job) in of_cohort(&retired, a).iter().enumerate() {
                assert_eq!(job.error.is_some(), interests[id].contains(&1), "{lanes} lanes, {id}");
            }
            assert_same_jobs(&of_cohort(&retired, b), &alone.jobs);

            // A carries a job that panics — in its own chunk, at its
            // iteration's end.
            let exec = WallClockExecutor::new(source(2), small_chunks(), None);
            let alone = exec.run_batch_single_thread(mixed_jobs(4));
            for boom in [Boom::ProcessEdge, Boom::EndIteration] {
                let mut jobs = counting_jobs(2, 2);
                jobs.push(Saboteur::boxed(boom));
                let (a, b) = (driver.admit(&exec, jobs), driver.admit(&exec, mixed_jobs(4)));
                let retired = collect(&driver, 7);
                let failed: Vec<bool> =
                    of_cohort(&retired, a).iter().map(|job| job.error.is_some()).collect();
                assert_eq!(failed, [false, false, true], "{lanes} lanes, {boom:?}");
                assert_same_jobs(&of_cohort(&retired, b), &alone.jobs);
            }
            assert_eq!(driver.live(), 0);
        }
    }

    /// How many rounds a stress test runs: release builds (CI runs these
    /// under `RAYON_NUM_THREADS=1` and `=4`) take the full count.
    fn stress_rounds(release: usize) -> usize {
        if cfg!(debug_assertions) {
            release / 10
        } else {
            release
        }
    }

    /// Stress: thousands of tiny cohorts admitted while up to three others
    /// are in flight, on the pool's lane count — admission, rotation,
    /// retirement and cohort drop under maximum turnover.
    #[test]
    fn stress_cohorts_admitted_and_retired_back_to_back() {
        let exec = WallClockExecutor::new(source(2), small_chunks(), None);
        let driver = CohortDriver::spawn_pool_sized();
        // (reports, edges processed) over everything retired so far.
        let mut seen = (0usize, 0u64);
        let mut book = |retired: Vec<(CohortId, WallJobReport)>| {
            for (_, job) in &retired {
                assert!(job.error.is_none());
                seen.1 += job.edges_processed;
            }
            seen.0 += retired.len();
            retired.len()
        };
        let rounds = stress_rounds(4000);
        let shape = |round: usize| (1 + round % 3, 1 + round % 2); // (jobs, iterations)
        let mut owed = 0;
        for round in 0..rounds {
            let (jobs, iters) = shape(round);
            driver.admit(&exec, counting_jobs(jobs, iters));
            owed += jobs;
            while owed > 6 {
                let retired = driver.retired(Duration::from_secs(60));
                assert!(!retired.is_empty(), "driver stalled in round {round}");
                owed -= book(retired);
            }
        }
        book(collect(&driver, owed));
        assert_eq!(driver.live(), 0);
        let jobs: usize = (0..rounds).map(|round| shape(round).0).sum();
        let sweeps: usize = (0..rounds).map(|round| shape(round).0 * shape(round).1).sum();
        assert_eq!(
            seen,
            (jobs, 4096 * sweeps as u64),
            "every edge of every iteration of every job"
        );
    }

    /// Stress: admit → retire → idle → drop, three hundred drivers in a
    /// row. A wakeup lost between a worker going to sleep and the driver
    /// being dropped would hang one of the joins; the watchdog turns that
    /// into a failure.
    #[test]
    fn stress_admit_retire_idle_drop() {
        let (done, watchdog) = std::sync::mpsc::channel();
        let stress = std::thread::spawn(move || {
            let exec = WallClockExecutor::new(source(2), small_chunks(), None);
            for round in 0..stress_rounds(300) {
                let driver = CohortDriver::spawn_pool_sized();
                if round % 3 != 0 {
                    driver.admit(&exec, counting_jobs(1 + round % 2, 1));
                    collect(&driver, 1 + round % 2);
                }
                if round % 2 == 0 {
                    std::thread::yield_now(); // let the workers reach their sleep
                }
                drop(driver);
            }
            done.send(()).ok();
        });
        let finished = watchdog.recv_timeout(Duration::from_secs(120));
        assert!(finished.is_ok(), "a driver hung on the way from admit to drop");
        stress.join().unwrap();
    }

    /// A worker that dies outside a task takes the driver down loudly:
    /// whoever waits for reports panics, the other workers leave, and the
    /// drop joins — nothing hangs. A batch on a pool resurfaces the panic.
    /// The worker dies at a source's unpin, which the driver runs when it
    /// drops a drained cohort: with its lock held, outside any task's
    /// `catch_unwind`.
    #[test]
    fn a_dying_worker_fails_the_driver_instead_of_hanging_it() {
        let dying = PinCounting::dying_on_unpin(source(2)) as Arc<dyn PartitionSource>;
        let exec = WallClockExecutor::new(dying, small_chunks(), None).with_pool(pool(3));
        let intact = WallClockExecutor::new(source(2), small_chunks(), None);
        let driver = CohortDriver::spawn(2);
        driver.admit(&exec, counting_jobs(1, 2));
        driver.admit(&intact, counting_jobs(2, 50));
        let waited = catch_unwind(AssertUnwindSafe(|| loop {
            assert!(!driver.retired(Duration::from_secs(60)).is_empty(), "stalled");
        }));
        let message = panic_message(waited.unwrap_err().as_ref());
        assert!(message.contains("worker died"), "{message}");
        drop(driver);
        let batch = catch_unwind(AssertUnwindSafe(|| exec.run_batch(counting_jobs(1, 2))));
        assert!(batch.is_err(), "the batch must not return as if it had finished");
    }
}
