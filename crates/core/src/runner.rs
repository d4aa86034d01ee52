//! Deterministic multi-job scheme runners.
//!
//! The paper compares three execution schemes of each host engine (§5.1):
//!
//! * **`-S`** (sequential) — jobs run one after another, each alone;
//! * **`-C`** (concurrent) — jobs run at once, each with a *private* copy
//!   of the graph, interleaved by the OS scheduler;
//! * **`-M`** (GraphM) — jobs run at once against *one shared* copy,
//!   chunk-synchronized by the Share-Synchronize runtime.
//!
//! All three replay through the same [`StreamContext`] (same simulated LLC,
//! memory, cost model); they differ only in the address streams and load
//! orders they generate — which is precisely the paper's claim about where
//! the throughput gap comes from.
//!
//! Virtual makespan model: disk transfers serialize on one device while CPU
//! work spreads over `N` cores, so elapsed time is
//! `max(io_ns, cpu_ns / N) + sync_ns`, applied per job for `-S` (jobs are
//! sequential) and globally for `-C`/`-M` (jobs overlap).

use crate::exec::{StreamContext, StreamRun};
use crate::job::{GraphJob, JobId};
use crate::scheduler::SchedulingPolicy;
use crate::source::PartitionSource;
use graphm_cachesim::{keys, Metrics, VirtualClock};
use graphm_graph::{MemoryProfile, EDGE_BYTES};
use std::collections::HashMap;
use std::sync::Arc;

/// Which execution scheme to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// One job at a time (`GridGraph-S` et al.).
    Sequential,
    /// Concurrent private copies (`GridGraph-C` et al.).
    Concurrent,
    /// Concurrent with GraphM sharing (`GridGraph-M` et al.).
    Shared,
}

impl Scheme {
    /// Paper-style suffix ("S", "C", "M").
    pub fn suffix(self) -> &'static str {
        match self {
            Scheme::Sequential => "S",
            Scheme::Concurrent => "C",
            Scheme::Shared => "M",
        }
    }
}

/// A job plus its submission time (Poisson arrivals in §5.1).
pub struct Submission {
    /// The job to run.
    pub job: Box<dyn GraphJob>,
    /// Virtual submission timestamp in nanoseconds.
    pub submit_ns: f64,
}

impl Submission {
    /// Submits `job` at time zero.
    pub fn immediate(job: Box<dyn GraphJob>) -> Submission {
        Submission { job, submit_ns: 0.0 }
    }

    /// Submits `job` at `submit_ns`.
    pub fn at(job: Box<dyn GraphJob>, submit_ns: f64) -> Submission {
        Submission { job, submit_ns }
    }
}

/// Edge quantum of the Concurrent scheme's OS-style interleaving.
const QUANTUM_EDGES: usize = 512;

/// How many cores one streaming job can use productively. Edge streaming
/// is memory-bound, so a single job saturates well below the machine's
/// core count; `k` concurrent jobs fill
/// `min(cores, k × SINGLE_JOB_PARALLELISM)` cores. This is why the paper's
/// `-M` and `-C` schemes outperform `-S` even in memory (Figure 20's
/// core-scaling behaviour).
const SINGLE_JOB_PARALLELISM: f64 = 4.0;

/// Runner configuration shared by the three schemes.
#[derive(Clone, Copy, Debug)]
pub struct RunnerConfig {
    /// Simulated hierarchy (cores, LLC, memory).
    pub profile: MemoryProfile,
    /// §4 loading-order policy (Shared scheme only).
    pub policy: SchedulingPolicy,
    /// Fine-grained chunk synchronization (Shared scheme; ablation toggle).
    pub fine_sync: bool,
    /// Chunk-size override for ablations.
    pub chunk_bytes_override: Option<usize>,
    /// Graph larger than memory (affects labelling cost accounting).
    pub out_of_core: bool,
    /// Safety bound on iterations per job.
    pub max_iterations: usize,
}

impl RunnerConfig {
    /// Defaults over the given profile.
    pub fn new(profile: MemoryProfile) -> RunnerConfig {
        RunnerConfig {
            profile,
            policy: SchedulingPolicy::Prioritized,
            fine_sync: true,
            chunk_bytes_override: None,
            out_of_core: false,
            max_iterations: 500,
        }
    }

    /// Effective parallel speedup available to `k` concurrently running
    /// jobs on this profile.
    pub fn effective_parallelism(&self, k: usize) -> f64 {
        (self.profile.cores as f64).min(k as f64 * SINGLE_JOB_PARALLELISM).max(1.0)
    }
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig::new(MemoryProfile::DEFAULT)
    }
}

/// Per-job outcome.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Submission-order id.
    pub id: JobId,
    /// Algorithm name.
    pub name: String,
    /// Iterations completed.
    pub iterations: usize,
    /// Virtual time breakdown.
    pub clock: VirtualClock,
    /// Abstract instructions executed.
    pub instructions: u64,
    /// Edges processed (active-source edges).
    pub edges_processed: u64,
    /// Submission timestamp.
    pub submit_ns: f64,
    /// Completion timestamp on the shared virtual clock.
    pub finish_ns: f64,
    /// Final per-vertex values (oracle comparison).
    pub values: Vec<f64>,
    /// Why the job failed, if it did not run to convergence (injected or
    /// real I/O errors on the shared read path, or a panicking kernel).
    /// Failed jobs report the iterations/values they reached; `None`
    /// means the job completed normally.
    pub error: Option<String>,
}

impl JobReport {
    /// Job latency as observed by its submitter.
    pub fn turnaround_ns(&self) -> f64 {
        self.finish_ns - self.submit_ns
    }
}

/// Whole-run outcome.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scheme executed.
    pub scheme: Scheme,
    /// Aggregate counters (see [`graphm_cachesim::keys`]).
    pub metrics: Metrics,
    /// Per-job outcomes, submission order.
    pub jobs: Vec<JobReport>,
    /// Virtual makespan in nanoseconds.
    pub makespan_ns: f64,
}

impl RunReport {
    /// Mean job turnaround (Figure 3(d)'s "average execution time").
    pub fn avg_job_turnaround_ns(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            self.jobs.iter().map(JobReport::turnaround_ns).sum::<f64>() / self.jobs.len() as f64
        }
    }
}

/// Runs `subs` against `source` under `scheme`.
pub fn run_scheme(
    scheme: Scheme,
    subs: Vec<Submission>,
    source: &dyn PartitionSource,
    cfg: &RunnerConfig,
) -> RunReport {
    match scheme {
        Scheme::Sequential => run_sequential(subs, source, cfg),
        Scheme::Concurrent => run_concurrent(subs, source, cfg),
        Scheme::Shared => run_shared(subs, source, cfg),
    }
}

// ---------------------------------------------------------------------------
// Region/address helpers.
// ---------------------------------------------------------------------------

const KIND_STATE: u64 = 1 << 56;
const KIND_SHARED_GRAPH: u64 = 2 << 56;
pub(crate) const KIND_META: u64 = 4 << 56;
const KIND_STREAM_BUF: u64 = 5 << 56;

pub(crate) fn state_region(job: JobId) -> u64 {
    KIND_STATE | job as u64
}

/// Graph partitions live in the OS page cache, shared by every scheme:
/// GridGraph memory-maps its grid files, so even independent `-C`
/// processes share the physical pages (§5.3 — "this graph is cached in
/// the memory via memory mapping and only needs to be read from disks
/// once"). What `-C` does NOT share is *timing*: uncoordinated traversal
/// phases drag different partitions through the LLC at once, which is the
/// interference GraphM's regularized streaming removes.
pub(crate) fn shared_graph_region(pid: usize) -> u64 {
    KIND_SHARED_GRAPH | pid as u64
}

/// Each `-C` job (an independent engine process) additionally pins a
/// private streaming read buffer of one partition.
fn stream_buf_region(job: JobId) -> u64 {
    KIND_STREAM_BUF | job as u64
}

/// Stable synthetic addresses per region (reloads land at the same place,
/// like a re-established mmap of the same file).
pub(crate) struct AddrMap {
    map: HashMap<u64, u64>,
}

impl AddrMap {
    pub(crate) fn new() -> AddrMap {
        AddrMap { map: HashMap::new() }
    }

    pub(crate) fn addr_of(&mut self, ctx: &StreamContext, region: u64, bytes: usize) -> u64 {
        *self.map.entry(region).or_insert_with(|| ctx.addr.alloc(bytes))
    }
}

// ---------------------------------------------------------------------------
// Shared bookkeeping.
// ---------------------------------------------------------------------------

pub(crate) struct JobState {
    pub(crate) id: JobId,
    pub(crate) job: Box<dyn GraphJob>,
    pub(crate) submit_ns: f64,
    pub(crate) state_addr: u64,
    pub(crate) state_bytes: usize,
    pub(crate) clock: VirtualClock,
    pub(crate) instructions: u64,
    pub(crate) edges_processed: u64,
    pub(crate) iterations_guard: usize,
    pub(crate) admitted: bool,
    pub(crate) finished: bool,
    pub(crate) finish_ns: f64,
    pub(crate) error: Option<String>,
}

impl JobState {
    pub(crate) fn new(id: JobId, sub: Submission, num_vertices: u32) -> JobState {
        let state_bytes = num_vertices as usize * sub.job.state_bytes_per_vertex();
        JobState {
            id,
            job: sub.job,
            submit_ns: sub.submit_ns,
            state_addr: 0,
            state_bytes,
            clock: VirtualClock::default(),
            instructions: 0,
            edges_processed: 0,
            iterations_guard: 0,
            admitted: false,
            finished: false,
            finish_ns: 0.0,
            error: None,
        }
    }

    pub(crate) fn absorb(&mut self, run: &StreamRun) {
        self.clock.merge(&run.clock);
        self.instructions += run.instructions;
        self.edges_processed += run.edges_processed;
    }

    fn cpu_ns(&self) -> f64 {
        self.clock.compute_ns + self.clock.mem_access_ns
    }

    pub(crate) fn into_report(self) -> JobReport {
        JobReport {
            id: self.id,
            name: self.job.name().to_string(),
            iterations: self.job.iterations(),
            clock: self.clock,
            instructions: self.instructions,
            edges_processed: self.edges_processed,
            submit_ns: self.submit_ns,
            finish_ns: self.finish_ns,
            values: self.job.vertex_values(),
            error: self.error,
        }
    }
}

fn active_pids(source: &dyn PartitionSource, job: &dyn GraphJob) -> Vec<usize> {
    source.order().into_iter().filter(|&pid| source.partition_active(pid, job.active())).collect()
}

/// Assembles a run's report: the fourteen aggregate counters every
/// scheme reports, from the memory hierarchy's totals and the per-job
/// reports.
pub(crate) fn finish_report(
    scheme: Scheme,
    ctx: &StreamContext,
    jobs: Vec<JobReport>,
    makespan_ns: f64,
    partition_loads: u64,
    sync_total_ns: f64,
) -> RunReport {
    let mut metrics = Metrics::new();
    metrics.set(keys::TOTAL_NS, makespan_ns);
    metrics.set(keys::JOBS, jobs.len() as f64);
    metrics.set(keys::PARTITION_LOADS, partition_loads as f64);
    metrics.set(keys::SYNC_NS, sync_total_ns);
    metrics.set(keys::LLC_ACCESSES, ctx.llc.stats.accesses as f64);
    metrics.set(keys::LLC_MISSES, ctx.llc.stats.misses as f64);
    metrics.set(keys::LLC_FILL_BYTES, ctx.llc.stats.fill_bytes as f64);
    metrics.set(keys::DISK_READ_BYTES, ctx.mem.stats.disk_read_bytes as f64);
    metrics.set(keys::DISK_WRITE_BYTES, ctx.mem.stats.disk_write_bytes as f64);
    metrics.set(keys::PEAK_MEMORY_BYTES, ctx.mem.stats.peak_resident_bytes as f64);
    let mut compute = 0.0;
    let mut data_access = 0.0;
    let mut instructions = 0u64;
    let mut iterations = 0usize;
    for r in &jobs {
        compute += r.clock.compute_ns;
        data_access += r.clock.data_access_ns();
        instructions += r.instructions;
        iterations += r.iterations;
    }
    metrics.set(keys::COMPUTE_NS, compute);
    metrics.set(keys::DATA_ACCESS_NS, data_access);
    metrics.set(keys::INSTRUCTIONS, instructions as f64);
    metrics.set(keys::ITERATIONS, iterations as f64);
    RunReport { scheme, metrics, jobs, makespan_ns }
}

// ---------------------------------------------------------------------------
// Scheme S: sequential.
// ---------------------------------------------------------------------------

fn run_sequential(
    subs: Vec<Submission>,
    source: &dyn PartitionSource,
    cfg: &RunnerConfig,
) -> RunReport {
    let mut ctx = StreamContext::new(cfg.profile);
    let mut addrs = AddrMap::new();
    let n = source.num_vertices();
    let eff = cfg.effective_parallelism(1);
    let mut partition_loads = 0u64;
    let mut now = 0.0f64;
    let mut done: Vec<JobState> = Vec::new();

    for (id, sub) in subs.into_iter().enumerate() {
        let mut js = JobState::new(id, sub, n);
        now = now.max(js.submit_ns);
        js.admitted = true;
        js.state_addr = addrs.addr_of(&ctx, state_region(id), js.state_bytes);
        ctx.mem.touch_dirty(state_region(id), js.state_bytes, true);
        loop {
            let pids = active_pids(source, js.job.as_ref());
            if pids.is_empty() {
                break;
            }
            for pid in pids {
                let edges = source.load(pid);
                let bytes = source.partition_bytes(pid);
                // One job at a time: the graph region is shared across
                // successive jobs like an OS page cache over the same file.
                js.clock.disk_ns += ctx.touch_buffer(shared_graph_region(pid), bytes, false);
                partition_loads += 1;
                let addr = addrs.addr_of(&ctx, shared_graph_region(pid), bytes);
                let run = ctx.stream_edges_for_job(js.job.as_mut(), &edges, addr, js.state_addr);
                js.absorb(&run);
            }
            js.iterations_guard += 1;
            if js.job.end_iteration() || js.iterations_guard >= cfg.max_iterations {
                break;
            }
        }
        ctx.mem.release(state_region(id));
        now += js.clock.disk_ns.max(js.cpu_ns() / eff);
        js.finished = true;
        js.finish_ns = now;
        done.push(js);
    }
    let reports = done.into_iter().map(JobState::into_report).collect();
    finish_report(Scheme::Sequential, &ctx, reports, now, partition_loads, 0.0)
}

// ---------------------------------------------------------------------------
// Scheme C: concurrent private copies, quantum-interleaved.
// ---------------------------------------------------------------------------

struct ConcurrentCursor {
    pids: Vec<usize>,
    pid_idx: usize,
    edges: Option<Arc<Vec<graphm_graph::Edge>>>,
    cur_addr: u64,
    offset: usize,
    /// Scheduling steps taken (seeds the quantum jitter).
    steps: u64,
}

/// Deterministic quantum jitter for the Concurrent scheme. Uncoordinated
/// processes never stay phase-aligned: scheduler jitter, page faults and
/// convergence differences make their traversal positions drift apart, so
/// a fair fixed-size round-robin would wrongly let identical jobs share
/// the LLC "by accident". Each quantum is scaled by a pseudo-random factor
/// in [0.5, 1.5) derived from (job, step).
fn jittered_quantum(base: usize, job: JobId, step: u64) -> usize {
    let mut x = (job as u64) << 32 | step;
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    let frac = (x % 1024) as f64 / 1024.0;
    ((base as f64 * (0.5 + frac)) as usize).max(1)
}

fn run_concurrent(
    subs: Vec<Submission>,
    source: &dyn PartitionSource,
    cfg: &RunnerConfig,
) -> RunReport {
    let mut ctx = StreamContext::new(cfg.profile);
    let mut addrs = AddrMap::new();
    let n = source.num_vertices();
    let mut partition_loads = 0u64;
    let mut io_acc = 0.0f64;
    // CPU time already divided by the parallelism in effect when the work
    // ran, so it accumulates in wall-clock units.
    let mut cpu_acc = 0.0f64;
    let mut vnow = 0.0f64;

    let mut jobs: Vec<JobState> =
        subs.into_iter().enumerate().map(|(id, s)| JobState::new(id, s, n)).collect();
    let mut cursors: Vec<ConcurrentCursor> = jobs
        .iter()
        .map(|_| ConcurrentCursor {
            pids: Vec::new(),
            pid_idx: 0,
            edges: None,
            cur_addr: 0,
            offset: 0,
            steps: 0,
        })
        .collect();

    loop {
        // Admit arrivals whose submit time has passed.
        for (js, cur) in jobs.iter_mut().zip(cursors.iter_mut()) {
            if !js.admitted && js.submit_ns <= vnow {
                js.admitted = true;
                js.state_addr = addrs.addr_of(&ctx, state_region(js.id), js.state_bytes);
                ctx.mem.touch_dirty(state_region(js.id), js.state_bytes, true);
                cur.pids = active_pids(source, js.job.as_ref());
            }
        }
        let running: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.admitted && !j.finished)
            .map(|(i, _)| i)
            .collect();
        if running.is_empty() {
            // Idle: either everything is done, or we wait for an arrival.
            match jobs
                .iter()
                .filter(|j| !j.admitted)
                .map(|j| j.submit_ns)
                .min_by(|a, b| a.partial_cmp(b).unwrap())
            {
                Some(next) => {
                    vnow = vnow.max(next);
                    continue;
                }
                None => break,
            }
        }
        // One quantum per running job, round-robin: the OS time-slice
        // interleaving that drags every job's current partition through
        // the LLC at once.
        let eff = cfg.effective_parallelism(running.len());
        for i in running {
            let js = &mut jobs[i];
            let cur = &mut cursors[i];
            if cur.edges.is_none() {
                if cur.pid_idx >= cur.pids.len() {
                    js.iterations_guard += 1;
                    let converged =
                        js.job.end_iteration() || js.iterations_guard >= cfg.max_iterations;
                    if converged {
                        js.finished = true;
                        js.finish_ns = vnow;
                        ctx.mem.release(state_region(js.id));
                        ctx.mem.release(stream_buf_region(js.id));
                        continue;
                    }
                    cur.pids = active_pids(source, js.job.as_ref());
                    cur.pid_idx = 0;
                    if cur.pids.is_empty() {
                        js.finished = true;
                        js.finish_ns = vnow;
                        ctx.mem.release(state_region(js.id));
                        ctx.mem.release(stream_buf_region(js.id));
                        continue;
                    }
                }
                let pid = cur.pids[cur.pid_idx];
                let bytes = source.partition_bytes(pid);
                // Page-cache load, shared with every other job...
                let disk = ctx.touch_buffer(shared_graph_region(pid), bytes, false);
                js.clock.disk_ns += disk;
                io_acc += disk;
                partition_loads += 1;
                // ...plus this process's own pinned stream buffer (an
                // anonymous allocation filled from the cache — capacity
                // pressure, not disk traffic).
                ctx.mem.release(stream_buf_region(js.id));
                ctx.mem.reserve(stream_buf_region(js.id), bytes, true);
                cur.cur_addr = addrs.addr_of(&ctx, shared_graph_region(pid), bytes);
                cur.edges = Some(source.load(pid));
                cur.offset = 0;
            }
            let edges = cur.edges.as_ref().expect("partition loaded").clone();
            let q = jittered_quantum(QUANTUM_EDGES, js.id, cur.steps);
            cur.steps += 1;
            let end = (cur.offset + q).min(edges.len());
            let run = ctx.stream_edges_for_job(
                js.job.as_mut(),
                &edges[cur.offset..end],
                cur.cur_addr + (cur.offset * EDGE_BYTES) as u64,
                js.state_addr,
            );
            cpu_acc += (run.clock.compute_ns + run.clock.mem_access_ns) / eff;
            js.absorb(&run);
            cur.offset = end;
            if cur.offset >= edges.len() {
                cur.edges = None;
                cur.pid_idx += 1;
            }
            vnow = vnow.max(io_acc.max(cpu_acc));
        }
    }
    let reports = jobs.into_iter().map(JobState::into_report).collect();
    finish_report(Scheme::Concurrent, &ctx, reports, vnow, partition_loads, 0.0)
}

// ---------------------------------------------------------------------------
// Scheme M: GraphM sharing + fine-grained synchronization.
// ---------------------------------------------------------------------------

/// Measures the average per-edge data-access time `T(E)` by replaying the
/// first non-empty partition's record stream through a scratch LLC.
pub(crate) fn calibrate_te(cfg: &RunnerConfig, source: &dyn PartitionSource) -> Option<f64> {
    use graphm_cachesim::{CostParams, Llc, LlcConfig};
    let pid = (0..source.num_partitions()).find(|&p| source.partition_bytes(p) > 0)?;
    let edges = source.load(pid);
    if edges.is_empty() {
        return None;
    }
    let mut llc = Llc::new(LlcConfig {
        capacity_bytes: cfg.profile.llc_bytes,
        ways: cfg.profile.llc_ways,
        line_bytes: cfg.profile.line_bytes,
    });
    for i in 0..edges.len() {
        llc.access_range((i * EDGE_BYTES) as u64, EDGE_BYTES);
    }
    let cost = CostParams::DEFAULT;
    let ns = llc.stats.hits as f64 * cost.llc_hit_ns + llc.stats.misses as f64 * cost.llc_miss_ns;
    Some(ns / edges.len() as f64)
}

fn run_shared(
    subs: Vec<Submission>,
    source: &dyn PartitionSource,
    cfg: &RunnerConfig,
) -> RunReport {
    let state_bytes_per_vertex =
        subs.iter().map(|s| s.job.state_bytes_per_vertex()).max().unwrap_or(8);
    let mut svc = crate::service::SharingService::new(source, *cfg, state_bytes_per_vertex);
    for sub in subs {
        svc.enqueue(sub);
    }
    svc.run_until_idle();
    svc.into_run_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::CountingJob;
    use crate::source::VecSource;
    use graphm_graph::generators;

    fn make_source(n: u32, parts: usize) -> VecSource {
        make_big_source(n, (n as usize) * 8, parts)
    }

    fn make_big_source(n: u32, m: usize, parts: usize) -> VecSource {
        let g = generators::rmat(n, m, generators::RmatParams::GRAPH500, 33);
        let mut edges = g.edges.clone();
        edges.sort_by_key(|e| e.src);
        let per = edges.len().div_ceil(parts);
        let partitions: Vec<Vec<graphm_graph::Edge>> =
            edges.chunks(per).map(|c| c.to_vec()).collect();
        VecSource::new(n, partitions)
    }

    fn counting_subs(n: u32, jobs: usize, iters: usize) -> Vec<Submission> {
        (0..jobs).map(|_| Submission::immediate(Box::new(CountingJob::new(n, iters)))).collect()
    }

    fn cfg() -> RunnerConfig {
        RunnerConfig::new(MemoryProfile::TEST)
    }

    #[test]
    fn all_schemes_produce_identical_results() {
        let source = make_source(128, 3);
        for scheme in [Scheme::Sequential, Scheme::Concurrent, Scheme::Shared] {
            let report = run_scheme(scheme, counting_subs(128, 3, 2), &source, &cfg());
            assert_eq!(report.jobs.len(), 3, "{scheme:?}");
            for j in &report.jobs {
                assert_eq!(j.iterations, 2, "{scheme:?}");
                // Counting over 2 iterations = 2 * in-degree.
                let total: f64 = j.values.iter().sum();
                assert_eq!(total as u64, 2 * 128 * 8, "{scheme:?}");
            }
            assert!(report.makespan_ns > 0.0);
            assert_eq!(report.metrics.get(keys::JOBS), 3.0);
        }
    }

    #[test]
    fn shared_reads_less_disk_than_concurrent() {
        // Out-of-core regime (graph 360 KB > TEST memory 256 KB): the
        // paper's Figure 12 shows the I/O gap only there — in-memory
        // graphs are "cached in the memory via memory mapping and only
        // need to be read from disks once" under every scheme.
        let source = make_big_source(256, 30_000, 6);
        let m = run_scheme(Scheme::Shared, counting_subs(256, 4, 3), &source, &cfg());
        let c = run_scheme(Scheme::Concurrent, counting_subs(256, 4, 3), &source, &cfg());
        assert!(
            m.metrics.get(keys::DISK_READ_BYTES) < c.metrics.get(keys::DISK_READ_BYTES),
            "M {} vs C {}",
            m.metrics.get(keys::DISK_READ_BYTES),
            c.metrics.get(keys::DISK_READ_BYTES)
        );
    }

    #[test]
    fn shared_beats_concurrent_on_llc_for_multi_job() {
        let source = make_source(256, 2);
        let m = run_scheme(Scheme::Shared, counting_subs(256, 4, 2), &source, &cfg());
        let c = run_scheme(Scheme::Concurrent, counting_subs(256, 4, 2), &source, &cfg());
        let m_rate = m.metrics.get(keys::LLC_MISSES) / m.metrics.get(keys::LLC_ACCESSES);
        let c_rate = c.metrics.get(keys::LLC_MISSES) / c.metrics.get(keys::LLC_ACCESSES);
        assert!(m_rate < c_rate, "M miss rate {m_rate} vs C {c_rate}");
    }

    #[test]
    fn shared_faster_than_sequential_for_multiple_jobs() {
        // Enough iterations that compute/cache time dominates the one-time
        // partition loads (the in-memory regime of Figure 9, where the
        // paper reports 2.6x vs scheme S), on an 8-core profile: one
        // streaming job cannot fill eight cores, concurrent shared jobs
        // can, and GraphM adds LLC reuse on top (Figure 20's regime).
        let mut profile = MemoryProfile::TEST;
        profile.cores = 8;
        let mut cfg8 = cfg();
        cfg8.profile = profile;
        // Formula 1 on the deliberately tiny TEST LLC with 8 cores yields
        // degenerate 64-edge chunks; pin a realistic chunk:LLC ratio (the
        // DEFAULT profile yields ~27 KB chunks for a 256 KB LLC).
        cfg8.chunk_bytes_override = Some(4096);
        let source = make_big_source(256, 8192, 4);
        let m = run_scheme(Scheme::Shared, counting_subs(256, 4, 30), &source, &cfg8);
        let s = run_scheme(Scheme::Sequential, counting_subs(256, 4, 30), &source, &cfg8);
        assert!(m.makespan_ns < s.makespan_ns, "M {} vs S {}", m.makespan_ns, s.makespan_ns);
    }

    #[test]
    fn single_job_schemes_agree_roughly() {
        // With one job there is nothing to share; M only adds bounded sync
        // overhead (§5.6: "the fine-grained synchronization operation of
        // GraphM does not occur when there is only one job").
        let source = make_source(128, 2);
        let s = run_scheme(Scheme::Sequential, counting_subs(128, 1, 3), &source, &cfg());
        let m = run_scheme(Scheme::Shared, counting_subs(128, 1, 3), &source, &cfg());
        assert!(m.makespan_ns <= s.makespan_ns * 1.5);
    }

    #[test]
    fn arrivals_respected() {
        let source = make_source(128, 2);
        let mut subs = counting_subs(128, 1, 2);
        subs.push(Submission::at(Box::new(CountingJob::new(128, 2)), 1e12));
        let r = run_scheme(Scheme::Concurrent, subs, &source, &cfg());
        assert!(r.jobs[1].finish_ns >= 1e12, "late job finishes after its arrival");
        assert!(r.jobs[0].finish_ns < 1e12, "early job does not wait for it");
    }

    #[test]
    fn empty_submission_list() {
        let source = make_source(64, 2);
        for scheme in [Scheme::Sequential, Scheme::Concurrent, Scheme::Shared] {
            let r = run_scheme(scheme, Vec::new(), &source, &cfg());
            assert_eq!(r.jobs.len(), 0);
            assert_eq!(r.makespan_ns, 0.0);
        }
    }

    #[test]
    fn fine_sync_ablation_runs_and_matches_results() {
        let source = make_source(256, 2);
        let mut no_sync = cfg();
        no_sync.fine_sync = false;
        let a = run_scheme(Scheme::Shared, counting_subs(256, 3, 2), &source, &cfg());
        let b = run_scheme(Scheme::Shared, counting_subs(256, 3, 2), &source, &no_sync);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.values, y.values, "ablation must not change results");
        }
        // Chunk-regular streaming cannot be worse on LLC misses.
        assert!(a.metrics.get(keys::LLC_MISSES) <= b.metrics.get(keys::LLC_MISSES));
    }

    #[test]
    fn profiler_predictions_reported() {
        let source = make_source(256, 4);
        let r = run_scheme(Scheme::Shared, counting_subs(256, 2, 4), &source, &cfg());
        assert!(r.metrics.contains("profile_mae_ns"), "profiling phase must engage");
    }
}
