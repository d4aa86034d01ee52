//! The Shared scheme as an arrival-driven service: the cost-model walk
//! behind `run_scheme(Scheme::Shared, ...)`.
//!
//! [`SharingService`] replays the Shared-scheme loop through the
//! simulated memory hierarchy:
//!
//! * [`SharingService::enqueue`]/[`SharingService::submit`] add a job with
//!   its virtual arrival time;
//! * [`SharingService::run_until_idle`] steps until every job has
//!   finished — each step performs admissions and then either one full
//!   sweep (one iteration for every live job, partitions loaded in the §4
//!   priority order, one shared load per partition) or a virtual clock
//!   advance to the next pending arrival;
//! * finished jobs turn into [`JobReport`]s immediately, releasing their
//!   per-vertex state, and [`SharingService::into_run_report`] collects
//!   them with the run's metrics.
//!
//! The `Init()` preprocessing (Formula-1 chunk sizing + Algorithm-1
//! labelling) and the `T(E)` calibration run **once**, at construction,
//! and the service pins its source's generation from construction to drop,
//! so neither they nor any job straddle a rotation published through a
//! shared delta-store handle.
//!
//! Determinism: driving a fresh service with a fixed batch (`enqueue` all,
//! then [`SharingService::run_until_idle`]) replays exactly what
//! `run_scheme(Scheme::Shared, ...)` does — bit-identical reports,
//! metrics, and makespan. `run_shared` is implemented as precisely that
//! delegation, and `service_batch_matches_run_scheme` in this module's
//! tests pins the equivalence.

use crate::exec::StreamContext;
use crate::global_table::GlobalTable;
use crate::graphm::{GraphM, GraphMConfig};
use crate::job::{GraphJob, JobId};
use crate::profile::{ProfileSample, Profiler};
use crate::runner::{
    calibrate_te, finish_report, shared_graph_region, state_region, AddrMap, JobReport, JobState,
    RunReport, RunnerConfig, Scheme, Submission, KIND_META,
};
use crate::scheduler::loading_order;
use crate::source::PartitionSource;
use graphm_graph::EDGE_BYTES;
use std::collections::HashMap;

/// The Shared execution scheme over jobs that arrive over virtual time.
/// See the module docs.
pub struct SharingService<'s> {
    source: &'s dyn PartitionSource,
    cfg: RunnerConfig,
    ctx: StreamContext,
    addrs: AddrMap,
    gm: GraphM,
    global: GlobalTable,
    profiler: Profiler,
    /// Submitted jobs by id; `None` once retired into `finished`.
    jobs: Vec<Option<JobState>>,
    /// Reports of the retired jobs, in retirement order.
    finished: Vec<JobReport>,
    vnow: f64,
    io_acc: f64,
    cpu_acc: f64,
    sync_total: f64,
    partition_loads: u64,
    pred_abs_err: f64,
    pred_samples: u64,
}

fn active_mut(jobs: &mut [Option<JobState>], id: JobId) -> &mut JobState {
    jobs[id].as_mut().unwrap_or_else(|| panic!("job {id} is not active"))
}

impl<'s> SharingService<'s> {
    /// Pins `source`'s generation (until the service is dropped),
    /// preprocesses it (Formula-1 chunk sizing, Algorithm-1 labelling,
    /// `T(E)` calibration) and returns an idle service.
    ///
    /// `state_bytes_per_vertex` is Formula 1's `U_v` — the per-vertex job
    /// state the chunk size budgets for. The batch runner derives it from
    /// the submissions it already holds; a service sizes it for the
    /// *expected* mix instead (8 bytes covers every shipped algorithm).
    pub fn new(
        source: &'s dyn PartitionSource,
        cfg: RunnerConfig,
        state_bytes_per_vertex: usize,
    ) -> SharingService<'s> {
        // Pinned before preprocessing reads the source, so the chunk
        // tables describe the generation every job will stream.
        source.sweep_begin();
        let mut ctx = StreamContext::new(cfg.profile);
        let mut gm_cfg = GraphMConfig::new(cfg.profile);
        gm_cfg.policy = cfg.policy;
        gm_cfg.chunk_bytes_override = cfg.chunk_bytes_override;
        gm_cfg.fine_sync = cfg.fine_sync;
        gm_cfg.out_of_core = cfg.out_of_core;
        let gm = GraphM::init(source, state_bytes_per_vertex, gm_cfg);

        // The chunk tables live in memory for the whole service lifetime
        // (Figure 11: part of GraphM's extra footprint over scheme S).
        // Built during Init(), not read from disk.
        ctx.mem.reserve(KIND_META | 1, gm.overhead_bytes(), true);

        let global = GlobalTable::new(source.num_partitions());
        let mut profiler = Profiler::new();
        // Calibrate T(E) once per graph (§3.4.2: "T(E) is a constant for
        // the same graph and only needs to be profiled once for different
        // jobs"): stream one partition through a scratch cache with no
        // compute attached and average the per-edge access cost. Without
        // this, jobs that never skip edges (PageRank-style) produce
        // collinear Formula-2 samples.
        if let Some(te) = calibrate_te(&cfg, source) {
            profiler.set_te(te);
        }
        SharingService {
            source,
            cfg,
            ctx,
            addrs: AddrMap::new(),
            gm,
            global,
            profiler,
            jobs: Vec::new(),
            finished: Vec::new(),
            vnow: 0.0,
            io_acc: 0.0,
            cpu_acc: 0.0,
            sync_total: 0.0,
            partition_loads: 0,
            pred_abs_err: 0.0,
            pred_samples: 0,
        }
    }

    /// Adds a submission (job + virtual arrival time). A job whose
    /// `submit_ns` has passed is admitted at the start of the next step;
    /// a future arrival waits on the virtual clock. Returns the job's id
    /// (dense, submission-ordered).
    pub fn enqueue(&mut self, sub: Submission) -> JobId {
        let id = self.jobs.len();
        self.jobs.push(Some(JobState::new(id, sub, self.source.num_vertices())));
        id
    }

    /// Submits `job` *now*, at the current virtual time: it joins at the
    /// next sweep boundary.
    pub fn submit(&mut self, job: Box<dyn GraphJob>) -> JobId {
        self.enqueue(Submission::at(job, self.vnow))
    }

    /// One scheduling step: admissions, then either one sweep over the
    /// loading order (if any admitted job is unfinished) or a virtual
    /// clock advance to the earliest pending arrival. Returns `false` when
    /// every submitted job has finished.
    fn step(&mut self) -> bool {
        // Admissions.
        for js in self.jobs.iter_mut().flatten() {
            if !js.admitted && js.submit_ns <= self.vnow {
                js.admitted = true;
                js.state_addr = self.addrs.addr_of(&self.ctx, state_region(js.id), js.state_bytes);
                self.ctx.mem.touch_dirty(state_region(js.id), js.state_bytes, true);
                let pids: Vec<usize> = self
                    .source
                    .order()
                    .into_iter()
                    .filter(|&pid| self.gm.partition_active(pid, js.job.active()))
                    .collect();
                self.global.set_active_partitions(js.id, &pids);
            }
        }
        let alive: Vec<JobId> =
            self.jobs.iter().flatten().filter(|js| js.admitted).map(|js| js.id).collect();
        if alive.is_empty() {
            return match self
                .jobs
                .iter()
                .flatten()
                .map(|js| js.submit_ns)
                .min_by(|a, b| a.partial_cmp(b).unwrap())
            {
                Some(next) => {
                    self.vnow = self.vnow.max(next);
                    true
                }
                None => false,
            };
        }
        self.sweep(&alive);
        true
    }

    /// Steps until idle (every submitted job finished).
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// One sweep = one iteration for every live job, partitions loaded in
    /// the §4 priority order. The sweep's elapsed time is assembled from
    /// its own I/O and CPU totals at the end.
    fn sweep(&mut self, alive: &[JobId]) {
        let mut sweep_io = 0.0f64;
        let mut sweep_cpu = 0.0f64;
        let mut sweep_sync = 0.0f64;
        let order = loading_order(&self.global, self.cfg.policy);
        for &pid in &order {
            let needing: Vec<JobId> =
                alive.iter().copied().filter(|&i| self.global.jobs_for(pid).contains(&i)).collect();
            if needing.is_empty() {
                continue;
            }
            let edges = match self.source.try_load(pid) {
                Ok(edges) => edges,
                Err(e) => {
                    // A failed shared load fails exactly the jobs that
                    // needed this partition — they retire with the error
                    // on their report — and the sweep continues for
                    // everyone else.
                    let msg = e.to_string();
                    for &i in &needing {
                        active_mut(&mut self.jobs, i).error = Some(msg.clone());
                        self.finish(i);
                    }
                    continue;
                }
            };
            let bytes = self.source.partition_bytes(pid);
            let disk = self.ctx.touch_buffer(shared_graph_region(pid), bytes, false);
            sweep_io += disk;
            self.partition_loads += 1;
            // Amortize the one shared load across its consumers (Figure 10
            // attribution; the makespan already counts it once).
            let share = disk / needing.len() as f64;
            for &i in &needing {
                active_mut(&mut self.jobs, i).clock.disk_ns += share;
            }
            let base = self.addrs.addr_of(&self.ctx, shared_graph_region(pid), bytes);

            // Per-(job, partition) Formula-2 accumulators.
            let mut acc: HashMap<JobId, (f64, f64, f64)> = HashMap::new();
            let Self { gm, ctx, jobs, profiler, pred_abs_err, pred_samples, .. } = self;
            if gm.config.fine_sync {
                for (ci, chunk) in gm.tables[pid].chunks.iter().enumerate() {
                    // Rotate the round-robin start so no job always pays
                    // the cold first touch (§3.2: "the jobs are triggered
                    // to handle the loaded data in a round-robin way").
                    for k in 0..needing.len() {
                        let i = needing[(k + ci) % needing.len()];
                        let js = active_mut(jobs, i);
                        if js.job.skips_inactive() && !chunk.any_active(js.job.active()) {
                            continue;
                        }
                        // Syncing-phase prediction (Formula 3) vs measurement.
                        let predicted = profiler.chunk_load(js.id, chunk, js.job.active());
                        let run = ctx.stream_edges_for_job(
                            js.job.as_mut(),
                            &edges[chunk.edges.clone()],
                            base + (chunk.edges.start * EDGE_BYTES) as u64,
                            js.state_addr,
                        );
                        if let Some(p) = predicted {
                            *pred_abs_err += (p - run.clock.compute_ns).abs();
                            *pred_samples += 1;
                        }
                        sweep_cpu += run.clock.compute_ns + run.clock.mem_access_ns;
                        js.absorb(&run);
                        let e = acc.entry(js.id).or_insert((0.0, 0.0, 0.0));
                        e.0 += run.edges_processed as f64;
                        e.1 += run.edges_streamed as f64;
                        e.2 += run.clock.compute_ns + run.clock.mem_access_ns;
                        // Chunk barrier bookkeeping.
                        js.clock.sync_ns += ctx.cost.sync_event_ns;
                        sweep_sync += ctx.cost.sync_event_ns;
                    }
                }
            } else {
                // Ablation: memory-level sharing only; each job streams the
                // whole partition independently (no LLC-level regularity).
                for &i in &needing {
                    let js = active_mut(jobs, i);
                    let run =
                        ctx.stream_edges_for_job(js.job.as_mut(), &edges, base, js.state_addr);
                    sweep_cpu += run.clock.compute_ns + run.clock.mem_access_ns;
                    js.absorb(&run);
                    let e = acc.entry(js.id).or_insert((0.0, 0.0, 0.0));
                    e.0 += run.edges_processed as f64;
                    e.1 += run.edges_streamed as f64;
                    e.2 += run.clock.compute_ns + run.clock.mem_access_ns;
                }
            }
            // Profiling phase: feed Formula 2 with this partition's totals.
            for (&job_id, &(a, b, t)) in &acc {
                self.profiler
                    .observe(job_id, ProfileSample { active_edges: a, total_edges: b, time_ns: t });
            }
            // Global-table maintenance cost.
            sweep_sync += self.ctx.cost.schedule_event_ns * needing.len() as f64;
        }

        // End of sweep: fold this sweep's work into the run accumulators.
        // Disk and CPU overlap across the whole run (as in the Concurrent
        // scheme's accumulation): elapsed time is max(io, cpu) + sync.
        let eff = self.cfg.effective_parallelism(alive.len());
        self.io_acc += sweep_io;
        self.cpu_acc += sweep_cpu / eff;
        self.sync_total += sweep_sync;
        self.vnow = self.vnow.max(self.io_acc.max(self.cpu_acc + self.sync_total));
        for &i in alive {
            let Some(js) = self.jobs[i].as_mut() else {
                continue; // Failed mid-sweep and already retired.
            };
            js.iterations_guard += 1;
            let converged =
                js.job.end_iteration() || js.iterations_guard >= self.cfg.max_iterations;
            if converged {
                self.finish(i);
            } else {
                let pids: Vec<usize> = self
                    .source
                    .order()
                    .into_iter()
                    .filter(|&pid| self.gm.partition_active(pid, js.job.active()))
                    .collect();
                if pids.is_empty() {
                    self.finish(i);
                } else {
                    self.global.set_active_partitions(i, &pids);
                }
            }
        }
    }

    /// Retires job `i`: releases its state memory, drops it from the
    /// global table and profiler, and converts it into a report.
    fn finish(&mut self, i: JobId) {
        let mut js = self.jobs[i].take().unwrap_or_else(|| panic!("job {i} is not active"));
        js.finish_ns = self.vnow;
        self.ctx.mem.release(state_region(i));
        self.global.remove_job(i);
        self.profiler.retire(i);
        self.finished.push(js.into_report());
    }

    /// Shared partition loads performed so far (one per `(sweep,
    /// partition)` with interested jobs — *not* per job; the gap to
    /// `jobs × partitions × iterations` is the sharing win).
    pub fn partition_loads(&self) -> u64 {
        self.partition_loads
    }

    /// Assembles the whole-service [`RunReport`] (jobs in id order),
    /// consuming the service. Drive it to idle first for a complete report
    /// (the batch `run_scheme` path does): a job still unfinished reports
    /// the state it reached.
    pub fn into_run_report(mut self) -> RunReport {
        let mut reports = std::mem::take(&mut self.finished);
        reports.extend(self.jobs.iter_mut().filter_map(Option::take).map(JobState::into_report));
        reports.sort_by_key(|r| r.id);
        let mut report = finish_report(
            Scheme::Shared,
            &self.ctx,
            reports,
            self.vnow,
            self.partition_loads,
            self.sync_total,
        );
        let metrics = &mut report.metrics;
        metrics.set("chunk_bytes", self.gm.chunk_bytes as f64);
        metrics.set("chunk_table_bytes", self.gm.overhead_bytes() as f64);
        metrics.set("preprocess_ns", self.gm.preprocess_ns);
        if self.pred_samples > 0 {
            metrics.set("profile_mae_ns", self.pred_abs_err / self.pred_samples as f64);
        }
        report
    }
}

impl Drop for SharingService<'_> {
    /// Releases the generation pin taken in [`SharingService::new`] — also
    /// when a run is abandoned or unwinds, so a shared delta-store handle
    /// can always adopt a published rotation afterwards.
    fn drop(&mut self) {
        self.source.sweep_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::CountingJob;
    use crate::runner::run_scheme;
    use crate::source::VecSource;
    use graphm_graph::{generators, MemoryProfile};

    fn make_source(n: u32, m: usize, parts: usize) -> VecSource {
        let g = generators::rmat(n, m, generators::RmatParams::GRAPH500, 33);
        let mut edges = g.edges.clone();
        edges.sort_by_key(|e| e.src);
        let per = edges.len().div_ceil(parts);
        VecSource::new(n, edges.chunks(per).map(<[_]>::to_vec).collect())
    }

    fn cfg() -> RunnerConfig {
        RunnerConfig::new(MemoryProfile::TEST)
    }

    fn counting_subs(n: u32, jobs: usize, iters: usize) -> Vec<Submission> {
        (0..jobs).map(|_| Submission::immediate(Box::new(CountingJob::new(n, iters)))).collect()
    }

    /// The pinned equivalence: a fresh service driven over a fixed batch
    /// reproduces `run_scheme(Scheme::Shared, ...)` bit for bit.
    #[test]
    fn service_batch_matches_run_scheme() {
        let source = make_source(256, 2048, 4);
        let batch = run_scheme(Scheme::Shared, counting_subs(256, 3, 3), &source, &cfg());

        let mut svc = SharingService::new(&source, cfg(), 8);
        for sub in counting_subs(256, 3, 3) {
            svc.enqueue(sub);
        }
        svc.run_until_idle();
        let served = svc.into_run_report();

        assert_eq!(batch.makespan_ns.to_bits(), served.makespan_ns.to_bits());
        assert_eq!(batch.jobs.len(), served.jobs.len());
        for (a, b) in batch.jobs.iter().zip(&served.jobs) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.edges_processed, b.edges_processed);
            assert_eq!(a.finish_ns.to_bits(), b.finish_ns.to_bits());
            assert_eq!(a.values, b.values);
        }
        for key in [
            graphm_cachesim::keys::PARTITION_LOADS,
            graphm_cachesim::keys::LLC_MISSES,
            graphm_cachesim::keys::DISK_READ_BYTES,
            "profile_mae_ns",
        ] {
            assert_eq!(
                batch.metrics.get(key).to_bits(),
                served.metrics.get(key).to_bits(),
                "{key}"
            );
        }
    }

    /// A job arriving while another is mid-run joins at the next sweep and
    /// shares its loads.
    #[test]
    fn late_submissions_join_and_share() {
        let source = make_source(128, 1024, 4);
        let mut svc = SharingService::new(&source, cfg(), 8);
        let a = svc.enqueue(Submission::immediate(Box::new(CountingJob::new(128, 6))));
        // Due the moment the first sweep has advanced the clock at all.
        let b = svc.enqueue(Submission::at(Box::new(CountingJob::new(128, 2)), 1.0));
        svc.run_until_idle();
        let report = svc.into_run_report();
        let (ra, rb) = (&report.jobs[a], &report.jobs[b]);
        assert_eq!((ra.iterations, rb.iterations), (6, 2));
        // Virtual time is max(io, cpu + sync): b's sweeps may hide under
        // a's I/O, so <= rather than <.
        assert!(rb.finish_ns <= ra.finish_ns, "b retired no later than a");

        // While both were live, each sweep still loaded each partition
        // once: total loads stay strictly below per-job accounting.
        let loads = report.metrics.get(graphm_cachesim::keys::PARTITION_LOADS);
        assert!(loads < ((6 + 2) * 4) as f64, "shared loads {loads}");

        // Results unaffected by co-residency.
        let total: f64 = rb.values.iter().sum();
        assert_eq!(total as u64, 2 * 1024);
        assert_eq!(rb.submit_ns, 1.0, "late job carries its virtual arrival time");
        assert!(rb.finish_ns >= rb.submit_ns);
    }

    /// Future-dated arrivals advance the clock instead of deadlocking.
    #[test]
    fn future_arrivals_advance_clock() {
        let source = make_source(64, 512, 2);
        let mut svc = SharingService::new(&source, cfg(), 8);
        svc.enqueue(Submission::at(Box::new(CountingJob::new(64, 1)), 5e9));
        svc.run_until_idle();
        let r = &svc.into_run_report().jobs[0];
        assert!(r.finish_ns >= 5e9);
    }
}
