//! The experiment workbench: dataset → engine → job mix → scheme run.
//!
//! Every figure builds a [`Workbench`] once per dataset and then runs
//! the same submissions under each scheme, so S/C/M comparisons see
//! identical graphs, identical job parameters, and identical arrival
//! times.

use crate::arrivals;
use crate::jobmix::{generate_mix, JobSpec, MixConfig};
use graphm_core::{
    run_scheme, GraphJob, PartitionSource, RunReport, RunnerConfig, SchedulingPolicy, Scheme,
    Submission, WallClockConfig, WallClockExecutor, WallRunReport,
};
use graphm_graph::{DatasetId, EdgeList, MemoryProfile};
use graphm_gridgraph::{run_gridgraph, DiskGridSource, GridGraphEngine, GridSource};
use graphm_store::{PrefetchTarget, Prefetcher};
use std::path::Path;
use std::sync::Arc;

/// Scales a memory profile down by `divisor`, used when datasets are
/// generated at reduced scale so the in-memory/out-of-core regime split is
/// preserved.
pub fn scaled_profile(base: MemoryProfile, divisor: usize) -> MemoryProfile {
    if divisor <= 1 {
        return base;
    }
    MemoryProfile {
        memory_bytes: (base.memory_bytes / divisor).max(64 << 10),
        llc_bytes: (base.llc_bytes / divisor).max(8 << 10),
        llc_ways: base.llc_ways,
        line_bytes: base.line_bytes,
        cores: base.cores,
        llc_reserved: (base.llc_reserved / divisor).max(256),
    }
}

/// Where a workbench's partitions come from.
pub enum WorkbenchBackend {
    /// The in-memory GridGraph host engine (the original path).
    InMemory(GridGraphEngine),
    /// A disk-resident grid store; partitions stream from mmap'd segments.
    Disk(Arc<DiskGridSource>),
}

/// A prepared experiment environment over one graph.
pub struct Workbench {
    /// The raw graph; `None` for disk-backed workbenches, where the
    /// structure stays on disk (that being the point). Access through
    /// [`Workbench::graph`] / [`Workbench::num_vertices`].
    graph: Option<EdgeList>,
    /// Total vertex count (valid in both modes).
    num_vertices: graphm_graph::VertexId,
    /// The partition backend experiments stream from.
    pub backend: WorkbenchBackend,
    /// Out-degrees (for PageRank-family jobs).
    pub out_degrees: Arc<Vec<u32>>,
    /// The memory profile experiments run under.
    pub profile: MemoryProfile,
    /// Which dataset this is, when registry-built.
    pub dataset: Option<DatasetId>,
    /// Scale divisor the dataset was generated at.
    pub scale: usize,
    /// Total structure bytes (`S_G`); for disk workbenches this comes from
    /// the store manifest rather than the (unpopulated) edge list.
    pub structure_bytes: usize,
}

impl Workbench {
    /// Builds a workbench for a registered dataset at `1/scale` size with
    /// a `p × p` grid.
    pub fn dataset(id: DatasetId, scale: usize, p: usize) -> Workbench {
        let graph = id.generate_scaled(scale.max(1));
        let profile = scaled_profile(MemoryProfile::DEFAULT, scale.max(1));
        Workbench::build(graph, p, profile, Some(id), scale.max(1))
    }

    /// Builds a workbench over an arbitrary graph.
    pub fn from_graph(graph: EdgeList, p: usize, profile: MemoryProfile) -> Workbench {
        Workbench::build(graph, p, profile, None, 1)
    }

    /// Builds a workbench over a disk-resident grid store written by
    /// `graphm_store::Convert::grid`. The graph structure stays on disk
    /// behind the mmap; only vertex metadata (out-degrees for
    /// PageRank-family jobs) is materialized.
    ///
    /// Opens through [`DiskGridSource::open_shared`], so any number of
    /// workbenches (or a co-resident `graphm-server` daemon) over the
    /// same store directory share one mapping instead of one each.
    pub fn from_disk(dir: &Path, profile: MemoryProfile) -> graphm_graph::Result<Workbench> {
        let source = DiskGridSource::open_shared(dir)?;
        let out_degrees = Arc::new(source.out_degrees());
        let num_vertices = graphm_core::PartitionSource::num_vertices(source.as_ref());
        let structure_bytes = graphm_core::PartitionSource::graph_bytes(source.as_ref());
        Ok(Workbench {
            graph: None,
            num_vertices,
            backend: WorkbenchBackend::Disk(source),
            out_degrees,
            profile,
            dataset: None,
            scale: 1,
            structure_bytes,
        })
    }

    fn build(
        graph: EdgeList,
        p: usize,
        profile: MemoryProfile,
        dataset: Option<DatasetId>,
        scale: usize,
    ) -> Workbench {
        let (engine, _) = GridGraphEngine::convert(&graph, p);
        let out_degrees = engine.out_degrees();
        let structure_bytes = graph.size_bytes();
        let num_vertices = graph.num_vertices;
        Workbench {
            graph: Some(graph),
            num_vertices,
            backend: WorkbenchBackend::InMemory(engine),
            out_degrees,
            profile,
            dataset,
            scale,
            structure_bytes,
        }
    }

    /// Total vertex count (valid for both in-memory and disk-backed
    /// workbenches).
    pub fn num_vertices(&self) -> graphm_graph::VertexId {
        self.num_vertices
    }

    /// The raw edge list. Panics for disk-backed workbenches — the
    /// structure never leaves disk there; use [`Workbench::num_vertices`],
    /// [`Workbench::out_degrees`][Self], or [`Workbench::disk_source`]
    /// instead.
    pub fn graph(&self) -> &EdgeList {
        self.graph.as_ref().unwrap_or_else(|| {
            panic!("workbench is disk-backed; the edge list is not materialized")
        })
    }

    /// The in-memory host engine. Panics for disk-backed workbenches —
    /// callers that need raw blocks should use [`Workbench::disk_source`]
    /// or match on [`Workbench::backend`] instead.
    pub fn engine(&self) -> &GridGraphEngine {
        match &self.backend {
            WorkbenchBackend::InMemory(engine) => engine,
            WorkbenchBackend::Disk(src) => panic!(
                "workbench is disk-backed ({}); it has no in-memory engine",
                src.dir().display()
            ),
        }
    }

    /// The disk source, when this workbench is disk-backed.
    pub fn disk_source(&self) -> Option<&Arc<DiskGridSource>> {
        match &self.backend {
            WorkbenchBackend::Disk(src) => Some(src),
            WorkbenchBackend::InMemory(_) => None,
        }
    }

    /// Whether the graph exceeds the simulated memory budget.
    pub fn out_of_core(&self) -> bool {
        self.structure_bytes > self.profile.memory_bytes
    }

    /// Default runner configuration for this workbench.
    pub fn runner_config(&self) -> RunnerConfig {
        let mut cfg = RunnerConfig::new(self.profile);
        cfg.out_of_core = self.out_of_core();
        cfg
    }

    /// The paper's §5.1 mix of `count` jobs.
    pub fn paper_mix(&self, count: usize, seed: u64) -> Vec<JobSpec> {
        generate_mix(self.num_vertices, &MixConfig::paper(count, seed))
    }

    /// Turns specs + arrival times into submissions.
    pub fn submissions(&self, specs: &[JobSpec], arrivals: &[f64]) -> Vec<Submission> {
        assert_eq!(specs.len(), arrivals.len());
        specs
            .iter()
            .zip(arrivals)
            .map(|(s, &t)| Submission::at(s.instantiate(self.num_vertices, &self.out_degrees), t))
            .collect()
    }

    /// Runs `specs` under `scheme` with the given arrivals and the default
    /// runner configuration.
    pub fn run(&self, scheme: Scheme, specs: &[JobSpec], arrivals: &[f64]) -> RunReport {
        self.run_with(scheme, specs, arrivals, &self.runner_config())
    }

    /// Runs with an explicit runner configuration (core-count sweeps,
    /// scheduling-policy ablations, chunk-size ablations).
    pub fn run_with(
        &self,
        scheme: Scheme,
        specs: &[JobSpec],
        arrivals: &[f64],
        cfg: &RunnerConfig,
    ) -> RunReport {
        let subs = self.submissions(specs, arrivals);
        match &self.backend {
            WorkbenchBackend::InMemory(engine) => run_gridgraph(scheme, subs, engine, cfg),
            WorkbenchBackend::Disk(source) => run_scheme(scheme, subs, source.as_ref(), cfg),
        }
    }

    /// Runs `specs` on the **wall-clock** shared path — the sweep driver
    /// on the worker pool's lanes, chunks sized by this workbench's
    /// profile — alongside the deterministic [`Workbench::run`].
    /// Disk-backed workbenches get a partition [`Prefetcher`] wired to
    /// the runtime's loading order (read its counters from
    /// [`disk_source()`](Workbench::disk_source)`.prefetch_stats()`);
    /// in-memory workbenches have nothing to read ahead.
    pub fn run_shared_wallclock(&self, specs: &[JobSpec]) -> WallRunReport {
        let jobs: Vec<Box<dyn GraphJob>> =
            specs.iter().map(|s| s.instantiate(self.num_vertices, &self.out_degrees)).collect();
        let (source, prefetcher): (Arc<dyn PartitionSource>, Option<Prefetcher>) = match &self
            .backend
        {
            WorkbenchBackend::InMemory(engine) => (Arc::new(GridSource::new(engine.grid())), None),
            WorkbenchBackend::Disk(src) => (
                Arc::clone(src) as Arc<dyn PartitionSource>,
                Some(Prefetcher::spawn(Arc::clone(src) as Arc<dyn PrefetchTarget>)),
            ),
        };
        let hook = prefetcher.as_ref().map(Prefetcher::hook);
        let exec = WallClockExecutor::new(source, WallClockConfig::new(self.profile), hook);
        exec.run_batch(jobs)
        // `prefetcher` drops here, stopping and joining its thread.
    }

    /// Convenience: run all three schemes on the same workload, immediate
    /// arrivals. Returns `(S, C, M)`.
    pub fn run_all_schemes(&self, specs: &[JobSpec]) -> (RunReport, RunReport, RunReport) {
        let arr = arrivals::immediate_arrivals(specs.len());
        (
            self.run(Scheme::Sequential, specs, &arr),
            self.run(Scheme::Concurrent, specs, &arr),
            self.run(Scheme::Shared, specs, &arr),
        )
    }

    /// Runner config with the §4 scheduler disabled (Figure 18's
    /// `GridGraph-M-without`).
    pub fn runner_config_without_scheduling(&self) -> RunnerConfig {
        let mut cfg = self.runner_config();
        cfg.policy = SchedulingPolicy::Default;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_cachesim::keys;

    fn bench() -> Workbench {
        // LiveJ at 1/16 scale: small enough for unit tests while keeping
        // the graph-to-LLC ratio (~16x) in the paper's regime.
        Workbench::dataset(DatasetId::LiveJ, 16, 4)
    }

    #[test]
    fn regimes_follow_scaling() {
        let wb = bench();
        assert_eq!(wb.scale, 16);
        // LiveJ fits in (scaled) memory.
        assert!(!wb.out_of_core());
        let big = Workbench::dataset(DatasetId::Clueweb, 64, 3);
        assert!(big.out_of_core(), "clueweb-sim stays out-of-core at matched scale");
    }

    #[test]
    fn end_to_end_16_jobs_shape() {
        let wb = bench();
        let specs = wb.paper_mix(8, 1);
        let (s, c, m) = wb.run_all_schemes(&specs);
        assert_eq!(m.jobs.len(), 8);
        // The headline claim: M beats both S and C for concurrent jobs.
        assert!(m.makespan_ns < s.makespan_ns, "M {} vs S {}", m.makespan_ns, s.makespan_ns);
        assert!(m.makespan_ns < c.makespan_ns, "M {} vs C {}", m.makespan_ns, c.makespan_ns);
        // And reads no more from disk.
        assert!(m.metrics.get(keys::DISK_READ_BYTES) <= c.metrics.get(keys::DISK_READ_BYTES));
        // Same jobs converge to the same results across schemes (exact for
        // min-propagation jobs; PageRank agrees within fp tolerance).
        for (js, jm) in s.jobs.iter().zip(&m.jobs) {
            assert_eq!(js.name, jm.name);
            for (a, b) in js.values.iter().zip(&jm.values) {
                let both_unreached = a.is_infinite() && b.is_infinite();
                assert!(both_unreached || (a - b).abs() < 1e-9, "{}: {a} vs {b}", js.name);
            }
        }
    }

    #[test]
    fn wallclock_path_matches_deterministic_results() {
        let wb = bench();
        let specs = wb.paper_mix(4, 5);
        let arr = crate::arrivals::immediate_arrivals(specs.len());
        let det = wb.run(Scheme::Shared, &specs, &arr);
        let wall = wb.run_shared_wallclock(&specs);
        assert_eq!(wall.jobs.len(), det.jobs.len());
        for (w, d) in wall.jobs.iter().zip(&det.jobs) {
            assert_eq!(w.name, d.name);
            assert_eq!(w.iterations, d.iterations, "{}", w.name);
            assert_eq!(w.edges_processed, d.edges_processed, "{}", w.name);
            for (a, b) in w.values.iter().zip(&d.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", w.name);
            }
        }
        // Shared loads: strictly below per-job accounting.
        let per_job: u64 = det
            .jobs
            .iter()
            .map(|j| j.iterations as u64 * wb.engine().grid().num_blocks() as u64)
            .sum();
        assert!(wall.partition_loads < per_job, "{} vs {per_job}", wall.partition_loads);
    }

    #[test]
    fn poisson_submissions_run() {
        let wb = bench();
        let specs = wb.paper_mix(6, 2);
        let arr = crate::arrivals::poisson_arrivals(6, 16.0, 1e6, 3);
        let r = wb.run(Scheme::Shared, &specs, &arr);
        assert_eq!(r.jobs.len(), 6);
        for (j, &t) in r.jobs.iter().zip(&arr) {
            assert!(j.finish_ns >= t, "job finishes after submission");
        }
    }

    #[test]
    fn scaled_profile_floors() {
        let p = scaled_profile(MemoryProfile::DEFAULT, 1_000_000);
        assert!(p.llc_bytes >= 8 << 10);
        assert!(p.memory_bytes >= 64 << 10);
        let same = scaled_profile(MemoryProfile::DEFAULT, 1);
        assert_eq!(same.memory_bytes, MemoryProfile::DEFAULT.memory_bytes);
    }
}
