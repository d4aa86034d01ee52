//! Deterministic streaming executor: replays edge streams through the
//! simulated memory hierarchy and accumulates virtual time.
//!
//! Both the baseline schemes (GridGraph-S/-C, etc.) and the GraphM scheme
//! drive jobs through this one context, so every scheme is measured by the
//! same clock and the same cache — the comparisons in Figures 9–14 differ
//! only in *what addresses they touch* and *in which order*, which is
//! exactly the paper's claim.

use crate::job::GraphJob;
use graphm_cachesim::{
    AddrSpace, CostParams, InstrModel, Llc, LlcConfig, MemConfig, MemorySim, VirtualClock,
};
use graphm_graph::{Edge, MemoryProfile, EDGE_BYTES};

/// Result of streaming a run of edges for one job.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamRun {
    /// Virtual time spent, split by category.
    pub clock: VirtualClock,
    /// Edges looked at.
    pub edges_streamed: u64,
    /// Edges whose source was active (processed by the job).
    pub edges_processed: u64,
    /// Abstract instructions executed.
    pub instructions: u64,
}

/// The shared measurement context: one simulated LLC + memory + address
/// space per experiment.
pub struct StreamContext {
    /// Simulated last-level cache.
    pub llc: Llc,
    /// Simulated DRAM.
    pub mem: MemorySim,
    /// Synthetic address allocator.
    pub addr: AddrSpace,
    /// Latency parameters.
    pub cost: CostParams,
    /// Instruction-count model.
    pub instr: InstrModel,
    profile: MemoryProfile,
}

impl StreamContext {
    /// Builds a context whose LLC/memory geometry follows `profile`.
    pub fn new(profile: MemoryProfile) -> StreamContext {
        StreamContext {
            llc: Llc::new(LlcConfig {
                capacity_bytes: profile.llc_bytes,
                ways: profile.llc_ways,
                line_bytes: profile.line_bytes,
            }),
            mem: MemorySim::new(MemConfig { capacity_bytes: profile.memory_bytes }),
            addr: AddrSpace::new(),
            cost: CostParams::DEFAULT,
            instr: InstrModel::DEFAULT,
            profile,
        }
    }

    /// The memory profile this context simulates.
    pub fn profile(&self) -> &MemoryProfile {
        &self.profile
    }

    /// Charges a disk load of `bytes` (seek + sequential transfer) and
    /// returns the virtual nanoseconds spent.
    pub fn disk_load_ns(&self, bytes: usize) -> f64 {
        self.cost.disk_seek_ns + bytes as f64 * self.cost.disk_byte_ns
    }

    /// Touches a memory buffer; on fault, returns the disk time paid.
    pub fn touch_buffer(&mut self, region: u64, bytes: usize, pinned: bool) -> f64 {
        if self.mem.touch(region, bytes, pinned) {
            self.disk_load_ns(bytes)
        } else {
            0.0
        }
    }

    /// Streams `edges` (resident at `edges_addr`) for `job`, whose
    /// per-vertex state array lives at `state_addr`. Honours the job's
    /// inactive-skip behaviour and updates the job's own frontier via
    /// `process_edge`. Returns the run's accounting.
    pub fn stream_edges_for_job(
        &mut self,
        job: &mut dyn GraphJob,
        edges: &[Edge],
        edges_addr: u64,
        state_addr: u64,
    ) -> StreamRun {
        let mut run = StreamRun { edges_streamed: edges.len() as u64, ..Default::default() };
        let sb = job.state_bytes_per_vertex() as u64;
        let skip = job.skips_inactive();
        let cost_factor = job.edge_cost_factor();
        let llc_before = self.llc.stats;
        for (i, e) in edges.iter().enumerate() {
            // The edge record itself is always read from the stream.
            self.llc.access_range(edges_addr + (i * EDGE_BYTES) as u64, EDGE_BYTES);
            if skip && !job.active().get(e.src as usize) {
                run.instructions += 2;
                run.clock.compute_ns += self.cost.skip_edge_ns;
                continue;
            }
            // Job-specific state: read source state, write destination state.
            self.llc.access_range(state_addr + e.src as u64 * sb, sb as usize);
            self.llc.access_range(state_addr + e.dst as u64 * sb, sb as usize);
            job.process_edge(e);
            run.edges_processed += 1;
            run.instructions += self.instr.per_edge + self.instr.per_vertex;
            run.clock.compute_ns += self.cost.edge_compute_ns * cost_factor;
        }
        let hits = self.llc.stats.hits - llc_before.hits;
        let misses = self.llc.stats.misses - llc_before.misses;
        run.clock.mem_access_ns +=
            hits as f64 * self.cost.llc_hit_ns + misses as f64 * self.cost.llc_miss_ns;
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{CountingJob, GraphJob};
    use graphm_graph::generators;

    fn ctx() -> StreamContext {
        StreamContext::new(MemoryProfile::TEST)
    }

    #[test]
    fn stream_processes_all_for_non_skipping_job() {
        let g = generators::ring(64);
        let mut c = ctx();
        let addr = c.addr.alloc(g.size_bytes());
        let saddr = c.addr.alloc(64 * 8);
        let mut job = CountingJob::new(64, 1);
        let run = c.stream_edges_for_job(&mut job, &g.edges, addr, saddr);
        assert_eq!(run.edges_streamed, 64);
        assert_eq!(run.edges_processed, 64);
        assert!(run.clock.compute_ns > 0.0);
        assert!(run.clock.mem_access_ns > 0.0);
        assert!(run.instructions > 0);
        // Every destination counted once.
        assert!(job.vertex_values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn second_pass_is_cheaper_when_hot() {
        // Working set (64 edges * 12 B + small state) fits the 16 KB test LLC.
        let g = generators::ring(64);
        let mut c = ctx();
        let addr = c.addr.alloc(g.size_bytes());
        let saddr = c.addr.alloc(64 * 8);
        let mut job = CountingJob::new(64, 2);
        let cold = c.stream_edges_for_job(&mut job, &g.edges, addr, saddr);
        let warm = c.stream_edges_for_job(&mut job, &g.edges, addr, saddr);
        assert!(
            warm.clock.mem_access_ns < cold.clock.mem_access_ns,
            "warm {} vs cold {}",
            warm.clock.mem_access_ns,
            cold.clock.mem_access_ns
        );
    }

    #[test]
    fn skipping_job_charges_skip_cost() {
        struct SkipAll {
            active: graphm_graph::AtomicBitmap,
        }
        impl GraphJob for SkipAll {
            fn name(&self) -> &str {
                "SkipAll"
            }
            fn state_bytes_per_vertex(&self) -> usize {
                8
            }
            fn active(&self) -> &graphm_graph::AtomicBitmap {
                &self.active
            }
            fn process_edge(&mut self, _: &Edge) {
                panic!("no edge should be processed");
            }
            fn end_iteration(&mut self) -> bool {
                true
            }
            fn iterations(&self) -> usize {
                0
            }
            fn vertex_values(&self) -> Vec<f64> {
                vec![]
            }
        }
        let g = generators::ring(16);
        let mut c = ctx();
        let addr = c.addr.alloc(g.size_bytes());
        let mut job = SkipAll { active: graphm_graph::AtomicBitmap::new(16) };
        let run = c.stream_edges_for_job(&mut job, &g.edges, addr, addr);
        assert_eq!(run.edges_processed, 0);
        assert_eq!(run.edges_streamed, 16);
        assert_eq!(run.instructions, 32);
    }

    #[test]
    fn touch_buffer_faults_once() {
        let mut c = ctx();
        let t1 = c.touch_buffer(1, 4096, false);
        let t2 = c.touch_buffer(1, 4096, false);
        assert!(t1 > 0.0);
        assert_eq!(t2, 0.0);
        assert!((t1 - c.disk_load_ns(4096)).abs() < 1e-9);
    }

    #[test]
    fn shared_addresses_hit_where_private_miss() {
        // The crux of GraphM: two jobs streaming the SAME address range
        // (shared copy) see warm caches; two private copies do not.
        let g = generators::ring(128);
        let mut shared_ctx = ctx();
        let shared_addr = shared_ctx.addr.alloc(g.size_bytes());
        let s1 = shared_ctx.addr.alloc(128 * 8);
        let s2 = shared_ctx.addr.alloc(128 * 8);
        let mut j1 = CountingJob::new(128, 1);
        let mut j2 = CountingJob::new(128, 1);
        shared_ctx.stream_edges_for_job(&mut j1, &g.edges, shared_addr, s1);
        let shared_run = shared_ctx.stream_edges_for_job(&mut j2, &g.edges, shared_addr, s2);

        let mut priv_ctx = ctx();
        let a1 = priv_ctx.addr.alloc(g.size_bytes());
        let a2 = priv_ctx.addr.alloc(g.size_bytes());
        let p1 = priv_ctx.addr.alloc(128 * 8);
        let p2 = priv_ctx.addr.alloc(128 * 8);
        let mut k1 = CountingJob::new(128, 1);
        let mut k2 = CountingJob::new(128, 1);
        priv_ctx.stream_edges_for_job(&mut k1, &g.edges, a1, p1);
        let private_run = priv_ctx.stream_edges_for_job(&mut k2, &g.edges, a2, p2);

        assert!(
            shared_run.clock.mem_access_ns < private_run.clock.mem_access_ns,
            "sharing must be cheaper: {} vs {}",
            shared_run.clock.mem_access_ns,
            private_run.clock.mem_access_ns
        );
    }
}
