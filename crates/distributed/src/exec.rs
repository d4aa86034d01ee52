//! Shared execution machinery for the simulated distributed engines.
//!
//! The algorithms run for real over node-partitioned edges (results are
//! bit-identical to the single-machine engines' fixpoints); elapsed time
//! is assembled from the [`crate::cluster::ClusterConfig`] cost model.

use graphm_cachesim::Metrics;
use graphm_core::chunk::runs;
use graphm_core::GraphJob;
use graphm_graph::Edge;
use std::sync::Arc;

/// Per-iteration execution statistics for one job.
#[derive(Clone, Debug)]
pub struct DistIterStats {
    /// Edges processed (active source) per node.
    pub processed_per_node: Vec<u64>,
    /// Vertices whose state changed this iteration (drives replica-sync
    /// traffic in PowerGraph and remote writes in Chaos).
    pub updated_vertices: f64,
    /// Whether the job reported convergence.
    pub converged: bool,
}

/// Streams one full iteration of `job` over the nodes' edge stripes
/// (node 0 first — deterministic), then ends the iteration.
pub fn run_iteration(job: &mut dyn GraphJob, node_edges: &[Arc<Vec<Edge>>]) -> DistIterStats {
    let mut processed = vec![0u64; node_edges.len()];
    for (nid, edges) in node_edges.iter().enumerate() {
        processed[nid] += job.process_chunk(edges, &runs(edges));
    }
    let converged = job.end_iteration();
    // After end_iteration the active bitmap holds the *next* frontier =
    // the vertices updated this iteration; dense jobs update everything.
    let updated =
        if job.skips_inactive() { job.active().count() as f64 } else { job.active().len() as f64 };
    DistIterStats { processed_per_node: processed, updated_vertices: updated, converged }
}

/// Outcome of a distributed multi-job run.
#[derive(Clone, Debug)]
pub struct DistReport {
    /// Aggregate counters (`total_ns`, `net_bytes`, `disk_read_bytes`,
    /// `peak_memory_bytes`, ...).
    pub metrics: Metrics,
    /// Per-job virtual completion times (from their group's clock).
    pub per_job_ns: Vec<f64>,
    /// Per-job final vertex values.
    pub results: Vec<Vec<f64>>,
    /// Per-job iteration counts.
    pub iterations: Vec<usize>,
}

/// Bytes of one replica-synchronization message (vertex id + value +
/// header), shared by both engines' cost models.
pub const MSG_BYTES: f64 = 16.0;
