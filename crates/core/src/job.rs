//! The iterative-job abstraction GraphM manages.
//!
//! §3.1: "the data needed by an iterative graph processing job is composed
//! of the graph structure data [...] and job-specific data (e.g., ranking
//! scores for PageRank), marked as S. During the execution, each job needs
//! to update its S through traversing the graph structure data until the
//! calculated results converge."
//!
//! A [`GraphJob`] is exactly that `S` plus the per-edge update function.
//! The graph structure never lives inside a job — GraphM owns and shares
//! it — which is what lets N jobs run against one copy.

use graphm_graph::{AtomicBitmap, Edge, VertexId};

/// Job identifier, assigned by the runtime in submission order. Submission
/// order matters for snapshot visibility (§3.3.2).
pub type JobId = usize;

/// One member's outcome, handed back by [`GraphJob::retire_members`].
#[derive(Clone, Debug, PartialEq)]
pub struct Retired {
    /// The member's place in its job: `0..members()`.
    pub member: usize,
    /// Iterations the member completed.
    pub iterations: usize,
    /// The member's final per-vertex values.
    pub values: Vec<f64>,
}

/// An iterative vertex/edge-centric graph job (the paper's benchmarks:
/// PageRank, WCC, BFS, SSSP, and variants).
///
/// Jobs are driven by a streaming engine: every iteration the engine hands
/// each streamed chunk to [`GraphJob::process_chunk`] (which processes the
/// edges whose source is active), then calls [`GraphJob::end_iteration`].
/// Jobs own their active-vertex bitmaps (the paper's per-job bitmap of
/// §3.4.1).
pub trait GraphJob: Send {
    /// Human-readable algorithm name ("PageRank", "BFS", ...).
    fn name(&self) -> &str;

    /// Bytes of job-specific state per vertex (`U_v` in Formula 1).
    fn state_bytes_per_vertex(&self) -> usize;

    /// Ground-truth relative computational complexity of the edge function
    /// (`T(F_j)` up to the machine constant). The synchronization manager
    /// never reads this — it *profiles* `T(F_j)` from observed timings
    /// (§3.4.2) — but the virtual clock uses it to generate those timings.
    fn edge_cost_factor(&self) -> f64 {
        1.0
    }

    /// Whether this job skips inactive vertices (BFS/SSSP) or streams every
    /// edge each iteration (PageRank-style). §3.4.1: "If some jobs do not
    /// skip the useless streaming, all of their vertices are active by
    /// default."
    fn skips_inactive(&self) -> bool {
        true
    }

    /// Current-iteration active vertices. Must stay **stable for the
    /// whole iteration** (jobs mark next-iteration activity in a separate
    /// frontier and swap in `end_iteration`): engines precompute
    /// partition/chunk activity from this bitmap mid-sweep.
    fn active(&self) -> &AtomicBitmap;

    /// Processes one streamed edge (the source is guaranteed active when
    /// the engine honours [`GraphJob::skips_inactive`]).
    fn process_edge(&mut self, edge: &Edge);

    /// Streams a run of edges through the job and returns the number of
    /// edges it *processed*: those whose source is active when the job
    /// [skips inactive vertices](GraphJob::skips_inactive), every edge
    /// otherwise.
    ///
    /// The result is that of the per-edge loop: exactly the state, and
    /// exactly the count, that calling [`GraphJob::process_edge`] on each
    /// active-source edge of `edges`, in order, would leave. Every engine
    /// loop that needs no per-edge accounting streams through this
    /// method, so a whole chunk costs one virtual call; inside this body
    /// `process_edge` and `active` are direct calls on the implementing
    /// type. Because the frontier is stable for the iteration, the body
    /// tests it once per run of equal sources (engines stream chunks
    /// sorted by source; unsorted input is still correct, with shorter
    /// runs).
    fn process_chunk(&mut self, edges: &[Edge]) -> u64 {
        if !self.skips_inactive() {
            for e in edges {
                self.process_edge(e);
            }
            return edges.len() as u64;
        }
        let mut processed = 0;
        for run in edges.chunk_by(|a, b| a.src == b.src) {
            if self.active().get(run[0].src as usize) {
                for e in run {
                    self.process_edge(e);
                }
                processed += run.len() as u64;
            }
        }
        processed
    }

    /// Ends the iteration: swap frontiers, test convergence. Returns `true`
    /// when the job has converged (it will be retired by the runtime).
    fn end_iteration(&mut self) -> bool;

    /// Number of iterations completed so far.
    fn iterations(&self) -> usize;

    /// Final (or current) per-vertex values, for oracle comparison:
    /// ranks for PageRank, component ids for WCC, levels for BFS,
    /// distances for SSSP.
    fn vertex_values(&self) -> Vec<f64>;

    /// How many jobs this one runs at once: 1, or the width of a bundle
    /// that streams each edge through several same-kind members.
    ///
    /// A member is a job of its own to everything outside the seat it
    /// shares: it has its own iterations, values and report, and its
    /// state evolves exactly as if it ran alone, so its results are bit
    /// for bit those of the one-member job it stands for. What the
    /// members share is the seat: one `process_chunk` per chunk (whose
    /// count is each member's, not their sum), one `end_iteration` per
    /// sweep, one failure. `end_iteration` returns `true` once every
    /// member has converged. Only the wall-clock executor reports
    /// members one by one; the cache simulator's engines run one-member
    /// jobs.
    fn members(&self) -> usize {
        1
    }

    /// Retires members and hands back their outcomes, each member once:
    /// with `all`, every member not retired yet; otherwise those that
    /// converged at the `end_iteration` just run, while the job goes on
    /// for the others. A retired member's values are copied out here and
    /// the member is frozen.
    ///
    /// The default, for a one-member job, retires the job itself with
    /// `all` (the driver asks for `all` once `end_iteration` returned
    /// `true`) and nothing otherwise.
    fn retire_members(&mut self, all: bool) -> Vec<Retired> {
        if !all {
            return Vec::new();
        }
        vec![Retired { member: 0, iterations: self.iterations(), values: self.vertex_values() }]
    }
}

/// A trivially simple job used by core unit tests: counts how many times
/// each vertex appears as a destination, converging after a fixed number
/// of iterations. All vertices stay active (PageRank-like streaming).
pub struct CountingJob {
    active: AtomicBitmap,
    counts: Vec<u64>,
    iters_done: usize,
    max_iters: usize,
}

impl CountingJob {
    /// A counting job over `n` vertices running `max_iters` iterations.
    pub fn new(n: VertexId, max_iters: usize) -> CountingJob {
        let active = AtomicBitmap::new(n as usize);
        active.set_all();
        CountingJob { active, counts: vec![0; n as usize], iters_done: 0, max_iters }
    }
}

impl GraphJob for CountingJob {
    fn name(&self) -> &str {
        "Counting"
    }

    fn state_bytes_per_vertex(&self) -> usize {
        8
    }

    fn skips_inactive(&self) -> bool {
        false
    }

    fn active(&self) -> &AtomicBitmap {
        &self.active
    }

    fn process_edge(&mut self, edge: &Edge) {
        self.counts[edge.dst as usize] += 1;
    }

    fn end_iteration(&mut self) -> bool {
        self.iters_done += 1;
        self.iters_done >= self.max_iters
    }

    fn iterations(&self) -> usize {
        self.iters_done
    }

    fn vertex_values(&self) -> Vec<f64> {
        self.counts.iter().map(|&c| c as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_job_counts() {
        let mut j = CountingJob::new(4, 2);
        assert_eq!(j.name(), "Counting");
        assert!(!j.skips_inactive());
        j.process_edge(&Edge::new(0, 1));
        j.process_edge(&Edge::new(2, 1));
        j.process_edge(&Edge::new(1, 3));
        assert!(!j.end_iteration(), "one of two iterations done");
        assert!(j.end_iteration(), "converged");
        assert_eq!(j.vertex_values(), vec![0.0, 2.0, 0.0, 1.0]);
        assert_eq!(j.iterations(), 2);
    }
}
