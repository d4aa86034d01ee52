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

use crate::chunk::ChunkEntry;
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
    /// Edges the member processed, for a member with a frontier of its
    /// own ([`GraphJob::member_frontiers`]); `None` when every member
    /// processed what the job's `process_chunk` calls returned.
    pub edges_processed: Option<u64>,
    /// The member's final per-vertex values.
    pub values: Vec<f64>,
}

/// An iterative vertex/edge-centric graph job (the paper's benchmarks:
/// PageRank, WCC, BFS, SSSP, and variants).
///
/// Jobs are driven by a streaming engine: every iteration the engine hands
/// each streamed chunk, with its table of source runs, to
/// [`GraphJob::process_chunk`] (which processes the runs whose source is
/// active), then calls [`GraphJob::end_iteration`].
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

    /// Streams a chunk of edges through the job and returns the number of
    /// edges it *processed*: those whose source is active when the job
    /// [skips inactive vertices](GraphJob::skips_inactive), every edge
    /// otherwise. A job of several members that keep frontiers of their
    /// own ([`GraphJob::member_frontiers`]) returns the edges any member
    /// processed.
    ///
    /// `runs` walks `edges`: one ⟨source, length⟩ entry per run of equal
    /// sources, in order, the lengths summing to `edges.len()` — the
    /// chunk's table, or [`crate::chunk::runs`] for a caller that holds
    /// none. The result is that of the per-edge loop: exactly the state,
    /// and exactly the count, that calling [`GraphJob::process_edge`] on
    /// each active-source edge of `edges`, in order, would leave. The
    /// default body tests the frontier once per entry and jumps over an
    /// inactive run without reading its edges (the frontier is stable for
    /// the iteration); inside it `process_edge` and `active` are direct
    /// calls on the implementing type, so a whole chunk costs one virtual
    /// call. Jobs that stream every edge may ignore `runs`.
    fn process_chunk(&mut self, edges: &[Edge], runs: &[ChunkEntry]) -> u64 {
        if !self.skips_inactive() {
            for e in edges {
                self.process_edge(e);
            }
            return edges.len() as u64;
        }
        let (mut processed, mut at) = (0, 0);
        for run in runs {
            let len = run.out_edges as usize;
            if self.active().get(run.vertex as usize) {
                for e in &edges[at..at + len] {
                    self.process_edge(e);
                }
                processed += len as u64;
            }
            at += len;
        }
        debug_assert_eq!(at, edges.len(), "the runs walk the whole chunk");
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
    /// shares: it has its own iterations, values, edges processed and
    /// report, and its state evolves exactly as if it ran alone, so its
    /// results are bit for bit those of the one-member job it stands for.
    /// What the members share is the seat: one `process_chunk` per chunk,
    /// one `end_iteration` per sweep, one failure. `end_iteration`
    /// returns `true` once every member has converged. Only the
    /// wall-clock executor reports members one by one; the cache
    /// simulator's engines run one-member jobs.
    fn members(&self) -> usize {
        1
    }

    /// Per vertex, the live members whose frontier holds it — bit `m` for
    /// member `m` — for a job whose members keep frontiers of their own
    /// (at most eight members); [`GraphJob::active`] is then their union.
    /// `None`, the default: every member's frontier is `active`.
    ///
    /// The wall-clock executor reads it after every `end_iteration` to
    /// give each member its own active partitions (Formula 5 counts
    /// members, each with its own `N_j(P)`).
    fn member_frontiers(&self) -> Option<&[u8]> {
        None
    }

    /// Retires members and hands back their outcomes, each member once:
    /// those that converged at the `end_iteration` just run, and the live
    /// members in `idle`, which the job stops running (the driver names
    /// every live member once the job is done, and a member with nothing
    /// left to stream). The job goes on for the others. A retired
    /// member's values are copied out here and the member is frozen.
    ///
    /// The default, for a one-member job, retires the job itself when
    /// `idle` names it (the driver does once `end_iteration` returned
    /// `true`) and nothing otherwise.
    fn retire_members(&mut self, idle: &[usize]) -> Vec<Retired> {
        if idle.is_empty() {
            return Vec::new();
        }
        let (iterations, values) = (self.iterations(), self.vertex_values());
        vec![Retired { member: 0, iterations, edges_processed: None, values }]
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
