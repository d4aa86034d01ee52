//! Weakly connected components as a GraphM job.
//!
//! Min-label propagation: every vertex starts with its own id; each edge
//! `(s, t)` lowers `label[t]` to `label[s]` when smaller. On a symmetrized
//! graph the fixpoint labels each weak component by its minimum vertex id.
//! Directed inputs converge to the "minimum reaching id", which is the
//! semantics the streaming engines the paper builds on use for WCC unless
//! the input is symmetrized — see [`graphm_graph::generators::symmetrize`].
//!
//! §5.1: "The total number of iterations is a randomly selected integer
//! between one and the maximum number of iterations for each WCC job" —
//! [`Wcc::with_max_iters`] models those truncated submissions.

use graphm_core::{GraphJob, Retired};
use graphm_graph::{AtomicBitmap, Edge, VertexId};

/// WCC job state: one state for every WCC member of a cohort.
///
/// A WCC job's only parameter is its cap, and the members of one cohort
/// stream the same partitions in the same order, so their trajectories
/// are identical up to each one's cap: the job runs one state to
/// fixpoint and retires each member at its cap or at convergence, with
/// the labels, iterations and edges processed a job of that one member
/// would have. Members are numbered in the order their caps were given;
/// [`Wcc::new`] is a job of one member.
pub struct Wcc {
    labels: Vec<VertexId>,
    active: AtomicBitmap,
    next_active: AtomicBitmap,
    changed: bool,
    iters: usize,
    /// Per member, at least 1.
    caps: Vec<usize>,
    live: Vec<bool>,
    /// Live members whose last `end_iteration` ended them.
    ended: Vec<usize>,
}

impl Wcc {
    /// A WCC job of one member, running to fixpoint.
    pub fn new(num_vertices: VertexId) -> Wcc {
        Wcc::group(num_vertices, &[usize::MAX])
    }

    /// A WCC job of one member per cap.
    ///
    /// # Panics
    ///
    /// Without a member.
    pub fn group(num_vertices: VertexId, caps: &[usize]) -> Wcc {
        assert!(!caps.is_empty(), "a WCC job has a member");
        let n = num_vertices as usize;
        let active = AtomicBitmap::new(n);
        active.set_all();
        Wcc {
            labels: (0..num_vertices).collect(),
            active,
            next_active: AtomicBitmap::new(n),
            changed: false,
            iters: 0,
            caps: caps.iter().map(|&cap| cap.max(1)).collect(),
            live: vec![true; caps.len()],
            ended: Vec::new(),
        }
    }

    /// Caps every member's iteration count (the paper's randomly
    /// truncated WCC jobs).
    pub fn with_max_iters(mut self, max_iters: usize) -> Wcc {
        self.caps.fill(max_iters.max(1));
        self
    }

    /// Current component labels.
    pub fn labels(&self) -> &[VertexId] {
        &self.labels
    }
}

impl GraphJob for Wcc {
    fn name(&self) -> &str {
        "WCC"
    }

    fn state_bytes_per_vertex(&self) -> usize {
        4
    }

    fn edge_cost_factor(&self) -> f64 {
        0.8
    }

    fn active(&self) -> &AtomicBitmap {
        &self.active
    }

    fn process_edge(&mut self, e: &Edge) {
        let ls = self.labels[e.src as usize];
        if ls < self.labels[e.dst as usize] {
            self.labels[e.dst as usize] = ls;
            self.changed = true;
            self.next_active.set(e.dst as usize);
        }
    }

    fn end_iteration(&mut self) -> bool {
        self.iters += 1;
        self.active.copy_from(&self.next_active);
        self.next_active.clear_all();
        let fixpoint = !self.changed;
        self.changed = false;
        let ended = |m: usize| self.live[m] && (fixpoint || self.iters >= self.caps[m]);
        self.ended = (0..self.caps.len()).filter(|&m| ended(m)).collect();
        self.ended.len() == self.live.iter().filter(|&&live| live).count()
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn vertex_values(&self) -> Vec<f64> {
        self.labels.iter().map(|&l| l as f64).collect()
    }

    fn members(&self) -> usize {
        self.caps.len()
    }

    fn retire_members(&mut self, idle: &[usize]) -> Vec<Retired> {
        let mut going = std::mem::take(&mut self.ended);
        going.extend(idle.iter().filter(|&&m| self.live[m]));
        going.sort_unstable();
        going.dedup();
        let values = if going.is_empty() { Vec::new() } else { self.vertex_values() };
        let iterations = self.iters;
        going
            .into_iter()
            .map(|member| {
                self.live[member] = false;
                Retired { member, iterations, edges_processed: None, values: values.clone() }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_graph::generators;

    fn run_to_fixpoint(g: &graphm_graph::EdgeList) -> Vec<VertexId> {
        let mut wcc = Wcc::new(g.num_vertices);
        loop {
            for e in &g.edges {
                if wcc.active().get(e.src as usize) {
                    wcc.process_edge(e);
                }
            }
            if wcc.end_iteration() {
                break;
            }
        }
        wcc.labels().to_vec()
    }

    #[test]
    fn ring_is_one_component() {
        let labels = run_to_fixpoint(&generators::ring(32));
        assert!(labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn two_disjoint_paths() {
        // 0->1->2 and 3->4->5 (symmetrized).
        let mut g = graphm_graph::EdgeList::new(6);
        for (s, t) in [(0u32, 1u32), (1, 2), (3, 4), (4, 5)] {
            g.edges.push(Edge::new(s, t));
        }
        let labels = run_to_fixpoint(&generators::symmetrize(&g));
        assert_eq!(&labels[..3], &[0, 0, 0]);
        assert_eq!(&labels[3..], &[3, 3, 3]);
    }

    #[test]
    fn iteration_cap_truncates() {
        // Stream the path's edges in reverse source order so labels can
        // only advance one hop per iteration (forward order would chain
        // the whole path within a single sweep).
        let mut g = generators::path(100);
        g.edges.reverse();
        let mut wcc = Wcc::new(100).with_max_iters(2);
        loop {
            for e in &g.edges {
                if wcc.active().get(e.src as usize) {
                    wcc.process_edge(e);
                }
            }
            if wcc.end_iteration() {
                break;
            }
        }
        assert_eq!(wcc.iterations(), 2);
        assert_ne!(wcc.labels()[99], 0, "label 0 cannot reach hop 99 in 2 rounds");
    }

    #[test]
    fn frontier_shrinks() {
        let g = generators::symmetrize(&generators::path(16));
        let mut wcc = Wcc::new(16);
        for e in &g.edges {
            if wcc.active().get(e.src as usize) {
                wcc.process_edge(e);
            }
        }
        wcc.end_iteration();
        assert!(wcc.active().count() < 16, "only updated vertices stay active");
        assert!(wcc.skips_inactive());
    }
}
