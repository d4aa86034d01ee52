//! Label propagation — the second concurrent-workload family the paper's
//! introduction cites at Facebook (Boldi et al.'s layered label
//! propagation, the paper's reference \[8\]).
//!
//! This streaming variant is *min-hash* label propagation: vertices start
//! with pseudo-random labels (a hash of their id with a per-job salt) and
//! adopt the smallest label seen over incoming edges. Unlike WCC, two
//! submissions with different salts do different work on different
//! frontiers while traversing the same structure, which makes it a good
//! generator of partially-overlapping access patterns for sharing studies.

use graphm_core::GraphJob;
use graphm_graph::{AtomicBitmap, Edge, VertexId};

/// Deterministic 64-bit mix (splitmix64 finalizer).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Min-hash label propagation job state.
pub struct LabelPropagation {
    salt: u64,
    labels: Vec<u64>,
    active: AtomicBitmap,
    next_active: AtomicBitmap,
    changed: bool,
    iters: usize,
    max_iters: usize,
}

impl LabelPropagation {
    /// A label-propagation job with a per-submission `salt`.
    pub fn new(num_vertices: VertexId, salt: u64, max_iters: usize) -> LabelPropagation {
        let n = num_vertices as usize;
        let active = AtomicBitmap::new(n);
        active.set_all();
        // Expand the salt to full 64-bit entropy first; XOR with a small
        // raw salt would merely permute small vertex ids and leave the
        // label *set* (and hence the winning minimum) nearly unchanged.
        let expanded = mix(salt);
        LabelPropagation {
            salt,
            labels: (0..num_vertices).map(|v| mix(v as u64 ^ expanded)).collect(),
            active,
            next_active: AtomicBitmap::new(n),
            changed: false,
            iters: 0,
            max_iters: max_iters.max(1),
        }
    }

    /// The job's salt.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Current labels.
    pub fn labels(&self) -> &[u64] {
        &self.labels
    }
}

impl GraphJob for LabelPropagation {
    fn name(&self) -> &str {
        "LabelProp"
    }

    fn state_bytes_per_vertex(&self) -> usize {
        8
    }

    fn edge_cost_factor(&self) -> f64 {
        0.9
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
        let converged = !self.changed || self.iters >= self.max_iters;
        self.changed = false;
        converged
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    fn vertex_values(&self) -> Vec<f64> {
        // Lossy but order-preserving enough for oracle comparisons.
        self.labels.iter().map(|&l| l as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_graph::generators;

    fn run(g: &graphm_graph::EdgeList, salt: u64) -> LabelPropagation {
        let mut lp = LabelPropagation::new(g.num_vertices, salt, 100);
        loop {
            for e in &g.edges {
                if lp.active().get(e.src as usize) {
                    lp.process_edge(e);
                }
            }
            if lp.end_iteration() {
                break;
            }
        }
        lp
    }

    #[test]
    fn connected_graph_converges_to_one_label() {
        let lp = run(&generators::ring(20), 42);
        let min = *lp.labels().iter().min().unwrap();
        assert!(lp.labels().iter().all(|&l| l == min));
    }

    #[test]
    fn different_salts_different_work() {
        let g = generators::ring(20);
        let a = run(&g, 1);
        let b = run(&g, 2);
        assert_ne!(a.labels()[0], b.labels()[0], "salts change the winning label");
    }

    #[test]
    fn deterministic_per_salt() {
        let g = generators::ring(20);
        assert_eq!(run(&g, 7).labels(), run(&g, 7).labels());
    }
}
