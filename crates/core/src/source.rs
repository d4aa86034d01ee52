//! The partition source abstraction — how GraphM talks to a host engine's
//! storage format.
//!
//! §3.1: "the operations of the concurrent jobs are still performed on the
//! specific graph representation of the related system". GraphM never owns
//! the format; it asks the engine for partitions (grid blocks, shards, edge
//! ranges) through this trait, labels them into chunks, and orders their
//! loads. One implementation per host engine lives in the engine crates.

use graphm_graph::{AtomicBitmap, Edge, VertexId, EDGE_BYTES};
use std::sync::Arc;

/// A graph, as a host engine stores it: an ordered collection of
/// partitions of edges.
pub trait PartitionSource: Send + Sync {
    /// Number of partitions.
    fn num_partitions(&self) -> usize;

    /// Total vertex count.
    fn num_vertices(&self) -> VertexId;

    /// The edges of partition `pid`, in the engine's streaming order.
    fn load(&self, pid: usize) -> Arc<Vec<Edge>>;

    /// Fallible variant of [`PartitionSource::load`]: disk-backed sources
    /// surface I/O failures (real or injected through
    /// `graphm_graph::failpoint`) here instead of aborting the process,
    /// so the runtimes can degrade to per-job failures. In-memory sources
    /// cannot fail and keep the default.
    fn try_load(&self, pid: usize) -> graphm_graph::Result<Arc<Vec<Edge>>> {
        Ok(self.load(pid))
    }

    /// Bytes charged when partition `pid` is loaded from secondary storage
    /// (may exceed the edge payload — GraphChi also loads sliding windows).
    fn partition_bytes(&self, pid: usize) -> usize;

    /// Total structure bytes (`S_G` in Formula 1).
    fn graph_bytes(&self) -> usize;

    /// The engine's native partition traversal order (GridGraph streams
    /// column-major; GraphChi walks intervals in order).
    fn order(&self) -> Vec<usize> {
        (0..self.num_partitions()).collect()
    }

    /// Whether partition `pid` contains any work for a job with the given
    /// active-vertex bitmap (the engine's `should_access_shard`).
    fn partition_active(&self, pid: usize, active: &AtomicBitmap) -> bool;

    /// Takes a generation pin: rotating sources (the disk delta store)
    /// keep serving their current data generation until the matching
    /// [`PartitionSource::sweep_end`]. The runtimes (the sweep driver per
    /// cohort, [`crate::SharingService`] from construction to drop) hold
    /// one pin from the first sweep through the last job's retirement, so
    /// no in-flight job ever observes a generation flip, even when another
    /// runtime sharing the handle triggers a refresh.
    /// Static sources need not override (no-op); jobs never call this.
    fn sweep_begin(&self) {}

    /// Releases the pin taken by [`PartitionSource::sweep_begin`] (a
    /// rotation published meanwhile is adopted at the last unpin).
    fn sweep_end(&self) {}
}

/// The simplest source: pre-split in-memory partitions with contiguous
/// source ranges. Used by core tests and as the Chaos-style raw edge-list
/// backend.
pub struct VecSource {
    partitions: Vec<Arc<Vec<Edge>>>,
    /// Source-vertex bounds per partition, for activity checks; `None`
    /// means "sources arbitrary, check by scan".
    src_bounds: Vec<Option<(VertexId, VertexId)>>,
    num_vertices: VertexId,
}

impl VecSource {
    /// Builds a source from explicit partitions, computing each partition's
    /// source-vertex bounds.
    pub fn new(num_vertices: VertexId, partitions: Vec<Vec<Edge>>) -> VecSource {
        let src_bounds = partitions
            .iter()
            .map(|p| {
                if p.is_empty() {
                    Some((0, 0))
                } else {
                    let lo = p.iter().map(|e| e.src).min().unwrap();
                    let hi = p.iter().map(|e| e.src).max().unwrap() + 1;
                    Some((lo, hi))
                }
            })
            .collect();
        VecSource {
            partitions: partitions.into_iter().map(Arc::new).collect(),
            src_bounds,
            num_vertices,
        }
    }
}

impl PartitionSource for VecSource {
    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    fn num_vertices(&self) -> VertexId {
        self.num_vertices
    }

    fn load(&self, pid: usize) -> Arc<Vec<Edge>> {
        Arc::clone(&self.partitions[pid])
    }

    fn partition_bytes(&self, pid: usize) -> usize {
        self.partitions[pid].len() * EDGE_BYTES
    }

    fn graph_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.len() * EDGE_BYTES).sum()
    }

    fn partition_active(&self, pid: usize, active: &AtomicBitmap) -> bool {
        match self.src_bounds[pid] {
            Some((lo, hi)) if lo < hi => active.any_in_range(lo as usize, hi as usize),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_graph::generators;

    #[test]
    fn vec_source_basics() {
        let g = generators::path(10);
        let s = VecSource::new(10, vec![g.edges[..4].to_vec(), g.edges[4..].to_vec()]);
        assert_eq!(s.num_partitions(), 2);
        assert_eq!(s.num_vertices(), 10);
        assert_eq!(s.load(0).len(), 4);
        assert_eq!(s.partition_bytes(1), 5 * EDGE_BYTES);
        assert_eq!(s.graph_bytes(), 9 * EDGE_BYTES);
        assert_eq!(s.order(), vec![0, 1]);
    }

    #[test]
    fn activity_by_source_bounds() {
        let g = generators::path(10);
        let s = VecSource::new(10, vec![g.edges[..4].to_vec(), g.edges[4..].to_vec()]);
        let active = AtomicBitmap::new(10);
        active.set(2);
        assert!(s.partition_active(0, &active), "sources 0..4 cover vertex 2");
        assert!(!s.partition_active(1, &active));
        active.set(7);
        assert!(s.partition_active(1, &active));
    }

    #[test]
    fn empty_partition_never_active() {
        let s = VecSource::new(4, vec![vec![], vec![Edge::new(0, 1)]]);
        let active = AtomicBitmap::new(4);
        active.set_all();
        assert!(!s.partition_active(0, &active));
        assert!(s.partition_active(1, &active));
    }
}
