//! Seeded inputs: graphs, job mixes, the mutation stream, and the
//! in-memory model the on-disk results are checked against.

use crate::plan::GraphSize;
use graphm_graph::delta::DeltaRecord;
use graphm_graph::generators::{rmat, RmatParams};
use graphm_graph::{Edge, EdgeList};
use graphm_server::splitmix;
use graphm_workloads::{generate_mix, JobSpec, MixConfig};
use std::collections::HashMap;

/// How many specs a mix holds; connections wrap around past it.
const MIX_LEN: usize = 4096;

pub fn graph(size: GraphSize, seed: u64) -> EdgeList {
    rmat(size.vertices, size.edges, RmatParams::SOCIAL, seed)
}

/// The paper's WCC / PageRank / SSSP / BFS rotation with parameters
/// (damping, roots, WCC caps) drawn from `seed`.
pub fn job_mix(vertices: u32, seed: u64) -> Vec<JobSpec> {
    generate_mix(vertices, &MixConfig::paper(MIX_LEN, seed))
}

/// A seeded update stream: seven inserts, then one delete, interleaved.
/// Deletes name edges of the base graph, so they really remove something
/// — and a delete between inserts is the case `apply_delta` handles
/// worst (one rescan of the partition per delete run).
pub struct Mutations<'g> {
    base: &'g EdgeList,
    state: u64,
    emitted: u64,
}

impl<'g> Mutations<'g> {
    pub fn new(base: &'g EdgeList, seed: u64) -> Mutations<'g> {
        assert!(!base.edges.is_empty(), "mutation stream needs a non-empty base graph");
        Mutations { base, state: seed ^ 0x6d75_7461_7469_6f6e, emitted: 0 }
    }

    pub fn batch(&mut self, records: usize) -> Vec<DeltaRecord> {
        (0..records).map(|_| self.next_record()).collect()
    }

    fn next_record(&mut self) -> DeltaRecord {
        let r = splitmix(&mut self.state);
        self.emitted += 1;
        if self.emitted.is_multiple_of(8) {
            let e = self.base.edges[(r % self.base.edges.len() as u64) as usize];
            DeltaRecord::delete(e.src, e.dst)
        } else {
            let v = self.base.num_vertices as u64;
            let weight = 1.0 + (r >> 60) as f32 * 0.25;
            DeltaRecord::insert((r % v) as u32, ((r >> 24) % v) as u32, weight)
        }
    }
}

/// The graph a store must read as after `records` were committed in
/// order, computed without the store's code: an edge survives unless a
/// later record deletes its `(src, dst)`; survivors keep base order, then
/// insertion order. (Same semantics as `apply_delta_to_edge_list` — the
/// smoke test holds the two together — but one pass over the stream
/// instead of one rescan of the graph per delete run.)
pub fn model_graph<'r>(
    base: &EdgeList,
    records: impl Iterator<Item = &'r DeltaRecord> + Clone,
) -> EdgeList {
    let mut last_delete: HashMap<(u32, u32), usize> = HashMap::new();
    for (i, r) in records.clone().enumerate() {
        if !r.is_insert() {
            last_delete.insert((r.src, r.dst), i);
        }
    }
    let mut edges: Vec<Edge> =
        base.edges.iter().filter(|e| !last_delete.contains_key(&(e.src, e.dst))).copied().collect();
    for (i, r) in records.enumerate() {
        let deleted_later = last_delete.get(&(r.src, r.dst)).is_some_and(|&d| d > i);
        if r.is_insert() && !deleted_later {
            edges.push(Edge { src: r.src, dst: r.dst, weight: r.weight });
        }
    }
    EdgeList { num_vertices: base.num_vertices, edges }
}
