//! The GraphM instance: preprocessing and the Table-1 programming API.
//!
//! `Init()` computes the Formula-1 chunk size, runs Algorithm 1 over every
//! partition of the host engine's format, and retains the resulting
//! `chunk_table`s — the only state GraphM adds to the engine. The labels
//! are logical: the engine's own representation is never modified (§3.1).

use crate::chunk::{chunk_size_bytes, label_partition, ChunkTable};
use crate::scheduler::SchedulingPolicy;
use crate::source::PartitionSource;
use graphm_cachesim::CostParams;
use graphm_graph::{AtomicBitmap, MemoryProfile};

/// Configuration for a GraphM instance.
#[derive(Clone, Copy, Debug)]
pub struct GraphMConfig {
    /// Simulated memory-hierarchy profile (supplies Formula 1's `N`,
    /// `C_LLC`, `r`).
    pub profile: MemoryProfile,
    /// Partition loading-order policy (§4).
    pub policy: SchedulingPolicy,
    /// Override the Formula-1 chunk size (ablation studies only).
    pub chunk_bytes_override: Option<usize>,
    /// Enable chunk-level fine-grained synchronization (§3.4.2). Disabling
    /// it keeps memory-level sharing but lets jobs stream partitions
    /// independently — the `ablate_sync` configuration.
    pub fine_sync: bool,
    /// Whether the graph is larger than memory, forcing the labelling pass
    /// to re-read it from disk (Table 3's 16.1% vs 4% preprocessing cost).
    pub out_of_core: bool,
}

impl GraphMConfig {
    /// Defaults: `MemoryProfile::DEFAULT`, prioritized scheduling,
    /// Formula-1 chunking, fine-grained sync on.
    pub fn new(profile: MemoryProfile) -> GraphMConfig {
        GraphMConfig {
            profile,
            policy: SchedulingPolicy::Prioritized,
            chunk_bytes_override: None,
            fine_sync: true,
            out_of_core: false,
        }
    }
}

impl Default for GraphMConfig {
    fn default() -> Self {
        GraphMConfig::new(MemoryProfile::DEFAULT)
    }
}

/// A preprocessed GraphM instance for one graph under one engine format.
pub struct GraphM {
    /// Configuration used at init.
    pub config: GraphMConfig,
    /// The Formula-1 chunk size in bytes.
    pub chunk_bytes: usize,
    /// One `Set_c` per partition (Algorithm 1 output).
    pub tables: Vec<ChunkTable>,
    /// Virtual preprocessing cost of the labelling pass.
    pub preprocess_ns: f64,
}

impl GraphM {
    /// `Init()` — preprocesses the graph: sizes chunks via Formula 1 and
    /// labels every partition via Algorithm 1 by traversing the graph once.
    ///
    /// `state_bytes_per_vertex` is the expected job-state footprint `U_v`
    /// (the paper sizes it for the job mix; 8 bytes covers PageRank ranks /
    /// WCC labels / SSSP distances).
    pub fn init(
        source: &dyn PartitionSource,
        state_bytes_per_vertex: usize,
        config: GraphMConfig,
    ) -> GraphM {
        let graph_bytes = source.graph_bytes();
        let chunk_bytes = config.chunk_bytes_override.unwrap_or_else(|| {
            chunk_size_bytes(
                &config.profile,
                graph_bytes,
                source.num_vertices(),
                state_bytes_per_vertex,
            )
        });
        let mut tables = Vec::with_capacity(source.num_partitions());
        let mut labelled_edges = 0u64;
        for pid in 0..source.num_partitions() {
            let edges = source.load(pid);
            tables.push(label_partition(&edges, chunk_bytes));
            labelled_edges += edges.len() as u64;
        }
        // Labelling walks the graph once; when the graph exceeds memory it
        // must be re-read from disk (§5.2: preprocessing +16.1% out-of-core
        // vs +4% in-memory).
        let cost = CostParams::DEFAULT;
        let mut preprocess_ns = labelled_edges as f64 * cost.skip_edge_ns * 2.0;
        if config.out_of_core {
            preprocess_ns += cost.disk_seek_ns + graph_bytes as f64 * cost.disk_byte_ns;
        }
        GraphM { config, chunk_bytes, tables, preprocess_ns }
    }

    /// Number of partitions labelled.
    pub fn num_partitions(&self) -> usize {
        self.tables.len()
    }

    /// Extra storage the labels consume (the 5.5%–19.2% of §5.2).
    pub fn overhead_bytes(&self) -> usize {
        self.tables.iter().map(ChunkTable::overhead_bytes).sum()
    }

    /// Overhead as a fraction of the structure data.
    pub fn overhead_ratio(&self, graph_bytes: usize) -> f64 {
        if graph_bytes == 0 {
            0.0
        } else {
            self.overhead_bytes() as f64 / graph_bytes as f64
        }
    }

    /// `GetActiveVertices()` companion: whether partition `pid` holds any
    /// work for the given frontier (resolved chunk-by-chunk from the
    /// labels, without touching the edges).
    pub fn partition_active(&self, pid: usize, active: &AtomicBitmap) -> bool {
        self.tables[pid].chunks.iter().any(|c| c.any_active(active))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use graphm_graph::generators;

    fn source() -> VecSource {
        let g = generators::rmat(256, 4000, generators::RmatParams::GRAPH500, 21);
        let mut edges = g.edges.clone();
        edges.sort_by_key(|e| e.src);
        let mid = edges.len() / 2;
        VecSource::new(256, vec![edges[..mid].to_vec(), edges[mid..].to_vec()])
    }

    #[test]
    fn init_labels_everything() {
        let s = source();
        let gm = GraphM::init(&s, 8, GraphMConfig::new(MemoryProfile::TEST));
        assert_eq!(gm.num_partitions(), 2);
        let total: usize = gm.tables.iter().map(|t| t.num_edges()).sum();
        assert_eq!(total, 4000);
        assert!(gm.chunk_bytes >= crate::chunk::CHUNK_ALIGN_BYTES);
        assert!(gm.overhead_bytes() > 0);
        assert!(gm.overhead_ratio(s.graph_bytes()) > 0.0);
    }

    #[test]
    fn chunk_override_respected() {
        let s = source();
        let mut cfg = GraphMConfig::new(MemoryProfile::TEST);
        cfg.chunk_bytes_override = Some(1200);
        let gm = GraphM::init(&s, 8, cfg);
        assert_eq!(gm.chunk_bytes, 1200);
        // 1200 B = 100 edges per chunk.
        assert!(gm.tables[0].chunks[0].num_edges() <= 100);
    }

    #[test]
    fn out_of_core_preprocessing_costs_more() {
        let s = source();
        let mut in_core = GraphMConfig::new(MemoryProfile::TEST);
        in_core.out_of_core = false;
        let mut ooc = in_core;
        ooc.out_of_core = true;
        let a = GraphM::init(&s, 8, in_core);
        let b = GraphM::init(&s, 8, ooc);
        assert!(b.preprocess_ns > a.preprocess_ns);
    }

    #[test]
    fn activity_through_labels() {
        let s = source();
        let gm = GraphM::init(&s, 8, GraphMConfig::new(MemoryProfile::TEST));
        let active = AtomicBitmap::new(256);
        assert!(!gm.partition_active(0, &active));
        active.set_all();
        assert!(gm.partition_active(0, &active));
    }
}
