//! Chunk sizing (Formula 1) and partition labelling (Algorithm 1).
//!
//! GraphM never physically splits a partition: it *labels* the partition's
//! edge stream as a sequence of LLC-sized chunks and stores, per chunk, a
//! `chunk_table` of ⟨source vertex, out-degree-in-chunk⟩ pairs. The
//! synchronization manager later reads these tables to compute per-job
//! per-chunk load (Formula 3) without touching the edges themselves.

use graphm_graph::{AtomicBitmap, Edge, MemoryProfile, VertexId, EDGE_BYTES};
use std::ops::Range;

/// Least common multiple of the 12-byte edge record and the 64-byte cache
/// line — the chunk alignment rule of §3.2 ("the size of a chunk is also a
/// common multiple of the size of an edge and the size of a cache line"):
/// 192 bytes (16 edges, 3 lines).
pub const CHUNK_ALIGN_BYTES: usize = 192;

/// Computes the chunk size `S_c` from Formula 1:
///
/// ```text
/// Sc*N + Sc*N/SG * |V| * Uv + r <= C_LLC
/// ```
///
/// solved for the largest `Sc`, then rounded down to a multiple of
/// [`CHUNK_ALIGN_BYTES`] (minimum one alignment unit).
///
/// * `profile` supplies `N` (cores), `C_LLC`, and `r` (reserved bytes);
/// * `graph_bytes` is `S_G`;
/// * `num_vertices` is `|V|`;
/// * `state_bytes_per_vertex` is `U_v`.
pub fn chunk_size_bytes(
    profile: &MemoryProfile,
    graph_bytes: usize,
    num_vertices: VertexId,
    state_bytes_per_vertex: usize,
) -> usize {
    let n = profile.cores.max(1) as f64;
    let budget = profile.llc_bytes.saturating_sub(profile.llc_reserved) as f64;
    let sg = (graph_bytes.max(1)) as f64;
    let vertex_term = num_vertices as f64 * state_bytes_per_vertex as f64 / sg;
    let sc = budget / (n * (1.0 + vertex_term));
    let aligned = (sc as usize / CHUNK_ALIGN_BYTES) * CHUNK_ALIGN_BYTES;
    aligned.max(CHUNK_ALIGN_BYTES)
}

/// One `chunk_table` entry: ⟨v, N+(v)⟩ — a source vertex and the number of
/// its out-going edges inside this chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Source vertex id.
    pub vertex: VertexId,
    /// Out-degree of `vertex` within the chunk (`N+_k(v)`).
    pub out_edges: u32,
}

/// One labelled chunk of a partition.
#[derive(Clone, Debug)]
pub struct Chunk {
    /// Index range into the partition's edge slice.
    pub edges: Range<usize>,
    /// The key-value table described in §3.2 (`c_table`).
    pub table: Vec<ChunkEntry>,
}

impl Chunk {
    /// Number of edges in this chunk.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Chunk payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.num_edges() * EDGE_BYTES
    }

    /// Total out-edges of *active* sources in this chunk:
    /// `Σ_{v ∈ V_k ∩ A_j} N+_k(v)` — the per-job workload term of
    /// Formulas 2–3.
    pub fn active_edges(&self, active: &AtomicBitmap) -> u64 {
        self.table
            .iter()
            .filter(|e| active.get(e.vertex as usize))
            .map(|e| e.out_edges as u64)
            .sum()
    }

    /// True when at least one source vertex in the chunk is active for the
    /// given bitmap (chunk-level activity in §3.4.1).
    pub fn any_active(&self, active: &AtomicBitmap) -> bool {
        self.table.iter().any(|e| active.get(e.vertex as usize))
    }
}

/// The `Set_c^i` of the paper: every chunk of one partition, in streaming
/// order.
#[derive(Clone, Debug, Default)]
pub struct ChunkTable {
    /// Chunks in the order their edges are streamed.
    pub chunks: Vec<Chunk>,
}

impl ChunkTable {
    /// Total number of table entries (drives the extra space overhead the
    /// paper quantifies as 5.5%–19.2% of the graph in §5.2).
    pub fn num_entries(&self) -> usize {
        self.chunks.iter().map(|c| c.table.len()).sum()
    }

    /// Extra storage consumed by the labelling, in bytes (8 bytes per
    /// ⟨v, N+(v)⟩ entry).
    pub fn overhead_bytes(&self) -> usize {
        self.num_entries() * std::mem::size_of::<ChunkEntry>()
    }

    /// Total edges across chunks.
    pub fn num_edges(&self) -> usize {
        self.chunks.iter().map(Chunk::num_edges).sum()
    }

    /// Total out-edges across the whole partition (`Σ_k Σ_v N+_k(v)`,
    /// the `T(E)` coefficient in Formula 2).
    pub fn total_edges(&self) -> u64 {
        self.num_edges() as u64
    }
}

/// Algorithm 1 — labels one partition `P^i` as a series of chunks.
///
/// Walks the edge stream once; each edge increments `N+(e_s)` in the
/// current `c_table` (inserting ⟨e_s, 1⟩ on first sight). When the labelled
/// edges reach the chunk size (`edge_num × S_G/|E| ≥ S_c`, i.e. edge count
/// × bytes-per-edge) or the stream ends, the `c_table` is emitted into the
/// `Set_c` and cleared.
pub fn label_partition(edges: &[Edge], chunk_bytes: usize) -> ChunkTable {
    let chunk_edge_cap = (chunk_bytes / EDGE_BYTES).max(1);
    let mut chunks = Vec::new();
    let mut table: Vec<ChunkEntry> = Vec::new();
    // Whether `table`'s vertices have been strictly ascending so far: then
    // a source above the last entry cannot be in it.
    let mut ascending = true;
    let mut start = 0usize;
    let mut edge_num = 0usize;
    for (idx, e) in edges.iter().enumerate() {
        // Partitions arrive source-sorted from the format converters, so
        // the common case appends to the last entry or pushes a new one
        // above it; the fallback scan keeps the algorithm correct for
        // arbitrary edge order.
        match table.last_mut() {
            Some(last) if last.vertex == e.src => last.out_edges += 1,
            Some(last) if ascending && last.vertex < e.src => {
                table.push(ChunkEntry { vertex: e.src, out_edges: 1 })
            }
            _ => {
                if let Some(entry) = table.iter_mut().find(|t| t.vertex == e.src) {
                    entry.out_edges += 1;
                } else {
                    ascending &= table.last().is_none_or(|last| last.vertex < e.src);
                    table.push(ChunkEntry { vertex: e.src, out_edges: 1 });
                }
            }
        }
        edge_num += 1;
        if edge_num >= chunk_edge_cap {
            chunks.push(Chunk { edges: start..idx + 1, table: std::mem::take(&mut table) });
            ascending = true;
            start = idx + 1;
            edge_num = 0;
        }
    }
    if edge_num > 0 {
        chunks.push(Chunk { edges: start..edges.len(), table });
    }
    ChunkTable { chunks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_graph::generators;

    #[test]
    fn formula1_shrinks_with_more_state() {
        let p = MemoryProfile::DEFAULT;
        let small_state = chunk_size_bytes(&p, 12_000_000, 100_000, 4);
        let big_state = chunk_size_bytes(&p, 12_000_000, 100_000, 64);
        assert!(big_state <= small_state);
        assert_eq!(small_state % CHUNK_ALIGN_BYTES, 0);
        assert!(small_state >= CHUNK_ALIGN_BYTES);
    }

    #[test]
    fn formula1_matches_closed_form() {
        // Sc*N*(1 + |V|*Uv/SG) <= C_LLC - r, directly.
        let p = MemoryProfile {
            memory_bytes: 1 << 30,
            llc_bytes: 1 << 20,
            llc_ways: 8,
            line_bytes: 64,
            cores: 4,
            llc_reserved: 1 << 16,
        };
        let sc = chunk_size_bytes(&p, 10 << 20, 1 << 20, 8);
        let n = 4.0;
        let lhs = sc as f64 * n
            + sc as f64 * n / (10u64 << 20) as f64 * (1u64 << 20) as f64 * 8.0
            + (1u64 << 16) as f64;
        assert!(lhs <= (1 << 20) as f64, "formula must hold: lhs = {lhs}");
        // And one alignment step larger must violate it.
        let sc2 = sc + CHUNK_ALIGN_BYTES;
        let lhs2 = sc2 as f64 * n * (1.0 + (1u64 << 20) as f64 * 8.0 / (10u64 << 20) as f64)
            + (1u64 << 16) as f64;
        assert!(lhs2 > (1 << 20) as f64, "Sc must be maximal");
    }

    #[test]
    fn label_covers_all_edges_contiguously() {
        let g = generators::rmat(200, 2000, generators::RmatParams::GRAPH500, 17);
        let mut edges = g.edges.clone();
        edges.sort_by_key(|e| e.src);
        let ct = label_partition(&edges, 30 * EDGE_BYTES);
        assert_eq!(ct.num_edges(), 2000);
        let mut next = 0usize;
        for c in &ct.chunks {
            assert_eq!(c.edges.start, next, "chunks must tile the stream");
            next = c.edges.end;
            // Table sums to chunk edge count.
            let sum: u64 = c.table.iter().map(|e| e.out_edges as u64).sum();
            assert_eq!(sum, c.num_edges() as u64);
            // Table is per-vertex: no duplicate keys.
            let mut keys: Vec<_> = c.table.iter().map(|e| e.vertex).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), c.table.len());
        }
        assert_eq!(next, 2000);
        // All chunks but the last are exactly the cap.
        for c in &ct.chunks[..ct.chunks.len() - 1] {
            assert_eq!(c.num_edges(), 30);
        }
    }

    #[test]
    fn label_handles_unsorted_streams() {
        let edges = vec![
            Edge::new(3, 1),
            Edge::new(1, 2),
            Edge::new(3, 0),
            Edge::new(1, 0),
            Edge::new(3, 2),
        ];
        let ct = label_partition(&edges, 100 * EDGE_BYTES);
        assert_eq!(ct.chunks.len(), 1);
        let t = &ct.chunks[0].table;
        assert_eq!(t.len(), 2);
        let three = t.iter().find(|e| e.vertex == 3).unwrap();
        assert_eq!(three.out_edges, 3);
    }

    #[test]
    fn empty_partition_labels_empty() {
        let ct = label_partition(&[], 192);
        assert!(ct.chunks.is_empty());
        assert_eq!(ct.overhead_bytes(), 0);
    }

    #[test]
    fn active_edges_respects_bitmap() {
        let edges = vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2), Edge::new(2, 0)];
        let ct = label_partition(&edges, 100 * EDGE_BYTES);
        let active = AtomicBitmap::new(3);
        active.set(0);
        let c = &ct.chunks[0];
        assert_eq!(c.active_edges(&active), 2);
        assert!(c.any_active(&active));
        active.clear(0);
        assert_eq!(c.active_edges(&active), 0);
        assert!(!c.any_active(&active));
        active.set(2);
        assert_eq!(c.active_edges(&active), 1);
    }

    #[test]
    fn skewed_graph_has_higher_overhead_ratio() {
        // §5.2: graphs with larger max out-degree and lower average
        // out-degree pay a higher chunk-table overhead ratio, because hub
        // vertices replicate across chunks.
        let star = generators::star(2000); // one hub
        let ring = generators::ring(2000); // uniform
        let mut se = star.edges.clone();
        se.sort_by_key(|e| e.src);
        let mut re = ring.edges.clone();
        re.sort_by_key(|e| e.src);
        let cs = 16 * EDGE_BYTES;
        let star_ct = label_partition(&se, cs);
        let ring_ct = label_partition(&re, cs);
        let star_ratio = star_ct.overhead_bytes() as f64 / (se.len() * EDGE_BYTES) as f64;
        let ring_ratio = ring_ct.overhead_bytes() as f64 / (re.len() * EDGE_BYTES) as f64;
        // Star: hub appears once per chunk (low entry count); ring: every
        // vertex appears exactly once → one entry per edge (high count).
        assert!(ring_ratio > star_ratio);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use graphm_graph::generators;
    use proptest::prelude::*;

    /// Algorithm 1 with a table scan for every source that is not the
    /// last entry's: the reference for the ascending shortcut.
    fn label_by_scan(edges: &[Edge], cap: usize) -> Vec<(Range<usize>, Vec<ChunkEntry>)> {
        let mut chunks = Vec::new();
        for (at, run) in edges.chunks(cap).enumerate() {
            let mut table: Vec<ChunkEntry> = Vec::new();
            for e in run {
                match table.iter_mut().find(|t| t.vertex == e.src) {
                    Some(entry) => entry.out_edges += 1,
                    None => table.push(ChunkEntry { vertex: e.src, out_edges: 1 }),
                }
            }
            chunks.push((at * cap..at * cap + run.len(), table));
        }
        chunks
    }

    proptest! {
        /// Labelling invariants for arbitrary graphs and chunk sizes:
        /// chunks tile the stream, tables sum to chunk sizes, keys unique.
        #[test]
        fn labelling_invariants(n in 1u32..200, m in 0usize..1500, cap in 1usize..80, seed in 0u64..200) {
            let g = generators::erdos_renyi(n, m, seed);
            let mut edges = g.edges.clone();
            edges.sort_by_key(|e| e.src);
            let ct = label_partition(&edges, cap * EDGE_BYTES);
            prop_assert_eq!(ct.num_edges(), m);
            let mut next = 0usize;
            for c in &ct.chunks {
                prop_assert_eq!(c.edges.start, next);
                next = c.edges.end;
                prop_assert!(c.num_edges() <= cap.max(1));
                let sum: u64 = c.table.iter().map(|e| e.out_edges as u64).sum();
                prop_assert_eq!(sum, c.num_edges() as u64);
                let mut keys: Vec<_> = c.table.iter().map(|e| e.vertex).collect();
                keys.sort_unstable();
                let before = keys.len();
                keys.dedup();
                prop_assert_eq!(keys.len(), before);
            }
            prop_assert_eq!(next, m);
        }

        /// The ascending shortcut changes no table: labelling equals the
        /// scan-every-new-source reference on source-sorted, unsorted and
        /// duplicate-heavy streams alike.
        #[test]
        fn labelling_equals_the_scan(
            srcs in proptest::collection::vec(0u32..40, 0..600),
            shape in 0usize..3,
            cap in 1usize..60,
        ) {
            let mut srcs = srcs;
            match shape {
                0 => srcs.sort_unstable(),
                1 => srcs.iter_mut().for_each(|s| *s %= 3), // few sources, many repeats
                _ => {}                                      // arbitrary order
            }
            let edges: Vec<Edge> =
                srcs.iter().enumerate().map(|(i, &s)| Edge::new(s, i as u32)).collect();
            let got = label_partition(&edges, cap * EDGE_BYTES);
            let want = label_by_scan(&edges, cap);
            prop_assert_eq!(got.chunks.len(), want.len());
            for (chunk, (range, table)) in got.chunks.iter().zip(&want) {
                prop_assert_eq!(&chunk.edges, range);
                prop_assert_eq!(&chunk.table, table);
            }
        }

        /// Formula 1 result always satisfies the inequality.
        #[test]
        fn formula1_inequality(sg in 1usize..100_000_000, v in 1u32..2_000_000, uv in 1usize..128) {
            let p = MemoryProfile::DEFAULT;
            let sc = chunk_size_bytes(&p, sg, v, uv);
            let n = p.cores as f64;
            let lhs = sc as f64 * n
                + sc as f64 * n / sg as f64 * v as f64 * uv as f64
                + p.llc_reserved as f64;
            // The minimum alignment unit may violate the bound for
            // pathological inputs (huge |V|*Uv/SG); otherwise it must hold.
            if sc > CHUNK_ALIGN_BYTES {
                prop_assert!(lhs <= p.llc_bytes as f64);
            }
        }
    }
}
