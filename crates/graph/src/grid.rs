//! The GridGraph 2-level grid format.
//!
//! GridGraph [Zhu et al., ATC '15] buckets edges into a `P × P` grid: edge
//! `(s, t)` lands in block `(row(s), col(t))` where rows/columns are equal
//! vertex ranges. Streaming the blocks column-major confines destination
//! writes to one vertex range at a time (write locality); the active-block
//! bitmap (`should_access_shard` in GridGraph's code) lets jobs skip blocks
//! whose source range has no active vertices.
//!
//! In the GraphM integration, one grid block = one GraphM *partition*; the
//! partition is then logically labelled into LLC-sized chunks by
//! `graphm-core` (Algorithm 1).

use crate::partition::VertexRanges;
use crate::types::{Edge, EdgeList, VertexId};

/// An in-memory grid-partitioned graph.
#[derive(Clone, Debug)]
pub struct Grid {
    ranges: VertexRanges,
    p: usize,
    /// `p * p` blocks, row-major: `blocks[row * p + col]`.
    blocks: Vec<Vec<Edge>>,
}

impl Grid {
    /// Converts an edge list into grid format (`Convert()` for GridGraph).
    ///
    /// Edges within a block are sorted by source vertex (stable), matching
    /// the radix layout GridGraph's preprocessing produces and keeping
    /// Algorithm-1 chunk tables compact.
    ///
    /// Linear: one pass counts each block's edges, a second fills the
    /// blocks at their exact capacity, and each block is then
    /// counting-sorted by its sources' offsets in the block's row.
    pub fn convert(graph: &EdgeList, p: usize) -> Grid {
        assert!(p >= 1, "grid requires p >= 1");
        let ranges = VertexRanges::new(graph.num_vertices.max(1), p);
        let block_of = |e: &Edge| ranges.range_of(e.src) * p + ranges.range_of(e.dst);
        let mut sizes = vec![0usize; p * p];
        for e in &graph.edges {
            sizes[block_of(e)] += 1;
        }
        let mut blocks: Vec<Vec<Edge>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for e in &graph.edges {
            blocks[block_of(e)].push(*e);
        }
        let mut counts = Vec::new();
        for (idx, block) in blocks.iter_mut().enumerate() {
            let row = idx / p;
            *block =
                counting_sort_by_src(block, ranges.bounds(row).0, ranges.len(row), &mut counts);
        }
        Grid { ranges, p, blocks }
    }

    /// Grid dimension `P`.
    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// The vertex ranges that define rows/columns.
    #[inline]
    pub fn ranges(&self) -> &VertexRanges {
        &self.ranges
    }

    /// Number of blocks (`P * P`), the partition count GraphM sees.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.p * self.p
    }

    /// Edges of block `(row, col)`.
    #[inline]
    pub fn block(&self, row: usize, col: usize) -> &[Edge] {
        &self.blocks[row * self.p + col]
    }

    /// Edges of block by flat index (row-major).
    #[inline]
    pub fn block_by_index(&self, idx: usize) -> &[Edge] {
        &self.blocks[idx]
    }

    /// Decomposes a flat block index into `(row, col)`.
    #[inline]
    pub fn block_coords(&self, idx: usize) -> (usize, usize) {
        (idx / self.p, idx % self.p)
    }

    /// The default streaming order of GridGraph: column-major (all blocks
    /// whose destinations fall in column 0, then column 1, ...), which is
    /// the "common order" GraphM regularizes jobs onto before the §4
    /// scheduler reorders it.
    pub fn streaming_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.num_blocks());
        for col in 0..self.p {
            for row in 0..self.p {
                order.push(row * self.p + col);
            }
        }
        order
    }

    /// Total number of edges across all blocks.
    pub fn num_edges(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Total structure bytes (`S_G`).
    pub fn size_bytes(&self) -> usize {
        self.num_edges() * crate::types::EDGE_BYTES
    }
}

/// `block` stably sorted by source, every source in `lo..lo + span`;
/// `counts` is scratch kept across calls.
fn counting_sort_by_src(
    block: &[Edge],
    lo: VertexId,
    span: VertexId,
    counts: &mut Vec<usize>,
) -> Vec<Edge> {
    if block.len() < 2 {
        return block.to_vec();
    }
    counts.clear();
    counts.resize(span as usize + 1, 0);
    for e in block {
        counts[(e.src - lo) as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    // `counts[o]` is now where the first edge of offset `o` goes.
    let mut sorted = vec![Edge::new(0, 0); block.len()];
    for e in block {
        let slot = &mut counts[(e.src - lo) as usize];
        sorted[*slot] = *e;
        *slot += 1;
    }
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn convert_places_edges_correctly() {
        let g = generators::rmat(100, 1000, generators::RmatParams::GRAPH500, 11);
        let grid = Grid::convert(&g, 4);
        assert_eq!(grid.num_edges(), 1000);
        for idx in 0..grid.num_blocks() {
            let (row, col) = grid.block_coords(idx);
            let (rlo, rhi) = grid.ranges().bounds(row);
            let (clo, chi) = grid.ranges().bounds(col);
            for e in grid.block_by_index(idx) {
                assert!(e.src >= rlo && e.src < rhi);
                assert!(e.dst >= clo && e.dst < chi);
            }
            // Sorted by source within a block.
            let b = grid.block_by_index(idx);
            assert!(b.windows(2).all(|w| w[0].src <= w[1].src));
        }
    }

    #[test]
    fn streaming_order_is_column_major() {
        let g = generators::ring(16);
        let grid = Grid::convert(&g, 2);
        assert_eq!(grid.streaming_order(), vec![0, 2, 1, 3]);
    }

    #[test]
    fn single_block_grid() {
        let g = generators::path(10);
        let grid = Grid::convert(&g, 1);
        assert_eq!(grid.num_blocks(), 1);
        assert_eq!(grid.block(0, 0).len(), 9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::generators;
    use proptest::prelude::*;

    proptest! {
        /// Grid conversion preserves the edge multiset and block placement
        /// respects the ranges.
        #[test]
        fn grid_partitions_edges(n in 1u32..400, m in 0usize..3000, p in 1usize..9, seed in 0u64..500) {
            let g = generators::erdos_renyi(n, m, seed);
            let grid = Grid::convert(&g, p);
            prop_assert_eq!(grid.num_edges(), m);
            let mut orig: Vec<(u32, u32)> = g.edges.iter().map(|e| (e.src, e.dst)).collect();
            let mut got: Vec<(u32, u32)> = (0..grid.num_blocks())
                .flat_map(|i| grid.block_by_index(i).iter().map(|e| (e.src, e.dst)))
                .collect();
            orig.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(orig, got);
        }

        /// The counting sort lays every block out exactly as a push per
        /// edge followed by a stable `sort_by_key` on the source would,
        /// weights (which tell parallel edges apart) included.
        #[test]
        fn blocks_equal_a_stable_sort(n in 1u32..300, m in 0usize..2500, p in 1usize..9, seed in 0u64..500) {
            let mut g = generators::erdos_renyi(n, m, seed);
            for (i, e) in g.edges.iter_mut().enumerate() {
                e.weight = i as f32;
            }
            let grid = Grid::convert(&g, p);
            let mut want: Vec<Vec<Edge>> = vec![Vec::new(); p * p];
            for e in &g.edges {
                want[grid.ranges().range_of(e.src) * p + grid.ranges().range_of(e.dst)].push(*e);
            }
            for (idx, block) in want.iter_mut().enumerate() {
                block.sort_by_key(|e| e.src);
                let got = grid.block_by_index(idx);
                prop_assert_eq!(got.len(), block.len());
                for (a, b) in got.iter().zip(block.iter()) {
                    prop_assert!(a.src == b.src && a.dst == b.dst && a.weight.to_bits() == b.weight.to_bits());
                }
            }
        }
    }
}
