//! `Convert()` — preprocessing an edge list into the on-disk store.
//!
//! §3.1 of the paper: GraphM keeps the original graph data in secondary
//! storage and converts it once into the host engine's format. This module
//! is that step made durable: it grid- or shard-partitions the graph with
//! the exact code the in-memory engines use ([`Grid::convert`] /
//! [`Shards::convert`]), then writes one segment file per partition plus a
//! manifest, producing a directory the `Disk*Source` readers mmap.

use graphm_graph::segment::{write_segment, Manifest, ManifestEntry, StoreLayout};
use graphm_graph::{Edge, EdgeList, GraphError, Grid, Result, Shards, VertexId, EDGE_BYTES};
use std::path::Path;

/// Builder for the on-disk conversion.
///
/// ```no_run
/// use graphm_store::Convert;
/// # let graph = graphm_graph::EdgeList::new(0);
/// let manifest = Convert::grid(8).write(&graph, std::path::Path::new("/data/twitter.gm")).unwrap();
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Convert {
    layout: StoreLayout,
}

/// Segment file name for partition `pid`.
pub fn segment_file_name(pid: usize) -> String {
    format!("part-{pid:05}.seg")
}

impl Convert {
    /// Convert into GridGraph's `p × p` grid layout.
    pub fn grid(p: usize) -> Convert {
        assert!(p >= 1 && p <= u32::MAX as usize, "grid requires 1 <= p <= u32::MAX");
        Convert { layout: StoreLayout::Grid { p: p as u32 } }
    }

    /// Convert into GraphChi's `p`-shard layout.
    pub fn shards(p: usize) -> Convert {
        assert!(p >= 1 && p <= u32::MAX as usize, "shards require 1 <= p <= u32::MAX");
        Convert { layout: StoreLayout::Shards { p: p as u32 } }
    }

    /// The layout this builder converts into.
    pub fn layout(&self) -> StoreLayout {
        self.layout
    }

    /// Partitions `graph`, writes segments + manifest into `dir` (created
    /// if missing), and returns the manifest.
    pub fn write(&self, graph: &EdgeList, dir: &Path) -> Result<Manifest> {
        std::fs::create_dir_all(dir)?;
        let mut partitions = Vec::new();
        // One segment per partition; `bounds` are the entry's source range,
        // `load_bytes` what loading it from secondary storage is charged.
        let mut segment = |edges: &[Edge], bounds: (VertexId, VertexId), load_bytes: usize| {
            let file = segment_file_name(partitions.len());
            let byte_len = write_segment(edges, &dir.join(&file))?;
            let (src_lo, src_hi) = bounds;
            let (num_edges, load_bytes) = (edges.len() as u64, load_bytes as u64);
            partitions.push(ManifestEntry {
                file,
                num_edges,
                byte_len,
                src_lo,
                src_hi,
                load_bytes,
            });
            Ok::<(), GraphError>(())
        };
        let order = match self.layout {
            StoreLayout::Grid { p } => {
                let grid = Grid::convert(graph, p as usize);
                for idx in 0..grid.num_blocks() {
                    // A block's bounds are its row's range (GridGraph's
                    // `should_access_shard`); its load is exactly its payload.
                    let (block, (row, _)) = (grid.block_by_index(idx), grid.block_coords(idx));
                    segment(block, grid.ranges().bounds(row), block.len() * EDGE_BYTES)?;
                }
                grid.streaming_order()
            }
            StoreLayout::Shards { p } => {
                let shards = Shards::convert(graph, p as usize);
                for s in 0..shards.num_shards() {
                    // Shards are source-sorted, so observed bounds are a
                    // tight summary; exact per-vertex activity is rebuilt
                    // from the mapped records at open time. GraphChi drags
                    // sliding windows in with the memory shard.
                    let edges = shards.shard(s);
                    let bounds = match (edges.first(), edges.last()) {
                        (Some(first), Some(last)) => (first.src, last.src + 1),
                        _ => (0, 0),
                    };
                    segment(edges, bounds, shards.interval_load_bytes(s))?;
                }
                (0..shards.num_shards()).collect()
            }
        };
        let manifest = Manifest {
            layout: self.layout,
            num_vertices: graph.num_vertices,
            partitions,
            order: order.into_iter().map(to_u32).collect(),
        };
        manifest.write_to_dir(dir)?;
        Ok(manifest)
    }
}

fn to_u32(v: usize) -> u32 {
    u32::try_from(v).expect("partition count fits u32")
}

/// Convenience: converts and returns an error when the target directory
/// already holds a manifest for a *different kind* of layout (protects
/// against silently mixing grid and shard stores in one directory;
/// re-converting the same kind at a different `p` is allowed).
pub fn convert_fresh(builder: Convert, graph: &EdgeList, dir: &Path) -> Result<Manifest> {
    if dir.join(graphm_graph::segment::MANIFEST_FILE).exists() {
        let existing = Manifest::read_from_dir(dir)?;
        if existing.layout.tag() != builder.layout().tag() {
            return Err(GraphError::Format(format!(
                "store at {} already holds layout {:?}, refusing to overwrite with {:?}",
                dir.display(),
                existing.layout,
                builder.layout()
            )));
        }
    }
    builder.write(graph, dir)
}
