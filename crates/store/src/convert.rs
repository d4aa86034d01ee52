//! `Convert()` — preprocessing an edge list into the on-disk store.
//!
//! §3.1 of the paper: GraphM keeps the original graph data in secondary
//! storage and converts it once into the host engine's format. This module
//! is that step made durable for GridGraph's grid: it partitions the graph
//! with the exact code the in-memory engine uses ([`Grid::convert`]), then
//! writes one segment file per block plus a manifest, producing a
//! directory [`DiskGridSource`](crate::DiskGridSource) mmaps.

use graphm_graph::segment::{write_segment, Manifest, ManifestEntry};
use graphm_graph::{EdgeList, Grid, Result};
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
    p: u32,
}

/// Segment file name for partition `pid`.
pub fn segment_file_name(pid: usize) -> String {
    format!("part-{pid:05}.seg")
}

impl Convert {
    /// Convert into GridGraph's `p × p` grid layout.
    pub fn grid(p: usize) -> Convert {
        assert!(p >= 1 && p <= u32::MAX as usize, "grid requires 1 <= p <= u32::MAX");
        Convert { p: p as u32 }
    }

    /// Partitions `graph`, writes segments + manifest into `dir` (created
    /// if missing), and returns the manifest.
    pub fn write(&self, graph: &EdgeList, dir: &Path) -> Result<Manifest> {
        std::fs::create_dir_all(dir)?;
        let grid = Grid::convert(graph, self.p as usize);
        let mut partitions = Vec::with_capacity(grid.num_blocks());
        for idx in 0..grid.num_blocks() {
            // A block's bounds are its row's range (GridGraph's
            // `should_access_shard`); its load is exactly its payload.
            let (block, (row, _)) = (grid.block_by_index(idx), grid.block_coords(idx));
            let file = segment_file_name(idx);
            let byte_len = write_segment(block, &dir.join(&file))?;
            let (src_lo, src_hi) = grid.ranges().bounds(row);
            partitions.push(ManifestEntry {
                file,
                num_edges: block.len() as u64,
                byte_len,
                src_lo,
                src_hi,
                load_bytes: byte_len,
            });
        }
        let manifest = Manifest {
            p: self.p,
            num_vertices: graph.num_vertices,
            partitions,
            order: grid.streaming_order().into_iter().map(to_u32).collect(),
        };
        manifest.write_to_dir(dir)?;
        Ok(manifest)
    }
}

fn to_u32(v: usize) -> u32 {
    u32::try_from(v).expect("partition count fits u32")
}
