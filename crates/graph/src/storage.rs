//! Binary on-disk edge-list storage.
//!
//! This is the "original graph data" box of Figure 5: the raw format GraphM
//! keeps in secondary storage before `Convert()` produces engine-specific
//! representations. Records are fixed 12-byte little-endian
//! `(src: u32, dst: u32, weight: f32)` triples — [`crate::records`]' edge
//! image — behind `magic (8) | num_vertices u32 | num_edges u64`, so
//! streaming reads map 1:1 onto the cost model's byte counts.

use crate::records::{self, Cursor};
use crate::types::{Edge, EdgeList, GraphError, Result, VertexId};
use std::fs::File;
use std::path::Path;

const MAGIC: &[u8; 8] = b"GRAPHM01";

/// Writes `graph` to `path` in the GraphM binary edge-list format.
pub fn write_edge_list(graph: &EdgeList, path: &Path) -> Result<()> {
    let mut header = MAGIC.to_vec();
    header.extend_from_slice(&graph.num_vertices.to_le_bytes());
    header.extend_from_slice(&(graph.edges.len() as u64).to_le_bytes());
    Ok(records::write_to(&mut File::create(path)?, &header, &graph.edges)?)
}

/// Reads a graph previously written by [`write_edge_list`].
///
/// The header is untrusted: the promised edge count is validated against
/// the file's real length *before* any allocation, so a corrupt or
/// truncated file yields a typed [`GraphError::Truncated`] (or
/// [`GraphError::Format`] on overflow) instead of a giant speculative
/// `Vec` or a bare I/O error mid-stream.
pub fn read_edge_list(path: &Path) -> Result<EdgeList> {
    let (bytes, what) = (std::fs::read(path)?, path.display().to_string());
    let mut r = Cursor::new(&bytes, &what);
    r.magic(MAGIC)?;
    let num_vertices: VertexId = r.u32("vertex count")?;
    let num_edges = r.u64("edge count")?;
    let edges: Vec<Edge> = records::decode(r.images::<Edge>(num_edges)?, &what)?;
    records::check_all(&edges, num_vertices, &what)?;
    Ok(EdgeList { num_vertices, edges })
}

/// Parses a whitespace-separated text edge list (`src dst [weight]` per
/// line, `#` comments), the interchange format of SNAP/LAW datasets the
/// paper downloads. Vertex count is `max id + 1`.
pub fn parse_text_edge_list(text: &str) -> Result<EdgeList> {
    let mut edges = Vec::new();
    let mut max_v: VertexId = 0;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<VertexId> {
            tok.ok_or_else(|| GraphError::Format(format!("line {}: missing {what}", lineno + 1)))?
                .parse::<VertexId>()
                .map_err(|e| GraphError::Format(format!("line {}: {e}", lineno + 1)))
        };
        let src = parse(it.next(), "source")?;
        let dst = parse(it.next(), "destination")?;
        let weight = match it.next() {
            Some(tok) => tok
                .parse::<f32>()
                .map_err(|e| GraphError::Format(format!("line {}: {e}", lineno + 1)))?,
            None => 1.0,
        };
        max_v = max_v.max(src).max(dst);
        edges.push(Edge { src, dst, weight });
    }
    let num_vertices = if edges.is_empty() { 0 } else { max_v + 1 };
    Ok(EdgeList { num_vertices, edges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphm-storage-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trip() {
        let g = generators::rmat(500, 3000, generators::RmatParams::GRAPH500, 9);
        let path = tmp("roundtrip.bin");
        write_edge_list(&g, &path).unwrap();
        let back = read_edge_list(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.num_vertices, g.num_vertices);
        assert_eq!(back.num_edges(), g.num_edges());
        for (a, b) in g.edges.iter().zip(&back.edges) {
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.weight, b.weight);
        }
    }

    #[test]
    fn empty_graph_round_trip() {
        let g = EdgeList::new(7);
        let path = tmp("empty.bin");
        write_edge_list(&g, &path).unwrap();
        let back = read_edge_list(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.num_vertices, 7);
        assert_eq!(back.num_edges(), 0);
    }

    #[test]
    fn rejects_truncated_header_and_records() {
        let path = tmp("truncated.bin");
        // File shorter than the header.
        std::fs::write(&path, &MAGIC[..6]).unwrap();
        assert!(matches!(read_edge_list(&path).unwrap_err(), GraphError::Truncated { .. }));
        // Header promises 3 edges, file carries half a record.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 6]);
        std::fs::write(&path, &bytes).unwrap();
        match read_edge_list(&path).unwrap_err() {
            GraphError::Truncated { needed, available, .. } => {
                assert_eq!(needed, 36);
                assert_eq!(available, 6);
            }
            e => panic!("expected Truncated, got {e}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_overflowing_edge_count() {
        let path = tmp("overflow.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        // Must fail with a typed error before allocating u64::MAX capacity.
        assert!(matches!(read_edge_list(&path).unwrap_err(), GraphError::Format(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_range_vertex() {
        let path = tmp("outofrange.bin");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes()); // num_vertices = 2
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&9u32.to_le_bytes()); // src = 9: out of range
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_edge_list(&path).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 9, num_vertices: 2 }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("badmagic.bin");
        std::fs::write(&path, b"NOTMAGIC________________").unwrap();
        let err = read_edge_list(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, GraphError::Format(_)));
    }

    #[test]
    fn parse_text() {
        let g = parse_text_edge_list("# comment\n0 1\n1 2 3.5\n\n2 0\n").unwrap();
        assert_eq!(g.num_vertices, 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edges[1].weight, 3.5);
        assert_eq!(g.edges[0].weight, 1.0);
    }

    #[test]
    fn parse_text_errors() {
        assert!(parse_text_edge_list("0").is_err());
        assert!(parse_text_edge_list("a b").is_err());
        let empty = parse_text_edge_list("# nothing\n").unwrap();
        assert_eq!(empty.num_vertices, 0);
    }
}
