//! The on-disk partition-store format: segment files + manifest.
//!
//! This is the output of the store's `Convert()` preprocessing (Figure 5's
//! "converted graph data" box made real): each engine partition — a grid
//! block or a shard — becomes one *segment file* of raw 12-byte edge
//! records behind a small aligned header, and a *manifest* records, per
//! partition, its file, byte count, source-vertex bounds, and charged load
//! bytes, plus the engine's streaming order.
//!
//! A segment file is a [`crate::records`] record file of [`Edge`]s —
//! that module owns its bytes, its validator and the layout invariants the
//! mmap reader relies on. The manifest is this module's own: little-endian
//! fields, every count checked against the bytes left in the file before
//! anything is allocated for it.

use crate::records::{self, Cursor, Record};
use crate::types::{Edge, GraphError, Result, VertexId, EDGE_BYTES};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = Edge::MAGIC;

/// Magic bytes opening the manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"GMMAN001";

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.bin";

/// How the partitions of a store were produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreLayout {
    /// GridGraph's `P × P` grid; partitions are blocks in row-major index
    /// order and the manifest order is the column-major streaming order.
    Grid { p: u32 },
    /// GraphChi's source-sorted destination shards; one partition per
    /// interval, in interval order.
    Shards { p: u32 },
}

impl StoreLayout {
    /// Stable numeric tag identifying the layout *kind* (grid vs shards),
    /// independent of `p`. Also the on-disk encoding.
    pub fn tag(self) -> u32 {
        match self {
            StoreLayout::Grid { .. } => 0,
            StoreLayout::Shards { .. } => 1,
        }
    }

    /// Partition parameter: grid dimension `P` or shard count.
    pub fn p(self) -> u32 {
        match self {
            StoreLayout::Grid { p } | StoreLayout::Shards { p } => p,
        }
    }

    /// Inverse of [`StoreLayout::tag`] and [`StoreLayout::p`]: the layout
    /// the `tag u32 | p u32` pair of either manifest names.
    pub fn from_tag(tag: u32, p: u32) -> Result<StoreLayout> {
        match tag {
            0 => Ok(StoreLayout::Grid { p }),
            1 => Ok(StoreLayout::Shards { p }),
            t => Err(GraphError::Format(format!("unknown store layout tag {t}"))),
        }
    }
}

/// One partition's entry in the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Segment file name, relative to the store directory.
    pub file: String,
    /// Number of edge records in the segment.
    pub num_edges: u64,
    /// Edge payload bytes (`num_edges * EDGE_BYTES`).
    pub byte_len: u64,
    /// Source-vertex bounds `[src_lo, src_hi)` for activity checks. For
    /// grid blocks these are the block row's range bounds (matching
    /// GridGraph's `should_access_shard`), not the observed min/max.
    pub src_lo: VertexId,
    /// Exclusive upper source bound.
    pub src_hi: VertexId,
    /// Bytes charged when this partition is loaded from secondary storage.
    /// Equals `byte_len` for grid blocks; for shards it also counts the
    /// sliding windows dragged in per interval.
    pub load_bytes: u64,
}

/// The store's table of contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Partitioning scheme the segments were converted into.
    pub layout: StoreLayout,
    /// Total vertex count.
    pub num_vertices: VertexId,
    /// Per-partition metadata, in partition-index order.
    pub partitions: Vec<ManifestEntry>,
    /// The engine's native partition traversal order.
    pub order: Vec<u32>,
}

impl Manifest {
    /// Total structure bytes across all partitions (`S_G` in Formula 1).
    pub fn graph_bytes(&self) -> u64 {
        self.partitions.iter().map(|e| e.byte_len).sum()
    }

    /// Total edge count across all partitions.
    pub fn num_edges(&self) -> u64 {
        self.partitions.iter().map(|e| e.num_edges).sum()
    }

    /// Writes the manifest into `dir` as [`MANIFEST_FILE`].
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf> {
        let path = dir.join(MANIFEST_FILE);
        let mut w = BufWriter::new(File::create(&path)?);
        w.write_all(MANIFEST_MAGIC)?;
        w.write_all(&self.layout.tag().to_le_bytes())?;
        w.write_all(&self.layout.p().to_le_bytes())?;
        w.write_all(&self.num_vertices.to_le_bytes())?;
        w.write_all(&(self.partitions.len() as u32).to_le_bytes())?;
        for e in &self.partitions {
            write_name(&mut w, &e.file)?;
            w.write_all(&e.num_edges.to_le_bytes())?;
            w.write_all(&e.byte_len.to_le_bytes())?;
            w.write_all(&e.src_lo.to_le_bytes())?;
            w.write_all(&e.src_hi.to_le_bytes())?;
            w.write_all(&e.load_bytes.to_le_bytes())?;
        }
        for pid in &self.order {
            w.write_all(&pid.to_le_bytes())?;
        }
        w.flush()?;
        Ok(path)
    }

    /// Reads a manifest previously written by [`Manifest::write_to_dir`].
    pub fn read_from_dir(dir: &Path) -> Result<Manifest> {
        let path = dir.join(MANIFEST_FILE);
        let (bytes, what) = (std::fs::read(&path)?, path.display().to_string());
        let mut r = Cursor::new(&bytes, &what);
        r.magic(MANIFEST_MAGIC)?;
        let layout = StoreLayout::from_tag(r.u32("layout tag")?, r.u32("grid dimension")?)?;
        let num_vertices = r.u32("vertex count")?;
        let num_partitions = r.u32("partition count")? as usize;
        // Each entry is at least 34 bytes; reject counts the file cannot hold
        // before allocating.
        r.need(num_partitions as u64 * 34, "manifest entries")?;
        let mut partitions = Vec::with_capacity(num_partitions);
        for i in 0..num_partitions {
            let file = read_name(&mut r, &format!("entry {i}"))?;
            let num_edges = r.u64(&format!("entry {i} edge count"))?;
            let byte_len = r.u64(&format!("entry {i} byte length"))?;
            let expect_len = num_edges.checked_mul(EDGE_BYTES as u64).ok_or_else(|| {
                GraphError::Format(format!("entry {i}: edge count {num_edges} overflows"))
            })?;
            if byte_len != expect_len {
                return Err(GraphError::Format(format!(
                    "entry {i}: byte length {byte_len} does not match {num_edges} edges"
                )));
            }
            let src_lo = r.u32(&format!("entry {i} src_lo"))?;
            let src_hi = r.u32(&format!("entry {i} src_hi"))?;
            let load_bytes = r.u64(&format!("entry {i} load bytes"))?;
            // Loads charge at least the payload (grid: exactly; shards:
            // plus sliding windows); less means a corrupt manifest, and
            // downstream byte accounting subtracts the two.
            if load_bytes < byte_len {
                return Err(GraphError::Format(format!(
                    "entry {i}: load bytes {load_bytes} below payload {byte_len}"
                )));
            }
            partitions.push(ManifestEntry {
                file,
                num_edges,
                byte_len,
                src_lo,
                src_hi,
                load_bytes,
            });
        }
        r.need(num_partitions as u64 * 4, "traversal order")?;
        let mut order = Vec::with_capacity(num_partitions);
        let mut seen = vec![false; num_partitions];
        for i in 0..num_partitions {
            let pid = r.u32(&format!("order entry {i}"))?;
            if pid as usize >= num_partitions {
                return Err(GraphError::Format(format!(
                    "order entry {i} = {pid} out of range (n = {num_partitions})"
                )));
            }
            // The order must be a permutation: a duplicate would stream one
            // partition twice and silently skip another.
            if std::mem::replace(&mut seen[pid as usize], true) {
                return Err(GraphError::Format(format!(
                    "order entry {i} = {pid} duplicates an earlier entry"
                )));
            }
            order.push(pid);
        }
        Ok(Manifest { layout, num_vertices, partitions, order })
    }
}

/// Writes one partition's edges as a segment file (written, not synced).
/// Returns the payload byte count.
pub fn write_segment(edges: &[Edge], path: &Path) -> Result<u64> {
    records::write(edges, path).map(|_| (edges.len() * EDGE_BYTES) as u64)
}

/// Validates a segment header against the file's real length and the
/// manifest's expectation. Returns the record count.
///
/// `bytes` is the full segment file contents (or its mapped view).
pub fn validate_segment(bytes: &[u8], expect_edges: Option<u64>, what: &str) -> Result<u64> {
    records::validate::<Edge>(bytes, expect_edges, what)
}

/// Reads a segment file eagerly (the non-mmap path; also the portability
/// fallback for big-endian hosts).
pub fn read_segment(path: &Path) -> Result<Vec<Edge>> {
    records::read(path, None)
}

/// Writes a file name the way both manifests hold one: `len u16 | bytes`.
pub(crate) fn write_name(w: &mut impl Write, name: &str) -> Result<()> {
    let len = u16::try_from(name.len())
        .map_err(|_| GraphError::Format(format!("file name too long: {name}")))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(name.as_bytes())?;
    Ok(())
}

/// A file name written by [`write_name`]. Manifests are untrusted and
/// readers join these names onto the store directory, so anything but a
/// bare file name — one that could leave the directory — is a
/// [`GraphError::Format`].
pub(crate) fn read_name(r: &mut Cursor, what: &str) -> Result<String> {
    let len = r.u16(&format!("{what} name length"))?;
    let bytes = r.take(len.into(), &format!("{what} file name"))?;
    let name = std::str::from_utf8(bytes)
        .map_err(|_| r.malformed(format_args!("{what}: file name is not UTF-8")))?;
    if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\']) {
        return Err(r.malformed(format_args!("{what}: {name:?} is not a bare file name")));
    }
    Ok(name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphm-segment-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn segment_round_trip() {
        let g = generators::rmat(200, 1500, generators::RmatParams::GRAPH500, 3);
        let dir = tmpdir("roundtrip");
        let path = dir.join("part-00000.seg");
        let bytes = write_segment(&g.edges, &path).unwrap();
        assert_eq!(bytes, (1500 * EDGE_BYTES) as u64);
        let back = read_segment(&path).unwrap();
        assert_eq!(back.len(), 1500);
        for (a, b) in g.edges.iter().zip(&back) {
            assert_eq!((a.src, a.dst), (b.src, b.dst));
            assert_eq!(a.weight, b.weight);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_segment_round_trip() {
        let dir = tmpdir("empty");
        let path = dir.join("part-00000.seg");
        write_segment(&[], &path).unwrap();
        assert!(read_segment(&path).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_rejects_truncation_and_overflow() {
        let dir = tmpdir("bad");
        let path = dir.join("part-00000.seg");
        // Header promises u64::MAX edges: must be a typed error, not an
        // allocation attempt.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SEGMENT_MAGIC);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_segment(&path).unwrap_err(), GraphError::Format(_)));
        // Header promises 10 edges but carries 1.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SEGMENT_MAGIC);
        bytes.extend_from_slice(&10u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; EDGE_BYTES]);
        std::fs::write(&path, &bytes).unwrap();
        match read_segment(&path).unwrap_err() {
            GraphError::Truncated { needed, available, .. } => {
                assert_eq!(needed, 120);
                assert_eq!(available, 12);
            }
            e => panic!("expected Truncated, got {e}"),
        }
        // Same checks through the slice validator.
        assert!(matches!(
            validate_segment(&bytes, None, "slice").unwrap_err(),
            GraphError::Truncated { .. }
        ));
        assert!(matches!(
            validate_segment(b"short", None, "slice").unwrap_err(),
            GraphError::Truncated { .. }
        ));
        assert!(matches!(
            validate_segment(b"NOTMAGIC_____________", None, "slice").unwrap_err(),
            GraphError::Format(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_round_trip() {
        let dir = tmpdir("manifest");
        let m = Manifest {
            layout: StoreLayout::Grid { p: 2 },
            num_vertices: 100,
            partitions: (0..4)
                .map(|i| ManifestEntry {
                    file: format!("part-{i:05}.seg"),
                    num_edges: 10 * i,
                    byte_len: 10 * i * EDGE_BYTES as u64,
                    src_lo: (i * 25) as u32,
                    src_hi: (i * 25 + 25) as u32,
                    load_bytes: 10 * i * EDGE_BYTES as u64,
                })
                .collect(),
            order: vec![0, 2, 1, 3],
        };
        m.write_to_dir(&dir).unwrap();
        let back = Manifest::read_from_dir(&dir).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.graph_bytes(), (10 + 20 + 30) * EDGE_BYTES as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_rejects_duplicate_order_entries() {
        let dir = tmpdir("manifest-duporder");
        let mut m = Manifest {
            layout: StoreLayout::Grid { p: 2 },
            num_vertices: 10,
            partitions: (0..4)
                .map(|i| ManifestEntry {
                    file: format!("part-{i:05}.seg"),
                    num_edges: 0,
                    byte_len: 0,
                    src_lo: 0,
                    src_hi: 0,
                    load_bytes: 0,
                })
                .collect(),
            order: vec![0, 0, 1, 3], // duplicates 0, drops 2
        };
        m.write_to_dir(&dir).unwrap();
        assert!(matches!(Manifest::read_from_dir(&dir).unwrap_err(), GraphError::Format(_)));
        m.order = vec![0, 2, 1, 3];
        m.write_to_dir(&dir).unwrap();
        assert!(Manifest::read_from_dir(&dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_rejects_corruption() {
        let dir = tmpdir("manifest-bad");
        // Bad magic.
        std::fs::write(dir.join(MANIFEST_FILE), b"NOTMAGIC").unwrap();
        assert!(matches!(Manifest::read_from_dir(&dir).unwrap_err(), GraphError::Format(_)));
        // Truncated mid-header.
        std::fs::write(dir.join(MANIFEST_FILE), &MANIFEST_MAGIC[..4]).unwrap();
        assert!(matches!(Manifest::read_from_dir(&dir).unwrap_err(), GraphError::Truncated { .. }));
        // Entry count the file cannot hold.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MANIFEST_MAGIC);
        bytes.extend_from_slice(&0u32.to_le_bytes()); // grid
        bytes.extend_from_slice(&2u32.to_le_bytes()); // p
        bytes.extend_from_slice(&9u32.to_le_bytes()); // vertices
        bytes.extend_from_slice(&1_000_000u32.to_le_bytes()); // partitions
        std::fs::write(dir.join(MANIFEST_FILE), &bytes).unwrap();
        assert!(matches!(Manifest::read_from_dir(&dir).unwrap_err(), GraphError::Truncated { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }
}
