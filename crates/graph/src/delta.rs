//! The on-disk **delta store** format: append-only mutation segments plus
//! generation-numbered manifests over a base partition store.
//!
//! A store directory written by `Convert()` (see [`crate::segment`]) is
//! immutable; this module adds the evolving-graph half: a single writer
//! appends per-partition *delta segments* (edge insertions and deletion
//! tombstones), publishes them under a new *generation manifest*, and
//! atomically flips the [`CURRENT_FILE`] pointer. Readers resolve
//! `CURRENT` at open (or on an explicit refresh), overlay the ordered
//! delta chain on the base segment, and never observe a half-published
//! generation:
//!
//! * delta segments and generation manifests are written **before**
//!   `CURRENT` moves, and no published file is ever modified in place
//!   (append-only at the directory level);
//! * `CURRENT` itself is replaced via write-to-temp + `rename`, which is
//!   atomic on POSIX filesystems;
//! * a generation manifest is **cumulative** — it names the base segment
//!   file and the full delta chain per partition — so a reader can jump
//!   from any generation straight to the newest without replaying
//!   intermediate manifests.
//!
//! The merge semantics ([`apply_delta`]) are chosen so that a merged view
//! is *bit-identical* to a from-scratch conversion of the mutated edge
//! list: an insert appends the edge, a delete removes every `(src, dst)`
//! occurrence accumulated so far (base and earlier deltas alike). A delta
//! segment is a [`crate::records`] record file of [`DeltaRecord`]s, laid
//! out and validated by that module like a base segment is.

use crate::failpoint;
use crate::records::{self, Cursor, Record};
use crate::segment::{read_grid_dim, read_name, write_grid_dim, write_name, Manifest};
use crate::types::{Edge, EdgeList, GraphError, Result, VertexId};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every delta segment file.
pub const DELTA_MAGIC: &[u8; 8] = DeltaRecord::MAGIC;

/// Magic bytes opening every generation manifest.
pub const GEN_MAGIC: &[u8; 8] = b"GMGEN001";

/// Magic bytes opening the [`CURRENT_FILE`] generation pointer.
pub const CURRENT_MAGIC: &[u8; 8] = b"GMCUR001";

/// Name of the current-generation pointer file inside a store directory.
/// Absent = generation 0 (the base store, no deltas).
pub const CURRENT_FILE: &str = "CURRENT";

/// Insert operation tag: the record's edge joins the merged view.
pub const DELTA_OP_INSERT: u32 = 0;

/// Delete (tombstone) tag: every `(src, dst)` occurrence accumulated so
/// far — in the base or in earlier delta records — leaves the merged view.
pub const DELTA_OP_DELETE: u32 = 1;

/// One mutation record. `#[repr(C)]` fixes the 16-byte on-disk layout so
/// little-endian hosts reinterpret mapped delta segments in place (the
/// argument is beside its [`Record`] impl).
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaRecord {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (inserts; ignored by deletes, write 0).
    pub weight: f32,
    /// [`DELTA_OP_INSERT`] or [`DELTA_OP_DELETE`].
    pub op: u32,
}

/// Size of one serialized [`DeltaRecord`].
pub const DELTA_RECORD_BYTES: usize = std::mem::size_of::<DeltaRecord>();

impl DeltaRecord {
    /// An insertion record.
    pub fn insert(src: VertexId, dst: VertexId, weight: f32) -> DeltaRecord {
        DeltaRecord { src, dst, weight, op: DELTA_OP_INSERT }
    }

    /// A deletion tombstone for every `(src, dst)` edge.
    pub fn delete(src: VertexId, dst: VertexId) -> DeltaRecord {
        DeltaRecord { src, dst, weight: 0.0, op: DELTA_OP_DELETE }
    }

    /// Whether this record inserts (vs deletes).
    pub fn is_insert(&self) -> bool {
        self.op == DELTA_OP_INSERT
    }
}

/// Delta segment file name for partition `pid` published at `generation`.
pub fn delta_file_name(generation: u64, pid: usize) -> String {
    format!("delta-{generation:06}-{pid:05}.dseg")
}

/// Inverse of [`delta_file_name`]: `(generation, pid)`. Like the other
/// parsers here it goes by shape, not width, so names past the padding
/// (generation 1,000,000) still parse.
pub fn parse_delta_name(name: &str) -> Option<(u64, usize)> {
    let (generation, pid) = name.strip_prefix("delta-")?.strip_suffix(".dseg")?.split_once('-')?;
    Some((generation.parse().ok()?, pid.parse().ok()?))
}

/// Generation manifest file name.
pub fn gen_manifest_file_name(generation: u64) -> String {
    format!("gen-{generation:06}.mf")
}

/// Inverse of [`gen_manifest_file_name`].
pub fn parse_gen_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.strip_suffix(".mf")?.parse().ok()
}

/// Segment file name for partition `pid`'s base rewritten by a compaction
/// that published `generation`. Distinguished from `Convert`'s original
/// `part-NNNNN.seg` names by the `-g` suffix, so retirement can tell them
/// apart.
pub fn compacted_segment_file_name(generation: u64, pid: usize) -> String {
    format!("part-{pid:05}-g{generation:06}.seg")
}

/// Inverse of [`compacted_segment_file_name`]: `(generation, pid)`.
pub fn parse_compacted_segment_name(name: &str) -> Option<(u64, usize)> {
    let (pid, generation) = name.strip_prefix("part-")?.strip_suffix(".seg")?.split_once("-g")?;
    Some((generation.parse().ok()?, pid.parse().ok()?))
}

/// Chain-wide position of the **last** tombstone of every deleted
/// `(src, dst)` key, positions counted over `chain`'s records in order.
/// This index is the whole merge rule: a record accumulated before its
/// key's last tombstone is dead — every base record with a deleted key,
/// and every insert at an earlier position — and everything else lives.
fn last_deletes(chain: &[&[DeltaRecord]]) -> HashMap<(VertexId, VertexId), usize> {
    let mut last = HashMap::new();
    for (pos, r) in chain.iter().copied().flatten().enumerate() {
        if !r.is_insert() {
            last.insert((r.src, r.dst), pos);
        }
    }
    last
}

/// The chain's inserts no later tombstone kills, in record order.
fn live_inserts<'a>(
    chain: &'a [&'a [DeltaRecord]],
    last_delete: &'a HashMap<(VertexId, VertexId), usize>,
) -> impl Iterator<Item = Edge> + 'a {
    chain
        .iter()
        .copied()
        .flatten()
        .enumerate()
        .filter(|&(pos, r)| {
            r.is_insert() && last_delete.get(&(r.src, r.dst)).is_none_or(|&d| d < pos)
        })
        .map(|(_, r)| Edge { src: r.src, dst: r.dst, weight: r.weight })
}

/// Applies `records` to `edges` in record order: inserts append, deletes
/// remove every `(src, dst)` match accumulated so far. This is the one
/// definition of the merge semantics — the in-memory reference mutation
/// calls it, and the store's merged-view readers and the compactor go
/// through [`Overlay`], which is built on the same last-tombstone index —
/// which is what makes "merged read == from-scratch conversion of the
/// mutated graph" hold bit for bit. One pass: `O(edges + records)`.
pub fn apply_delta(edges: &mut Vec<Edge>, records: &[DeltaRecord]) {
    let chain = [records];
    let last_delete = last_deletes(&chain);
    if !last_delete.is_empty() {
        edges.retain(|e| !last_delete.contains_key(&(e.src, e.dst)));
    }
    edges.extend(live_inserts(&chain, &last_delete));
}

/// Whether `edges` is in non-decreasing source order — the order
/// `Convert()` and compaction write, and the precondition of
/// [`Overlay`]'s linear merge.
fn source_ordered(edges: &[Edge]) -> bool {
    edges.windows(2).all(|w| w[0].src <= w[1].src)
}

/// One partition's delta chain resolved against its base segment, once,
/// so that every later read of the merged partition costs a copy instead
/// of a replay: the base records the chain kills, and the inserts that
/// survive it. Immutable; at most the chain's own size (4 bytes per dead
/// base record, 12 per live insert, against 16 per record on disk).
#[derive(Debug)]
pub struct Overlay {
    /// Ascending indices of base records some tombstone kills.
    dead: Vec<u32>,
    /// Surviving inserts, stably sorted by source (chain order within one
    /// source).
    inserts: Vec<Edge>,
    base_len: usize,
    /// `base` was in source order, so [`Overlay::merge`] can merge
    /// linearly instead of sorting.
    base_ordered: bool,
}

impl Overlay {
    /// Resolves `chain` (delta segments, oldest first) against `base`.
    pub fn resolve(base: &[Edge], chain: &[&[DeltaRecord]]) -> Result<Overlay> {
        if u32::try_from(base.len()).is_err() {
            return Err(GraphError::Format(format!(
                "a partition of {} edges is too large to overlay a delta chain on",
                base.len()
            )));
        }
        let last_delete = last_deletes(chain);
        let dead = if last_delete.is_empty() {
            Vec::new()
        } else {
            (0u32..)
                .zip(base)
                .filter(|(_, e)| last_delete.contains_key(&(e.src, e.dst)))
                .map(|(i, _)| i)
                .collect()
        };
        let mut inserts: Vec<Edge> = live_inserts(chain, &last_delete).collect();
        inserts.sort_by_key(|e| e.src);
        Ok(Overlay { dead, inserts, base_len: base.len(), base_ordered: source_ordered(base) })
    }

    /// Edge count of the merged partition.
    pub fn merged_len(&self) -> usize {
        self.base_len - self.dead.len() + self.inserts.len()
    }

    /// Source vertex of every merged record (surviving base records, then
    /// surviving inserts), without materialising the merge.
    pub fn sources<'a>(&'a self, base: &'a [Edge]) -> impl Iterator<Item = VertexId> + 'a {
        assert_eq!(base.len(), self.base_len, "overlay applied to a different base");
        let mut dead = self.dead.iter().peekable();
        let live_base = (0u32..).zip(base).filter(move |(i, _)| dead.next_if_eq(&i).is_none());
        live_base.map(|(_, e)| e.src).chain(self.inserts.iter().map(|e| e.src))
    }

    /// Materialises the merged partition: `base` minus the dead records
    /// plus the surviving inserts, in `Convert()`'s stable source order —
    /// bit-identical to applying the chain with [`apply_delta`] and
    /// stable-sorting by source. Over a source-ordered base that is one
    /// linear two-run merge (base first on equal sources: a conversion of
    /// the mutated edge list sees base edges before appended ones); an
    /// unordered base — only a foreign writer produces one — is
    /// concatenated and stable-sorted instead.
    pub fn merge(&self, base: &[Edge]) -> Vec<Edge> {
        assert_eq!(base.len(), self.base_len, "overlay applied to a different base");
        let mut out = Vec::with_capacity(self.merged_len());
        let mut dead = self.dead.iter().map(|&i| i as usize).peekable();
        // Appends the live records of `base[from..to]`.
        let mut copy_live = |out: &mut Vec<Edge>, mut from: usize, to: usize| {
            while let Some(d) = dead.next_if(|&d| d < to) {
                out.extend_from_slice(&base[from..d]);
                from = d + 1;
            }
            out.extend_from_slice(&base[from..to]);
        };
        if !self.base_ordered {
            copy_live(&mut out, 0, base.len());
            out.extend_from_slice(&self.inserts);
            out.sort_by_key(|e| e.src);
            return out;
        }
        let mut from = 0;
        for ins in &self.inserts {
            let to = from + base[from..].partition_point(|e| e.src <= ins.src);
            copy_live(&mut out, from, to);
            out.push(*ins);
            from = to;
        }
        copy_live(&mut out, from, base.len());
        out
    }
}

/// Applies `records` to a whole edge list — the in-memory reference for
/// what a published delta batch does to the graph (deletes filter
/// everywhere, inserts append at the end, exactly like [`apply_delta`]
/// does per partition).
pub fn apply_delta_to_edge_list(graph: &mut EdgeList, records: &[DeltaRecord]) {
    apply_delta(&mut graph.edges, records);
}

/// Writes one partition's pending mutations as a delta segment file and
/// syncs it. Returns the payload byte count.
pub fn write_delta_segment(records: &[DeltaRecord], path: &Path) -> Result<u64> {
    let file = records::write(records, path)?;
    failpoint::hit("delta.segment.written")?;
    // Durability before the CURRENT flip references this file: the flip
    // must never durably name a generation whose payload is not.
    file.sync_all()?;
    failpoint::hit("delta.segment.synced")?;
    Ok((records.len() * DELTA_RECORD_BYTES) as u64)
}

/// Validates a delta segment header against the file's real length and
/// the manifest's expectation. Returns the record count.
pub fn validate_delta_segment(
    bytes: &[u8],
    expect_records: Option<u64>,
    what: &str,
) -> Result<u64> {
    records::validate::<DeltaRecord>(bytes, expect_records, what)
}

/// Reads a delta segment file eagerly (the non-mmap path; also the
/// big-endian fallback). Rejects unknown operation tags.
pub fn read_delta_segment(path: &Path) -> Result<Vec<DeltaRecord>> {
    records::read(path, None)
}

/// One delta segment in a partition's chain, as the generation manifest
/// records it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaFileRef {
    /// Delta segment file name, relative to the store directory.
    pub file: String,
    /// Number of 16-byte mutation records in the segment.
    pub num_records: u64,
}

/// One partition's entry in a generation manifest: which segment file is
/// its base *this generation* (compaction rewrites it) plus the ordered
/// delta chain layered on top.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenPartition {
    /// Base segment file name (original `part-NNNNN.seg` until a
    /// compaction replaces it with a folded `part-NNNNN-gGGGGGG.seg`).
    pub base_file: String,
    /// Edge records in the base segment.
    pub base_num_edges: u64,
    /// Ordered delta chain (oldest first).
    pub deltas: Vec<DeltaFileRef>,
}

impl GenPartition {
    /// Total mutation records across the chain.
    pub fn delta_records(&self) -> u64 {
        self.deltas.iter().map(|d| d.num_records).sum()
    }

    /// Total delta payload bytes across the chain.
    pub fn delta_bytes(&self) -> u64 {
        self.delta_records() * DELTA_RECORD_BYTES as u64
    }
}

/// A generation's table of contents. Cumulative: resolving the newest
/// generation needs only this one file plus the base `manifest.bin`
/// (which keeps the grid dimension, streaming order, and activity bounds —
/// none of which a delta publish changes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenManifest {
    /// Generation number (>= 1; generation 0 is the bare base store).
    pub generation: u64,
    /// Cumulative compactions folded into the base so far — carried
    /// forward by every publish so readers can report it.
    pub compactions: u64,
    /// Must match the base manifest's grid dimension.
    pub p: u32,
    /// Must match the base manifest's vertex count (growing the vertex
    /// set requires reconversion).
    pub num_vertices: VertexId,
    /// Per-partition state, in partition-index order.
    pub partitions: Vec<GenPartition>,
}

impl GenManifest {
    /// Total delta payload bytes across all partitions.
    pub fn delta_bytes(&self) -> u64 {
        self.partitions.iter().map(GenPartition::delta_bytes).sum()
    }

    /// Total mutation records across all partitions.
    pub fn delta_records(&self) -> u64 {
        self.partitions.iter().map(GenPartition::delta_records).sum()
    }

    /// The one rule tying a generation to the base store it was published
    /// over: same grid dimension, same vertex set (growing it requires
    /// reconversion), one entry per base partition.
    pub fn check_base(&self, base: &Manifest) -> Result<()> {
        let ours = (self.p, self.num_vertices, self.partitions.len());
        let theirs = (base.p, base.num_vertices, base.partitions.len());
        if ours != theirs {
            return Err(GraphError::Format(format!(
                "generation {}: (p, vertices, partitions) = {ours:?}, its base store has \
                 {theirs:?}",
                self.generation
            )));
        }
        Ok(())
    }

    /// Writes the manifest into `dir` under its generation-numbered name.
    pub fn write_to_dir(&self, dir: &Path) -> Result<PathBuf> {
        let path = dir.join(gen_manifest_file_name(self.generation));
        let mut w = BufWriter::new(File::create(&path)?);
        w.write_all(GEN_MAGIC)?;
        w.write_all(&self.generation.to_le_bytes())?;
        w.write_all(&self.compactions.to_le_bytes())?;
        write_grid_dim(&mut w, self.p)?;
        w.write_all(&self.num_vertices.to_le_bytes())?;
        w.write_all(&(self.partitions.len() as u32).to_le_bytes())?;
        for part in &self.partitions {
            write_name(&mut w, &part.base_file)?;
            w.write_all(&part.base_num_edges.to_le_bytes())?;
            w.write_all(&(part.deltas.len() as u32).to_le_bytes())?;
            for d in &part.deltas {
                write_name(&mut w, &d.file)?;
                w.write_all(&d.num_records.to_le_bytes())?;
            }
        }
        w.flush()?;
        failpoint::hit("gen.manifest.written")?;
        // Must be durable before CURRENT durably points at it.
        w.get_ref().sync_all()?;
        failpoint::hit("gen.manifest.synced")?;
        Ok(path)
    }

    /// Reads the manifest for `generation` previously written by
    /// [`GenManifest::write_to_dir`].
    pub fn read_from_dir(dir: &Path, generation: u64) -> Result<GenManifest> {
        let path = dir.join(gen_manifest_file_name(generation));
        let (bytes, what) = (std::fs::read(&path)?, path.display().to_string());
        let mut r = Cursor::new(&bytes, &what);
        r.magic(GEN_MAGIC)?;
        let file_gen = r.u64("generation number")?;
        if file_gen != generation {
            return Err(r.malformed(format_args!(
                "header says generation {file_gen}, file name says {generation}"
            )));
        }
        let compactions = r.u64("compaction count")?;
        let p = read_grid_dim(&mut r)?;
        let num_vertices = r.u32("vertex count")?;
        let num_partitions = r.u32("partition count")? as usize;
        // Each entry is at least 14 bytes; reject counts the file cannot
        // hold before allocating.
        r.need(num_partitions as u64 * 14, "generation partitions")?;
        let mut partitions = Vec::with_capacity(num_partitions);
        for i in 0..num_partitions {
            let base_file = read_name(&mut r, &format!("partition {i} base"))?;
            let base_num_edges = r.u64(&format!("partition {i} base edge count"))?;
            let num_deltas = r.u32(&format!("partition {i} delta count"))? as usize;
            r.need(num_deltas as u64 * 10, &format!("partition {i} delta chain"))?;
            let mut deltas = Vec::with_capacity(num_deltas);
            for d in 0..num_deltas {
                let file = read_name(&mut r, &format!("partition {i} delta {d}"))?;
                let num_records = r.u64(&format!("partition {i} delta {d} record count"))?;
                deltas.push(DeltaFileRef { file, num_records });
            }
            partitions.push(GenPartition { base_file, base_num_edges, deltas });
        }
        Ok(GenManifest { generation, compactions, p, num_vertices, partitions })
    }
}

/// Reads the store's current generation: the [`CURRENT_FILE`] pointer, or
/// 0 when it does not exist (a bare base store).
pub fn read_current_generation(dir: &Path) -> Result<u64> {
    let path = dir.join(CURRENT_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let what = path.display().to_string();
    let mut r = Cursor::new(&bytes, &what);
    r.magic(CURRENT_MAGIC)?;
    r.u64("generation pointer")
}

/// Atomically points the store at `generation`: the pointer is written to
/// a temporary file and `rename`d over [`CURRENT_FILE`], so readers see
/// either the old pointer or the new one, never a torn write. Call only
/// after the generation's manifest and delta segments are fully on disk.
pub fn write_current_generation(dir: &Path, generation: u64) -> Result<()> {
    let tmp = dir.join(format!("{CURRENT_FILE}.tmp"));
    let mut bytes = Vec::with_capacity(16);
    bytes.extend_from_slice(CURRENT_MAGIC);
    bytes.extend_from_slice(&generation.to_le_bytes());
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        failpoint::hit("current.tmp.written")?;
        // The pointer's content must hit disk before the rename can, or
        // a crash could leave CURRENT durably pointing at garbage.
        f.sync_all()?;
        failpoint::hit("current.tmp.synced")?;
    }
    std::fs::rename(&tmp, dir.join(CURRENT_FILE))?;
    failpoint::hit("current.renamed")?;
    // And the rename itself must be durable: fsync the directory.
    File::open(dir)?.sync_all()?;
    failpoint::hit("current.dir.synced")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphm-delta-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn delta_record_layout_is_sixteen_bytes() {
        assert_eq!(DELTA_RECORD_BYTES, 16);
    }

    #[test]
    fn delta_segment_round_trip() {
        let dir = tmpdir("roundtrip");
        let records = vec![
            DeltaRecord::insert(1, 2, 0.5),
            DeltaRecord::delete(3, 4),
            DeltaRecord::insert(5, 6, -1.25),
        ];
        let path = dir.join(delta_file_name(1, 0));
        let bytes = write_delta_segment(&records, &path).unwrap();
        assert_eq!(bytes, 3 * DELTA_RECORD_BYTES as u64);
        let back = read_delta_segment(&path).unwrap();
        assert_eq!(back, records);
        // Empty segments round-trip too.
        let empty = dir.join(delta_file_name(1, 1));
        write_delta_segment(&[], &empty).unwrap();
        assert!(read_delta_segment(&empty).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_segment_rejects_corruption() {
        let dir = tmpdir("bad");
        let path = dir.join("x.dseg");
        // Header promises u64::MAX records: typed error, no allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(DELTA_MAGIC);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_delta_segment(&path).unwrap_err(), GraphError::Format(_)));
        // Header promises 5 records but carries 1.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(DELTA_MAGIC);
        bytes.extend_from_slice(&5u64.to_le_bytes());
        bytes.extend_from_slice(&[0u8; DELTA_RECORD_BYTES]);
        std::fs::write(&path, &bytes).unwrap();
        match read_delta_segment(&path).unwrap_err() {
            GraphError::Truncated { needed, available, .. } => {
                assert_eq!(needed, 80);
                assert_eq!(available, 16);
            }
            e => panic!("expected Truncated, got {e}"),
        }
        assert!(matches!(
            validate_delta_segment(&bytes, None, "slice").unwrap_err(),
            GraphError::Truncated { .. }
        ));
        assert!(matches!(
            validate_delta_segment(b"short", None, "slice").unwrap_err(),
            GraphError::Truncated { .. }
        ));
        assert!(matches!(
            validate_delta_segment(b"NOTMAGIC________", None, "slice").unwrap_err(),
            GraphError::Format(_)
        ));
        // Unknown op tag.
        let rec = DeltaRecord { src: 0, dst: 1, weight: 0.0, op: 7 };
        write_delta_segment(&[rec], &path).unwrap();
        assert!(matches!(read_delta_segment(&path).unwrap_err(), GraphError::Format(_)));
        // Manifest/segment record-count mismatch through the validator.
        let good = [DeltaRecord::insert(0, 1, 1.0)];
        write_delta_segment(&good, &path).unwrap();
        let file_bytes = std::fs::read(&path).unwrap();
        assert_eq!(validate_delta_segment(&file_bytes, Some(1), "slice").unwrap(), 1);
        assert!(matches!(
            validate_delta_segment(&file_bytes, Some(2), "slice").unwrap_err(),
            GraphError::Format(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_manifest_round_trip() {
        let dir = tmpdir("genman");
        let m = GenManifest {
            generation: 3,
            compactions: 1,
            p: 2,
            num_vertices: 100,
            partitions: (0..4)
                .map(|i| GenPartition {
                    base_file: format!("part-{i:05}.seg"),
                    base_num_edges: 10 * i,
                    deltas: (1..=i)
                        .map(|g| DeltaFileRef {
                            file: delta_file_name(g, i as usize),
                            num_records: g * 2,
                        })
                        .collect(),
                })
                .collect(),
        };
        m.write_to_dir(&dir).unwrap();
        let back = GenManifest::read_from_dir(&dir, 3).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.delta_records(), 2 + (2 + 4) + (2 + 4 + 6));
        assert_eq!(back.delta_bytes(), back.delta_records() * DELTA_RECORD_BYTES as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A generation manifest repeats the base's `tag | p` pair: any tag but
    /// the grid's is refused, naming the removed shard layout.
    #[test]
    fn gen_manifest_refuses_a_layout_that_is_not_a_grid() {
        let dir = tmpdir("genman-layout");
        let m = GenManifest {
            generation: 1,
            compactions: 0,
            p: 1,
            num_vertices: 4,
            partitions: vec![GenPartition {
                base_file: "part-00000.seg".to_string(),
                base_num_edges: 0,
                deltas: vec![],
            }],
        };
        let path = m.write_to_dir(&dir).unwrap();
        assert_eq!(GenManifest::read_from_dir(&dir, 1).unwrap(), m);
        let mut bytes = std::fs::read(&path).unwrap();
        // magic, generation and compaction count, then the layout tag.
        bytes[24..28].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = GenManifest::read_from_dir(&dir, 1).unwrap_err();
        assert!(matches!(&err, GraphError::Format(m) if m.contains("shard layout")), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_manifest_rejects_corruption() {
        let dir = tmpdir("genman-bad");
        let name = gen_manifest_file_name(2);
        // Bad magic.
        std::fs::write(dir.join(&name), b"NOTMAGIC").unwrap();
        assert!(matches!(GenManifest::read_from_dir(&dir, 2).unwrap_err(), GraphError::Format(_)));
        // Truncated mid-header.
        std::fs::write(dir.join(&name), &GEN_MAGIC[..4]).unwrap();
        assert!(matches!(
            GenManifest::read_from_dir(&dir, 2).unwrap_err(),
            GraphError::Truncated { .. }
        ));
        // Header generation must match the file name's.
        let m = GenManifest {
            generation: 2,
            compactions: 0,
            p: 1,
            num_vertices: 4,
            partitions: vec![GenPartition {
                base_file: "part-00000.seg".to_string(),
                base_num_edges: 0,
                deltas: vec![],
            }],
        };
        let written = m.write_to_dir(&dir).unwrap();
        std::fs::rename(written, dir.join(gen_manifest_file_name(5))).unwrap();
        assert!(matches!(GenManifest::read_from_dir(&dir, 5).unwrap_err(), GraphError::Format(_)));
        // Partition count the file cannot hold.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(GEN_MAGIC);
        bytes.extend_from_slice(&2u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // grid
        bytes.extend_from_slice(&1u32.to_le_bytes()); // p
        bytes.extend_from_slice(&4u32.to_le_bytes()); // vertices
        bytes.extend_from_slice(&1_000_000u32.to_le_bytes()); // partitions
        std::fs::write(dir.join(&name), &bytes).unwrap();
        assert!(matches!(
            GenManifest::read_from_dir(&dir, 2).unwrap_err(),
            GraphError::Truncated { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn current_pointer_round_trip() {
        let dir = tmpdir("current");
        assert_eq!(read_current_generation(&dir).unwrap(), 0, "missing CURRENT means gen 0");
        write_current_generation(&dir, 7).unwrap();
        assert_eq!(read_current_generation(&dir).unwrap(), 7);
        write_current_generation(&dir, 8).unwrap();
        assert_eq!(read_current_generation(&dir).unwrap(), 8);
        assert!(!dir.join(format!("{CURRENT_FILE}.tmp")).exists(), "temp file renamed away");
        // Corruption is a typed error, not a silent 0.
        std::fs::write(dir.join(CURRENT_FILE), b"bogus").unwrap();
        assert!(matches!(read_current_generation(&dir).unwrap_err(), GraphError::Truncated { .. }));
        std::fs::write(dir.join(CURRENT_FILE), b"NOTMAGIC00000000").unwrap();
        assert!(matches!(read_current_generation(&dir).unwrap_err(), GraphError::Format(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_delta_semantics() {
        let base =
            vec![Edge::weighted(0, 1, 1.0), Edge::weighted(1, 2, 2.0), Edge::weighted(0, 1, 3.0)];
        // Delete removes *every* (src, dst) match accumulated so far.
        let mut edges = base.clone();
        apply_delta(&mut edges, &[DeltaRecord::delete(0, 1)]);
        assert_eq!(edges, vec![Edge::weighted(1, 2, 2.0)]);
        // Insert after delete re-adds; a later delete removes that too.
        let mut edges = base.clone();
        apply_delta(
            &mut edges,
            &[
                DeltaRecord::delete(0, 1),
                DeltaRecord::insert(0, 1, 9.0),
                DeltaRecord::insert(3, 0, 4.0),
                DeltaRecord::delete(0, 1),
            ],
        );
        assert_eq!(edges, vec![Edge::weighted(1, 2, 2.0), Edge::weighted(3, 0, 4.0)]);
        // The edge-list form matches the per-partition form.
        let mut g = EdgeList::new(4);
        g.edges = base;
        apply_delta_to_edge_list(&mut g, &[DeltaRecord::delete(1, 2)]);
        assert_eq!(g.edges.len(), 2);
    }

    /// The merge as it was before [`Overlay`]: one `HashSet` + `retain`
    /// rescan per run of tombstones. Kept as the oracle the single-pass
    /// [`apply_delta`] and the overlay are compared against.
    pub(super) fn oracle_apply_delta(edges: &mut Vec<Edge>, records: &[DeltaRecord]) {
        let mut i = 0;
        while i < records.len() {
            let r = records[i];
            if r.is_insert() {
                edges.push(Edge { src: r.src, dst: r.dst, weight: r.weight });
                i += 1;
            } else {
                let mut dead = std::collections::HashSet::new();
                while i < records.len() && !records[i].is_insert() {
                    dead.insert((records[i].src, records[i].dst));
                    i += 1;
                }
                edges.retain(|e| !dead.contains(&(e.src, e.dst)));
            }
        }
    }

    /// What a merged read returned before [`Overlay`]: the chain applied
    /// segment by segment, then a stable sort by source.
    pub(super) fn oracle_merged(base: &[Edge], chain: &[&[DeltaRecord]]) -> Vec<Edge> {
        let mut out = base.to_vec();
        for seg in chain {
            oracle_apply_delta(&mut out, seg);
        }
        out.sort_by_key(|e| e.src);
        out
    }

    fn assert_overlay_matches_oracle(base: &[Edge], chain: &[&[DeltaRecord]]) {
        let overlay = Overlay::resolve(base, chain).unwrap();
        let expect = oracle_merged(base, chain);
        assert_eq!(overlay.merge(base), expect);
        assert_eq!(overlay.merged_len(), expect.len());
        let mut sources: Vec<VertexId> = overlay.sources(base).collect();
        sources.sort_unstable();
        assert_eq!(sources, expect.iter().map(|e| e.src).collect::<Vec<_>>());
    }

    #[test]
    fn overlay_resolves_the_named_chain_shapes() {
        // Duplicate (src, dst) edges and equal sources with different
        // weights, in source order.
        let base = vec![
            Edge::weighted(0, 1, 1.0),
            Edge::weighted(0, 1, 2.0),
            Edge::weighted(0, 2, 3.0),
            Edge::weighted(2, 0, 4.0),
            Edge::weighted(2, 3, 5.0),
            Edge::weighted(5, 5, 6.0),
        ];
        let chain: [&[DeltaRecord]; 5] = [
            // Delete of an absent key, then back-to-back deletes.
            &[DeltaRecord::delete(4, 4), DeltaRecord::delete(0, 1), DeltaRecord::delete(0, 1)],
            // Empty segment.
            &[],
            // Re-insert after delete; an insert before the first base source.
            &[DeltaRecord::insert(0, 1, 7.0), DeltaRecord::insert(0, 0, 8.0)],
            // Delete–insert–delete of one key across segments.
            &[DeltaRecord::delete(2, 3), DeltaRecord::insert(2, 3, 9.0)],
            &[
                DeltaRecord::delete(2, 3),
                // Past the last base source; between two base sources.
                DeltaRecord::insert(6, 0, 10.0),
                DeltaRecord::insert(3, 3, 11.0),
                DeltaRecord::insert(2, 9, 12.0),
            ],
        ];
        assert_overlay_matches_oracle(&base, &chain);
        assert_overlay_matches_oracle(&base, &[]);
        assert_overlay_matches_oracle(&[], &chain);
        // An unordered base takes the concatenate-and-sort fallback.
        let reversed: Vec<Edge> = base.iter().rev().copied().collect();
        assert!(!source_ordered(&reversed));
        assert_overlay_matches_oracle(&reversed, &chain);
        let merged = Overlay::resolve(&base, &chain).unwrap().merge(&base);
        assert_eq!(
            merged,
            vec![
                Edge::weighted(0, 2, 3.0),
                Edge::weighted(0, 1, 7.0),
                Edge::weighted(0, 0, 8.0),
                Edge::weighted(2, 0, 4.0),
                Edge::weighted(2, 9, 12.0),
                Edge::weighted(3, 3, 11.0),
                Edge::weighted(5, 5, 6.0),
                Edge::weighted(6, 0, 10.0),
            ]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{oracle_apply_delta, oracle_merged};
    use super::*;
    use proptest::prelude::*;

    /// A 5×5 key universe: bases repeat `(src, dst)` keys and sources,
    /// chains hit absent keys, re-insert after deletes, and delete one key
    /// repeatedly, all by collision.
    fn edges(raw: &[(u32, u32, u32)]) -> Vec<Edge> {
        raw.iter().map(|&(src, dst, w)| Edge::weighted(src, dst, w as f32)).collect()
    }

    fn segments(raw: &[Vec<(u32, u32, u32, bool)>]) -> Vec<Vec<DeltaRecord>> {
        raw.iter()
            .map(|seg| {
                seg.iter()
                    .map(|&(src, dst, w, insert)| {
                        if insert {
                            DeltaRecord::insert(src, dst, w as f32)
                        } else {
                            DeltaRecord::delete(src, dst)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        /// Overlay merge == the old per-load algorithm, on a source-ordered
        /// base (linear merge) and on the same records unordered (fallback).
        #[test]
        fn overlay_merge_equals_replay_and_sort(
            raw_base in proptest::collection::vec((0u32..5, 0u32..5, 0u32..100), 0..40),
            raw_chain in proptest::collection::vec(
                proptest::collection::vec((0u32..5, 0u32..5, 100u32..200, any::<bool>()), 0..12),
                0..6,
            ),
        ) {
            let unordered = edges(&raw_base);
            let mut ordered = unordered.clone();
            ordered.sort_by_key(|e| e.src);
            let chain = segments(&raw_chain);
            let chain: Vec<&[DeltaRecord]> = chain.iter().map(Vec::as_slice).collect();
            for base in [&ordered, &unordered] {
                let overlay = Overlay::resolve(base, &chain).unwrap();
                let expect = oracle_merged(base, &chain);
                prop_assert_eq!(overlay.merged_len(), expect.len());
                prop_assert_eq!(overlay.merge(base), expect);
            }
        }

        /// Single-pass `apply_delta` == the per-run `retain` loop, order
        /// included (no sort on either side).
        #[test]
        fn apply_delta_equals_per_run_retain(
            raw_base in proptest::collection::vec((0u32..5, 0u32..5, 0u32..100), 0..40),
            raw_chain in proptest::collection::vec(
                proptest::collection::vec((0u32..5, 0u32..5, 100u32..200, any::<bool>()), 0..12),
                0..6,
            ),
        ) {
            let mut got = edges(&raw_base);
            let mut expect = got.clone();
            for seg in segments(&raw_chain) {
                apply_delta(&mut got, &seg);
                oracle_apply_delta(&mut expect, &seg);
                prop_assert_eq!(&got, &expect);
            }
        }
    }
}
