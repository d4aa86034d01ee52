//! The delta store's **single writer**: batching mutations, publishing
//! generations, compacting, and retiring old files.
//!
//! A [`DeltaWriter`] owns the mutation side of the
//! single-writer/multi-reader contract (`docs/ARCHITECTURE.md`): it
//! routes edge insertions/deletions to their partitions with the exact
//! arithmetic `Convert()` used (grid block by `(row(src), col(dst))`),
//! batches them in memory, and [`publish`](DeltaWriter::publish)es the
//! batch as one new generation —
//! per-partition append-only delta segments, a cumulative generation
//! manifest, then an atomic `CURRENT` flip. Readers
//! (`DiskGridSource::refresh_generation`) pick the new generation up
//! between sweeps; nothing a writer does ever modifies a file a reader
//! may hold mapped.
//!
//! When the accumulated delta payload trips the [`CompactionPolicy`], the
//! writer [`compact`](DeltaWriter::compact)s: folds base + chain into
//! fresh base segments (restoring `Convert()`'s source order, so the
//! folded base is bit-identical to a from-scratch conversion of the
//! mutated graph) and publishes a generation with empty chains.
//! [`retire_older_generations`](DeltaWriter::retire_older_generations)
//! then deletes files no longer referenced by the current generation —
//! safe on Unix even while readers hold them, because an open mapping
//! survives the unlink.
//!
//! ## Durability and exclusion
//!
//! Two mechanisms harden the writer beyond the happy path:
//!
//! * A **group-commit write-ahead log** ([`crate::wal`]). `publish` first
//!   appends the whole pending batch to `wal.log` with one fsync — the
//!   batch's durability point — then writes segments, the generation
//!   manifest, and the `CURRENT` flip, then checkpoints the log. A
//!   writer that crashes anywhere after the WAL sync recovers at the
//!   next [`DeltaWriter::open`]: committed-but-unpublished entries are
//!   replayed into a fresh publish of the same generation, byte-for-byte
//!   identical to the one the crash interrupted (routing is
//!   deterministic and the log preserves order).
//! * A **writer lease** ([`crate::lease`]). `open` acquires the store's
//!   `EPOCH` file; a second live writer fails with
//!   `GraphError::LeaseHeld`, and every flip validates the lease
//!   first, so a fenced writer gets `GraphError::EpochFenced` /
//!   `GraphError::LeaseLost` instead of racing the `CURRENT` pointer.

use crate::lease::{LeaseConfig, WriterLease};
use crate::wal::{Wal, WalStats};
use graphm_graph::delta::{
    compacted_segment_file_name, delta_file_name, parse_compacted_segment_name, parse_delta_name,
    parse_gen_manifest_name, read_current_generation, read_delta_segment, write_current_generation,
    write_delta_segment, DeltaFileRef, DeltaRecord, GenManifest, GenPartition, Overlay,
};
use graphm_graph::records;
use graphm_graph::segment::{read_segment, write_segment, Manifest};
use graphm_graph::{Result, VertexId, VertexRanges, EDGE_BYTES};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// When the writer folds its delta chains back into base segments.
/// Either trigger fires a compaction at the end of a publish; zero
/// disables that trigger. [`DeltaWriter::compact`] can always be called
/// explicitly.
#[derive(Clone, Copy, Debug)]
pub struct CompactionPolicy {
    /// Compact once total delta payload across the store exceeds this
    /// many bytes (0 = no byte trigger).
    pub max_delta_bytes: u64,
    /// Compact once total delta payload exceeds this fraction of the
    /// base payload (0.0 = no ratio trigger).
    pub max_delta_ratio: f64,
}

impl Default for CompactionPolicy {
    /// 64 MiB of deltas or half the base size, whichever trips first.
    fn default() -> CompactionPolicy {
        CompactionPolicy { max_delta_bytes: 64 << 20, max_delta_ratio: 0.5 }
    }
}

impl CompactionPolicy {
    /// A policy that never auto-compacts.
    pub fn never() -> CompactionPolicy {
        CompactionPolicy { max_delta_bytes: 0, max_delta_ratio: 0.0 }
    }
}

/// The mutation side of a disk store. See the module docs.
///
/// ```no_run
/// use graphm_store::DeltaWriter;
/// let mut writer = DeltaWriter::open(std::path::Path::new("/data/twitter.gm")).unwrap();
/// writer.insert(7, 9, 1.0).unwrap();
/// writer.delete(3, 4).unwrap();
/// let generation = writer.publish().unwrap();
/// assert!(generation >= 1);
/// ```
pub struct DeltaWriter {
    dir: PathBuf,
    manifest: Manifest,
    gen: GenManifest,
    ranges: VertexRanges,
    pending: Vec<Vec<DeltaRecord>>,
    pending_records: usize,
    policy: CompactionPolicy,
    lease: WriterLease,
    wal: Wal,
}

impl DeltaWriter {
    /// Opens the writer over a store directory with the default lease
    /// config, resuming from whatever generation `CURRENT` names. One
    /// writer per store at a time — enforced by the writer lease: a
    /// second open while a live writer's heartbeat is fresh fails with
    /// `GraphError::LeaseHeld`.
    pub fn open(dir: &Path) -> Result<DeltaWriter> {
        DeltaWriter::open_with(dir, LeaseConfig::default())
    }

    /// [`open`](DeltaWriter::open) with an explicit [`LeaseConfig`] —
    /// recovery tooling passes [`LeaseConfig::force_takeover`] to fence a
    /// writer known to be dead without waiting out the TTL.
    ///
    /// After acquiring the lease this replays the write-ahead log:
    /// batches the crashed previous writer committed (WAL-synced) but
    /// never published are re-published here, so the open writer always
    /// starts from a store that honors every durable commit.
    pub fn open_with(dir: &Path, lease_config: LeaseConfig) -> Result<DeltaWriter> {
        let lease = WriterLease::acquire(dir, lease_config)?;
        let manifest = Manifest::read_from_dir(dir)?;
        let generation = read_current_generation(dir)?;
        let gen = if generation == 0 {
            synthesize_gen0(&manifest)
        } else {
            let gm = GenManifest::read_from_dir(dir, generation)?;
            gm.check_base(&manifest)?;
            gm
        };
        let (wal, replayed) = Wal::open(dir)?;
        let ranges = VertexRanges::new(manifest.num_vertices.max(1), manifest.p as usize);
        let pending = vec![Vec::new(); manifest.partitions.len()];
        let mut writer = DeltaWriter {
            dir: dir.to_path_buf(),
            manifest,
            gen,
            ranges,
            pending,
            pending_records: 0,
            policy: CompactionPolicy::default(),
            lease,
            wal,
        };
        // Entries targeting a generation at or below CURRENT were already
        // published (crash landed between the flip and the WAL reset);
        // anything above is a durable commit the crash interrupted.
        let unpublished: Vec<_> =
            replayed.into_iter().filter(|b| b.target_gen > writer.gen.generation).collect();
        if !unpublished.is_empty() {
            writer.wal.note_replayed(unpublished.len() as u64);
            // Deterministic routing + preserved order reconstruct the
            // exact per-partition batches of the interrupted publish, so
            // the recovered generation is bit-identical.
            for r in unpublished.iter().flat_map(|batch| &batch.records) {
                writer.stage(*r)?;
            }
            writer.publish_internal(false)?;
        } else {
            // Nothing to replay: checkpoint so a stale committed-and-
            // published tail does not linger in the log.
            writer.wal.reset()?;
        }
        Ok(writer)
    }

    /// Replaces the auto-compaction policy (default: 64 MiB or 50% of the
    /// base, see [`CompactionPolicy`]).
    pub fn with_policy(mut self, policy: CompactionPolicy) -> DeltaWriter {
        self.policy = policy;
        self
    }

    /// The generation the store currently points at.
    pub fn generation(&self) -> u64 {
        self.gen.generation
    }

    /// The store directory this writer owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Vertex count of the store (fixed for its lifetime; mutations must
    /// stay within it).
    pub fn num_vertices(&self) -> VertexId {
        self.manifest.num_vertices
    }

    /// Mutations batched but not yet published.
    pub fn pending_mutations(&self) -> usize {
        self.pending_records
    }

    /// Published (on-disk) delta payload bytes of the current generation.
    pub fn delta_bytes(&self) -> u64 {
        self.gen.delta_bytes()
    }

    /// Base payload bytes of the current generation.
    pub fn base_bytes(&self) -> u64 {
        self.gen.partitions.iter().map(|p| p.base_num_edges * EDGE_BYTES as u64).sum()
    }

    /// Cumulative compactions folded into the base.
    pub fn compactions(&self) -> u64 {
        self.gen.compactions
    }

    /// The partition `Convert()` placed (and a delta must place) an edge
    /// in: grid block `(row(src), col(dst))`.
    pub fn partition_of(&self, src: VertexId, dst: VertexId) -> usize {
        self.ranges.range_of(src) * self.manifest.p as usize + self.ranges.range_of(dst)
    }

    /// Batches one mutation: checked like any record read back from disk
    /// (known op, endpoints inside the vertex set), then routed.
    pub(crate) fn stage(&mut self, record: DeltaRecord) -> Result<()> {
        records::check_all(&[record], self.manifest.num_vertices, "mutation")?;
        let pid = self.partition_of(record.src, record.dst);
        self.pending[pid].push(record);
        self.pending_records += 1;
        Ok(())
    }

    /// Batches an edge insertion.
    pub fn insert(&mut self, src: VertexId, dst: VertexId, weight: f32) -> Result<()> {
        self.stage(DeltaRecord::insert(src, dst, weight))
    }

    /// Batches a deletion tombstone: every `(src, dst)` edge — in the
    /// base or inserted by an earlier delta — leaves the merged view.
    pub fn delete(&mut self, src: VertexId, dst: VertexId) -> Result<()> {
        self.stage(DeltaRecord::delete(src, dst))
    }

    /// Publishes the pending batch as a new generation. The sequence is
    /// WAL-first: heartbeat the lease, append the whole batch to the
    /// write-ahead log (one fsync — the durability point), write one
    /// delta segment per touched partition, the cumulative generation
    /// manifest, validate the lease, atomically flip `CURRENT`, then
    /// checkpoint the WAL. Returns the generation readers will rotate to
    /// (unchanged when nothing was pending). Runs a compaction afterwards
    /// if the [`CompactionPolicy`] trips.
    ///
    /// A crash after the WAL sync loses nothing: the next
    /// [`DeltaWriter::open`] replays the committed batch into the
    /// identical generation. A crash before it rolls the batch back
    /// entirely — the store still reads as the previous generation.
    pub fn publish(&mut self) -> Result<u64> {
        self.publish_internal(true)
    }

    /// The publish body. `wal_append == false` is the WAL-recovery path:
    /// the pending records came *out of* the log, so re-appending them
    /// would double them on a second crash.
    fn publish_internal(&mut self, wal_append: bool) -> Result<u64> {
        if self.pending_records == 0 {
            return Ok(self.gen.generation);
        }
        self.lease.heartbeat()?;
        let next = self.gen.generation + 1;
        if wal_append {
            // Partition-major flatten: replay re-routes records through
            // the same deterministic partition_of, so this order rebuilds
            // identical per-partition batches.
            let flat: Vec<DeltaRecord> =
                self.pending.iter().flat_map(|p| p.iter().copied()).collect();
            self.wal.append(next, &flat)?;
        }
        let mut partitions = self.gen.partitions.clone();
        for (pid, records) in self.pending.iter().enumerate() {
            if records.is_empty() {
                continue;
            }
            let file = delta_file_name(next, pid);
            write_delta_segment(records, &self.dir.join(&file))?;
            partitions[pid].deltas.push(DeltaFileRef { file, num_records: records.len() as u64 });
        }
        let gm = GenManifest {
            generation: next,
            compactions: self.gen.compactions,
            p: self.manifest.p,
            num_vertices: self.manifest.num_vertices,
            partitions,
        };
        gm.write_to_dir(&self.dir)?;
        // The fence: never flip CURRENT on a lease another writer took.
        self.lease.validate()?;
        write_current_generation(&self.dir, next)?;
        self.gen = gm;
        self.discard_pending();
        // The flip is durable; the logged batch is superseded.
        self.wal.reset()?;
        if self.should_compact() {
            return self.compact();
        }
        Ok(next)
    }

    fn should_compact(&self) -> bool {
        let delta = self.gen.delta_bytes();
        if delta == 0 {
            return false;
        }
        if self.policy.max_delta_bytes > 0 && delta > self.policy.max_delta_bytes {
            return true;
        }
        let base = self.base_bytes();
        self.policy.max_delta_ratio > 0.0
            && base > 0
            && delta as f64 > self.policy.max_delta_ratio * base as f64
    }

    /// Folds every partition's delta chain into a fresh base segment
    /// (skipping partitions with empty chains, whose base files carry
    /// over) and publishes the result as a new generation with zero delta
    /// bytes. Merged content is unchanged — the fold is the same
    /// [`Overlay`] merge the readers' merged view is. No-op (returns the
    /// current generation) when there is nothing to fold.
    pub fn compact(&mut self) -> Result<u64> {
        if self.pending_records > 0 {
            // Fold everything the caller has asked for so far, not a
            // surprising subset.
            self.publish_pending_only()?;
        }
        if self.gen.delta_bytes() == 0 {
            return Ok(self.gen.generation);
        }
        let next = self.gen.generation + 1;
        let mut partitions = Vec::with_capacity(self.gen.partitions.len());
        for (pid, part) in self.gen.partitions.iter().enumerate() {
            if part.deltas.is_empty() {
                partitions.push(part.clone());
                continue;
            }
            let base = read_segment(&self.dir.join(&part.base_file))?;
            let chain = part
                .deltas
                .iter()
                .map(|dref| read_delta_segment(&self.dir.join(&dref.file)))
                .collect::<Result<Vec<Vec<DeltaRecord>>>>()?;
            let chain: Vec<&[DeltaRecord]> = chain.iter().map(Vec::as_slice).collect();
            let edges = Overlay::resolve(&base, &chain)?.merge(&base);
            let file = compacted_segment_file_name(next, pid);
            let path = self.dir.join(&file);
            write_segment(&edges, &path)?;
            // Same durability rule as publish(): the folded base must be
            // on disk before CURRENT durably references it.
            std::fs::File::open(&path)?.sync_all()?;
            partitions.push(GenPartition {
                base_file: file,
                base_num_edges: edges.len() as u64,
                deltas: Vec::new(),
            });
        }
        let gm = GenManifest {
            generation: next,
            compactions: self.gen.compactions + 1,
            p: self.manifest.p,
            num_vertices: self.manifest.num_vertices,
            partitions,
        };
        gm.write_to_dir(&self.dir)?;
        // Same fence as publish: a compaction flip must also lose to a
        // newer epoch rather than race it. (No WAL involvement — the fold
        // re-encodes already-durable data; a crashed compaction is simply
        // re-runnable.)
        self.lease.validate()?;
        write_current_generation(&self.dir, next)?;
        self.gen = gm;
        Ok(next)
    }

    /// Drops every batched-but-unpublished mutation (e.g. after one batch
    /// in a group failed to apply, so the group must not publish).
    pub fn discard_pending(&mut self) {
        for p in &mut self.pending {
            p.clear();
        }
        self.pending_records = 0;
    }

    /// Write-ahead log counters since open.
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// The epoch this writer's lease holds.
    pub fn lease_epoch(&self) -> u64 {
        self.lease.epoch()
    }

    /// Simulates this writer crashing: consumes it *without* releasing
    /// the lease or checkpointing the WAL, exactly the on-disk state a
    /// killed process leaves behind. Crash/recovery tests pair this with
    /// [`DeltaWriter::open_with`] + [`LeaseConfig::force_takeover`].
    pub fn crash(self) {
        let DeltaWriter { lease, .. } = self;
        lease.abandon();
    }

    /// `publish` without the policy check (used by `compact` to flush
    /// pending mutations before folding, avoiding mutual recursion).
    fn publish_pending_only(&mut self) -> Result<u64> {
        let policy = std::mem::replace(&mut self.policy, CompactionPolicy::never());
        let result = self.publish();
        self.policy = policy;
        result
    }

    /// Deletes files no longer referenced by the current generation:
    /// older generation manifests, delta segments off the current chains,
    /// and compacted base segments superseded since. The original
    /// `Convert()` output (`manifest.bin` + `part-NNNNN.seg`) is always
    /// kept — it is the generation-0 base other tooling may expect.
    /// Returns the number of files removed.
    ///
    /// Safe while readers are live on Unix: a reader's `mmap` keeps the
    /// unlinked file's data reachable until the mapping drops. Readers
    /// *opening* mid-retire re-resolve `CURRENT`, which only references
    /// surviving files.
    pub fn retire_older_generations(&self) -> Result<usize> {
        let stale = unreferenced_files(&self.dir, &self.gen)?;
        for name in &stale {
            std::fs::remove_file(self.dir.join(name))?;
        }
        Ok(stale.len())
    }
}

/// The one rule for which files of `dir` generation `gen` leaves behind,
/// sorted by name: older generation manifests, orphans of a crash
/// between temp-write and rename, and delta or compacted segments off
/// `gen`'s chains. Never `wal.log`, `EPOCH` or the original `Convert()`
/// output: those are live infrastructure, not generation data.
pub(crate) fn unreferenced_files(dir: &Path, gen: &GenManifest) -> Result<Vec<String>> {
    let referenced: HashSet<&str> = gen
        .partitions
        .iter()
        .flat_map(|part| {
            std::iter::once(part.base_file.as_str())
                .chain(part.deltas.iter().map(|d| d.file.as_str()))
        })
        .collect();
    let mut stale = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_stale = if let Some(generation) = parse_gen_manifest_name(name) {
            generation < gen.generation
        } else if name == "CURRENT.tmp" || name == "EPOCH.tmp" {
            true
        } else {
            let generation_data =
                parse_delta_name(name).is_some() || parse_compacted_segment_name(name).is_some();
            generation_data && !referenced.contains(name)
        };
        if is_stale {
            stale.push(name.to_string());
        }
    }
    stale.sort();
    Ok(stale)
}

/// What generation 0 — the bare base store — looks like as a generation
/// manifest: the original segment files, empty chains.
pub(crate) fn synthesize_gen0(manifest: &Manifest) -> GenManifest {
    GenManifest {
        generation: 0,
        compactions: 0,
        p: manifest.p,
        num_vertices: manifest.num_vertices,
        partitions: manifest
            .partitions
            .iter()
            .map(|e| GenPartition {
                base_file: e.file.clone(),
                base_num_edges: e.num_edges,
                deltas: Vec::new(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_graph::delta::gen_manifest_file_name;

    #[test]
    fn gen_manifest_names_parse_back() {
        assert_eq!(parse_gen_manifest_name(&gen_manifest_file_name(3)), Some(3));
        assert_eq!(parse_gen_manifest_name(&gen_manifest_file_name(1_234_567)), Some(1_234_567));
        assert_eq!(parse_gen_manifest_name("gen-x.mf"), None);
        assert_eq!(parse_gen_manifest_name("manifest.bin"), None);
    }
}
