//! # graphm-store — disk-resident, mmap-backed partition store
//!
//! GraphM is a *storage system*: the original graph lives in secondary
//! storage, `Convert()` preprocesses it once into the host engine's
//! partition format, and concurrent jobs stream those partitions through
//! one shared in-memory copy. This crate is the secondary-storage half of
//! that story, which the in-memory sources only simulated:
//!
//! * [`Convert`] — grid-partitions an `EdgeList` and writes it as
//!   per-block segment files plus a manifest (offsets, source-vertex
//!   bounds, byte counts) under one directory;
//! * [`DiskGridSource`] — the `mmap`-backed reader implementing
//!   `graphm_core::PartitionSource`, so `run_scheme`, the wall-clock sweep
//!   driver, and the scheduler run unchanged on disk-resident graphs with
//!   *real* per-partition byte counts;
//! * [`mmap::FileView`] — the no-dependency mapping primitive underneath.
//!
//! The crate owns no record layout: what it writes, maps, logs ([`wal`])
//! or ships ([`replica`]) is encoded, decoded and validated by
//! `graphm_graph::records`. The modules here keep their own headers (WAL
//! and replication payloads, the lease's `EPOCH`) and the one place mapped
//! bytes are viewed as records ([`source`]).
//!
//! ## From edge list to disk-backed run
//!
//! ```
//! use graphm_store::{Convert, DiskGridSource};
//!
//! let graph = graphm_graph::generators::rmat(
//!     500, 4000, graphm_graph::generators::RmatParams::GRAPH500, 7);
//! let dir = std::env::temp_dir().join(format!("graphm-store-doc-{}", std::process::id()));
//!
//! // Convert(): one segment file per grid block + manifest.bin.
//! let manifest = Convert::grid(4).write(&graph, &dir).unwrap();
//! assert_eq!(manifest.num_edges(), 4000);
//!
//! // Zero-copy reader; a drop-in PartitionSource for the runtime.
//! let source = DiskGridSource::open(&dir).unwrap();
//! use graphm_core::PartitionSource;
//! assert_eq!(source.num_partitions(), 16);
//! assert_eq!(source.graph_bytes(), 4000 * 12);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod convert;
pub mod delta;
pub mod lease;
pub mod mmap;
pub mod prefetch;
pub mod replica;
pub mod source;
pub mod wal;

pub use convert::{segment_file_name, Convert};
pub use delta::{CompactionPolicy, DeltaWriter};
pub use lease::{LeaseConfig, WriterLease};
pub use prefetch::{
    AdaptiveWindow, Prefetcher, DEFAULT_MAX_PREFETCH_LOOKAHEAD, MIN_PREFETCH_WINDOW,
};
pub use replica::{
    decode_frame, encode_frame, read_generation_frame, ApplyOutcome, FrameKind, ReplFrame,
    ReplicaApplier,
};
pub use source::{DeltaStats, DiskGridSource, PrefetchStats, PrefetchTarget, ResidencyStats};
pub use wal::{replay_wal_bytes, Wal, WalBatch, WalStats};

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_core::PartitionSource;
    use graphm_graph::segment::Manifest;
    use graphm_graph::{generators, AtomicBitmap, GraphError, Grid, EDGE_BYTES};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphm-store-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn grid_store_round_trips_against_in_memory_grid() {
        let g = generators::rmat(300, 2500, generators::RmatParams::GRAPH500, 21);
        let dir = tmpdir("grid-roundtrip");
        let manifest = Convert::grid(4).write(&g, &dir).unwrap();
        assert_eq!(manifest.p, 4);
        assert_eq!(manifest.num_edges(), 2500);

        let grid = Grid::convert(&g, 4);
        let src = DiskGridSource::open(&dir).unwrap();
        assert_eq!(src.num_partitions(), 16);
        assert_eq!(src.num_vertices(), 300);
        assert_eq!(src.p(), 4);
        assert_eq!(src.order(), grid.streaming_order());
        assert_eq!(src.graph_bytes(), 2500 * EDGE_BYTES);
        for pid in 0..16 {
            let disk = src.edges(pid);
            let mem = grid.block_by_index(pid);
            assert_eq!(disk.len(), mem.len(), "block {pid}");
            for (a, b) in disk.iter().zip(mem) {
                assert_eq!((a.src, a.dst), (b.src, b.dst));
                assert_eq!(a.weight, b.weight);
            }
            assert_eq!(src.partition_bytes(pid), mem.len() * EDGE_BYTES);
            // load() agrees with the zero-copy view.
            assert_eq!(src.load(pid).as_slice(), disk);
        }
        assert_eq!(src.out_degrees(), g.out_degrees());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_budget_evicts_behind_frontier_without_changing_data() {
        let g = generators::rmat(400, 6000, generators::RmatParams::GRAPH500, 11);
        let dir = tmpdir("eviction");
        let manifest = Convert::grid(4).write(&g, &dir).unwrap();
        let src = DiskGridSource::open(&dir).unwrap();
        let store_bytes: u64 = manifest.partitions.iter().map(|p| p.byte_len).sum();

        // Unbudgeted pass: residency grows monotonically, nothing evicts.
        let baseline: Vec<Vec<graphm_graph::Edge>> =
            (0..src.num_partitions()).map(|pid| src.load(pid).as_ref().clone()).collect();
        let rs = src.residency_stats();
        assert_eq!(rs.evictions, 0);
        assert_eq!(rs.evicted_bytes, 0);
        assert_eq!(rs.resident_bytes, store_bytes, "every segment touched once");

        // Out-of-core regime: a budget of half the store forces releases
        // behind the frontier while sweeping.
        src.set_memory_budget(store_bytes / 2);
        for _sweep in 0..3 {
            for (pid, expect) in baseline.iter().enumerate() {
                assert_eq!(src.load(pid).as_slice(), &expect[..], "data survives eviction");
            }
        }
        let rs = src.residency_stats();
        assert!(rs.evictions > 0, "budget pressure must evict");
        assert!(rs.evicted_bytes > 0);
        assert!(
            rs.resident_bytes <= store_bytes / 2,
            "residency {} must fit the budget {}",
            rs.resident_bytes,
            store_bytes / 2
        );
        assert_eq!(rs.budget_bytes, store_bytes / 2);

        // An in-memory-sized budget stops evicting once enforced.
        src.set_memory_budget(store_bytes * 2);
        let before = src.residency_stats().evictions;
        for pid in 0..src.num_partitions() {
            let _ = src.load(pid);
        }
        assert_eq!(src.residency_stats().evictions, before, "roomy budget never evicts");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_load_is_shared_while_live() {
        let g = generators::rmat(100, 900, generators::RmatParams::GRAPH500, 5);
        let dir = tmpdir("grid-share");
        Convert::grid(2).write(&g, &dir).unwrap();
        let src = DiskGridSource::open(&dir).unwrap();
        let a = src.load(1);
        let b = src.load(1);
        assert!(std::sync::Arc::ptr_eq(&a, &b), "concurrent loads share one copy");
        drop((a, b));
        let c = src.load(1);
        assert_eq!(c.len(), src.edges(1).len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_activity_matches_in_memory_semantics() {
        let g = generators::ring(9);
        let dir = tmpdir("grid-activity");
        Convert::grid(3).write(&g, &dir).unwrap();
        let src = DiskGridSource::open(&dir).unwrap();
        let grid = Grid::convert(&g, 3);
        let active = AtomicBitmap::new(9);
        active.set(4); // row 1
        for pid in 0..9 {
            let (row, _) = grid.block_coords(pid);
            let expect = row == 1 && !grid.block_by_index(pid).is_empty();
            assert_eq!(src.partition_active(pid, &active), expect, "block {pid}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_graph_store() {
        let g = graphm_graph::EdgeList::new(5);
        let dir = tmpdir("empty");
        Convert::grid(2).write(&g, &dir).unwrap();
        let src = DiskGridSource::open(&dir).unwrap();
        assert_eq!(src.num_partitions(), 4);
        assert_eq!(src.graph_bytes(), 0);
        let active = AtomicBitmap::new(5);
        active.set_all();
        for pid in 0..4 {
            assert!(src.edges(pid).is_empty());
            assert!(!src.partition_active(pid, &active));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A store written in the removed on-disk shard layout is refused,
    /// and so is a grid store with a segment truncated behind the
    /// manifest's back.
    #[test]
    fn open_rejects_layout_mismatch_and_corruption() {
        let dir = tmpdir("mismatch");
        Convert::grid(2)
            .write(&generators::rmat(100, 700, generators::RmatParams::GRAPH500, 2), &dir)
            .unwrap();
        assert!(DiskGridSource::open(&dir).is_ok());
        let mut manifest = std::fs::read(dir.join("manifest.bin")).unwrap();
        manifest[8..12].copy_from_slice(&1u32.to_le_bytes()); // the shard tag
        std::fs::write(dir.join("manifest.bin"), &manifest).unwrap();
        let err = DiskGridSource::open(&dir).unwrap_err();
        assert!(matches!(&err, GraphError::Format(m) if m.contains("shard layout")), "{err}");
        manifest[8..12].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(dir.join("manifest.bin"), &manifest).unwrap();

        let seg = (0..4)
            .map(|i| dir.join(segment_file_name(i)))
            .find(|p| std::fs::metadata(p).unwrap().len() > 16)
            .unwrap();
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            DiskGridSource::open(&dir).unwrap_err(),
            GraphError::Truncated { .. } | GraphError::Format(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The writer indexes blocks by `row * p + col` before any reader
    /// opens the store: a manifest whose `p` disagrees with its partition
    /// count, or is 0, is a typed error at open, not a panic at the first
    /// mutation.
    #[test]
    fn writer_and_reader_refuse_a_manifest_whose_p_is_not_its_grid() {
        let dir = tmpdir("bad-p");
        Convert::grid(2)
            .write(&generators::rmat(40, 300, generators::RmatParams::GRAPH500, 5), &dir)
            .unwrap();
        let good = std::fs::read(dir.join("manifest.bin")).unwrap();
        for p in [0u32, 4] {
            let mut bytes = good.clone();
            bytes[12..16].copy_from_slice(&p.to_le_bytes());
            std::fs::write(dir.join("manifest.bin"), &bytes).unwrap();
            match DeltaWriter::open(&dir) {
                Err(GraphError::Format(_)) => {}
                Err(other) => panic!("p = {p}: expected Format, got {other}"),
                Ok(mut writer) => {
                    writer.insert(39, 39, 1.0).unwrap();
                    panic!("p = {p}: the writer opened a {p} x {p} grid over 4 blocks");
                }
            }
            assert!(matches!(DiskGridSource::open(&dir).unwrap_err(), GraphError::Format(_)));
        }
        std::fs::write(dir.join("manifest.bin"), &good).unwrap();
        assert!(DeltaWriter::open(&dir).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_out_of_range_vertex_records() {
        let g = generators::rmat(50, 300, generators::RmatParams::GRAPH500, 8);
        let dir = tmpdir("badvertex");
        Convert::grid(2).write(&g, &dir).unwrap();
        // Corrupt one record's src in a non-empty segment (after the
        // 16-byte header) to a vertex far out of range.
        let seg = (0..4)
            .map(|i| dir.join(segment_file_name(i)))
            .find(|p| std::fs::metadata(p).unwrap().len() > 16)
            .unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            DiskGridSource::open(&dir).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: u32::MAX, num_vertices: 50 }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Manifests are untrusted and their file names are joined onto the
    /// store directory: a name that could leave it is a format error at
    /// every reader, before anything is opened.
    #[test]
    fn open_rejects_manifest_names_outside_the_store() {
        /// Overwrites the first `from` in `file` with the equally long `to`.
        fn flip(file: &std::path::Path, from: &str, to: &str) {
            assert_eq!(from.len(), to.len());
            let mut bytes = std::fs::read(file).unwrap();
            let at = bytes.windows(from.len()).position(|w| w == from.as_bytes()).unwrap();
            bytes[at..at + to.len()].copy_from_slice(to.as_bytes());
            std::fs::write(file, bytes).unwrap();
        }
        use graphm_graph::delta::{gen_manifest_file_name, GenManifest};
        let g = generators::rmat(40, 200, generators::RmatParams::GRAPH500, 3);
        let dir = tmpdir("escaping-names");
        Convert::grid(1).write(&g, &dir).unwrap();
        let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
        writer.insert(1, 2, 1.0).unwrap();
        writer.publish().unwrap();
        drop(writer);
        assert!(DiskGridSource::open(&dir).is_ok());

        let gen = dir.join(gen_manifest_file_name(1));
        let good = std::fs::read(&gen).unwrap();
        for (from, to) in [("part-00000.seg", "../x/00000.seg"), ("delta-", "/tmp/\\")] {
            flip(&gen, from, to);
            let err = GenManifest::read_from_dir(&dir, 1).unwrap_err();
            assert!(matches!(err, GraphError::Format(_)), "{to}: {err}");
            let err = DiskGridSource::open(&dir).unwrap_err();
            assert!(matches!(err, GraphError::Format(_)), "{to}: {err}");
            std::fs::write(&gen, &good).unwrap();
        }
        flip(&dir.join("manifest.bin"), "part-00000.seg", "../x/00000.seg");
        assert!(matches!(Manifest::read_from_dir(&dir).unwrap_err(), GraphError::Format(_)));
        assert!(matches!(DiskGridSource::open(&dir).unwrap_err(), GraphError::Format(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_shared_returns_one_handle_per_store() {
        let g = generators::rmat(120, 800, generators::RmatParams::GRAPH500, 12);
        let dir = tmpdir("shared-handle");
        Convert::grid(2).write(&g, &dir).unwrap();

        let a = DiskGridSource::open_shared(&dir).unwrap();
        let b = DiskGridSource::open_shared(&dir).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "same store, same mapping");
        // A second *independent* opener still works and sees its own state.
        let solo = DiskGridSource::open(&dir).unwrap();
        assert_eq!(solo.num_partitions(), a.num_partitions());
        // The shared materialization cache is one per store: a partition
        // loaded through one handle is the same Arc through the other.
        let pa = a.load(0);
        let pb = b.load(0);
        assert!(std::sync::Arc::ptr_eq(&pa, &pb));
        drop((pa, pb, b));

        // Once every handle drops, the registry entry dies and a fresh
        // open maps the (possibly rewritten) store anew.
        drop(a);
        let g2 = generators::rmat(60, 300, generators::RmatParams::GRAPH500, 13);
        std::fs::remove_dir_all(&dir).ok();
        Convert::grid(2).write(&g2, &dir).unwrap();
        let c = DiskGridSource::open_shared(&dir).unwrap();
        assert_eq!(c.num_vertices(), 60, "fresh handle sees the new store");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The tentpole contract: merged (base + delta) reads are
    /// bit-identical to a from-scratch conversion of the mutated graph —
    /// edges, accounting, and out-degrees alike.
    #[test]
    fn merged_reads_match_from_scratch_conversion_of_mutated_graph() {
        let g = generators::rmat(300, 2600, generators::RmatParams::GRAPH500, 17);
        let dir = tmpdir("delta-merge");
        Convert::grid(3).write(&g, &dir).unwrap();

        // Mutate: delete a handful of real edges (all (src,dst) copies),
        // insert new ones — some into partitions the deletions touched.
        let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
        let mut records = Vec::new();
        for e in g.edges.iter().step_by(97).take(12) {
            writer.delete(e.src, e.dst).unwrap();
            records.push(graphm_graph::delta::DeltaRecord::delete(e.src, e.dst));
        }
        for i in 0..20u32 {
            let (src, dst, w) = (i * 13 % 300, i * 7 % 300, i as f32 * 0.5);
            writer.insert(src, dst, w).unwrap();
            records.push(graphm_graph::delta::DeltaRecord::insert(src, dst, w));
        }
        assert_eq!(writer.pending_mutations(), 32);
        assert_eq!(writer.publish().unwrap(), 1);
        assert_eq!(writer.pending_mutations(), 0);
        assert!(writer.delta_bytes() > 0);

        // Reference: the same mutations applied to the edge list, then a
        // fresh conversion into a second directory.
        let mut mutated = g.clone();
        graphm_graph::delta::apply_delta_to_edge_list(&mut mutated, &records);
        let dir2 = tmpdir("delta-merge-ref");
        Convert::grid(3).write(&mutated, &dir2).unwrap();

        let merged = DiskGridSource::open(&dir).unwrap();
        let reference = DiskGridSource::open(&dir2).unwrap();
        assert_eq!(merged.generation(), 1);
        assert_eq!(merged.graph_bytes(), reference.graph_bytes());
        for pid in 0..merged.num_partitions() {
            let a = merged.load(pid);
            let b = reference.load(pid);
            assert_eq!(a.len(), b.len(), "partition {pid} edge count");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!((x.src, x.dst), (y.src, y.dst), "partition {pid}");
                assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "partition {pid}");
            }
            assert_eq!(merged.partition_bytes(pid), reference.partition_bytes(pid));
        }
        assert_eq!(merged.out_degrees(), mutated.out_degrees());
        let ds = merged.delta_stats();
        assert_eq!(ds.generation, 1);
        assert_eq!(ds.delta_records, 32);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    /// A live handle rotates on refresh — but never mid-sweep: a pinned
    /// sweep keeps its generation, and the rotation lands at the unpin.
    #[test]
    fn refresh_rotates_between_sweeps_only() {
        let g = generators::rmat(120, 900, generators::RmatParams::GRAPH500, 23);
        let dir = tmpdir("delta-rotate");
        Convert::grid(2).write(&g, &dir).unwrap();
        let src = DiskGridSource::open(&dir).unwrap();
        assert_eq!(src.generation(), 0);
        assert!(!src.refresh_generation().unwrap(), "nothing published yet");

        let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
        writer.insert(5, 9, 2.0).unwrap();
        writer.publish().unwrap();
        assert_eq!(src.generation(), 0, "publishes are pull-based");

        // Mid-sweep: the new generation is picked up but not adopted.
        let before: Vec<usize> = (0..4).map(|pid| src.load(pid).len()).collect();
        src.sweep_begin();
        assert!(src.refresh_generation().unwrap());
        assert_eq!(src.generation(), 0, "pinned sweep keeps its generation");
        let during: Vec<usize> = (0..4).map(|pid| src.load(pid).len()).collect();
        assert_eq!(during, before, "loads under the pin see the old generation");
        src.sweep_end();
        assert_eq!(src.generation(), 1, "rotation adopted at the last unpin");
        let after: usize = (0..4).map(|pid| src.load(pid).len()).sum();
        assert_eq!(after, 901, "the merged view carries the insert");
        assert_eq!(src.delta_stats().rotations, 1);
        assert!(!src.refresh_generation().unwrap(), "already current");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Compaction folds the chain into fresh base segments: delta bytes
    /// drop to zero, results do not change, and retirement removes the
    /// superseded files while the store stays openable.
    #[test]
    fn compaction_preserves_results_and_retires_old_generations() {
        let g = generators::rmat(200, 1600, generators::RmatParams::GRAPH500, 29);
        let dir = tmpdir("delta-compact");
        Convert::grid(2).write(&g, &dir).unwrap();
        let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
        for e in g.edges.iter().step_by(131).take(6) {
            writer.delete(e.src, e.dst).unwrap();
        }
        for i in 0..9u32 {
            writer.insert(i * 11 % 200, i * 17 % 200, 1.0).unwrap();
        }
        writer.publish().unwrap();
        let merged: Vec<Vec<graphm_graph::Edge>> = {
            let src = DiskGridSource::open(&dir).unwrap();
            (0..4).map(|pid| src.load(pid).as_ref().clone()).collect()
        };

        let gen = writer.compact().unwrap();
        assert_eq!(gen, 2);
        assert_eq!(writer.delta_bytes(), 0, "compaction folds the whole chain");
        assert_eq!(writer.compactions(), 1);

        let src = DiskGridSource::open(&dir).unwrap();
        assert_eq!(src.generation(), 2);
        assert_eq!(src.delta_stats().compactions, 1);
        assert_eq!(src.delta_stats().delta_bytes, 0);
        for (pid, expect) in merged.iter().enumerate() {
            assert_eq!(src.load(pid).as_slice(), &expect[..], "partition {pid} after compaction");
        }

        // Retire: delta files and the old generation manifest go away,
        // the original Convert() output stays, and a fresh open works.
        let removed = writer.retire_older_generations().unwrap();
        assert!(removed >= 1, "retirement removed stale files");
        assert!(dir.join(segment_file_name(0)).exists(), "gen-0 base is kept");
        assert!(
            !std::fs::read_dir(&dir)
                .unwrap()
                .any(|e| { e.unwrap().file_name().to_string_lossy().ends_with(".dseg") }),
            "no delta segments survive retirement after a full compaction"
        );
        let reopened = DiskGridSource::open(&dir).unwrap();
        for (pid, expect) in merged.iter().enumerate() {
            assert_eq!(reopened.load(pid).as_slice(), &expect[..], "partition {pid} post-retire");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The policy triggers compaction from inside publish once delta
    /// payload crosses the threshold.
    #[test]
    fn compaction_policy_triggers_on_publish() {
        let g = generators::rmat(100, 800, generators::RmatParams::GRAPH500, 31);
        let dir = tmpdir("delta-policy");
        Convert::grid(2).write(&g, &dir).unwrap();
        let mut writer = DeltaWriter::open(&dir)
            .unwrap()
            .with_policy(CompactionPolicy { max_delta_bytes: 64, max_delta_ratio: 0.0 });
        for i in 0..10u32 {
            writer.insert(i % 100, (i * 3) % 100, 1.0).unwrap();
        }
        // 10 records * 16 B = 160 B > 64 B: publish (gen 1) then an
        // automatic compaction (gen 2).
        assert_eq!(writer.publish().unwrap(), 2);
        assert_eq!(writer.compactions(), 1);
        assert_eq!(writer.delta_bytes(), 0);
        let src = DiskGridSource::open(&dir).unwrap();
        assert_eq!(src.generation(), 2);
        assert_eq!(src.manifest().num_edges() + 10, {
            let mut total = 0;
            for pid in 0..4 {
                total += src.load(pid).len() as u64;
            }
            total
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A base segment some foreign writer left out of source order still
    /// merges to what "apply the chain, stable-sort by source" gives.
    #[test]
    fn unordered_base_segment_merges_through_the_sort_fallback() {
        let g = generators::rmat(80, 600, generators::RmatParams::GRAPH500, 47);
        let dir = tmpdir("delta-unordered-base");
        Convert::grid(1).write(&g, &dir).unwrap();
        let ordered = DiskGridSource::open(&dir).unwrap().load(0);
        let reversed: Vec<_> = ordered.iter().rev().copied().collect();
        graphm_graph::segment::write_segment(&reversed, &dir.join("part-00000.seg")).unwrap();

        let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
        let mut records = Vec::new();
        for e in g.edges.iter().step_by(11) {
            writer.delete(e.src, e.dst).unwrap();
            records.push(graphm_graph::delta::DeltaRecord::delete(e.src, e.dst));
        }
        for i in 0..30u32 {
            writer.insert(i * 5 % 80, i * 3 % 80, i as f32).unwrap();
            records.push(graphm_graph::delta::DeltaRecord::insert(
                i * 5 % 80,
                i * 3 % 80,
                i as f32,
            ));
        }
        writer.publish().unwrap();

        let mut expect = reversed;
        graphm_graph::delta::apply_delta(&mut expect, &records);
        expect.sort_by_key(|e| e.src);
        let src = DiskGridSource::open(&dir).unwrap();
        assert_eq!(*src.load(0), expect);
        assert_eq!(src.graph_bytes(), expect.len() * EDGE_BYTES);
        // The compactor folds through the same fallback and leaves an
        // ordered base behind.
        writer.compact().unwrap();
        assert!(src.refresh_generation().unwrap());
        assert_eq!(*src.load(0), expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Delta bounds are validated at write time and at open time: a
    /// record pointing past the vertex set is a typed error.
    #[test]
    fn delta_rejects_out_of_range_mutations() {
        let g = generators::rmat(50, 300, generators::RmatParams::GRAPH500, 41);
        let dir = tmpdir("delta-bounds");
        Convert::grid(2).write(&g, &dir).unwrap();
        let mut writer = DeltaWriter::open(&dir).unwrap();
        assert!(matches!(
            writer.insert(50, 0, 1.0).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 50, num_vertices: 50 }
        ));
        assert!(matches!(
            writer.delete(0, 99).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 99, num_vertices: 50 }
        ));
        // Corrupt a published delta segment on disk: open must reject it.
        writer.insert(1, 2, 1.0).unwrap();
        writer.publish().unwrap();
        let delta_file = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "dseg"))
            .unwrap();
        let mut bytes = std::fs::read(&delta_file).unwrap();
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes()); // src out of range
        std::fs::write(&delta_file, &bytes).unwrap();
        assert!(matches!(
            DiskGridSource::open(&dir).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: u32::MAX, num_vertices: 50 }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_survives_reopen() {
        let g = generators::rmat(150, 1100, generators::RmatParams::GRAPH500, 6);
        let dir = tmpdir("reopen");
        let written = Convert::grid(3).write(&g, &dir).unwrap();
        let read = Manifest::read_from_dir(&dir).unwrap();
        assert_eq!(written, read);
        std::fs::remove_dir_all(&dir).ok();
    }
}
