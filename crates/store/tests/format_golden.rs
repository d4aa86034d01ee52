//! Pins every byte the store writes.
//!
//! `tests/golden_formats/` holds what [`produce`] wrote on commit fd62ab7,
//! the last one where each format still had its own hand-written encoder:
//! a 6-vertex graph through `Convert::grid(2)` and `Convert::shards(2)`,
//! two publishes and a compaction on the grid store, a two-batch WAL
//! commit group, every generation's replication frame, and the binary
//! edge list — plus the failpoints the second publish crossed. Whatever
//! encodes these files now must reproduce them byte for byte and cross the
//! same boundaries in the same order, and whatever decodes them must still
//! open the files as that commit wrote them. `EPOCH` is left out: it holds
//! a pid, a clock and a nonce. Regenerate (run `produce` into the golden
//! directory) only for a change that means to move a format.

use graphm_core::PartitionSource;
use graphm_graph::delta::{
    apply_delta_to_edge_list, read_current_generation, read_delta_segment,
    write_current_generation, DeltaRecord, GenManifest,
};
use graphm_graph::segment::{read_segment, Manifest};
use graphm_graph::storage::{read_edge_list, write_edge_list};
use graphm_graph::{failpoint, Edge, EdgeList, Grid, Shards};
use graphm_store::{
    decode_frame, encode_frame, read_generation_frame, replay_wal_bytes, CompactionPolicy, Convert,
    DeltaWriter, DiskGridSource, DiskShardSource, FrameKind, Wal,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn graph() -> EdgeList {
    let edges = [
        (0, 1, 1.0),
        (0, 4, 2.5),
        (1, 2, 0.5),
        (2, 0, 1.0),
        (3, 5, -1.25),
        (4, 3, 3.0),
        (5, 0, 1.0),
        (3, 1, 0.75),
        (0, 1, 4.0),
        (5, 5, 1.0),
    ];
    EdgeList::from_edges(6, edges.iter().map(|&(s, d, w)| Edge::weighted(s, d, w)).collect())
        .unwrap()
}

fn publishes() -> [Vec<DeltaRecord>; 2] {
    [
        vec![
            DeltaRecord::insert(1, 4, 2.0),
            DeltaRecord::delete(0, 1),
            DeltaRecord::insert(4, 4, 0.5),
            DeltaRecord::insert(2, 3, 1.5),
        ],
        vec![
            DeltaRecord::delete(3, 5),
            DeltaRecord::insert(0, 1, 9.0),
            DeltaRecord::insert(5, 2, 0.25),
            DeltaRecord::delete(4, 4),
        ],
    ]
}

fn wal_batches() -> [Vec<DeltaRecord>; 2] {
    [
        vec![DeltaRecord::insert(1, 2, 0.5), DeltaRecord::delete(3, 4)],
        vec![DeltaRecord::insert(5, 0, -1.0)],
    ]
}

/// Writes every pinned file under `root`; returns the failpoints the
/// second publish crossed.
fn produce(root: &Path) -> Vec<String> {
    let g = graph();
    let grid = root.join("grid");
    Convert::grid(2).write(&g, &grid).unwrap();
    Convert::shards(2).write(&g, &root.join("shards")).unwrap();

    let mut writer = DeltaWriter::open(&grid).unwrap().with_policy(CompactionPolicy::never());
    let stage = |writer: &mut DeltaWriter, records: &[DeltaRecord]| {
        for r in records {
            if r.is_insert() {
                writer.insert(r.src, r.dst, r.weight).unwrap();
            } else {
                writer.delete(r.src, r.dst).unwrap();
            }
        }
    };
    let [first, second] = publishes();
    stage(&mut writer, &first);
    writer.publish().unwrap();
    stage(&mut writer, &second);
    failpoint::record();
    writer.publish().unwrap();
    let trace = failpoint::trace();
    failpoint::reset();
    assert_eq!(writer.compact().unwrap(), 3);
    drop(writer);

    let frames = root.join("frames");
    std::fs::create_dir_all(&frames).unwrap();
    for generation in 1..=3 {
        let frame = read_generation_frame(&grid, generation, 5).unwrap();
        std::fs::write(frames.join(format!("gen-{generation}.frame")), encode_frame(&frame))
            .unwrap();
    }

    let wal_dir = root.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let (mut wal, _) = Wal::open(&wal_dir).unwrap();
    let [a, b] = wal_batches();
    wal.append_group(7, &[&a, &b]).unwrap();

    write_edge_list(&g, &root.join("edges.bin")).unwrap();
    trace
}

/// Every file under `root` by relative path, `EPOCH` excluded.
fn files(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(dir: &Path, root: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, root, out);
            } else if path.file_name().unwrap() != "EPOCH" {
                let name = path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
                out.insert(name, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_formats")
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("graphm-format-golden-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn every_written_byte_and_crossed_failpoint_matches_the_parent() {
    let root = scratch("produce");
    let trace = produce(&root);
    let mut got = files(&root);
    got.insert("publish.trace".to_string(), (trace.join("\n") + "\n").into_bytes());
    let want = files(&golden_dir());
    assert_eq!(got.keys().collect::<Vec<_>>(), want.keys().collect::<Vec<_>>(), "file set");
    for (name, bytes) in &want {
        assert!(&got[name] == bytes, "{name} is not the bytes the parent commit wrote");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The merged grid partitions of `g` after `applied` publishes.
fn model_grid(applied: usize) -> Grid {
    let mut g = graph();
    for records in &publishes()[..applied] {
        apply_delta_to_edge_list(&mut g, records);
    }
    Grid::convert(&g, 2)
}

fn assert_serves(store: &DiskGridSource, model: &Grid) {
    for pid in 0..4 {
        assert_eq!(store.load(pid).as_slice(), model.block_by_index(pid), "block {pid}");
    }
}

#[test]
fn golden_files_open_and_mean_what_they_meant() {
    let golden = golden_dir();
    let grid = golden.join("grid");

    // The compacted generation, straight off the golden directory.
    assert_eq!(read_current_generation(&grid).unwrap(), 3);
    let store = DiskGridSource::open(&grid).unwrap();
    assert_eq!(store.generation(), 3);
    assert_eq!(store.delta_stats().compactions, 1);
    assert_serves(&store, &model_grid(2));

    // Generation 2 — two mapped delta segments a chain — from a copy
    // whose pointer is moved back.
    let copy = scratch("gen2");
    for (name, bytes) in files(&grid) {
        std::fs::write(copy.join(name), bytes).unwrap();
    }
    write_current_generation(&copy, 2).unwrap();
    let chained = DiskGridSource::open(&copy).unwrap();
    assert_eq!(chained.delta_stats().delta_records, 8);
    assert_serves(&chained, &model_grid(2));
    std::fs::remove_dir_all(&copy).ok();

    // Every file through its eager reader.
    let manifest = Manifest::read_from_dir(&grid).unwrap();
    assert_eq!(manifest.num_edges(), 10);
    let mut delta_records = 0;
    for (name, _) in files(&grid) {
        let path = grid.join(&name);
        if name.ends_with(".dseg") {
            delta_records += read_delta_segment(&path).unwrap().len();
        } else if name.ends_with(".seg") {
            read_segment(&path).unwrap();
        }
    }
    assert_eq!(delta_records, 8);
    for generation in 1..=3 {
        let gm = GenManifest::read_from_dir(&grid, generation).unwrap();
        assert_eq!(gm.compactions, u64::from(generation == 3));
    }

    let shards = DiskShardSource::open(&golden.join("shards")).unwrap();
    let model = Shards::convert(&graph(), 2);
    for s in 0..2 {
        assert_eq!(shards.load(s).as_slice(), model.shard(s), "shard {s}");
    }

    // Frames: the two publishes carry their records partition-major, the
    // compaction carries none.
    for (generation, records) in [(1, 4), (2, 4), (3, 0)] {
        let bytes = std::fs::read(golden.join(format!("frames/gen-{generation}.frame"))).unwrap();
        let frame = decode_frame(&bytes).unwrap();
        assert_eq!((frame.generation, frame.primary_epoch), (generation, 5));
        assert_eq!(frame.kind == FrameKind::Compact, generation == 3);
        assert_eq!(frame.records.len(), records);
    }

    let wal = std::fs::read(golden.join("wal/wal.log")).unwrap();
    let (batches, valid) = replay_wal_bytes(&wal);
    assert_eq!(valid, wal.len());
    let [a, b] = wal_batches();
    assert_eq!(batches.iter().map(|b| &b.records).collect::<Vec<_>>(), [&a, &b]);
    assert!(batches.iter().all(|b| b.target_gen == 7));

    let edges = read_edge_list(&golden.join("edges.bin")).unwrap();
    assert_eq!((edges.num_vertices, edges.edges), (6, graph().edges));
}
