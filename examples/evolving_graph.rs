//! Evolving graphs served from disk.
//!
//! Part 1 — the paper's §3.3.2 snapshot story (Figure 7) on the mechanism
//! the system serves it with: a long-running reader pins the generation it
//! started on, an update published meanwhile is only *staged* for it, and
//! the next sweep reads the updated graph. (Job-private what-if mutations
//! are not reproduced on the served path; see `docs/ARCHITECTURE.md`.)
//!
//! Part 2 — the same evolution at scale: `Convert()` the graph once,
//! mutate it through a `DeltaWriter` (append-only delta segments + an
//! atomically published generation manifest), re-open at the new
//! generation, and get results bit-identical to an in-memory run over the
//! mutated edge list; then compact the chain away and check nothing
//! changed.
//!
//! ```sh
//! cargo run --release --example evolving_graph
//! ```

use graphm::core::{PartitionSource, Scheme};
use graphm::graph::delta::apply_delta_to_edge_list;
use graphm::graph::{generators, DeltaRecord, Edge, EdgeList, MemoryProfile};
use graphm::store::{CompactionPolicy, Convert, DeltaWriter, DiskGridSource};
use graphm::workloads::{immediate_arrivals, Workbench};

/// Edges a sweep over every partition of `source` streams.
fn edges_seen(source: &DiskGridSource) -> usize {
    (0..source.num_partitions()).map(|pid| source.load(pid).len()).sum()
}

fn main() {
    // ------------------------------------------------------------------
    // Part 1: generation-pinned readers (§3.3.2, Figure 7).
    // ------------------------------------------------------------------

    // A tiny road network: 0-1-2-3 chain with a shortcut back to 0.
    let roads = EdgeList {
        num_vertices: 4,
        edges: vec![
            Edge::weighted(0, 1, 1.0),
            Edge::weighted(1, 2, 1.0),
            Edge::weighted(2, 3, 1.0),
            Edge::weighted(3, 0, 5.0),
        ],
    };
    let dir = std::env::temp_dir().join(format!("graphm-roads-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    Convert::grid(2).write(&roads, &dir).unwrap();

    // Job 1 (a long-running route planner) starts a sweep: it pins the
    // generation it reads.
    let reader = DiskGridSource::open_shared(&dir).unwrap();
    reader.sweep_begin();
    println!("job 1 starts on generation 0; sees {} edges", edges_seen(&reader));

    // The city closes a road: a published update, generation 1.
    let mut writer = DeltaWriter::open(&dir).unwrap();
    writer.delete(0, 1).unwrap();
    assert_eq!(writer.publish().unwrap(), 1);

    // The reader's handle picks the publish up but only stages it: job 1
    // keeps reading the graph it started on.
    reader.refresh_generation().unwrap();
    assert_eq!(reader.staged_generation(), Some(1));
    assert_eq!(reader.generation(), 0);
    assert_eq!(edges_seen(&reader), 4, "job 1 reads its starting snapshot");
    println!("road closure published: staged, job 1 still sees {} edges", edges_seen(&reader));

    // Job 1's sweep ends: the last unpin adopts generation 1, and the next
    // sweep — any later job's — reads the updated graph.
    reader.sweep_end();
    assert_eq!(reader.generation(), 1);
    assert_eq!(edges_seen(&reader), 3, "the next sweep reads the update");
    println!("job 1's sweep ended: generation 1 adopted, {} edges", edges_seen(&reader));
    drop((reader, writer));
    std::fs::remove_dir_all(&dir).ok();
    println!("snapshot isolation held for the pinned reader ✓\n");

    // ------------------------------------------------------------------
    // Part 2: the same story at scale, checked against memory.
    // ------------------------------------------------------------------

    let graph = generators::rmat(2000, 16000, generators::RmatParams::GRAPH500, 7);
    let dir = std::env::temp_dir().join(format!("graphm-evolving-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Convert once: segments + manifest, generation 0.
    Convert::grid(4).write(&graph, &dir).unwrap();
    println!("converted {} edges into {}", graph.edges.len(), dir.display());

    // The platform updates the graph: a DeltaWriter batches mutations and
    // publishes them as generation 1 (append-only files + atomic CURRENT
    // flip — live readers are never disturbed, they rotate between
    // sweeps).
    let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
    let mut records = Vec::new();
    for e in graph.edges.iter().step_by(401).take(12) {
        writer.delete(e.src, e.dst).unwrap();
        records.push(DeltaRecord::delete(e.src, e.dst));
    }
    for i in 0..30u32 {
        let (src, dst) = ((i * 67) % 2000, (i * 131 + 3) % 2000);
        writer.insert(src, dst, 1.0).unwrap();
        records.push(DeltaRecord::insert(src, dst, 1.0));
    }
    let generation = writer.publish().unwrap();
    println!(
        "published {} mutations as generation {generation} ({} delta bytes on disk)",
        records.len(),
        writer.delta_bytes()
    );

    // Reference: the same mutations applied to the edge list, in memory.
    let mut mutated = graph.clone();
    apply_delta_to_edge_list(&mut mutated, &records);

    // A disk-resident run over the rotated store is bit-identical to the
    // in-memory run over the mutated graph — merged reads, byte
    // accounting, out-degrees and all.
    let wb_disk = Workbench::from_disk(&dir, MemoryProfile::DEFAULT).unwrap();
    let wb_mem = Workbench::from_graph(mutated, 4, MemoryProfile::DEFAULT);
    let specs = wb_mem.paper_mix(4, 3);
    let arrivals = immediate_arrivals(specs.len());
    let disk = wb_disk.run(Scheme::Shared, &specs, &arrivals);
    let mem = wb_mem.run(Scheme::Shared, &specs, &arrivals);
    for (a, b) in mem.jobs.iter().zip(&disk.jobs) {
        assert_eq!(a.iterations, b.iterations);
        assert!(
            a.values.iter().zip(&b.values).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{}: disk-resident merged view must match the in-memory mutated graph",
            a.name
        );
    }
    println!("disk-resident generation {generation} matches the in-memory mutated run ✓");

    // Compaction folds the chain into fresh base segments: zero delta
    // bytes, identical results, old files retirable.
    let generation = writer.compact().unwrap();
    let removed = writer.retire_older_generations().unwrap();
    let compacted = DiskGridSource::open(&dir).unwrap();
    assert_eq!(compacted.generation(), generation);
    assert_eq!(compacted.delta_stats().delta_bytes, 0);
    println!(
        "compacted into generation {generation} ({} compactions, {removed} stale files retired) ✓",
        compacted.delta_stats().compactions
    );
    println!("\nevolving graph served disk-resident, end to end ✓");
    std::fs::remove_dir_all(&dir).ok();
}
