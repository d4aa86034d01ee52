//! Disk-resident store integration: `DiskGridSource` must be a *bit-exact*
//! drop-in for the in-memory `GridSource` — same JobReports for the paper
//! mix (PageRank/WCC/BFS/SSSP) under all three execution schemes.

use graphm::core::{run_scheme, JobReport, PartitionSource, Scheme};
use graphm::graph::{generators, MemoryProfile};
use graphm::gridgraph::{DiskGridSource, GridGraphEngine, GridSource};
use graphm::store::Convert;
use graphm::workloads::{immediate_arrivals, AlgoKind, Workbench, WorkbenchBackend};

fn store_dir(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("graphm-disk-integration-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn assert_job_reports_identical(mem: &[JobReport], disk: &[JobReport], ctx: &str) {
    assert_eq!(mem.len(), disk.len(), "{ctx}: job counts");
    for (a, b) in mem.iter().zip(disk) {
        assert_eq!(a.id, b.id, "{ctx}: {}", a.name);
        assert_eq!(a.name, b.name, "{ctx}");
        assert_eq!(a.iterations, b.iterations, "{ctx}: {}", a.name);
        assert_eq!(a.instructions, b.instructions, "{ctx}: {}", a.name);
        assert_eq!(a.edges_processed, b.edges_processed, "{ctx}: {}", a.name);
        assert_eq!(a.submit_ns.to_bits(), b.submit_ns.to_bits(), "{ctx}: {}", a.name);
        assert_eq!(a.finish_ns.to_bits(), b.finish_ns.to_bits(), "{ctx}: {}", a.name);
        assert_eq!(a.values.len(), b.values.len(), "{ctx}: {}", a.name);
        for (i, (x, y)) in a.values.iter().zip(&b.values).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: {} vertex {i}: {x} vs {y}", a.name);
        }
    }
}

#[test]
fn disk_grid_source_matches_in_memory_for_paper_mix() {
    // LiveJ-like graph at test scale, paper mix covering all four algos.
    let g = generators::rmat(600, 5200, generators::RmatParams::GRAPH500, 33);
    let wb = Workbench::from_graph(g.clone(), 4, MemoryProfile::TEST);
    let specs = wb.paper_mix(8, 11);
    assert!(
        [AlgoKind::PageRank, AlgoKind::Wcc, AlgoKind::Bfs, AlgoKind::Sssp]
            .iter()
            .all(|k| specs.iter().any(|s| s.kind == *k)),
        "paper mix must rotate through all four algorithms"
    );

    let dir = store_dir("grid");
    Convert::grid(4).write(&g, &dir).unwrap();
    let disk = DiskGridSource::open(&dir).unwrap();
    let mem = GridSource::new(GridGraphEngine::convert(&g, 4).0.grid());

    // Source-level agreement first: order, bytes, vertex count.
    assert_eq!(disk.order(), mem.order());
    assert_eq!(disk.num_vertices(), mem.num_vertices());
    assert_eq!(disk.graph_bytes(), mem.graph_bytes());
    for pid in 0..mem.num_partitions() {
        assert_eq!(disk.partition_bytes(pid), mem.partition_bytes(pid), "partition {pid}");
    }

    let cfg = wb.runner_config();
    let arr = immediate_arrivals(specs.len());
    for scheme in [Scheme::Sequential, Scheme::Concurrent, Scheme::Shared] {
        let r_mem = run_scheme(scheme, wb.submissions(&specs, &arr), &mem, &cfg);
        let r_disk = run_scheme(scheme, wb.submissions(&specs, &arr), &disk, &cfg);
        let ctx = format!("scheme {:?}", scheme);
        assert_job_reports_identical(&r_mem.jobs, &r_disk.jobs, &ctx);
        assert_eq!(r_mem.makespan_ns.to_bits(), r_disk.makespan_ns.to_bits(), "{ctx}: makespan");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn workbench_from_disk_matches_in_memory_workbench() {
    let g = generators::rmat(500, 4000, generators::RmatParams::SOCIAL, 17);
    let wb_mem = Workbench::from_graph(g.clone(), 4, MemoryProfile::TEST);
    let dir = store_dir("workbench");
    Convert::grid(4).write(&g, &dir).unwrap();
    let wb_disk = Workbench::from_disk(&dir, MemoryProfile::TEST).unwrap();

    assert!(matches!(wb_disk.backend, WorkbenchBackend::Disk(_)));
    assert_eq!(wb_disk.num_vertices(), 500);
    assert_eq!(wb_disk.structure_bytes, wb_mem.structure_bytes);
    assert_eq!(*wb_disk.out_degrees, *wb_mem.out_degrees);

    let specs = wb_mem.paper_mix(6, 3);
    let (s_mem, c_mem, m_mem) = wb_mem.run_all_schemes(&specs);
    let (s_disk, c_disk, m_disk) = wb_disk.run_all_schemes(&specs);
    assert_job_reports_identical(&s_mem.jobs, &s_disk.jobs, "S");
    assert_job_reports_identical(&c_mem.jobs, &c_disk.jobs, "C");
    assert_job_reports_identical(&m_mem.jobs, &m_disk.jobs, "M");
    std::fs::remove_dir_all(&dir).ok();
}
