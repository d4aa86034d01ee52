//! Wall-clock comparison of the three execution schemes with real threads
//! (GridGraph host): the headline Share-Synchronize effect, measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphm_algos::PageRank;
use graphm_core::{GraphJob, WallClockConfig, WallClockExecutor};
use graphm_graph::generators;
use graphm_gridgraph::{GridGraphEngine, GridSource};
use std::sync::Arc;

fn jobs(engine: &GridGraphEngine, n_vertices: u32, count: usize) -> Vec<Box<dyn GraphJob>> {
    (0..count)
        .map(|i| {
            Box::new(
                PageRank::new(n_vertices, engine.out_degrees(), 0.5 + 0.05 * i as f64, 3)
                    .with_tolerance(0.0),
            ) as Box<dyn GraphJob>
        })
        .collect()
}

fn bench_sharing(c: &mut Criterion) {
    let g = generators::rmat(20_000, 200_000, generators::RmatParams::GRAPH500, 7);
    let (engine, _) = GridGraphEngine::convert(&g, 4);
    let source = Arc::new(GridSource::new(engine.grid()));
    let exec = WallClockExecutor::new(source, WallClockConfig::default(), None);
    let mut group = c.benchmark_group("sharing_wall");
    group.sample_size(10);
    for n in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, &n| {
            b.iter(|| {
                for mut job in jobs(&engine, g.num_vertices, n) {
                    engine.run_job(job.as_mut(), 10);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("concurrent", n), &n, |b, &n| {
            b.iter(|| exec.run_batch_exclusive(jobs(&engine, g.num_vertices, n)))
        });
        group.bench_with_input(BenchmarkId::new("shared", n), &n, |b, &n| {
            b.iter(|| exec.run_batch(jobs(&engine, g.num_vertices, n)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sharing);
criterion_main!(benches);
