//! Single-job iteration throughput of each host engine substrate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use graphm_algos::RankBundle;
use graphm_graph::generators;
use graphm_graphchi::GraphChiEngine;
use graphm_gridgraph::GridGraphEngine;

fn bench_engines(c: &mut Criterion) {
    let g = generators::rmat(50_000, 500_000, generators::RmatParams::GRAPH500, 5);
    let (grid, _) = GridGraphEngine::convert(&g, 4);
    let (chi, _) = GraphChiEngine::convert(&g, 16);
    let mut group = c.benchmark_group("engine_iteration");
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    group.sample_size(10);
    group.bench_function("gridgraph_pagerank_iter", |b| {
        b.iter(|| {
            let mut pr = RankBundle::pagerank(g.num_vertices, grid.out_degrees(), &[(0.85, 1)])
                .with_tolerance(0.0);
            grid.run_job(&mut pr, 1)
        })
    });
    group.bench_function("graphchi_pagerank_iter", |b| {
        b.iter(|| {
            let mut pr = RankBundle::pagerank(g.num_vertices, chi.out_degrees(), &[(0.85, 1)])
                .with_tolerance(0.0);
            chi.run_job(&mut pr, 1)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
