//! `GraphJob::process_chunk` is the per-edge loop, bit for bit.
//!
//! Every engine streams chunks through `process_chunk`; the cache
//! simulator and the oracles drive `process_edge` one edge at a time.
//! Both must leave the same values, iteration counts and processed-edge
//! counts, for every served algorithm (the PageRank family through its
//! own loop; BFS and SSSP through the traversal bundles' run walk; WCC
//! and label propagation through the trait's default body, which tests
//! the frontier once per run of equal sources), however a block is cut
//! into chunks.

use graphm_algos::{Bfs, LabelPropagation, RankBundle, Sssp, Wcc};
use graphm_core::chunk::runs;
use graphm_core::GraphJob;
use graphm_graph::{generators, Edge, EdgeList, Grid, VertexId};
use proptest::prelude::*;
use std::sync::Arc;

/// One splitmix64 step: the test's own stream for weights, the pruned
/// degree graph and chunk cuts.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn damping(param: u64) -> f64 {
    0.1 + (param % 75) as f64 / 100.0
}

fn root(n: VertexId, param: u64) -> VertexId {
    (param % n as u64) as VertexId
}

/// Job `kind` (0 PageRank, 1 PPR, 2 BFS, 3 SSSP, 4 WCC, 5 LabelProp)
/// over `n` vertices, its damping or root drawn from `param`.
fn job(kind: u64, n: VertexId, deg: &Arc<Vec<u32>>, param: u64) -> Box<dyn GraphJob> {
    let (damping, root) = (damping(param), root(n, param));
    match kind {
        0 => Box::new(
            RankBundle::pagerank(n, Arc::clone(deg), &[(damping, 100)]).with_tolerance(0.0),
        ),
        1 => Box::new(RankBundle::ppr(n, Arc::clone(deg), &[(root, damping, 100)])),
        2 => Box::new(Bfs::new(n, root)),
        3 => Box::new(Sssp::new(n, root)),
        4 => Box::new(Wcc::new(n)),
        _ => Box::new(LabelPropagation::new(n, param, 100)),
    }
}

/// What a run leaves behind: value bits, iterations, and the edges
/// processed in each iteration.
type Outcome = (Vec<u64>, usize, Vec<u64>);

/// Runs up to `iters` iterations, streaming `blocks` in order through
/// `stream`, which returns the edges it processed.
fn run(
    mut job: Box<dyn GraphJob>,
    blocks: &[&[Edge]],
    iters: usize,
    mut stream: impl FnMut(&mut dyn GraphJob, &[Edge]) -> u64,
) -> Outcome {
    let mut counts = Vec::new();
    for _ in 0..iters {
        counts.push(blocks.iter().map(|b| stream(job.as_mut(), b)).sum());
        if job.end_iteration() {
            break;
        }
    }
    let bits = job.vertex_values().iter().map(|v| v.to_bits()).collect();
    (bits, job.iterations(), counts)
}

/// The reference: one `process_edge` per active-source edge.
fn per_edge(job: &mut dyn GraphJob, edges: &[Edge]) -> u64 {
    let mut processed = 0;
    for e in edges {
        if !job.skips_inactive() || job.active().get(e.src as usize) {
            job.process_edge(e);
            processed += 1;
        }
    }
    processed
}

/// The PageRank family's push update as first defined, dividing on every
/// edge: `next[dst] += ranks[src] / deg[src]` for sources with out-edges,
/// in stream order — independent of the jobs' per-vertex quotient cache.
/// Returns value bits and iterations, as [`run`] does.
fn push_oracle(
    blocks: &[&[Edge]],
    deg: &[u32],
    mut ranks: Vec<f64>,
    (damping, tolerance): (f64, f64),
    teleport: impl Fn(usize) -> f64,
    iters: usize,
) -> (Vec<u64>, usize) {
    let mut next = vec![0.0; ranks.len()];
    let mut done = 0;
    while done < iters {
        for e in blocks.iter().flat_map(|b| b.iter()) {
            let d = deg[e.src as usize];
            if d > 0 {
                next[e.dst as usize] += ranks[e.src as usize] / d as f64;
            }
        }
        let mut delta = 0.0;
        for (v, (r, nx)) in ranks.iter_mut().zip(next.iter_mut()).enumerate() {
            let new = teleport(v) + damping * *nx;
            delta += (new - *r).abs();
            *r = new;
            *nx = 0.0;
        }
        done += 1;
        if delta < tolerance {
            break;
        }
    }
    (ranks.iter().map(|r| r.to_bits()).collect(), done)
}

/// `edges` cut at random points into chunks (empty ones included).
fn chunks(edges: &[Edge], rng: &mut u64) -> Vec<std::ops::Range<usize>> {
    let mut cuts = vec![0, edges.len()];
    for _ in 0..mix(rng) % 6 {
        cuts.push((mix(rng) % (edges.len() as u64 + 1)) as usize);
    }
    cuts.sort_unstable();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

proptest! {
    /// Any chunking of any block, for every job kind: the chunk loop
    /// matches the per-edge loop bit for bit.
    #[test]
    fn process_chunk_matches_the_per_edge_loop(
        graph in (8u32..300, 0usize..2500, 1usize..5, any::<u64>()),
        kind in 0u64..6,
        param in any::<u64>(),
        run_shape in (1usize..9, any::<bool>()),
    ) {
        let (n, m, p, seed) = graph;
        let (iters, sorted) = run_shape;
        let mut rng = seed;
        let mut g = generators::rmat(n, m, generators::RmatParams::SOCIAL, seed);
        for e in &mut g.edges {
            e.weight = (mix(&mut rng) % 8) as f32 * 0.5;
        }
        // Degrees from the graph minus about a quarter of its edges: some
        // streamed sources have out-degree 0.
        let kept = g.edges.iter().filter(|_| !mix(&mut rng).is_multiple_of(4)).copied().collect();
        let deg = Arc::new(EdgeList::from_edges(n, kept).unwrap().out_degrees());
        // Grid blocks (sorted by source) or the raw generator order.
        let grid = Grid::convert(&g, p);
        let blocks: Vec<&[Edge]> = if sorted {
            grid.streaming_order().into_iter().map(|i| grid.block_by_index(i)).collect()
        } else {
            vec![&g.edges[..]]
        };

        let reference = run(job(kind, n, &deg, param), &blocks, iters, per_edge);
        let chunked = run(job(kind, n, &deg, param), &blocks, iters, |job, block| {
            let chunks = chunks(block, &mut rng).into_iter();
            chunks.map(|r| job.process_chunk(&block[r.clone()], &runs(&block[r]))).sum()
        });
        prop_assert_eq!(chunked.1, reference.1, "iterations of job kind {}", kind);
        prop_assert_eq!(&chunked.2, &reference.2, "edges processed by job kind {}", kind);
        prop_assert!(chunked.0 == reference.0, "value bits differ for job kind {}", kind);

        // Both loops of the PageRank family also match dividing per edge.
        let (d, n_us) = (damping(param), n as usize);
        let oracle = match kind {
            0 => {
                let base = (1.0 - d) / n_us as f64;
                let ranks = vec![1.0 / n_us as f64; n_us];
                Some(push_oracle(&blocks, &deg, ranks, (d, 0.0), |_| base, iters))
            }
            1 => {
                let seed = root(n, param) as usize;
                let mut ranks = vec![0.0; n_us];
                ranks[seed] = 1.0;
                // 1e-9: PPR's tolerance.
                let teleport = |v| if v == seed { 1.0 - d } else { 0.0 };
                Some(push_oracle(&blocks, &deg, ranks, (d, 1e-9), teleport, iters))
            }
            _ => None,
        };
        if let Some((bits, iterations)) = oracle {
            prop_assert_eq!(iterations, reference.1, "oracle iterations of job kind {}", kind);
            prop_assert!(bits == reference.0, "oracle value bits differ for job kind {}", kind);
        }
    }
}
