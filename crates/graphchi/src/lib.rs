//! # graphm-graphchi — GraphChi-style engine with GraphM integration
//!
//! GraphChi [Kyrola et al., OSDI '12] is the second host engine of the
//! paper's Table 4: a single-machine out-of-core engine built on vertex
//! intervals and source-sorted shards processed with parallel sliding
//! windows. The GraphM `Sharing()` hook replaces `LoadSubgraph()` (§3.1).
//!
//! Schemes: `GraphChi-S`, `GraphChi-C`, `GraphChi-M` via [`run_graphchi`].

pub mod engine;
pub mod source;

pub use engine::GraphChiEngine;
pub use source::ChiSource;

use graphm_core::{run_scheme, RunReport, RunnerConfig, Scheme, Submission};

/// Runs a job mix on GraphChi under the given scheme, deterministically.
pub fn run_graphchi(
    scheme: Scheme,
    subs: Vec<Submission>,
    engine: &GraphChiEngine,
    cfg: &RunnerConfig,
) -> RunReport {
    let source = ChiSource::new(engine.shards());
    run_scheme(scheme, subs, &source, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_algos::{reference, PageRank};
    use graphm_cachesim::keys;
    use graphm_graph::{generators, MemoryProfile};

    #[test]
    fn schemes_match_oracle_and_m_wins() {
        let g = generators::rmat(300, 2400, generators::RmatParams::GRAPH500, 14);
        let (engine, _) = GraphChiEngine::convert(&g, 4);
        let cfg = RunnerConfig::new(MemoryProfile::TEST);
        // Enough iterations that compute dominates the one-time shard
        // loads (all schemes share the page cache for in-memory graphs).
        let subs = |n: usize| -> Vec<Submission> {
            (0..n)
                .map(|i| {
                    Submission::immediate(Box::new(
                        PageRank::new(
                            g.num_vertices,
                            engine.out_degrees(),
                            0.5 + 0.1 * i as f64,
                            20,
                        )
                        .with_tolerance(0.0),
                    ))
                })
                .collect()
        };
        let m = run_graphchi(Scheme::Shared, subs(3), &engine, &cfg);
        let c = run_graphchi(Scheme::Concurrent, subs(3), &engine, &cfg);
        for (i, job) in m.jobs.iter().enumerate() {
            let oracle = reference::pagerank_ref(&g, 0.5 + 0.1 * i as f64, 20, 0.0);
            for (a, b) in job.values.iter().zip(&oracle) {
                assert!((a - b).abs() < 1e-9);
            }
        }
        assert!(m.metrics.get(keys::DISK_READ_BYTES) <= c.metrics.get(keys::DISK_READ_BYTES));
        assert!(m.makespan_ns < c.makespan_ns);
    }
}
