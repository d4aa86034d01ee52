//! # graphm-algos — iterative graph algorithms as GraphM jobs
//!
//! The paper's four benchmarks (§5.1) plus two of the workload "variants"
//! its introduction motivates, each implemented against
//! [`graphm_core::GraphJob`] so any host engine — GridGraph-style grids,
//! GraphChi-style shards, the simulated PowerGraph/Chaos clusters — can run
//! them under any execution scheme:
//!
//! | Job | Access pattern | Members a job | Chunk loop | Cost factor |
//! |-----|----------------|---------------|------------|-------------|
//! | [`RankBundle::pagerank`] | dense, whole graph each iteration | 1, 2, 4 | every edge, `[f64; K]` adds | 1.0 |
//! | [`Wcc`] | shrinking frontier | any, one state | run walk (default body) | 0.8 |
//! | [`Bfs`] | expanding-then-shrinking frontier | 1, 2, 4 roots | run walk, lane masks | 0.5 |
//! | [`Sssp`] | irregular frontier, weighted | 1, 2, 4 roots | run walk, lane masks | 0.7 |
//! | [`RankBundle::ppr`] | dense, seed-specific state | 1, 2, 4 | every edge, `[f64; K]` adds | 1.0 |
//! | [`LabelPropagation`] | salted frontiers | 1 | run walk (default body) | 0.9 |
//!
//! Each algorithm has one kernel, and four of them serve several
//! same-kind jobs of one cohort with one read of each edge: a
//! [`RankBundle`] runs 1, 2 or 4 PageRank or PPR jobs, an [`Sssp`] or a
//! [`Bfs`] 1, 2 or 4 roots (each member with a frontier of its own), a
//! [`Wcc`] every WCC job of a cohort. A solo job is a bundle or group of
//! one, and each member's results are bit for bit those it would have
//! alone.
//!
//! Every kernel takes a chunk with its table of source runs
//! ([`graphm_core::GraphJob::process_chunk`]). The frontier kernels walk
//! the runs and jump over a run whose source no member holds without
//! reading its edges — the traversals in their own loop, WCC and label
//! propagation through the trait's default body; the rank family streams
//! every edge and ignores the runs.
//!
//! [`mod@reference`] holds the sequential oracles the integration tests
//! compare every scheme against.

pub mod bfs;
pub mod bundle;
pub mod labelprop;
pub mod pagerank;
pub mod ppr;
pub mod reference;
pub mod sssp;
mod traversal;
pub mod wcc;

pub use bfs::{Bfs, UNREACHED};
pub use bundle::RankBundle;
pub use labelprop::LabelPropagation;
pub use sssp::{Sssp, UNREACHABLE};
pub use wcc::Wcc;
