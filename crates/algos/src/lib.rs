//! # graphm-algos — iterative graph algorithms as GraphM jobs
//!
//! The paper's four benchmarks (§5.1) plus two of the workload "variants"
//! its introduction motivates, each implemented against
//! [`graphm_core::GraphJob`] so any host engine — GridGraph-style grids,
//! GraphChi-style shards, the simulated PowerGraph/Chaos clusters — can run
//! them under any execution scheme:
//!
//! | Job | Access pattern | Cost factor |
//! |-----|----------------|-------------|
//! | [`RankBundle::pagerank`] | dense, whole graph each iteration | 1.0 |
//! | [`Wcc`] | shrinking frontier | 0.8 |
//! | [`Bfs`] | expanding-then-shrinking frontier | 0.5 |
//! | [`Sssp`] | irregular frontier, weighted | 0.7 |
//! | [`RankBundle::ppr`] | dense, seed-specific state | 1.0 |
//! | [`LabelPropagation`] | salted frontiers | 0.9 |
//!
//! Each algorithm has one kernel. Two of them serve several same-kind
//! jobs of one cohort with one read of each edge: a [`RankBundle`] runs
//! 1, 2 or 4 PageRank or PPR jobs, a [`Wcc`] every WCC job of a cohort.
//! A solo job is a bundle or group of one, and each member's results are
//! bit for bit those it would have alone.
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
pub mod wcc;

pub use bfs::{Bfs, UNREACHED};
pub use bundle::RankBundle;
pub use labelprop::LabelPropagation;
pub use sssp::{Sssp, UNREACHABLE};
pub use wcc::Wcc;
