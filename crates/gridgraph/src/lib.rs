//! # graphm-gridgraph — GridGraph-style engine with GraphM integration
//!
//! GridGraph [Zhu et al., ATC '15] is the out-of-core engine the paper
//! integrates first (Figure 6 shows the four-line patch). This crate
//! reproduces the engine — 2-level grid partitioning, column-major
//! streaming-apply, selective scheduling — and its three execution schemes:
//!
//! * `GridGraph-S`: sequential jobs ([`run_gridgraph`] with
//!   [`graphm_core::Scheme::Sequential`]);
//! * `GridGraph-C`: concurrent jobs with private graph copies;
//! * `GridGraph-M`: concurrent jobs over GraphM's shared storage.
//!
//! On real threads the same three schemes are a [`GridSource`] handed to
//! [`graphm_core::WallClockExecutor`] (see [`schemes`]).

pub mod engine;
pub mod schemes;
pub mod source;

pub use engine::GridGraphEngine;
pub use graphm_store::DiskGridSource;
pub use schemes::{graphm_preprocess_wall, run_gridgraph};
pub use source::GridSource;
