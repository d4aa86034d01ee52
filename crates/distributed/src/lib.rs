//! # graphm-distributed — simulated-cluster PowerGraph and Chaos engines
//!
//! The paper's Table 4 and Figure 21 integrate GraphM with PowerGraph
//! (distributed GAS over a vertex-cut) and Chaos (scale-out edge
//! streaming) on a 128-node 1-GbE cluster. This crate reproduces both on a
//! *simulated* cluster: algorithms execute for real over node-partitioned
//! edges, and elapsed time comes from a documented cost model (per-node
//! compute, network bytes + latency, disk streaming with seek
//! interference).

pub mod chaos;
pub mod cluster;
pub mod exec;
pub mod powergraph;
pub mod vertexcut;

pub use chaos::{run_chaos, stripe};
pub use cluster::{assign_jobs, group_sizes, ClusterConfig, NetStats};
pub use exec::{run_iteration, DistIterStats, DistReport, MSG_BYTES};
pub use powergraph::run_powergraph;
pub use vertexcut::VertexCut;
