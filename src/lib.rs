//! # GraphM — an efficient storage system for high throughput of
//! # concurrent graph processing
//!
//! A full Rust reproduction of *GraphM* (Zhao et al., SC '19): a storage
//! runtime that plugs into existing graph engines and lets concurrent
//! iterative jobs share one copy of the graph structure in memory and in
//! the LLC, traversing it in a common, chunk-synchronized order.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the GraphM storage system itself (chunking, sharing,
//!   synchronization, scheduling);
//! * [`graph`] — graph formats, generators, and the dataset registry;
//! * [`store`] — the disk-resident, mmap-backed partition store
//!   (`Convert()` preprocessing into the grid + `DiskGridSource`);
//! * [`cachesim`] — the simulated memory hierarchy behind the figures;
//! * [`gridgraph`] / [`graphchi`] / [`distributed`] — the host engines;
//! * [`algos`] — PageRank, WCC, BFS, SSSP and variants as GraphM jobs;
//! * [`workloads`] — job mixes, arrival processes, traces, the workbench;
//! * [`server`] — the multi-tenant daemon serving a disk store over
//!   unix-socket/TCP, plus its client library and wire protocol.
//!
//! ## Quickstart (in memory)
//!
//! ```
//! use graphm::prelude::*;
//!
//! // A small synthetic graph, grid-partitioned like GridGraph.
//! let graph = graphm::graph::generators::rmat(
//!     1000, 8000, graphm::graph::generators::RmatParams::GRAPH500, 42);
//! let wb = Workbench::from_graph(graph, 4, MemoryProfile::TEST);
//!
//! // Four concurrent jobs from the paper's mix...
//! let specs = wb.paper_mix(4, 7);
//! // ...under plain concurrency and under GraphM sharing.
//! let (_, concurrent, shared) = wb.run_all_schemes(&specs);
//! assert!(shared.metrics.get(keys::DISK_READ_BYTES)
//!     <= concurrent.metrics.get(keys::DISK_READ_BYTES));
//! ```
//!
//! ## Quickstart (disk-resident store)
//!
//! GraphM is a *storage system*: the graph lives in secondary storage and
//! is converted once into the engine's partition format. The disk path
//! makes that real — `Convert` writes per-partition segment files plus a
//! manifest, and the workbench streams them through an `mmap`-backed
//! source with identical results to the in-memory path:
//!
//! ```
//! use graphm::prelude::*;
//!
//! let graph = graphm::graph::generators::rmat(
//!     1000, 8000, graphm::graph::generators::RmatParams::GRAPH500, 42);
//! let dir = std::env::temp_dir().join(format!("graphm-doc-{}", std::process::id()));
//!
//! // Convert(): grid-partition and persist (segments + manifest.bin).
//! Convert::grid(4).write(&graph, &dir).unwrap();
//!
//! // The structure now stays on disk; jobs stream mmap'd partitions.
//! let wb = Workbench::from_disk(&dir, MemoryProfile::TEST).unwrap();
//! let specs = wb.paper_mix(4, 7);
//! let (_, concurrent, shared) = wb.run_all_schemes(&specs);
//! assert!(shared.metrics.get(keys::DISK_READ_BYTES)
//!     <= concurrent.metrics.get(keys::DISK_READ_BYTES));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub use graphm_algos as algos;
pub use graphm_cachesim as cachesim;
pub use graphm_core as core;
pub use graphm_distributed as distributed;
pub use graphm_graph as graph;
pub use graphm_graphchi as graphchi;
pub use graphm_gridgraph as gridgraph;
pub use graphm_server as server;
pub use graphm_store as store;
pub use graphm_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use graphm_cachesim::{keys, Metrics};
    pub use graphm_core::{
        GraphJob, GraphM, GraphMConfig, PartitionSource, RunReport, RunnerConfig, SchedulingPolicy,
        Scheme, SharingService, Submission, WallClockConfig, WallClockExecutor,
    };
    pub use graphm_graph::{DatasetId, EdgeList, MemoryProfile};
    pub use graphm_gridgraph::GridGraphEngine;
    pub use graphm_server::{Client, Server, ServerConfig};
    pub use graphm_store::{Convert, DiskGridSource};
    pub use graphm_workloads::{AlgoKind, JobSpec, MixConfig, Workbench};
}
