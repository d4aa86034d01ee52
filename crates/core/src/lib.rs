//! # graphm-core — the GraphM storage system (SC '19)
//!
//! GraphM is a storage runtime that plugs into existing graph processing
//! engines (GridGraph, GraphChi, PowerGraph, Chaos) and makes *concurrent*
//! iterative jobs over the same graph efficient: one shared copy of the
//! graph structure in memory/LLC, traversed by all jobs in a common,
//! chunk-synchronized order.
//!
//! Module map (paper section in parentheses):
//!
//! * [`job`] — the iterative-job abstraction: job-specific data `S`,
//!   active-vertex bitmaps, per-edge update functions (§3.1);
//! * [`chunk`] — Formula-1 chunk sizing and Algorithm-1 partition
//!   labelling into `chunk_table`s (§3.2);
//! * [`global_table`] — partition → active-job tracking (§3.3.1);
//! * [`source`] — how GraphM reads a host engine's partitions (§3.1);
//! * [`graphm`] — `Init()` and the preprocessed instance (§3.1, Table 1);
//! * [`profile`] — the profiling/syncing phases, Formulas 2–4 (§3.4.2);
//! * [`scheduler`] — the loading-order strategy, Formula 5 (§4);
//! * [`exec`] / [`runner`] — deterministic replay of the S/C/M execution
//!   schemes through the simulated memory hierarchy (§5);
//! * [`service`] — the Shared scheme's cost-model walk over jobs that
//!   arrive over virtual time (what `run_scheme(Scheme::Shared)` runs);
//! * [`exec_parallel`] — the wall-clock path: `Sharing()` on real cores
//!   (Algorithm 2, §3.3.1) as one sweep driver whose lanes each stream
//!   a chunk of one shared load through the job they hold — several
//!   admission groups (*cohorts*) at once, each job leaving when it
//!   converges — with optional partition readahead (what the
//!   `graphm-server` daemon drives).

pub mod chunk;
pub mod exec;
pub mod exec_parallel;
pub mod global_table;
pub mod graphm;
pub mod job;
pub mod profile;
pub mod runner;
pub mod scheduler;
pub mod service;
pub mod source;

pub use chunk::{chunk_size_bytes, label_partition, Chunk, ChunkEntry, ChunkTable};
pub use exec::{StreamContext, StreamRun};
pub use exec_parallel::{
    CohortDriver, CohortId, PrefetchHook, WallClockConfig, WallClockExecutor, WallJobReport,
    WallRunReport,
};
pub use global_table::GlobalTable;
pub use graphm::{GraphM, GraphMConfig};
pub use job::{GraphJob, JobId, Retired};
pub use profile::{ProfileSample, Profiler};
pub use runner::{run_scheme, JobReport, RunReport, RunnerConfig, Scheme, Submission};
pub use scheduler::{loading_order, priority, SchedulingPolicy};
pub use service::SharingService;
pub use source::{PartitionSource, VecSource};
