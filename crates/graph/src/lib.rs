//! # graphm-graph — graph substrate for the GraphM reproduction
//!
//! Everything the storage system and the host engines need to represent
//! graphs: core types, deterministic generators standing in for the paper's
//! datasets, binary storage, vertex-range partitioning, and the three
//! engine-native formats GraphM's preprocessor targets (`Convert()` in §3.1):
//!
//! * [`grid`] — GridGraph's 2-level grid;
//! * [`shards`] — GraphChi's source-sorted destination shards;
//! * [`csr`] — PowerGraph's CSR/CSC adjacency.
//!
//! Chaos streams raw edge lists, which [`types::EdgeList`] already is.
//!
//! The disk-resident store's formats live here too (`graphm-store` maps,
//! writes and ships them). [`records`] is the one home of every byte
//! layout: the record codec, the record file that base and delta segments
//! are, the CRC envelope of WAL and replication frames. [`segment`] (base
//! manifest), [`delta`] (generation manifest, `CURRENT`, the merge rule)
//! and [`storage`] (raw edge list) keep only their own headers over it.

pub mod bitmap;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod failpoint;
pub mod generators;
pub mod grid;
pub mod partition;
pub mod records;
pub mod segment;
pub mod shards;
pub mod storage;
pub mod types;

pub use bitmap::AtomicBitmap;
pub use csr::Csr;
pub use datasets::{DatasetId, DatasetSpec, MemoryProfile};
pub use delta::{DeltaRecord, GenManifest, DELTA_RECORD_BYTES};
pub use grid::Grid;
pub use partition::VertexRanges;
pub use segment::{Manifest, ManifestEntry, StoreLayout};
pub use shards::Shards;
pub use types::{Edge, EdgeList, GraphError, Result, VertexId, Weight, EDGE_BYTES};
