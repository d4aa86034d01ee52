//! # graphm-server — a multi-tenant graph-job daemon over one shared store
//!
//! The paper's whole point is amortizing one storage pass across
//! *concurrent* jobs; this crate turns that from an in-process arrival
//! script into a service. A long-lived daemon opens one mmap'd disk store
//! ([`graphm_store::DiskGridSource`], through the shared-mapping
//! registry), listens on a unix-domain socket and/or TCP, and feeds
//! client submissions into one [`graphm_core::CohortDriver`] on real
//! cores — so the jobs of one admission, submitted by independent
//! clients, share every partition load and the §4 loading order, and each
//! is answered when it converges.
//!
//! * [`protocol`] — the newline-delimited JSON wire format (requests,
//!   reports whose vertex values travel as one hex column of `f64` bits,
//!   and [`ServerStats`], the one status record `stats` and `health`
//!   answer with) and its hex codec ([`hex_encode`] / [`hex_decode`]);
//! * [`config`] — [`ServerConfig`];
//! * [`daemon`] — [`Server`], which assembles the daemon's private parts
//!   (admission queue → shared state → the one runtime loop over the
//!   sweep driver → verbs → replication → listeners; imports only run that
//!   way, see `docs/ARCHITECTURE.md`);
//! * [`client`] — [`Client`]: a blocking connection wrapper;
//! * [`ingest`] — [`IngestCoordinator`]: group-commit mutation sessions
//!   through the store's single leased writer (opt-in via
//!   [`ServerConfig::enable_ingest`]);
//! * [`repl`] — [`ReplicationHub`], the ledger behind hot-standby
//!   replication: a follower daemon
//!   ([`ServerConfig::follow`]) tails the primary's committed delta
//!   generations and promotes through the store's epoch fence.
//!
//! Binaries: `graphm-server` (the daemon) and `graphm-client` (submit /
//! status / wait / stats / health / shutdown from the command line); convert a
//! graph for serving with `graphm-convert` (in `graphm-store`).
//!
//! ## In-process quickstart
//!
//! ```
//! use graphm_server::{Client, Server, ServerConfig};
//! use graphm_workloads::{AlgoKind, JobSpec};
//!
//! // A store to serve (normally written once by `graphm-convert`).
//! let graph = graphm_graph::generators::rmat(
//!     500, 4000, graphm_graph::generators::RmatParams::GRAPH500, 7);
//! let dir = std::env::temp_dir().join(format!("graphm-server-doc-{}", std::process::id()));
//! graphm_store::Convert::grid(4).write(&graph, &dir).unwrap();
//!
//! // Daemon on a unix socket; TEST profile keeps the doctest fast.
//! let mut config = ServerConfig::new(&dir);
//! config.socket_path = Some(dir.join("graphm.sock"));
//! config.profile = graphm_graph::MemoryProfile::TEST;
//! let server = Server::start(config).unwrap();
//!
//! // Any number of clients; here one submits PageRank and waits.
//! let mut client = Client::connect_unix(server.socket_path().unwrap()).unwrap();
//! let spec = JobSpec { kind: AlgoKind::PageRank, damping: 0.85, root: 0, max_iters: 10 };
//! let report = client.run(&spec).unwrap();
//! assert_eq!(report.name, "PageRank");
//! assert_eq!(report.values.len(), 500);
//!
//! server.shutdown();
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

mod admission;
pub mod client;
pub mod config;
pub mod daemon;
pub mod ingest;
mod listener;
pub mod protocol;
pub mod repl;
mod replication;
mod runtime;
mod state;
mod verbs;

pub use client::{retry_delay, splitmix, Client, ClientError};
pub use config::{ExecutionMode, ServerConfig};
pub use daemon::Server;
pub use ingest::{CommitOutcome, IngestCoordinator, IngestStats};
pub use protocol::{
    hex_decode, hex_encode, JobState, Priority, Request, ServerStats, ERR_LINE_TOO_LONG,
    ERR_NOT_PRIMARY, ERR_OVERLOADED, ERR_SHUTTING_DOWN, ERR_STALE_REPLICA, ERR_UNAUTHORIZED,
};
pub use repl::{HubSnapshot, ReplicationHub};
