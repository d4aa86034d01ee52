//! [`Server`]: starting, observing and stopping a daemon. This module
//! only assembles the parts — it opens the store and the role's writer,
//! binds the listeners, and spawns the threads (`runtime::run`, the
//! follower tailer, one accept loop per listener); nothing imports it.
//!
//! The parts, each importing only those to its left:
//!
//! ```text
//! protocol, repl, ingest, client → config → admission → state → runtime
//!                                  → verbs → replication → listener → daemon
//! ```

use crate::config::ServerConfig;
use crate::ingest::IngestCoordinator;
use crate::listener::{accept_loop, listener_tcp, listener_unix};
use crate::protocol::ServerStats;
use crate::replication::follower_tail_loop;
use crate::state::{Listening, Shared};
use graphm_graph::{GraphError, Result};
use graphm_store::{DeltaWriter, DiskGridSource, ReplicaApplier};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running daemon. Dropping it (or calling [`Server::shutdown`]) stops
/// the listeners, drains the queue, and joins the runtime thread.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    socket_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
}

impl Server {
    /// Opens the store, starts the runtime thread and the configured
    /// listeners, and returns once all are accepting.
    pub fn start(config: ServerConfig) -> Result<Server> {
        if config.socket_path.is_none() && config.tcp_addr.is_none() {
            return Err(GraphError::Format(
                "server config needs a unix socket path or a tcp address".to_string(),
            ));
        }
        if config.follow.is_some() && config.enable_ingest {
            return Err(GraphError::Format(
                "a follower cannot also serve ingest (it writes only replicated frames); \
                 drop --ingest or --follow"
                    .to_string(),
            ));
        }
        // Ingest acquires the writer lease up front: failing here (e.g. a
        // graphm-delta process holds the store) beats failing on the
        // first client commit. Opening the writer *before* the reader
        // also replays any crashed writer's WAL first, so the daemon
        // starts serving the recovered generation directly.
        let ingest = if config.enable_ingest {
            Some(Arc::new(IngestCoordinator::new(DeltaWriter::open(&config.store_dir)?)))
        } else {
            None
        };
        // A follower owns its store's writer lease through the frame
        // applier instead — opened before the reader for the same
        // WAL-replay reason (a follower killed mid-apply recovers to a
        // publish boundary before serving).
        let applier = if config.follow.is_some() {
            Some(ReplicaApplier::open(&config.store_dir)?)
        } else {
            None
        };
        let source = DiskGridSource::open_shared(&config.store_dir)?;
        source.set_memory_budget(config.memory_budget_bytes);
        let shared = Arc::new(Shared::new(config, source, ingest, applier));
        let config = &shared.config;

        // Bind every listener *before* spawning any thread: a bind
        // failure must return cleanly, not leak a parked runtime thread
        // (which would also pin the shared store mapping).
        let unix = match &config.socket_path {
            Some(path) => {
                // A stale socket file from a dead daemon would fail the
                // bind; a *live* daemon's socket is taken over the same
                // way, so point two daemons at distinct paths.
                let _ = std::fs::remove_file(path);
                Some((UnixListener::bind(path)?, path.clone()))
            }
            None => None,
        };
        let tcp = match &config.tcp_addr {
            Some(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let local = listener.local_addr()?;
                Some((listener, local))
            }
            None => None,
        };

        // From here on, an error must tear down what already started:
        // dropping the half-started server stops and joins its threads
        // and removes the socket file.
        let mut server = Server {
            shared: Arc::clone(&shared),
            threads: Vec::new(),
            socket_path: unix.as_ref().map(|(_, path)| path.clone()),
            tcp_addr: tcp.as_ref().map(|(_, local)| *local),
        };
        // The accept loops block: shutdown reaches them by connecting.
        let listening = Listening::new(server.socket_path.clone(), server.tcp_addr);
        assert!(shared.listening.set(listening).is_ok(), "a daemon starts once");
        {
            // The engine is built on the runtime thread: `Init()` must not
            // delay the listeners.
            let shared = Arc::clone(&shared);
            server.spawn("graphm-runtime", move || crate::runtime::run(&shared))?;
        }
        if let Some(peer) = config.follow.clone() {
            let shared = Arc::clone(&shared);
            let token = config.auth_token.clone();
            let backoff_ms = config.repl_backoff.as_millis().max(1) as u64;
            server.spawn("graphm-repl-tail", move || {
                follower_tail_loop(&shared, &peer, token.as_deref(), backoff_ms)
            })?;
        }
        let read_timeout = config.read_timeout;
        if let Some((listener, _)) = unix {
            let shared = Arc::clone(&shared);
            server.spawn("graphm-accept-unix", move || {
                accept_loop(listener_unix(listener, read_timeout), &shared)
            })?;
        }
        if let Some((listener, _)) = tcp {
            server.spawn("graphm-accept-tcp", move || {
                accept_loop(listener_tcp(listener, read_timeout), &shared)
            })?;
        }
        Ok(server)
    }

    fn spawn(&mut self, name: &str, body: impl FnOnce() + Send + 'static) -> Result<()> {
        self.threads.push(std::thread::Builder::new().name(name.to_string()).spawn(body)?);
        Ok(())
    }

    /// The unix socket the daemon listens on, if configured.
    pub fn socket_path(&self) -> Option<&Path> {
        self.socket_path.as_deref()
    }

    /// The TCP address the daemon listens on, if configured (with the
    /// real port when the config asked for port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The daemon's status record, as `stats` and `health` answer it
    /// (runtime counters plus the store's live residency/prefetch state,
    /// the held lease, role and liveness; `shutting_down` says whether a
    /// shutdown has been requested).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// Blocks until the daemon's threads exit (after a `shutdown` request
    /// from any client or [`Server::shutdown`] from another thread).
    pub fn join(mut self) {
        self.join_threads();
    }

    /// Requests shutdown and joins all daemon threads. Queued jobs still
    /// run to completion; connections waiting on them are answered first.
    pub fn shutdown(mut self) {
        self.shared.request_shutdown();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.request_shutdown();
        self.join_threads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::state::PANICS_AT_INSTANTIATION;
    use graphm_graph::generators;
    use graphm_store::Convert;
    use graphm_workloads::{AlgoKind, JobSpec};

    /// A job constructor that panics fails its admission's jobs, each with
    /// an error report, and the daemon serves on: `ping` answers, and a
    /// valid job submitted next runs to completion.
    #[test]
    fn a_panicking_instantiation_fails_only_its_admission() {
        let dir = std::env::temp_dir().join(format!("graphm-daemon-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let g = generators::rmat(64, 400, generators::RmatParams::GRAPH500, 5);
        Convert::grid(2).write(&g, &dir).unwrap();
        let mut config = ServerConfig::new(&dir);
        config.socket_path = Some(dir.join("daemon.sock"));
        let server = Server::start(config).unwrap();
        let mut client = Client::connect_unix(server.socket_path().unwrap()).unwrap();

        let spec = |kind, max_iters| JobSpec { kind, damping: 0.85, root: 3, max_iters };
        // One burst, so one admission: the poisoned spec and a valid one.
        let poisoned = client.submit(&spec(AlgoKind::Wcc, PANICS_AT_INSTANTIATION)).unwrap();
        let bystander = client.submit(&spec(AlgoKind::Bfs, 30)).unwrap();
        for id in [poisoned, bystander] {
            let report = client.wait(id).unwrap();
            let error = report.error.expect("every job of the admission fails");
            assert!(error.contains("job instantiation panicked"), "{error}");
        }

        client.ping().unwrap();
        let report = client.run(&spec(AlgoKind::Bfs, 30)).unwrap();
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.iterations > 0);
        let stats = client.stats().unwrap();
        assert_eq!((stats.jobs_failed, stats.jobs_completed), (2, 1));
        assert!(stats.lanes > 0 && stats.lane_stream_ns > 0 && stats.lane_end_ns > 0);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
