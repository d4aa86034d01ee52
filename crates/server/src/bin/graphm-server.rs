//! `graphm-server` — the multi-tenant graph-job daemon.
//!
//! Opens one disk-resident grid store and serves job submissions over a
//! unix-domain socket and/or TCP until a client sends `shutdown` (or the
//! process is killed).
//!
//! ```text
//! graphm-server --store DIR [--socket PATH] [--tcp ADDR]
//!               [--batch-window-ms N] [--profile default|test]
//!               [--mode deterministic|wallclock]
//!               [--memory-budget BYTES] [--prefetch-lookahead N]
//!               [--fixed-prefetch] [--no-rotate]
//!               [--ingest]
//!               [--max-pending N] [--max-connections N]
//!               [--read-timeout-ms N] [--max-line-bytes N]
//!               [--tenant-max-pending N] [--tenant-max-inflight N]
//!               [--max-batch-per-round N] [--shed-eviction-rate R]
//!               [--auth-token TOKEN] [--follow ADDR]
//!               [--max-replica-lag N] [--repl-backoff-ms N]
//! ```
//!
//! Setting `GRAPHM_FAILPOINT=point[@skip]` (e.g. `read:load@3`) arms a
//! process-global fault-injection point in the store read path — for
//! chaos testing that injected I/O errors surface as per-job failures
//! while the daemon keeps serving.

use graphm_server::{ExecutionMode, Server, ServerConfig};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: graphm-server --store DIR [--socket PATH] [--tcp ADDR] \
         [--batch-window-ms N] [--profile default|test] [--mode deterministic|wallclock]\n\
         \n\
         --store DIR          grid store written by graphm-convert (required)\n\
         --socket PATH        unix-domain socket to listen on\n\
         --tcp ADDR           tcp address to listen on, e.g. 127.0.0.1:7421\n\
         --batch-window-ms N  idle-round batching window (default 20)\n\
         --profile NAME       simulated memory profile (default|test)\n\
         --mode NAME          deterministic (virtual-time replay, the default) or\n\
                              wallclock (threaded sweeps + partition prefetch)\n\
         --memory-budget B    page-cache budget in bytes; past it the store\n\
                              releases segments behind the sweep frontier with\n\
                              madvise(MADV_DONTNEED) (default 0 = unlimited)\n\
         --prefetch-lookahead N  max announced readahead depth (default 16)\n\
         --fixed-prefetch     disable the adaptive prefetch window (advise the\n\
                              full announced lookahead)\n\
         --no-rotate          do not adopt delta generations published by\n\
                              graphm-delta; serve the open-time generation\n\
                              forever (default: rotate between rounds)\n\
         --ingest             serve ingest/ingest_commit sessions: acquire the\n\
                              store's writer lease and group-commit client\n\
                              mutation batches through its WAL (off by default;\n\
                              incompatible with an external graphm-delta writer)\n\
         --max-pending N      admission control: shed submissions past N queued\n\
                              jobs with a typed 'overloaded' error (default 0 =\n\
                              unlimited)\n\
         --max-connections N  shed accepts past N live connections with one\n\
                              typed 'overloaded' error line (default 0)\n\
         --read-timeout-ms N  close connections idle in a read for N ms\n\
                              (default 0 = no timeout)\n\
         --max-line-bytes N   reject request lines over N bytes with a typed\n\
                              'line_too_long' error (default 1048576)\n\
         --tenant-max-pending N   per-tenant queued-jobs quota (default 0)\n\
         --tenant-max-inflight N  per-tenant queued+running quota (default 0)\n\
         --max-batch-per-round N  admit at most N batch-priority jobs per\n\
                              round; interactive jobs always join (default 0)\n\
         --shed-eviction-rate R   shed batch submissions while the store's\n\
                              evictions-per-round EWMA exceeds R (default 0 =\n\
                              disabled)\n\
         --auth-token TOKEN   require an 'auth' handshake with this shared\n\
                              secret before any other request on TCP (unix\n\
                              sockets are exempt; their SO_PEERCRED identity\n\
                              is logged at accept)\n\
         --follow ADDR        run as a follower replica: tail the primary at\n\
                              ADDR (tcp), replay its published delta\n\
                              generations into --store, and serve reads only\n\
                              until promoted with 'graphm-client promote'\n\
                              (incompatible with --ingest)\n\
         --max-replica-lag N  follower staleness bound: reject submissions\n\
                              with a typed 'stale_replica' error while more\n\
                              than N generations behind the primary\n\
                              (default 0 = serve at any lag)\n\
         --repl-backoff-ms N  base delay for the follower's jittered\n\
                              reconnect backoff (default 200)\n\
         \n\
         GRAPHM_FAILPOINT=point[@skip] arms a store read-path fault-injection\n\
         point (chaos testing), e.g. read:load@3\n\
         \n\
         at least one of --socket / --tcp is required"
    );
    exit(2);
}

fn main() {
    let mut store: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut tcp: Option<String> = None;
    let mut window_ms: u64 = 20;
    let mut profile = graphm_graph::MemoryProfile::DEFAULT;
    let mut mode = ExecutionMode::Deterministic;
    let mut memory_budget: u64 = 0;
    let mut prefetch_lookahead: usize = graphm_store::DEFAULT_MAX_PREFETCH_LOOKAHEAD;
    let mut adaptive_prefetch = true;
    let mut auto_rotate = true;
    let mut enable_ingest = false;
    let mut max_pending: usize = 0;
    let mut max_connections: usize = 0;
    let mut read_timeout_ms: u64 = 0;
    let mut max_line_bytes: usize = 1 << 20;
    let mut tenant_max_pending: usize = 0;
    let mut tenant_max_inflight: usize = 0;
    let mut max_batch_per_round: usize = 0;
    let mut shed_eviction_rate: f64 = 0.0;
    let mut auth_token: Option<String> = None;
    let mut follow: Option<String> = None;
    let mut max_replica_lag: u64 = 0;
    let mut repl_backoff_ms: u64 = 200;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--store" => store = Some(PathBuf::from(value("--store"))),
            "--socket" => socket = Some(PathBuf::from(value("--socket"))),
            "--tcp" => tcp = Some(value("--tcp")),
            "--batch-window-ms" => {
                window_ms = value("--batch-window-ms").parse().unwrap_or_else(|_| usage())
            }
            "--profile" => {
                profile = match value("--profile").as_str() {
                    "default" => graphm_graph::MemoryProfile::DEFAULT,
                    "test" => graphm_graph::MemoryProfile::TEST,
                    other => {
                        eprintln!("unknown profile {other:?}");
                        usage();
                    }
                }
            }
            "--mode" => {
                mode = ExecutionMode::from_name(&value("--mode")).unwrap_or_else(|| {
                    eprintln!("unknown mode (expected deterministic or wallclock)");
                    usage();
                })
            }
            "--memory-budget" => {
                memory_budget = value("--memory-budget").parse().unwrap_or_else(|_| usage())
            }
            "--prefetch-lookahead" => {
                prefetch_lookahead =
                    value("--prefetch-lookahead").parse().unwrap_or_else(|_| usage())
            }
            "--fixed-prefetch" => adaptive_prefetch = false,
            "--no-rotate" => auto_rotate = false,
            "--ingest" => enable_ingest = true,
            "--max-pending" => {
                max_pending = value("--max-pending").parse().unwrap_or_else(|_| usage())
            }
            "--max-connections" => {
                max_connections = value("--max-connections").parse().unwrap_or_else(|_| usage())
            }
            "--read-timeout-ms" => {
                read_timeout_ms = value("--read-timeout-ms").parse().unwrap_or_else(|_| usage())
            }
            "--max-line-bytes" => {
                max_line_bytes = value("--max-line-bytes").parse().unwrap_or_else(|_| usage())
            }
            "--tenant-max-pending" => {
                tenant_max_pending =
                    value("--tenant-max-pending").parse().unwrap_or_else(|_| usage())
            }
            "--tenant-max-inflight" => {
                tenant_max_inflight =
                    value("--tenant-max-inflight").parse().unwrap_or_else(|_| usage())
            }
            "--max-batch-per-round" => {
                max_batch_per_round =
                    value("--max-batch-per-round").parse().unwrap_or_else(|_| usage())
            }
            "--shed-eviction-rate" => {
                shed_eviction_rate =
                    value("--shed-eviction-rate").parse().unwrap_or_else(|_| usage())
            }
            "--auth-token" => auth_token = Some(value("--auth-token")),
            "--follow" => follow = Some(value("--follow")),
            "--max-replica-lag" => {
                max_replica_lag = value("--max-replica-lag").parse().unwrap_or_else(|_| usage())
            }
            "--repl-backoff-ms" => {
                repl_backoff_ms = value("--repl-backoff-ms").parse().unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let Some(store) = store else { usage() };
    if socket.is_none() && tcp.is_none() {
        usage();
    }

    let mut config = ServerConfig::new(store);
    config.socket_path = socket;
    config.tcp_addr = tcp;
    config.batch_window = Duration::from_millis(window_ms);
    config.profile = profile;
    config.mode = mode;
    config.memory_budget_bytes = memory_budget;
    config.max_prefetch_lookahead = prefetch_lookahead.max(1);
    config.adaptive_prefetch = adaptive_prefetch;
    config.auto_rotate = auto_rotate;
    config.enable_ingest = enable_ingest;
    config.max_pending = max_pending;
    config.max_connections = max_connections;
    config.read_timeout = Duration::from_millis(read_timeout_ms);
    config.max_line_bytes = max_line_bytes;
    config.tenant_max_pending = tenant_max_pending;
    config.tenant_max_inflight = tenant_max_inflight;
    config.max_batch_per_round = max_batch_per_round;
    config.shed_eviction_rate = shed_eviction_rate;
    config.auth_token = auth_token;
    config.follow = follow.clone();
    config.max_replica_lag = max_replica_lag;
    config.repl_backoff = Duration::from_millis(repl_backoff_ms);

    // Chaos harness: arm one process-global store read-path failpoint
    // from the environment, so CI can inject I/O faults into a stock
    // daemon binary without a special build.
    if let Ok(spec) = std::env::var("GRAPHM_FAILPOINT") {
        if !spec.is_empty() {
            match graphm_graph::failpoint::arm_global_from_spec(&spec) {
                Some((point, skip)) => {
                    eprintln!("[graphm-server] fault injection armed: {point} (skip {skip})")
                }
                None => {
                    eprintln!("bad GRAPHM_FAILPOINT {spec:?} (expected point[@skip])");
                    exit(2);
                }
            }
        }
    }

    let server = Server::start(config).unwrap_or_else(|e| {
        eprintln!("failed to start: {e}");
        exit(1);
    });
    if let Some(path) = server.socket_path() {
        eprintln!("[graphm-server] listening on unix socket {}", path.display());
    }
    if let Some(addr) = server.tcp_addr() {
        eprintln!("[graphm-server] listening on tcp {addr}");
    }
    let stats = server.stats();
    eprintln!(
        "[graphm-server] serving {} partitions over {} vertices in {} mode; \
         submit with graphm-client",
        stats.num_partitions,
        stats.num_vertices,
        mode.name()
    );
    if stats.lease_held != 0 {
        eprintln!(
            "[graphm-server] ingest enabled: holding writer lease epoch {}",
            stats.lease_epoch
        );
    }
    if let Some(peer) = &follow {
        eprintln!("[graphm-server] follower replica: tailing primary at {peer}");
    }
    // Park until a client requests shutdown; queued jobs drain first.
    server.join();
    eprintln!("[graphm-server] shut down");
}
