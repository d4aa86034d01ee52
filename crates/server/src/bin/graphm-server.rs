//! `graphm-server` — the multi-tenant graph-job daemon.
//!
//! Opens one disk-resident grid store and serves job submissions over a
//! unix-domain socket and/or TCP until a client sends `shutdown` (or the
//! process is killed).
//!
//! Every flag is listed by `graphm-server --help` and explained in
//! `docs/OPERATIONS.md`.
//!
//! Setting `GRAPHM_FAILPOINT=point[@skip]` (e.g. `read:load@3`) arms a
//! process-global fault-injection point in the store read path — for
//! chaos testing that injected I/O errors surface as per-job failures
//! while the daemon keeps serving.

use graphm_server::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: graphm-server --store DIR [--socket PATH] [--tcp ADDR] \
         [--batch-window-ms N] [--profile default|test]\n\
         \n\
         --store DIR          grid store written by graphm-convert (required)\n\
         --socket PATH        unix-domain socket to listen on\n\
         --tcp ADDR           tcp address to listen on, e.g. 127.0.0.1:7421\n\
         --batch-window-ms N  longest a pending job waits for its connection's\n\
                              burst of submissions to end (default 20)\n\
         --profile NAME       memory profile chunks are sized for (default|test)\n\
         --memory-budget B    page-cache budget in bytes; past it the store\n\
                              releases segments behind the sweep frontier with\n\
                              madvise(MADV_DONTNEED) (default 0 = unlimited)\n\
         --no-rotate          do not adopt delta generations published by\n\
                              graphm-delta; serve the open-time generation\n\
                              forever (default: rotate when nothing is in flight)\n\
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
         --max-batch-per-round N  keep at most N batch-priority jobs in flight;\n\
                              interactive jobs always join (default 0)\n\
         --shed-eviction-rate R   shed batch submissions while the store's\n\
                              evictions-per-admission EWMA exceeds R (default 0 =\n\
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

/// Parses a flag's numeric value; anything else is a usage error.
fn number<T: std::str::FromStr>(text: String) -> T {
    text.parse().unwrap_or_else(|_| usage())
}

fn main() {
    // Flags write straight into the config, so `ServerConfig::new` is the
    // one place the defaults live.
    let mut config = ServerConfig::new(PathBuf::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("{arg} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--store" => config.store_dir = PathBuf::from(value()),
            "--socket" => config.socket_path = Some(PathBuf::from(value())),
            "--tcp" => config.tcp_addr = Some(value()),
            "--batch-window-ms" => config.batch_window = Duration::from_millis(number(value())),
            "--profile" => {
                config.profile = match value().as_str() {
                    "default" => graphm_graph::MemoryProfile::DEFAULT,
                    "test" => graphm_graph::MemoryProfile::TEST,
                    other => {
                        eprintln!("unknown profile {other:?}");
                        usage();
                    }
                }
            }
            "--memory-budget" => config.memory_budget_bytes = number(value()),
            "--no-rotate" => config.auto_rotate = false,
            "--ingest" => config.enable_ingest = true,
            "--max-pending" => config.max_pending = number(value()),
            "--max-connections" => config.max_connections = number(value()),
            "--read-timeout-ms" => config.read_timeout = Duration::from_millis(number(value())),
            "--max-line-bytes" => config.max_line_bytes = number(value()),
            "--tenant-max-pending" => config.tenant_max_pending = number(value()),
            "--tenant-max-inflight" => config.tenant_max_inflight = number(value()),
            "--max-batch-per-round" => config.max_batch_per_round = number(value()),
            "--shed-eviction-rate" => config.shed_eviction_rate = number(value()),
            "--auth-token" => config.auth_token = Some(value()),
            "--follow" => config.follow = Some(value()),
            "--max-replica-lag" => config.max_replica_lag = number(value()),
            "--repl-backoff-ms" => config.repl_backoff = Duration::from_millis(number(value())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    let no_listener = config.socket_path.is_none() && config.tcp_addr.is_none();
    if config.store_dir.as_os_str().is_empty() || no_listener {
        usage();
    }
    let (follow, ingest) = (config.follow.clone(), config.enable_ingest);

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
        "[graphm-server] serving {} partitions over {} vertices; submit with graphm-client",
        stats.num_partitions, stats.num_vertices
    );
    if ingest {
        eprintln!("[graphm-server] ingest enabled");
    }
    if stats.lease_held != 0 {
        eprintln!("[graphm-server] holding writer lease epoch {}", stats.lease_epoch);
    }
    if let Some(peer) = &follow {
        eprintln!("[graphm-server] follower replica: tailing primary at {peer}");
    }
    // Park until a client requests shutdown; queued jobs drain first.
    server.join();
    eprintln!("[graphm-server] shut down");
}
