//! `graphm-client` — command-line client for `graphm-server`.
//!
//! ```text
//! graphm-client (--socket PATH | --tcp ADDR[,ADDR...])
//!               [--retries N] [--backoff-ms N] [--auth-token TOKEN]
//!               COMMAND
//!
//! commands:
//!   submit ALGO [--damping X] [--root N] [--max-iters N] [--wait]
//!               [--tenant NAME] [--priority batch|interactive]
//!   status JOB_ID
//!   wait JOB_ID
//!   stats
//!   health
//!   repl-status
//!   promote
//!   ping
//!   shutdown
//!   ingest-edge SRC,DST[,WEIGHT]
//!   delete-edge SRC,DST
//!   ingest-random COUNT,SEED
//! ```
//!
//! `submit` prints `{"job_id":N}` (or, with `--wait`, the full report
//! JSON); `wait` prints the report — its `values` member is one string,
//! 16 lowercase hex digits per vertex spelling the little-endian bits of
//! its `f64` value (see `docs/OPERATIONS.md` for a decode recipe);
//! `stats` and `health` print the same status record, the daemon's
//! counters with its lease, generation, queue depth, role and uptime
//! (`health` is the name to poll for readiness); `repl-status` prints
//! the replication ledger and `promote` takes a follower through the
//! epoch fence to primary. The
//! `ingest-*` commands stage their mutations and group-commit them in
//! one connection, printing the durable generation (the daemon must run
//! with `--ingest`).
//!
//! `--tcp` accepts a comma-separated peer list (primary plus standbys):
//! connect failures and typed `not_primary` redirects rotate to the
//! next peer, so a scripted client rides through a failover. `--retries`
//! /`--backoff-ms` add jittered exponential backoff on connect
//! failures, `overloaded` rejections, and those rotations. A daemon
//! started with `--auth-token` requires the same token here.

use graphm_graph::delta::DeltaRecord;
use graphm_server::client::{retry_delay, splitmix};
use graphm_server::protocol::{report_to_json, spec_from_json};
use graphm_server::{Client, ClientError, Priority};
use serde_json::json;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: graphm-client (--socket PATH | --tcp ADDR[,ADDR...]) \
         [--retries N] [--backoff-ms N] [--auth-token TOKEN] COMMAND\n\
         \n\
         --retries N     retry connects, 'overloaded' rejections, and\n\
         \x20            'not_primary' redirects up to N times with jittered\n\
         \x20            exponential backoff (default 0)\n\
         --backoff-ms N  base backoff delay in milliseconds (default 50)\n\
         --auth-token T  authenticate with the daemon's shared secret before\n\
         \x20            the command (required on TCP when the daemon was\n\
         \x20            started with --auth-token)\n\
         \n\
         --tcp takes a comma-separated peer list (primary,standby,...);\n\
         connect failures and not_primary redirects rotate to the next peer\n\
         \n\
         commands:\n\
         submit ALGO [--damping X] [--root N] [--max-iters N] [--wait]\n\
         \x20      [--tenant NAME] [--priority batch|interactive]\n\
         \x20       ALGO: pagerank|wcc|bfs|sssp|ppr|labelprop\n\
         status JOB_ID\n\
         wait JOB_ID\n\
         stats                          the daemon's status record\n\
         health                         the same record (poll it for readiness)\n\
         repl-status                    replication role / lag / counters\n\
         promote                        promote a follower to primary\n\
         ping\n\
         shutdown\n\
         ingest-edge SRC,DST[,WEIGHT]   insert one edge and commit\n\
         delete-edge SRC,DST            tombstone one edge and commit\n\
         ingest-random COUNT,SEED       insert COUNT random edges (over the\n\
         \x20                           served vertex space) and commit"
    );
    exit(2);
}

/// Where and how to connect: one unix socket, or a rotating TCP peer
/// list (primary plus standbys).
struct Target {
    socket: Option<String>,
    tcp: Vec<String>,
    auth_token: Option<String>,
    /// Index into `tcp` of the peer to try next.
    peer: usize,
}

impl Target {
    /// Rotates to the next TCP peer (no-op for unix or a single peer).
    fn rotate(&mut self) {
        if !self.tcp.is_empty() {
            self.peer = (self.peer + 1) % self.tcp.len();
        }
    }
}

fn connect(target: &mut Target, retries: u32, backoff_ms: u64) -> Client {
    let mut rng = 0x9e37_79b9 ^ u64::from(std::process::id());
    let mut attempt = 0u32;
    loop {
        let result = match (&target.socket, target.tcp.is_empty()) {
            (Some(path), true) => Client::connect_unix(std::path::Path::new(path)),
            (None, false) => Client::connect_tcp(target.tcp[target.peer].as_str()),
            _ => usage(),
        };
        match result {
            Ok(mut client) => {
                if let Some(token) = &target.auth_token {
                    // A wrong secret never fixes itself: fail hard.
                    client.auth(token).unwrap_or_else(|e| fail(e));
                }
                return client;
            }
            Err(e) if attempt < retries => {
                let delay = retry_delay(backoff_ms, attempt, &mut rng);
                attempt += 1;
                target.rotate();
                eprintln!(
                    "[graphm-client] connect failed ({e}); retry {attempt}/{retries} \
                     in {}ms",
                    delay.as_millis()
                );
                std::thread::sleep(delay);
            }
            Err(e) => {
                eprintln!("failed to connect: {e}");
                exit(1);
            }
        }
    }
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("{e}");
    exit(1);
}

fn main() {
    let mut socket: Option<String> = None;
    let mut tcp: Vec<String> = Vec::new();
    let mut auth_token: Option<String> = None;
    let mut retries: u32 = 0;
    let mut backoff_ms: u64 = 50;
    let mut rest: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = Some(args.next().unwrap_or_else(|| usage())),
            "--tcp" => {
                tcp = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--auth-token" => auth_token = Some(args.next().unwrap_or_else(|| usage())),
            "--retries" => {
                retries = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--backoff-ms" => {
                backoff_ms = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ => {
                rest.push(arg);
                rest.extend(args);
                break;
            }
        }
    }
    if rest.is_empty() {
        usage();
    }

    let mut target = Target { socket, tcp, auth_token, peer: 0 };
    let mut client = connect(&mut target, retries, backoff_ms);
    let job_id_arg = |rest: &[String]| -> usize {
        rest.get(1).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
    };
    match rest[0].as_str() {
        "ping" => {
            client.ping().unwrap_or_else(|e| fail(e));
            println!("{}", json!({ "pong": true }));
        }
        "stats" => {
            let stats = client.stats().unwrap_or_else(|e| fail(e));
            println!("{}", stats.to_json());
        }
        "health" => {
            let health = client.health().unwrap_or_else(|e| fail(e));
            println!("{}", health.to_json());
        }
        "repl-status" => {
            let repl = client.repl_status().unwrap_or_else(|e| fail(e));
            println!("{repl}");
        }
        "promote" => {
            let epoch = client.promote().unwrap_or_else(|e| fail(e));
            println!("{}", json!({ "role": "primary", "epoch": epoch }));
        }
        "shutdown" => {
            client.shutdown_server().unwrap_or_else(|e| fail(e));
            println!("{}", json!({ "shutting_down": true }));
        }
        "status" => {
            let state = client.status(job_id_arg(&rest)).unwrap_or_else(|e| fail(e));
            println!("{}", json!({ "state": state.name() }));
        }
        "wait" => {
            let report = client.wait(job_id_arg(&rest)).unwrap_or_else(|e| fail(e));
            println!("{}", report_to_json(&report));
        }
        "submit" => {
            let algo = rest.get(1).unwrap_or_else(|| usage()).clone();
            let mut params = json!({ "algo": algo });
            let serde_json::Value::Object(map) = &mut params else { unreachable!() };
            let mut wait = false;
            let mut tenant = String::new();
            let mut priority = Priority::Batch;
            let mut it = rest[2..].iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next().map(|s| s.as_str()).unwrap_or_else(|| {
                        eprintln!("{name} needs a value");
                        usage()
                    })
                };
                match flag.as_str() {
                    "--damping" => {
                        let d: f64 = value("--damping").parse().unwrap_or_else(|_| usage());
                        map.insert("damping".into(), serde_json::Value::Number(d));
                    }
                    "--root" => {
                        let r: u64 = value("--root").parse().unwrap_or_else(|_| usage());
                        map.insert("root".into(), serde_json::Value::from(r));
                    }
                    "--max-iters" => {
                        let m: u64 = value("--max-iters").parse().unwrap_or_else(|_| usage());
                        map.insert("max_iters".into(), serde_json::Value::from(m));
                    }
                    "--tenant" => tenant = value("--tenant").to_string(),
                    "--priority" => {
                        priority = Priority::from_name(value("--priority")).unwrap_or_else(|| {
                            eprintln!("unknown priority (expected batch or interactive)");
                            usage();
                        })
                    }
                    "--wait" => wait = true,
                    other => {
                        eprintln!("unknown flag: {other}");
                        usage();
                    }
                }
            }
            let spec = spec_from_json(&params).unwrap_or_else(|e| fail(e));
            // Overloaded rejections are the daemon telling us to back
            // off, not a hard failure: retry on the same connection.
            // not_primary redirects, stale replicas, and transport
            // drops (a primary dying mid-failover) rotate the peer
            // list and reconnect — the ride-through path for failover.
            let mut rng = 0xb5ad_4ece ^ u64::from(std::process::id());
            let mut attempt = 0u32;
            let id = loop {
                match client.submit_as(&spec, &tenant, priority) {
                    Ok(id) => break id,
                    Err(ClientError::Overloaded(m)) if attempt < retries => {
                        let delay = retry_delay(backoff_ms, attempt, &mut rng);
                        attempt += 1;
                        eprintln!(
                            "[graphm-client] overloaded ({m}); retry {attempt}/{retries} \
                             in {}ms",
                            delay.as_millis()
                        );
                        std::thread::sleep(delay);
                    }
                    Err(
                        e @ (ClientError::NotPrimary(_)
                        | ClientError::StaleReplica(_)
                        | ClientError::Io(_)),
                    ) if attempt < retries => {
                        let delay = retry_delay(backoff_ms, attempt, &mut rng);
                        attempt += 1;
                        target.rotate();
                        eprintln!(
                            "[graphm-client] {e}; rotating peer, retry {attempt}/{retries} \
                             in {}ms",
                            delay.as_millis()
                        );
                        std::thread::sleep(delay);
                        client = connect(&mut target, retries.saturating_sub(attempt), backoff_ms);
                    }
                    Err(e) => fail(e),
                }
            };
            if wait {
                let report = client.wait(id).unwrap_or_else(|e| fail(e));
                println!("{}", report_to_json(&report));
            } else {
                println!("{}", json!({ "job_id": id }));
            }
        }
        "ingest-edge" | "delete-edge" => {
            let parts: Vec<&str> = rest.get(1).unwrap_or_else(|| usage()).split(',').collect();
            let vertex = |s: &&str| s.parse::<u32>().unwrap_or_else(|_| usage());
            let weight = |s: &&str| s.parse::<f32>().unwrap_or_else(|_| usage());
            let deleting = rest[0] == "delete-edge";
            let ops = match (deleting, parts.as_slice()) {
                (true, [src, dst]) => vec![DeltaRecord::delete(vertex(src), vertex(dst))],
                (false, [src, dst]) => vec![DeltaRecord::insert(vertex(src), vertex(dst), 1.0)],
                (false, [src, dst, w]) => {
                    vec![DeltaRecord::insert(vertex(src), vertex(dst), weight(w))]
                }
                _ => usage(),
            };
            client.ingest(&ops).unwrap_or_else(|e| fail(e));
            let (generation, records) = client.ingest_commit().unwrap_or_else(|e| fail(e));
            println!("{}", json!({ "generation": generation, "records": records }));
        }
        "ingest-random" => {
            let parts: Vec<u64> = rest
                .get(1)
                .unwrap_or_else(|| usage())
                .split(',')
                .map(|s| s.parse().unwrap_or_else(|_| usage()))
                .collect();
            let [count, seed] = parts.as_slice() else { usage() };
            let nv = client.stats().unwrap_or_else(|e| fail(e)).num_vertices;
            if nv == 0 {
                fail("served store has no vertices");
            }
            let mut state = *seed;
            let ops: Vec<DeltaRecord> = (0..*count)
                .map(|_| {
                    let src = (splitmix(&mut state) % nv) as u32;
                    let dst = (splitmix(&mut state) % nv) as u32;
                    DeltaRecord::insert(src, dst, 1.0)
                })
                .collect();
            client.ingest(&ops).unwrap_or_else(|e| fail(e));
            let (generation, records) = client.ingest_commit().unwrap_or_else(|e| fail(e));
            println!("{}", json!({ "generation": generation, "records": records }));
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
        }
    }
}
