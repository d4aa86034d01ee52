//! A multi-tenant graph-job daemon, end to end in one process:
//! convert a graph to a disk store, start `graphm-server` on a unix
//! socket, submit a concurrent mix from several client connections, and
//! show the storage sharing across those socket-submitted jobs.
//!
//! Run with: `cargo run --release --example job_server`

use graphm::prelude::*;
use graphm::server::ServerConfig;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn main() {
    // 1. A graph, converted once into a disk-resident grid store (in real
    //    deployments: `graphm-convert --input graph.bin --grid 8 --out DIR`).
    let graph = graphm::graph::generators::rmat(
        2_000,
        16_000,
        graphm::graph::generators::RmatParams::GRAPH500,
        42,
    );
    let dir = std::env::temp_dir().join(format!("graphm-example-server-{}", std::process::id()));
    Convert::grid(4).write(&graph, &dir).expect("convert");
    println!("store: {}", dir.display());

    // 2. The daemon: one mmap'd store, one sweep driver on real cores,
    //    many tenants. Jobs are admitted once no submitting connection is
    //    mid-burst, so a concurrent burst shares from sweep one; the batch
    //    window caps how long a job waits for a burst beside it.
    let mut config = ServerConfig::new(&dir);
    config.socket_path = Some(dir.join("graphm.sock"));
    config.profile = MemoryProfile::TEST;
    config.batch_window = Duration::from_millis(300);
    let server = Server::start(config).expect("server starts");
    let socket = server.socket_path().unwrap().to_path_buf();
    println!("daemon: listening on {}", socket.display());

    // 3. Four independent "tenants", each on its own connection,
    //    submitting different algorithms at the same time.
    let specs = [
        JobSpec { kind: AlgoKind::PageRank, damping: 0.85, root: 0, max_iters: 10 },
        JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 10 },
        JobSpec { kind: AlgoKind::Bfs, damping: 0.85, root: 17, max_iters: 50 },
        JobSpec { kind: AlgoKind::Sssp, damping: 0.85, root: 23, max_iters: 50 },
    ];
    //    Every tenant submits before any of them waits: a tenant's burst
    //    is open until its `wait`, so all four land in one admission.
    let submitted = Arc::new(Barrier::new(specs.len()));
    let handles: Vec<_> = specs
        .into_iter()
        .map(|spec| {
            let socket = socket.clone();
            let submitted = Arc::clone(&submitted);
            std::thread::spawn(move || {
                let mut client = Client::connect_unix(&socket).expect("connect");
                let id = client.submit(&spec).expect("submit");
                submitted.wait();
                let report = client.wait(id).expect("wait");
                (id, report)
            })
        })
        .collect();

    println!("\n  id  algorithm  iterations  edges_processed");
    let mut total_iterations = 0u64;
    for h in handles {
        let (id, r) = h.join().expect("tenant");
        println!("  {id:>2}  {:<9}  {:>10}  {:>15}", r.name, r.iterations, r.edges_processed);
        total_iterations += r.iterations as u64;
    }

    // 4. The sharing evidence: loads counted once per (sweep, partition),
    //    not once per (job, iteration) — the gap is the paper's whole
    //    point, now across real client connections.
    let stats = server.stats();
    println!(
        "\npartition loads: {} shared (unshared per-job loading would be up to {} = \
         {total_iterations} job-iterations x {} partitions)",
        stats.partition_loads,
        total_iterations * stats.num_partitions,
        stats.num_partitions
    );
    println!("rounds: {}  daemon uptime: {} ms", stats.rounds, stats.uptime_ms);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
