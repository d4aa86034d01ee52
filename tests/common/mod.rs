//! Scaffolding the integration test files share; each one that needs it
//! declares `mod common;`. Every test binary compiles all of it and uses
//! a part, hence the `dead_code` allowance.
#![allow(dead_code)]

pub mod history;

use graphm::core::{JobReport, PartitionSource};
use graphm::graph::{DeltaRecord, EdgeList, Grid, MemoryProfile};
use graphm::server::{Client, Server, ServerConfig};
use graphm::store::{Convert, DiskGridSource};
use graphm::workloads::{AlgoKind, JobSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// A fresh directory for the store of test `name`, under the system
/// temporary directory and named after the test file and the process,
/// so that test files and concurrent runs never share one. What a
/// crashed run left there is removed first.
pub fn store_dir(name: &str) -> PathBuf {
    let dir = format!("graphm-{}-{name}-{}", env!("CARGO_CRATE_NAME"), std::process::id());
    let p = std::env::temp_dir().join(dir);
    std::fs::remove_dir_all(&p).ok();
    p
}

/// A test's [`store_dir`], removed when dropped (declare it before the
/// daemon or writer over it, so that it outlives them).
pub struct Store(PathBuf);

impl Store {
    /// `g` converted to a `p × p` grid.
    pub fn convert(name: &str, g: &EdgeList, p: usize) -> Store {
        let store = Store(store_dir(name));
        Convert::grid(p).write(g, &store).unwrap();
        store
    }

    /// A follower seeded from `primary`: generation 0 replicates by
    /// copying the base store (the directory is flat). Must run before
    /// either side opens a writer, so no lease or WAL state is cloned.
    pub fn follower(name: &str, primary: &Path) -> Store {
        let store = Store(store_dir(name));
        std::fs::create_dir_all(&store.0).unwrap();
        for entry in std::fs::read_dir(primary).unwrap() {
            let e = entry.unwrap();
            std::fs::copy(e.path(), store.join(e.file_name())).unwrap();
        }
        store
    }
}

impl std::ops::Deref for Store {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A daemon over `dir` on a unix socket named like [`store_dir`]'s
/// directories, with the `TEST` memory profile and a `batch_ms` window.
pub fn daemon_config(dir: &Path, name: &str, batch_ms: u64) -> ServerConfig {
    let mut config = ServerConfig::new(dir);
    let socket = format!("graphm-{}-{name}-{}.sock", env!("CARGO_CRATE_NAME"), std::process::id());
    config.socket_path = Some(std::env::temp_dir().join(socket));
    config.profile = MemoryProfile::TEST;
    config.batch_window = Duration::from_millis(batch_ms);
    config
}

/// A daemon started on `config` and a client on its unix socket. The
/// daemon shuts down (and removes its socket) when dropped.
pub fn serve(config: ServerConfig) -> (Server, Client) {
    let server = Server::start(config).expect("daemon starts");
    let client = Client::connect_unix(server.socket_path().unwrap()).expect("connect");
    (server, client)
}

/// An edge as a bit-comparable triple (`weight` by its raw bits, so two
/// stores agree only when every byte of the merged view agrees).
pub type EdgeBits = (u32, u32, u32);

/// The store's merged view in partition-major order — the exact edge
/// stream a reader consumes. Equal vectors ⇒ bit-identical generations.
pub fn read_merged(dir: &Path) -> (u64, Vec<EdgeBits>) {
    let src = DiskGridSource::open(dir).expect("open store for inspection");
    let mut edges = Vec::new();
    for pid in 0..src.num_partitions() {
        edges.extend(src.load(pid).iter().map(|e| (e.src, e.dst, e.weight.to_bits())));
    }
    (src.generation(), edges)
}

/// A from-scratch conversion of `g` to a `p × p` grid, partition-major:
/// what [`read_merged`] must read from a store whose generation is `g`.
pub fn converted(g: &EdgeList, p: usize) -> Vec<EdgeBits> {
    let grid = Grid::convert(g, p);
    let blocks = (0..grid.num_blocks()).flat_map(|pid| grid.block_by_index(pid).iter());
    blocks.map(|e| (e.src, e.dst, e.weight.to_bits())).collect()
}

/// A deterministic mutation batch touching all partitions: base edges
/// tombstoned (every copy) plus fresh inserts, varied by `salt` so
/// successive generations differ.
pub fn batch(g: &EdgeList, salt: u32) -> Vec<DeltaRecord> {
    let mut records = Vec::new();
    for e in g.edges.iter().skip(salt as usize).step_by(151).take(8) {
        records.push(DeltaRecord::delete(e.src, e.dst));
    }
    let nv = g.num_vertices;
    for i in 0..25u32 {
        let k = i + salt * 31;
        records.push(DeltaRecord::insert((k * 29) % nv, (k * 83 + 7) % nv, 1.5 + salt as f32));
    }
    records
}

pub fn pagerank(max_iters: usize) -> JobSpec {
    JobSpec { kind: AlgoKind::PageRank, damping: 0.85, root: 0, max_iters }
}

pub fn assert_values_identical(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: lengths");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: vertex {i}: {x} vs {y}");
    }
}

/// Two served reports of one spec agree in everything but their clocks.
pub fn assert_served_identical(got: &JobReport, want: &JobReport) {
    assert_eq!((&got.name, got.iterations), (&want.name, want.iterations));
    assert_eq!(got.edges_processed, want.edges_processed, "{}", got.name);
    assert_values_identical(&got.values, &want.values, &got.name);
}

/// Two simulator runs agree in every field, clocks included.
pub fn assert_job_reports_identical(mem: &[JobReport], disk: &[JobReport], ctx: &str) {
    assert_eq!(mem.len(), disk.len(), "{ctx}: job counts");
    for (a, b) in mem.iter().zip(disk) {
        let ctx = format!("{ctx}: {} {}", a.id, a.name);
        assert_eq!((a.id, a.instructions), (b.id, b.instructions), "{ctx}");
        assert_eq!(a.submit_ns.to_bits(), b.submit_ns.to_bits(), "{ctx}");
        assert_eq!(a.finish_ns.to_bits(), b.finish_ns.to_bits(), "{ctx}");
        assert_served_identical(a, b);
    }
}

pub fn poll_until<T>(what: &str, deadline: Duration, mut probe: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Serializes access to the process-global failpoint registry: a global
/// arm set by one test must never be consumed by another test's thread.
/// Tests that arm nothing globally share it; a test that does holds it
/// alone, and finds the registry reset.
static FAILPOINTS: RwLock<()> = RwLock::new(());

pub fn failpoints_shared() -> RwLockReadGuard<'static, ()> {
    FAILPOINTS.read().unwrap_or_else(|e| e.into_inner())
}

pub fn failpoints_exclusive() -> RwLockWriteGuard<'static, ()> {
    let guard = FAILPOINTS.write().unwrap_or_else(|e| e.into_inner());
    graphm::graph::failpoint::reset_global();
    guard
}

/// Every replicated byte in the directory: all files except the node's
/// private lease (`EPOCH`) and WAL (`wal.log`).
pub fn replicated_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut map = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let e = entry.unwrap();
        let name = e.file_name().into_string().unwrap();
        if name != "EPOCH" && name != "wal.log" {
            map.insert(name, std::fs::read(e.path()).unwrap());
        }
    }
    map
}
