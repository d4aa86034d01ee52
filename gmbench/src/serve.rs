//! Driving the real serving path: set-up of a store and an in-process
//! daemon, the closed-loop reader and open-loop writer that load it over
//! its unix socket, and the checks that what came back is right.

use crate::plan::{Scale, Workload};
use graphm_core::{JobReport, PartitionSource, WallClockConfig, WallClockExecutor};
use graphm_graph::delta::DeltaRecord;
use graphm_graph::{EdgeList, MemoryProfile, EDGE_BYTES};
use graphm_server::{Client, ExecutionMode, Server, ServerConfig, ServerStats};
use graphm_store::{CompactionPolicy, Convert, DeltaStats, DeltaWriter, DiskGridSource};
use graphm_workloads::JobSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pause between `Server::start` returning and the first connect (see
/// [`setup`]); counted in `setup_s`.
const ACCEPT_RACE_PAUSE: Duration = Duration::from_millis(2);

/// Upper limit on set-up repetitions in one run.
const MAX_SETUP_REPS: usize = 40;

/// How many failure messages a run keeps for display.
const MAX_ERRORS: usize = 5;

/// A harness-side span around one client call (or one whole window).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index (within this connection's spans) of the window that caused
    /// this call.
    pub parent: Option<usize>,
    /// Spans of one job share its position in the job mix.
    pub request: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// One connection's spans plus the daemon counters at its window
/// boundaries. Kept in memory; the caller writes it out at exit.
pub struct Trace {
    epoch: Instant,
    pub conn: usize,
    pub spans: Vec<Span>,
    pub snaps: Vec<(f64, ServerStats)>,
}

impl Trace {
    pub fn new(epoch: Instant, conn: usize) -> Trace {
        Trace { epoch, conn, spans: Vec::new(), snaps: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str) -> usize {
        let now = self.now_us();
        self.spans.push(Span { name, parent: None, request: None, start_us: now, end_us: now });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_us = self.now_us();
    }

    fn snap(&mut self, server: &Server) {
        self.snaps.push((self.now_us(), server.stats()));
    }
}

/// Runs `call`, recording a span around it when tracing is on.
fn spanned<T>(
    trace: &mut Option<Trace>,
    name: &'static str,
    parent: Option<usize>,
    request: Option<usize>,
    call: impl FnOnce() -> T,
) -> T {
    let Some(t) = trace else { return call() };
    let start_us = t.now_us();
    let out = call();
    let end_us = t.now_us();
    t.spans.push(Span { name, parent, request, start_us, end_us });
    out
}

/// Attempt / failure tally with the first few messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

/// A running in-process daemon over a freshly written store.
pub struct Daemon {
    pub server: Server,
    pub socket: PathBuf,
    pub store: PathBuf,
}

pub struct Setup {
    pub daemon: Daemon,
    /// One timing per repetition: `Convert::write` + chain publish (if
    /// any) + `Server::start` until `health` answers.
    pub setup_s: Vec<f64>,
    pub partitions: usize,
    /// Base payload the store holds, in bytes.
    pub store_bytes: u64,
}

/// The daemon configuration of a workload: defaults, except the mode, the
/// socket, and the one field the workload names.
pub fn server_config(w: Workload, store: &Path, store_bytes: u64) -> ServerConfig {
    let mut config = ServerConfig::new(store);
    config.socket_path = Some(store.join("s.sock"));
    config.mode = ExecutionMode::Wallclock;
    match w {
        Workload::MixResident | Workload::SmallRt => {}
        Workload::EvolvingOoc => config.memory_budget_bytes = store_bytes / 2,
        Workload::IngestServe => config.enable_ingest = true,
    }
    config
}

/// Publishes `chain` onto the store in `dir`, one generation per batch,
/// never compacting.
pub fn publish_chain(dir: &Path, chain: &[Vec<DeltaRecord>]) -> Result<(), String> {
    if chain.is_empty() {
        return Ok(());
    }
    let mut writer = DeltaWriter::open(dir)
        .map_err(|e| format!("open delta writer: {e}"))?
        .with_policy(CompactionPolicy::never());
    for batch in chain {
        for r in batch {
            let staged = if r.is_insert() {
                writer.insert(r.src, r.dst, r.weight)
            } else {
                writer.delete(r.src, r.dst)
            };
            staged.map_err(|e| format!("stage mutation: {e}"))?;
        }
        writer.publish().map_err(|e| format!("publish generation: {e}"))?;
    }
    Ok(())
}

/// Sets the workload's store and daemon up at least `scale.setup_reps`
/// times and for `scale.setup_seconds`, each time in a directory of its
/// own, and keeps the last one running.
pub fn setup(
    w: Workload,
    scale: &Scale,
    graph: &EdgeList,
    chain: &[Vec<DeltaRecord>],
    root: &Path,
) -> Result<Setup, String> {
    let store_bytes = (graph.num_edges() * EDGE_BYTES) as u64;
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..MAX_SETUP_REPS {
        if let Some((daemon, partitions)) = kept.take() {
            // A tiny store is up in milliseconds: repeat until the median
            // settles.
            if rep >= scale.setup_reps && setup_s.iter().sum::<f64>() >= scale.setup_seconds {
                kept = Some((daemon, partitions));
                break;
            }
            discard(daemon);
        }
        let store = root.join(format!("store-{rep}"));
        let t0 = Instant::now();
        let manifest = Convert::grid(scale.grid_p)
            .write(graph, &store)
            .map_err(|e| format!("convert: {e}"))?;
        publish_chain(&store, chain)?;
        let server = Server::start(server_config(w, &store, store_bytes))
            .map_err(|e| format!("server start: {e}"))?;
        let socket = store.join("s.sock");
        // The accept loop polls every 20 ms and takes its first look as
        // its thread starts. Connecting at once races that look (7 ms or
        // 27 ms to the first answer, by the scheduler's whim); connecting
        // a moment later meets the poll sleep every time, as a client
        // arriving at any other moment would.
        std::thread::sleep(ACCEPT_RACE_PAUSE);
        let answered = Client::connect_unix(&socket)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut c| c.health().map_err(|e| format!("health: {e}")));
        setup_s.push(t0.elapsed().as_secs_f64());
        let daemon = Daemon { server, socket, store };
        if let Err(e) = answered {
            discard(daemon);
            return Err(e);
        }
        kept = Some((daemon, manifest.partitions.len()));
    }
    let (daemon, partitions) = kept.expect("at least one set-up repetition ran");
    Ok(Setup { daemon, setup_s, partitions, store_bytes })
}

/// Stops a daemon and removes its store.
pub fn discard(daemon: Daemon) {
    daemon.server.shutdown();
    std::fs::remove_dir_all(&daemon.store).ok();
}

/// Checks served reports against this process's own single-threaded run
/// of the same jobs, bit for bit (`iterations` and every value).
///
/// What a job returns depends on which jobs shared its round: the §4
/// loading order follows the batch, and with it WCC's sweep count, a
/// capped WCC's labels and the last bits of PageRank's sums. So the
/// reference replays each served batch as the daemon composed it — jobs
/// of one wallclock batch carry the same `submit_ns`, and were drained in
/// id order — over a fresh conversion of `graph`.
pub fn check_reports(
    got: &[(usize, JobReport)],
    specs: &[JobSpec],
    graph: &EdgeList,
    grid_p: usize,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<(), String> {
    Convert::grid(grid_p).write(graph, scratch).map_err(|e| format!("reference convert: {e}"))?;
    let source =
        Arc::new(DiskGridSource::open(scratch).map_err(|e| format!("reference open: {e}"))?);
    let degrees = Arc::new(source.out_degrees());
    let executor = WallClockExecutor::new(
        Arc::clone(&source) as Arc<dyn PartitionSource>,
        WallClockConfig::new(MemoryProfile::DEFAULT),
        None,
    );
    let mut batches: BTreeMap<u64, Vec<&(usize, JobReport)>> = BTreeMap::new();
    for entry in got {
        batches.entry(entry.1.submit_ns.to_bits()).or_default().push(entry);
    }
    for batch in batches.values_mut() {
        batch.sort_by_key(|(_, report)| report.id);
        let jobs = batch
            .iter()
            .map(|(index, _)| specs[*index].instantiate(graph.num_vertices, &degrees))
            .collect();
        let reference = executor.run_batch_single_thread(jobs);
        for ((index, report), want) in batch.iter().zip(&reference.jobs) {
            tally.attempted += 1;
            let same_values = report.values.len() == want.values.len()
                && report.values.iter().zip(&want.values).all(|(a, b)| a.to_bits() == b.to_bits());
            if report.iterations != want.iterations || !same_values {
                tally.fail(format!(
                    "{} at mix position {index} differs from its reference \
                     (iterations {} vs {}, values equal: {same_values})",
                    report.name, report.iterations, want.iterations
                ));
            }
        }
    }
    drop(executor);
    drop(source);
    std::fs::remove_dir_all(scratch).ok();
    Ok(())
}

/// Acked ⇒ readable after restart: reopens `store` and compares every
/// partition with a fresh conversion of `model`. Returns where the
/// reopened store stands (generation, compactions so far).
pub fn check_restart(
    store: &Path,
    model: &EdgeList,
    grid_p: usize,
    scratch: &Path,
    tally: &mut Tally,
) -> Result<DeltaStats, String> {
    Convert::grid(grid_p).write(model, scratch).map_err(|e| format!("model convert: {e}"))?;
    let want = DiskGridSource::open(scratch).map_err(|e| format!("model open: {e}"))?;
    let got = DiskGridSource::open(store).map_err(|e| format!("reopen store: {e}"))?;
    for pid in 0..want.num_partitions() {
        tally.attempted += 1;
        if *got.load(pid) != *want.load(pid) {
            tally.fail(format!("partition {pid} differs from the model after restart"));
        }
    }
    drop(want);
    std::fs::remove_dir_all(scratch).ok();
    Ok(got.delta_stats())
}

/// One connection's closed loop: submit `inflight` jobs, wait for all of
/// them, repeat. Connection `conn` of `stride` takes mix positions
/// `conn, conn + stride, …`, so the sequence is fixed per seed.
pub struct Reader<'a> {
    client: Client,
    specs: &'a [JobSpec],
    next: usize,
    stride: usize,
    inflight: usize,
    vertices: usize,
    pub tally: Tally,
    pub trace: Option<Trace>,
}

/// What a measured run of one reader saw.
#[derive(Default)]
pub struct Measured {
    /// Per job: return of its `wait` minus send of its own `submit`.
    pub latencies_ms: Vec<f64>,
    pub window_ms: Vec<f64>,
    pub jobs: usize,
    pub elapsed_s: f64,
}

impl<'a> Reader<'a> {
    pub fn connect(
        socket: &Path,
        specs: &'a [JobSpec],
        conn: usize,
        stride: usize,
        inflight: usize,
        vertices: usize,
        trace: Option<Trace>,
    ) -> Result<Reader<'a>, String> {
        let client = Client::connect_unix(socket).map_err(|e| format!("connect: {e}"))?;
        let tally = Tally::default();
        Ok(Reader { client, specs, next: conn, stride, inflight, vertices, tally, trace })
    }

    /// One submit-N / wait-N window. Calls `done(mix position, report,
    /// latency ms)` for each job that came back whole; returns how many.
    pub fn window(
        &mut self,
        server: &Server,
        mut done: impl FnMut(usize, JobReport, f64),
    ) -> usize {
        let window = self.trace.as_mut().map(|t| t.open("window"));
        let mut sent = Vec::with_capacity(self.inflight);
        for _ in 0..self.inflight {
            let index = self.next % self.specs.len();
            self.next += self.stride;
            let spec = self.specs[index];
            self.tally.attempted += 1;
            let sent_at = Instant::now();
            let client = &mut self.client;
            match spanned(&mut self.trace, "submit", window, Some(index), || client.submit(&spec)) {
                Ok(id) => sent.push((index, id, sent_at)),
                Err(e) => self.tally.fail(format!("submit refused: {e}")),
            }
        }
        let mut completed = 0;
        for (index, id, sent_at) in sent {
            self.tally.attempted += 1;
            let client = &mut self.client;
            match spanned(&mut self.trace, "wait", window, Some(index), || client.wait(id)) {
                Ok(report) => {
                    let latency_ms = sent_at.elapsed().as_secs_f64() * 1e3;
                    if let Some(e) = &report.error {
                        self.tally.fail(format!("job {id} reported an error: {e}"));
                    } else if report.values.len() != self.vertices {
                        self.tally.fail(format!("job {id} returned a truncated report"));
                    } else {
                        completed += 1;
                        done(index, report, latency_ms);
                    }
                }
                Err(e) => self.tally.fail(format!("wait failed: {e}")),
            }
        }
        if let (Some(t), Some(w)) = (self.trace.as_mut(), window) {
            t.close(w);
            t.snap(server);
        }
        completed
    }

    /// Untimed windows before the measured run; keeps what came back so
    /// the caller can check it against the references.
    pub fn warm_up(&mut self, server: &Server, windows: usize) -> Vec<(usize, JobReport)> {
        let mut reports = Vec::new();
        for _ in 0..windows {
            self.window(server, |index, report, _| reports.push((index, report)));
        }
        reports
    }

    /// Repeats whole windows until `seconds` have elapsed, finishing the
    /// one it is in. Counting only whole windows keeps a slow window from
    /// quantising the job count; elapsed time runs to the end of the last
    /// window, so the rate stays honest.
    pub fn measure(&mut self, server: &Server, seconds: f64) -> Measured {
        let mut m = Measured::default();
        if let Some(t) = self.trace.as_mut() {
            t.snap(server);
        }
        let start = Instant::now();
        loop {
            let window_start = Instant::now();
            let completed = self.window(server, |_, _, latency_ms| m.latencies_ms.push(latency_ms));
            m.window_ms.push(window_start.elapsed().as_secs_f64() * 1e3);
            m.jobs += completed;
            // A window that completes nothing means the connection or the
            // daemon is gone; spinning on it would only burn the clock.
            if completed == 0 || start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        m.elapsed_s = start.elapsed().as_secs_f64();
        m
    }
}

/// What the `ingest_serve` writer saw.
#[derive(Default)]
pub struct Written {
    /// `ingest` → `ingest_commit` ack, timed from the due instant.
    pub commit_ms: Vec<f64>,
    /// How late the open-loop generator ran at its worst.
    pub late_ms_max: f64,
    /// Positions (in the writer's whole batch list) of acknowledged
    /// commits.
    pub acked: Vec<usize>,
}

pub struct Writer {
    client: Client,
    pub tally: Tally,
    pub trace: Option<Trace>,
}

impl Writer {
    pub fn connect(socket: &Path, trace: Option<Trace>) -> Result<Writer, String> {
        let client = Client::connect_unix(socket).map_err(|e| format!("connect: {e}"))?;
        Ok(Writer { client, tally: Tally::default(), trace })
    }

    fn commit(&mut self, index: usize, batch: &[DeltaRecord]) -> bool {
        self.tally.attempted += 1;
        let client = &mut self.client;
        let staged = spanned(&mut self.trace, "ingest", None, Some(index), || client.ingest(batch));
        let acked = staged.and_then(|_| {
            let client = &mut self.client;
            spanned(&mut self.trace, "ingest_commit", None, Some(index), || client.ingest_commit())
        });
        match acked {
            Ok(_) => true,
            Err(e) => {
                self.tally.fail(format!("commit {index} failed: {e}"));
                false
            }
        }
    }

    /// Open loop: batch `k` is due at `k × interval` whatever happened to
    /// the ones before it, and its latency counts from that due instant.
    pub fn paced(
        &mut self,
        first_index: usize,
        batches: &[Vec<DeltaRecord>],
        interval: Duration,
    ) -> Written {
        let mut out = Written::default();
        let start = Instant::now();
        for (k, batch) in batches.iter().enumerate() {
            let due = interval * k as u32;
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let late = start.elapsed().saturating_sub(due);
            out.late_ms_max = out.late_ms_max.max(late.as_secs_f64() * 1e3);
            if self.commit(first_index + k, batch) {
                out.acked.push(first_index + k);
                out.commit_ms.push(start.elapsed().saturating_sub(due).as_secs_f64() * 1e3);
            }
        }
        out
    }

    /// Closed loop over fixed work (the writer's warm-up, and the drain);
    /// returns (seconds, acked indices).
    pub fn drain(&mut self, first_index: usize, batches: &[Vec<DeltaRecord>]) -> (f64, Vec<usize>) {
        let start = Instant::now();
        let acked = batches
            .iter()
            .enumerate()
            .filter_map(|(k, batch)| self.commit(first_index + k, batch).then_some(first_index + k))
            .collect();
        (start.elapsed().as_secs_f64(), acked)
    }
}
