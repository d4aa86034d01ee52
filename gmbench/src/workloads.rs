//! The four workloads: inputs from the seed, set-up, warm-up, the
//! measured windows, the output checks, and the record of it all.

use crate::inputs::{graph, job_mix, model_graph, Mutations};
use crate::plan::{Scale, Workload, SERVER_COUNTS};
use crate::report::{median, percentile, put, rss_mb, Metrics, Record};
use crate::serve::{
    check_reports, check_restart, discard, setup, Daemon, Measured, Reader, Setup, Span, Tally,
    Trace, Writer, Written,
};
use graphm_core::JobReport;
use graphm_graph::delta::DeltaRecord;
use graphm_graph::EdgeList;
use graphm_server::ServerStats;
use graphm_workloads::JobSpec;
use serde_json::{json, Value};
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// Client threads = connections = `nproc` of the sizing machine.
const CONNECTIONS: usize = 2;

/// One run of one workload.
pub struct Run<'a> {
    pub workload: Workload,
    pub scale: &'a Scale,
    pub seed: u64,
    /// Measured duration; every connection rounds it up to whole windows.
    pub seconds: f64,
    /// Record harness-side spans and daemon counter snapshots.
    pub traced: bool,
    /// Scratch directory for stores and the trace file; removed after.
    pub dir: &'a Path,
}

/// What the connection threads hand back.
struct Served {
    readers: Vec<Measured>,
    written: Option<Written>,
    /// (seconds, records) of the fixed-work drain.
    drained: Option<(f64, usize)>,
    acked: Vec<usize>,
    warm: Vec<(usize, JobReport)>,
    tally: Tally,
    traces: Vec<Trace>,
    rss_mb: f64,
}

impl Run<'_> {
    pub fn execute(&self) -> Result<Record, String> {
        std::fs::create_dir_all(self.dir).map_err(|e| format!("{}: {e}", self.dir.display()))?;
        let out = self.execute_in_dir();
        if !self.traced {
            std::fs::remove_dir_all(self.dir).ok();
        }
        out
    }

    fn execute_in_dir(&self) -> Result<Record, String> {
        let w = self.workload;
        let scale = self.scale;
        let size = scale.graph_of(w);
        let base = graph(size, self.seed);
        let specs = job_mix(size.vertices, self.seed);
        let mut stream = Mutations::new(&base, self.seed);

        // evolving_ooc serves base + chain from its first job on.
        let chain: Vec<Vec<DeltaRecord>> = match w {
            Workload::EvolvingOoc => {
                (0..scale.chain_generations).map(|_| stream.batch(scale.chain_records)).collect()
            }
            _ => Vec::new(),
        };
        // ingest_serve's writer: warm-up commits, then the paced commits
        // of the serve phase, then the fixed-work drain — one list, so an
        // acknowledged commit is known by its position.
        let (warm_commits, paced_commits) = match w {
            Workload::IngestServe => {
                let due = (self.seconds / scale.commit_interval.as_secs_f64()).ceil() as usize;
                (scale.warm_commits, due.max(1))
            }
            _ => (0, 0),
        };
        let mut writes: Vec<Vec<DeltaRecord>> =
            (0..warm_commits + paced_commits).map(|_| stream.batch(scale.commit_records)).collect();
        if w == Workload::IngestServe {
            writes.extend((0..scale.drain_batches).map(|_| stream.batch(scale.drain_records)));
        }

        let Setup { daemon, setup_s, partitions, store_bytes } =
            setup(w, scale, &base, &chain, self.dir)?;
        let served = self.serve(&daemon, &specs, &writes, warm_commits, paced_commits);
        let mut served = match served {
            Ok(served) => served,
            Err(e) => {
                discard(daemon);
                return Err(e);
            }
        };

        // The warm-up windows ran on the graph the daemon opened with
        // (on ingest_serve, before the writer's first commit).
        let served_graph = model_graph(&base, chain.iter().flatten());
        let scratch = self.dir.join("ref");
        let tally = &mut served.tally;
        check_reports(&served.warm, &specs, &served_graph, scale.grid_p, &scratch, tally)?;
        let store = daemon.store.clone();
        daemon.server.shutdown();
        let mut restarted = None;
        if w == Workload::IngestServe {
            // Acked ⇒ readable after restart: the model holds exactly the
            // acknowledged commits, in commit order.
            let model = model_graph(&base, served.acked.iter().flat_map(|&k| &writes[k]));
            let scratch = self.dir.join("model");
            let tally = &mut served.tally;
            restarted = Some(check_restart(&store, &model, scale.grid_p, &scratch, tally)?);
        }
        std::fs::remove_dir_all(&store).ok();

        let mut record = self.record(&base, &setup_s, partitions, store_bytes, served);
        if let Some(stats) = restarted {
            // The run is sized to end short of the compaction trigger.
            record.info.insert("store_generation".into(), json!(stats.generation));
            record.info.insert("store_compactions".into(), json!(stats.compactions));
        }
        Ok(record)
    }

    /// Connects the workload's clients and runs warm-up, the measured
    /// phase and (on `ingest_serve`) the drain on one thread each.
    fn serve(
        &self,
        daemon: &Daemon,
        specs: &[JobSpec],
        writes: &[Vec<DeltaRecord>],
        warm_commits: usize,
        paced_commits: usize,
    ) -> Result<Served, String> {
        let w = self.workload;
        let scale = self.scale;
        let server = &daemon.server;
        let vertices = scale.graph_of(w).vertices as usize;
        let (inflight, readers, warm_windows) = match w {
            Workload::MixResident | Workload::EvolvingOoc => (scale.inflight, CONNECTIONS, 1),
            Workload::IngestServe => (scale.ingest_inflight, 1, 1),
            Workload::SmallRt => (1, CONNECTIONS, scale.small_warmup),
        };
        let (warm_writes, later) = writes.split_at(warm_commits);
        let (paced, drain) = later.split_at(paced_commits);

        let epoch = Instant::now();
        let trace = |conn: usize| self.traced.then(|| Trace::new(epoch, conn));
        // Connect everything before any thread waits at the gate.
        let connected = (0..readers)
            .map(|conn| {
                let trace = trace(conn);
                Reader::connect(&daemon.socket, specs, conn, readers, inflight, vertices, trace)
            })
            .collect::<Result<Vec<Reader>, String>>()?;
        let writer = match w {
            Workload::IngestServe => Some(Writer::connect(&daemon.socket, trace(readers))?),
            _ => None,
        };
        // Connections leave each warm-up step together, and the drain
        // starts only once the reader has stopped.
        let gate = &Barrier::new(CONNECTIONS);
        std::thread::scope(|s| -> Result<Served, String> {
            let reader_threads: Vec<_> = connected
                .into_iter()
                .map(|mut reader| {
                    s.spawn(move || {
                        let warm = reader.warm_up(server, warm_windows);
                        gate.wait();
                        if w == Workload::IngestServe {
                            // the writer's warm-up commits
                            gate.wait();
                        }
                        let measured = reader.measure(server, self.seconds);
                        if w == Workload::IngestServe {
                            gate.wait();
                        }
                        (warm, measured, reader.tally, reader.trace)
                    })
                })
                .collect();
            let writer_thread = writer.map(|mut writer| {
                s.spawn(move || {
                    // The reader's checked window runs on generation 0.
                    gate.wait();
                    let (_, mut acked) = writer.drain(0, warm_writes);
                    gate.wait();
                    let written = writer.paced(warm_commits, paced, scale.commit_interval);
                    gate.wait();
                    let (drain_s, drained) = writer.drain(warm_commits + paced_commits, drain);
                    acked.extend(written.acked.iter().copied().chain(drained));
                    (written, drain_s, acked, writer.tally, writer.trace)
                })
            });

            let mut out = Served {
                readers: Vec::new(),
                written: None,
                drained: None,
                acked: Vec::new(),
                warm: Vec::new(),
                tally: Tally::default(),
                traces: Vec::new(),
                rss_mb: 0.0,
            };
            for t in reader_threads {
                let (warm, measured, tally, trace) =
                    t.join().map_err(|_| "a reader thread panicked".to_string())?;
                out.warm.extend(warm);
                out.readers.push(measured);
                out.tally.absorb(tally);
                out.traces.extend(trace);
            }
            if let Some(t) = writer_thread {
                let (written, drain_s, acked, tally, trace) =
                    t.join().map_err(|_| "the writer thread panicked".to_string())?;
                out.acked = acked;
                out.written = Some(written);
                out.drained = Some((drain_s, drain.iter().map(Vec::len).sum()));
                out.tally.absorb(tally);
                out.traces.extend(trace);
            }
            // End of the measured window, before any verification.
            out.rss_mb = rss_mb();
            Ok(out)
        })
    }

    fn record(
        &self,
        base: &EdgeList,
        setup_s: &[f64],
        partitions: usize,
        store_bytes: u64,
        served: Served,
    ) -> Record {
        let mut metrics = Metrics::new();
        let latencies: Vec<f64> =
            served.readers.iter().flat_map(|m| m.latencies_ms.iter().copied()).collect();
        let windows: Vec<f64> =
            served.readers.iter().flat_map(|m| m.window_ms.iter().copied()).collect();
        let jobs: usize = served.readers.iter().map(|m| m.jobs).sum();
        // Jobs each connection completed ÷ its own elapsed time, summed.
        let jobs_per_s: f64 = served
            .readers
            .iter()
            .filter(|m| m.elapsed_s > 0.0)
            .map(|m| m.jobs as f64 / m.elapsed_s)
            .sum();
        put(&mut metrics, "jobs_per_s", "1/s", jobs_per_s, jobs);
        if !latencies.is_empty() {
            for (name, p) in [("job_p50_ms", 0.5), ("job_p90_ms", 0.9), ("job_p99_ms", 0.99)] {
                put(&mut metrics, name, "ms", percentile(&latencies, p), latencies.len());
            }
        }
        if let Some(written) = &served.written {
            if !written.commit_ms.is_empty() {
                for (name, p) in [("commit_p50_ms", 0.5), ("commit_p90_ms", 0.9)] {
                    let n = written.commit_ms.len();
                    put(&mut metrics, name, "ms", percentile(&written.commit_ms, p), n);
                }
            }
        }
        if let Some((seconds, records)) = served.drained {
            put(&mut metrics, "ingest_records_per_s", "1/s", records as f64 / seconds, records);
        }
        put(&mut metrics, "rss_mb", "MB", served.rss_mb, 1);
        put(&mut metrics, "setup_s", "s", median(setup_s), setup_s.len());
        let tally = &served.tally;
        let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
        put(&mut metrics, "failed_share", "share", failed_share, tally.attempted as usize);

        let mut info = serde_json::Map::new();
        info.insert("vertices".into(), json!(base.num_vertices));
        info.insert("edges".into(), json!(base.num_edges()));
        info.insert("partitions".into(), json!(partitions));
        info.insert("store_bytes".into(), json!(store_bytes));
        info.insert("connections".into(), json!(served.readers.len()));
        info.insert("windows".into(), json!(windows.len()));
        if !windows.is_empty() {
            info.insert("window_ms_p50".into(), json!(median(&windows)));
            info.insert("window_ms_max".into(), json!(percentile(&windows, 1.0)));
        }
        info.insert("setup_s_all".into(), json!(setup_s.to_vec()));
        if let Some(written) = &served.written {
            info.insert("commits".into(), json!(written.commit_ms.len()));
            info.insert("writer_late_ms_max".into(), json!(written.late_ms_max));
        }
        if let Some((seconds, _)) = served.drained {
            info.insert("drain_s".into(), json!(seconds));
        }

        let mut layers = Metrics::new();
        if self.traced {
            server_counts(&served.traces, &mut layers);
            match write_trace(&self.dir.join("trace.json"), &served.traces) {
                Ok(path) => {
                    info.insert("trace_file".into(), json!(path));
                }
                Err(e) => eprintln!("[gmbench] trace not written: {e}"),
            }
        }

        Record {
            workload: self.workload.name().to_string(),
            seed: self.seed,
            seconds: self.seconds,
            traced: self.traced,
            attempted: tally.attempted,
            failed: tally.failed,
            errors: tally.errors.clone(),
            metrics,
            layers,
            info,
        }
    }
}

/// Daemon counters over the traced window: the earliest snapshot any
/// connection took at the start of measuring against the latest one.
fn server_counts(traces: &[Trace], layers: &mut Metrics) {
    let snaps = || traces.iter().flat_map(|t| t.snaps.iter());
    let first = snaps().min_by(|a, b| a.0.total_cmp(&b.0));
    let last = snaps().max_by(|a, b| a.0.total_cmp(&b.0));
    let (Some((_, a)), Some((_, b))) = (first, last) else { return };
    let delta = |f: fn(&ServerStats) -> u64| f(b).saturating_sub(f(a)) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let jobs = delta(|s| s.jobs_completed);
    let commits = delta(|s| s.ingest_commits);
    let values = [
        ratio(jobs, delta(|s| s.rounds)),
        ratio(delta(|s| s.partition_loads), jobs),
        ratio(delta(|s| s.delta_wal_syncs), commits),
        ratio(commits, delta(|s| s.ingest_groups)),
        delta(|s| s.generation_rotations),
        delta(|s| s.evictions),
    ];
    for ((name, unit), value) in SERVER_COUNTS.iter().zip(values) {
        put(layers, name, unit, value, snaps().count());
    }
}

/// Writes every connection's spans and snapshots as one JSON file.
fn write_trace(path: &Path, traces: &[Trace]) -> Result<String, String> {
    let span_json = |conn: usize, i: usize, s: &Span| {
        json!({
            "conn": conn,
            "id": i,
            "name": s.name,
            "parent": s.parent.map_or(Value::Null, |p| json!(p)),
            "request": s.request.map_or(Value::Null, |r| json!(r)),
            "start_us": s.start_us,
            "end_us": s.end_us,
        })
    };
    let spans: Vec<Value> = traces
        .iter()
        .flat_map(|t| t.spans.iter().enumerate().map(|(i, s)| span_json(t.conn, i, s)))
        .collect();
    let snaps: Vec<Value> = traces
        .iter()
        .flat_map(|t| {
            t.snaps.iter().map(|(at_us, stats)| {
                json!({ "conn": t.conn, "at_us": *at_us, "stats": stats.to_json() })
            })
        })
        .collect();
    let text = serde_json::to_string(&json!({ "spans": spans, "snapshots": snaps }))
        .map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
