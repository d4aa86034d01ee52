//! The per-layer ladder: each rung times calls into one crate's public
//! functions from outside, on seeded inputs, and reports the median.
//! Layers are crates (`algos`, `core`, `graph`, `store`, `server`).

use crate::inputs::{graph, job_mix, Mutations};
use crate::plan::{GraphSize, Scale, LADDER};
use crate::report::{median, put, Metrics};
use crate::serve::publish_chain;
use graphm_core::job::CountingJob;
use graphm_core::{
    GraphJob, PartitionSource, RunnerConfig, SharingService, WallClockConfig, WallClockExecutor,
};
use graphm_graph::delta::{apply_delta, DeltaRecord};
use graphm_graph::{EdgeList, MemoryProfile, EDGE_BYTES};
use graphm_server::protocol::{report_from_json, report_to_json};
use graphm_server::{Client, ExecutionMode, IngestCoordinator, Server, ServerConfig};
use graphm_store::{
    read_generation_frame, Convert, DeltaWriter, DiskGridSource, PrefetchTarget, Prefetcher,
    ReplicaApplier, Wal,
};
use graphm_workloads::{AlgoKind, JobSpec};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records per WAL append / publish / ingest commit on the write rungs.
const WRITE_BATCH: usize = 256;
/// Jobs in the executor batch rungs (the paper's concurrency).
const BATCH_JOBS: usize = 16;
/// Sweeps a job of the batch rungs may run. Every rung repeats
/// `ladder_reps` times inside one `--trace 1` run; uncapped, one repetition
/// of the three `core.batch16_*` rungs alone takes 2.6 s.
const BATCH_MAX_SWEEPS: usize = 4;
/// The `store.load_*` rungs load every this-many-th partition (13 of the
/// 64, from every row and column of the grid): a merged load takes 14 ms,
/// a sweep of all 64 a second.
const LOAD_STRIDE: usize = 5;
/// Round trips per repetition of the socket rungs.
const RTT_CALLS: usize = 64;
/// The tiny store behind the socket rungs.
const RTT_GRAPH: GraphSize = GraphSize { vertices: 64, edges: 512 };

/// Runs every rung, `scale.ladder_reps` repetitions each. This is the
/// only way the ladder runs: the `--trace 1` command and `gmbench trace`
/// report the same medians.
pub fn run(scale: &Scale, seed: u64, dir: &Path) -> Result<Metrics, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let rungs = Rungs { scale, seed, reps: scale.ladder_reps.max(1), dir, out: Metrics::new() };
    let out = rungs.all();
    std::fs::remove_dir_all(dir).ok();
    out
}

struct Rungs<'a> {
    scale: &'a Scale,
    seed: u64,
    reps: usize,
    dir: &'a Path,
    out: Metrics,
}

/// The first 16 specs of the seed's mix, capped at `BATCH_MAX_SWEEPS`.
fn batch_specs(vertices: u32, seed: u64) -> Vec<JobSpec> {
    let mut specs = job_mix(vertices, seed);
    specs.truncate(BATCH_JOBS);
    for spec in &mut specs {
        spec.max_iters = spec.max_iters.min(BATCH_MAX_SWEEPS);
    }
    specs
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn err(what: &str) -> impl Fn(graphm_graph::GraphError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

impl Rungs<'_> {
    fn emit(&mut self, name: &str, value: f64, samples: usize) {
        let (_, unit, _) =
            LADDER.iter().find(|(n, _, _)| *n == name).expect("rung is listed in plan::LADDER");
        put(&mut self.out, name, unit, value, samples);
    }

    /// Median of `reps` timings of `call`, in milliseconds.
    fn time_ms<T>(&self, reps: usize, mut call: impl FnMut() -> T) -> f64 {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                black_box(call());
                ms(t0.elapsed())
            })
            .collect();
        median(&samples)
    }

    fn fresh_store(&self, name: &str, graph: &EdgeList) -> Result<PathBuf, String> {
        let dir = self.dir.join(name);
        std::fs::remove_dir_all(&dir).ok();
        Convert::grid(self.scale.grid_p).write(graph, &dir).map_err(err("ladder convert"))?;
        Ok(dir)
    }

    fn all(mut self) -> Result<Metrics, String> {
        let big = graph(self.scale.big, self.seed);
        let specs = batch_specs(big.num_vertices, self.seed);
        let mut stream = Mutations::new(&big, self.seed);
        let chain: Vec<Vec<DeltaRecord>> = (0..self.scale.chain_generations)
            .map(|_| stream.batch(self.scale.chain_records))
            .collect();

        let base_dir = self.fresh_store("base", &big)?;
        let chain_dir = self.fresh_store("chain", &big)?;
        publish_chain(&chain_dir, &chain)?;

        self.store_open_and_convert(&big, &base_dir, &chain_dir)?;
        self.kernels_and_executor(&big, &specs, &base_dir)?;
        self.service()?;
        self.apply_delta_rung(&big);
        self.loads(&base_dir, &chain_dir)?;
        self.residency(&base_dir)?;
        self.write_path(&big, &mut stream)?;
        self.compaction()?;
        self.wire(&base_dir)?;
        self.socket()?;
        debug_assert_eq!(self.out.len(), LADDER.len());
        Ok(self.out)
    }

    fn store_open_and_convert(
        &mut self,
        big: &EdgeList,
        base_dir: &Path,
        chain_dir: &Path,
    ) -> Result<(), String> {
        let scratch = self.dir.join("convert");
        let grid_p = self.scale.grid_p;
        let convert_ms = self.time_ms(self.reps, || {
            std::fs::remove_dir_all(&scratch).ok();
            Convert::grid(grid_p).write(big, &scratch).expect("ladder convert")
        });
        std::fs::remove_dir_all(&scratch).ok();
        let mb = (big.num_edges() * EDGE_BYTES) as f64 / 1e6;
        self.emit("store.convert_mb_per_s", mb / (convert_ms / 1e3), self.reps);
        for (name, dir) in [("store.open_base_ms", base_dir), ("store.open_chain_ms", chain_dir)] {
            DiskGridSource::open(dir).map_err(err("ladder open"))?;
            let open_ms = self.time_ms(self.reps, || DiskGridSource::open(dir).expect("open"));
            self.emit(name, open_ms, self.reps);
        }
        Ok(())
    }

    /// `algos.*` (one job alone, single thread) and `core.*` (Init,
    /// pacing, the three batch modes).
    fn kernels_and_executor(
        &mut self,
        big: &EdgeList,
        specs: &[JobSpec],
        base_dir: &Path,
    ) -> Result<(), String> {
        let vertices = big.num_vertices;
        let source = Arc::new(DiskGridSource::open(base_dir).map_err(err("ladder open"))?);
        let as_source = || Arc::clone(&source) as Arc<dyn PartitionSource>;
        let config = WallClockConfig::new(MemoryProfile::DEFAULT);
        let init_ms =
            self.time_ms(self.reps, || WallClockExecutor::new(as_source(), config.clone(), None));
        self.emit("core.init_ms", init_ms, self.reps);

        let executor = WallClockExecutor::new(as_source(), config, None);
        let degrees = Arc::new(source.out_degrees());
        // Traversals start at the best-connected vertex, so the rung
        // measures a full traversal whatever root the seed drew.
        let hub = (0..vertices).max_by_key(|&v| degrees[v as usize]).unwrap_or(0);
        let alone = |kind: AlgoKind, max_iters: usize| JobSpec {
            kind,
            damping: 0.85,
            root: hub,
            max_iters,
        };
        for (name, spec) in [
            ("algos.pagerank_medges_per_s", alone(AlgoKind::PageRank, 10)),
            ("algos.wcc_medges_per_s", alone(AlgoKind::Wcc, 15)),
            ("algos.sssp_medges_per_s", alone(AlgoKind::Sssp, 30)),
            ("algos.bfs_medges_per_s", alone(AlgoKind::Bfs, 30)),
        ] {
            let rates: Vec<f64> = (0..self.reps)
                .map(|_| {
                    let run = executor
                        .run_batch_single_thread(vec![spec.instantiate(vertices, &degrees)]);
                    run.jobs[0].edges_processed as f64 / (run.total_ms * 1e3)
                })
                .collect();
            self.emit(name, median(&rates), self.reps);
        }

        let chunks: usize = executor.graphm().tables.iter().map(|t| t.chunks.len()).sum();
        let counting_iters = 1;
        let paced_ms = self.time_ms(self.reps, || {
            let jobs: Vec<Box<dyn GraphJob>> = (0..BATCH_JOBS)
                .map(|_| Box::new(CountingJob::new(vertices, counting_iters)) as Box<dyn GraphJob>)
                .collect();
            executor.run_batch(jobs)
        });
        let paced_chunks = (BATCH_JOBS * counting_iters * chunks.max(1)) as f64;
        self.emit("core.pace_overhead_ns", paced_ms * 1e6 / paced_chunks, self.reps);

        let batch = || -> Vec<Box<dyn GraphJob>> {
            specs.iter().map(|s| s.instantiate(vertices, &degrees)).collect()
        };
        let shared_ms = self.time_ms(self.reps, || executor.run_batch(batch()));
        self.emit("core.batch16_shared_ms", shared_ms, self.reps);
        let mut loads_shared = 0;
        let single_ms = self.time_ms(self.reps, || {
            loads_shared = executor.run_batch_single_thread(batch()).partition_loads;
        });
        self.emit("core.batch16_single_thread_ms", single_ms, self.reps);
        self.emit("core.loads_shared", loads_shared as f64, self.reps);
        let mut loads_exclusive = 0;
        let exclusive_ms = self.time_ms(self.reps, || {
            loads_exclusive = executor.run_batch_exclusive(batch()).partition_loads;
        });
        self.emit("core.batch16_exclusive_ms", exclusive_ms, self.reps);
        self.emit("core.loads_exclusive", loads_exclusive as f64, self.reps);

        let one = alone(AlgoKind::PageRank, 20);
        let single_job_ms = self
            .time_ms(self.reps, || executor.run_batch(vec![one.instantiate(vertices, &degrees)]));
        self.emit("core.single_job_ms", single_job_ms, self.reps);

        Ok(())
    }

    /// The same 16 capped specs through the deterministic `SharingService`
    /// (the simulated-hierarchy replay), on the tiny graph: the cache
    /// simulator runs at a hundredth of the kernels' speed.
    fn service(&mut self) -> Result<(), String> {
        let tiny = graph(self.scale.tiny, self.seed);
        let specs = batch_specs(tiny.num_vertices, self.seed);
        let dir = self.fresh_store("tiny", &tiny)?;
        let source = DiskGridSource::open(&dir).map_err(err("ladder open"))?;
        let degrees = Arc::new(source.out_degrees());
        let state_bytes = ServerConfig::new(&dir).state_bytes_per_vertex;
        let service_ms = self.time_ms(self.reps, || {
            let mut service = SharingService::new(
                &source,
                RunnerConfig::new(MemoryProfile::DEFAULT),
                state_bytes,
            );
            for spec in &specs {
                service.submit(spec.instantiate(tiny.num_vertices, &degrees));
            }
            service.run_until_idle();
            service.partition_loads()
        });
        self.emit("core.service_batch16_ms", service_ms, self.reps);
        Ok(())
    }

    /// One interleaved batch onto a partition-sized edge vector.
    fn apply_delta_rung(&mut self, big: &EdgeList) {
        let partition_edges = big.num_edges() / (self.scale.grid_p * self.scale.grid_p).max(1);
        let partition = EdgeList {
            num_vertices: big.num_vertices,
            edges: big.edges[..partition_edges.max(1)].to_vec(),
        };
        let mut local = Mutations::new(&partition, self.seed);
        let records = local.batch(self.scale.chain_records);
        let samples: Vec<f64> = (0..self.reps)
            .map(|_| {
                let mut edges = partition.edges.clone();
                let t0 = Instant::now();
                apply_delta(&mut edges, &records);
                let elapsed = t0.elapsed();
                black_box(edges.len());
                elapsed.as_secs_f64() * 1e6
            })
            .collect();
        // edges ÷ µs = Medges/s
        self.emit(
            "graph.apply_delta_medges_per_s",
            partition.edges.len() as f64 / median(&samples),
            self.reps,
        );
    }

    /// `PartitionSource::load` swept over every `LOAD_STRIDE`-th
    /// partition: a cache miss on generation 0, the same with the `Arc`
    /// held live, and a cache miss on the chain (a merged materialisation).
    fn loads(&mut self, base_dir: &Path, chain_dir: &Path) -> Result<(), String> {
        let base = DiskGridSource::open(base_dir).map_err(err("ladder open"))?;
        let pids: Vec<usize> = (0..base.num_partitions()).step_by(LOAD_STRIDE).collect();
        let sweep_us = |source: &DiskGridSource| {
            let t0 = Instant::now();
            for &pid in &pids {
                black_box(source.load(pid).len());
            }
            t0.elapsed().as_secs_f64() * 1e6 / pids.len() as f64
        };
        let misses: Vec<f64> = (0..self.reps).map(|_| sweep_us(&base)).collect();
        self.emit("store.load_base_us", median(&misses), self.reps);
        let held: Vec<_> = pids.iter().map(|&pid| base.load(pid)).collect();
        let live: Vec<f64> = (0..self.reps).map(|_| sweep_us(&base) * 1e3).collect();
        self.emit("store.load_live_ns", median(&live), self.reps);
        drop(held);
        let chained = DiskGridSource::open(chain_dir).map_err(err("ladder open"))?;
        let merged: Vec<f64> = (0..self.reps).map(|_| sweep_us(&chained)).collect();
        self.emit("store.load_merged_us", median(&merged), self.reps);
        Ok(())
    }

    /// Three sweeps under a half-store budget with a `Prefetcher`
    /// announcing the window ahead of each load.
    fn residency(&mut self, base_dir: &Path) -> Result<(), String> {
        let source = Arc::new(DiskGridSource::open(base_dir).map_err(err("ladder open"))?);
        source.set_memory_budget(source.graph_bytes() as u64 / 2);
        let prefetcher = Prefetcher::spawn(Arc::clone(&source) as Arc<dyn PrefetchTarget>);
        let order = source.order();
        let lookahead = graphm_store::DEFAULT_MAX_PREFETCH_LOOKAHEAD;
        let sweeps = 3;
        for _ in 0..sweeps {
            for (i, &pid) in order.iter().enumerate() {
                prefetcher.request(
                    &order[(i + 1).min(order.len())..(i + 1 + lookahead).min(order.len())],
                );
                black_box(source.load(pid).len());
            }
        }
        drop(prefetcher);
        let loads = (sweeps * order.len()).max(1);
        let residency = source.residency_stats();
        let prefetch = source.prefetch_stats();
        let issued = prefetch.issued.max(1) as f64;
        self.emit("store.evictions_per_load", residency.evictions as f64 / loads as f64, loads);
        self.emit("store.prefetch_hit_ratio", prefetch.hits as f64 / issued, loads);
        self.emit("store.prefetch_advise_us", prefetch.advise_ns as f64 / issued / 1e3, loads);
        Ok(())
    }

    /// WAL appends, publishes, write and space amplification, replay of
    /// the published generations into a follower, and a daemon-side
    /// group commit.
    fn write_path(&mut self, big: &EdgeList, stream: &mut Mutations<'_>) -> Result<(), String> {
        let wal_dir = self.dir.join("wal");
        std::fs::create_dir_all(&wal_dir).map_err(|e| format!("{}: {e}", wal_dir.display()))?;
        let (mut wal, _) = Wal::open(&wal_dir).map_err(err("open wal"))?;
        let batches: Vec<Vec<DeltaRecord>> = (0..16).map(|_| stream.batch(WRITE_BATCH)).collect();
        let append_ms = self.time_ms(self.reps, || wal.append(1, &batches[0]).expect("wal append"));
        self.emit("store.wal_append_us", append_ms * 1e3, self.reps);
        let group: Vec<&[DeltaRecord]> = batches.iter().map(Vec::as_slice).collect();
        let group_ms =
            self.time_ms(self.reps, || wal.append_group(1, &group).expect("wal append group"));
        self.emit("store.wal_group16_us", group_ms * 1e3, self.reps);
        drop(wal);

        let primary = self.fresh_store("primary", big)?;
        let follower = self.fresh_store("follower", big)?;
        let before = dir_bytes(&primary);
        let mut writer = DeltaWriter::open(&primary).map_err(err("open writer"))?;
        let publish_ms = self.time_ms(self.reps, || {
            for r in stream.batch(WRITE_BATCH) {
                let staged = if r.is_insert() {
                    writer.insert(r.src, r.dst, r.weight)
                } else {
                    writer.delete(r.src, r.dst)
                };
                staged.expect("stage mutation");
            }
            writer.publish().expect("publish")
        });
        self.emit("store.publish_ms", publish_ms, self.reps);
        let epoch = writer.lease_epoch();
        drop(writer);
        let after = dir_bytes(&primary);
        let logical = (self.reps * WRITE_BATCH * std::mem::size_of::<DeltaRecord>()) as f64;
        self.emit("store.write_amp", after.saturating_sub(before) as f64 / logical, self.reps);
        let live_edges: usize = {
            let reopened = DiskGridSource::open(&primary).map_err(err("reopen primary"))?;
            (0..reopened.num_partitions()).map(|pid| reopened.load(pid).len()).sum()
        };
        self.emit(
            "store.space_amp",
            after as f64 / (live_edges.max(1) * EDGE_BYTES) as f64,
            self.reps,
        );

        let mut applier = ReplicaApplier::open(&follower).map_err(err("open applier"))?;
        let mut generation = 0;
        let apply_ms = self.time_ms(self.reps, || {
            generation += 1;
            let frame = read_generation_frame(&primary, generation, epoch).expect("read frame");
            applier.apply(&frame).expect("apply frame")
        });
        self.emit("store.repl_apply_ms", apply_ms, self.reps);
        drop(applier);

        let coordinator =
            IngestCoordinator::new(DeltaWriter::open(&primary).map_err(err("reopen writer"))?);
        let commit_ms = self.time_ms(self.reps, || {
            coordinator.commit(stream.batch(WRITE_BATCH)).expect("ingest commit")
        });
        self.emit("server.ingest_commit_us", commit_ms * 1e3, self.reps);
        Ok(())
    }

    /// `DeltaWriter::compact` of a chain on the mid graph; every
    /// repetition converts, publishes and folds a fresh copy.
    fn compaction(&mut self) -> Result<(), String> {
        let mid = graph(self.scale.mid, self.seed);
        let mut stream = Mutations::new(&mid, self.seed);
        let chain: Vec<Vec<DeltaRecord>> = (0..self.scale.chain_generations)
            .map(|_| stream.batch(self.scale.chain_records))
            .collect();
        let mut samples = Vec::with_capacity(self.reps);
        for _ in 0..self.reps {
            let dir = self.fresh_store("compact", &mid)?;
            publish_chain(&dir, &chain)?;
            let mut writer = DeltaWriter::open(&dir).map_err(err("open writer"))?;
            let t0 = Instant::now();
            writer.compact().map_err(err("compact"))?;
            samples.push(ms(t0.elapsed()));
        }
        self.emit("store.compact_ms", median(&samples), self.reps);
        Ok(())
    }

    /// Starts a wallclock daemon over `store` and hands `call` a client
    /// connected to it.
    fn with_daemon(
        &mut self,
        store: &Path,
        batch_window: Option<Duration>,
        call: impl FnOnce(&mut Self, &mut Client) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut config = ServerConfig::new(store);
        config.socket_path = Some(store.join("s.sock"));
        config.mode = ExecutionMode::Wallclock;
        if let Some(window) = batch_window {
            config.batch_window = window;
        }
        let server = Server::start(config).map_err(err("ladder server start"))?;
        let result = Client::connect_unix(&store.join("s.sock"))
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut client| call(self, &mut client));
        server.shutdown();
        result
    }

    /// NDJSON encode / decode of one full-size report, as a daemon over
    /// the big graph served it.
    fn wire(&mut self, base_dir: &Path) -> Result<(), String> {
        let job = JobSpec { kind: AlgoKind::PageRank, damping: 0.85, root: 0, max_iters: 10 };
        self.with_daemon(base_dir, None, |rungs, client| {
            let report = client.run(&job).map_err(|e| format!("wire rung: {e}"))?;
            let encode = || serde_json::to_string(&report_to_json(&report)).expect("encode report");
            let text = encode();
            let encode_ms = rungs.time_ms(rungs.reps, encode);
            let decode_ms = rungs.time_ms(rungs.reps, || {
                let parsed = serde_json::from_str(&text).expect("parse report");
                report_from_json(&parsed).expect("decode report")
            });
            rungs.emit("server.report_encode_ms", encode_ms, rungs.reps);
            rungs.emit("server.report_decode_ms", decode_ms, rungs.reps);
            rungs.emit("server.report_wire_bytes", text.len() as f64, 1);
            Ok(())
        })
    }

    /// Socket round trips against a daemon whose graph work is nothing
    /// and whose batch window is zero.
    fn socket(&mut self) -> Result<(), String> {
        let tiny = graph(RTT_GRAPH, self.seed);
        let store = self.dir.join("rtt");
        Convert::grid(2).write(&tiny, &store).map_err(err("ladder convert"))?;
        self.with_daemon(&store, Some(Duration::ZERO), |rungs, client| rungs.socket_rungs(client))
    }

    fn socket_rungs(&mut self, client: &mut Client) -> Result<(), String> {
        let one_sweep = JobSpec { kind: AlgoKind::Wcc, damping: 0.85, root: 0, max_iters: 1 };
        let calls = self.reps * RTT_CALLS;
        let mut failure = None;
        let mut note = |e: graphm_server::ClientError| {
            failure.get_or_insert(format!("socket rung: {e}"));
        };
        let ping_ms = self.time_ms(calls, || client.ping().map_err(&mut note));
        let mut ids = Vec::with_capacity(calls);
        let submit_ms = self
            .time_ms(calls, || client.submit(&one_sweep).map(|id| ids.push(id)).map_err(&mut note));
        for id in ids {
            client.wait(id).map(drop).unwrap_or_else(&mut note);
        }
        let round_ms = self.time_ms(calls, || client.run(&one_sweep).map(drop).map_err(&mut note));
        self.emit("server.ping_rtt_us", ping_ms * 1e3, calls);
        self.emit("server.submit_rtt_us", submit_ms * 1e3, calls);
        self.emit("server.round_overhead_ms", round_ms, calls);
        failure.map_or(Ok(()), Err)
    }
}
