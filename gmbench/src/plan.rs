//! What the benchmark runs and reports: workload names, input sizes, and
//! the metric tables. Names here are cited by later issues — do not
//! rename.

use std::time::Duration;

/// The four socket-level workloads (see `README.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MixResident,
    EvolvingOoc,
    IngestServe,
    SmallRt,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::MixResident, Workload::EvolvingOoc, Workload::IngestServe, Workload::SmallRt];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MixResident => "mix_resident",
            Workload::EvolvingOoc => "evolving_ooc",
            Workload::IngestServe => "ingest_serve",
            Workload::SmallRt => "small_rt",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// An R-MAT input size.
#[derive(Clone, Copy, Debug)]
pub struct GraphSize {
    pub vertices: u32,
    pub edges: usize,
}

/// Every input size and count of one benchmark configuration. `FULL` is
/// what `BENCHMARK.json` and the committed baseline measure; `smoke()` is
/// the same shape small enough for `cargo test`.
#[derive(Clone, Debug)]
pub struct Scale {
    /// `mix_resident` and the ladder's store/kernel rungs.
    pub big: GraphSize,
    /// `evolving_ooc`: every load is a merged materialisation, so one
    /// 16-job window costs `sweeps × partitions` merges. Sized so a window
    /// takes seconds, not half a minute.
    pub mid: GraphSize,
    /// `small_rt` (graph work of about a millisecond) and `ingest_serve`
    /// (where the chain grows all run long, so even these partitions
    /// cost a reader window seconds by the end).
    pub tiny: GraphSize,
    /// Grid dimension `P` (`P × P` partitions).
    pub grid_p: usize,
    /// Jobs each connection keeps in flight on the windowed workloads.
    pub inflight: usize,
    /// Jobs the `ingest_serve` reader keeps in flight: four of each kind
    /// a window. Waits return in submit order, so a job's latency is the
    /// slowest job up to it, and a PageRank job runs 5 to 30 sweeps by its
    /// damping: with four in flight (one of each kind) one PageRank draw
    /// sets both the window's length and its median latency, a run has
    /// some 16 windows, and `job_p50_ms` spread 39 % between seeds. With
    /// sixteen the median waits for two PageRank jobs and the window for
    /// four.
    pub ingest_inflight: usize,
    /// Un-compacted generations `evolving_ooc` overlays during set-up …
    pub chain_generations: usize,
    /// … of this many mutation records each.
    pub chain_records: usize,
    /// `ingest_serve` writer warm-up: this many closed-loop commits before
    /// anything is timed, so the measured phase starts on a chain and sees
    /// it grow threefold, not from nothing (a reader window costs 20× more
    /// at generation 80 than at 0; latencies over that climb have no
    /// steady median).
    pub warm_commits: usize,
    /// `ingest_serve` paced writer: records per commit …
    pub commit_records: usize,
    /// … one commit every this long (open loop).
    pub commit_interval: Duration,
    /// `ingest_serve` drain phase: this many closed-loop commits …
    pub drain_batches: usize,
    /// … of this many records each. Fixed work. A commit costs 15 to 20 ms
    /// whatever it holds (about 10 µs a record on top), so the drain's
    /// length is its number of commits; and every record of a run has to
    /// stay under the default 0.5-ratio compaction trigger (24,576 records
    /// on the tiny graph), so that a faster writer cannot tip a compaction
    /// into the window.
    pub drain_records: usize,
    /// Untimed `small_rt` round trips per connection before measuring.
    pub small_warmup: usize,
    /// Set-up repetitions per run, at least; `setup_s` is their median.
    pub setup_reps: usize,
    /// Keep repeating the set-up until it has taken this long in total.
    pub setup_seconds: f64,
    /// Repetitions of every ladder rung; the rung reports their median.
    pub ladder_reps: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        big: GraphSize { vertices: 100_000, edges: 2_000_000 },
        mid: GraphSize { vertices: 12_500, edges: 250_000 },
        tiny: GraphSize { vertices: 4_096, edges: 65_536 },
        grid_p: 8,
        inflight: 8,
        ingest_inflight: 16,
        chain_generations: 4,
        chain_records: 1_024,
        warm_commits: 40,
        commit_records: 64,
        commit_interval: Duration::from_millis(250),
        drain_batches: 128,
        drain_records: 96,
        small_warmup: 16,
        setup_reps: 5,
        setup_seconds: 1.0,
        ladder_reps: 11,
    };

    /// Scaled-down inputs for the smoke test: V = 512, chains and batches
    /// shrunk so every one-second window still completes jobs.
    #[cfg(test)]
    pub fn smoke() -> Scale {
        Scale {
            big: GraphSize { vertices: 512, edges: 8_192 },
            mid: GraphSize { vertices: 512, edges: 8_192 },
            tiny: GraphSize { vertices: 512, edges: 4_096 },
            grid_p: 4,
            inflight: 4,
            ingest_inflight: 2,
            chain_generations: 2,
            chain_records: 64,
            warm_commits: 3,
            commit_records: 16,
            commit_interval: Duration::from_millis(100),
            drain_batches: 4,
            drain_records: 32,
            small_warmup: 2,
            setup_reps: 2,
            setup_seconds: 0.0,
            ladder_reps: 2,
        }
    }

    /// The graph a workload serves.
    pub fn graph_of(&self, w: Workload) -> GraphSize {
        match w {
            Workload::MixResident => self.big,
            Workload::EvolvingOoc => self.mid,
            Workload::IngestServe | Workload::SmallRt => self.tiny,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric `gmbench run` reports.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before `check` calls it a regression. `None` for the metrics
    /// `BENCHMARK.json` lists: their bounds are written there and nowhere
    /// else (see `check::bounds`).
    pub bound: Option<f64>,
    /// The workloads it is reported on.
    pub on: &'static [Workload],
}

use Workload::{IngestServe, MixResident, SmallRt};

const EVERY: &[Workload] = &Workload::ALL;

/// The text of the repository's `BENCHMARK.json`, as of this build.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The ten end-to-end metrics, by the names the issue fixed. The bounds
/// written here are 25 %, not the issue's 10 to 15 %: across four sets of
/// five back-to-back runs no tighter one held (the spreads are in
/// `README.md`). The three write metrics of `ingest_serve` spread 30 to
/// 50 % on the sizing sandbox (a commit fsyncs one delta segment per
/// partition it touches, on a virtual disk), so `check` reports them
/// `unresolved` unless one side wins every run.
pub const END_TO_END: [MetricDef; 10] = [
    MetricDef { name: "jobs_per_s", unit: "1/s", better: Better::Higher, bound: None, on: EVERY },
    MetricDef { name: "job_p50_ms", unit: "ms", better: Better::Lower, bound: None, on: EVERY },
    MetricDef {
        name: "job_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.25),
        on: &[MixResident, SmallRt],
    },
    MetricDef {
        name: "job_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.25),
        on: &[SmallRt],
    },
    MetricDef {
        name: "commit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.25),
        on: &[IngestServe],
    },
    MetricDef {
        name: "commit_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.25),
        on: &[IngestServe],
    },
    MetricDef {
        name: "ingest_records_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.25),
        on: &[IngestServe],
    },
    MetricDef { name: "rss_mb", unit: "MB", better: Better::Lower, bound: None, on: EVERY },
    MetricDef { name: "setup_s", unit: "s", better: Better::Lower, bound: None, on: EVERY },
    MetricDef {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        bound: Some(0.0),
        on: EVERY,
    },
];

/// The end-to-end metrics reported on the workload of this name, in
/// table order.
pub fn reported_on(workload: &str) -> impl Iterator<Item = &'static MetricDef> + '_ {
    END_TO_END.iter().filter(move |d| d.on.iter().any(|w| w.name() == workload))
}

/// The subset of [`END_TO_END`] that `BENCHMARK.json` lists and the
/// `--workload` command prints. Its contract wants every listed metric
/// from every workload, never zero and steady between seeds, so these
/// stay with `gmbench run` alone: the metrics that exist on one workload
/// only (`commit_*`, `ingest_records_per_s`, `job_p99_ms`);
/// `failed_share` (zero by design; carried by `attempted` / `failed`);
/// and `job_p90_ms`, because the jobs of one window come back together,
/// so a windowed workload has as many independent latencies as windows
/// (5 to 15 a run) and its p90 is its second-slowest window.
pub const DRIVER_END_TO_END: [&str; 4] = ["jobs_per_s", "job_p50_ms", "rss_mb", "setup_s"];

/// Per-workload layer counts from `Server::stats()` deltas over the
/// traced window.
pub const SERVER_COUNTS: [(&str, &str); 6] = [
    ("server.jobs_per_round", "count"),
    ("server.loads_per_job", "count"),
    ("server.wal_syncs_per_commit", "count"),
    ("server.commits_per_group", "count"),
    ("server.rotations", "count"),
    ("server.evictions", "count"),
];

/// The ladder: a median over repeated calls into one crate's public
/// functions. `(name, unit, better)`.
pub const LADDER: [(&str, &str, Better); 37] = [
    ("algos.pagerank_medges_per_s", "Medges/s", Better::Higher),
    ("algos.wcc_medges_per_s", "Medges/s", Better::Higher),
    ("algos.sssp_medges_per_s", "Medges/s", Better::Higher),
    ("algos.bfs_medges_per_s", "Medges/s", Better::Higher),
    ("core.init_ms", "ms", Better::Lower),
    ("core.pace_overhead_ns", "ns", Better::Lower),
    ("core.batch16_shared_ms", "ms", Better::Lower),
    ("core.batch16_single_thread_ms", "ms", Better::Lower),
    ("core.batch16_exclusive_ms", "ms", Better::Lower),
    ("core.loads_shared", "count", Better::Lower),
    ("core.loads_exclusive", "count", Better::Lower),
    ("core.single_job_ms", "ms", Better::Lower),
    ("core.service_batch16_ms", "ms", Better::Lower),
    ("graph.apply_delta_medges_per_s", "Medges/s", Better::Higher),
    ("store.convert_mb_per_s", "MB/s", Better::Higher),
    ("store.open_base_ms", "ms", Better::Lower),
    ("store.open_chain_ms", "ms", Better::Lower),
    ("store.load_base_us", "us", Better::Lower),
    ("store.load_live_ns", "ns", Better::Lower),
    ("store.load_merged_us", "us", Better::Lower),
    ("store.evictions_per_load", "count", Better::Lower),
    ("store.prefetch_hit_ratio", "share", Better::Higher),
    ("store.prefetch_advise_us", "us", Better::Lower),
    ("store.wal_append_us", "us", Better::Lower),
    ("store.wal_group16_us", "us", Better::Lower),
    ("store.publish_ms", "ms", Better::Lower),
    ("store.write_amp", "ratio", Better::Lower),
    ("store.space_amp", "ratio", Better::Lower),
    ("store.compact_ms", "ms", Better::Lower),
    ("store.repl_apply_ms", "ms", Better::Lower),
    ("server.report_encode_ms", "ms", Better::Lower),
    ("server.report_decode_ms", "ms", Better::Lower),
    ("server.report_wire_bytes", "count", Better::Lower),
    ("server.ping_rtt_us", "us", Better::Lower),
    ("server.submit_rtt_us", "us", Better::Lower),
    ("server.round_overhead_ms", "ms", Better::Lower),
    ("server.ingest_commit_us", "us", Better::Lower),
];
