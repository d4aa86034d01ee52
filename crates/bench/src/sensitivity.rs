//! §5.4–§5.6 sensitivity studies — arrival pattern, root locality, the
//! §4 scheduler, job and core counts (Figures 15–20) — and the two
//! ablations of §3's design choices.

use crate::{header, miss_pct, row, secs, Ctx};
use graphm_cachesim::keys;
use graphm_core::{chunk_size_bytes, RunReport, RunnerConfig, SchedulingPolicy, Scheme};
use graphm_graph::DatasetId;
use graphm_workloads::{
    generate_mix, immediate_arrivals, poisson_arrivals, roots_within_hops, AlgoKind, JobSpec,
    MixConfig, Trace, Workbench, HOUR_NS,
};
use serde_json::{json, Value};

/// Hours of the weekly trace Figure 15 replays.
const TRACE_HOURS: usize = 3;

/// One workload under `-S`, `-C` and `-M`.
fn run_scm(wb: &Workbench, specs: &[JobSpec], arr: &[f64], cfg: &RunnerConfig) -> [RunReport; 3] {
    [Scheme::Sequential, Scheme::Concurrent, Scheme::Shared]
        .map(|scheme| wb.run_with(scheme, specs, arr, cfg))
}

/// [`run_scm`] under the workbench's own configuration, makespans only
/// (virtual ns).
fn makespans_scm(wb: &Workbench, specs: &[JobSpec], arr: &[f64]) -> [f64; 3] {
    run_scm(wb, specs, arr, &wb.runner_config()).map(|r| r.makespan_ns)
}

/// The virtual hour, scaled so that submission gaps stay commensurate
/// with the scaled jobs' runtimes: the paper's jobs run for sizable
/// fractions of an hour, ours finish ~10^4x faster, so consecutive
/// batches overlap (and overlap varies with lambda) only if the hour
/// shrinks accordingly.
fn scaled_hour_ns(ctx: &Ctx) -> f64 {
    HOUR_NS / (ctx.params.scale as f64 * 512.0)
}

/// Figure 15 — throughput of the real-trace workload (jobs submitted per
/// the weekly concurrency curve) under the three schemes, per dataset.
pub(crate) fn fig15_real_trace(ctx: &mut Ctx) -> Value {
    // A slice of the weekly trace: the first hours' jobs, submitted at
    // their hour marks (virtual time), on every dataset.
    let hour_ns = scaled_hour_ns(ctx);
    let mut recs = Vec::new();
    header(&["dataset", "jobs", "S(s)", "C(s)", "M(s)", "M vs S", "M vs C"]);
    for id in DatasetId::ALL {
        let wb = ctx.workbench(id);
        let trace = Trace::generate(wb.num_vertices(), ctx.params.seed);
        let mut specs = Vec::new();
        let mut arrivals = Vec::new();
        for h in 0..TRACE_HOURS {
            for spec in &trace.hourly_jobs[h] {
                specs.push(*spec);
                arrivals.push(h as f64 * hour_ns);
            }
        }
        let [s, c, m] = makespans_scm(&wb, &specs, &arrivals);
        row(&[
            id.name().into(),
            specs.len().to_string(),
            secs(s),
            secs(c),
            secs(m),
            format!("{:.2}x", s / m),
            format!("{:.2}x", c / m),
        ]);
        recs.push(json!({
            "dataset": id.name(), "jobs": specs.len(), "S_ns": s, "C_ns": c, "M_ns": m,
        }));
        eprintln!("[{}] done", id.name());
    }
    println!("\n(paper: M improves throughput 1.5-7.1x vs S and 1.48-9.8x vs C on the trace)");
    json!({ "rows": recs })
}

/// Figure 16 — sensitivity to the submission rate λ (Poisson arrivals)
/// on UK-union: higher λ (denser submissions) favors GraphM more.
pub(crate) fn fig16_lambda(ctx: &mut Ctx) -> Value {
    let wb = ctx.workbench(DatasetId::UkUnion);
    let n = ctx.params.jobs;
    let specs = wb.paper_mix(n, ctx.params.seed);
    let unit_ns = scaled_hour_ns(ctx);
    header(&["lambda", "S(s)", "C(s)", "M(s)", "M vs C"]);
    let mut recs = Vec::new();
    for lambda in [2.0f64, 4.0, 6.0, 8.0, 10.0] {
        let arr = poisson_arrivals(n, lambda, unit_ns, ctx.params.seed);
        let [s, c, m] = makespans_scm(&wb, &specs, &arr);
        row(&[format!("{lambda:.0}"), secs(s), secs(c), secs(m), format!("{:.2}x", c / m)]);
        recs.push(json!({ "lambda": lambda, "S_ns": s, "C_ns": c, "M_ns": m }));
        eprintln!("[lambda={lambda}] done");
    }
    println!("\n(paper: higher speedup when jobs are submitted more frequently)");
    json!({ "rows": recs })
}

/// Figure 17 — 16 BFS or 16 SSSP jobs whose roots are sampled within
/// 1–5 hops of a base vertex (LiveJ): closer roots mean stronger access
/// similarity and bigger GraphM wins.
pub(crate) fn fig17_root_hops(ctx: &mut Ctx) -> Value {
    let wb = ctx.workbench(DatasetId::LiveJ);
    let n = ctx.params.jobs;
    // Base root: a well-connected vertex (max out-degree).
    let deg = wb.graph().out_degrees();
    let base = deg.iter().enumerate().max_by_key(|(_, &d)| d).map(|(v, _)| v as u32).unwrap_or(0);
    let mut recs = Vec::new();
    for kind in [AlgoKind::Bfs, AlgoKind::Sssp] {
        println!("\n{} jobs:", kind.name());
        header(&["hops", "S(s)", "C(s)", "M(s)", "M vs C"]);
        for hops in 1..=5usize {
            let roots = roots_within_hops(wb.graph(), base, hops, n, ctx.params.seed + hops as u64);
            let specs: Vec<JobSpec> = roots
                .iter()
                .map(|&root| JobSpec { kind, damping: 0.85, root, max_iters: 100 })
                .collect();
            let [s, c, m] = makespans_scm(&wb, &specs, &immediate_arrivals(n));
            row(&[hops.to_string(), secs(s), secs(c), secs(m), format!("{:.2}x", c / m)]);
            recs.push(json!({
                "algo": kind.name(), "hops": hops, "S_ns": s, "C_ns": c, "M_ns": m,
            }));
        }
    }
    println!("\n(paper: closer roots -> stronger similarity -> higher speedup)");
    json!({ "rows": recs })
}

/// The paper mix on `id` under `-M` with `cfg` changed by `tweak` — the
/// other side of an on/off comparison against [`Ctx::paper_run`].
fn paper_run_m_with(ctx: &mut Ctx, id: DatasetId, tweak: impl Fn(&mut RunnerConfig)) -> RunReport {
    let wb = ctx.workbench(id);
    let specs = wb.paper_mix(ctx.params.jobs, ctx.params.seed);
    let mut cfg = wb.runner_config();
    tweak(&mut cfg);
    wb.run_with(Scheme::Shared, &specs, &immediate_arrivals(specs.len()), &cfg)
}

/// Figure 18 — the §4 scheduling strategy: GridGraph-M with the Formula-5
/// loading order vs GridGraph-M-without (engine-native order).
pub(crate) fn fig18_scheduling(ctx: &mut Ctx) -> Value {
    header(&["dataset", "M-without(s)", "M(s)", "ratio"]);
    let mut recs = Vec::new();
    for id in DatasetId::ALL {
        let with = ctx.paper_run(id, Scheme::Shared);
        let without = paper_run_m_with(ctx, id, |cfg| cfg.policy = SchedulingPolicy::Default);
        row(&[
            id.name().into(),
            secs(without.makespan_ns),
            secs(with.makespan_ns),
            format!("{:.3}", with.makespan_ns / without.makespan_ns),
        ]);
        recs.push(json!({
            "dataset": id.name(), "without_ns": without.makespan_ns, "with_ns": with.makespan_ns,
        }));
        eprintln!("[{}] done", id.name());
    }
    println!("\n(paper: the strategy always helps; 72.5% of the without-time on Clueweb12)");
    json!({ "rows": recs })
}

/// Figure 19 — 1/2/4/8/16 concurrent PageRank jobs on Clueweb12 under the
/// three schemes, plus the §5.6 synchronization-cost share.
pub(crate) fn fig19_job_scaling(ctx: &mut Ctx) -> Value {
    let wb = ctx.workbench(DatasetId::Clueweb);
    header(&["jobs", "S(s)", "C(s)", "M(s)", "M vs S", "sync share"]);
    let mut recs = Vec::new();
    for n in [1usize, 2, 4, 8, 16] {
        let specs = generate_mix(
            wb.num_vertices(),
            &MixConfig::uniform(AlgoKind::PageRank, n, ctx.params.seed),
        );
        let runs = run_scm(&wb, &specs, &immediate_arrivals(n), &wb.runner_config());
        let shared = &runs[2].metrics;
        let sync_share = shared.get(keys::SYNC_NS)
            / (shared.get(keys::COMPUTE_NS) + shared.get(keys::DATA_ACCESS_NS)).max(1.0);
        let [s, c, m] = runs.map(|r| r.makespan_ns);
        row(&[
            n.to_string(),
            secs(s),
            secs(c),
            secs(m),
            format!("{:.2}x", s / m),
            format!("{:.1}%", sync_share * 100.0),
        ]);
        recs.push(json!({
            "jobs": n, "S_ns": s, "C_ns": c, "M_ns": m, "sync_share": sync_share,
        }));
        eprintln!("[{n} jobs] done");
    }
    println!("\n(paper: speedups 1.79/3.04/4.92/5.94x at 2/4/8/16 jobs; sync 7.1-14.6% of time;");
    println!(" with one job the schemes roughly tie)");
    json!({ "rows": recs })
}

/// Figure 20 — 16 jobs on twitter-sim while sweeping the (virtual) core
/// count 1..16.
pub(crate) fn fig20_core_scaling(ctx: &mut Ctx) -> Value {
    let wb = ctx.workbench(DatasetId::Twitter);
    let specs = wb.paper_mix(ctx.params.jobs, ctx.params.seed);
    let arr = immediate_arrivals(specs.len());
    header(&["cores", "S(s)", "C(s)", "M(s)"]);
    let mut recs = Vec::new();
    for cores in [1usize, 2, 4, 8, 16] {
        let mut cfg = wb.runner_config();
        cfg.profile.cores = cores;
        let [s, c, m] = run_scm(&wb, &specs, &arr, &cfg).map(|r| r.makespan_ns);
        row(&[cores.to_string(), secs(s), secs(c), secs(m)]);
        recs.push(json!({ "cores": cores, "S_ns": s, "C_ns": c, "M_ns": m }));
        eprintln!("[{cores} cores] done");
    }
    println!("\n(paper: M leads at every core count, and widens with more cores)");
    json!({ "rows": recs })
}

/// Ablation — chunk size around the Formula-1 value (×¼, ×½, ×1, ×2, ×4):
/// too small pays synchronization; too large thrashes the LLC (§3.2).
pub(crate) fn ablate_chunk_size(ctx: &mut Ctx) -> Value {
    let id = DatasetId::Twitter;
    let wb = ctx.workbench(id);
    let formula = chunk_size_bytes(&wb.profile, wb.structure_bytes, wb.num_vertices(), 8);
    header(&["chunk", "bytes", "M(s)", "LLC miss%", "sync(s)"]);
    let mut recs = Vec::new();
    for mult in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let bytes = ((formula as f64 * mult) as usize).max(192);
        let m = paper_run_m_with(ctx, id, |cfg| cfg.chunk_bytes_override = Some(bytes));
        let miss = m.metrics.get(keys::LLC_MISSES) / m.metrics.get(keys::LLC_ACCESSES).max(1.0);
        row(&[
            format!("{mult}x"),
            bytes.to_string(),
            secs(m.makespan_ns),
            format!("{:.2}%", miss * 100.0),
            format!("{:.4}", crate::ns_to_s(m.metrics.get(keys::SYNC_NS))),
        ]);
        recs.push(json!({
            "multiplier": mult, "chunk_bytes": bytes, "M_ns": m.makespan_ns,
            "miss_rate": miss, "sync_ns": m.metrics.get(keys::SYNC_NS),
        }));
        eprintln!("[{mult}x] done");
    }
    println!("\n(expected: the Formula-1 value (1x = {formula} B) is at or near the minimum)");
    json!({ "formula_bytes": formula, "rows": recs })
}

/// Ablation — fine-grained synchronization on/off: memory-level sharing
/// alone vs full chunk-level Share-Synchronize (§3.4).
pub(crate) fn ablate_sync(ctx: &mut Ctx) -> Value {
    header(&["dataset", "M-nosync(s)", "M(s)", "nosync miss%", "M miss%"]);
    let mut recs = Vec::new();
    for id in DatasetId::ALL {
        let with = ctx.paper_run(id, Scheme::Shared);
        let without = paper_run_m_with(ctx, id, |cfg| cfg.fine_sync = false);
        row(&[
            id.name().into(),
            secs(without.makespan_ns),
            secs(with.makespan_ns),
            format!("{:.2}%", miss_pct(&without)),
            format!("{:.2}%", miss_pct(&with)),
        ]);
        recs.push(json!({
            "dataset": id.name(),
            "nosync_ns": without.makespan_ns, "with_ns": with.makespan_ns,
            "nosync_miss": miss_pct(&without), "with_miss": miss_pct(&with),
        }));
        eprintln!("[{}] done", id.name());
    }
    println!("\n(expected: memory-level sharing already helps I/O; chunk sync adds the LLC wins)");
    json!({ "rows": recs })
}
