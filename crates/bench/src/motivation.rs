//! §2 motivation: the production trace and what uncoordinated concurrent
//! jobs do to one machine (Figures 2–4).

use crate::{header, ns_to_s, row, Ctx};
use graphm_cachesim::keys;
use graphm_core::{PartitionSource, Scheme};
use graphm_graph::DatasetId;
use graphm_gridgraph::GridSource;
use graphm_workloads::{
    generate_mix, immediate_arrivals, similarity_stats, weekly_concurrency, AlgoKind, MixConfig,
    Trace,
};
use serde_json::{json, Value};

/// Figure 2 — number of concurrent jobs traced on a social network over
/// one week (the motivation trace: peak > 30, mean ≈ 16).
pub(crate) fn fig02_trace(ctx: &mut Ctx) -> Value {
    let curve = weekly_concurrency(ctx.params.seed);
    header(&["hour", "jobs", "bar"]);
    for (h, &n) in curve.iter().enumerate().step_by(4) {
        row(&[h.to_string(), n.to_string(), "#".repeat(n)]);
    }
    let mean = curve.iter().sum::<usize>() as f64 / curve.len() as f64;
    let peak = *curve.iter().max().unwrap();
    println!("\npeak = {peak} concurrent jobs (paper: >30)");
    println!("mean = {mean:.1} concurrent jobs (paper: ~16)");
    json!({ "curve": curve, "peak": peak, "mean": mean })
}

/// Figure 3 — the motivating measurement: concurrent jobs on plain
/// GridGraph (scheme C) over Twitter. (a) total memory, (b) total LLC
/// misses, (c) LLC misses per instruction, (d) average execution time,
/// each for 1/2/4/8 concurrent jobs of each algorithm.
pub(crate) fn fig03_motivation(ctx: &mut Ctx) -> Value {
    let wb = ctx.workbench(DatasetId::Twitter);
    let mut records = Vec::new();
    header(&["algo", "jobs", "mem(MB)", "LLCmiss(M)", "LPI", "avg-time(s)"]);
    for algo in [AlgoKind::PageRank, AlgoKind::Wcc, AlgoKind::Bfs, AlgoKind::Sssp] {
        for n in [1usize, 2, 4, 8] {
            let specs =
                generate_mix(wb.num_vertices(), &MixConfig::uniform(algo, n, ctx.params.seed));
            let r = wb.run(Scheme::Concurrent, &specs, &immediate_arrivals(n));
            let mem_mb = r.metrics.get(keys::PEAK_MEMORY_BYTES) / (1 << 20) as f64;
            let misses = r.metrics.get(keys::LLC_MISSES);
            let lpi = misses / r.metrics.get(keys::INSTRUCTIONS).max(1.0);
            let avg_s = ns_to_s(r.avg_job_turnaround_ns());
            row(&[
                algo.name().into(),
                n.to_string(),
                format!("{mem_mb:.2}"),
                format!("{:.2}", misses / 1e6),
                format!("{lpi:.5}"),
                format!("{avg_s:.3}"),
            ]);
            records.push(json!({
                "algo": algo.name(), "jobs": n, "memory_bytes": r.metrics.get(keys::PEAK_MEMORY_BYTES),
                "llc_misses": misses, "lpi": lpi, "avg_time_ns": r.avg_job_turnaround_ns(),
            }));
        }
    }
    println!("\n(paper: all four metrics grow with the job count; LPI rises ~10% at 8 jobs)");
    json!({ "points": records })
}

/// Figure 4 — spatial/temporal similarity of concurrent jobs' data
/// accesses on the traced workload: (a) fraction of the graph shared by
/// more than k jobs, (b) mean accesses per touched partition per hour.
pub(crate) fn fig04_similarity(ctx: &mut Ctx) -> Value {
    let wb = ctx.workbench(DatasetId::LiveJ);
    let source = GridSource::new(wb.engine().grid());
    let trace = Trace::generate(wb.num_vertices(), ctx.params.seed);
    let num_partitions = source.num_partitions();

    // For each of the first six hours (the paper's x-axis), derive each
    // job's partition access list from its frontier evolution: dense jobs
    // touch every partition every iteration; sparse jobs touch the
    // partitions activated by their roots.
    header(&[">1 job", ">2 jobs", ">4 jobs", ">8 jobs", "avg-accesses"]);
    let ks = [1usize, 2, 4, 8];
    let mut hours = Vec::new();
    for hour in 0..6 {
        let per_job: Vec<Vec<usize>> = trace.hourly_jobs[hour]
            .iter()
            .map(|spec| {
                let mut job = spec.instantiate(wb.num_vertices(), &wb.out_degrees);
                let mut touched = Vec::new();
                // Trace partition touches across this job's iterations.
                for _ in 0..spec.max_iters.min(8) {
                    let mut any = false;
                    for pid in 0..num_partitions {
                        if source.partition_active(pid, job.active()) {
                            touched.push(pid);
                            any = true;
                            job.process_chunk(&source.load(pid));
                        }
                    }
                    if !any || job.end_iteration() {
                        break;
                    }
                }
                touched
            })
            .collect();
        let (fracs, avg) = similarity_stats(&per_job, num_partitions, &ks);
        let mut cells: Vec<String> = fracs.iter().map(|f| format!("{:.1}%", f * 100.0)).collect();
        cells.push(format!("{avg:.1}"));
        row(&cells);
        hours.push(json!({ "hour": hour, "shared_gt": fracs, "avg_accesses": avg }));
    }
    println!("\n(paper: >82% of the graph shared by >1 job; ~7 accesses/hour)");
    json!({ "hours": hours })
}
