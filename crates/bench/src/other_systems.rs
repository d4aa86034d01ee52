//! The datasets and the other host systems GraphM plugs into: Tables 2–4
//! and the distributed scaling of Figure 21.

use crate::{header, row, secs, Ctx, GRID_P};
use graphm_cachesim::keys;
use graphm_core::{GraphJob, GraphMConfig, Scheme, Submission};
use graphm_distributed::{run_chaos, run_powergraph, ClusterConfig, DistReport};
use graphm_graph::{DatasetId, EdgeList};
use graphm_graphchi::{run_graphchi, GraphChiEngine};
use graphm_gridgraph::{graphm_preprocess_wall, GridGraphEngine};
use graphm_workloads::{generate_mix, JobSpec, MixConfig, Workbench};
use serde_json::{json, Value};

/// Concurrent jobs on the simulated clusters (§5.7 uses 64).
const DIST_JOBS: usize = 64;
/// Of those, how many GraphChi runs — a smaller count keeps the
/// cache-simulated single-machine run tractable.
const CHI_JOBS: usize = 8;
/// Nodes of Table 4's cluster.
const NODES: usize = 128;
/// Iteration bound of every cluster run.
const MAX_ITERS: usize = 5;

const SCHEMES: [Scheme; 3] = [Scheme::Sequential, Scheme::Concurrent, Scheme::Shared];

/// [`run_powergraph`] or [`run_chaos`].
type ClusterRun =
    fn(Scheme, Vec<Box<dyn GraphJob>>, &EdgeList, ClusterConfig, usize, usize) -> DistReport;

/// Total virtual ns of `specs` on a simulated cluster under `-S`, `-C`, `-M`.
fn cluster_scm(
    run: ClusterRun,
    specs: &[JobSpec],
    wb: &Workbench,
    cluster: ClusterConfig,
    groups: usize,
) -> [f64; 3] {
    let g = wb.graph();
    SCHEMES.map(|scheme| {
        let jobs = specs.iter().map(|s| s.instantiate(g.num_vertices, &wb.out_degrees)).collect();
        run(scheme, jobs, g, cluster, groups, MAX_ITERS).metrics.get(keys::TOTAL_NS)
    })
}

/// Figure 21 — scalability of the distributed schemes: 64 jobs on
/// UK-union over PowerGraph and Chaos, sweeping the node count 64..128.
/// Speedups are relative to each scheme's own 64-node run, as the paper
/// plots them.
pub(crate) fn fig21_distributed_scaling(ctx: &mut Ctx) -> Value {
    let wb = ctx.workbench(DatasetId::UkUnion);
    let specs = generate_mix(wb.num_vertices(), &MixConfig::paper(DIST_JOBS, ctx.params.seed));
    let mut recs = Vec::new();
    for (engine_name, run) in [("PowerGraph", run_powergraph as ClusterRun), ("Chaos", run_chaos)] {
        println!("\n{engine_name}:");
        header(&["nodes", "S", "C", "M", "(speedup vs 64 nodes)"]);
        let mut base: Option<(f64, f64, f64)> = None;
        for nodes in [64usize, 80, 96, 102, 128] {
            let [s, c, m] = cluster_scm(run, &specs, &wb, ClusterConfig::new(nodes), 1);
            let b = *base.get_or_insert((s, c, m));
            row(&[
                nodes.to_string(),
                format!("{:.2}x", b.0 / s),
                format!("{:.2}x", b.1 / c),
                format!("{:.2}x", b.2 / m),
                String::new(),
            ]);
            recs.push(json!({
                "engine": engine_name, "nodes": nodes,
                "S_ns": s, "C_ns": c, "M_ns": m,
                "S_speedup": b.0 / s, "C_speedup": b.1 / c, "M_speedup": b.2 / m,
            }));
            eprintln!("[{engine_name} {nodes} nodes] done");
        }
    }
    println!("\n(paper: all schemes gain from 64->128 nodes; the M variants scale best)");
    json!({ "rows": recs })
}

/// Table 2 — properties of the (stand-in) datasets.
pub(crate) fn tab02_datasets(ctx: &mut Ctx) -> Value {
    header(&["dataset", "paper", "vertices", "edges", "size", "max-deg", "avg-deg"]);
    let mut recs = Vec::new();
    for id in DatasetId::ALL {
        let spec = id.spec();
        let wb = ctx.workbench(id);
        let g = wb.graph();
        let size_mb = g.size_bytes() as f64 / (1 << 20) as f64;
        row(&[
            id.name().into(),
            id.paper_name().into(),
            g.num_vertices.to_string(),
            g.num_edges().to_string(),
            format!("{size_mb:.1} MB"),
            g.max_out_degree().to_string(),
            format!("{:.1}", g.avg_out_degree()),
        ]);
        recs.push(json!({
            "name": id.name(),
            "paper": id.paper_name(),
            "vertices": g.num_vertices,
            "edges": g.num_edges(),
            "bytes": g.size_bytes(),
            "max_out_degree": g.max_out_degree(),
            "avg_out_degree": g.avg_out_degree(),
            "standin_full_vertices": spec.num_vertices,
            "standin_full_edges": spec.num_edges,
        }));
    }
    println!("\n(paper sizes: LiveJ 526 MB, Orkut 894 MB, Twitter 10.9 GB, UK-union 40.1 GB, Clueweb12 317 GB)");
    json!({ "datasets": recs })
}

/// Table 3 — preprocessing time of GridGraph vs GridGraph-M (the grid
/// conversion plus GraphM's Formula-1 sizing and Algorithm-1 labelling),
/// and the §5.2 extra-space-overhead block. The two time columns are wall
/// clock: the one record that differs run to run.
pub(crate) fn tab03_preprocessing(ctx: &mut Ctx) -> Value {
    header(&["dataset", "GridGraph(ms)", "GridGraph-M(ms)", "extra", "label bytes", "space ovh"]);
    let mut recs = Vec::new();
    for id in DatasetId::ALL {
        let wb = ctx.workbench(id);
        let g = wb.graph();
        let (engine, convert) = GridGraphEngine::convert(g, GRID_P);
        let mut cfg = GraphMConfig::new(wb.profile);
        cfg.out_of_core = wb.out_of_core();
        let (gm, label) = graphm_preprocess_wall(&engine, cfg);
        let base_ms = convert.as_secs_f64() * 1e3;
        let with_ms = (convert + label).as_secs_f64() * 1e3;
        let ovh = gm.overhead_ratio(g.size_bytes());
        row(&[
            id.name().into(),
            format!("{base_ms:.1}"),
            format!("{with_ms:.1}"),
            format!("+{:.1}%", (with_ms / base_ms - 1.0) * 100.0),
            format!("{:.2} MB", gm.overhead_bytes() as f64 / (1 << 20) as f64),
            format!("{:.1}%", ovh * 100.0),
        ]);
        recs.push(json!({
            "dataset": id.name(), "convert_ms": base_ms, "with_graphm_ms": with_ms,
            "chunk_table_bytes": gm.overhead_bytes(), "space_overhead": ovh,
            "chunk_bytes": gm.chunk_bytes,
        }));
    }
    println!(
        "\n(paper: labelling adds ~4% in-memory / ~16% out-of-core; space overhead 5.5%-19.2%,"
    );
    println!(" highest for Twitter whose max out-degree dwarfs its average)");
    json!({ "rows": recs })
}

/// Table 4 — 64 concurrent jobs on the other host systems: GraphChi
/// (single machine, out-of-core) and the simulated PowerGraph/Chaos
/// clusters, under S/C/M. Node-group counts follow §5.1.
pub(crate) fn tab04_other_systems(ctx: &mut Ctx) -> Value {
    // §5.1 group counts for 64 jobs per dataset (PowerGraph / Chaos).
    let pg_groups = [8usize, 8, 4, 1, 1];
    let chaos_groups = [8usize, 4, 2, 1, 1];
    let cluster = ClusterConfig::new(NODES);
    let mut recs = Vec::new();
    header(&["system", "dataset", "S(s)", "C(s)", "M(s)", "M vs best"]);
    for (di, id) in DatasetId::ALL.into_iter().enumerate() {
        let wb = ctx.workbench(id);
        let g = wb.graph();
        let specs = generate_mix(g.num_vertices, &MixConfig::paper(DIST_JOBS, ctx.params.seed));
        let mut triplet = |system: &str, [s, c, m]: [f64; 3]| {
            row(&[
                system.into(),
                id.name().into(),
                secs(s),
                secs(c),
                secs(m),
                format!("{:.2}x", s.min(c) / m),
            ]);
            recs.push(json!({
                "system": system, "dataset": id.name(), "S_ns": s, "C_ns": c, "M_ns": m,
            }));
        };

        // GraphChi (single machine, deterministic runner).
        let (chi, _) = GraphChiEngine::convert(g, GRID_P * GRID_P);
        let cfg = wb.runner_config();
        let subs = || -> Vec<Submission> {
            specs[..CHI_JOBS.min(specs.len())]
                .iter()
                .map(|s| Submission::immediate(s.instantiate(g.num_vertices, &wb.out_degrees)))
                .collect()
        };
        triplet("GraphChi", SCHEMES.map(|sch| run_graphchi(sch, subs(), &chi, &cfg).makespan_ns));

        // PowerGraph and Chaos on the simulated cluster.
        triplet("PowerGraph", cluster_scm(run_powergraph, &specs, &wb, cluster, pg_groups[di]));
        triplet("Chaos", cluster_scm(run_chaos, &specs, &wb, cluster, chaos_groups[di]));
        eprintln!("[{}] done", id.name());
    }
    println!("\n(paper, LiveJ: GraphChi 2348/776/344s; PowerGraph 92/83/43s; Chaos 224/516/121s —");
    println!(" note Chaos-C slower than Chaos-S, M best everywhere)");
    json!({ "rows": recs })
}
