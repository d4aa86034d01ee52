//! The PowerGraph-style engine (GAS over a vertex-cut) with S/C/M schemes.
//!
//! PowerGraph keeps the graph in distributed memory; each GAS iteration
//! synchronizes every updated vertex's replicas (gather at the master,
//! scatter to mirrors), so network traffic per iteration is
//! `updated × 2 × (rf − 1)` messages. Jobs are placed on node *groups*
//! (§5.1); within a group:
//!
//! * **S** — jobs run one at a time, each loading the graph first;
//! * **C** — jobs run concurrently, each with its own in-memory copy
//!   (contended loads + possible memory over-commit, which swaps);
//! * **M** — GraphM holds one shared copy per group: one load, no
//!   over-commit, small per-iteration synchronization overhead.

use crate::cluster::{assign_jobs, group_sizes, ClusterConfig, NetStats};
use crate::exec::{run_iteration, DistReport, MSG_BYTES};
use crate::vertexcut::VertexCut;
use graphm_cachesim::{keys, Metrics};
use graphm_core::{GraphJob, Scheme};
use graphm_graph::{EdgeList, EDGE_BYTES};
use std::collections::HashMap;

/// Per-job virtual accounting within a group.
struct JobCost {
    compute_ns: f64,
    net_ns: f64,
    net: NetStats,
    iterations: usize,
    values: Vec<f64>,
}

/// Drives one job to convergence over a vertex-cut, returning its costs.
fn drive_job(
    job: &mut dyn GraphJob,
    cut: &VertexCut,
    cluster: &ClusterConfig,
    group_nodes: usize,
    max_iters: usize,
) -> JobCost {
    let mut cost = JobCost {
        compute_ns: 0.0,
        net_ns: 0.0,
        net: NetStats::default(),
        iterations: 0,
        values: Vec::new(),
    };
    let cost_factor = job.edge_cost_factor();
    for _ in 0..max_iters {
        let stats = run_iteration(job, &cut.node_edges);
        cost.iterations += 1;
        let busiest = stats.processed_per_node.iter().copied().max().unwrap_or(0) as f64;
        cost.compute_ns +=
            busiest * cluster.edge_compute_ns * cost_factor / cluster.cores_per_node as f64;
        // Replica synchronization: gather (mirror→master) + scatter
        // (master→mirror) for every updated vertex.
        let sync_msgs = stats.updated_vertices * 2.0 * (cut.replication_factor - 1.0).max(0.0);
        let sync_bytes = sync_msgs * MSG_BYTES;
        cost.net.messages += sync_msgs;
        cost.net.bytes += sync_bytes;
        cost.net_ns += cluster.net_ns(sync_bytes, 2.0, group_nodes);
        if stats.converged {
            break;
        }
    }
    cost.values = job.vertex_values();
    cost
}

/// Runs a PowerGraph job mix under `scheme` with the given node grouping.
pub fn run_powergraph(
    scheme: Scheme,
    mut jobs: Vec<Box<dyn GraphJob>>,
    graph: &EdgeList,
    cluster: ClusterConfig,
    groups: usize,
    max_iters: usize,
) -> DistReport {
    let sizes = group_sizes(cluster.nodes, groups);
    let placement = assign_jobs(jobs.len(), sizes.len());
    let graph_bytes = graph.num_edges() as f64 * EDGE_BYTES as f64;

    // One vertex-cut per distinct group size (placement is deterministic).
    let mut cuts: HashMap<usize, VertexCut> = HashMap::new();
    for &s in &sizes {
        cuts.entry(s).or_insert_with(|| VertexCut::random(graph, s));
    }

    let mut per_job_ns = vec![0.0; jobs.len()];
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut iterations = vec![0usize; jobs.len()];
    let mut metrics = Metrics::new();
    let mut makespan: f64 = 0.0;
    let mut net_total = NetStats::default();
    let mut peak_mem: f64 = 0.0;
    let mut disk_bytes: f64 = 0.0;

    // Jobs are taken out of the vec group by group.
    let mut job_slots: Vec<Option<Box<dyn GraphJob>>> = jobs.drain(..).map(Some).collect();

    for (gi, job_ids) in placement.iter().enumerate() {
        if job_ids.is_empty() {
            continue;
        }
        let nodes_g = sizes[gi];
        let cut = &cuts[&nodes_g];
        let k = job_ids.len() as f64;
        let mut group_compute = 0.0;
        let mut group_net_ns = 0.0;
        let mut group_sequential = 0.0;
        let mut finish_offsets: Vec<(usize, f64)> = Vec::new();
        for &jid in job_ids {
            let mut job = job_slots[jid].take().expect("job placed once");
            let c = drive_job(job.as_mut(), cut, &cluster, nodes_g, max_iters);
            net_total.bytes += c.net.bytes;
            net_total.messages += c.net.messages;
            group_compute += c.compute_ns;
            group_net_ns += c.net_ns;
            group_sequential += c.compute_ns + c.net_ns;
            finish_offsets.push((jid, group_sequential));
            results[jid] = c.values;
            iterations[jid] = c.iterations;
        }
        let group_ns = match scheme {
            Scheme::Sequential => {
                // Each job loads the graph, runs alone, releases it.
                let per_load = cluster.disk_stream_ns(graph_bytes, nodes_g, 1);
                disk_bytes += graph_bytes * k;
                peak_mem = peak_mem.max(graph_bytes);
                for (idx, (jid, fin)) in finish_offsets.iter().enumerate() {
                    per_job_ns[*jid] = per_load * (idx as f64 + 1.0) + fin;
                }
                per_load * k + group_sequential
            }
            Scheme::Concurrent => {
                // k private copies loaded through contended disks; memory
                // over-commit swaps the deficit every iteration.
                let load = cluster.disk_stream_ns(graph_bytes * k, nodes_g, job_ids.len());
                disk_bytes += graph_bytes * k;
                let mem_needed = graph_bytes * k;
                let mem_avail = (nodes_g * cluster.node_memory_bytes) as f64;
                peak_mem = peak_mem.max(mem_needed);
                let max_iter_count =
                    job_ids.iter().map(|&j| iterations[j]).max().unwrap_or(0) as f64;
                let deficit = (mem_needed - mem_avail).max(0.0);
                let swap_ns = if deficit > 0.0 {
                    disk_bytes += deficit * max_iter_count;
                    cluster.disk_stream_ns(deficit, nodes_g, job_ids.len()) * max_iter_count
                } else {
                    0.0
                };
                let exec = group_compute.max(group_net_ns) + swap_ns;
                for (jid, fin) in &finish_offsets {
                    // Concurrent jobs share the group; approximate each
                    // job's completion by its share of the serialized work.
                    per_job_ns[*jid] = load + exec * (fin / group_sequential.max(1e-9));
                }
                load + exec
            }
            Scheme::Shared => {
                // One shared copy; one load; bounded sync overhead.
                let load = cluster.disk_stream_ns(graph_bytes, nodes_g, 1);
                disk_bytes += graph_bytes;
                peak_mem = peak_mem.max(graph_bytes);
                let total_iters: usize = job_ids.iter().map(|&j| iterations[j]).sum();
                let sync_ns = total_iters as f64 * cluster.net_latency_ns;
                metrics.add(keys::SYNC_NS, sync_ns);
                let exec = group_compute.max(group_net_ns) + sync_ns;
                for (jid, fin) in &finish_offsets {
                    per_job_ns[*jid] = load + exec * (fin / group_sequential.max(1e-9));
                }
                load + exec
            }
        };
        // Groups execute in parallel: the cluster makespan is the slowest
        // group's clock; per-job times are relative to the common start.
        makespan = makespan.max(group_ns);
    }

    metrics.set(keys::TOTAL_NS, makespan);
    metrics.set(keys::JOBS, results.len() as f64);
    metrics.set(keys::NET_BYTES, net_total.bytes);
    metrics.set(keys::NET_MESSAGES, net_total.messages);
    metrics.set(keys::DISK_READ_BYTES, disk_bytes);
    metrics.set(keys::PEAK_MEMORY_BYTES, peak_mem);
    metrics.set(keys::ITERATIONS, iterations.iter().sum::<usize>() as f64);
    DistReport { metrics, per_job_ns, results, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_algos::{reference, RankBundle, Wcc};
    use graphm_graph::generators;
    use std::sync::Arc;

    fn graph() -> EdgeList {
        generators::rmat(300, 2500, generators::RmatParams::GRAPH500, 41)
    }

    fn pr_jobs(g: &EdgeList, n: usize) -> Vec<Box<dyn GraphJob>> {
        let deg = Arc::new(g.out_degrees());
        (0..n)
            .map(|i| {
                Box::new(
                    RankBundle::pagerank(
                        g.num_vertices,
                        Arc::clone(&deg),
                        &[(0.5 + 0.05 * i as f64, 5)],
                    )
                    .with_tolerance(0.0),
                ) as Box<dyn GraphJob>
            })
            .collect()
    }

    #[test]
    fn results_match_reference_across_schemes() {
        let g = graph();
        for scheme in [Scheme::Sequential, Scheme::Concurrent, Scheme::Shared] {
            let r = run_powergraph(scheme, pr_jobs(&g, 4), &g, ClusterConfig::new(8), 2, 100);
            for (i, vals) in r.results.iter().enumerate() {
                let oracle = reference::pagerank_ref(&g, 0.5 + 0.05 * i as f64, 5, 0.0);
                for (a, b) in vals.iter().zip(&oracle) {
                    assert!((a - b).abs() < 1e-9, "{scheme:?}");
                }
            }
        }
    }

    #[test]
    fn shared_is_fastest_and_reads_least() {
        let g = graph();
        let cluster = ClusterConfig::new(8);
        let s = run_powergraph(Scheme::Sequential, pr_jobs(&g, 8), &g, cluster, 1, 100);
        let c = run_powergraph(Scheme::Concurrent, pr_jobs(&g, 8), &g, cluster, 2, 100);
        let m = run_powergraph(Scheme::Shared, pr_jobs(&g, 8), &g, cluster, 2, 100);
        assert!(m.metrics.get(keys::TOTAL_NS) < c.metrics.get(keys::TOTAL_NS));
        assert!(m.metrics.get(keys::TOTAL_NS) < s.metrics.get(keys::TOTAL_NS));
        assert!(m.metrics.get(keys::DISK_READ_BYTES) < c.metrics.get(keys::DISK_READ_BYTES));
        assert!(m.metrics.get(keys::PEAK_MEMORY_BYTES) <= c.metrics.get(keys::PEAK_MEMORY_BYTES));
    }

    #[test]
    fn wcc_converges_distributed() {
        let g = generators::symmetrize(&graph());
        let jobs: Vec<Box<dyn GraphJob>> = vec![Box::new(Wcc::new(g.num_vertices))];
        let r = run_powergraph(Scheme::Shared, jobs, &g, ClusterConfig::new(4), 1, 1000);
        let oracle = reference::wcc_ref(&g);
        for (a, b) in r.results[0].iter().zip(&oracle) {
            assert_eq!(*a, *b as f64);
        }
    }

    #[test]
    fn network_traffic_reported() {
        let g = graph();
        let r = run_powergraph(Scheme::Shared, pr_jobs(&g, 2), &g, ClusterConfig::new(8), 1, 100);
        assert!(r.metrics.get(keys::NET_BYTES) > 0.0);
        assert!(r.metrics.get(keys::NET_MESSAGES) > 0.0);
    }
}
