//! The Chaos-style engine (scale-out edge streaming) with S/C/M schemes.
//!
//! Chaos [Roy et al., SOSP '15] extends X-Stream to a cluster: edges are
//! striped over the nodes' *secondary storage* with no locality, and every
//! iteration streams them back in; vertex state lives wherever its stripe
//! landed, so most state accesses cross the network. Consequences the cost
//! model reproduces:
//!
//! * every iteration pays a full disk re-stream (out-of-core by design);
//! * scheme `-C` multiplies that stream per job **and** interleaves the
//!   streams on the same disks (seek interference) — the reason Table 4
//!   shows Chaos-C *slower than Chaos-S*;
//! * scheme `-M` streams once per sweep for all jobs in a group.

use crate::cluster::{assign_jobs, group_sizes, ClusterConfig, NetStats};
use crate::exec::{run_iteration, DistReport, MSG_BYTES};
use graphm_cachesim::{keys, Metrics};
use graphm_core::{GraphJob, Scheme};
use graphm_graph::{Edge, EdgeList, EDGE_BYTES};
use std::collections::HashMap;
use std::sync::Arc;

/// Stripes edges round-robin across `nodes` (Chaos's storage layout).
pub fn stripe(graph: &EdgeList, nodes: usize) -> Vec<Arc<Vec<Edge>>> {
    assert!(nodes >= 1);
    let mut stripes: Vec<Vec<Edge>> = vec![Vec::new(); nodes];
    for (i, e) in graph.edges.iter().enumerate() {
        stripes[i % nodes].push(*e);
    }
    stripes.into_iter().map(Arc::new).collect()
}

struct JobCost {
    compute_ns: f64,
    net_ns: f64,
    net: NetStats,
    iterations: usize,
    values: Vec<f64>,
}

fn drive_job(
    job: &mut dyn GraphJob,
    stripes: &[Arc<Vec<Edge>>],
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
    let p_remote = (group_nodes as f64 - 1.0) / group_nodes as f64;
    for _ in 0..max_iters {
        let stats = run_iteration(job, stripes);
        cost.iterations += 1;
        let busiest = stats.processed_per_node.iter().copied().max().unwrap_or(0) as f64;
        let processed: u64 = stats.processed_per_node.iter().sum();
        cost.compute_ns +=
            busiest * cluster.edge_compute_ns * cost_factor / cluster.cores_per_node as f64;
        // No locality: reading the source value and pushing the update
        // each cross the network with probability (n-1)/n.
        let msgs = processed as f64 * p_remote * 2.0;
        let bytes = msgs * MSG_BYTES;
        cost.net.messages += msgs;
        cost.net.bytes += bytes;
        cost.net_ns += cluster.net_ns(bytes, 2.0, group_nodes);
        if stats.converged {
            break;
        }
    }
    cost.values = job.vertex_values();
    cost
}

/// Runs a Chaos job mix under `scheme` with the given node grouping.
pub fn run_chaos(
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
    let mut stripes_by_size: HashMap<usize, Vec<Arc<Vec<Edge>>>> = HashMap::new();
    for &s in &sizes {
        stripes_by_size.entry(s).or_insert_with(|| stripe(graph, s));
    }

    let mut per_job_ns = vec![0.0; jobs.len()];
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut iterations = vec![0usize; jobs.len()];
    let mut metrics = Metrics::new();
    let mut makespan: f64 = 0.0;
    let mut net_total = NetStats::default();
    let mut disk_bytes: f64 = 0.0;
    let mut job_slots: Vec<Option<Box<dyn GraphJob>>> = jobs.drain(..).map(Some).collect();

    for (gi, job_ids) in placement.iter().enumerate() {
        if job_ids.is_empty() {
            continue;
        }
        let nodes_g = sizes[gi];
        let stripes = &stripes_by_size[&nodes_g];
        let mut group_compute = 0.0;
        let mut group_net_ns = 0.0;
        let mut group_sequential = 0.0;
        let mut finish_offsets: Vec<(usize, f64)> = Vec::new();
        let mut iters_of: Vec<(usize, usize)> = Vec::new();
        for &jid in job_ids {
            let mut job = job_slots[jid].take().expect("job placed once");
            let c = drive_job(job.as_mut(), stripes, &cluster, nodes_g, max_iters);
            net_total.bytes += c.net.bytes;
            net_total.messages += c.net.messages;
            group_compute += c.compute_ns;
            group_net_ns += c.net_ns;
            group_sequential += c.compute_ns + c.net_ns;
            finish_offsets.push((jid, group_sequential));
            iters_of.push((jid, c.iterations));
            results[jid] = c.values;
            iterations[jid] = c.iterations;
        }
        let group_ns = match scheme {
            Scheme::Sequential => {
                // One job at a time; each iteration streams the stripes
                // once, sequentially (no interference).
                let mut t = 0.0;
                for (jid, fin) in &finish_offsets {
                    let iters = iterations[*jid] as f64;
                    let stream = cluster.disk_stream_ns(graph_bytes, nodes_g, 1) * iters;
                    disk_bytes += graph_bytes * iters;
                    t += stream;
                    per_job_ns[*jid] = t + fin;
                }
                t + group_sequential
            }
            Scheme::Concurrent => {
                // Every job streams its own pass every iteration, all at
                // once: k interleaved streams per disk.
                let k = job_ids.len();
                let mut stream_total = 0.0;
                for (jid, _) in &finish_offsets {
                    let iters = iterations[*jid] as f64;
                    stream_total += cluster.disk_stream_ns(graph_bytes, nodes_g, k) * iters;
                    disk_bytes += graph_bytes * iters;
                }
                let exec = group_compute.max(group_net_ns) + stream_total;
                for (jid, fin) in &finish_offsets {
                    per_job_ns[*jid] = exec * (fin / group_sequential.max(1e-9));
                }
                exec
            }
            Scheme::Shared => {
                // GraphM sweep: one stream per iteration serves every job
                // in the group; sweeps continue until the longest job ends.
                let max_iters_g = iters_of.iter().map(|&(_, it)| it).max().unwrap_or(0) as f64;
                let stream = cluster.disk_stream_ns(graph_bytes, nodes_g, 1) * max_iters_g;
                disk_bytes += graph_bytes * max_iters_g;
                let sync_ns = max_iters_g * job_ids.len() as f64 * cluster.net_latency_ns;
                metrics.add(keys::SYNC_NS, sync_ns);
                let exec = group_compute.max(group_net_ns) + stream + sync_ns;
                for (jid, fin) in &finish_offsets {
                    per_job_ns[*jid] = exec * (fin / group_sequential.max(1e-9));
                }
                exec
            }
        };
        makespan = makespan.max(group_ns);
    }

    metrics.set(keys::TOTAL_NS, makespan);
    metrics.set(keys::JOBS, results.len() as f64);
    metrics.set(keys::NET_BYTES, net_total.bytes);
    metrics.set(keys::NET_MESSAGES, net_total.messages);
    metrics.set(keys::DISK_READ_BYTES, disk_bytes);
    metrics.set(keys::ITERATIONS, iterations.iter().sum::<usize>() as f64);
    DistReport { metrics, per_job_ns, results, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphm_algos::{reference, Bfs, RankBundle};
    use graphm_graph::generators;
    use std::sync::Arc as StdArc;

    fn graph() -> EdgeList {
        generators::rmat(250, 2000, generators::RmatParams::GRAPH500, 61)
    }

    fn pr_jobs(g: &EdgeList, n: usize) -> Vec<Box<dyn GraphJob>> {
        let deg = StdArc::new(g.out_degrees());
        (0..n)
            .map(|i| {
                Box::new(
                    RankBundle::pagerank(
                        g.num_vertices,
                        StdArc::clone(&deg),
                        &[(0.5 + 0.05 * i as f64, 4)],
                    )
                    .with_tolerance(0.0),
                ) as Box<dyn GraphJob>
            })
            .collect()
    }

    #[test]
    fn stripes_preserve_edges() {
        let g = graph();
        let s = stripe(&g, 7);
        let total: usize = s.iter().map(|x| x.len()).sum();
        assert_eq!(total, g.num_edges());
    }

    #[test]
    fn results_match_reference() {
        let g = graph();
        let r = run_chaos(Scheme::Shared, pr_jobs(&g, 3), &g, ClusterConfig::new(6), 2, 100);
        for (i, vals) in r.results.iter().enumerate() {
            let oracle = reference::pagerank_ref(&g, 0.5 + 0.05 * i as f64, 4, 0.0);
            for (a, b) in vals.iter().zip(&oracle) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn paper_ordering_m_best_c_worst() {
        // Table 4: Chaos-C is slower than Chaos-S; Chaos-M beats both.
        let g = graph();
        let cluster = ClusterConfig::new(8);
        let s = run_chaos(Scheme::Sequential, pr_jobs(&g, 8), &g, cluster, 2, 100);
        let c = run_chaos(Scheme::Concurrent, pr_jobs(&g, 8), &g, cluster, 2, 100);
        let m = run_chaos(Scheme::Shared, pr_jobs(&g, 8), &g, cluster, 2, 100);
        let (ts, tc, tm) = (
            s.metrics.get(keys::TOTAL_NS),
            c.metrics.get(keys::TOTAL_NS),
            m.metrics.get(keys::TOTAL_NS),
        );
        assert!(tc > ts, "C {tc} should exceed S {ts} (seek interference)");
        assert!(tm < ts, "M {tm} should beat S {ts}");
        assert!(m.metrics.get(keys::DISK_READ_BYTES) < c.metrics.get(keys::DISK_READ_BYTES));
    }

    #[test]
    fn frontier_job_runs() {
        let g = graph();
        let jobs: Vec<Box<dyn GraphJob>> = vec![Box::new(Bfs::new(g.num_vertices, 1))];
        let r = run_chaos(Scheme::Sequential, jobs, &g, ClusterConfig::new(4), 1, 1000);
        let oracle = reference::bfs_ref(&g, 1);
        for (a, b) in r.results[0].iter().zip(&oracle) {
            assert_eq!(*a, *b as f64);
        }
    }
}
