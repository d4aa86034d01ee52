//! The simulated cluster substrate.
//!
//! The paper's distributed experiments (Table 4, Figure 21) run on a
//! 128-node 1-GbE cluster of the same 16-core/32 GB machines. We have one
//! 2-core container, so the cluster is simulated: nodes are logical
//! entities holding edge stripes; computation runs for real (the actual
//! algorithms over the node-partitioned edges), while elapsed time is
//! assembled from a documented cost model — per-node compute throughput,
//! network bytes/latency, and disk streaming with seek interference
//! between concurrent streams.

/// Static description of the simulated cluster.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Cores per node (paper: 16).
    pub cores_per_node: usize,
    /// DRAM per node available for graph data (scaled with the datasets,
    /// like `MemoryProfile`).
    pub node_memory_bytes: usize,
    /// Network bandwidth per node in bytes/ns (1 GbE = 0.125 B/ns).
    pub net_bytes_per_ns: f64,
    /// One-way message latency in ns.
    pub net_latency_ns: f64,
    /// Per-node disk streaming bandwidth in bytes/ns (HDD ≈ 150 MB/s).
    pub disk_bytes_per_ns: f64,
    /// Disk seek cost in ns, paid whenever a stream is interrupted
    /// (scaled down with the datasets, like `CostParams::disk_seek_ns`).
    pub disk_seek_ns: f64,
    /// Per-edge compute cost in ns (matches the single-machine model).
    pub edge_compute_ns: f64,
}

impl ClusterConfig {
    /// A cluster of `nodes` nodes with paper-like per-node parameters and
    /// a scaled 4 MB memory budget per node.
    pub fn new(nodes: usize) -> ClusterConfig {
        assert!(nodes >= 1);
        ClusterConfig {
            nodes,
            cores_per_node: 16,
            node_memory_bytes: 4 << 20,
            net_bytes_per_ns: 0.125,
            net_latency_ns: 50_000.0,
            disk_bytes_per_ns: 0.15,
            disk_seek_ns: 500_000.0,
            edge_compute_ns: 5.0,
        }
    }

    /// Time to stream `bytes` from the disks of `nodes` nodes in parallel,
    /// with `interleaved_streams` concurrent readers per disk causing a
    /// seek each time the head switches streams (every `quantum` bytes).
    pub fn disk_stream_ns(&self, bytes: f64, nodes: usize, interleaved_streams: usize) -> f64 {
        if bytes <= 0.0 {
            return 0.0;
        }
        let per_node = bytes / nodes.max(1) as f64;
        let base = per_node / self.disk_bytes_per_ns;
        let quantum = 1024.0 * 1024.0; // readahead window per stream
        let switches = if interleaved_streams > 1 {
            (per_node / quantum).ceil() * (interleaved_streams as f64 - 1.0).min(8.0)
        } else {
            0.0
        };
        self.disk_seek_ns + base + switches * self.disk_seek_ns
    }

    /// Time for `bytes`/`messages` of all-to-all traffic across `nodes`
    /// nodes: bandwidth is per-node, latency paid per communication round.
    pub fn net_ns(&self, bytes: f64, rounds: f64, nodes: usize) -> f64 {
        let per_node = bytes / nodes.max(1) as f64;
        per_node / self.net_bytes_per_ns + rounds * self.net_latency_ns
    }
}

/// Network counters for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Total bytes moved.
    pub bytes: f64,
    /// Total messages sent.
    pub messages: f64,
}

/// Splits `nodes` into `groups` near-equal groups and returns each group's
/// node count (the §5.1 job-placement scheme: "the nodes are divided into
/// groups and each group of nodes are used to handle a subset of jobs").
pub fn group_sizes(nodes: usize, groups: usize) -> Vec<usize> {
    let groups = groups.clamp(1, nodes);
    let base = nodes / groups;
    let extra = nodes % groups;
    (0..groups).map(|g| base + usize::from(g < extra)).collect()
}

/// Assigns `jobs` round-robin over `groups` groups ("the newly submitted
/// jobs are assigned to the groups in turn"); returns per-group job
/// indices.
pub fn assign_jobs(jobs: usize, groups: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); groups.max(1)];
    for j in 0..jobs {
        out[j % groups.max(1)].push(j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_sizes_cover_all_nodes() {
        assert_eq!(group_sizes(128, 8), vec![16; 8]);
        assert_eq!(group_sizes(10, 3), vec![4, 3, 3]);
        assert_eq!(group_sizes(4, 9), vec![1, 1, 1, 1], "groups clamp to nodes");
        let total: usize = group_sizes(77, 5).iter().sum();
        assert_eq!(total, 77);
    }

    #[test]
    fn assign_round_robin() {
        let a = assign_jobs(5, 2);
        assert_eq!(a[0], vec![0, 2, 4]);
        assert_eq!(a[1], vec![1, 3]);
    }

    #[test]
    fn disk_interference_slows_streams() {
        let c = ClusterConfig::new(4);
        let alone = c.disk_stream_ns(1e9, 4, 1);
        let contended = c.disk_stream_ns(1e9, 4, 8);
        assert!(contended > alone * 1.5, "{contended} vs {alone}");
    }

    #[test]
    fn more_nodes_faster_streaming() {
        let c = ClusterConfig::new(16);
        assert!(c.disk_stream_ns(1e9, 16, 1) < c.disk_stream_ns(1e9, 4, 1));
    }

    #[test]
    fn net_model_scales() {
        let c = ClusterConfig::new(8);
        let t1 = c.net_ns(1e6, 2.0, 8);
        let t2 = c.net_ns(2e6, 2.0, 8);
        assert!(t2 > t1);
        assert!(c.net_ns(0.0, 1.0, 8) >= c.net_latency_ns);
    }
}
