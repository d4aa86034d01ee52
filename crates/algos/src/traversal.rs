//! What the traversal kernels share: [`Traversal`], 1, 2 or 4 lanes of
//! one frontier-driven algorithm — [`crate::Sssp`] or [`crate::Bfs`], one
//! lane per root — served as one job, so that one read of a run of edges
//! feeds every lane whose frontier holds the run's source.
//!
//! Values are interleaved per vertex as `[T; K]`; each vertex carries a
//! `u8` lane mask for the current frontier and one for the next. Per run
//! of the chunk table, the walk takes `m = now[source] & live` and skips
//! the run when `m` is 0; otherwise each lane of `m` relaxes the run's
//! edges in order. Lanes never read each other, so each lane's values,
//! iterations and edges processed are bit for bit those of a traversal of
//! one from the same root streamed the same partitions. The job's active
//! set ([`graphm_core::GraphJob::active`]) is the union of the live
//! lanes' frontiers; the masks themselves are its
//! [`graphm_core::GraphJob::member_frontiers`], so that the sweep driver
//! gives each lane its own partitions and retires a lane whose frontier
//! has nothing left to stream.

use graphm_core::{ChunkEntry, Retired};
use graphm_graph::{AtomicBitmap, Edge, VertexId};

/// One traversal's per-vertex value and its edge rule.
pub(crate) trait Relax: Copy {
    /// A root's start value.
    const ROOT: Self;
    /// Every other vertex's start value.
    const UNREACHED: Self;
    /// Relaxes edge `e` from a source at `from` into its destination at
    /// `to`; `true` when `to` moved (the destination then joins the lane's
    /// next frontier).
    fn relax(from: Self, to: &mut Self, e: &Edge) -> bool;
    /// The value as reported.
    fn report(self) -> f64;
}

/// The lanes' values at their width.
enum Wide<T> {
    One(Vec<[T; 1]>),
    Two(Vec<[T; 2]>),
    Four(Vec<[T; 4]>),
}

/// Lane `k` of vertex `v` starts at `T::ROOT` when `v` is `roots[k]`.
fn start<T: Relax, const K: usize>(n: usize, roots: &[VertexId]) -> Vec<[T; K]> {
    let mut values = vec![[T::UNREACHED; K]; n];
    for (k, &root) in roots.iter().enumerate() {
        values[root as usize][k] = T::ROOT;
    }
    values
}

/// 1, 2 or 4 lanes of one traversal as one job (see the module docs).
/// Lane `k` is member `k`.
pub(crate) struct Traversal<T> {
    values: Wide<T>,
    lanes: Lanes,
}

/// The lanes' frontiers and counters.
struct Lanes {
    /// Per vertex, the live lanes whose current frontier holds it.
    now: Vec<u8>,
    /// Per vertex, the lanes that moved it this sweep.
    next: Vec<u8>,
    /// The vertices of `now`: the job's active set.
    union: AtomicBitmap,
    /// Lanes not retired.
    live: u8,
    /// Lanes that moved a vertex this sweep (SSSP's relaxed, BFS's
    /// discovered flag, per lane).
    moved: u8,
    /// Live lanes whose last sweep moved nothing.
    converged: u8,
    /// Per lane.
    iters: Vec<usize>,
    /// Per lane.
    edges: Vec<u64>,
}

impl<T: Relax> Traversal<T> {
    /// One lane per root.
    ///
    /// # Panics
    ///
    /// Unless there are 1, 2 or 4 roots, each below `num_vertices`.
    pub(crate) fn new(num_vertices: VertexId, roots: &[VertexId]) -> Traversal<T> {
        assert!(roots.iter().all(|&root| root < num_vertices), "root out of range");
        let n = num_vertices as usize;
        let values = match roots.len() {
            1 => Wide::One(start(n, roots)),
            2 => Wide::Two(start(n, roots)),
            4 => Wide::Four(start(n, roots)),
            width => panic!("a traversal bundle is 1, 2 or 4 wide, not {width}"),
        };
        let mut now = vec![0u8; n];
        let union = AtomicBitmap::new(n);
        for (k, &root) in roots.iter().enumerate() {
            now[root as usize] |= 1 << k;
            union.set(root as usize);
        }
        let width = roots.len();
        let lanes = Lanes {
            now,
            next: vec![0; n],
            union,
            live: ((1u16 << width) - 1) as u8,
            moved: 0,
            converged: 0,
            iters: vec![0; width],
            edges: vec![0; width],
        };
        Traversal { values, lanes }
    }

    pub(crate) fn width(&self) -> usize {
        self.lanes.iters.len()
    }

    pub(crate) fn active(&self) -> &AtomicBitmap {
        &self.lanes.union
    }

    pub(crate) fn frontiers(&self) -> &[u8] {
        &self.lanes.now
    }

    /// Sweeps ended: those of the longest-lived lane.
    pub(crate) fn iterations(&self) -> usize {
        self.lanes.iters.iter().copied().max().unwrap_or(0)
    }

    /// Lane `k`'s values.
    pub(crate) fn values(&self, k: usize) -> Vec<T> {
        match &self.values {
            Wide::One(values) => values.iter().map(|v| v[k]).collect(),
            Wide::Two(values) => values.iter().map(|v| v[k]).collect(),
            Wide::Four(values) => values.iter().map(|v| v[k]).collect(),
        }
    }

    pub(crate) fn process_chunk(&mut self, edges: &[Edge], runs: &[ChunkEntry]) -> u64 {
        match &mut self.values {
            Wide::One(values) => walk(values, edges, runs, &mut self.lanes),
            Wide::Two(values) => walk(values, edges, runs, &mut self.lanes),
            Wide::Four(values) => walk(values, edges, runs, &mut self.lanes),
        }
    }

    /// Ends the sweep of every live lane: counts its iteration, marks it
    /// converged when it moved nothing, and moves the next frontiers in.
    /// Returns whether every live lane converged.
    pub(crate) fn end_iteration(&mut self) -> bool {
        let lanes = &mut self.lanes;
        for k in set(lanes.live) {
            lanes.iters[k] += 1;
        }
        lanes.converged = lanes.live & !lanes.moved;
        lanes.moved = 0;
        std::mem::swap(&mut lanes.now, &mut lanes.next);
        lanes.next.fill(0);
        lanes.refresh();
        lanes.converged == lanes.live
    }

    /// Retires the lanes that converged at the last `end_iteration` and
    /// the live lanes in `idle`, in lane order; they stream nothing more.
    pub(crate) fn retire(&mut self, idle: &[usize]) -> Vec<Retired> {
        let lanes = &mut self.lanes;
        let mut going = std::mem::take(&mut lanes.converged);
        for &k in idle {
            going |= 1 << k;
        }
        going &= lanes.live;
        if going == 0 {
            return Vec::new();
        }
        lanes.live &= !going;
        if lanes.live != 0 {
            lanes.refresh();
        }
        let retired = |k: usize| Retired {
            member: k,
            iterations: self.lanes.iters[k],
            edges_processed: Some(self.lanes.edges[k]),
            values: self.values(k).into_iter().map(T::report).collect(),
        };
        set(going).map(retired).collect()
    }
}

impl Lanes {
    /// Drops retired lanes from `now` and rebuilds the union.
    fn refresh(&mut self) {
        self.union.clear_all();
        for (v, mask) in self.now.iter_mut().enumerate() {
            *mask &= self.live;
            if *mask != 0 {
                self.union.set(v);
            }
        }
    }
}

/// The lanes set in `mask`, ascending.
fn set(mask: u8) -> impl Iterator<Item = usize> {
    (0..8).filter(move |k| mask & 1 << k != 0)
}

/// Streams `edges` by their `runs` through every lane whose current
/// frontier holds the run's source: each such lane relaxes the run's
/// edges in order, lane by lane; a destination it moves joins that lane's
/// next frontier. Returns the edges of the runs some lane streamed.
fn walk<T: Relax, const K: usize>(
    values: &mut [[T; K]],
    edges: &[Edge],
    runs: &[ChunkEntry],
    lanes: &mut Lanes,
) -> u64 {
    let Lanes { now, next, edges: streamed_by, moved, .. } = lanes;
    let (mut streamed, mut at) = (0, 0);
    for run in runs {
        let len = run.out_edges as usize;
        let m = now[run.vertex as usize];
        if m != 0 {
            let run_edges = &edges[at..at + len];
            for k in 0..K {
                if m & 1 << k == 0 {
                    continue;
                }
                for e in run_edges {
                    let from = values[e.src as usize][k];
                    if T::relax(from, &mut values[e.dst as usize][k], e) {
                        next[e.dst as usize] |= 1 << k;
                        *moved |= 1 << k;
                    }
                }
                streamed_by[k] += len as u64;
            }
            streamed += len as u64;
        }
        at += len;
    }
    debug_assert_eq!(at, edges.len(), "the runs walk the whole chunk");
    streamed
}

#[cfg(test)]
mod tests {
    use crate::reference::{bfs_ref, sssp_ref};
    use crate::{Bfs, Sssp, UNREACHED};
    use graphm_core::{
        GraphJob, PartitionSource, Retired, VecSource, WallClockConfig, WallClockExecutor,
    };
    use graphm_graph::{generators, AtomicBitmap, Edge, EdgeList, Grid, MemoryProfile, VertexId};
    use std::sync::{Arc, Mutex};

    /// Vertex 300 reaches only the sinks 301 and 302 (its second frontier
    /// has nothing to stream); 303 has no out-edge at all.
    const TO_SINKS: VertexId = 300;
    const NO_OUT_EDGES: VertexId = 303;

    /// A 300-vertex R-MAT graph plus vertices 300..304 (see above).
    fn graph() -> EdgeList {
        let mut g = generators::rmat(300, 2400, generators::RmatParams::SOCIAL, 11);
        g.num_vertices = 304;
        g.edges.push(Edge::weighted(7, TO_SINKS, 2.5));
        g.edges.push(Edge::weighted(TO_SINKS, 301, 1.5));
        g.edges.push(Edge::weighted(TO_SINKS, 302, 0.5));
        g
    }

    /// `job` wrapped to record, per sweep, the partitions the driver
    /// streamed it, in the order it streamed them.
    struct Recorded {
        job: Box<dyn GraphJob>,
        partitions: Vec<Arc<Vec<Edge>>>,
        sweeps: Arc<Mutex<Vec<Vec<usize>>>>,
    }

    impl GraphJob for Recorded {
        fn name(&self) -> &str {
            self.job.name()
        }
        fn state_bytes_per_vertex(&self) -> usize {
            self.job.state_bytes_per_vertex()
        }
        fn active(&self) -> &AtomicBitmap {
            self.job.active()
        }
        fn process_edge(&mut self, e: &Edge) {
            self.job.process_edge(e)
        }
        fn process_chunk(&mut self, edges: &[Edge], runs: &[graphm_core::ChunkEntry]) -> u64 {
            let of = |part: &Arc<Vec<Edge>>| part.as_ptr_range().contains(&edges.as_ptr());
            let pid = self.partitions.iter().position(of).expect("a chunk of a partition");
            let mut sweeps = self.sweeps.lock().unwrap();
            let sweep = sweeps.last_mut().expect("a sweep is open");
            if sweep.last() != Some(&pid) {
                sweep.push(pid);
            }
            drop(sweeps);
            self.job.process_chunk(edges, runs)
        }
        fn end_iteration(&mut self) -> bool {
            self.sweeps.lock().unwrap().push(Vec::new());
            self.job.end_iteration()
        }
        fn iterations(&self) -> usize {
            self.job.iterations()
        }
        fn vertex_values(&self) -> Vec<f64> {
            self.job.vertex_values()
        }
        fn members(&self) -> usize {
            self.job.members()
        }
        fn member_frontiers(&self) -> Option<&[u8]> {
            self.job.member_frontiers()
        }
        fn retire_members(&mut self, idle: &[usize]) -> Vec<Retired> {
            self.job.retire_members(idle)
        }
    }

    /// One lane replayed alone and sequentially over `sweeps`, the
    /// partitions its seat was streamed: the textbook frontier loop, every
    /// edge of a frontier source relaxed in stream order. It ends after a
    /// sweep that moved nothing, or one that left a frontier without an
    /// out-edge (nothing to stream). Returns iterations, edges processed
    /// and value bits.
    fn replay<T: Copy>(
        g: &EdgeList,
        partitions: &[Arc<Vec<Edge>>],
        sweeps: &[Vec<usize>],
        (root, start, unreached): (VertexId, T, T),
        relax: impl Fn(&mut [T], &Edge) -> bool,
        bits: impl Fn(T) -> u64,
    ) -> (usize, u64, Vec<u64>) {
        let (n, degrees) = (g.num_vertices as usize, g.out_degrees());
        let mut values = vec![unreached; n];
        values[root as usize] = start;
        let mut frontier = vec![false; n];
        frontier[root as usize] = true;
        let (mut iterations, mut processed) = (0, 0);
        for sweep in sweeps {
            let mut next = vec![false; n];
            let mut moved = false;
            for e in sweep.iter().flat_map(|&pid| partitions[pid].iter()) {
                if frontier[e.src as usize] {
                    processed += 1;
                    if relax(&mut values, e) {
                        next[e.dst as usize] = true;
                        moved = true;
                    }
                }
            }
            iterations += 1;
            frontier = next;
            let streams = (0..n).any(|v| frontier[v] && degrees[v] > 0);
            if !moved || !streams {
                break;
            }
        }
        (iterations, processed, values.into_iter().map(bits).collect())
    }

    /// Runs `job` alone through a driver on one lane over `g`'s grid
    /// blocks in small chunks, and replays each of its lanes: every lane
    /// reports what its replay computes, and the textbook oracle's values.
    fn check(
        job: Box<dyn GraphJob>,
        roots: &[VertexId],
        g: &EdgeList,
        lane: impl Fn(&[Arc<Vec<Edge>>], &[Vec<usize>], VertexId) -> (usize, u64, Vec<u64>),
        oracle: impl Fn(VertexId) -> Vec<u64>,
    ) {
        let grid = Grid::convert(g, 2);
        let blocks = (0..grid.num_blocks()).map(|b| grid.block_by_index(b).to_vec()).collect();
        let source = Arc::new(VecSource::new(g.num_vertices, blocks));
        let partitions: Vec<_> = (0..source.num_partitions()).map(|p| source.load(p)).collect();
        let profile = MemoryProfile { llc_bytes: 8 << 10, ..MemoryProfile::TEST };
        let exec = WallClockExecutor::new(source, WallClockConfig::new(profile), None);
        let sweeps = Arc::new(Mutex::new(vec![Vec::new()]));
        let recorded =
            Recorded { job, partitions: partitions.clone(), sweeps: Arc::clone(&sweeps) };
        let run = exec.run_batch_single_thread(vec![Box::new(recorded)]);
        let sweeps = sweeps.lock().unwrap().clone();
        assert_eq!(run.jobs.len(), roots.len());
        for (report, &root) in run.jobs.iter().zip(roots) {
            let what = format!("{} lane {} of {} from {root}", report.name, report.id, roots.len());
            assert!(report.error.is_none(), "{what}");
            let bits: Vec<u64> = report.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, oracle(root), "{what}: values against the oracle");
            let (iterations, edges, values) = lane(&partitions, &sweeps, root);
            assert_eq!(report.iterations, iterations, "{what}: iterations");
            assert_eq!(report.edges_processed, edges, "{what}: edges processed");
            assert_eq!(bits, values, "{what}: values against the replay");
        }
    }

    /// Root sets at widths 1, 2 and 4: the hub; one root with no
    /// out-edge; one whose second frontier is all sinks; duplicates.
    fn bundles(g: &EdgeList) -> Vec<Vec<VertexId>> {
        let degrees = g.out_degrees();
        let hub = (0..300).max_by_key(|&v| degrees[v as usize]).unwrap();
        vec![
            vec![hub],
            vec![NO_OUT_EDGES],
            vec![TO_SINKS],
            vec![TO_SINKS, hub],
            vec![17, 17],
            vec![hub, NO_OUT_EDGES, TO_SINKS, 42],
            vec![5, TO_SINKS, 5, hub],
        ]
    }

    #[test]
    fn sssp_lanes_equal_the_oracle_and_their_replays() {
        let g = graph();
        let relax = |d: &mut [f32], e: &Edge| {
            let cand = d[e.src as usize] + e.weight;
            let moved = cand < d[e.dst as usize];
            if moved {
                d[e.dst as usize] = cand;
            }
            moved
        };
        let bits = |d: f32| f64::from(d).to_bits();
        let lane = |partitions: &[Arc<Vec<Edge>>], sweeps: &[Vec<usize>], root| {
            replay(&g, partitions, sweeps, (root, 0.0, f32::INFINITY), relax, bits)
        };
        let oracle = |root| sssp_ref(&g, root).into_iter().map(bits).collect();
        for roots in bundles(&g) {
            check(Box::new(Sssp::bundle(g.num_vertices, &roots)), &roots, &g, lane, oracle);
        }
    }

    #[test]
    fn bfs_lanes_equal_the_oracle_and_their_replays() {
        let g = graph();
        let relax = |l: &mut [u32], e: &Edge| {
            let moved = l[e.dst as usize] == UNREACHED;
            if moved {
                l[e.dst as usize] = l[e.src as usize] + 1;
            }
            moved
        };
        let bits = |l: u32| f64::from(l).to_bits();
        let lane = |partitions: &[Arc<Vec<Edge>>], sweeps: &[Vec<usize>], root| {
            replay(&g, partitions, sweeps, (root, 0, UNREACHED), relax, bits)
        };
        let oracle = |root| bfs_ref(&g, root).into_iter().map(bits).collect();
        for roots in bundles(&g) {
            check(Box::new(Bfs::bundle(g.num_vertices, &roots)), &roots, &g, lane, oracle);
        }
    }

    /// A lane whose second frontier is all sinks retires after one
    /// iteration, not after another, empty, sweep; one whose root has no
    /// out-edge after one empty sweep; the others run on.
    #[test]
    fn a_lane_with_nothing_to_stream_retires_at_once() {
        let g = graph();
        let roots = [TO_SINKS, NO_OUT_EDGES, 0, 1];
        let grid = Grid::convert(&g, 2);
        let blocks = (0..grid.num_blocks()).map(|b| grid.block_by_index(b).to_vec()).collect();
        let source = Arc::new(VecSource::new(g.num_vertices, blocks));
        let exec = WallClockExecutor::new(source, WallClockConfig::new(MemoryProfile::TEST), None);
        let run = exec.run_batch_single_thread(vec![Box::new(Bfs::bundle(g.num_vertices, &roots))]);
        let iterations: Vec<usize> = run.jobs.iter().map(|job| job.iterations).collect();
        assert_eq!(iterations[..2], [1, 1], "{iterations:?}");
        assert!(iterations[2..].iter().all(|&it| it > 1), "{iterations:?}");
        assert_eq!(run.jobs[0].edges_processed, 2);
        assert_eq!(run.jobs[1].edges_processed, 0);
    }

    #[test]
    fn widths_other_than_one_two_and_four_are_refused() {
        for width in [0, 3, 5] {
            let roots = vec![0; width];
            assert!(std::panic::catch_unwind(|| Sssp::bundle(4, &roots)).is_err(), "{width}");
            assert!(std::panic::catch_unwind(|| Bfs::bundle(4, &roots)).is_err(), "{width}");
        }
        assert!(std::panic::catch_unwind(|| Bfs::bundle(4, &[0, 4])).is_err(), "a root past n");
    }
}
