//! The PageRank family's one kernel: [`RankBundle`], 1, 2 or 4 PageRank
//! members, or 1, 2 or 4 PPR members, served as one job so that one read
//! of an edge feeds all of them (§3.2's one shared copy of the graph
//! structure, carried down to the edge loop). A solo job is a bundle of
//! one. Each algorithm's start and teleport rule are in its own module:
//! [`RankBundle::pagerank`] and [`RankBundle::ppr`].
//!
//! Push-style synchronous iteration: each edge `(s, t)` adds
//! `rank[s] / out_degree[s]` into `next[t]`; `end_iteration` applies the
//! damping rule and tests the L1 delta against a tolerance. The members'
//! `ranks`, `contrib` and `next` are interleaved per vertex as `[f64; K]`
//! (`PushBundle`); out-degrees are shared, damping and teleport are per
//! lane. An edge costs one read, one `[f64; K]` load and K adds.
//!
//! Lanes never read each other, so each member's state evolves exactly
//! as if it ran alone: its values, iterations and edges processed are
//! bit for bit those of a bundle of one. Members retire one by one
//! through [`GraphJob::retire_members`]; a retired lane's values are
//! copied out once and the lane freezes: its `contrib` becomes 0 and
//! `end_iteration` skips it. A bundle keeps its width to the end:
//! narrowing a bundle of four to two lanes once two members retire saved
//! about a third of each later sweep's kernel time but did not move the
//! end-to-end throughput measurably, so it is not done.

use graphm_core::{GraphJob, Retired};
use graphm_graph::{AtomicBitmap, Edge, VertexId};
use std::sync::Arc;

/// A source's share of its rank: `rank / deg`, or `0.0` without out-edges.
#[inline]
fn contribution(rank: f64, deg: u32) -> f64 {
    if deg > 0 {
        rank / deg as f64
    } else {
        0.0
    }
}

/// K push states interleaved per vertex (see the module docs).
///
/// Each edge `(s, t)` adds `ranks[s] / deg[s]` into `next[t]`. That
/// quotient is constant for the whole iteration, so it is computed once
/// per vertex into `contrib` (`0.0` where `deg` is 0) and the per-edge
/// work is one load and one add per lane. It is the same IEEE division
/// of the same operands, so ranks are bit-identical to dividing on every
/// edge; and as `next` starts at `+0.0` and only ever receives
/// non-negative terms, it is never `-0.0`, so adding a degree-0 source's
/// `0.0` leaves it bit for bit unchanged — no per-edge degree test.
struct PushBundle<const K: usize> {
    out_degrees: Arc<Vec<u32>>,
    ranks: Vec<[f64; K]>,
    /// `ranks[v][k] / deg[v]` for the current iteration; `0.0` in a
    /// frozen lane.
    contrib: Vec<[f64; K]>,
    next: Vec<[f64; K]>,
}

impl<const K: usize> PushBundle<K> {
    /// Lane `k` of vertex `v` starts at `init(k, v)`.
    fn new(out_degrees: Arc<Vec<u32>>, init: impl Fn(usize, usize) -> f64) -> PushBundle<K> {
        let n = out_degrees.len();
        let ranks: Vec<[f64; K]> = (0..n).map(|v| std::array::from_fn(|k| init(k, v))).collect();
        let contrib = ranks.iter().zip(out_degrees.iter());
        let contrib = contrib.map(|(r, &d)| r.map(|r| contribution(r, d))).collect();
        PushBundle { out_degrees, ranks, contrib, next: vec![[0.0; K]; n] }
    }

    /// Every edge, in order: K adds per edge, each lane's in edge order.
    ///
    /// Borrowing `next` and `contrib` once per chunk measured faster than
    /// the trait's per-edge default body where the add is the whole edge
    /// function (PageRank alone on one thread, a 100k-vertex 2M-edge
    /// R-MAT graph, 2 vCPUs: 138–201 Medges/s through the default body,
    /// 210–262 through this loop).
    fn process_chunk(&mut self, edges: &[Edge]) -> u64 {
        let (next, contrib) = (&mut self.next[..], &self.contrib[..]);
        for e in edges {
            let (to, from) = (&mut next[e.dst as usize], &contrib[e.src as usize]);
            for k in 0..K {
                to[k] += from[k];
            }
        }
        edges.len() as u64
    }

    /// Ends the iteration of every live lane: `rank = teleport(v) +
    /// damping · next[v]`, refreshes `contrib` and resets `next`, in
    /// vertex order. Returns each lane's L1 rank delta (0 for a frozen
    /// lane).
    fn end_iteration(&mut self, lanes: &[Lane], live: &[bool]) -> [f64; K] {
        let live: [bool; K] = std::array::from_fn(|k| live[k]);
        let damping: [f64; K] = std::array::from_fn(|k| lanes[k].damping);
        let base: [f64; K] = std::array::from_fn(|k| lanes[k].base);
        let seed: [usize; K] = std::array::from_fn(|k| lanes[k].seed);
        let seed_mass: [f64; K] = std::array::from_fn(|k| lanes[k].seed_mass);
        let mut delta = [0.0; K];
        let state = self.ranks.iter_mut().zip(self.next.iter_mut()).zip(self.contrib.iter_mut());
        for (v, ((r, nx), c)) in state.enumerate() {
            let deg = self.out_degrees[v];
            for k in 0..K {
                if !live[k] {
                    continue;
                }
                let teleport = if v == seed[k] { seed_mass[k] } else { base[k] };
                let new = teleport + damping[k] * nx[k];
                delta[k] += (new - r[k]).abs();
                r[k] = new;
                c[k] = contribution(new, deg);
                nx[k] = 0.0;
            }
        }
        delta
    }

    /// Lane `k`'s ranks.
    fn ranks(&self, k: usize) -> Vec<f64> {
        self.ranks.iter().map(|r| r[k]).collect()
    }

    /// Stops lane `k` from adding anything more into `next`.
    fn freeze(&mut self, k: usize) {
        self.contrib.iter_mut().for_each(|c| c[k] = 0.0);
    }
}

/// One member's parameters: how its `end_iteration` applies and when it
/// stops.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lane {
    pub(crate) damping: f64,
    pub(crate) max_iters: usize,
    pub(crate) tolerance: f64,
    /// Teleport mass of every vertex but `seed`.
    pub(crate) base: f64,
    /// PPR's seed (`usize::MAX` for PageRank: none).
    pub(crate) seed: usize,
    pub(crate) seed_mass: f64,
}

/// A bundle's push state at its width.
enum Wide {
    One(PushBundle<1>),
    Two(PushBundle<2>),
    Four(PushBundle<4>),
}

/// 1, 2 or 4 PageRank members, or 1, 2 or 4 PPR members, as one job (see
/// the module docs). Members are numbered in the order they were given,
/// and member `k` is lane `k`.
pub struct RankBundle {
    name: &'static str,
    /// Per member.
    lanes: Vec<Lane>,
    push: Wide,
    /// Per member.
    live: Vec<bool>,
    /// Live members whose last `end_iteration` converged them.
    converged: Vec<usize>,
    active: AtomicBitmap,
    iters: usize,
}

impl RankBundle {
    /// A bundle of `lanes`, lane `k` of vertex `v` starting at `init(k, v)`.
    ///
    /// # Panics
    ///
    /// Unless there are 1, 2 or 4 lanes, each damping in `(0, 1)`.
    pub(crate) fn new(
        name: &'static str,
        num_vertices: VertexId,
        out_degrees: Arc<Vec<u32>>,
        lanes: Vec<Lane>,
        init: impl Fn(usize, usize) -> f64,
    ) -> RankBundle {
        assert_eq!(out_degrees.len(), num_vertices as usize);
        let in_range = |lane: &Lane| lane.damping > 0.0 && lane.damping < 1.0;
        assert!(lanes.iter().all(in_range), "damping must be in (0, 1)");
        let push = match lanes.len() {
            1 => Wide::One(PushBundle::new(out_degrees, init)),
            2 => Wide::Two(PushBundle::new(out_degrees, init)),
            4 => Wide::Four(PushBundle::new(out_degrees, init)),
            width => panic!("a rank bundle is 1, 2 or 4 wide, not {width}"),
        };
        let active = AtomicBitmap::new(num_vertices as usize);
        active.set_all();
        let live = vec![true; lanes.len()];
        RankBundle { name, lanes, push, live, converged: Vec::new(), active, iters: 0 }
    }

    /// Overrides every member's convergence tolerance on the L1 rank
    /// delta.
    pub fn with_tolerance(mut self, tolerance: f64) -> RankBundle {
        self.lanes.iter_mut().for_each(|lane| lane.tolerance = tolerance);
        self
    }

    fn ranks(&self, k: usize) -> Vec<f64> {
        match &self.push {
            Wide::One(push) => push.ranks(k),
            Wide::Two(push) => push.ranks(k),
            Wide::Four(push) => push.ranks(k),
        }
    }

    fn freeze(&mut self, k: usize) {
        match &mut self.push {
            Wide::One(push) => push.freeze(k),
            Wide::Two(push) => push.freeze(k),
            Wide::Four(push) => push.freeze(k),
        }
    }
}

impl GraphJob for RankBundle {
    fn name(&self) -> &str {
        self.name
    }

    fn state_bytes_per_vertex(&self) -> usize {
        8 * self.lanes.len()
    }

    fn skips_inactive(&self) -> bool {
        false // streams the entire graph structure every iteration (§3.4.1)
    }

    fn active(&self) -> &AtomicBitmap {
        &self.active
    }

    fn process_edge(&mut self, e: &Edge) {
        self.process_chunk(std::slice::from_ref(e));
    }

    fn process_chunk(&mut self, edges: &[Edge]) -> u64 {
        match &mut self.push {
            Wide::One(push) => push.process_chunk(edges),
            Wide::Two(push) => push.process_chunk(edges),
            Wide::Four(push) => push.process_chunk(edges),
        }
    }

    fn end_iteration(&mut self) -> bool {
        self.iters += 1;
        let delta: Vec<f64> = match &mut self.push {
            Wide::One(push) => push.end_iteration(&self.lanes, &self.live).to_vec(),
            Wide::Two(push) => push.end_iteration(&self.lanes, &self.live).to_vec(),
            Wide::Four(push) => push.end_iteration(&self.lanes, &self.live).to_vec(),
        };
        let (iters, lanes) = (self.iters, &self.lanes);
        let done = |k: usize| iters >= lanes[k].max_iters || delta[k] < lanes[k].tolerance;
        self.converged = (0..lanes.len()).filter(|&k| self.live[k] && done(k)).collect();
        self.converged.len() == self.live.iter().filter(|&&live| live).count()
    }

    fn iterations(&self) -> usize {
        self.iters
    }

    /// Member 0's values.
    fn vertex_values(&self) -> Vec<f64> {
        self.ranks(0)
    }

    fn members(&self) -> usize {
        self.lanes.len()
    }

    fn retire_members(&mut self, all: bool) -> Vec<Retired> {
        let converged = std::mem::take(&mut self.converged);
        let going = match all {
            true => (0..self.lanes.len()).filter(|&k| self.live[k]).collect(),
            false => converged,
        };
        let mut retired = Vec::with_capacity(going.len());
        for member in going {
            let values = self.ranks(member);
            retired.push(Retired { member, iterations: self.iters, values });
            self.live[member] = false;
            if !all {
                self.freeze(member);
            }
        }
        retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::PAGERANK_TOLERANCE;
    use crate::ppr::PPR_TOLERANCE;
    use crate::reference::{power_iteration, ppr_ref};
    use crate::Wcc;
    use graphm_graph::{generators, EdgeList};

    /// `job` run alone over `edges` in 37-edge chunks: each member's
    /// (iterations, value bits), by member.
    fn run(mut job: Box<dyn GraphJob>, edges: &[Edge]) -> Vec<(usize, Vec<u64>)> {
        let mut got: Vec<Option<(usize, Vec<u64>)>> = vec![None; job.members()];
        loop {
            for chunk in edges.chunks(37) {
                job.process_chunk(chunk);
            }
            let done = job.end_iteration();
            for r in job.retire_members(done) {
                let bits = r.values.iter().map(|v| v.to_bits()).collect();
                assert!(got[r.member].replace((r.iterations, bits)).is_none(), "retired once");
            }
            if done {
                return got.into_iter().map(|m| m.expect("every member retires")).collect();
            }
        }
    }

    /// A graph with its edges in the one order every run streams them.
    fn graph() -> EdgeList {
        let mut g = generators::rmat(300, 3000, generators::RmatParams::SOCIAL, 5);
        g.edges.sort_by_key(|e| e.src);
        g
    }

    fn bits(ranks: &[f64]) -> Vec<u64> {
        ranks.iter().map(|r| r.to_bits()).collect()
    }

    // Caps of 2, 3 and 5 stop those members early; they freeze while the
    // others go on. Each member's solo job is a bundle of one, checked
    // against the textbook oracle; the wider bundles' lanes are checked
    // against the solo jobs.

    #[test]
    fn pagerank_lanes_equal_their_solo_jobs() {
        let g = graph();
        let (n, deg) = (g.num_vertices, Arc::new(g.out_degrees()));
        let members = [(0.85, 30), (0.5, 3), (0.3, 5), (0.7, 30)];
        let solo: Vec<_> = members
            .iter()
            .map(|&(damping, iters)| {
                let one = run(
                    Box::new(RankBundle::pagerank(n, Arc::clone(&deg), &[(damping, iters)])),
                    &g.edges,
                );
                let init = vec![1.0 / n as f64; n as usize];
                let base = (1.0 - damping) / n as f64;
                let (ranks, it) =
                    power_iteration(&g, damping, iters, PAGERANK_TOLERANCE, init, |_| base);
                assert_eq!(one[0], (it, bits(&ranks)), "solo PageRank ({damping}, {iters})");
                one.into_iter().next().unwrap()
            })
            .collect();
        for width in [2, 4] {
            let bundle = RankBundle::pagerank(n, Arc::clone(&deg), &members[..width]);
            let got = run(Box::new(bundle), &g.edges);
            for m in 0..width {
                assert_eq!(got[m], solo[m], "PageRank member {m} of {width}");
            }
        }
    }

    #[test]
    fn ppr_lanes_equal_their_solo_jobs() {
        let g = graph();
        let (n, deg) = (g.num_vertices, Arc::new(g.out_degrees()));
        let members = [(7, 0.85, 40), (7, 0.5, 2), (150, 0.3, 40), (299, 0.6, 9)];
        let solo: Vec<_> = members
            .iter()
            .map(|&member| {
                let one = run(Box::new(RankBundle::ppr(n, Arc::clone(&deg), &[member])), &g.edges);
                let (seed, damping, iters) = member;
                let (ranks, it) = ppr_ref(&g, seed, damping, iters, PPR_TOLERANCE);
                assert_eq!(one[0], (it, bits(&ranks)), "solo PPR {member:?}");
                one.into_iter().next().unwrap()
            })
            .collect();
        for width in [2, 4] {
            let got =
                run(Box::new(RankBundle::ppr(n, Arc::clone(&deg), &members[..width])), &g.edges);
            for m in 0..width {
                assert_eq!(got[m], solo[m], "PPR member {m} of {width}");
            }
        }
    }

    #[test]
    fn wcc_members_equal_their_solo_jobs() {
        let mut g = graph();
        g.edges.reverse(); // labels travel one hop per sweep: caps bite
        let caps = [1, 3, 2, 50, 3];
        let got = run(Box::new(Wcc::group(g.num_vertices, &caps)), &g.edges);
        for (m, &cap) in caps.iter().enumerate() {
            let solo = run(Box::new(Wcc::new(g.num_vertices).with_max_iters(cap)), &g.edges);
            assert_eq!(got[m], solo[0], "member {m}");
        }
        assert!(got[3].0 > 3, "the uncapped member runs on after the others");
    }

    #[test]
    fn widths_other_than_one_two_and_four_are_refused() {
        let deg = Arc::new(vec![0; 4]);
        for width in [0, 3, 5] {
            let members = vec![(0.5, 10); width];
            let built = std::panic::catch_unwind(|| {
                RankBundle::pagerank(4, Arc::clone(&deg), &members);
            });
            assert!(built.is_err(), "width {width}");
        }
    }
}
