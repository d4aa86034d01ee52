//! Bundles: several same-kind jobs of one cohort served by one job, so
//! that one read of an edge feeds all of them (§3.2's one shared copy of
//! the graph structure, carried down to the edge loop).
//!
//! * [`RankBundle`] — 2 or 4 PageRank members, or 2 or 4 PPR members.
//!   Their `ranks`, `contrib` and `next` are interleaved per vertex as
//!   `[f64; K]` (`PushBundle`); out-degrees are shared, damping and
//!   teleport are per lane. An edge costs one read, one `[f64; K]` load
//!   and K adds.
//! * [`crate::WccGroup`] — every WCC member of a cohort on one state.
//!
//! Each member's state evolves exactly as its one-member job's would:
//! lane `k` receives the same adds in the same order and ends each
//! iteration with exactly [`Push::end_iteration`](crate::pagerank)'s
//! operations, so its values, iterations and edges processed are bit for
//! bit those of the one-member job. Members retire one by one through
//! [`GraphJob::retire_members`]; a retired lane's values are copied out
//! once and the lane freezes. A bundle keeps its width to the end:
//! narrowing a bundle of four to two lanes once two members retire saved
//! about a third of each later sweep's kernel time but did not move the
//! end-to-end throughput measurably, so it is not done.

use crate::pagerank::{contribution, PAGERANK_TOLERANCE};
use crate::ppr::PPR_TOLERANCE;
use graphm_core::{GraphJob, Retired};
use graphm_graph::{AtomicBitmap, Edge, VertexId};
use std::sync::Arc;

/// K push states interleaved per vertex (see the module docs).
pub(crate) struct PushBundle<const K: usize> {
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

    /// Every edge, in order: K adds per edge, lane `k`'s in the order
    /// its one-member job makes them.
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

    /// Ends the iteration of every live lane, each with `Push`'s
    /// operations in `Push`'s vertex order, and returns each lane's L1
    /// rank delta (0 for a frozen lane).
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
struct Lane {
    damping: f64,
    max_iters: usize,
    tolerance: f64,
    /// Teleport mass of every vertex but `seed`.
    base: f64,
    /// PPR's seed (`usize::MAX` for PageRank: none).
    seed: usize,
    seed_mass: f64,
}

/// A bundle's push state at its width.
enum Wide {
    Two(PushBundle<2>),
    Four(PushBundle<4>),
}

/// 2 or 4 PageRank members, or 2 or 4 PPR members, as one job (see the
/// module docs). Members are numbered in the order they were given, and
/// member `k` is lane `k`.
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
    /// PageRank members, one per `(damping, max_iters)`; each is
    /// [`crate::PageRank::new`]'s job with those parameters.
    ///
    /// # Panics
    ///
    /// Unless there are 2 or 4 members, each damping in `(0, 1)`.
    pub fn pagerank(
        num_vertices: VertexId,
        out_degrees: Arc<Vec<u32>>,
        members: &[(f64, usize)],
    ) -> RankBundle {
        let n = (num_vertices as usize).max(1) as f64;
        let lanes = members.iter().map(|&(damping, max_iters)| {
            assert!(damping > 0.0 && damping < 1.0, "damping must be in (0, 1)");
            let base = (1.0 - damping) / n;
            Lane {
                damping,
                max_iters,
                tolerance: PAGERANK_TOLERANCE,
                base,
                seed: usize::MAX,
                seed_mass: base,
            }
        });
        let init = 1.0 / n;
        RankBundle::new("PageRank", num_vertices, out_degrees, lanes.collect(), |_, _| init)
    }

    /// PPR members, one per `(seed, damping, max_iters)`; each is
    /// [`crate::PersonalizedPageRank::new`]'s job with those parameters.
    ///
    /// # Panics
    ///
    /// Unless there are 2 or 4 members, each seed a vertex and each
    /// damping in `(0, 1)`.
    pub fn ppr(
        num_vertices: VertexId,
        out_degrees: Arc<Vec<u32>>,
        members: &[(VertexId, f64, usize)],
    ) -> RankBundle {
        let lanes: Vec<Lane> = members
            .iter()
            .map(|&(seed, damping, max_iters)| {
                assert!(seed < num_vertices, "seed out of range");
                assert!(damping > 0.0 && damping < 1.0);
                let (seed, seed_mass) = (seed as usize, 1.0 - damping);
                Lane { damping, max_iters, tolerance: PPR_TOLERANCE, base: 0.0, seed, seed_mass }
            })
            .collect();
        let seeds: Vec<usize> = lanes.iter().map(|lane| lane.seed).collect();
        let init = move |k: usize, v: usize| if v == seeds[k] { 1.0 } else { 0.0 };
        RankBundle::new("PPR", num_vertices, out_degrees, lanes, init)
    }

    fn new(
        name: &'static str,
        num_vertices: VertexId,
        out_degrees: Arc<Vec<u32>>,
        lanes: Vec<Lane>,
        init: impl Fn(usize, usize) -> f64,
    ) -> RankBundle {
        assert_eq!(out_degrees.len(), num_vertices as usize);
        let push = match lanes.len() {
            2 => Wide::Two(PushBundle::new(out_degrees, init)),
            4 => Wide::Four(PushBundle::new(out_degrees, init)),
            width => panic!("a rank bundle is 2 or 4 wide, not {width}"),
        };
        let active = AtomicBitmap::new(num_vertices as usize);
        active.set_all();
        let live = vec![true; lanes.len()];
        RankBundle { name, lanes, push, live, converged: Vec::new(), active, iters: 0 }
    }

    fn ranks(&self, k: usize) -> Vec<f64> {
        match &self.push {
            Wide::Two(push) => push.ranks(k),
            Wide::Four(push) => push.ranks(k),
        }
    }

    fn freeze(&mut self, k: usize) {
        match &mut self.push {
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
        false
    }

    fn active(&self) -> &AtomicBitmap {
        &self.active
    }

    fn process_edge(&mut self, e: &Edge) {
        self.process_chunk(std::slice::from_ref(e));
    }

    fn process_chunk(&mut self, edges: &[Edge]) -> u64 {
        match &mut self.push {
            Wide::Two(push) => push.process_chunk(edges),
            Wide::Four(push) => push.process_chunk(edges),
        }
    }

    fn end_iteration(&mut self) -> bool {
        self.iters += 1;
        let delta: Vec<f64> = match &mut self.push {
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
            retired.push(Retired { member, iterations: self.iters, values: self.ranks(member) });
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
    use crate::{PageRank, PersonalizedPageRank, Wcc, WccGroup};
    use graphm_graph::generators;

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

    fn graph() -> (VertexId, Arc<Vec<u32>>, Vec<Edge>) {
        let g = generators::rmat(300, 3000, generators::RmatParams::SOCIAL, 5);
        let mut edges = g.edges.clone();
        edges.sort_by_key(|e| e.src);
        (g.num_vertices, Arc::new(g.out_degrees()), edges)
    }

    #[test]
    fn pagerank_lanes_equal_their_solo_jobs() {
        let (n, deg, edges) = graph();
        // Members 1 and 2 stop early and freeze while 0 and 3 go on.
        let members = [(0.85, 30), (0.5, 3), (0.3, 5), (0.7, 30)];
        let got = run(Box::new(RankBundle::pagerank(n, Arc::clone(&deg), &members)), &edges);
        for (m, &(damping, iters)) in members.iter().enumerate() {
            let solo = run(Box::new(PageRank::new(n, Arc::clone(&deg), damping, iters)), &edges);
            assert_eq!(got[m], solo[0], "member {m}");
        }
        let two = [(0.6, 4), (0.2, 30)];
        let got = run(Box::new(RankBundle::pagerank(n, Arc::clone(&deg), &two)), &edges);
        for (m, &(damping, iters)) in two.iter().enumerate() {
            let solo = run(Box::new(PageRank::new(n, Arc::clone(&deg), damping, iters)), &edges);
            assert_eq!(got[m], solo[0], "member {m} of two");
        }
    }

    #[test]
    fn ppr_lanes_equal_their_solo_jobs() {
        let (n, deg, edges) = graph();
        let members = [(7, 0.85, 40), (7, 0.5, 2), (150, 0.3, 40), (299, 0.6, 9)];
        let got = run(Box::new(RankBundle::ppr(n, Arc::clone(&deg), &members)), &edges);
        for (m, &(seed, damping, iters)) in members.iter().enumerate() {
            let solo = PersonalizedPageRank::new(n, Arc::clone(&deg), seed, damping, iters);
            assert_eq!(got[m], run(Box::new(solo), &edges)[0], "member {m}");
        }
    }

    #[test]
    fn wcc_members_equal_their_solo_jobs() {
        let (n, _, mut edges) = graph();
        edges.reverse(); // labels travel one hop per sweep: caps bite
        let caps = [1, 3, 2, 50, 3];
        let got = run(Box::new(WccGroup::new(n, &caps)), &edges);
        for (m, &cap) in caps.iter().enumerate() {
            let solo = run(Box::new(Wcc::new(n).with_max_iters(cap)), &edges);
            assert_eq!(got[m], solo[0], "member {m}");
        }
        assert!(got[3].0 > 3, "the uncapped member runs on after the others");
    }

    #[test]
    fn widths_other_than_two_and_four_are_refused() {
        let deg = Arc::new(vec![0; 4]);
        for width in [0, 1, 3, 5] {
            let members = vec![(0.5, 10); width];
            let built = std::panic::catch_unwind(|| {
                RankBundle::pagerank(4, Arc::clone(&deg), &members);
            });
            assert!(built.is_err(), "width {width}");
        }
    }
}
