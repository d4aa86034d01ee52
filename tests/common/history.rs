//! One history harness for the durability tests: [`History::run`] drives
//! the real store, writer, replica applier and daemon through a list of
//! [`Op`]s beside an in-memory model — the graph of every published
//! generation, built with `apply_delta_to_edge_list` — and checks, after
//! every step that can change the disk, on every node:
//!
//! - `graphm_store::verify` accepts the store (and rejects it once a
//!   `FlipByte` corrupted it);
//! - the merged view, partition-major and bit for bit, equals a
//!   from-scratch `Convert` of the model's graph at the store's
//!   generation;
//! - a follower at the primary's generation holds the primary's
//!   replicated files byte for byte, and a file only one side holds is
//!   one that side's generation no longer references;
//! - after a `Retire`, every file left is infrastructure, a base segment
//!   `manifest.bin` names, or the current generation's manifest or one
//!   its chains name (a list the harness builds from the manifests, not
//!   the store's own staleness rule), and `verify` reports none
//!   unreferenced;
//! - a `Submit` answer equals, in value bits, a solo in-memory run over
//!   the model's graph at the generation the daemon serves.
//!
//! A `Crash` leaves the model two acceptable states for the batch in
//! flight, the generation before it and the one after; once the crashed
//! step crossed `wal.synced`, only the one after.

use super::{assert_values_identical, converted, daemon_config, read_merged, replicated_files};
use super::{serve, EdgeBits, Store};
use graphm::core::{JobReport, Scheme};
use graphm::graph::delta::{apply_delta_to_edge_list, gen_manifest_file_name};
use graphm::graph::delta::{read_current_generation, GenManifest};
use graphm::graph::{failpoint, DeltaRecord, EdgeList, GraphError, Manifest, MemoryProfile};
use graphm::server::{Client, Server, ServerStats};
use graphm::store::{
    decode_frame, encode_frame, read_generation_frame, verify, ApplyOutcome, CompactionPolicy,
    DeltaWriter, LeaseConfig, ReplFrame, ReplicaApplier,
};
use graphm::workloads::{immediate_arrivals, JobSpec, Workbench};
use std::collections::BTreeSet;
use std::time::Duration;

#[derive(Clone, Debug)]
pub enum Op {
    Insert(u32, u32, f32),
    Delete(u32, u32),
    Publish,
    Compact,
    Retire,
    /// Arms the `skip + 1`-th crossing of a failpoint on this thread; the
    /// step that trips it fails, and every node crashes with it. Steps up
    /// to the next `Reopen` find no live process and are skipped.
    Crash(String, usize),
    /// Reopens every node with a forced takeover (recovering a crash); a
    /// writer still alive is kept as the fenced zombie.
    Reopen,
    /// Ships generation `gen` from the primary through the wire codec.
    Ship(u64),
    /// Applies every shipped frame on the follower.
    Apply,
    /// Ships and applies every generation the follower lacks.
    CatchUp,
    /// Promotes the follower; the ex-primary becomes its follower.
    Promote,
    /// Runs a job on the daemon over the primary, started on first use.
    Submit(JobSpec),
    FlipByte(String, usize),
}

/// The ops that stage `records`.
pub fn mutations(records: &[DeltaRecord]) -> Vec<Op> {
    let op = |r: &DeltaRecord| match r.is_insert() {
        true => Op::Insert(r.src, r.dst, r.weight),
        false => Op::Delete(r.src, r.dst),
    };
    records.iter().map(op).collect()
}

pub struct History {
    pub writer: Option<DeltaWriter>,
    pub applier: Option<ReplicaApplier>,
    /// A writer whose lease a `Reopen` or a `Promote` took over.
    pub zombie: Option<DeltaWriter>,
    /// The daemon `Submit` runs on; a test may start its own over the
    /// primary before the first `Submit`.
    pub daemon: Option<(Server, Client)>,
    /// Every `Submit`'s report, in order.
    pub reports: Vec<JobReport>,
    /// Dropped after every process above (fields drop in order).
    pub primary: Store,
    pub follower: Option<Store>,
    name: String,
    p: usize,
    frames: Vec<ReplFrame>,
    /// The graph of every published generation, by number.
    pub model: Vec<EdgeList>,
    /// Each one's from-scratch conversion, partition-major.
    views: Vec<Vec<EdgeBits>>,
    pending: Vec<DeltaRecord>,
    armed: bool,
    /// Set when a crash fired: whether its step crossed `wal.synced`.
    crashed: Option<bool>,
    corrupt: bool,
}

impl History {
    /// `g` converted to a `p × p` grid as store `name`, and a follower
    /// seeded from it when `follower` is set.
    pub fn new(name: &str, g: &EdgeList, p: usize, follower: bool) -> History {
        let primary = Store::convert(&format!("{name}-p"), g, p);
        let follower = follower.then(|| Store::follower(&format!("{name}-f"), &primary));
        History {
            writer: None,
            applier: None,
            zombie: None,
            daemon: None,
            reports: Vec::new(),
            primary,
            follower,
            name: name.to_string(),
            p,
            frames: Vec::new(),
            model: vec![g.clone()],
            views: vec![converted(g, p)],
            pending: Vec::new(),
            armed: false,
            crashed: None,
            corrupt: false,
        }
    }

    pub fn run(&mut self, ops: impl IntoIterator<Item = Op>) -> &mut History {
        for op in ops {
            // Staging, arming, shipping and serving write no generation;
            // the next step that can is checked.
            let reads = matches!(
                op,
                Op::Insert(..) | Op::Delete(..) | Op::Crash(..) | Op::Ship(_) | Op::Submit(_)
            );
            self.step(op);
            if !reads {
                self.check();
            }
        }
        self
    }

    /// The primary's writer, opened on first use.
    pub fn writer(&mut self) -> &mut DeltaWriter {
        let dir = &self.primary;
        self.writer.get_or_insert_with(|| {
            DeltaWriter::open(dir).unwrap().with_policy(CompactionPolicy::never())
        })
    }

    /// The follower's applier, opened on first use (forcing out a lease
    /// the zombie of a promotion still holds).
    pub fn applier(&mut self) -> &mut ReplicaApplier {
        let dir = self.follower.as_ref().expect("a follower");
        self.applier.get_or_insert_with(|| {
            ReplicaApplier::open_with(dir, LeaseConfig::force_takeover()).unwrap()
        })
    }

    pub fn generation(&self) -> u64 {
        verify(&self.primary).unwrap().generation
    }

    pub fn stats(&self) -> ServerStats {
        self.daemon.as_ref().expect("a daemon").0.stats()
    }

    fn step(&mut self, op: Op) {
        if self.crashed.is_some() && !matches!(op, Op::Reopen) {
            return;
        }
        let result = match op {
            Op::Insert(src, dst, w) => {
                self.pending.push(DeltaRecord::insert(src, dst, w));
                self.writer().insert(src, dst, w)
            }
            Op::Delete(src, dst) => {
                self.pending.push(DeltaRecord::delete(src, dst));
                self.writer().delete(src, dst)
            }
            Op::Publish => {
                self.settle();
                self.writer().publish().map(|gen| {
                    if !self.pending.is_empty() {
                        let mut next = self.model.last().unwrap().clone();
                        apply_delta_to_edge_list(&mut next, &std::mem::take(&mut self.pending));
                        self.push_model(next);
                    }
                    assert_eq!(gen as usize, self.model.len() - 1, "published generation");
                })
            }
            Op::Compact => {
                self.settle();
                let before = self.writer().generation();
                self.writer().compact().map(|gen| {
                    if gen > before {
                        self.push_model(self.model.last().unwrap().clone());
                    }
                })
            }
            Op::Retire => self.writer().retire_older_generations().map(|_| self.assert_retired()),
            Op::Crash(point, skip) => {
                failpoint::reset();
                failpoint::record();
                failpoint::arm(&point, skip);
                self.armed = true;
                Ok(())
            }
            Op::Reopen => {
                self.reopen();
                Ok(())
            }
            Op::Ship(gen) => {
                let epoch = self.writer().lease_epoch();
                read_generation_frame(&self.primary, gen, epoch)
                    .and_then(|frame| decode_frame(&encode_frame(&frame)))
                    .map(|frame| self.frames.push(frame))
            }
            Op::Apply => self.apply(),
            Op::CatchUp => {
                let (have, want) = (self.applier().generation(), self.writer().generation());
                self.frames.clear();
                (have + 1..=want).for_each(|gen| self.step(Op::Ship(gen)));
                if self.crashed.is_some() {
                    return;
                }
                self.apply()
            }
            Op::Promote => {
                let promoted = self.applier.take().unwrap().promote().unwrap();
                self.zombie = self.writer.replace(promoted.with_policy(CompactionPolicy::never()));
                let follower = self.follower.take().unwrap();
                self.follower = Some(std::mem::replace(&mut self.primary, follower));
                Ok(())
            }
            Op::Submit(spec) => {
                self.submit(&spec);
                Ok(())
            }
            Op::FlipByte(file, at) => {
                let path = self.primary.join(file);
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[at] = !bytes[at];
                std::fs::write(&path, bytes).unwrap();
                self.corrupt = true;
                Ok(())
            }
        };
        if let Err(e) = result {
            self.crash(e);
        }
    }

    /// Records `g` as the graph of the next generation.
    fn push_model(&mut self, g: EdgeList) {
        self.views.push(converted(&g, self.p));
        self.model.push(g);
    }

    fn apply(&mut self) -> Result<(), GraphError> {
        self.applier();
        for frame in std::mem::take(&mut self.frames) {
            let have = self.applier().generation();
            let outcome = self.applier().apply(&frame)?;
            let want = match frame.generation <= have {
                true => ApplyOutcome::Duplicate,
                false => ApplyOutcome::Applied(frame.generation),
            };
            assert_eq!(outcome, want, "frame for generation {}", frame.generation);
        }
        Ok(())
    }

    fn submit(&mut self, spec: &JobSpec) {
        let dir = &self.primary;
        let name = &self.name;
        let (server, client) =
            self.daemon.get_or_insert_with(|| serve(daemon_config(dir, name, 5)));
        let report = client.run(spec).expect("served job");
        assert!(report.error.is_none(), "{:?}", report.error);
        // The reference: the job alone over the model, in memory.
        let gen = server.stats().generation as usize;
        let wb = Workbench::from_graph(self.model[gen].clone(), self.p, MemoryProfile::TEST);
        let solo = wb.run(Scheme::Shared, &[*spec], &immediate_arrivals(1)).jobs.remove(0);
        assert_values_identical(&report.values, &solo.values, &format!("generation {gen}"));
        self.reports.push(report);
    }

    /// Lets a daemon that has served a job close its round before the
    /// store publishes. Rotation happens only *between* rounds, and a
    /// round stays open as long as drains keep finding work — a
    /// submission racing the round's final (empty) drain legitimately
    /// joins the old round and serves the old generation.
    fn settle(&self) {
        if self.daemon.is_some() && !self.reports.is_empty() {
            std::thread::sleep(Duration::from_millis(300));
        }
    }

    /// An armed step failed: every node dies where it stands, its lease
    /// and WAL left exactly as a killed process leaves them.
    fn crash(&mut self, e: GraphError) {
        assert!(self.armed && failpoint::is_injected(&e), "a real error: {e}");
        self.crashed = Some(failpoint::trace().iter().any(|p| p == "wal.synced"));
        failpoint::reset();
        if let Some(writer) = self.writer.take() {
            writer.crash();
        }
        if let Some(applier) = self.applier.take() {
            applier.crash();
        }
    }

    fn reopen(&mut self) {
        assert!(!self.armed || self.crashed.is_some(), "the armed boundary was never crossed");
        self.armed = false;
        self.zombie = self.writer.take().or(self.zombie.take());
        let writer = DeltaWriter::open_with(&self.primary, LeaseConfig::force_takeover())
            .expect("recovery open")
            .with_policy(CompactionPolicy::never());
        let gen = writer.generation() as usize;
        self.writer = Some(writer);
        if let Some(f) = &self.follower {
            self.applier =
                Some(ReplicaApplier::open_with(f, LeaseConfig::force_takeover()).unwrap());
        }
        let pending = std::mem::take(&mut self.pending);
        let pre = self.model.len() - 1;
        match self.crashed.take() {
            // A batch was in flight: before `wal.synced`, either state.
            Some(durable) if !pending.is_empty() => {
                assert!(gen == pre + 1 || (gen == pre && !durable), "recovered to {gen}");
                if gen > pre {
                    let mut post = self.model[pre].clone();
                    apply_delta_to_edge_list(&mut post, &pending);
                    self.push_model(post);
                }
            }
            _ => assert_eq!(gen, pre, "recovery moved the primary"),
        }
    }

    /// After a retirement the primary holds only live infrastructure, the
    /// base segments `manifest.bin` names, and the current generation's
    /// manifest and chains. The list is built here from the manifests,
    /// not from the store's own staleness rule, so a wrong edit to that
    /// rule cannot grade itself.
    fn assert_retired(&self) {
        let dir = &*self.primary;
        let gen = read_current_generation(dir).unwrap();
        let mut live: BTreeSet<String> =
            ["manifest.bin", "CURRENT", "wal.log", "EPOCH"].map(String::from).into();
        let base = Manifest::read_from_dir(dir).unwrap();
        live.extend(base.partitions.into_iter().map(|entry| entry.file));
        if gen > 0 {
            live.insert(gen_manifest_file_name(gen));
            for part in GenManifest::read_from_dir(dir, gen).unwrap().partitions {
                live.insert(part.base_file);
                live.extend(part.deltas.into_iter().map(|d| d.file));
            }
        }
        for entry in std::fs::read_dir(dir).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            assert!(live.contains(&name), "{name} survived retirement at generation {gen}");
        }
        let left = verify(dir).unwrap().unreferenced;
        assert!(left.is_empty(), "`verify` calls {left:?} unreferenced after retirement");
    }

    fn check(&self) {
        if self.corrupt {
            assert!(verify(&self.primary).is_err(), "a flipped byte verifies clean");
            return;
        }
        let nodes: Vec<&Store> = std::iter::once(&self.primary).chain(&self.follower).collect();
        let verified: Vec<_> =
            nodes.iter().map(|dir| verify(dir).expect("store verifies")).collect();
        if self.crashed.is_some() {
            return;
        }
        // A follower at the primary's generation is held to the primary's
        // files below, so it reads what the primary reads.
        let replica = matches!(&verified[..], [p, f] if p.generation == f.generation);
        for dir in &nodes[..nodes.len() - usize::from(replica)] {
            let (gen, merged) = read_merged(dir);
            assert!(
                merged == self.views[gen as usize],
                "{}: generation {gen} is torn",
                dir.display()
            );
        }
        if let ([p, f], true) = (&verified[..], replica) {
            let (pf, ff) = (replicated_files(nodes[0]), replicated_files(nodes[1]));
            for (name, bytes) in &pf {
                match ff.get(name) {
                    Some(other) => assert!(bytes == other, "follower's {name} diverges"),
                    None => assert!(p.unreferenced.contains(name), "follower lacks {name}"),
                }
            }
            for name in ff.keys().filter(|name| !pf.contains_key(*name)) {
                assert!(f.unreferenced.contains(name), "primary lacks {name}");
            }
        }
    }
}
