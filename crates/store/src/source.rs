//! The disk-resident `PartitionSource`: [`DiskGridSource`].
//!
//! It mirrors the in-memory `GridSource` adapter exactly — same partition
//! order, same activity semantics, same byte accounting — so `run_scheme`,
//! the wall-clock sweep driver, and the §4 scheduler produce bit-identical
//! reports on disk-resident graphs.
//!
//! Segments stay mapped, not loaded: [`edges`](DiskGridSource::edges) is a
//! zero-copy `&[Edge]` view into the mapping (the 12-byte `#[repr(C)]`
//! record layout matches the file format on little-endian hosts), and
//! `load` materializes an `Arc<Vec<Edge>>` only on demand, memoized
//! through a `Weak` so concurrent jobs share one copy while any of them
//! holds it — the in-memory half of the paper's "one copy of the graph
//! structure".
//!
//! ## Generations (the evolving-graph path)
//!
//! A source serves one **generation** at a time: the base segments plus
//! the ordered per-partition delta chains the generation manifest names
//! (see `graphm_graph::delta` and `docs/ARCHITECTURE.md`). Each chain is
//! resolved against its base once, when the generation view is built,
//! into an [`Overlay`] (dead base records + surviving inserts); `load()`
//! merges base and overlay in one linear pass into `Convert()`'s stable
//! source order — so a merged read is bit-identical to a from-scratch
//! conversion of the mutated graph and costs what a base load costs.
//! [`DiskGridSource::refresh_generation`] polls the store's `CURRENT`
//! pointer and rotates the in-process view; while any sweep holds a pin
//! ([`PartitionSource::sweep_begin`]) the rotation is deferred, so
//! readers never observe a mid-sweep flip, and the previous
//! generation's mappings are retired (dropped/unmapped) once the last
//! reference to them goes away.

use crate::mmap::FileView;
use crate::prefetch::{AdaptiveWindow, DEFAULT_MAX_PREFETCH_LOOKAHEAD};
use graphm_core::PartitionSource;
use graphm_graph::delta::{self, DeltaRecord, GenManifest, Overlay};
use graphm_graph::failpoint;
use graphm_graph::records::{self, Record};
use graphm_graph::segment::Manifest;
use graphm_graph::{AtomicBitmap, Edge, GraphError, Result, VertexId, EDGE_BYTES};
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::Instant;

/// Readahead counters for a disk store (see [`PrefetchTarget`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// `madvise(MADV_WILLNEED)` hints issued (deduplicated: one per
    /// partition per load cycle).
    pub issued: u64,
    /// Loads that found their partition already advised — the prefetcher
    /// won the race against the consumer.
    pub hits: u64,
    /// Wall nanoseconds spent issuing hints (the prefetch thread's cost,
    /// hidden off the streaming path).
    pub advise_ns: u64,
}

/// A partition store that can read partitions ahead of their load. The
/// [`Prefetcher`](crate::Prefetcher) thread drives this with the upcoming
/// window of the scheduler's loading order.
pub trait PrefetchTarget: Send + Sync {
    /// Hints that partition `pid` will be loaded soon.
    fn advise(&self, pid: usize);

    /// Counters accumulated so far.
    fn prefetch_stats(&self) -> PrefetchStats;

    /// Current prefetch depth: how many of the announced upcoming
    /// partitions the [`Prefetcher`](crate::Prefetcher) should actually
    /// advise. Adaptive targets return their feedback-controlled window;
    /// the default (`usize::MAX`) advises everything announced.
    fn prefetch_window(&self) -> usize {
        usize::MAX
    }
}

/// Page-cache residency model of a disk store: which segment bytes the
/// store believes are paged in (touched by a load or a readahead hint and
/// not yet released), and how much has been evicted back behind the sweep
/// frontier via `madvise(MADV_DONTNEED)` to honour the memory budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Segment bytes currently modeled as resident.
    pub resident_bytes: u64,
    /// Total segment bytes released (`MADV_DONTNEED`) so far.
    pub evicted_bytes: u64,
    /// Number of partition evictions performed.
    pub evictions: u64,
    /// Configured memory budget in bytes (0 = unlimited; no eviction).
    pub budget_bytes: u64,
    /// Current adaptive prefetch window depth.
    pub prefetch_window: u64,
}

/// Delta-store counters of a disk source (see the module docs and
/// `docs/OPERATIONS.md`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Generation currently served (0 = the bare base store).
    pub generation: u64,
    /// Generation rotations this handle has adopted since open.
    pub rotations: u64,
    /// Delta payload bytes overlaid on the base this generation.
    pub delta_bytes: u64,
    /// Mutation records overlaid on the base this generation.
    pub delta_records: u64,
    /// Cumulative compactions folded into the base (from the generation
    /// manifest).
    pub compactions: u64,
}

/// The records of one record file — a base segment (`Records<Edge>`) or a
/// delta segment (`Records<DeltaRecord>`) — checked once, at open: header
/// against the manifest, every record against its own validity rule and
/// the store's vertex range.
enum Records<R> {
    /// Zero-copy: the file mapping itself, `len` records viewed in place.
    Mapped { view: FileView, len: usize },
    /// Eagerly decoded: the only path on big-endian hosts, and for
    /// unmapped views whose buffer lacks `R`'s alignment.
    Decoded(Vec<R>),
}

impl<R: Record> Records<R> {
    /// Opens `path`, expecting `expect` records naming vertices below
    /// `num_vertices`. A mapped file crosses `validate_point` between
    /// mapping and validation.
    fn open(
        path: &Path,
        expect: u64,
        num_vertices: VertexId,
        validate_point: Option<&str>,
    ) -> Result<Records<R>> {
        let what = path.display().to_string();
        let mapped = if cfg!(target_endian = "little") {
            let view = FileView::open(&File::open(path)?)?;
            if let Some(point) = validate_point {
                failpoint::hit(point)?;
            }
            let len = records::validate::<R>(view.as_slice(), Some(expect), &what)? as usize;
            let at = records::payload::<R>(view.as_slice(), len).as_ptr() as usize;
            (len == 0 || at.is_multiple_of(std::mem::align_of::<R>()))
                .then_some(Records::Mapped { view, len })
        } else {
            None
        };
        let opened = match mapped {
            Some(mapped) => mapped,
            None => Records::Decoded(records::read(path, Some(expect))?),
        };
        records::check_all(opened.as_slice(), num_vertices, &what)?;
        Ok(opened)
    }

    fn as_slice(&self) -> &[R] {
        match self {
            Records::Mapped { len: 0, .. } => &[],
            Records::Mapped { view, len } => {
                let bytes = records::payload::<R>(view.as_slice(), *len);
                // SAFETY: `open` validated that the file holds `len`
                // records, so `bytes` is exactly `len * size_of::<R>()`
                // in-bounds bytes of a mapping that lives as long as
                // `self`; it chose `Mapped` only on a little-endian host
                // with `bytes` aligned for `R`; and `R: Record` guarantees
                // such bytes are `len` valid values of `R`.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const R, *len) }
            }
            Records::Decoded(records) => records,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn payload_bytes(&self) -> u64 {
        (self.len() * R::BYTES) as u64
    }

    /// The mapping behind the records (decoded fallbacks have none to
    /// advise or release).
    fn view(&self) -> Option<&FileView> {
        match self {
            Records::Mapped { view, .. } => Some(view),
            Records::Decoded(_) => None,
        }
    }
}

/// One generation's immutable resolution of the store: base segments plus
/// per-partition delta chains, with the merged-view accounting
/// precomputed. Readers hold it through an `Arc`; dropping the last
/// reference after a rotation unmaps the retired generation's files.
struct GenView {
    generation: u64,
    compactions: u64,
    segments: Vec<Arc<Records<Edge>>>,
    base_files: Vec<String>,
    deltas: Vec<Vec<Arc<Records<DeltaRecord>>>>,
    delta_files: Vec<Vec<String>>,
    /// Each non-empty chain resolved against its base (`None` = no chain:
    /// the merged view is the base itself).
    overlays: Vec<Option<Arc<Overlay>>>,
    /// Edge count of the merged (base + deltas) view per partition. A
    /// load is charged its payload, `merged_edges * EDGE_BYTES` — exactly
    /// what an in-memory conversion of the mutated graph would charge.
    merged_edges: Vec<u64>,
    /// Merged structure bytes (`S_G` over the merged view).
    graph_bytes: u64,
    delta_bytes: u64,
    delta_records: u64,
}

impl GenView {
    /// Resolves `generation` against the store directory, reusing
    /// mappings from `prev` for files both generations reference (the
    /// common case: a rotation adds a few delta files and everything else
    /// carries over).
    fn build(
        dir: &Path,
        manifest: &Manifest,
        generation: u64,
        prev: Option<&GenView>,
    ) -> Result<GenView> {
        let parts = manifest.partitions.len();
        let gen_manifest = if generation == 0 {
            None
        } else {
            let gm = GenManifest::read_from_dir(dir, generation)?;
            gm.check_base(manifest)?;
            Some(gm)
        };
        let nv = manifest.num_vertices;
        let mut segments = Vec::with_capacity(parts);
        let mut base_files = Vec::with_capacity(parts);
        let mut deltas: Vec<Vec<Arc<Records<DeltaRecord>>>> = Vec::with_capacity(parts);
        let mut delta_files: Vec<Vec<String>> = Vec::with_capacity(parts);
        let mut overlays: Vec<Option<Arc<Overlay>>> = Vec::with_capacity(parts);
        let mut merged_edges = Vec::with_capacity(parts);
        let mut delta_bytes = 0u64;
        let mut delta_records = 0u64;
        for pid in 0..parts {
            let entry = &manifest.partitions[pid];
            let (base_file, base_num_edges, chain) = match &gen_manifest {
                Some(gm) => {
                    let gp = &gm.partitions[pid];
                    (gp.base_file.clone(), gp.base_num_edges, gp.deltas.as_slice())
                }
                None => (entry.file.clone(), entry.num_edges, &[][..]),
            };
            // Reuse the previous view's mapping when it serves the same
            // file; `Records::open` scans (O(records)) only what is
            // freshly opened — records are untrusted, and every endpoint
            // must be in range before any job indexes its vertex-state
            // arrays with them (a typed error, not a panic).
            let reused = prev.and_then(|p| {
                (p.base_files[pid] == base_file).then(|| Arc::clone(&p.segments[pid]))
            });
            let segment = match reused {
                Some(seg) => seg,
                None => {
                    failpoint::hit("read:segment_open")?;
                    let path = dir.join(&base_file);
                    let point = Some("read:segment_validate");
                    Arc::new(Records::open(&path, base_num_edges, nv, point)?)
                }
            };
            let prev_chain = prev.map(|p| (&p.delta_files[pid], &p.deltas[pid]));
            let mut chain_segs = Vec::with_capacity(chain.len());
            let mut chain_names = Vec::with_capacity(chain.len());
            for (at, dref) in chain.iter().enumerate() {
                // Chains are append-only and prefix-stable between
                // compactions: the file sits at the same index in the
                // previous view unless something rewrote the chain.
                let reused = prev_chain.and_then(|(names, segs)| {
                    let same_index = names.get(at).is_some_and(|n| n == &dref.file);
                    let found = if same_index {
                        Some(at)
                    } else {
                        names.iter().position(|n| n == &dref.file)
                    };
                    found.map(|i| Arc::clone(&segs[i]))
                });
                let seg = match reused {
                    Some(seg) => seg,
                    None => {
                        failpoint::hit("read:delta_open")?;
                        let path = dir.join(&dref.file);
                        Arc::new(Records::open(&path, dref.num_records, nv, None)?)
                    }
                };
                delta_bytes += seg.payload_bytes();
                delta_records += seg.len() as u64;
                chain_segs.push(seg);
                chain_names.push(dref.file.clone());
            }
            // Partitions the rotation did not touch (same base file,
            // same chain) carry their accounting over verbatim — a
            // publish touching one partition costs O(that partition),
            // not O(every chained partition).
            let unchanged: Option<&GenView> = prev
                .filter(|p| p.base_files[pid] == base_file && p.delta_files[pid] == chain_names);
            // Resolve the chain against the base once; every load of this
            // generation merges through the overlay, and the merged
            // accounting below reads it instead of replaying the chain.
            let overlay: Option<Arc<Overlay>> = match unchanged {
                Some(p) => p.overlays[pid].clone(),
                None if chain_segs.is_empty() => None,
                None => {
                    let records: Vec<&[DeltaRecord]> =
                        chain_segs.iter().map(|seg| seg.as_slice()).collect();
                    Some(Arc::new(Overlay::resolve(segment.as_slice(), &records)?))
                }
            };
            let count = match &overlay {
                Some(o) => o.merged_len() as u64,
                None => segment.len() as u64,
            };
            segments.push(segment);
            base_files.push(base_file);
            deltas.push(chain_segs);
            delta_files.push(chain_names);
            overlays.push(overlay);
            merged_edges.push(count);
        }
        let graph_bytes = merged_edges.iter().map(|&n| n * EDGE_BYTES as u64).sum();
        Ok(GenView {
            generation,
            compactions: gen_manifest.map(|gm| gm.compactions).unwrap_or(0),
            segments,
            base_files,
            deltas,
            delta_files,
            overlays,
            merged_edges,
            graph_bytes,
            delta_bytes,
            delta_records,
        })
    }

    /// Materializes partition `pid`'s merged view: the base records its
    /// chain leaves alive plus the chain's surviving inserts, in
    /// `Convert()`'s stable source order (per source: base order, then
    /// inserts in publish order) — bit-identical to a from-scratch
    /// conversion of the mutated graph.
    fn merged(&self, pid: usize) -> Vec<Edge> {
        let base = self.segments[pid].as_slice();
        match &self.overlays[pid] {
            Some(overlay) => overlay.merge(base),
            None => base.to_vec(),
        }
    }

    /// Bytes the residency model charges for partition `pid`'s files
    /// (base payload + delta chain payload).
    fn resident_charge(&self, pid: usize) -> u64 {
        self.segments[pid].payload_bytes()
            + self.deltas[pid].iter().map(|s| s.payload_bytes()).sum::<u64>()
    }

    /// Every mapping behind partition `pid`: its base, then its chain.
    fn views(&self, pid: usize) -> impl Iterator<Item = &FileView> {
        self.segments[pid]
            .view()
            .into_iter()
            .chain(self.deltas[pid].iter().filter_map(|s| s.view()))
    }

    /// Issues `MADV_WILLNEED` for every mapping behind partition `pid`.
    fn advise_willneed(&self, pid: usize) {
        self.views(pid).for_each(|view| {
            view.advise_willneed();
        });
    }

    /// Releases partition `pid`'s mappings with `MADV_DONTNEED`. Returns
    /// whether anything was actually released (decoded fallbacks cannot
    /// be).
    fn release(&self, pid: usize) -> bool {
        self.views(pid).fold(false, |released, view| released | view.advise_dontneed())
    }
}

/// Current / incoming generation views plus the sweep pin count that
/// gates adoption.
struct Views {
    current: Arc<GenView>,
    /// A generation picked up by `refresh` while sweeps were pinned;
    /// adopted at the last unpin.
    incoming: Option<Arc<GenView>>,
    pins: usize,
}

/// Per-partition memoization slot, keyed by the generation it holds.
struct CacheSlot {
    generation: u64,
    weak: Weak<Vec<Edge>>,
}

/// A grid store directory on disk, exposed to GraphM as a
/// `PartitionSource`: the drop-in replacement for the in-memory
/// `GridSource`.
pub struct DiskGridSource {
    dir: PathBuf,
    manifest: Manifest,
    views: RwLock<Views>,
    rotations: AtomicU64,
    /// Per-partition memoized materialization: jobs running concurrently
    /// share one `Arc` per partition; once every holder drops it the
    /// memory is returned and only the mapping remains. Keyed by
    /// generation so a rotation invalidates stale copies.
    cache: Vec<Mutex<CacheSlot>>,
    /// Per-partition "advised since last load" flags plus the global
    /// readahead counters.
    advised: Vec<AtomicBool>,
    pf_issued: AtomicU64,
    pf_hits: AtomicU64,
    pf_advise_ns: AtomicU64,
    /// Feedback-controlled prefetch depth (see
    /// [`crate::AdaptiveWindow`]), reported through
    /// [`PrefetchTarget::prefetch_window`].
    window: AdaptiveWindow,
    /// Memory budget in bytes; 0 = unlimited (no eviction, counters only).
    budget: AtomicU64,
    /// Per-partition residency model: a partition is resident from the
    /// moment a load or readahead hint touches its segment until the
    /// budget enforcement releases it with `MADV_DONTNEED`.
    resident: Vec<AtomicBool>,
    /// What each resident partition was charged at touch time, so a
    /// release after a rotation (which may change the partition's byte
    /// size) subtracts exactly what was added.
    resident_charged: Vec<AtomicU64>,
    resident_bytes: AtomicU64,
    evicted_bytes: AtomicU64,
    evictions: AtomicU64,
    /// Lazy-LRU eviction order: `(pid, seq)` in touch order; an entry is
    /// live only while `seq` matches `last_touch[pid]` (re-touching a
    /// partition invalidates its older entries instead of searching the
    /// queue). The sweep loads partitions in the §4 order, so the queue
    /// front is the ground already behind the frontier.
    touch_order: Mutex<VecDeque<(usize, u64)>>,
    last_touch: Vec<AtomicU64>,
    touch_seq: AtomicU64,
}

impl std::fmt::Debug for DiskGridSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskGridSource")
            .field("dir", &self.dir)
            .field("p", &self.manifest.p)
            .field("generation", &self.generation())
            .field("partitions", &self.num_partitions())
            .finish()
    }
}

impl DiskGridSource {
    /// Opens a store directory written by [`Convert`](crate::Convert),
    /// resolved at the generation its `CURRENT` pointer names (0 — the
    /// bare base store — when none exists). A manifest that is not a
    /// grid's is a typed `GraphError::Format`.
    pub fn open(dir: &Path) -> Result<DiskGridSource> {
        let manifest = Manifest::read_from_dir(dir)?;
        let generation = delta::read_current_generation(dir)?;
        let view = Arc::new(GenView::build(dir, &manifest, generation, None)?);
        let parts = manifest.partitions.len();
        let cache = (0..parts)
            .map(|_| Mutex::new(CacheSlot { generation: u64::MAX, weak: Weak::new() }))
            .collect();
        let advised = (0..parts).map(|_| AtomicBool::new(false)).collect();
        let resident = (0..parts).map(|_| AtomicBool::new(false)).collect();
        let resident_charged = (0..parts).map(|_| AtomicU64::new(0)).collect();
        let last_touch = (0..parts).map(|_| AtomicU64::new(0)).collect();
        Ok(DiskGridSource {
            dir: dir.to_path_buf(),
            manifest,
            views: RwLock::new(Views { current: view, incoming: None, pins: 0 }),
            rotations: AtomicU64::new(0),
            cache,
            advised,
            pf_issued: AtomicU64::new(0),
            pf_hits: AtomicU64::new(0),
            pf_advise_ns: AtomicU64::new(0),
            window: AdaptiveWindow::new(DEFAULT_MAX_PREFETCH_LOOKAHEAD),
            budget: AtomicU64::new(0),
            resident,
            resident_charged,
            resident_bytes: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            touch_order: Mutex::new(VecDeque::new()),
            last_touch,
            touch_seq: AtomicU64::new(0),
        })
    }

    /// Opens `dir` through the process-wide share registry: while any
    /// previously returned handle is alive, every `open_shared` of the
    /// same (canonicalized) directory returns a clone of the same `Arc`,
    /// so N workbenches/daemon threads over one store share one mapping,
    /// one manifest, and one per-partition materialization cache instead
    /// of N. Stores are single-writer/multi-reader: `Convert` writes the
    /// base once and a `DeltaWriter` only ever *adds* files before
    /// flipping `CURRENT` (see `docs/ARCHITECTURE.md`), which is what
    /// makes the shared handle sound.
    ///
    /// The registry holds `Weak`s, so a store unmaps once every handle
    /// drops. `open` runs *outside* the registry lock — opening validates
    /// every record (O(E)), and holding the one global lock across that
    /// would serialize unrelated store opens. Two threads racing to open
    /// the same cold store may both do the work; the loser adopts the
    /// winner's handle and drops its own.
    pub fn open_shared(dir: &Path) -> Result<Arc<DiskGridSource>> {
        static LIVE: Mutex<BTreeMap<PathBuf, Weak<DiskGridSource>>> = Mutex::new(BTreeMap::new());
        let key = std::fs::canonicalize(dir)?;
        {
            let live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(existing) = live.get(&key).and_then(Weak::upgrade) {
                return Ok(existing);
            }
        }
        let opened = Arc::new(DiskGridSource::open(dir)?);
        let mut live = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(raced) = live.get(&key).and_then(Weak::upgrade) {
            return Ok(raced);
        }
        live.retain(|_, w| w.strong_count() > 0);
        live.insert(key, Arc::downgrade(&opened));
        Ok(opened)
    }

    /// The store's base manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Grid dimension `P`.
    pub fn p(&self) -> usize {
        self.manifest.p as usize
    }

    /// A copy of partition `pid`'s **base-segment** records for the
    /// currently served generation (delta overlays are visible through
    /// [`PartitionSource::load`], which materializes the merged view).
    /// Owned rather than borrowed so the handle never has to pin a
    /// retired generation's mappings — and its unlinked files — alive.
    pub fn edges(&self, pid: usize) -> Vec<Edge> {
        self.view().segments[pid].as_slice().to_vec()
    }

    /// Out-degrees of the currently served generation's merged view,
    /// streamed from the mapped segments (PageRank-family jobs need them;
    /// no `EdgeList` is ever materialized).
    pub fn out_degrees(&self) -> Vec<u32> {
        let view = self.view();
        let mut deg = vec![0u32; self.manifest.num_vertices as usize];
        for pid in 0..self.num_partitions() {
            let base = view.segments[pid].as_slice();
            match &view.overlays[pid] {
                Some(overlay) => overlay.sources(base).for_each(|src| deg[src as usize] += 1),
                None => base.iter().for_each(|e| deg[e.src as usize] += 1),
            }
        }
        deg
    }

    /// The generation view loads currently resolve against. Stable for
    /// the duration of a pinned busy period: a refresh defers adoption
    /// while pins are held.
    fn view(&self) -> Arc<GenView> {
        Arc::clone(&self.views.read().unwrap_or_else(|e| e.into_inner()).current)
    }

    /// Runs `f` against the current view under the read guard — the hot
    /// per-partition queries (activity, byte accounting) avoid the Arc
    /// refcount round-trip `view()` pays; readers never block each other.
    fn with_view<R>(&self, f: impl FnOnce(&GenView) -> R) -> R {
        f(&self.views.read().unwrap_or_else(|e| e.into_inner()).current)
    }

    /// Polls the store's `CURRENT` pointer and rotates to any newer
    /// generation. Returns `true` when one was picked up: adopted
    /// immediately, or — while a sweep pin is held
    /// ([`PartitionSource::sweep_begin`]) — staged for adoption at the
    /// last unpin, so in-flight sweeps keep their generation. The old
    /// generation's mappings are retired when the last reader drops its
    /// `Arc`. Runtimes that preprocessed this source (chunk tables,
    /// out-degrees) must be rebuilt after a rotation — the daemon does
    /// this between rounds.
    pub fn refresh_generation(&self) -> Result<bool> {
        let disk_gen = delta::read_current_generation(&self.dir)?;
        let (known, prev) = {
            let views = self.views.read().unwrap_or_else(|e| e.into_inner());
            let latest = views.incoming.as_ref().unwrap_or(&views.current);
            (latest.generation, Arc::clone(latest))
        };
        if disk_gen == known {
            return Ok(false);
        }
        if disk_gen < known {
            return Err(GraphError::Format(format!(
                "{}: CURRENT moved backwards ({} -> {disk_gen})",
                self.dir.display(),
                known
            )));
        }
        let built = Arc::new(GenView::build(&self.dir, &self.manifest, disk_gen, Some(&prev))?);
        let mut views = self.views.write().unwrap_or_else(|e| e.into_inner());
        // The build ran outside the lock: a concurrent refresher (two
        // runtimes sharing one handle) may have installed this — or a
        // newer — generation meanwhile. Never replace newer with older,
        // and count each adoption exactly once.
        let known_now = views.incoming.as_ref().unwrap_or(&views.current).generation;
        if built.generation > known_now {
            if views.pins == 0 {
                views.current = built;
                views.incoming = None;
                self.rotations.fetch_add(1, Ordering::Relaxed);
            } else {
                views.incoming = Some(built);
            }
        }
        Ok(true)
    }

    /// The generation loads currently resolve against.
    pub fn generation(&self) -> u64 {
        self.views.read().unwrap_or_else(|e| e.into_inner()).current.generation
    }

    /// The generation [`DiskGridSource::refresh_generation`] picked up
    /// while sweep pins were held, if any: loads keep resolving against
    /// [`DiskGridSource::generation`] until the last pin is released. A
    /// server that sees one should stop starting work, so that the pins
    /// can drain and the generation be adopted.
    pub fn staged_generation(&self) -> Option<u64> {
        let views = self.views.read().unwrap_or_else(|e| e.into_inner());
        views.incoming.as_ref().map(|view| view.generation)
    }

    /// Delta/rotation counters (see [`DeltaStats`]).
    pub fn delta_stats(&self) -> DeltaStats {
        let view = self.view();
        DeltaStats {
            generation: view.generation,
            rotations: self.rotations.load(Ordering::Relaxed),
            delta_bytes: view.delta_bytes,
            delta_records: view.delta_records,
            compactions: view.compactions,
        }
    }

    /// Sets the page-cache budget in bytes (0 = unlimited): once modeled
    /// residency exceeds it, loads release segments behind the sweep
    /// frontier with `madvise(MADV_DONTNEED)`.
    pub fn set_memory_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
    }

    /// Residency/eviction counters (see [`ResidencyStats`]).
    pub fn residency_stats(&self) -> ResidencyStats {
        ResidencyStats {
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            budget_bytes: self.budget.load(Ordering::Relaxed),
            prefetch_window: self.window.current() as u64,
        }
    }

    /// Marks `pid`'s files as paged in (by a load or a readahead hint)
    /// and records its position in the eviction order. The queue is kept
    /// bounded: stale entries (a later touch superseded them) are
    /// compacted away once they dominate, and with no budget configured —
    /// where nothing would ever pop the queue — it is skipped entirely.
    fn touch(&self, pid: usize, view: &GenView) {
        if self.budget.load(Ordering::Relaxed) > 0 {
            let seq = self.touch_seq.fetch_add(1, Ordering::Relaxed) + 1;
            self.last_touch[pid].store(seq, Ordering::Relaxed);
            let mut order = self.touch_order.lock().unwrap_or_else(|e| e.into_inner());
            order.push_back((pid, seq));
            if order.len() > self.num_partitions() * 4 + 64 {
                // At most one entry per partition is live; everything
                // else is superseded history.
                order.retain(|&(p, s)| self.last_touch[p].load(Ordering::Relaxed) == s);
            }
        }
        if !self.resident[pid].swap(true, Ordering::AcqRel) {
            let charge = view.resident_charge(pid);
            self.resident_charged[pid].store(charge, Ordering::Relaxed);
            self.resident_bytes.fetch_add(charge, Ordering::Relaxed);
        }
    }

    /// Releases resident segments behind the sweep frontier (oldest touch
    /// first) until the model fits the budget again. `current` — the
    /// partition being streamed right now — is never released.
    fn enforce_budget(&self, current: usize, view: &GenView) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        let mut held_current = None;
        while self.resident_bytes.load(Ordering::Relaxed) > budget {
            let entry = self.touch_order.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
            let Some((pid, seq)) = entry else { break };
            if self.last_touch[pid].load(Ordering::Relaxed) != seq {
                continue; // Stale entry: the partition was re-touched later.
            }
            if pid == current {
                // At most one live entry per pid: hold it aside, restore
                // it after the scan so it ages normally.
                held_current = Some((pid, seq));
                continue;
            }
            if !self.resident[pid].load(Ordering::Acquire) {
                continue;
            }
            if view.release(pid) {
                self.resident[pid].store(false, Ordering::Release);
                let charge = self.resident_charged[pid].load(Ordering::Relaxed);
                self.resident_bytes.fetch_sub(charge, Ordering::Relaxed);
                self.evicted_bytes.fetch_add(charge, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                // A pending WILLNEED hint for released pages is stale:
                // the next load must count as a miss and re-grow the
                // window.
                self.advised[pid].store(false, Ordering::Release);
            }
            // Unevictable segments (decoded fallbacks) stay resident and
            // simply leave the queue.
        }
        if let Some(entry) = held_current {
            self.touch_order.lock().unwrap_or_else(|e| e.into_inner()).push_front(entry);
        }
    }

    fn load_impl(&self, pid: usize, fallible: bool) -> Result<Arc<Vec<Edge>>> {
        if fallible {
            failpoint::hit("read:load")?;
        }
        let view = self.view();
        let mut slot = self.cache[pid].lock().unwrap_or_else(|e| e.into_inner());
        let cached = if slot.generation == view.generation { slot.weak.upgrade() } else { None };
        let advised = self.advised[pid].swap(false, Ordering::AcqRel);
        if advised {
            self.pf_hits.fetch_add(1, Ordering::Relaxed);
        }
        // The feedback controller observes a load only when it actually
        // steers readahead: a prefetcher has issued at least one hint
        // (the simulator's runs never spawn one — the reported window
        // must not drift to max meaninglessly), and the load really
        // reads the mapping (live-cache serves do no I/O).
        let adaptive = self.pf_issued.load(Ordering::Relaxed) > 0 && cached.is_none();
        if adaptive {
            if advised {
                self.window.on_hit();
            } else {
                self.window.on_miss();
            }
        }
        self.touch(pid, &view);
        self.enforce_budget(pid, &view);
        let budget = self.budget.load(Ordering::Relaxed);
        if adaptive
            && budget > 0
            && self.resident_bytes.load(Ordering::Relaxed).saturating_mul(8) >= budget * 7
        {
            // Paged-in bytes approach the budget: rein the readahead in
            // before it feeds the eviction it then pays for.
            self.window.on_pressure();
        }
        if let Some(live) = cached {
            return Ok(live);
        }
        if fallible {
            failpoint::hit("read:merged")?;
        }
        let materialized = Arc::new(view.merged(pid));
        slot.generation = view.generation;
        slot.weak = Arc::downgrade(&materialized);
        Ok(materialized)
    }
}

impl PrefetchTarget for DiskGridSource {
    /// Issues a readahead hint for `pid`'s files, at most once per load
    /// cycle (the flag re-arms when the partition is next loaded).
    /// Prefetch is advisory: an injected (or real) failure here degrades
    /// to "no hint" — the next load simply counts as a window miss.
    fn advise(&self, pid: usize) {
        if pid >= self.num_partitions() || self.advised[pid].swap(true, Ordering::AcqRel) {
            return;
        }
        if failpoint::hit("read:prefetch").is_err() {
            self.advised[pid].store(false, Ordering::Release);
            return;
        }
        let start = Instant::now();
        let view = self.view();
        view.advise_willneed(pid);
        self.touch(pid, &view);
        self.pf_advise_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.pf_issued.fetch_add(1, Ordering::Relaxed);
    }

    fn prefetch_stats(&self) -> PrefetchStats {
        PrefetchStats {
            issued: self.pf_issued.load(Ordering::Relaxed),
            hits: self.pf_hits.load(Ordering::Relaxed),
            advise_ns: self.pf_advise_ns.load(Ordering::Relaxed),
        }
    }

    fn prefetch_window(&self) -> usize {
        self.window.current()
    }
}

impl PartitionSource for DiskGridSource {
    fn num_partitions(&self) -> usize {
        self.manifest.partitions.len()
    }

    fn num_vertices(&self) -> VertexId {
        self.manifest.num_vertices
    }

    /// Infallible load: real I/O failures on the mapped files surface as
    /// SIGBUS (outside this model's scope); injected failpoints are only
    /// checked on the fallible path. Kept for direct callers (figure
    /// harnesses, out-degree scans) that run outside a serving runtime.
    fn load(&self, pid: usize) -> Arc<Vec<Edge>> {
        self.load_impl(pid, false).expect("only the fallible path checks failpoints")
    }

    /// Fallible load for the serving runtimes: `read:load` guards the
    /// whole operation, `read:merged` the materialization of a cache-miss
    /// merged view. An error leaves the cache slot and residency counters
    /// consistent — the next load retries from scratch.
    fn try_load(&self, pid: usize) -> Result<Arc<Vec<Edge>>> {
        self.load_impl(pid, true)
    }

    fn partition_bytes(&self, pid: usize) -> usize {
        self.with_view(|v| v.merged_edges[pid] as usize * EDGE_BYTES)
    }

    fn graph_bytes(&self) -> usize {
        self.with_view(|v| v.graph_bytes as usize)
    }

    /// The manifest's order: the grid's column-major streaming order.
    fn order(&self) -> Vec<usize> {
        self.manifest.order.iter().map(|&pid| pid as usize).collect()
    }

    /// GridGraph's `should_access_shard` over the merged view: a block is
    /// active when it holds edges and an active vertex lies in its row's
    /// source range.
    fn partition_active(&self, pid: usize, active: &AtomicBitmap) -> bool {
        if self.with_view(|v| v.merged_edges[pid] == 0) {
            return false;
        }
        let e = &self.manifest.partitions[pid];
        e.src_lo < e.src_hi && active.any_in_range(e.src_lo as usize, e.src_hi as usize)
    }

    /// Pins the current generation for a sweep (counted; sweeps may
    /// overlap across runtimes sharing the handle).
    fn sweep_begin(&self) {
        self.views.write().unwrap_or_else(|e| e.into_inner()).pins += 1;
    }

    /// Releases a sweep pin; the last unpin adopts any generation that
    /// arrived mid-sweep.
    fn sweep_end(&self) {
        let mut views = self.views.write().unwrap_or_else(|e| e.into_inner());
        debug_assert!(views.pins > 0, "sweep_end without a matching sweep_begin");
        views.pins = views.pins.saturating_sub(1);
        if views.pins == 0 {
            if let Some(incoming) = views.incoming.take() {
                views.current = incoming;
                self.rotations.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompactionPolicy, Convert, DeltaWriter};
    use graphm_graph::generators;

    /// A rotation re-resolves only the partitions whose chain changed:
    /// every other partition's overlay is the previous view's `Arc`.
    #[test]
    fn rotation_reuses_untouched_overlays() {
        let g = generators::rmat(64, 400, generators::RmatParams::GRAPH500, 53);
        let mut dir = std::env::temp_dir();
        dir.push(format!("graphm-source-test-overlay-reuse-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Convert::grid(2).write(&g, &dir).unwrap();
        let mut writer = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
        // One insert into each of the four blocks (32 vertices a range).
        for (src, dst) in [(1, 2), (3, 40), (50, 4), (60, 61)] {
            writer.insert(src, dst, 1.0).unwrap();
        }
        writer.publish().unwrap();
        let store = DiskGridSource::open(&dir).unwrap();
        let before = store.view();
        assert!(before.overlays.iter().all(Option::is_some));

        let touched = writer.partition_of(5, 6);
        writer.delete(1, 2).unwrap();
        writer.publish().unwrap();
        assert!(store.refresh_generation().unwrap());
        let after = store.view();
        assert_eq!(after.generation, 2);
        for pid in 0..4 {
            let (old, new) = (before.overlays[pid].as_ref(), after.overlays[pid].as_ref());
            let reused = Arc::ptr_eq(old.unwrap(), new.unwrap());
            assert_eq!(reused, pid != touched, "partition {pid}");
        }
        assert!(after.merged_edges[touched] < before.merged_edges[touched]);

        // Compaction empties the chains: no overlay, the base is the view.
        writer.compact().unwrap();
        assert!(store.refresh_generation().unwrap());
        assert!(store.view().overlays.iter().all(Option::is_none));
        std::fs::remove_dir_all(&dir).ok();
    }
}
