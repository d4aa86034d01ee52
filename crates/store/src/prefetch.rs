//! The partition readahead thread.
//!
//! The §4 scheduler computes the loading order before every sweep, so the
//! runtime always knows which partitions come next — information an
//! out-of-core system can spend on prefetch (GraphD hides disk latency
//! under compute exactly this way). A [`Prefetcher`] owns one background
//! thread that drains a window of upcoming partition ids and issues
//! `madvise(MADV_WILLNEED)` on their segments through
//! [`PrefetchTarget`], so the kernel reads the next
//! partitions in while jobs are still streaming the current one. Because
//! segments are read with plain sequential `mmap` views, the streaming
//! access itself stays purely sequential (the LiveGraph argument); only
//! the *hint* runs ahead.
//!
//! The window is **replaced**, not appended, on every request: the
//! runtime announces a sliding window per partition advance, and stale
//! entries from an overtaken window are worthless. The runtime announces
//! its *maximum* lookahead; the prefetcher keeps only the target's
//! current [`AdaptiveWindow`] prefix of it, so the effective depth is
//! feedback-controlled (grow on misses, shrink on saturated hits or
//! memory-budget pressure) instead of a fixed knob.
//!
//! Wire it to a runtime with [`Prefetcher::hook`]:
//!
//! ```
//! use graphm_store::{Convert, DiskGridSource, Prefetcher, PrefetchTarget};
//! use std::sync::Arc;
//!
//! let g = graphm_graph::generators::rmat(
//!     300, 2000, graphm_graph::generators::RmatParams::GRAPH500, 3);
//! let dir = std::env::temp_dir().join(format!("graphm-prefetch-doc-{}", std::process::id()));
//! Convert::grid(2).write(&g, &dir).unwrap();
//! let source = DiskGridSource::open_shared(&dir).unwrap();
//!
//! let prefetcher = Prefetcher::spawn(Arc::clone(&source) as Arc<dyn PrefetchTarget>);
//! let exec = graphm_core::WallClockExecutor::new(
//!     source.clone(), graphm_core::WallClockConfig::default(), Some(prefetcher.hook()));
//! # drop(exec);
//! # drop(prefetcher);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::source::PrefetchTarget;
use graphm_core::PrefetchHook;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Lower bound of the adaptive prefetch window: one partition in flight
/// plus one being advised — shrinking below this would make the
/// readahead thread pointless.
pub const MIN_PREFETCH_WINDOW: usize = 2;

/// Default upper bound of the adaptive window (and the depth the
/// wall-clock runtime announces).
pub const DEFAULT_MAX_PREFETCH_LOOKAHEAD: usize = 16;

/// Consecutive prefetch hits before the window shrinks by one step —
/// saturated hits mean the window is at least deep enough, so spending
/// less readahead (and less page-cache residency) is free.
pub const HIT_SATURATION: usize = 8;

/// Feedback controller for the prefetch depth, replacing the fixed
/// `prefetch_lookahead` knob: **grow on misses** (the consumer reached a
/// partition before its hint — the window was too shallow), **shrink when
/// hits saturate** ([`HIT_SATURATION`] consecutive pre-advised loads) or
/// when paged-in bytes approach the memory budget (`on_pressure`). The
/// window always stays within `[MIN_PREFETCH_WINDOW, max]`.
///
/// The transition function is monotone in the miss rate: flipping any
/// hit of an observation trace to a miss can only leave the resulting
/// window equal or larger (pinned by a property test). State is one
/// packed atomic, so observers on the load path never contend on a lock.
pub struct AdaptiveWindow {
    max: usize,
    /// Low 32 bits: current window; high 32 bits: consecutive-hit run.
    state: AtomicU64,
}

impl AdaptiveWindow {
    /// A controller bounded by `max` (clamped to at least
    /// [`MIN_PREFETCH_WINDOW`]), starting shallow at the minimum — cold
    /// misses grow it within one sweep.
    pub fn new(max: usize) -> AdaptiveWindow {
        AdaptiveWindow {
            max: max.max(MIN_PREFETCH_WINDOW),
            state: AtomicU64::new(MIN_PREFETCH_WINDOW as u64),
        }
    }

    /// The configured upper bound.
    pub fn max(&self) -> usize {
        self.max
    }

    /// Current window depth.
    pub fn current(&self) -> usize {
        (self.state.load(Ordering::Relaxed) & 0xffff_ffff) as usize
    }

    fn update(&self, f: impl Fn(usize, usize) -> (usize, usize)) {
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            let (win, run) = ((cur & 0xffff_ffff) as usize, (cur >> 32) as usize);
            let (nwin, nrun) = f(win, run);
            let next = ((nrun as u64) << 32) | nwin as u64;
            match self.state.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// A load missed its hint: grow one step, reset the hit run.
    pub fn on_miss(&self) {
        self.update(|win, _| ((win + 1).min(self.max), 0));
    }

    /// A load found its partition pre-advised: after
    /// [`HIT_SATURATION`] consecutive hits, shrink one step.
    pub fn on_hit(&self) {
        self.update(|win, run| {
            if run + 1 >= HIT_SATURATION {
                (win.saturating_sub(1).max(MIN_PREFETCH_WINDOW), 0)
            } else {
                (win, run + 1)
            }
        });
    }

    /// Paged-in bytes are approaching the memory budget: shrink one step
    /// so readahead stops feeding the pressure it would then evict.
    pub fn on_pressure(&self) {
        self.update(|win, _| (win.saturating_sub(1).max(MIN_PREFETCH_WINDOW), 0));
    }
}

struct Shared {
    queue: Mutex<VecDeque<usize>>,
    cv: Condvar,
    stop: AtomicBool,
    /// Consulted at every window replacement for the target's current
    /// adaptive depth (non-adaptive targets report `usize::MAX`).
    target: Arc<dyn PrefetchTarget>,
}

impl Shared {
    fn replace_window(&self, pids: &[usize]) {
        let limit = self.target.prefetch_window().max(1);
        let mut queue = self.queue.lock();
        queue.clear();
        queue.extend(pids.iter().copied().take(limit));
        drop(queue);
        self.cv.notify_all();
    }
}

/// A background readahead thread over one disk store. Dropping it stops
/// and joins the thread.
pub struct Prefetcher {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Prefetcher {
    /// Spawns the readahead thread over `target`.
    pub fn spawn(target: Arc<dyn PrefetchTarget>) -> Prefetcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            target: Arc::clone(&target),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("graphm-prefetch".to_string())
            .spawn(move || loop {
                let pid = {
                    let mut queue = thread_shared.queue.lock();
                    loop {
                        if thread_shared.stop.load(Ordering::Acquire) {
                            return;
                        }
                        match queue.pop_front() {
                            Some(pid) => break pid,
                            None => thread_shared.cv.wait(&mut queue),
                        }
                    }
                };
                target.advise(pid);
            })
            .expect("spawn prefetch thread");
        Prefetcher { shared, handle: Some(handle) }
    }

    /// Replaces the pending window with `pids` (soonest first).
    pub fn request(&self, pids: &[usize]) {
        self.shared.replace_window(pids);
    }

    /// A hook suitable for `WallClockExecutor::new`: each call
    /// replaces the pending window. The hook only enqueues — it never
    /// touches the store on the caller's thread.
    pub fn hook(&self) -> PrefetchHook {
        let shared = Arc::clone(&self.shared);
        Arc::new(move |pids: &[usize]| shared.replace_window(pids))
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Set under the queue lock: the thread checks `stop` and parks on
        // the condvar under that lock, so the wake-up below cannot slip in
        // between its check and its wait (and be lost, hanging the join).
        {
            let _queue = self.shared.queue.lock();
            self.shared.stop.store(true, Ordering::Release);
        }
        self.shared.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod window_properties {
    use super::*;
    use proptest::prelude::*;

    /// Replays a trace (`true` = miss, `false` = hit) into a fresh
    /// controller and returns the final window.
    fn replay(max: usize, trace: &[bool]) -> usize {
        let w = AdaptiveWindow::new(max);
        for &miss in trace {
            if miss {
                w.on_miss();
            } else {
                w.on_hit();
            }
        }
        w.current()
    }

    proptest! {
        /// Satellite property: the adaptive window stays within
        /// `[MIN_PREFETCH_WINDOW, max]` for every trace, and is monotone
        /// in the miss rate — flipping any subset of hits to misses never
        /// shrinks the resulting window.
        #[test]
        fn window_bounded_and_monotone_in_miss_rate(
            max in 2usize..40,
            trace in proptest::collection::vec(any::<bool>(), 0..200),
            flips in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let base = replay(max, &trace);
            prop_assert!(base >= MIN_PREFETCH_WINDOW);
            prop_assert!(base <= max.max(MIN_PREFETCH_WINDOW));
            // Pointwise-dominating trace: every miss stays a miss, some
            // hits become misses.
            let dominated: Vec<bool> = trace
                .iter()
                .enumerate()
                .map(|(i, &m)| m || flips.get(i).copied().unwrap_or(false))
                .collect();
            let dominated_window = replay(max, &dominated);
            prop_assert!(
                dominated_window >= base,
                "more misses must not shrink the window: {dominated_window} < {base}"
            );
        }

        /// Pressure only ever shrinks, and never below the floor.
        #[test]
        fn pressure_shrinks_to_floor(
            max in 2usize..40,
            misses in 0usize..80,
            pressures in 0usize..80,
        ) {
            let w = AdaptiveWindow::new(max);
            for _ in 0..misses {
                w.on_miss();
            }
            let grown = w.current();
            for _ in 0..pressures {
                w.on_pressure();
            }
            prop_assert!(w.current() <= grown);
            prop_assert!(w.current() >= MIN_PREFETCH_WINDOW);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Convert, DiskGridSource};
    use graphm_core::PartitionSource;
    use std::time::{Duration, Instant};

    fn store_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphm-prefetch-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn advises_requested_partitions_and_counts_hits() {
        let g = graphm_graph::generators::rmat(
            200,
            1600,
            graphm_graph::generators::RmatParams::GRAPH500,
            7,
        );
        let dir = store_dir("hits");
        Convert::grid(2).write(&g, &dir).unwrap();
        let source = DiskGridSource::open(&dir).map(Arc::new).unwrap();
        let n = source.num_partitions();

        // No load has moved the adaptive window off its floor, so announce
        // the partitions in window-sized requests: each is advised whole.
        let prefetcher = Prefetcher::spawn(Arc::clone(&source) as Arc<dyn PrefetchTarget>);
        let pids: Vec<usize> = (0..n).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        for (i, window) in pids.chunks(MIN_PREFETCH_WINDOW).enumerate() {
            prefetcher.request(window);
            let want = (pids.len().min((i + 1) * MIN_PREFETCH_WINDOW)) as u64;
            while source.prefetch_stats().issued < want {
                assert!(Instant::now() < deadline, "prefetch thread stalled");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // Every subsequent load finds its partition advised.
        for pid in 0..n {
            let _ = source.load(pid);
        }
        let stats = source.prefetch_stats();
        assert_eq!(stats.issued, n as u64);
        assert_eq!(stats.hits, n as u64);

        // Deduplication: advising an already-advised partition is free,
        // and the flag re-arms only after a load.
        prefetcher.request(&[0, 0, 0]);
        let deadline = Instant::now() + Duration::from_secs(10);
        while source.prefetch_stats().issued < n as u64 + 1 {
            assert!(Instant::now() < deadline, "re-advise did not land");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(source.prefetch_stats().issued, n as u64 + 1);

        drop(prefetcher); // joins cleanly
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adaptive_window_truncates_announcements() {
        let g = graphm_graph::generators::rmat(
            220,
            1800,
            graphm_graph::generators::RmatParams::GRAPH500,
            9,
        );
        let dir = store_dir("adaptive");
        Convert::grid(3).write(&g, &dir).unwrap();
        let source = DiskGridSource::open(&dir).map(Arc::new).unwrap();
        let n = source.num_partitions();
        assert!(n > MIN_PREFETCH_WINDOW + 1);
        // Cold store, no loads yet: the adaptive window sits at its
        // minimum, so announcing everything advises only that prefix.
        assert_eq!(source.prefetch_window(), MIN_PREFETCH_WINDOW);
        let prefetcher = Prefetcher::spawn(Arc::clone(&source) as Arc<dyn PrefetchTarget>);
        let pids: Vec<usize> = (0..n).collect();
        prefetcher.request(&pids);
        let deadline = Instant::now() + Duration::from_secs(10);
        while source.prefetch_stats().issued < MIN_PREFETCH_WINDOW as u64 {
            assert!(Instant::now() < deadline, "prefetch thread stalled");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Settle, then confirm nothing past the window was advised.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(source.prefetch_stats().issued, MIN_PREFETCH_WINDOW as u64);
        // Misses (unadvised loads) grow the window.
        for pid in 0..n {
            let _ = source.load(pid);
        }
        assert!(source.prefetch_window() > MIN_PREFETCH_WINDOW);
        drop(prefetcher);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn window_replacement_keeps_latest() {
        let g = graphm_graph::generators::rmat(
            100,
            900,
            graphm_graph::generators::RmatParams::GRAPH500,
            1,
        );
        let dir = store_dir("window");
        Convert::grid(2).write(&g, &dir).unwrap();
        let source = DiskGridSource::open(&dir).map(Arc::new).unwrap();
        let prefetcher = Prefetcher::spawn(Arc::clone(&source) as Arc<dyn PrefetchTarget>);
        // Hammer replacements; the thread must neither crash nor wedge.
        for round in 0..200usize {
            prefetcher.request(&[round % 4, (round + 1) % 4]);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while source.prefetch_stats().issued == 0 {
            assert!(Instant::now() < deadline, "no advise ever landed");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(prefetcher);
        std::fs::remove_dir_all(&dir).ok();
    }
}
