//! Deterministic crash injection for the durable write path.
//!
//! Every fsync/rename boundary in the delta-publish path calls
//! [`hit`] with a stable point name. In normal operation the calls are
//! free (one thread-local read). A crash test drives them in two modes:
//!
//! 1. **Trace mode** ([`record`] / [`trace`]): a clean publish records the
//!    ordered list of boundaries it crossed, so the test harness can
//!    *enumerate* the crash matrix instead of hard-coding it — a new
//!    fsync added to the publish path automatically grows the matrix.
//! 2. **Armed mode** ([`arm`]): the k-th crossing of one named point
//!    returns an injected I/O error, which aborts the publish exactly as
//!    a crash would — everything before the boundary is on disk,
//!    everything after never happens. The test then reopens the store
//!    and asserts recovery.
//!
//! State is **thread-local**: a `DeltaWriter` performs its whole publish
//! on the calling thread, so parallel tests never see each other's armed
//! points.
//!
//! The *read* path is different: a daemon's store loads happen on
//! runtime, job, and prefetch threads the test never owns. For those,
//! [`arm_global`] arms one point **process-wide**; any thread's next
//! matching crossing trips it (the armed state is consumed atomically, so
//! exactly one crossing fails per arming). Global arming also works from
//! another process's environment via `GRAPHM_FAILPOINT=point[@skip]`,
//! which daemons apply at startup.

use crate::types::{GraphError, Result};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a thread has asked the failpoint layer to do.
#[derive(Default)]
struct FailState {
    /// Ordered crossings recorded since [`record`] (None = not tracing).
    trace: Option<Vec<String>>,
    /// `(point, remaining_skips)` — trip when a crossing of `point` finds
    /// `remaining_skips == 0`.
    armed: Option<(String, usize)>,
}

thread_local! {
    static STATE: RefCell<FailState> = RefCell::new(FailState::default());
}

/// Process-wide armed point, shared by every thread. `None` in normal
/// operation, so the fast path is one uncontended lock-free-ish check of
/// [`GLOBAL_HITS`] plus the mutex only when a trace or arming is live.
static GLOBAL_ARMED: Mutex<Option<(String, usize)>> = Mutex::new(None);
/// Crossings observed process-wide since the last [`reset_global`]
/// (every `hit` counts, armed or not — cheap liveness signal for tests).
static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);

/// Marker embedded in every injected error message, so tests can tell an
/// injected crash from a real I/O failure.
pub const INJECTED_MARKER: &str = "crash injected at failpoint";

/// Clears all failpoint state on this thread (tracing and armed points).
pub fn reset() {
    STATE.with(|s| *s.borrow_mut() = FailState::default());
}

/// Starts recording boundary crossings on this thread (clearing any
/// previous trace).
pub fn record() {
    STATE.with(|s| s.borrow_mut().trace = Some(Vec::new()));
}

/// The crossings recorded since [`record`], in order.
pub fn trace() -> Vec<String> {
    STATE.with(|s| s.borrow().trace.clone().unwrap_or_default())
}

/// Arms one point on this thread: the `(skip + 1)`-th crossing of `point`
/// fails with an injected I/O error. Re-arming replaces the previous
/// armed point.
pub fn arm(point: &str, skip: usize) {
    STATE.with(|s| s.borrow_mut().armed = Some((point.to_string(), skip)));
}

/// Arms one point **process-wide**: the `(skip + 1)`-th crossing of
/// `point`, on *any* thread, fails with an injected I/O error. Exactly
/// one crossing trips per arming (the state is consumed under a lock).
pub fn arm_global(point: &str, skip: usize) {
    *GLOBAL_ARMED.lock() = Some((point.to_string(), skip));
}

/// Disarms the process-wide point.
pub fn disarm_global() {
    *GLOBAL_ARMED.lock() = None;
}

/// Whether a process-wide point is currently armed (not yet tripped).
pub fn global_armed() -> bool {
    GLOBAL_ARMED.lock().is_some()
}

/// Crossings observed process-wide since the last [`reset_global`].
pub fn global_hits() -> u64 {
    GLOBAL_HITS.load(Ordering::Relaxed)
}

/// Clears the process-wide armed point and crossing counter.
pub fn reset_global() {
    disarm_global();
    GLOBAL_HITS.store(0, Ordering::Relaxed);
}

/// Applies a `GRAPHM_FAILPOINT=point[@skip]` style spec (used by daemons
/// so an external harness can arm the read path across a process
/// boundary). Returns the parsed `(point, skip)` on success.
pub fn arm_global_from_spec(spec: &str) -> Option<(String, usize)> {
    let (point, skip) = match spec.split_once('@') {
        Some((p, s)) => (p, s.parse::<usize>().ok()?),
        None => (spec, 0),
    };
    if point.is_empty() {
        return None;
    }
    arm_global(point, skip);
    Some((point.to_string(), skip))
}

/// Whether `err` is an injected crash (vs a real I/O failure).
pub fn is_injected(err: &GraphError) -> bool {
    matches!(err, GraphError::Io(e) if e.to_string().contains(INJECTED_MARKER))
}

/// Declares a boundary crossing. Returns the injected error when this
/// thread armed this point (consuming the armed state so recovery code
/// running after the "crash" is not re-tripped).
pub fn hit(point: &str) -> Result<()> {
    GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        if let Some(trace) = st.trace.as_mut() {
            trace.push(point.to_string());
        }
        let tripped = match st.armed.as_mut() {
            Some((armed, skip)) if armed == point => {
                if *skip == 0 {
                    true
                } else {
                    *skip -= 1;
                    false
                }
            }
            _ => false,
        };
        if tripped {
            st.armed = None;
            return Err(GraphError::Io(std::io::Error::other(format!(
                "{INJECTED_MARKER} {point}"
            ))));
        }
        Ok(())
    })?;
    // Process-wide arming: checked after the thread-local state so the
    // write-path crash matrix (thread-local by design) is unaffected.
    let mut global = GLOBAL_ARMED.lock();
    let tripped = match global.as_mut() {
        Some((armed, skip)) if armed == point => {
            if *skip == 0 {
                true
            } else {
                *skip -= 1;
                false
            }
        }
        _ => false,
    };
    if tripped {
        *global = None;
        return Err(GraphError::Io(std::io::Error::other(format!("{INJECTED_MARKER} {point}"))));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_trips_the_selected_occurrence_once() {
        reset();
        record();
        assert!(hit("a").is_ok());
        arm("b", 1);
        assert!(hit("b").is_ok(), "first crossing is skipped");
        let err = hit("b").unwrap_err();
        assert!(is_injected(&err), "second crossing trips: {err}");
        assert!(hit("b").is_ok(), "tripping disarms");
        assert_eq!(trace(), vec!["a", "b", "b", "b"]);
        reset();
        assert!(trace().is_empty());
    }

    /// The process-wide slot is shared by the tests that arm it: they run
    /// one at a time.
    static GLOBAL_SLOT: Mutex<()> = Mutex::new(());

    #[test]
    fn global_arming_trips_once_across_threads() {
        let _slot = GLOBAL_SLOT.lock();
        reset_global();
        arm_global("g:point", 1);
        assert!(hit("g:point").is_ok(), "skip crossing passes");
        let from_other_thread = std::thread::spawn(|| hit("g:point")).join().unwrap();
        assert!(is_injected(&from_other_thread.unwrap_err()), "any thread can trip");
        assert!(!global_armed(), "tripping disarms");
        assert!(hit("g:point").is_ok());
        assert!(global_hits() >= 3);
        reset_global();
        assert_eq!(global_hits(), 0);
    }

    #[test]
    fn spec_parsing_arms_point_and_skip() {
        let _slot = GLOBAL_SLOT.lock();
        reset_global();
        assert_eq!(arm_global_from_spec("read:load@2"), Some(("read:load".to_string(), 2)));
        assert!(global_armed());
        assert_eq!(arm_global_from_spec("read:load"), Some(("read:load".to_string(), 0)));
        assert_eq!(arm_global_from_spec(""), None);
        assert_eq!(arm_global_from_spec("x@notanumber"), None);
        reset_global();
    }

    #[test]
    fn real_io_errors_are_not_injected() {
        let real = GraphError::Io(std::io::Error::other("disk on fire"));
        assert!(!is_injected(&real));
        assert!(!is_injected(&GraphError::Format("x".into())));
    }
}
