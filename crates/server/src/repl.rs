//! Replication bookkeeping shared by both daemon roles.
//!
//! One [`ReplicationHub`] lives in every daemon. On a **primary** it is
//! the publish signal and the shipping ledger: `ingest_commit` calls
//! [`ReplicationHub::notify_published`] after each durable generation,
//! which wakes `repl_frames` long-polls, and the counters record frames
//! shipped, the followers' ack high-water, and the live subscriber
//! count. On a **follower** the same hub records the tailer's reconnect
//! attempts (the "retry storm" ledger surfaced by `repl_status`).
//!
//! The hub never holds frame payloads. Frames are rebuilt from the store
//! directory on demand (`graphm_store::read_generation_frame`), so live
//! shipping and anti-entropy catch-up after follower downtime are one
//! bit-exact code path, and a hub restart loses nothing but counters.
//!
//! Frames travel inside the NDJSON line protocol hex-encoded
//! ([`hex_encode`](crate::protocol::hex_encode) /
//! [`hex_decode`](crate::protocol::hex_decode), the codec report value
//! columns use too): no framing of its own — the binary frame carries its
//! own magic, length, and CRC (see `graphm_store::replica`).

use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Counter snapshot for `repl_status` / `stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct HubSnapshot {
    /// Highest generation announced via [`ReplicationHub::notify_published`].
    pub last_published: u64,
    /// The announcing writer's lease epoch (0 before any writer exists).
    pub epoch: u64,
    /// Frames encoded and sent in `repl_frames` responses.
    pub frames_shipped: u64,
    /// Generations followers have acknowledged (a `repl_frames` poll
    /// from generation `G` acks everything below `G`).
    pub frames_acked: u64,
    /// Highest generation any follower has acknowledged.
    pub acked_generation: u64,
    /// Live subscribed followers (connections that sent `repl_subscribe`).
    pub followers: u64,
    /// Follower-side tailer reconnect attempts since startup.
    pub reconnects: u64,
}

/// See the module docs. One per daemon, either role.
pub struct ReplicationHub {
    state: Mutex<HubSnapshot>,
    cv: Condvar,
}

impl ReplicationHub {
    /// A hub that has observed `generation` as the latest published
    /// generation under `epoch`.
    pub fn new(generation: u64, epoch: u64) -> ReplicationHub {
        ReplicationHub {
            state: Mutex::new(HubSnapshot {
                last_published: generation,
                epoch,
                ..HubSnapshot::default()
            }),
            cv: Condvar::new(),
        }
    }

    /// Announces a durably published generation and wakes long-polls.
    /// Monotone: stale announcements (concurrent group commits racing to
    /// report) never move the high-water backwards.
    pub fn notify_published(&self, generation: u64) {
        let mut st = self.state.lock();
        if generation > st.last_published {
            st.last_published = generation;
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Records the current writer epoch (startup and promotion).
    pub fn set_epoch(&self, epoch: u64) {
        self.state.lock().epoch = epoch;
    }

    /// Blocks until a generation `>= from` has been announced or
    /// `timeout` elapses; returns the announced high-water either way.
    /// Callers long-polling on behalf of a connection should keep the
    /// timeout short and re-check shutdown between calls.
    pub fn wait_published(&self, from: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        while st.last_published < from {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.cv.wait_for(&mut st, deadline - now);
        }
        st.last_published
    }

    /// A connection subscribed (`repl_subscribe`).
    pub fn subscriber_joined(&self) {
        self.state.lock().followers += 1;
    }

    /// A subscribed connection went away.
    pub fn subscriber_left(&self) {
        let mut st = self.state.lock();
        st.followers = st.followers.saturating_sub(1);
    }

    /// `n` frames were encoded into a `repl_frames` response.
    pub fn note_shipped(&self, n: u64) {
        self.state.lock().frames_shipped += n;
    }

    /// A follower polled from `upto + 1`, acknowledging everything
    /// through `upto`. Only advances the high-water (a freshly
    /// reconnected follower re-polling old generations is not an ack
    /// regression).
    pub fn note_acked(&self, upto: u64) {
        let mut st = self.state.lock();
        if upto > st.acked_generation {
            st.frames_acked += upto - st.acked_generation;
            st.acked_generation = upto;
        }
    }

    /// Follower-side: the tailer is about to retry after a failure.
    /// Returns the cumulative attempt count for capped logging.
    pub fn note_reconnect(&self) -> u64 {
        let mut st = self.state.lock();
        st.reconnects += 1;
        st.reconnects
    }

    /// Point-in-time counters.
    pub fn snapshot(&self) -> HubSnapshot {
        *self.state.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_tracks_publish_acks_and_followers() {
        let hub = ReplicationHub::new(3, 7);
        assert_eq!(hub.wait_published(3, Duration::from_millis(1)), 3);
        // A timeout poll for a future generation returns the high-water.
        assert_eq!(hub.wait_published(4, Duration::from_millis(5)), 3);
        hub.notify_published(5);
        hub.notify_published(4); // stale announcement: no regression
        assert_eq!(hub.wait_published(4, Duration::from_millis(1)), 5);
        hub.subscriber_joined();
        hub.note_shipped(2);
        hub.note_acked(4);
        hub.note_acked(2); // re-poll of old generations: no regression
        hub.note_acked(5);
        assert_eq!(hub.note_reconnect(), 1);
        let snap = hub.snapshot();
        assert_eq!(snap.last_published, 5);
        assert_eq!(snap.epoch, 7);
        assert_eq!(snap.followers, 1);
        assert_eq!(snap.frames_shipped, 2);
        assert_eq!(snap.frames_acked, 5);
        assert_eq!(snap.acked_generation, 5);
        assert_eq!(snap.reconnects, 1);
        hub.subscriber_left();
        assert_eq!(hub.snapshot().followers, 0);
    }

    #[test]
    fn wait_published_wakes_on_notify() {
        use std::sync::Arc;
        let hub = Arc::new(ReplicationHub::new(0, 1));
        let waiter = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || hub.wait_published(1, Duration::from_secs(10)))
        };
        std::thread::sleep(Duration::from_millis(20));
        hub.notify_published(1);
        assert_eq!(waiter.join().unwrap(), 1);
    }
}
