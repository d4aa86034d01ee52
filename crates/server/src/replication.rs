//! Hot-standby replication over the [`ReplicationHub`](crate::repl)
//! ledger: the primary-side `repl_*` verbs that ship committed
//! generations as frames, `promote`, and the follower's tailer thread.
//!
//! A follower's tailer subscribes to the named primary, replays shipped
//! frames through a [`graphm_store::ReplicaApplier`] into its own store
//! directory, and the daemon serves read-only jobs on the replicated
//! generations until `promote` takes it through the store's epoch fence.

use crate::client::{retry_delay, Client, ClientError};
use crate::ingest::IngestCoordinator;
use crate::protocol::{error_response, hex_encode};
use crate::state::Shared;
use graphm_graph::delta::read_current_generation;
use graphm_store::{decode_frame, read_generation_frame};
use serde_json::{json, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long one `repl_frames` request may wait for a fresh publish
/// before answering with an empty frame list. Followers poll with a
/// read timeout comfortably above this (see [`REPL_READ_TIMEOUT`]).
const REPL_LONG_POLL: Duration = Duration::from_millis(750);

/// Follower tailer's socket read timeout, so a primary that dies
/// without an RST surfaces as an `Io` error instead of a hung tailer.
const REPL_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Backoff exponent cap for follower reconnects: caps the retry storm
/// at `repl_backoff * 2^6` per attempt (attempts are counted and
/// surfaced by `repl_status`).
const REPL_MAX_BACKOFF_EXP: u32 = 6;

/// Registers this connection as a follower and reports the publish
/// high-water so the subscriber can size its catch-up.
pub(crate) fn repl_subscribe(
    shared: &Shared,
    subscribed: &mut bool,
    from_generation: u64,
) -> Value {
    if !*subscribed {
        *subscribed = true;
        shared.hub.subscriber_joined();
    }
    shared.hub.note_acked(from_generation.saturating_sub(1));
    let current = current_generation(shared);
    shared.hub.notify_published(current);
    json!({ "ok": true, "generation": current, "epoch": shared.current_epoch() })
}

/// The store's durably committed generation, read fresh from `CURRENT`
/// so frames ship even when the publisher is an external process the
/// hub never hears from.
fn current_generation(shared: &Shared) -> u64 {
    read_current_generation(&shared.config.store_dir).unwrap_or(0)
}

/// Ships up to `max` frames starting at `from_generation`, rebuilding
/// each from the committed on-disk generation (manifest + delta
/// segments) — the same path whether the follower is live-tailing or
/// catching up after downtime. Long-polls briefly when the follower is
/// already caught up, so tailing costs one request per publish, not a
/// busy loop.
pub(crate) fn repl_frames(shared: &Shared, from_generation: u64, max: u64) -> Value {
    if from_generation == 0 {
        return error_response(
            "from_generation must be >= 1 (generation 0 is the base store; seed followers \
             by copying it)",
        );
    }
    shared.hub.note_acked(from_generation - 1);
    let epoch = shared.current_epoch();
    // Long-poll: wait for a publish notification, then confirm against
    // CURRENT (covers external writers, which never notify the hub).
    let deadline = Instant::now() + REPL_LONG_POLL;
    let mut current = current_generation(shared);
    while current < from_generation && !shared.is_shutting_down() && Instant::now() < deadline {
        shared.hub.wait_published(from_generation, Duration::from_millis(50));
        current = current_generation(shared);
    }
    shared.hub.notify_published(current);
    let mut frames = Vec::new();
    let mut gen = from_generation;
    while gen <= current && (frames.len() as u64) < max.max(1) {
        match read_generation_frame(&shared.config.store_dir, gen, epoch) {
            Ok(frame) => {
                frames.push(Value::String(hex_encode(&graphm_store::encode_frame(&frame))))
            }
            Err(e) => {
                // A retired or unreadable generation cannot be shipped;
                // the follower must re-seed from a store copy.
                return error_response(&format!("cannot ship generation {gen}: {e}"));
            }
        }
        gen += 1;
    }
    shared.hub.note_shipped(frames.len() as u64);
    json!({ "ok": true, "generation": current, "epoch": epoch, "frames": frames })
}

/// The replication ledger for `repl_status`.
pub(crate) fn repl_status_json(shared: &Shared) -> Value {
    let hub = shared.hub.snapshot();
    let follower = shared.is_follower();
    json!({
        "role": if follower { "follower" } else { "primary" },
        "peer": if follower { shared.peer() } else { "" },
        "generation": shared.applied_gen.load(Ordering::SeqCst),
        "primary_generation": shared.primary_gen_seen.load(Ordering::SeqCst),
        "replica_lag_generations": if follower { shared.replica_lag() } else { 0 },
        "epoch": shared.current_epoch(),
        "frames_shipped": hub.frames_shipped,
        "frames_acked": hub.frames_acked,
        "acked_generation": hub.acked_generation,
        "followers": hub.followers,
        "reconnects": hub.reconnects,
    })
}

/// Promotes a follower to primary: takes the applier, reopens the
/// store's writer through the epoch fence (`epoch + 1` — the fenced
/// ex-primary's next publish fails with `EpochFenced`), and installs a
/// fresh ingest coordinator so mutation verbs start landing here.
pub(crate) fn promote(shared: &Shared) -> Value {
    if !shared.is_follower() {
        return error_response("already primary");
    }
    let taken = shared.applier.lock().take();
    let Some(applier) = taken else {
        return error_response("promotion already in flight");
    };
    match applier.promote() {
        Ok(writer) => {
            let epoch = writer.lease_epoch();
            let generation = writer.generation();
            *shared.ingest.lock() = Some(Arc::new(IngestCoordinator::new(writer)));
            shared.role_follower.store(false, Ordering::SeqCst);
            shared.hub.set_epoch(epoch);
            shared.hub.notify_published(generation);
            shared.primary_gen_seen.store(generation, Ordering::SeqCst);
            shared.applied_gen.store(generation, Ordering::SeqCst);
            eprintln!("[graphm-server] promoted to primary at lease epoch {epoch}");
            json!({ "ok": true, "role": "primary", "epoch": epoch })
        }
        // The applier was consumed: this follower can no longer tail and
        // needs an operator restart. Failing loudly beats a half-role.
        Err(e) => error_response(&format!("promotion failed (restart this follower): {e}")),
    }
}

/// Shutdown-aware sleep in small slices, so a follower deep in reconnect
/// backoff still joins a shutdown promptly.
fn sleep_interruptible(shared: &Shared, total: Duration) {
    let deadline = Instant::now() + total;
    loop {
        let now = Instant::now();
        if now >= deadline || shared.is_shutting_down() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25).min(deadline - now));
    }
}

/// The follower's tailer thread: tail sessions against the primary,
/// reconnected with the client's full-jitter exponential backoff
/// (exponent capped at [`REPL_MAX_BACKOFF_EXP`]; every attempt lands in
/// `repl_status.reconnects`, so a retry storm is visible, bounded, and
/// log-rate-limited). Exits on shutdown or promotion.
pub(crate) fn follower_tail_loop(
    shared: &Shared,
    peer: &str,
    token: Option<&str>,
    backoff_ms: u64,
) {
    let mut rng = 0x5bd1_e995 ^ u64::from(std::process::id());
    let mut attempt = 0u32;
    while !shared.is_shutting_down() && shared.is_follower() {
        match tail_once(shared, peer, token) {
            Ok(()) => return, // shutdown or promotion ended the tail cleanly
            Err(e) => {
                if shared.is_shutting_down() || !shared.is_follower() {
                    return;
                }
                let total = shared.hub.note_reconnect();
                let delay = retry_delay(backoff_ms, attempt.min(REPL_MAX_BACKOFF_EXP), &mut rng);
                // First few attempts verbosely, then every 16th: a dead
                // primary at the backoff cap must not flood the log.
                if total <= 4 || total.is_multiple_of(16) {
                    eprintln!(
                        "[graphm-server] replication tail to {peer} failed ({e}); \
                         reconnect attempt {total} in {}ms",
                        delay.as_millis()
                    );
                }
                attempt = attempt.saturating_add(1);
                sleep_interruptible(shared, delay);
            }
        }
    }
}

/// One tail session: subscribe at our next generation, long-poll frames,
/// and apply them in order through the store's publish path. Any failure
/// — transport, a corrupt frame, an injected apply fault — returns `Err`
/// and the caller reconnects with backoff; the applier's own atomicity
/// guarantees the store is at a publish boundary either way.
fn tail_once(shared: &Shared, peer: &str, token: Option<&str>) -> std::result::Result<(), String> {
    let mut client = Client::connect_tcp_with_timeout(peer, REPL_READ_TIMEOUT)
        .map_err(|e| format!("connect: {e}"))?;
    if let Some(token) = token {
        client.auth(token).map_err(|e| format!("auth: {e}"))?;
    }
    let from = shared.applied_gen.load(Ordering::SeqCst) + 1;
    let (pgen, _epoch) = client.repl_subscribe(from).map_err(|e| format!("subscribe: {e}"))?;
    shared.primary_gen_seen.fetch_max(pgen, Ordering::SeqCst);
    loop {
        if shared.is_shutting_down() || !shared.is_follower() {
            return Ok(());
        }
        let next = shared.applied_gen.load(Ordering::SeqCst) + 1;
        let (pgen, frames) = match client.repl_frames(next, 16) {
            Ok(r) => r,
            Err(ClientError::NotPrimary(m)) => return Err(format!("peer is not primary: {m}")),
            Err(e) => return Err(format!("poll: {e}")),
        };
        shared.primary_gen_seen.fetch_max(pgen, Ordering::SeqCst);
        for raw in frames {
            let frame = decode_frame(&raw).map_err(|e| format!("frame decode: {e}"))?;
            let mut guard = shared.applier.lock();
            let Some(applier) = guard.as_mut() else {
                return Ok(()); // promotion took the applier mid-batch
            };
            applier
                .apply(&frame)
                .map_err(|e| format!("apply generation {}: {e}", frame.generation))?;
            let applied = applier.generation();
            drop(guard);
            shared.applied_gen.fetch_max(applied, Ordering::SeqCst);
        }
    }
}
