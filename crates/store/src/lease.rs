//! The **writer lease**: exclusive, epoch-fenced write access to a store
//! directory.
//!
//! The delta store is single-writer by contract, but nothing used to
//! *enforce* it — two `DeltaWriter`s on one directory would silently
//! interleave generations. The lease makes the contract mechanical:
//!
//! * **Exclusion** — an `EPOCH` file created with `O_EXCL`. While the
//!   holder's heartbeat is fresh, a second acquire fails with the typed
//!   [`GraphError::LeaseHeld`].
//! * **Liveness** — the holder re-stamps a heartbeat timestamp into the
//!   file (a publish heartbeats implicitly). A holder that crashes stops
//!   heartbeating; once the heartbeat is older than the TTL, a new writer
//!   may *take over* by bumping the epoch.
//! * **Fencing** — every `CURRENT` flip calls [`WriterLease::validate`]
//!   first. A holder whose epoch has been superseded gets
//!   [`GraphError::EpochFenced`] instead of corrupting the store; a
//!   holder whose file vanished gets [`GraphError::LeaseLost`].
//!
//! ## `EPOCH` file format (40 bytes, little-endian)
//!
//! ```text
//! magic "GMEPOCH1" | epoch u64 | pid u64 | heartbeat_unix_ms u64 | nonce u64
//! ```
//!
//! The nonce distinguishes two holders that happen to share an epoch
//! number (e.g. two racing takeovers): after writing the file, the
//! acquirer re-reads it and keeps the lease only if its own nonce came
//! back.

use graphm_graph::{GraphError, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Magic bytes opening the `EPOCH` file.
pub const EPOCH_MAGIC: &[u8; 8] = b"GMEPOCH1";

/// Name of the lease file inside a store directory.
pub const EPOCH_FILE: &str = "EPOCH";

/// Total size of the lease file.
pub const EPOCH_FILE_BYTES: usize = 40;

/// Tuning for lease acquisition.
#[derive(Clone, Copy, Debug)]
pub struct LeaseConfig {
    /// How stale a holder's heartbeat must be before another writer may
    /// take over. `Duration::ZERO` means *always* take over (used by
    /// recovery paths that know the previous holder is dead).
    pub ttl: Duration,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig { ttl: Duration::from_secs(30) }
    }
}

impl LeaseConfig {
    /// A config that unconditionally fences the previous holder —
    /// for recovering a store whose writer is known dead.
    pub fn force_takeover() -> Self {
        LeaseConfig { ttl: Duration::ZERO }
    }
}

/// The decoded contents of an `EPOCH` file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EpochRecord {
    epoch: u64,
    pid: u64,
    heartbeat_ms: u64,
    nonce: u64,
}

impl EpochRecord {
    fn encode(&self) -> [u8; EPOCH_FILE_BYTES] {
        let mut buf = [0u8; EPOCH_FILE_BYTES];
        buf[..8].copy_from_slice(EPOCH_MAGIC);
        buf[8..16].copy_from_slice(&self.epoch.to_le_bytes());
        buf[16..24].copy_from_slice(&self.pid.to_le_bytes());
        buf[24..32].copy_from_slice(&self.heartbeat_ms.to_le_bytes());
        buf[32..40].copy_from_slice(&self.nonce.to_le_bytes());
        buf
    }

    fn decode(path: &Path, bytes: &[u8]) -> Result<EpochRecord> {
        if bytes.len() != EPOCH_FILE_BYTES || &bytes[..8] != EPOCH_MAGIC {
            return Err(GraphError::Format(format!(
                "{}: bad EPOCH file ({} bytes)",
                path.display(),
                bytes.len()
            )));
        }
        Ok(EpochRecord {
            epoch: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            pid: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
            heartbeat_ms: u64::from_le_bytes(bytes[24..32].try_into().unwrap()),
            nonce: u64::from_le_bytes(bytes[32..40].try_into().unwrap()),
        })
    }
}

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// A cheap process-local nonce: wall-clock entropy mixed with the pid and
/// a per-process counter through SplitMix64. Uniqueness only needs to
/// hold across the handful of writers that ever race for one store.
fn fresh_nonce() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut z = now_ms()
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(std::process::id() as u64)
        .wrapping_add(COUNTER.fetch_add(1, Ordering::Relaxed) << 32);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn write_epoch_file(dir: &Path, rec: &EpochRecord) -> Result<()> {
    // tmp + rename so a reader never sees a half-written lease.
    let tmp = dir.join("EPOCH.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&rec.encode())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(EPOCH_FILE))?;
    if let Ok(d) = File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

pub(crate) fn read_epoch_file(dir: &Path) -> Result<Option<EpochRecord>> {
    let path = dir.join(EPOCH_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
            Ok(Some(EpochRecord::decode(&path, &bytes)?))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// A held writer lease on one store directory. Dropping the lease
/// releases it (removes `EPOCH` if still ours); a crashed holder instead
/// leaves the file behind for TTL-based takeover.
#[derive(Debug)]
pub struct WriterLease {
    dir: PathBuf,
    epoch: u64,
    nonce: u64,
    released: bool,
}

impl WriterLease {
    /// Acquires the lease on `dir`.
    ///
    /// * No `EPOCH` file → creates it with `O_EXCL` at epoch 1.
    /// * File held with a fresh heartbeat → [`GraphError::LeaseHeld`].
    /// * File held but heartbeat older than `config.ttl` → *takeover*:
    ///   writes epoch + 1 with a new nonce, then re-reads to confirm this
    ///   acquirer won any takeover race.
    pub fn acquire(dir: &Path, config: LeaseConfig) -> Result<WriterLease> {
        let nonce = fresh_nonce();
        let rec = match read_epoch_file(dir)? {
            None => {
                let rec = EpochRecord {
                    epoch: 1,
                    pid: std::process::id() as u64,
                    heartbeat_ms: now_ms(),
                    nonce,
                };
                // O_EXCL: exactly one concurrent creator wins.
                match OpenOptions::new().write(true).create_new(true).open(dir.join(EPOCH_FILE)) {
                    Ok(mut f) => {
                        f.write_all(&rec.encode())?;
                        f.sync_all()?;
                        if let Ok(d) = File::open(dir) {
                            d.sync_all().ok();
                        }
                        rec
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                        return Err(GraphError::LeaseHeld {
                            holder: "another writer created the lease concurrently".to_string(),
                        });
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            Some(prev) => {
                let age_ms = now_ms().saturating_sub(prev.heartbeat_ms);
                if Duration::from_millis(age_ms) < config.ttl {
                    return Err(GraphError::LeaseHeld {
                        holder: format!(
                            "epoch {} pid {} (heartbeat {age_ms} ms ago, ttl {} ms)",
                            prev.epoch,
                            prev.pid,
                            config.ttl.as_millis()
                        ),
                    });
                }
                // Stale: fence the old holder by bumping the epoch.
                let rec = EpochRecord {
                    epoch: prev.epoch + 1,
                    pid: std::process::id() as u64,
                    heartbeat_ms: now_ms(),
                    nonce,
                };
                write_epoch_file(dir, &rec)?;
                // Confirm we won any racing takeover: our nonce must have
                // survived the rename.
                match read_epoch_file(dir)? {
                    Some(cur) if cur.nonce == nonce => rec,
                    Some(cur) => {
                        return Err(GraphError::LeaseHeld {
                            holder: format!(
                                "lost takeover race to epoch {} pid {}",
                                cur.epoch, cur.pid
                            ),
                        });
                    }
                    None => {
                        return Err(GraphError::LeaseLost {
                            what: "EPOCH file vanished during takeover".to_string(),
                        });
                    }
                }
            }
        };
        Ok(WriterLease { dir: dir.to_path_buf(), epoch: rec.epoch, nonce, released: false })
    }

    /// The epoch this lease holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-stamps the heartbeat, proving liveness. Fails with the fencing
    /// errors if the lease changed hands.
    pub fn heartbeat(&self) -> Result<()> {
        self.validate()?;
        write_epoch_file(
            &self.dir,
            &EpochRecord {
                epoch: self.epoch,
                pid: std::process::id() as u64,
                heartbeat_ms: now_ms(),
                nonce: self.nonce,
            },
        )
    }

    /// Checks that this lease is still the store's current writer. Called
    /// before every `CURRENT` flip — the fence that turns a concurrent-
    /// writer race into a typed error instead of interleaved generations.
    pub fn validate(&self) -> Result<()> {
        match read_epoch_file(&self.dir)? {
            Some(cur) if cur.epoch == self.epoch && cur.nonce == self.nonce => Ok(()),
            Some(cur) if cur.epoch > self.epoch => {
                Err(GraphError::EpochFenced { held: self.epoch, current: cur.epoch })
            }
            Some(cur) => Err(GraphError::LeaseLost {
                what: format!(
                    "EPOCH file rewritten (epoch {} nonce {:#x}, ours {:#x})",
                    cur.epoch, cur.nonce, self.nonce
                ),
            }),
            None => Err(GraphError::LeaseLost { what: "EPOCH file removed".to_string() }),
        }
    }

    /// Leaks the lease *without* releasing it, simulating a holder that
    /// crashed: the `EPOCH` file stays on disk and blocks fresh acquires
    /// until the TTL expires (or a `force_takeover` recovery).
    pub fn abandon(mut self) {
        self.released = true;
    }
}

impl Drop for WriterLease {
    fn drop(&mut self) {
        if self.released {
            return;
        }
        // Release only if the file is still ours — never clobber a
        // successor's lease.
        if let Ok(Some(cur)) = read_epoch_file(&self.dir) {
            if cur.epoch == self.epoch && cur.nonce == self.nonce {
                std::fs::remove_file(self.dir.join(EPOCH_FILE)).ok();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphm-lease-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn second_acquire_fails_while_held() {
        let dir = tmpdir("exclusive");
        let lease = WriterLease::acquire(&dir, LeaseConfig::default()).unwrap();
        assert_eq!(lease.epoch(), 1);
        let err = WriterLease::acquire(&dir, LeaseConfig::default()).unwrap_err();
        assert!(matches!(err, GraphError::LeaseHeld { .. }), "{err}");
        drop(lease);
        // Released: a fresh acquire starts over at epoch 1.
        let lease = WriterLease::acquire(&dir, LeaseConfig::default()).unwrap();
        assert_eq!(lease.epoch(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lease_is_taken_over_with_bumped_epoch() {
        let dir = tmpdir("takeover");
        let lease = WriterLease::acquire(&dir, LeaseConfig::default()).unwrap();
        lease.abandon(); // crash: EPOCH stays behind
        let err = WriterLease::acquire(&dir, LeaseConfig::default()).unwrap_err();
        assert!(matches!(err, GraphError::LeaseHeld { .. }), "fresh heartbeat blocks: {err}");
        let lease2 = WriterLease::acquire(&dir, LeaseConfig::force_takeover()).unwrap();
        assert_eq!(lease2.epoch(), 2, "takeover fences by bumping the epoch");
        assert!(lease2.validate().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fenced_holder_sees_typed_errors() {
        let dir = tmpdir("fenced");
        let old = WriterLease::acquire(&dir, LeaseConfig::default()).unwrap();
        // A recovery takeover happens underneath the old holder.
        let new = WriterLease::acquire(&dir, LeaseConfig::force_takeover()).unwrap();
        let err = old.validate().unwrap_err();
        assert!(
            matches!(err, GraphError::EpochFenced { held: 1, current: 2 }),
            "old holder is fenced: {err}"
        );
        let err = old.heartbeat().unwrap_err();
        assert!(matches!(err, GraphError::EpochFenced { .. }), "{err}");
        assert!(new.validate().is_ok(), "new holder is unaffected");
        drop(old); // must NOT clobber the successor's lease
        assert!(new.validate().is_ok(), "fenced drop leaves the successor's file alone");
        drop(new);
        assert!(
            read_epoch_file(&dir).unwrap().is_none(),
            "the rightful holder's drop releases the lease"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lost_lease_is_detected() {
        let dir = tmpdir("lost");
        let lease = WriterLease::acquire(&dir, LeaseConfig::default()).unwrap();
        std::fs::remove_file(dir.join(EPOCH_FILE)).unwrap();
        let err = lease.validate().unwrap_err();
        assert!(matches!(err, GraphError::LeaseLost { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_keeps_lease_fresh() {
        let dir = tmpdir("heartbeat");
        let lease = WriterLease::acquire(&dir, LeaseConfig::default()).unwrap();
        lease.heartbeat().unwrap();
        assert!(lease.validate().is_ok());
        let rec = read_epoch_file(&dir).unwrap().unwrap();
        assert_eq!(rec.epoch, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_epoch_file_is_a_format_error() {
        let dir = tmpdir("corrupt");
        std::fs::write(dir.join(EPOCH_FILE), b"garbage").unwrap();
        let err = WriterLease::acquire(&dir, LeaseConfig::default()).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
