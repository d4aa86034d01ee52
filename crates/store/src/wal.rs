//! The delta store's **write-ahead log**: group-commit durability in
//! front of delta-segment publication.
//!
//! A publish used to be durable only once every delta segment, the
//! generation manifest, and the `CURRENT` flip had individually synced —
//! a crash anywhere before the flip silently dropped the batch. The WAL
//! moves the durability point to **one** append + fsync at the front of
//! the publish: once [`Wal::append_group`] returns, the batch survives
//! any crash, because [`Wal::open`] replays committed-but-unpublished
//! entries into a fresh generation (see `DeltaWriter::open`).
//!
//! ## File format (`wal.log`)
//!
//! ```text
//! header   : magic "GMWAL001"                                  (8 bytes)
//! frame    : len u32 | crc32 u32 | payload                     (repeated)
//! payload  : seq u64 | target_gen u64 | count u32 | pad u32
//!            | count × DeltaRecord (16 bytes each)
//! ```
//!
//! All fields little-endian. The frame is `graphm_graph::records`' CRC
//! envelope and the records are its `DeltaRecord` list; this module owns
//! the 24-byte payload header. A frame is **committed** iff its
//! full `len` bytes are present and the checksum matches — replay stops
//! at the first frame that isn't (torn tail from a crashed append, or a
//! corrupted record) and truncates the file back to the last committed
//! frame, so the log never re-reports garbage. There is deliberately no
//! per-frame sync flag: group commit batches any number of frames ahead
//! of a single `fdatasync`.
//!
//! ## Checkpointing
//!
//! After a generation flip lands durably, the whole log is superseded
//! (the generation manifest + segments now carry the data), so
//! [`Wal::reset`] truncates it back to the header. Replay tolerates the
//! crash window between flip and reset by dropping entries whose
//! `target_gen` is already ≤ `CURRENT`.

use graphm_graph::delta::DeltaRecord;
pub use graphm_graph::records::crc32;
use graphm_graph::records::{self, Cursor};
use graphm_graph::{failpoint, GraphError, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening the write-ahead log.
pub const WAL_MAGIC: &[u8; 8] = b"GMWAL001";

/// Name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// One committed WAL entry: a mutation batch bound for `target_gen`.
#[derive(Clone, Debug, PartialEq)]
pub struct WalBatch {
    /// Monotone sequence number (order of append).
    pub seq: u64,
    /// The generation this batch was being published as when appended.
    pub target_gen: u64,
    /// The mutations, in application order.
    pub records: Vec<DeltaRecord>,
}

/// Cumulative WAL counters (since open).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Mutation records appended.
    pub records: u64,
    /// Batches (frames) appended.
    pub batches: u64,
    /// fsyncs issued — the group-commit win is `batches / syncs > 1`.
    pub syncs: u64,
    /// Frame bytes appended.
    pub bytes: u64,
    /// Batches replayed at open (committed by a crashed writer).
    pub replayed_batches: u64,
    /// Torn/corrupt tail bytes truncated at open.
    pub truncated_bytes: u64,
}

/// Appends one frame (envelope + payload) for a batch to `out`.
fn encode_frame(seq: u64, target_gen: u64, batch: &[DeltaRecord], out: &mut Vec<u8>) {
    records::seal(out, |payload| {
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.extend_from_slice(&target_gen.to_le_bytes());
        payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        payload.extend_from_slice(&[0u8; 4]); // pad
        records::encode(batch, payload);
    });
}

/// Decodes one frame payload. Any violation of its layout — short
/// header, a body that is not whole records, a count that disagrees with
/// the body, an unknown op — is an error.
fn decode_payload(payload: &[u8]) -> Result<WalBatch> {
    let mut r = Cursor::new(payload, "wal frame");
    let (seq, target_gen, count) = (r.u64("seq")?, r.u64("target_gen")?, r.u32("count")?);
    r.u32("pad")?;
    let records = records::decode::<DeltaRecord>(r.rest(), "wal frame")?;
    if records.len() != count as usize {
        return Err(r.malformed(format_args!("says {count} records, holds {}", records.len())));
    }
    Ok(WalBatch { seq, target_gen, records })
}

/// Decodes the committed prefix of a WAL byte image (everything after
/// the magic): returns the committed batches plus the byte length of the
/// valid prefix *including* the header. Never panics — any framing
/// violation (short header, truncated payload, checksum mismatch,
/// inconsistent count, unknown op) ends the committed prefix at the
/// frame's start.
pub fn replay_wal_bytes(bytes: &[u8]) -> (Vec<WalBatch>, usize) {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return (Vec::new(), 0);
    }
    let mut batches = Vec::new();
    let mut rest = &bytes[WAL_MAGIC.len()..];
    while let Ok((payload, after)) = records::open(rest, "wal frame") {
        let Ok(batch) = decode_payload(payload) else { break };
        batches.push(batch);
        rest = after;
    }
    (batches, bytes.len() - rest.len())
}

/// The open write-ahead log of one store directory. One per
/// `DeltaWriter`; the writer lease is what makes that exclusive.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    stats: WalStats,
}

impl Wal {
    /// Opens (or creates) `dir/wal.log`, replays its committed entries,
    /// and truncates any torn/corrupt tail so the next append lands on a
    /// clean frame boundary. Returns the log positioned at its end plus
    /// the committed batches in append order — the caller decides which
    /// are already published (by `target_gen` vs `CURRENT`) and replays
    /// the rest.
    pub fn open(dir: &Path) -> Result<(Wal, Vec<WalBatch>)> {
        let path = dir.join(WAL_FILE);
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut stats = WalStats::default();
        let (batches, valid_len) = if bytes.is_empty() {
            // Fresh log: write the header now so every later append is
            // pure frame bytes.
            file.write_all(WAL_MAGIC)?;
            file.sync_data()?;
            (Vec::new(), WAL_MAGIC.len())
        } else {
            let (batches, valid_len) = replay_wal_bytes(&bytes);
            if valid_len == 0 {
                return Err(GraphError::Format(format!(
                    "{}: bad write-ahead log magic",
                    path.display()
                )));
            }
            (batches, valid_len)
        };
        if valid_len < bytes.len() {
            stats.truncated_bytes = (bytes.len() - valid_len) as u64;
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))?;
        let next_seq = batches.last().map(|b| b.seq + 1).unwrap_or(0);
        Ok((Wal { file, path, next_seq, stats }, batches))
    }

    /// Appends a *commit group* — any number of batches — with a single
    /// fsync. This is the durability point of a publish: once this
    /// returns, every batch in the group survives a crash. Returns the
    /// sequence number of the first batch.
    pub fn append_group(&mut self, target_gen: u64, batches: &[&[DeltaRecord]]) -> Result<u64> {
        let first_seq = self.next_seq;
        let mut buf = Vec::new();
        for records in batches {
            encode_frame(self.next_seq, target_gen, records, &mut buf);
            self.next_seq += 1;
            self.stats.batches += 1;
            self.stats.records += records.len() as u64;
        }
        self.file.write_all(&buf)?;
        self.stats.bytes += buf.len() as u64;
        failpoint::hit("wal.frame.written")?;
        // The one fsync the whole group shares.
        self.file.sync_data()?;
        self.stats.syncs += 1;
        failpoint::hit("wal.synced")?;
        Ok(first_seq)
    }

    /// Appends one batch (a group of one).
    pub fn append(&mut self, target_gen: u64, records: &[DeltaRecord]) -> Result<u64> {
        self.append_group(target_gen, &[records])
    }

    /// Checkpoints the log: truncates back to the bare header. Call only
    /// after the generation consuming the logged batches has durably
    /// flipped `CURRENT` — a crash in between is safe because replay
    /// drops entries whose `target_gen` is already current.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        failpoint::hit("wal.reset.truncated")?;
        self.file.sync_data()?;
        failpoint::hit("wal.reset.synced")?;
        Ok(())
    }

    /// Counters since open (plus what open itself replayed/truncated).
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Records `n` batches as replayed at open (bookkeeping for stats;
    /// called by the recovering writer).
    pub fn note_replayed(&mut self, n: u64) {
        self.stats.replayed_batches += n;
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("graphm-wal-test-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_replay_round_trip_and_reset() {
        let dir = tmpdir("roundtrip");
        let (mut wal, replayed) = Wal::open(&dir).unwrap();
        assert!(replayed.is_empty());
        let a = vec![DeltaRecord::insert(1, 2, 0.5), DeltaRecord::delete(3, 4)];
        let b = vec![DeltaRecord::insert(5, 6, -1.0)];
        assert_eq!(wal.append_group(7, &[&a, &b]).unwrap(), 0);
        assert_eq!(wal.append(8, &[]).unwrap(), 2, "empty batches frame fine");
        let stats = wal.stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.records, 3);
        assert_eq!(stats.syncs, 2, "the group shared one fsync");
        drop(wal);

        let (mut wal, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0], WalBatch { seq: 0, target_gen: 7, records: a });
        assert_eq!(replayed[1], WalBatch { seq: 1, target_gen: 7, records: b });
        assert_eq!(replayed[2].records.len(), 0);
        assert_eq!(wal.append(9, &[DeltaRecord::insert(0, 1, 1.0)]).unwrap(), 3, "seq resumes");

        wal.reset().unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert!(replayed.is_empty(), "reset checkpoints the log");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_truncates_torn_tail() {
        let dir = tmpdir("torn");
        let (mut wal, _) = Wal::open(&dir).unwrap();
        wal.append(1, &[DeltaRecord::insert(1, 2, 1.0)]).unwrap();
        wal.append(2, &[DeltaRecord::insert(3, 4, 1.0), DeltaRecord::delete(1, 2)]).unwrap();
        drop(wal);
        let path = dir.join(WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        // Tear the last frame mid-payload.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (wal, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.len(), 1, "only the committed prefix survives");
        assert!(wal.stats().truncated_bytes > 0);
        drop(wal);
        // The truncation is persistent and the file is frame-aligned again.
        let (mut wal, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(wal.stats().truncated_bytes, 0);
        wal.append(2, &[DeltaRecord::insert(9, 9, 9.0)]).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&dir).unwrap();
        assert_eq!(replayed.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_bad_magic() {
        let dir = tmpdir("magic");
        std::fs::write(dir.join(WAL_FILE), b"NOTMAGIC").unwrap();
        assert!(matches!(Wal::open(&dir).unwrap_err(), GraphError::Format(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Builds a deterministic record from an opaque u64 (so property
    /// cases cover inserts, deletes, weights, and vertex ids).
    fn record_from_seed(x: u64) -> DeltaRecord {
        let src = (x >> 32) as u32 & 0xffff;
        let dst = (x >> 16) as u32 & 0xffff;
        if x & 1 == 0 {
            DeltaRecord::insert(src, dst, (x & 0xff) as f32 * 0.25)
        } else {
            DeltaRecord::delete(src, dst)
        }
    }

    proptest! {
        /// Arbitrary batch sequences round-trip bit-exactly through
        /// append_group + replay.
        #[test]
        fn prop_wal_round_trips(seeds in proptest::collection::vec(any::<u64>(), 0..40),
                                splits in 1usize..6) {
            let dir = tmpdir(&format!("prop-rt-{splits}-{}", seeds.len()));
            let records: Vec<DeltaRecord> = seeds.iter().map(|&s| record_from_seed(s)).collect();
            let chunks: Vec<&[DeltaRecord]> =
                records.chunks(splits).collect::<Vec<_>>();
            let (mut wal, _) = Wal::open(&dir).unwrap();
            if !chunks.is_empty() {
                wal.append_group(3, &chunks).unwrap();
            }
            drop(wal);
            let (_, replayed) = Wal::open(&dir).unwrap();
            let back: Vec<DeltaRecord> =
                replayed.iter().flat_map(|b| b.records.iter().copied()).collect();
            prop_assert_eq!(back.len(), records.len());
            for (a, b) in back.iter().zip(&records) {
                prop_assert_eq!((a.src, a.dst, a.op), (b.src, b.dst, b.op));
                prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
            for (i, b) in replayed.iter().enumerate() {
                prop_assert_eq!(b.seq, i as u64);
                prop_assert_eq!(b.target_gen, 3);
            }
            std::fs::remove_dir_all(&dir).ok();
        }

        /// Truncating the image at any byte yields a clean prefix replay:
        /// some leading whole batches, never a panic or partial batch.
        #[test]
        fn prop_wal_truncation_yields_clean_prefix(
            seeds in proptest::collection::vec(any::<u64>(), 1..30),
            cut_seed in any::<u64>(),
        ) {
            let dir = tmpdir(&format!("prop-cut-{}", seeds.len()));
            let batches: Vec<Vec<DeltaRecord>> =
                seeds.chunks(3).map(|c| c.iter().map(|&s| record_from_seed(s)).collect()).collect();
            let refs: Vec<&[DeltaRecord]> = batches.iter().map(|b| b.as_slice()).collect();
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append_group(1, &refs).unwrap();
            drop(wal);
            let full = std::fs::read(dir.join(WAL_FILE)).unwrap();
            let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
            let (replayed, valid) = replay_wal_bytes(&full[..cut]);
            prop_assert!(valid <= cut);
            // Every replayed batch is a bit-exact whole input batch, in
            // order from the front.
            prop_assert!(replayed.len() <= batches.len());
            for (got, want) in replayed.iter().zip(&batches) {
                prop_assert_eq!(&got.records, want);
            }
            // And an uncut image replays everything.
            let (all, valid_all) = replay_wal_bytes(&full);
            prop_assert_eq!(all.len(), batches.len());
            prop_assert_eq!(valid_all, full.len());
            std::fs::remove_dir_all(&dir).ok();
        }

        /// Flipping any single byte never panics, and replay still yields
        /// a prefix of the original batches (the corrupted frame and
        /// everything after it drop out).
        #[test]
        fn prop_wal_corruption_yields_clean_prefix(
            seeds in proptest::collection::vec(any::<u64>(), 1..30),
            flip_seed in any::<u64>(),
        ) {
            let dir = tmpdir(&format!("prop-flip-{}", seeds.len()));
            let batches: Vec<Vec<DeltaRecord>> =
                seeds.chunks(4).map(|c| c.iter().map(|&s| record_from_seed(s)).collect()).collect();
            let refs: Vec<&[DeltaRecord]> = batches.iter().map(|b| b.as_slice()).collect();
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.append_group(1, &refs).unwrap();
            drop(wal);
            let mut bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
            let at = (flip_seed % bytes.len() as u64) as usize;
            bytes[at] ^= 0x40;
            let (replayed, valid) = replay_wal_bytes(&bytes);
            prop_assert!(valid <= bytes.len());
            prop_assert!(replayed.len() <= batches.len());
            for (got, want) in replayed.iter().zip(&batches) {
                // A batch that replays must be untouched (the flipped
                // byte, wherever it landed, is past the valid prefix) —
                // unless the flip missed every replayed frame, in which
                // case all batches replay bit-exactly anyway. Both cases
                // reduce to: replayed batches match the originals.
                prop_assert_eq!(&got.records, want);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
