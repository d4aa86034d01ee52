//! Hot-standby **replication**: the frame codec followers and primaries
//! exchange, the generation-to-frame reader on the primary side, and the
//! [`ReplicaApplier`] that replays shipped frames into a follower's own
//! store directory.
//!
//! The replication unit is one **generation**: everything a single
//! `DeltaWriter::publish` (or compaction) made durable. A frame carries
//! the generation number, the primary's lease epoch, the frame kind
//! (delta publish vs compaction), and — for delta publishes — the
//! partition-major record stream of that generation. Because partition
//! routing is deterministic (`DeltaWriter::partition_of` uses the exact
//! arithmetic `Convert()` used) and the applier drives the records
//! through the *same* publish path the primary used, the follower's
//! delta segments, generation manifest, and `CURRENT` pointer come out
//! **byte-identical** to the primary's. Compactions replicate as a
//! zero-record `Compact` frame: the fold is a deterministic function of
//! the (identical) prior state, so mirroring the trigger mirrors the
//! bytes.
//!
//! Catch-up (anti-entropy) needs no separate log: the primary rebuilds
//! any retained generation's frame straight from its delta segments
//! ([`read_generation_frame`]), so a follower that reconnects after
//! downtime asks for `[have + 1, current]` and receives exactly the
//! frames it missed. Generations already retired by
//! `retire_older_generations` cannot be rebuilt — the primary reports a
//! typed error and the follower must re-seed from a fresh copy.
//!
//! Failure injection: [`ReplicaApplier::apply`] crosses the
//! `repl.apply` failpoint and [`read_generation_frame`] crosses
//! `repl.ship`, so chaos harnesses can kill either side of the stream at
//! the send/apply boundary in addition to every fsync/rename boundary
//! the underlying publish already exposes.

use crate::delta::{CompactionPolicy, DeltaWriter};
use crate::lease::LeaseConfig;
use graphm_graph::delta::{delta_file_name, read_delta_segment, DeltaRecord, GenManifest};
use graphm_graph::records::{self, Cursor};
use graphm_graph::{failpoint, GraphError, Result, VertexId};
use std::path::Path;

/// Magic bytes opening every replication frame.
pub const REPL_MAGIC: &[u8; 8] = b"GMREPL01";

/// Frame header: magic (8) + payload length (4) + payload CRC32 (4).
pub const REPL_FRAME_HEADER_BYTES: usize = 16;

/// Payload header: generation (8) + primary epoch (8) + kind (4) +
/// record count (4).
pub const REPL_PAYLOAD_HEADER_BYTES: usize = 24;

/// Frame kind tag: a delta publish carrying its record stream.
pub const REPL_KIND_DELTA: u32 = 0;

/// Frame kind tag: a compaction (no records; the follower re-runs the
/// deterministic fold).
pub const REPL_KIND_COMPACT: u32 = 1;

/// What one replication frame replicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A delta publish: apply the carried records and publish.
    Delta,
    /// A compaction: fold the current chains (deterministic, no records).
    Compact,
}

/// One shipped generation: the unit a follower applies atomically.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplFrame {
    /// The generation this frame produces when applied.
    pub generation: u64,
    /// The shipping primary's lease epoch (followers track the highest
    /// seen; promotion must exceed it).
    pub primary_epoch: u64,
    /// Delta publish or compaction.
    pub kind: FrameKind,
    /// Partition-major record stream of the publish (empty for
    /// compactions).
    pub records: Vec<DeltaRecord>,
}

/// Encodes a frame: the magic, then `graphm_graph::records`' CRC envelope
/// around `generation u64 | primary_epoch u64 | kind u32 | count u32 |
/// count × DeltaRecord`, all little-endian.
pub fn encode_frame(frame: &ReplFrame) -> Vec<u8> {
    let mut out = REPL_MAGIC.to_vec();
    records::seal(&mut out, |payload| {
        payload.extend_from_slice(&frame.generation.to_le_bytes());
        payload.extend_from_slice(&frame.primary_epoch.to_le_bytes());
        let kind = match frame.kind {
            FrameKind::Delta => REPL_KIND_DELTA,
            FrameKind::Compact => REPL_KIND_COMPACT,
        };
        payload.extend_from_slice(&kind.to_le_bytes());
        payload.extend_from_slice(&(frame.records.len() as u32).to_le_bytes());
        records::encode(&frame.records, payload);
    });
    out
}

/// Decodes one frame from `bytes`, which must hold exactly one frame.
/// Truncation, trailing garbage, a bad magic/CRC, an inconsistent count,
/// an unknown kind, or an unknown record op all yield a typed error —
/// never a panic, never a partial frame.
pub fn decode_frame(bytes: &[u8]) -> Result<ReplFrame> {
    let mut r = Cursor::new(bytes, "replication frame");
    r.magic(REPL_MAGIC)?;
    let (payload, trailing) = records::open(r.rest(), "replication frame")?;
    if !trailing.is_empty() {
        return Err(r.malformed(format_args!("{} trailing bytes", trailing.len())));
    }
    let mut r = Cursor::new(payload, "replication payload");
    let (generation, primary_epoch) = (r.u64("generation")?, r.u64("primary epoch")?);
    let kind = match r.u32("kind")? {
        REPL_KIND_DELTA => FrameKind::Delta,
        REPL_KIND_COMPACT => FrameKind::Compact,
        t => return Err(r.malformed(format_args!("unknown frame kind {t}"))),
    };
    let count = r.u32("record count")? as usize;
    let records = records::decode::<DeltaRecord>(r.rest(), "replication frame")?;
    if records.len() != count {
        return Err(r.malformed(format_args!("says {count} records, carries {}", records.len())));
    }
    if kind == FrameKind::Compact && count != 0 {
        return Err(r.malformed(format_args!("a compaction frame carries {count} records")));
    }
    Ok(ReplFrame { generation, primary_epoch, kind, records })
}

/// Rebuilds the frame for a **published** generation straight from the
/// store directory: the live ship path and anti-entropy catch-up are one
/// code path, so a frame rebuilt days later is bit-identical to the one
/// shipped live. Reads the generation's own manifest — and nothing older,
/// so the current generation ships whatever has been retired behind it —
/// and classifies it from that: a chain naming this generation's delta
/// file makes it a delta publish, whose segments are gathered in partition
/// order, exactly the partition-major order the primary flattened into its
/// WAL; all chains empty after a compaction makes it that compaction.
/// Anything else has lost its files to a later compaction and retirement:
/// a typed error, and the follower must re-seed.
pub fn read_generation_frame(dir: &Path, generation: u64, primary_epoch: u64) -> Result<ReplFrame> {
    failpoint::hit("repl.ship")?;
    if generation == 0 {
        return Err(GraphError::Format(
            "generation 0 is the base store; seed followers by copying it".to_string(),
        ));
    }
    let gm = GenManifest::read_from_dir(dir, generation)?;
    let mut records = Vec::new();
    for (pid, part) in gm.partitions.iter().enumerate() {
        let name = delta_file_name(generation, pid);
        for dref in part.deltas.iter().filter(|dref| dref.file == name) {
            records.extend(read_delta_segment(&dir.join(&dref.file))?);
        }
    }
    let kind = if !records.is_empty() {
        FrameKind::Delta
    } else if gm.compactions > 0 && gm.partitions.iter().all(|part| part.deltas.is_empty()) {
        FrameKind::Compact
    } else {
        return Err(GraphError::Format(format!(
            "generation {generation} has no replayable delta segments (retired or compacted); \
             follower must re-seed"
        )));
    };
    Ok(ReplFrame { generation, primary_epoch, kind, records })
}

/// What applying one frame did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The frame advanced the store to this generation.
    Applied(u64),
    /// The frame's generation was already applied (a resend after a
    /// crash-recovery republish); nothing changed.
    Duplicate,
}

/// The follower side: replays shipped frames into this node's own store
/// directory through the standard `DeltaWriter` publish path, so the
/// follower's on-disk state (delta segments, generation manifests,
/// `CURRENT`) is byte-identical to the primary's and inherits the whole
/// WAL + lease crash story — a follower killed mid-apply recovers
/// through the same replay the primary would.
///
/// The applier holds the **follower's own** writer lease; promotion
/// ([`ReplicaApplier::promote`]) fences that lease at `epoch + 1` through
/// the standard takeover path and hands back a plain [`DeltaWriter`]
/// ready for primary duty.
pub struct ReplicaApplier {
    writer: DeltaWriter,
    primary_epoch: u64,
    frames_applied: u64,
}

impl ReplicaApplier {
    /// Opens the applier over the follower's store directory with the
    /// default lease config.
    pub fn open(dir: &Path) -> Result<ReplicaApplier> {
        ReplicaApplier::open_with(dir, LeaseConfig::default())
    }

    /// [`open`](ReplicaApplier::open) with an explicit lease config
    /// (crash harnesses pass [`LeaseConfig::force_takeover`]).
    ///
    /// Auto-compaction is disabled: the primary drives compaction through
    /// explicit [`FrameKind::Compact`] frames, so a follower must never
    /// compact on its own or the stores diverge.
    pub fn open_with(dir: &Path, lease_config: LeaseConfig) -> Result<ReplicaApplier> {
        let writer =
            DeltaWriter::open_with(dir, lease_config)?.with_policy(CompactionPolicy::never());
        Ok(ReplicaApplier { writer, primary_epoch: 0, frames_applied: 0 })
    }

    /// The generation this follower's store currently points at.
    pub fn generation(&self) -> u64 {
        self.writer.generation()
    }

    /// The epoch of the follower's own writer lease (on its own dir).
    pub fn lease_epoch(&self) -> u64 {
        self.writer.lease_epoch()
    }

    /// The highest primary lease epoch seen in applied frames.
    pub fn primary_epoch(&self) -> u64 {
        self.primary_epoch
    }

    /// Frames applied (not counting duplicates) since open.
    pub fn frames_applied(&self) -> u64 {
        self.frames_applied
    }

    /// Vertex count of the replicated store.
    pub fn num_vertices(&self) -> VertexId {
        self.writer.num_vertices()
    }

    /// Applies one frame. Frames must arrive in generation order:
    /// `generation <= have` is a harmless [`ApplyOutcome::Duplicate`],
    /// `generation == have + 1` applies, anything beyond is a typed gap
    /// error (reordered or lost frames — the follower must re-request the
    /// range). An apply that fails midway discards the partial batch, so
    /// the writer is clean for the retry.
    pub fn apply(&mut self, frame: &ReplFrame) -> Result<ApplyOutcome> {
        failpoint::hit("repl.apply")?;
        let have = self.writer.generation();
        if frame.generation <= have {
            return Ok(ApplyOutcome::Duplicate);
        }
        if frame.generation != have + 1 {
            return Err(GraphError::Format(format!(
                "replication gap: follower at generation {have}, frame targets {} \
                 (frames reordered or lost)",
                frame.generation
            )));
        }
        if frame.primary_epoch > self.primary_epoch {
            self.primary_epoch = frame.primary_epoch;
        }
        let published = match frame.kind {
            FrameKind::Delta => self.apply_delta_frame(frame)?,
            FrameKind::Compact => self.writer.compact()?,
        };
        if published != frame.generation {
            return Err(GraphError::Format(format!(
                "replication divergence: applying frame for generation {} produced {published}",
                frame.generation
            )));
        }
        self.frames_applied += 1;
        Ok(ApplyOutcome::Applied(published))
    }

    fn apply_delta_frame(&mut self, frame: &ReplFrame) -> Result<u64> {
        let staged = frame.records.iter().try_for_each(|r| self.writer.stage(*r));
        if let Err(e) = staged {
            self.writer.discard_pending();
            return Err(e);
        }
        self.writer.publish()
    }

    /// Promotes this follower to primary **through the epoch fence**: the
    /// applier's own lease identity is abandoned (exactly what a dying
    /// process leaves behind) and the store is re-acquired with a forced
    /// takeover, which bumps the epoch to `old + 1`. Any surviving writer
    /// handle on this directory is fenced — its next flip fails with
    /// `EpochFenced`. Returns the writer ready for primary duty (default
    /// compaction policy restored).
    pub fn promote(self) -> Result<DeltaWriter> {
        let dir = self.writer.dir().to_path_buf();
        self.writer.crash();
        DeltaWriter::open_with(&dir, LeaseConfig::force_takeover())
    }

    /// Simulates the follower process dying mid-stream: abandons the
    /// lease without checkpointing, exactly the state `kill -9` leaves.
    pub fn crash(self) {
        self.writer.crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::crc32;
    use proptest::prelude::*;

    fn frame_from_seeds(seeds: &[u64], generation: u64, epoch: u64) -> ReplFrame {
        let records: Vec<DeltaRecord> = seeds
            .iter()
            .map(|&x| {
                let src = (x >> 32) as u32 & 0xffff;
                let dst = (x >> 16) as u32 & 0xffff;
                if x & 1 == 0 {
                    DeltaRecord::insert(src, dst, (x & 0xff) as f32 * 0.5)
                } else {
                    DeltaRecord::delete(src, dst)
                }
            })
            .collect();
        ReplFrame { generation, primary_epoch: epoch, kind: FrameKind::Delta, records }
    }

    #[test]
    fn frame_round_trips_including_compactions() {
        let frame = frame_from_seeds(&[1, 2, 3, 8], 7, 3);
        let back = decode_frame(&encode_frame(&frame)).unwrap();
        assert_eq!(back, frame);
        let compact = ReplFrame {
            generation: 9,
            primary_epoch: 4,
            kind: FrameKind::Compact,
            records: vec![],
        };
        assert_eq!(decode_frame(&encode_frame(&compact)).unwrap(), compact);
        // Empty delta frames round-trip too (a publish is never empty in
        // practice, but the codec must not care).
        let empty = frame_from_seeds(&[], 1, 1);
        assert_eq!(decode_frame(&encode_frame(&empty)).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let good = encode_frame(&frame_from_seeds(&[5, 6], 2, 1));
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode_frame(&bad).unwrap_err(), GraphError::Format(_)));
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(decode_frame(&long).unwrap_err(), GraphError::Format(_)));
        // Unknown kind tag.
        let mut frame = frame_from_seeds(&[], 2, 1);
        frame.kind = FrameKind::Compact;
        let mut enc = encode_frame(&frame);
        let kind_at = REPL_FRAME_HEADER_BYTES + 16;
        enc[kind_at] = 9;
        let crc = crc32(&enc[REPL_FRAME_HEADER_BYTES..]);
        enc[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_frame(&enc).unwrap_err(), GraphError::Format(_)));
        // Compaction frame carrying records.
        let mut compact = encode_frame(&frame_from_seeds(&[4], 2, 1));
        compact[kind_at] = REPL_KIND_COMPACT as u8;
        let crc = crc32(&compact[REPL_FRAME_HEADER_BYTES..]);
        compact[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_frame(&compact).unwrap_err(), GraphError::Format(_)));
        // Unknown record op.
        let mut op_bad = encode_frame(&frame_from_seeds(&[4], 2, 1));
        let op_at = REPL_FRAME_HEADER_BYTES + REPL_PAYLOAD_HEADER_BYTES + 12;
        op_bad[op_at] = 7;
        let crc = crc32(&op_bad[REPL_FRAME_HEADER_BYTES..]);
        op_bad[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_frame(&op_bad).unwrap_err(), GraphError::Format(_)));
    }

    /// Every file of `dir` but the lease and the log, by name.
    fn store_files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name() != "EPOCH" && e.file_name() != "wal.log")
            .map(|e| (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap()))
            .collect()
    }

    /// Retiring the generations behind `CURRENT` must not stop `CURRENT`
    /// itself from shipping: a follower one generation behind catches up,
    /// whether that generation is a publish or a compaction.
    #[test]
    fn current_generation_ships_after_retirement() {
        let mut root = std::env::temp_dir();
        root.push(format!("graphm-replica-test-retired-ship-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (primary, follower) = (root.join("primary"), root.join("follower"));
        let g = graphm_graph::generators::rmat(
            64,
            400,
            graphm_graph::generators::RmatParams::GRAPH500,
            61,
        );
        for dir in [&primary, &follower] {
            crate::Convert::grid(2).write(&g, dir).unwrap();
        }
        let mut writer =
            DeltaWriter::open(&primary).unwrap().with_policy(CompactionPolicy::never());
        let mut applier = ReplicaApplier::open(&follower).unwrap();
        for generation in 1..=3u32 {
            writer.insert(generation, 40 + generation, 1.5).unwrap();
            writer
                .delete(g.edges[generation as usize].src, g.edges[generation as usize].dst)
                .unwrap();
            assert_eq!(writer.publish().unwrap(), u64::from(generation));
            if generation < 3 {
                let frame = read_generation_frame(&primary, generation.into(), 1).unwrap();
                applier.apply(&frame).unwrap();
            }
        }
        assert!(writer.retire_older_generations().unwrap() >= 2, "gen-1 and gen-2 manifests go");
        let frame = read_generation_frame(&primary, 3, 1).unwrap();
        assert_eq!((frame.kind, frame.records.len()), (FrameKind::Delta, 2));
        assert_eq!(applier.apply(&frame).unwrap(), ApplyOutcome::Applied(3));
        let shipped = store_files(&primary);
        let applied = store_files(&follower);
        for (name, bytes) in &shipped {
            assert!(applied.get(name) == Some(bytes), "{name} differs on the follower");
        }

        assert_eq!(writer.compact().unwrap(), 4);
        writer.retire_older_generations().unwrap();
        let frame = read_generation_frame(&primary, 4, 1).unwrap();
        assert_eq!((frame.kind, frame.records.len()), (FrameKind::Compact, 0));
        assert_eq!(applier.apply(&frame).unwrap(), ApplyOutcome::Applied(4));
        // A generation whose files retirement did remove has no frame.
        assert!(read_generation_frame(&primary, 3, 1).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    proptest! {
        /// Arbitrary frames round-trip bit-exactly.
        #[test]
        fn prop_frame_round_trips(seeds in proptest::collection::vec(any::<u64>(), 0..50),
                                  generation in 1u64..1_000_000,
                                  epoch in 1u64..1_000) {
            let frame = frame_from_seeds(&seeds, generation, epoch);
            let back = decode_frame(&encode_frame(&frame)).unwrap();
            prop_assert_eq!(back.generation, frame.generation);
            prop_assert_eq!(back.primary_epoch, frame.primary_epoch);
            prop_assert_eq!(back.records.len(), frame.records.len());
            for (a, b) in back.records.iter().zip(&frame.records) {
                prop_assert_eq!((a.src, a.dst, a.op), (b.src, b.dst, b.op));
                prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits());
            }
        }

        /// Truncating an encoded frame at any byte yields a typed error,
        /// never a panic or a partial decode.
        #[test]
        fn prop_frame_truncation_is_typed(seeds in proptest::collection::vec(any::<u64>(), 0..30),
                                          cut_seed in any::<u64>()) {
            let enc = encode_frame(&frame_from_seeds(&seeds, 3, 2));
            let cut = (cut_seed % enc.len() as u64) as usize;
            match decode_frame(&enc[..cut]) {
                Err(GraphError::Truncated { .. }) | Err(GraphError::Format(_)) => {}
                other => prop_assert!(false, "truncation must be typed, got {other:?}"),
            }
        }

        /// Flipping any single byte yields a typed error (the CRC covers
        /// the payload; header flips break magic, length, or CRC).
        #[test]
        fn prop_frame_corruption_is_typed(seeds in proptest::collection::vec(any::<u64>(), 1..30),
                                          at_seed in any::<u64>(),
                                          flip_seed in any::<u64>()) {
            let mut enc = encode_frame(&frame_from_seeds(&seeds, 3, 2));
            let at = (at_seed % enc.len() as u64) as usize;
            enc[at] ^= 1 + (flip_seed % 255) as u8;
            match decode_frame(&enc) {
                Err(GraphError::Truncated { .. }) | Err(GraphError::Format(_)) => {}
                other => prop_assert!(false, "corruption must be typed, got {other:?}"),
            }
        }
    }
}
