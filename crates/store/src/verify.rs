//! The library half of `fsck`: checks a store directory with the
//! validators its readers and writer already apply, and changes nothing.
//!
//! [`verify`] reads `manifest.bin`, the generation `CURRENT` names and
//! its manifest (held to its base by `GenManifest::check_base`), every
//! base and delta segment either manifest names (header against the
//! manifest's count, every record through `records::check_all`), the
//! lease's `EPOCH` file, and `wal.log` through [`replay_wal_bytes`].
//!
//! Only WAL entries and replication frames carry a checksum (the CRC
//! envelope of `graphm_graph::records`). A flipped byte in a segment's
//! payload, in `CURRENT`'s generation number, or in a field no reader
//! cross-checks (a manifest entry's source bounds or load charge, a
//! generation's compaction count, the lease's epoch or heartbeat) can
//! therefore verify clean. A torn WAL tail is legal recovery input, not
//! an error: it is reported as a valid length shorter than the file.

use crate::delta::{synthesize_gen0, unreferenced_files};
use crate::lease::read_epoch_file;
use crate::wal::{replay_wal_bytes, WAL_FILE};
use graphm_graph::delta::{read_current_generation, DeltaRecord, GenManifest};
use graphm_graph::records::{self, Record};
use graphm_graph::segment::Manifest;
use graphm_graph::{Edge, GraphError, Result, VertexId};
use std::collections::BTreeSet;
use std::path::Path;

/// What [`verify`] found in a well-formed store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verified {
    /// The generation `CURRENT` names (0 = the bare base store).
    pub generation: u64,
    /// Bytes in `wal.log` (0 when there is none).
    pub wal_len: u64,
    /// Bytes of its committed prefix, header included: what
    /// `DeltaWriter::open` keeps when it truncates a torn tail.
    pub wal_valid_len: u64,
    /// Files the current generation does not reference, sorted: what
    /// `DeltaWriter::retire_older_generations` would remove.
    pub unreferenced: Vec<String>,
}

/// Checks the store in `dir`; see the module docs. Never panics on a
/// corrupt file: every violation is a typed `GraphError`.
pub fn verify(dir: &Path) -> Result<Verified> {
    let manifest = Manifest::read_from_dir(dir)?;
    let generation = read_current_generation(dir)?;
    let base = synthesize_gen0(&manifest);
    let gen = if generation == 0 {
        base.clone()
    } else {
        let gm = GenManifest::read_from_dir(dir, generation)?;
        gm.check_base(&manifest)?;
        gm
    };
    let nv = manifest.num_vertices;
    let mut seen = BTreeSet::new();
    for part in base.partitions.iter().chain(&gen.partitions) {
        if seen.insert((part.base_file.as_str(), part.base_num_edges)) {
            check::<Edge>(dir, &part.base_file, part.base_num_edges, nv)?;
        }
        for d in &part.deltas {
            if seen.insert((d.file.as_str(), d.num_records)) {
                check::<DeltaRecord>(dir, &d.file, d.num_records, nv)?;
            }
        }
    }
    read_epoch_file(dir)?;
    // No log, or an empty one (a crash before its header was written),
    // is a fresh log to `DeltaWriter::open`.
    let wal = match std::fs::read(dir.join(WAL_FILE)) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        read => read?,
    };
    let (batches, wal_valid_len) = replay_wal_bytes(&wal);
    if wal_valid_len == 0 && !wal.is_empty() {
        return Err(GraphError::Format(format!("{WAL_FILE}: bad write-ahead log magic")));
    }
    for batch in &batches {
        records::check_all(&batch.records, nv, WAL_FILE)?;
    }
    Ok(Verified {
        generation,
        wal_len: wal.len() as u64,
        wal_valid_len: wal_valid_len as u64,
        unreferenced: unreferenced_files(dir, &gen)?,
    })
}

/// One record file named with `expect` records over `nv` vertices.
fn check<R: Record>(dir: &Path, file: &str, expect: u64, nv: VertexId) -> Result<()> {
    let records = records::read::<R>(&dir.join(file), Some(expect))?;
    records::check_all(&records, nv, file)
}
