//! `verify` on a corrupt store never panics: every byte of every file of
//! a small store (a 2 × 2 grid, one published generation, and a second
//! batch committed to the WAL by a writer that crashed after the sync) is
//! flipped, one at a time, and the store verified. A flip in a magic, a
//! record count or a checked manifest field is a typed error; a flip in a
//! WAL frame is a torn tail, which verifies clean with a shorter valid
//! length, as `DeltaWriter::open` would recover it. Bytes that carry no
//! checksum and no cross-check (see `verify`'s module docs) may verify
//! clean.

use graphm_graph::{failpoint, generators};
use graphm_store::{verify, CompactionPolicy, Convert, DeltaWriter};

/// Whether byte `at` of `name` (holding `bytes`) is one no validator
/// checks.
fn unchecked(name: &str, bytes: &[u8], at: usize) -> bool {
    let name_len = |at: usize| 2 + u16::from_le_bytes([bytes[at], bytes[at + 1]]) as usize;
    match name {
        "manifest.bin" => {
            // Each entry: name, edge count, byte length, then the source
            // bounds and the load charge.
            let mut entry = 24;
            (0..u32::from_le_bytes(bytes[20..24].try_into().unwrap())).any(|_| {
                let bounds = entry + name_len(entry) + 16;
                entry = bounds + 16;
                (bounds..entry).contains(&at)
            })
        }
        "CURRENT" => (8..16).contains(&at),
        "EPOCH" => at >= 8,
        n if n.starts_with("gen-") => (16..24).contains(&at),
        n if n.ends_with("seg") => at >= 16,
        _ => false,
    }
}

#[test]
fn verify_types_every_flipped_byte_and_never_panics() {
    let g = generators::rmat(64, 240, generators::RmatParams::GRAPH500, 3);
    let dir = std::env::temp_dir().join(format!("graphm-verify-flips-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    Convert::grid(2).write(&g, &dir).unwrap();
    let mut w = DeltaWriter::open(&dir).unwrap().with_policy(CompactionPolicy::never());
    for (i, e) in g.edges.iter().step_by(17).enumerate() {
        w.delete(e.src, e.dst).unwrap();
        w.insert(e.dst, e.src, i as f32).unwrap();
    }
    assert_eq!(w.publish().unwrap(), 1);
    w.insert(1, 2, 0.5).unwrap();
    failpoint::arm("wal.synced", 0);
    assert!(failpoint::is_injected(&w.publish().unwrap_err()));
    failpoint::reset();
    w.crash();

    let clean = verify(&dir).unwrap();
    assert_eq!(clean.generation, 1);
    assert!(clean.unreferenced.is_empty(), "{:?}", clean.unreferenced);
    assert!(clean.wal_valid_len == clean.wal_len && clean.wal_len > 8, "{clean:?}");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    for kind in ["CURRENT", "EPOCH", "delta-000001-", "gen-000001.mf", "part-00003.seg", "wal.log"]
    {
        assert!(files.iter().any(|f| f.starts_with(kind)), "no {kind} in {files:?}");
    }
    for name in &files {
        let path = dir.join(name);
        let bytes = std::fs::read(&path).unwrap();
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] = !flipped[at];
            std::fs::write(&path, &flipped).unwrap();
            let got = verify(&dir);
            if name == "wal.log" && at >= 8 {
                let v = got.unwrap_or_else(|e| panic!("{name}[{at}]: a torn tail is legal: {e}"));
                assert!(v.wal_valid_len < v.wal_len, "{name}[{at}]: {v:?}");
            } else if !unchecked(name, &bytes, at) {
                assert!(got.is_err(), "{name}[{at}] flipped, yet the store verifies: {got:?}");
            }
        }
        std::fs::write(&path, &bytes).unwrap();
    }
    assert_eq!(verify(&dir).unwrap(), clean);
    // A log cut before its header was written is a fresh one to
    // `DeltaWriter::open`, not a corrupt one.
    std::fs::write(dir.join("wal.log"), b"").unwrap();
    assert_eq!(verify(&dir).unwrap().wal_len, 0);
    std::fs::remove_dir_all(&dir).ok();
}
