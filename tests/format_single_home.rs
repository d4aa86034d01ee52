//! Every byte layout has one home: outside `graphm_graph::records`, no
//! module of `crates/{graph,store}/src` encodes or decodes a record's
//! fields, range-checks a delta op tag, or computes a frame checksum, and
//! the only in-place reinterpretation of mapped bytes as records is the
//! one in `store/src/source.rs` (`mmap.rs` builds the byte slice itself).
//! Semantic uses of a decoded record (`r.op == DELTA_OP_DELETE`) are not
//! format knowledge and are not looked for. Test modules are exempt: the
//! scan stops at a file's first `#[cfg(test)]`.
//!
//! The store has one layout, too: the grid it serves. The on-disk shard
//! layout is gone, and nothing outside the tests may bring it back.

use std::path::{Path, PathBuf};

const RECORDS: &[&str] = &["graph/src/records.rs"];

/// `(needle, the files that hold it, whether each holds it exactly once)`.
const HOMES: [(&str, &[&str], bool); 5] = [
    ("from_raw_parts", &["store/src/mmap.rs", "store/src/source.rs"], true),
    ("weight.to_le_bytes", RECORDS, false),
    ("f32::from_le_bytes", RECORDS, false),
    ("> DELTA_OP_DELETE", RECORDS, false),
    ("crc32(", RECORDS, false),
];

/// `(directory under crates/, the names its non-test code may not use)`.
const ONE_LAYOUT: [(&str, &[&str]); 2] = [
    ("store/src", &["Shards", "ShardLayout", "StoreLayout"]),
    ("graph/src", &["ShardLayout", "StoreLayout"]),
];

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn record_layouts_checksums_and_reinterpretation_have_one_home() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    sources(&crates.join("graph/src"), &mut files);
    sources(&crates.join("store/src"), &mut files);
    assert!(files.len() > 20, "the scan found the two crates");
    for (needle, homes, once) in HOMES {
        let mut found = Vec::new();
        for path in &files {
            let text = std::fs::read_to_string(path).unwrap();
            let code = text.split("#[cfg(test)]").next().unwrap();
            // A needle in a comment is prose about the format, not code.
            let hits = code
                .lines()
                .filter(|line| !line.trim_start().starts_with("//"))
                .map(|line| line.matches(needle).count())
                .sum::<usize>();
            if hits > 0 {
                let name = path.strip_prefix(&crates).unwrap().to_string_lossy().replace('\\', "/");
                found.push((name, hits));
            }
        }
        found.sort();
        let files: Vec<&str> = found.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(files, homes, "`{needle}` outside its home (or gone from it)");
        assert!(!once || found.iter().all(|&(_, hits)| hits == 1), "`{needle}`: {found:?}");
    }
}

#[test]
fn the_store_has_one_layout() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    for (dir, names) in ONE_LAYOUT {
        let mut files = Vec::new();
        sources(&crates.join(dir), &mut files);
        assert!(!files.is_empty(), "the scan found {dir}");
        for path in &files {
            let text = std::fs::read_to_string(path).unwrap();
            let code = text.split("#[cfg(test)]").next().unwrap();
            for (n, line) in code.lines().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                for name in names {
                    assert!(!line.contains(name), "{}:{} names `{name}`", path.display(), n + 1);
                }
            }
        }
    }
    let graphchi = std::fs::read_to_string(crates.join("graphchi/Cargo.toml")).unwrap();
    assert!(!graphchi.contains("graphm-store"), "graphm-graphchi depends on graphm-store again");
}
