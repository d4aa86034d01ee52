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
//!
//! And the locks have one vocabulary: every `Mutex`, `MutexGuard`,
//! `Condvar` and `RwLock` in non-test code comes from `vendor/parking_lot`,
//! which owns the one poison policy, so no call site states its own.
//!
//! And a chunk has one path through a job: the sweep driver streams it in
//! one `GraphJob::process_chunk` call on the lane that holds the job, and
//! the job walks the chunk's table of source runs. The gather/apply split
//! that let idle lanes help ahead is gone, and so is splitting a chunk
//! into runs by comparing sources (`chunk_by`): non-test code may name
//! neither again.
//!
//! And each algorithm has one kernel: a solo PageRank or PPR job is a
//! `RankBundle` of one, a solo WCC job a `Wcc` of one member, so
//! `graphm-algos` implements `GraphJob` once per algorithm family.

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

/// The lock types non-test code takes from `parking_lot`, never `std::sync`.
const STD_LOCKS: [&str; 4] = ["Mutex", "MutexGuard", "Condvar", "RwLock"];

/// The help-ahead split's names, none of which non-test code may use.
const HELP_AHEAD: [&str; 4] =
    ["GatherKernel", "gather_kernel", "apply_gathered_chunk", "chunk_fanout"];

/// The second walk of a chunk, beside the run tables.
const RUNS_BY_COMPARISON: &str = "chunk_by(";

/// The solo kernels a bundle of one replaced, which non-test code of
/// `crates/algos/src` may not name.
const SOLO_KERNELS: [&str; 2] = ["PersonalizedPageRank", "WccGroup"];

/// The `GraphJob` implementations of `crates/algos/src`, one per family.
const ALGORITHM_KERNELS: [&str; 5] = ["Bfs", "LabelPropagation", "RankBundle", "Sssp", "Wcc"];

/// Calls that return a lock result (or a guard from one).
const LOCK_CALLS: [&str; 5] = [".lock()", ".read()", ".write()", ".wait(", ".wait_timeout("];

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

/// The identifiers each `prefix` in `code` names: the one path segment
/// after it, or every identifier in the `{…}` group that follows it.
fn named_after<'a>(code: &'a str, prefix: &str) -> Vec<&'a str> {
    let mut names = Vec::new();
    for (at, _) in code.match_indices(prefix) {
        let rest = &code[at + prefix.len()..];
        let end = if rest.starts_with('{') {
            let mut depth = 0;
            rest.find(|c| {
                depth += (c == '{') as i32 - (c == '}') as i32;
                depth == 0
            })
            .expect("a `{` group closes")
        } else {
            rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len())
        };
        let group = rest[..end].split(|c: char| !(c.is_alphanumeric() || c == '_'));
        names.extend(group.filter(|name| !name.is_empty()));
    }
    names
}

#[test]
fn locks_come_from_the_shim() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            sources(&src, &mut files);
        }
    }
    assert!(files.len() > 80, "the scan found the crates");
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let code: String = text
            .split("#[cfg(test)]")
            .next()
            .unwrap()
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"))
            .flat_map(|line| [line, "\n"])
            .collect();
        let file = path.strip_prefix(&crates).unwrap().display();
        for name in named_after(&code, "std::sync::") {
            assert!(!STD_LOCKS.contains(&name), "{file} takes `{name}` from `std::sync`");
        }
        assert!(!code.contains("PoisonError"), "{file} names `PoisonError`");
        for statement in code.split(';') {
            let Some(line) = statement.lines().find(|line| line.contains(".into_inner()")) else {
                continue;
            };
            let recovers = LOCK_CALLS.iter().any(|call| statement.contains(call));
            assert!(!recovers, "{file} recovers a poisoned guard itself: {}", line.trim());
        }
        if path.starts_with(crates.join("server/src")) {
            assert!(!named_after(&code, "fn ").contains(&"lock"), "{file} defines `lock` again");
            assert!(!named_after(&code, "state::").contains(&"lock"), "{file} takes `state::lock`");
        }
    }
}

#[test]
fn the_chunk_loop_has_one_path() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            sources(&src, &mut files);
        }
    }
    assert!(files.len() > 80, "the scan found the crates");
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let code = text.split("#[cfg(test)]").next().unwrap();
        for (n, line) in code.lines().enumerate() {
            for name in HELP_AHEAD.into_iter().chain([RUNS_BY_COMPARISON]) {
                assert!(!line.contains(name), "{}:{} names `{name}`", path.display(), n + 1);
            }
        }
    }
}

#[test]
fn each_algorithm_has_one_kernel() {
    let algos = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/algos/src");
    let mut files = Vec::new();
    sources(&algos, &mut files);
    assert!(files.len() >= 8, "the scan found the algorithms");
    let mut kernels = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let code = text.split("#[cfg(test)]").next().unwrap();
        for name in SOLO_KERNELS {
            assert!(!code.contains(name), "{} names `{name}`", path.display());
        }
        let structs = named_after(code, "struct ");
        assert!(!structs.contains(&"Push"), "{} defines `struct Push` again", path.display());
        kernels.extend(named_after(code, "impl GraphJob for ").into_iter().map(String::from));
    }
    kernels.sort();
    assert_eq!(kernels, ALGORITHM_KERNELS, "one `impl GraphJob for` per algorithm family");
}
