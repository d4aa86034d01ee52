//! The daemon is made of parts with one-way imports: a module of
//! `crates/server/src` may `use crate::` only modules declared before it
//! in [`ORDER`], and no file there grows past [`MAX_LINES`]. `runtime`
//! never sees a socket, `listener` never sees an engine, and `daemon`
//! (which assembles them) is imported by nothing. And the daemon serves
//! with one engine: the simulator's service stays out of it.

use std::path::{Path, PathBuf};

/// Low to high; `lib.rs` is the crate root and declares them all.
const ORDER: [&str; 13] = [
    "status",
    "protocol",
    "repl",
    "ingest",
    "client",
    "config",
    "admission",
    "state",
    "runtime",
    "verbs",
    "replication",
    "listener",
    "daemon",
];

const MAX_LINES: usize = 1200;

#[test]
fn server_modules_import_only_downwards_and_stay_small() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/server/src");
    let mut seen = 0;
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let module = path.file_stem().unwrap().to_str().unwrap().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = text.lines().count();
        assert!(lines <= MAX_LINES, "{module}.rs has {lines} lines (cap {MAX_LINES}): split it");
        if module == "lib" {
            continue;
        }
        let rank = ORDER
            .iter()
            .position(|m| *m == module)
            .unwrap_or_else(|| panic!("{module}.rs is not in the declared module order"));
        seen += 1;
        for (n, line) in text.lines().enumerate() {
            // `crate::name` anywhere in code: `use` lines and inline paths
            // alike (doc comments may link upwards).
            if line.trim_start().starts_with("//") {
                continue;
            }
            assert!(
                !line.contains("crate::{"),
                "{module}.rs:{}: one `use crate::module` per line, so imports stay checkable",
                n + 1
            );
            for (at, _) in line.match_indices("crate::") {
                let name: String = line[at + "crate::".len()..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if let Some(imported) = ORDER.iter().position(|m| *m == name) {
                    assert!(
                        imported < rank,
                        "{module}.rs:{} imports `{name}`, which is not below it: {}",
                        n + 1,
                        line.trim()
                    );
                }
            }
        }
    }
    assert_eq!(seen, ORDER.len(), "a declared module has no file");
}

/// What the daemon's removed virtual-time engine was built from.
const SIMULATOR_ONLY: [&str; 3] = ["SharingService", "RunnerConfig", "Stepper"];

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

/// The daemon serves the wall clock only: no code line under
/// `crates/server/src` names the simulator's service, and
/// `ExecutionMode` is down to one variant.
#[test]
fn the_daemon_has_one_engine() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/server/src");
    let mut files = Vec::new();
    sources(&src, &mut files);
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for name in SIMULATOR_ONLY {
                assert!(!line.contains(name), "{}:{} names `{name}`", path.display(), n + 1);
            }
        }
    }

    let config = std::fs::read_to_string(src.join("config.rs")).unwrap();
    let body = config.split("pub enum ExecutionMode {").nth(1).expect("ExecutionMode is declared");
    let variants: Vec<&str> = body
        .lines()
        .map(str::trim)
        .take_while(|line| *line != "}")
        .filter(|line| !line.is_empty() && !line.starts_with("//") && !line.starts_with("#["))
        .collect();
    assert_eq!(variants, ["Wallclock,"], "ExecutionMode has exactly one variant");
}
