//! Scaffolding the integration test files share; each one that needs it
//! declares `mod common;`.

use std::path::PathBuf;

/// A fresh directory for the store of test `name`, under the system
/// temporary directory and named after the test file and the process,
/// so that test files and concurrent runs never share one. What a
/// crashed run left there is removed first.
pub fn store_dir(name: &str) -> PathBuf {
    let dir = format!("graphm-{}-{name}-{}", env!("CARGO_CRATE_NAME"), std::process::id());
    let p = std::env::temp_dir().join(dir);
    std::fs::remove_dir_all(&p).ok();
    p
}
