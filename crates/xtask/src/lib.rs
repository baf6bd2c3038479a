//! Workspace automation library behind the `cargo xtask` binary.
//!
//! **mc-analyze** ([`analyze::run_analyze`]) is the one workspace
//! checker: it lexes every source file ([`lexer`]), parses an item tree
//! and symbol index, and runs the token rules, lock-order and drift
//! passes over them. Suppression, with mandatory justifications, lives
//! in one allowlist file ([`allow`]). DESIGN.md §8 and §13 describe how
//! the checker fits next to clippy and the loom suite.

pub mod allow;
pub mod analyze;
pub mod lexer;

use std::fs;
use std::path::{Path, PathBuf};

/// Collects the paths of every checked source file: `src/**/*.rs` of
/// the root package and of each crate under `crates/`.
///
/// Integration tests (`tests/`), benches, fixtures and the `vendor/`
/// stand-ins are outside the walk by construction; in-file test-only
/// items are masked by the checker itself.
///
/// # Errors
/// On filesystem errors walking the tree.
pub fn collect_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries =
            fs::read_dir(&crates).map_err(|e| format!("read {}: {e}", crates.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read {}: {e}", crates.display()))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    let mut files = Vec::new();
    for dir in dirs {
        walk(&dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
