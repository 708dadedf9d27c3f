//! Workspace file discovery: which `.rs` files count as *library code*.
//!
//! `--workspace` lints every `src/` tree in the repo — `src/` at the root
//! and `crates/*/src/` (including nested `src/bin/`, `src/experiments/`,
//! …) — and deliberately skips:
//!
//! - `crates/shims/`: vendored stand-ins for external crates (`rand`,
//!   `parking_lot`); their job is to mirror a foreign API surface, not to
//!   follow this repo's conventions;
//! - `tests/`, `benches/`, `examples/`: the invariant is about library
//!   code — a test may loop without polling (and in-`src` `#[cfg(test)]`
//!   blocks are excluded token-wise by [`crate::rules`]);
//! - `target/` and anything else outside a `src/` tree.

use std::path::{Path, PathBuf};

/// All library `.rs` files under `root`, workspace-relative, sorted.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for krate in entries {
            if krate.file_name().is_some_and(|n| n == "shims") {
                continue;
            }
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` to the first directory
/// holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
