//! Workspace file discovery and the whole-tree lint entry point.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::{lint_source, logical_path, sort_findings, Finding};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Top-level roots that are scanned. Everything under `vendor/` except
/// the thread pool is an API-subset stand-in with no engine logic, so
/// only `vendor/rayon` is in scope.
const ROOTS: [&str; 5] = ["src", "crates", "tests", "examples", "vendor/rayon"];

/// Locate the workspace root by walking up from `start` until a
/// directory containing a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Every `.rs` file in scope under `root`, sorted for deterministic
/// reports regardless of directory enumeration order.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace under `root`. Findings come back sorted by
/// `(file, line, rule)` and include waived entries.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{} is not a directory", root.display()),
        ));
    }
    let mut findings = Vec::new();
    for file in workspace_files(root)? {
        let source = fs::read_to_string(&file)?;
        findings.extend(lint_source(&logical_path(root, &file), &source));
    }
    sort_findings(&mut findings);
    Ok(findings)
}
