//! Exit-code contract of the `risa-lint` binary: 0 clean, 1 findings,
//! 2 internal error — exercised against throwaway mini-workspaces.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_risa-lint")
}

/// A throwaway workspace root with the given `crates/sim/src/lib.rs`
/// contents (an engine crate: every rule is in scope there).
fn mini_workspace(tag: &str, lib_rs: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("risa-lint-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/sim/src")).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    fs::write(root.join("crates/sim/src/lib.rs"), lib_rs).unwrap();
    root
}

fn run(root: &Path, extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin())
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn risa-lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn clean_tree_exits_zero() {
    let root = mini_workspace("clean", "pub fn ok() -> u32 { 1 }\n");
    let (code, stdout) = run(&root, &[]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
    fs::remove_dir_all(root).unwrap();
}

#[test]
fn findings_exit_one() {
    let root = mini_workspace(
        "dirty",
        "pub fn bad() -> usize { std::collections::HashMap::<u8, u8>::new().len() }\n",
    );
    let (code, stdout) = run(&root, &[]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("error[hash_state]"), "{stdout}");
    fs::remove_dir_all(root).unwrap();
}

#[test]
fn warnings_exit_zero_unless_denied() {
    let lib = "// risa-lint: allow(wall_clock) — suppresses nothing\npub fn ok() {}\n";
    let root = mini_workspace("warn", lib);
    let (code, stdout) = run(&root, &[]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("warning[unused_waiver]"), "{stdout}");
    let (code, _) = run(&root, &["--deny-warnings"]);
    assert_eq!(code, Some(1));
    fs::remove_dir_all(root).unwrap();
}

#[test]
fn waived_findings_exit_zero_and_render_in_json() {
    let lib = "pub mod state {\n    // risa-lint: allow(hash_state) — test fixture\n    pub fn f() -> usize { std::collections::HashMap::<u8, u8>::new().len() }\n}\n";
    let root = mini_workspace("waived", lib);
    let (code, stdout) = run(&root, &["--json"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"schema\": \"risa-lint/v1\""), "{stdout}");
    assert!(
        stdout.contains("\"waiver_reason\": \"test fixture\""),
        "{stdout}"
    );
    fs::remove_dir_all(root).unwrap();
}

#[test]
fn internal_errors_exit_two() {
    let missing = std::env::temp_dir().join(format!("risa-lint-missing-{}", std::process::id()));
    let out = Command::new(bin())
        .arg("--root")
        .arg(&missing)
        .output()
        .expect("spawn risa-lint");
    assert_eq!(out.status.code(), Some(2));

    let out = Command::new(bin())
        .arg("--frobnicate")
        .output()
        .expect("spawn risa-lint");
    assert_eq!(out.status.code(), Some(2));
}
