//! The experiment matrix and the rack sweep through the binary: a matrix
//! prints the same bytes at any `--jobs` width, including one far past
//! the number of runs it deals; the sweep prints one row per (racks ×
//! algorithm) cell; and a zero width or cycle count is refused at parse
//! time — exit 1, an `error:` line, no panic.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_risa-cli");

/// Run the CLI; returns (exit code, stdout, stderr).
fn cli(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn risa-cli");
    (
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// The CLI's stdout for `args`, which must succeed.
fn stdout(args: &[&str]) -> String {
    let (code, stdout, stderr) = cli(args);
    assert_eq!(code, Some(0), "{args:?}: {stderr}");
    stdout
}

/// `args` must exit 1 with an `error:` line and no panic.
fn refused(args: &[&str]) {
    let (code, _, stderr) = cli(args);
    assert_eq!(code, Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "{args:?}: no error line in:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn an_experiment_prints_the_same_bytes_at_any_width() {
    let one = stdout(&["experiment", "fig7", "--jobs", "1"]);
    assert!(!one.is_empty());
    for jobs in ["4", "100000"] {
        assert_eq!(
            stdout(&["experiment", "fig7", "--jobs", jobs]),
            one,
            "--jobs {jobs}"
        );
    }
}

#[test]
fn a_zero_width_is_refused() {
    refused(&["experiment", "fig7", "--jobs", "0"]);
}

#[test]
fn the_sweep_prints_a_row_per_cell() {
    let table = stdout(&["bench", "--racks", "12,96", "--vms", "2000"]);
    let algorithms = ["NULB", "NALB", "RISA", "RISA-BF"];
    let rows = table
        .lines()
        .filter(|line| line.starts_with(' '))
        .filter(|line| {
            let mut cells = line.split_whitespace();
            matches!(cells.next(), Some("12" | "96"))
                && cells.next().is_some_and(|a| algorithms.contains(&a))
        })
        .count();
    assert_eq!(rows, 8, "{table}");
}

#[test]
fn a_zero_cycle_count_is_refused() {
    refused(&["bench", "--vms", "0"]);
}
