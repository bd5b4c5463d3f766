//! A trace the CLI cannot run is an `error:` line and exit code 1 —
//! never a panic and never a run.
//!
//! Covers the input boundary `run --workload <file.csv>` crosses: a
//! missing file, a bad header, a bad row (line number intact), ids that
//! are not the rows' ranks (which the default once ran to exit 0, placing
//! each arrival as some other row's VM), times past the engine's clock
//! (once clamped to its end and run), and a row no box can hold — the
//! same boundary an oversized `--workload synthetic` would cross if the
//! flags could ask for one. Every other refusal is pinned as its whole
//! `error:` line: a wrong field count, a negative integer, a `NaN` time,
//! unsorted arrivals, an empty file, bytes that are not UTF-8, a line
//! over 1 MiB and a directory.
//!
//! And the other direction: a trace `generate` writes, to stdout or to
//! `--out <file.csv>`, is one `run --workload` takes, and runs as the
//! generator itself runs.
//!
//! A checkpoint names its trace file: `run --resume` continues the run
//! into the report the uninterrupted run printed (but for the wall-clock
//! `sched_seconds`), as it does a synthetic run's, faults off and on; after
//! the file was deleted, or replaced by another of the same row count, it
//! is refused the same way — as are an unwritable `--checkpoint` path, a
//! document of an older version and a recipe edited to a workload no
//! generator accepts. A cadence finer than any gap between events ends.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_risa-cli");
const HEADER: &str = "id,cpu_cores,ram_gb,storage_gb,arrival,lifetime";

fn temp(tag: &str, contents: impl AsRef<[u8]>) -> PathBuf {
    let path = std::env::temp_dir().join(format!("risa_cli_{}_{tag}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

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

/// The CLI must refuse `args`: exit code 1, nothing on stdout, no panic,
/// and one `error:` line, containing `want`. Returns the stderr.
fn refused_with(args: &[&str], want: &str) -> String {
    let (code, stdout, stderr) = cli(args);
    assert_eq!(code, Some(1), "{args:?}: {stderr}");
    assert_eq!(stdout, "", "{args:?}: a refused command must not report");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let error: Vec<_> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert!(
        error.len() == 1 && error[0].contains(want),
        "{args:?}: want '{want}' in:\n{stderr}"
    );
    stderr
}

/// The report `args` print, which must succeed, without its wall-clock
/// line.
fn report(args: &[&str]) -> String {
    let (code, stdout, stderr) = cli(args);
    assert_eq!(code, Some(0), "{args:?}: {stderr}");
    let lines: Vec<_> = stdout
        .lines()
        .filter(|l| !l.contains("sched_seconds"))
        .collect();
    assert!(lines.len() > 10, "{args:?}: {stdout}");
    lines.join("\n")
}

/// `run <spec> --json` checkpointed every `every` units into `ckpt`, which
/// `run --resume` continues into the same report.
fn resumes_into_the_full_run(spec: &[&str], ckpt: &str, every: &str) {
    let tail = ["--json", "--checkpoint", ckpt, "--checkpoint-every", every];
    let full = report(&[&["run"], spec, &tail].concat());
    let resumed = report(&["run", "--resume", ckpt, "--json"]);
    assert_eq!(resumed, full, "{spec:?}");
}

/// `run --workload <path>` must fail with `want` in its one `error:` line.
fn refused(path: &str, want: &str) {
    refused_with(&["run", "--workload", path, "--json"], want);
}

#[test]
fn missing_file_is_an_error_line() {
    refused(
        "/nonexistent/risa/cli.csv",
        "cannot read trace file '/nonexistent/risa/cli.csv'",
    );
}

#[test]
fn bad_header_and_bad_row_name_the_defect() {
    let path = temp("header.csv", "id,cores\n0,1,2,128,1.0,10\n");
    refused(path.to_str().unwrap(), "bad CSV header");
    std::fs::remove_file(&path).ok();

    let rows = "0,1,2,128,1.0,10\n\n1,1,2,128,2.0,10\n2,1,2,128,nope,10\n";
    let path = temp("row.csv", format!("{HEADER}\n{rows}"));
    refused(
        path.to_str().unwrap(),
        "line 5: cannot parse column 'arrival'",
    );
    std::fs::remove_file(&path).ok();
}

/// Every other refusal of a trace file, each as its whole `error:` line
/// (`{path}` stands for the file's path).
#[test]
fn each_refused_file_is_one_error_line() {
    let doc = |rows: &str| format!("{HEADER}\n{rows}").into_bytes();
    let mut binary = doc("0,1,2,128,1.0,10\n1,1,2,128,2.0,");
    binary.extend([0xff, b'\n']);
    let long = doc(&format!(
        "0,1,2,128,1.0,10\n{}\n",
        " ".repeat((1 << 20) + 1)
    ));
    for (tag, contents, want) in [
        (
            "arity.csv",
            doc("0,1,2,128,1.0,10\n1,1,2,128,2.0\n"),
            "cannot read trace file '{path}': line 3: expected 6 fields",
        ),
        (
            "negative.csv",
            doc("0,-1,2,128,1.0,10\n"),
            "cannot read trace file '{path}': line 2: cannot parse column 'cpu_cores'",
        ),
        (
            "nan.csv",
            doc("0,1,2,128,NaN,10\n"),
            "cannot read trace file '{path}': line 2: column 'arrival' must be a finite, \
             non-negative number, with arrival + lifetime at most 1e13",
        ),
        (
            "unsorted.csv",
            doc("0,1,2,128,5.0,10\n1,1,2,128,4.0,10\n"),
            "cannot read trace file '{path}': line 3: arrivals must be non-decreasing",
        ),
        (
            "empty.csv",
            Vec::new(),
            "cannot read trace file '{path}': line 1: bad CSV header \
             (expected 'id,cpu_cores,ram_gb,storage_gb,arrival,lifetime')",
        ),
        (
            "binary.csv",
            binary,
            "cannot read trace file '{path}': line 3: not valid UTF-8",
        ),
        (
            "long.csv",
            long,
            "cannot read trace file '{path}': line 3: longer than 1048576 bytes",
        ),
    ] {
        let path = temp(tag, contents);
        error_line_is(path.to_str().unwrap(), want);
        std::fs::remove_file(&path).ok();
    }
    let dir = std::env::temp_dir().join(format!("risa_cli_{}_dir.csv", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    error_line_is(
        dir.to_str().unwrap(),
        "cannot read trace file '{path}': Is a directory (os error 21)",
    );
    std::fs::remove_dir(&dir).ok();
}

/// `run --workload <path>` must fail with exactly `error: <want>`, `{path}`
/// in `want` standing for `path`.
fn error_line_is(path: &str, want: &str) {
    let want = want.replace("{path}", path);
    let stderr = refused_with(&["run", "--workload", path, "--json"], &want);
    assert!(
        stderr.lines().any(|l| l == format!("error: {want}")),
        "{stderr}"
    );
}

#[test]
fn ids_that_are_not_ranks_are_refused() {
    for (tag, rows, want) in [
        (
            "swapped.csv",
            "1,1,2,128,1.0,10\n0,1,2,128,2.0,10\n",
            "line 2: VM ids must be dense and in order (expected 0, found 1)",
        ),
        (
            "sparse.csv",
            "0,1,2,128,1.0,10\n9,1,2,128,2.0,10\n",
            "line 3: VM ids must be dense and in order (expected 1, found 9)",
        ),
        (
            "dup.csv",
            "0,1,2,128,1.0,10\n0,1,2,128,2.0,10\n",
            "line 3: VM ids must be dense and in order (expected 1, found 0)",
        ),
    ] {
        let path = temp(tag, format!("{HEADER}\n{rows}"));
        refused(path.to_str().unwrap(), want);
        std::fs::remove_file(&path).ok();
    }
}

/// Rows whose VM would arrive or leave past the engine's clock (about
/// 1.8·10¹³ time units) once ran to exit 0 with the time clamped to the
/// clock's end: a nonsense `sim_duration`, or a `null` energy. They are
/// refused by the reader, naming the line and the column.
#[test]
fn times_past_the_engine_clock_are_error_lines() {
    for (tag, row, want) in [
        (
            "arrival.csv",
            "0,1,1,128,1e15,10",
            "line 2: column 'arrival'",
        ),
        (
            "lifetime.csv",
            "0,1,1,128,1,1e300",
            "line 2: column 'lifetime'",
        ),
    ] {
        let path = temp(tag, format!("{HEADER}\n{row}\n"));
        refused(path.to_str().unwrap(), want);
        refused(path.to_str().unwrap(), "arrival + lifetime at most 1e13");
        std::fs::remove_file(&path).ok();
    }
}

/// A row past a box (513 cores; a box holds 512) is refused at build,
/// naming the row's VM — not a panic when the run reaches it.
#[test]
fn oversized_row_is_an_error_line() {
    let rows = "0,1,2,128,1.0,10\n1,513,2,128,2.0,10\n2,1,2,128,3.0,10\n";
    let path = temp("oversized.csv", format!("{HEADER}\n{rows}"));
    refused(path.to_str().unwrap(), "VM vm1 in workload 'risa_cli_");
    refused(path.to_str().unwrap(), "exceeds single-box capacity");
    std::fs::remove_file(&path).ok();
}

/// `generate` writes the CSV schema and nothing else: to stdout the
/// bytes it writes to `--out t.csv`, and no file under any other name. A
/// run over that file is the run over the generator, in every report
/// field but the workload's name, with faults off and on — and faults
/// change the report.
#[test]
fn a_generated_csv_runs_as_the_generator_does() {
    let path = std::env::temp_dir().join(format!("risa_cli_{}_generated.CSV", std::process::id()));
    let path = path.to_str().unwrap();
    let spec = ["--workload", "synthetic", "--n", "20000", "--seed", "7"];
    let (code, stdout, stderr) = cli(&[&["generate"], &spec[..], &["--out", path]].concat());
    assert_eq!((code, stdout.as_str()), (Some(0), ""), "{stderr}");
    assert!(stderr.contains("wrote 20000 VMs"), "{stderr}");
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.starts_with(HEADER) && text.lines().count() == 20_001);
    let (code, stdout, stderr) = cli(&[&["generate"], &spec[..]].concat());
    assert_eq!((code, stderr.as_str()), (Some(0), ""));
    assert!(stdout == text, "stdout differs from the --out file");
    let json = path.replace(".CSV", ".json");
    refused_with(
        &["generate", "--n", "50", "--out", &json],
        "--out must name a .csv file",
    );
    assert!(!std::path::Path::new(&json).exists());

    // The report without its wall-clock field and its name.
    let report = |args: &[&str]| -> Vec<String> {
        let (code, stdout, stderr) = cli(&[&["run", "--json"], args].concat());
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        let fields: Vec<String> = stdout
            .lines()
            .filter(|l| !l.contains("\"sched_seconds\"") && !l.contains("\"workload\""))
            .map(String::from)
            .collect();
        assert_eq!(fields.len() + 2, stdout.lines().count(), "{stdout}");
        fields
    };
    let file = report(&["--workload", path]);
    assert_eq!(file, report(&spec));
    let faults = report(&["--workload", path, "--faults"]);
    assert_eq!(faults, report(&[&spec[..], &["--faults"]].concat()));
    assert_ne!(faults, file, "faults must change the report");
    std::fs::remove_file(path).ok();
}

#[test]
fn an_unwritable_checkpoint_path_is_an_error_line() {
    let args = "run --n 300 --checkpoint /nonexistent/dir/c.ckpt --checkpoint-every 1000";
    refused_with(
        &args.split(' ').collect::<Vec<_>>(),
        "cannot write checkpoint /nonexistent/dir/c.ckpt",
    );
}

/// The checkpoint of a run over a trace with faults resumes into the
/// full run's report, and pins its trace: replaced by another trace of the
/// same row count it is refused by digest, naming the event count;
/// deleted, by the build error.
#[test]
fn resume_refuses_a_replaced_or_deleted_trace() {
    let dir = std::env::temp_dir().join(format!("risa-cli-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.csv").display().to_string();
    let ckpt = dir.join("t.ckpt").display().to_string();
    let generate = |seed: &str| {
        let (code, _, stderr) = cli(&["generate", "--n", "3000", "--seed", seed, "--out", &trace]);
        assert_eq!(code, Some(0), "{stderr}");
    };
    generate("7");
    resumes_into_the_full_run(&["--workload", &trace, "--faults"], &ckpt, "15000");

    let document = std::fs::read_to_string(&ckpt).unwrap();
    let dispatched = document
        .split("\"dispatched\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .expect("the document records its event count");
    generate("2");
    refused_with(
        &["run", "--resume", &ckpt],
        &format!("digest mismatch after {dispatched} events"),
    );
    std::fs::remove_file(&trace).unwrap();
    refused_with(
        &["run", "--resume", &ckpt],
        &format!("cannot read trace file '{trace}'"),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A synthetic run's checkpoint resumes into the full run's report, with
/// faults off and on; edited to a mean interarrival time no generator
/// takes, it is refused.
#[test]
fn a_synthetic_checkpoint_resumes_and_an_edited_one_is_refused() {
    let ckpt = temp("synthetic.ckpt", "");
    let ckpt = ckpt.to_str().unwrap();
    let spec = ["--workload", "synthetic", "--n", "3000", "--seed", "7"];
    resumes_into_the_full_run(&[&spec[..], &["--faults"]].concat(), ckpt, "2000");
    resumes_into_the_full_run(&spec, ckpt, "2000");
    let document = std::fs::read_to_string(ckpt).unwrap();
    let mean = "\"interarrival_mean\":10.0,";
    assert!(document.contains(mean), "{document}");
    let edited = document.replacen(mean, "\"interarrival_mean\":-1.0,", 1);
    std::fs::write(ckpt, edited).unwrap();
    let want = "interarrival_mean must be finite and > 0";
    refused_with(&["run", "--resume", ckpt, "--json"], want);
    std::fs::remove_file(ckpt).ok();
}

/// The multiples of a cadence no event falls before are skipped, so one
/// of 10⁻⁶ (6·10⁹ of them over this run) ends at once, and one of 10⁻³⁰⁰,
/// whose multiples a float stops counting past 2⁵³, ends too: each run,
/// and the run resumed from the last document it wrote, reports as the
/// run without checkpoints.
#[test]
fn a_fine_cadence_ends_and_reports_as_the_unchecked_run() {
    let unchecked = report(&["run", "--n", "10", "--json"]);
    for every in ["0.000001", "1e-300"] {
        let ckpt = temp(&format!("{every}.ckpt"), "");
        let ckpt = ckpt.to_str().unwrap();
        let args = format!("run --n 10 --json --checkpoint {ckpt} --checkpoint-every {every}");
        let args: Vec<_> = args.split(' ').collect();
        assert_eq!(report(&args), unchecked, "--checkpoint-every {every}");
        assert_eq!(report(&["run", "--resume", ckpt, "--json"]), unchecked);
        std::fs::remove_file(ckpt).ok();
    }
}

/// A version-3 document (a state image) is refused by its version.
#[test]
fn resume_refuses_version_3_checkpoints() {
    let v3 = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../sim/tests/fixtures/v3_synthetic_materialized.ckpt"
    );
    refused_with(
        &["run", "--resume", v3],
        "checkpoint version 3 is not supported",
    );
}
