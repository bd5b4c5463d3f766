//! Checkpoints an earlier build wrote must resume here — or be refused,
//! typed. `tests/fixtures/` holds two version-4 documents, each beside the
//! report its run printed uninterrupted (the reports the version-3
//! fixtures pinned: the replay reaches what the state image restored):
//!
//! ```text
//! # cwd crates/sim
//! risa-cli run --workload synthetic --n 1500 --seed 7 --algo RISA --json \
//!     --checkpoint tests/fixtures/v4_synthetic.ckpt --checkpoint-every 14000
//! risa-cli run --workload tests/fixtures/steady_small.csv --algo RISA --faults --json \
//!     --checkpoint tests/fixtures/v4_csv_faults_streaming.ckpt --checkpoint-every 5000
//! ```
//!
//! Each cadence fires once, mid-run; the CSV document names its trace by
//! a path relative to the crate root, where cargo runs integration tests.
//! The build that wrote them also recorded how a trace file was read
//! (`"arrivals"`, `materialized` or `streaming` — the second asked for by
//! a run flag since removed) and a timeline recorder's sampling interval
//! (`"timeline_interval"`, `null`, the recorder since removed) and whether
//! every arrival was pushed through the future-event list
//! (`"legacy_arrival_path"`, `false`, the switch since removed); the recipe
//! has none of these keys any more, and a document that carries them
//! resumes all the same.
//! A version-3 document (a state image) pins that format's refusal, and a
//! copy of the CSV with one row edited that of changed inputs.

use risa_sim::{
    Algorithm, Checkpoint, DdcSimulation, FaultSpec, ResumeError, SimulationBuilder, WorkloadSpec,
};

const TRACE_CAP: usize = 16_000;
const CSV: &str = "tests/fixtures/steady_small.csv";

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A pretty-printed report without its one wall-clock line.
fn stable(report_json: &str) -> String {
    report_json
        .lines()
        .filter(|line| !line.contains("sched_seconds"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run to completion: the report as the CLI prints it, and every event
/// dispatched by this process.
fn finish(mut sim: DdcSimulation) -> (String, Vec<String>) {
    sim.enable_trace(TRACE_CAP);
    let report = sim.run();
    let trace = sim.trace().expect("trace enabled");
    assert!(trace.len() < TRACE_CAP, "trace evicted");
    let events = trace.entries().map(ToString::to_string).collect();
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    (stable(&json), events)
}

/// The document `ckpt` resumes into the report checked in beside it and
/// into the event order of the same run built from scratch (`fresh`).
fn resumes_into(ckpt: &str, report: &str, fresh: impl Fn() -> DdcSimulation) {
    let report = stable(&fixture(report));
    let document = fixture(ckpt);
    assert!(document.len() < 1200, "{ckpt}: a position, not a state");
    let cp = Checkpoint::from_json(&document).expect("a v4 document loads");
    let skipped = cp.events_dispatched() as usize;

    let (uninterrupted, events) = finish(fresh());
    assert_eq!(uninterrupted, report, "{ckpt}: uninterrupted report");
    assert!(
        0 < skipped && skipped < events.len(),
        "{ckpt}: taken mid-run"
    );
    let (resumed, suffix) = finish(cp.resume().expect("inputs unchanged"));
    assert_eq!(resumed, report, "{ckpt}: resumed report");
    assert_eq!(suffix, events[skipped..], "{ckpt}: resumed event order");

    // What this build writes at the same position is that document
    // without the keys the recipe dropped.
    let written = cp
        .resume()
        .expect("inputs unchanged")
        .checkpoint()
        .to_json();
    let mut without = document.trim_end().to_string();
    for dropped in [
        "\"arrivals\":",
        "\"timeline_interval\":",
        "\"legacy_arrival_path\":",
    ] {
        assert!(!written.contains(dropped), "{written}");
        let key = without.find(dropped).expect("written with the key");
        let value_end = key + without[key..].find(',').expect("not the last key") + 1;
        without.replace_range(key..value_end, "");
    }
    assert_eq!(written, without, "{ckpt}: rewritten");
}

fn csv_run(path: &str) -> DdcSimulation {
    SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::TraceCsv {
            name: "steady_small".into(),
            path: path.into(),
        })
        .faults(FaultSpec::canonical())
        .build()
}

#[test]
fn parent_written_materialized_synthetic_checkpoint_resumes() {
    assert!(fixture("v4_synthetic.ckpt").contains("\"arrivals\":\"materialized\""));
    resumes_into("v4_synthetic.ckpt", "synthetic.report.json", || {
        SimulationBuilder::new()
            .algorithm(Algorithm::Risa)
            .workload(WorkloadSpec::synthetic(1500, 7))
            .build()
    });
    // The dropped arrival-path switch is ignored whatever it says.
    let (document, key) = (
        fixture("v4_synthetic.ckpt"),
        "\"legacy_arrival_path\":false,",
    );
    let report = stable(&fixture("synthetic.report.json"));
    for edited in [
        document.replace(key, "\"legacy_arrival_path\":true,"),
        document.replace(key, ""),
    ] {
        assert_ne!(edited, document);
        let (resumed, _) = finish(Checkpoint::from_json(&edited).unwrap().resume().unwrap());
        assert_eq!(resumed, report, "{edited}");
    }
}

#[test]
fn parent_written_streaming_csv_faults_checkpoint_resumes() {
    assert!(fixture("v4_csv_faults_streaming.ckpt").contains("\"arrivals\":\"streaming\""));
    resumes_into(
        "v4_csv_faults_streaming.ckpt",
        "csv_faults_streaming.report.json",
        || csv_run(CSV),
    );
}

/// The CSV document pointed at a copy of its trace resumes; after one row
/// of the copy is edited — same row count, same length, before or after
/// the checkpoint's position — it is refused
/// with a digest mismatch naming the event count, and once the copy is
/// deleted, with the build error. Never a panic, never a wrong run.
#[test]
fn a_checkpoint_whose_trace_changed_is_refused() {
    let copy = std::env::temp_dir().join(format!("risa_ckpt_edited_{}.csv", std::process::id()));
    let original = std::fs::read_to_string(CSV).unwrap();
    std::fs::write(&copy, &original).unwrap();
    let document = fixture("v4_csv_faults_streaming.ckpt").replace(
        &format!("\"path\":\"{CSV}\""),
        &format!("\"path\":\"{}\"", copy.display()),
    );
    let cp = Checkpoint::from_json(&document).unwrap();
    let dispatched = cp.events_dispatched();
    assert!(cp.resume().is_ok(), "an identical copy is the same input");

    // VM 0 asks for 25 cores instead of 24: one more CPU unit from t ≈ 4.4,
    // inside the replayed prefix. VM 899 asks for 17 instead of 13 at
    // t ≈ 7867, past the checkpoint (t ≤ 5000): only the file's bytes show it.
    for (row, edit) in [("\n0,24,29,", "\n0,25,29,"), ("\n899,13,", "\n899,17,")] {
        let edited = original.replacen(row, edit, 1);
        assert!(edited != original && edited.len() == original.len());
        std::fs::write(&copy, &edited).unwrap();
        let err = cp.resume().expect_err("an edited trace must be refused");
        assert!(
            matches!(err, ResumeError::Digest { dispatched: d, .. } if d == dispatched),
            "{row}: {err:?}"
        );
        assert!(err
            .to_string()
            .contains(&format!("digest mismatch after {dispatched} events")));
    }

    std::fs::remove_file(&copy).unwrap();
    let err = cp.resume().expect_err("a deleted trace must be refused");
    assert!(matches!(err, ResumeError::Recipe(_)), "{err:?}");
    assert!(err.to_string().contains("cannot read trace file"), "{err}");
}

/// A version-3 document — the state image this format replaced — is
/// refused by its version, not half-parsed.
#[test]
fn v3_documents_are_refused() {
    let err = Checkpoint::from_json(&fixture("v3_synthetic_materialized.ckpt"))
        .expect_err("version 3 must be refused");
    assert_eq!(err, ResumeError::Version { found: 3 });
    assert!(err
        .to_string()
        .contains("checkpoint version 3 is not supported"));
}
