//! Checkpoints the *parent commit's* binary wrote must resume here.
//!
//! `CHECKPOINT_VERSION` did not move when the arrival pipelines became
//! one cursor, so version-3 documents written before it — by a run that
//! materialized its synthetic trace, and by one that streamed a CSV file
//! through two cursors and recorded `stream_consumed` — have to load and
//! replay into the uninterrupted run's exact report and event order.
//! `tests/fixtures/` holds two such documents, each with the report the
//! same parent process printed for its (uninterrupted: checkpoints are a
//! pure tap) run:
//!
//! ```text
//! # PR 21 head (f1218a3), cwd crates/sim, --jobs default
//! risa-cli run --workload synthetic --n 1500 --seed 7 --algo RISA --json \
//!     --checkpoint tests/fixtures/v3_synthetic_materialized.ckpt --checkpoint-every 14000
//! risa-cli run --workload tests/fixtures/steady_small.csv --algo RISA --faults \
//!     --arrivals streaming --json \
//!     --checkpoint tests/fixtures/v3_csv_faults_streaming.ckpt --checkpoint-every 5000
//! ```
//!
//! Each cadence fires once, mid-arrivals (154 of 1 500 and 340 of 900
//! arrivals still to come; the CSV run has one link down across it). The
//! CSV checkpoint names its trace by the relative path it was given, so
//! this file relies on cargo running integration tests from the crate
//! root.

use rayon::with_num_threads;
use risa_sim::{
    Algorithm, ArrivalMode, Checkpoint, DdcSimulation, FaultSpec, SimulationBuilder, WorkloadSpec,
};

const TRACE_CAP: usize = 16_000;

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

/// The parent's document `ckpt` resumes — at 1 and 8 pool threads — into
/// the report the parent printed and into the event order of the same
/// run built from scratch by this commit (`fresh`, under each arrival
/// mode given).
fn resumes_into(ckpt: &str, parent_report: &str, fresh: impl Fn(ArrivalMode) -> DdcSimulation) {
    let parent_report = stable(&fixture(parent_report));
    let document = fixture(ckpt);
    let cp = Checkpoint::from_json(&document).expect("a parent-written v3 document loads");
    assert!(cp.arrivals_remaining() > 0, "{ckpt}: taken mid-arrivals");
    let skipped = cp.events_dispatched() as usize;

    for mode in ArrivalMode::ALL {
        let (report, events) = finish(fresh(mode));
        assert_eq!(report, parent_report, "{ckpt}/{mode}: uninterrupted report");
        for threads in [1usize, 8] {
            let (resumed, suffix) = with_num_threads(threads, || finish(cp.resume()));
            assert_eq!(
                resumed, parent_report,
                "{ckpt}/threads={threads}: resumed report"
            );
            assert_eq!(
                suffix,
                events[skipped..],
                "{ckpt}/{mode}/threads={threads}: resumed event order"
            );
        }
    }
}

#[test]
fn parent_written_materialized_synthetic_checkpoint_resumes() {
    assert!(fixture("v3_synthetic_materialized.ckpt").contains("\"arrivals\":\"materialized\""));
    resumes_into(
        "v3_synthetic_materialized.ckpt",
        "v3_synthetic_materialized.report.json",
        |mode| {
            SimulationBuilder::new()
                .algorithm(Algorithm::Risa)
                .workload(WorkloadSpec::synthetic(1500, 7))
                .arrivals(mode)
                .faults_off()
                .build()
        },
    );
}

#[test]
fn parent_written_streaming_csv_faults_checkpoint_resumes() {
    let document = fixture("v3_csv_faults_streaming.ckpt");
    assert!(document.contains("\"arrivals\":\"streaming\""));
    assert!(
        document.contains("\"stream_consumed\":560"),
        "the parent's world block still carries its second cursor's position"
    );
    resumes_into(
        "v3_csv_faults_streaming.ckpt",
        "v3_csv_faults_streaming.report.json",
        |mode| {
            SimulationBuilder::new()
                .algorithm(Algorithm::Risa)
                .workload(WorkloadSpec::TraceCsv {
                    name: "steady_small".into(),
                    path: "tests/fixtures/steady_small.csv".into(),
                })
                .arrivals(mode)
                .faults(FaultSpec::canonical())
                .build()
        },
    );
}
