//! Byte identity across the ways a run can be fed and resumed, on the
//! canonical traces (a saturating synthetic run and Azure-7500): a
//! generator read on demand through the one shard cursor against the same
//! trace written to a CSV file and served through that cursor from
//! columns; and a run checkpointed at `T`, serialized, resumed (rebuilt
//! from its recipe and replayed to the recorded event count) against the
//! uninterrupted run, faults off and on; and the canonical churn scenario
//! across both feeds — `RunReport`s and event dispatch orders alike. The lane against a run that pushes every arrival through
//! the future-event list is `risa-sim`'s in-crate `push_oracle`;
//! `tests/checkpoint_fixtures.rs` resumes checked-in documents.

use risa_sim::{
    Algorithm, Checkpoint, DdcSimulation, FaultSpec, RunOutcome, RunReport, SimulationBuilder,
    WorkloadSpec,
};
use risa_workload::{AzureSubset, SyntheticConfig};

/// The two canonical traces: a synthetic run that saturates the paper
/// cluster (drops exercised) and the largest Azure slice.
fn canonical_specs() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        (
            "synthetic-6000-saturating",
            WorkloadSpec::Synthetic(SyntheticConfig::small(6000, 9)),
        ),
        ("azure-7500", WorkloadSpec::azure(AzureSubset::N7500, 2023)),
    ]
}

/// Run one configuration to completion, audited, returning the
/// canonicalized report (wall-clock zeroed — the one nondeterministic
/// field), the full event dispatch order, and the events dispatched and
/// the peak FEL length.
fn run(spec: &WorkloadSpec, algo: Algorithm, faults: bool) -> (String, String, (u64, usize)) {
    let mut sim = build_cfg(spec, algo, faults);
    sim.enable_trace(40_000);
    let mut report: RunReport = sim.run();
    // The trace is read off the arrival lane, a window at a time.
    let n = report.total_vms as usize;
    assert!(sim.peak_arrival_window() > 0);
    assert!(sim.peak_fel_len() < n, "{} >= {n}", sim.peak_fel_len());
    report.sched_seconds = 0.0;
    let json = serde_json::to_string(&report).expect("report serializes");
    let order = sim.trace().expect("trace enabled").dump();
    (json, order, (sim.events_dispatched(), sim.peak_fel_len()))
}

fn build_cfg(spec: &WorkloadSpec, algo: Algorithm, faults: bool) -> DdcSimulation {
    let b = SimulationBuilder::new()
        .algorithm(algo)
        .workload(spec.clone())
        .audit(true);
    if faults {
        b.faults(FaultSpec::canonical()).build()
    } else {
        b.build()
    }
}

/// The two-lane queue's core promise: the FEL never holds the trace, only
/// in-flight departures — peak FEL length is bounded by peak resident VMs
/// and stays far below the total VM count.
#[test]
fn peak_fel_is_resident_bounded_on_10k_run() {
    let mut sim = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::Synthetic(SyntheticConfig::small(10_000, 7)))
        .build();
    sim.run();
    let peak_fel = sim.peak_fel_len();
    let peak_resident = sim.world().peak_resident() as usize;
    assert!(peak_resident > 0);
    assert!(
        peak_fel <= peak_resident,
        "peak FEL {peak_fel} exceeds peak resident {peak_resident}"
    );
    assert!(
        peak_fel < 10_000 / 4,
        "peak FEL {peak_fel} is not ≪ the 10k trace length"
    );
}

/// On demand ≡ materialized: a generator read through the cursor and the
/// same trace built by `shard::materialize` first, written to a CSV file
/// and *served* through the cursor (`WorkloadSpec::TraceCsv`) produce
/// byte-identical `RunReport` JSON and event dispatch order, and the same
/// event count and peak FEL length, on both canonical traces, audited.
#[test]
fn streaming_pipeline_is_byte_identical_to_materialized() {
    for (name, spec) in canonical_specs() {
        let (held, path) = csv_of(&spec, "held");
        for algo in [Algorithm::Risa, Algorithm::Nalb] {
            let (m_report, m_order, m_counts) = run(&held, algo, false);
            let (report, order, counts) = run(&spec, algo, false);
            assert_eq!(
                m_report, report,
                "{name}/{algo}: on-demand RunReport diverged"
            );
            assert_eq!(
                m_order, order,
                "{name}/{algo}: on-demand dispatch order diverged"
            );
            assert_eq!(
                m_counts, counts,
                "{name}/{algo}: on-demand event count or peak FEL diverged"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The canonical churn scenario — rack failures evacuating residents
/// through the live scheduler, trunk and transceiver flaps retracting
/// bandwidth — is byte-identical (report JSON **and** event dispatch
/// order) whether the trace is generated on demand or served from a CSV
/// file of it, on both canonical traces. The scenario's span comes from an
/// arrivals-only pass over the generator on one side and over the file's
/// columns on the other, so this pins churn's reproducibility across feeds
/// (the lane against the push-every-arrival run under churn is
/// `risa-sim`'s in-crate `push_oracle`).
#[test]
fn churn_scenario_is_byte_identical_across_modes_and_jobs() {
    for (name, spec) in canonical_specs() {
        let (held, path) = csv_of(&spec, "churn");
        let base = run(&spec, Algorithm::Risa, true);
        assert!(
            base.0.contains("\"faults\":{"),
            "{name}: churn run must report resilience metrics"
        );
        let file = run(&held, Algorithm::Risa, true);
        std::fs::remove_file(&path).ok();
        assert_eq!(
            base.0, file.0,
            "{name}: churn RunReport diverged on the file"
        );
        assert_eq!(
            base.1, file.1,
            "{name}: churn dispatch order diverged on the file"
        );
    }
}

/// `spec`'s trace written to a CSV file: the spec that reads it back,
/// and the file to remove afterwards.
fn csv_of(spec: &WorkloadSpec, tag: &str) -> (WorkloadSpec, std::path::PathBuf) {
    let w = spec.materialize();
    let path =
        std::env::temp_dir().join(format!("risa_diff_trace_{}_{tag}.csv", std::process::id()));
    std::fs::write(&path, risa_workload::csv::to_csv(&w)).expect("write trace file");
    let csv_spec = WorkloadSpec::TraceCsv {
        name: w.name().to_string(),
        path: path.display().to_string(),
    };
    (csv_spec, path)
}

/// Trace capacity large enough that no lane of the checkpoint
/// differential ever evicts — prefix/suffix stitching needs every entry.
const TRACE_CAP: usize = 64_000;

/// Full uninterrupted run: canonical report JSON, every dispatched event
/// rendered, and the simulated duration (for picking a mid-run horizon).
fn uninterrupted(spec: &WorkloadSpec, faults: bool) -> (String, Vec<String>, f64) {
    let mut sim = build_cfg(spec, Algorithm::Risa, faults);
    sim.enable_trace(TRACE_CAP);
    let mut report = sim.run();
    report.sched_seconds = 0.0;
    let trace = sim.trace().expect("trace enabled");
    assert_eq!(trace.recorded(), trace.len() as u64, "trace evicted");
    let events = trace.entries().map(ToString::to_string).collect();
    (
        serde_json::to_string(&report).expect("report serializes"),
        events,
        report.sim_duration,
    )
}

/// The same run split in two: run to `t`, checkpoint, serialize to JSON,
/// load it back, resume, run to completion. Returns the report and the
/// stitched prefix + suffix event sequence.
fn checkpointed(spec: &WorkloadSpec, faults: bool, t: f64) -> (String, Vec<String>) {
    let mut first = build_cfg(spec, Algorithm::Risa, faults);
    first.enable_trace(TRACE_CAP);
    assert_eq!(
        first.run_until(t),
        RunOutcome::HorizonReached,
        "horizon must land mid-run"
    );
    let json = first.checkpoint().to_json();
    let cp = Checkpoint::from_json(&json).expect("checkpoint JSON round-trips");
    let mut resumed = cp.resume().expect("an untouched run resumes");
    resumed.enable_trace(TRACE_CAP);
    let mut report = resumed.run();
    report.sched_seconds = 0.0;

    let prefix = first.trace().expect("trace enabled");
    assert_eq!(prefix.recorded(), prefix.len() as u64, "prefix evicted");
    let suffix = resumed.trace().expect("trace enabled");
    assert_eq!(
        suffix.recorded() - cp.events_dispatched(),
        suffix.len() as u64,
        "suffix evicted"
    );
    let mut events: Vec<String> = prefix.entries().map(ToString::to_string).collect();
    events.extend(suffix.entries().map(ToString::to_string));
    (
        serde_json::to_string(&report).expect("report serializes"),
        events,
    )
}

/// PR 9 tentpole acceptance: checkpoint-at-T / JSON round-trip / resume
/// replays into the uninterrupted run's exact bytes — report JSON **and**
/// the full event sequence (prefix recorded before the snapshot plus
/// suffix recorded after resume, with continuous sequence numbers) — on
/// both canonical traces, faults off/on, and on the synthetic trace as a
/// file.
#[test]
fn checkpoint_resume_is_byte_identical_across_modes_and_jobs() {
    let (csv_spec, path) = csv_of(&canonical_specs()[0].1, "ckpt");
    for (name, spec) in canonical_specs() {
        for faults in [false, true] {
            // One uninterrupted baseline per fault setting; cross-config
            // byte-identity of uninterrupted runs is pinned by the other
            // differential legs, so every resumed run can compare against
            // this single reference transitively.
            let (base_report, base_events, duration) = uninterrupted(&spec, faults);
            let t = duration * 0.4;
            let mut lanes = vec![&spec];
            if name.starts_with("synthetic") {
                lanes.push(&csv_spec);
            }
            for spec in lanes {
                let (report, events) = checkpointed(spec, faults, t);
                let lane = format!(
                    "{name}/csv={}/faults={faults}",
                    matches!(spec, WorkloadSpec::TraceCsv { .. })
                );
                assert_eq!(
                    base_report, report,
                    "{lane}: resumed RunReport diverged from the uninterrupted run"
                );
                assert_eq!(
                    base_events, events,
                    "{lane}: resumed event sequence diverged from the uninterrupted run"
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// PR 9 trace-file acceptance: a `WorkloadSpec::TraceCsv` run — the file
/// read into columns and served to the one cursor in shard-sized chunks —
/// keeps the cursor's buffer within a shard and a window (its bytes are
/// pinned against the generator run by
/// `streaming_pipeline_is_byte_identical_to_materialized`).
#[test]
fn trace_csv_file_streams_chunked_and_matches_generator_run() {
    let spec = WorkloadSpec::Synthetic(SyntheticConfig::small(6000, 9));
    let (csv_spec, path) = csv_of(&spec, "csv");
    let mut sim = build_cfg(&csv_spec, Algorithm::Risa, false);
    sim.run();
    let peak = sim.peak_buffered_arrivals();
    assert!(
        peak <= risa_workload::shard::SHARD_SIZE as usize + 1024,
        "peak buffered VMs {peak} exceeds one shard and one window"
    );
    std::fs::remove_file(&path).ok();
}
