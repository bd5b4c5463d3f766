//! Old-path vs new-path differential for the single-run hot loop.
//!
//! PR 5 rebuilt the engine's event delivery: arrivals stream from a
//! pre-sorted cursor instead of being pushed into the future-event list,
//! and scheduler timing is amortized. None of that may change *behavior*:
//! this suite replays canonical traces (a saturating synthetic run and
//! Azure-7500) through the **legacy engine configuration** (the trace
//! materialized up front and every arrival pushed through the FEL — the
//! pre-PR5 code path, kept as `SimulationBuilder::legacy_arrival_path`)
//! and the two-lane path, asserting byte-identical `RunReport`s and event
//! dispatch orders.
//!
//! Since PR 22 the two-lane path has one feeder: every run generates its
//! workload **on demand** through one shard cursor that serves the
//! arrival lane and the world alike, so the legacy path is also the only
//! run that ever holds a generated trace — the on-demand cursor's
//! independent oracle. The arrivals axis is therefore {on-demand cursor,
//! legacy path} for generator specs — × algorithms × faults —
//! plus a CSV trace file of a generated trace (stitched by
//! `shard::materialize`), read into columns and served through the same
//! cursor.
//!
//! PR 7 added the fault-injection lane: the canonical **churn** scenario
//! (rack failures with evacuation, trunk/transceiver flaps) must be
//! byte-identical across arrival paths too. Faults are an explicit axis:
//! a leg has them only when its builder calls `.faults(…)`.
//!
//! PR 9 added the checkpoint/resume lane: a run checkpointed at a
//! simulated time `T`, serialized to JSON, and resumed — rebuilt from its
//! recipe and replayed to the recorded event count — must continue into
//! the **byte-identical** report and event dispatch order the
//! uninterrupted run produces — across arrival paths and faults on/off
//! (`tests/checkpoint_fixtures.rs` does the same for checked-in
//! documents).

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

/// Run one faults-off configuration to completion, returning the
/// canonicalized report (wall-clock zeroed — the one nondeterministic
/// field) and the full event dispatch order.
fn run(spec: &WorkloadSpec, algo: Algorithm, legacy: bool) -> (String, String) {
    run_cfg(spec, algo, legacy, false)
}

fn run_cfg(spec: &WorkloadSpec, algo: Algorithm, legacy: bool, faults: bool) -> (String, String) {
    let mut sim = build_cfg(spec, algo, legacy, faults);
    sim.enable_trace(40_000);
    let mut report: RunReport = sim.run();
    // Only the legacy path pushes the trace through the FEL; everything
    // else reads it off the arrival lane, a window at a time.
    let n = report.total_vms as usize;
    if legacy {
        assert_eq!(sim.peak_arrival_window(), 0);
        assert!(sim.peak_fel_len() >= n, "{} < {n}", sim.peak_fel_len());
    } else {
        assert!(sim.peak_arrival_window() > 0);
        assert!(sim.peak_fel_len() < n, "{} >= {n}", sim.peak_fel_len());
    }
    report.sched_seconds = 0.0;
    let json = serde_json::to_string(&report).expect("report serializes");
    let order = sim.trace().expect("trace enabled").dump();
    (json, order)
}

fn build_cfg(spec: &WorkloadSpec, algo: Algorithm, legacy: bool, faults: bool) -> DdcSimulation {
    let mut b = SimulationBuilder::new()
        .algorithm(algo)
        .workload(spec.clone())
        .legacy_arrival_path(legacy);
    if faults {
        b = b.faults(FaultSpec::canonical());
    }
    if legacy {
        // The pre-PR5 engine also timed every scheduling call.
        b = b.sched_timing_batch(1);
    }
    b.build()
}

/// Tentpole acceptance: the legacy path (trace materialized, arrivals
/// through the FEL) and the two-lane path (trace never built, arrivals
/// off the on-demand cursor) agree byte-for-byte on reports *and*
/// dispatch order — both algorithms' families, faults off and on.
#[test]
fn legacy_and_two_lane_paths_are_byte_identical() {
    for (name, spec) in canonical_specs() {
        for algo in [Algorithm::Risa, Algorithm::Nalb] {
            for faults in [false, true] {
                let (legacy_report, legacy_order) = run_cfg(&spec, algo, true, faults);
                let (report, order) = run_cfg(&spec, algo, false, faults);
                assert_eq!(
                    legacy_report, report,
                    "{name}/{algo}/faults={faults}: RunReport diverged from the legacy engine"
                );
                assert_eq!(
                    legacy_order, order,
                    "{name}/{algo}/faults={faults}: event dispatch order diverged"
                );
            }
        }
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

/// The legacy path, by contrast, *does* hold the whole trace in the FEL —
/// the contrast that proves the two-lane claim isn't vacuous.
#[test]
fn legacy_path_peaks_at_trace_length() {
    let n = 2_000u32;
    let mut sim = SimulationBuilder::new()
        .workload(WorkloadSpec::Synthetic(SyntheticConfig::small(n, 7)))
        .legacy_arrival_path(true)
        .build();
    sim.run();
    assert!(sim.peak_fel_len() >= n as usize);
}

/// On demand ≡ materialized: a generator read through the cursor and the
/// same trace built by `shard::materialize` first, written to a CSV file
/// and *served* through the cursor (`WorkloadSpec::TraceCsv`) produce
/// byte-identical `RunReport` JSON and event dispatch order on both
/// canonical traces.
#[test]
fn streaming_pipeline_is_byte_identical_to_materialized() {
    for (name, spec) in canonical_specs() {
        let (held, path) = csv_of(&spec, "held");
        for algo in [Algorithm::Risa, Algorithm::Nalb] {
            let (m_report, m_order) = run(&held, algo, false);
            let (report, order) = run(&spec, algo, false);
            assert_eq!(
                m_report, report,
                "{name}/{algo}: on-demand RunReport diverged"
            );
            assert_eq!(
                m_order, order,
                "{name}/{algo}: on-demand dispatch order diverged"
            );
        }
        std::fs::remove_file(&path).ok();
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

/// PR 7 tentpole acceptance: the canonical churn scenario — rack
/// failures evacuating residents through the live scheduler, trunk and
/// transceiver flaps retracting bandwidth — is byte-identical (report
/// JSON **and** event dispatch order) across both arrival paths, on both
/// canonical traces. Fault onsets ride the
/// same two-lane FEL as everything else, and the scenario's span comes
/// from the arrivals-only pass on the cursor's side and from the built
/// trace on the legacy side, so this is the end-to-end proof that churn
/// never breaks run reproducibility.
#[test]
fn churn_scenario_is_byte_identical_across_modes_and_jobs() {
    for (name, spec) in canonical_specs() {
        let go = |legacy: bool| run_cfg(&spec, Algorithm::Risa, legacy, true);
        let base = go(false);
        assert!(
            base.0.contains("\"faults\""),
            "{name}: churn run must report resilience metrics"
        );
        let legacy = go(true);
        assert_eq!(
            base, legacy,
            "{name}: churn run diverged on the legacy path"
        );
    }
}

/// Trace capacity large enough that no lane of the checkpoint
/// differential ever evicts — prefix/suffix stitching needs every entry.
const TRACE_CAP: usize = 64_000;

/// Full uninterrupted run: canonical report JSON, every dispatched event
/// rendered, and the simulated duration (for picking a mid-run horizon).
fn uninterrupted(spec: &WorkloadSpec, faults: bool) -> (String, Vec<String>, f64) {
    let mut sim = build_cfg(spec, Algorithm::Risa, false, faults);
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
fn checkpointed(spec: &WorkloadSpec, legacy: bool, faults: bool, t: f64) -> (String, Vec<String>) {
    let mut first = build_cfg(spec, Algorithm::Risa, legacy, faults);
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
/// both canonical traces, across both arrival paths (the cursor and the
/// legacy path, each replayed to the checkpoint's event count) and faults
/// off/on; and on the synthetic trace as a file.
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
            let mut lanes = vec![(&spec, false), (&spec, true)];
            if name.starts_with("synthetic") {
                lanes.push((&csv_spec, false));
            }
            for (spec, legacy) in lanes {
                let (report, events) = checkpointed(spec, legacy, faults, t);
                let lane = format!(
                    "{name}/csv={}/legacy={legacy}/faults={faults}",
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
    let mut sim = build_cfg(&csv_spec, Algorithm::Risa, false, false);
    sim.run();
    let peak = sim.peak_buffered_arrivals();
    assert!(
        peak <= risa_workload::shard::SHARD_SIZE as usize + 1024,
        "peak buffered VMs {peak} exceeds one shard and one window"
    );
    std::fs::remove_file(&path).ok();
}
