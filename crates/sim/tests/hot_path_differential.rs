//! Old-path vs new-path differential for the single-run hot loop.
//!
//! PR 5 rebuilt the engine's event delivery: arrivals stream from a
//! pre-sorted cursor instead of being pushed into the future-event list,
//! and scheduler timing is amortized. None of that may change *behavior*:
//! this suite replays canonical traces (a saturating synthetic run and
//! Azure-7500) through the **legacy engine configuration** (every arrival
//! pushed through the FEL — the pre-PR5 code path, kept as
//! `SimulationBuilder::legacy_arrival_path`) and the two-lane path,
//! asserting byte-identical `RunReport`s and event dispatch orders, at 1
//! and 8 worker threads.
//!
//! PR 6 added a third lane to the same differential: the **streaming
//! arrival pipeline** (`ArrivalMode::Streaming`) generates the trace
//! shard-by-shard during the run instead of materializing it, and must
//! also be byte-identical — same reports, same dispatch order, 1 and 8
//! threads.
//!
//! PR 7 added the fault-injection lane: the canonical **churn** scenario
//! (rack failures with evacuation, trunk/transceiver flaps) must be
//! byte-identical across arrival pipelines and pool sizes too. The
//! faults-free legs pin `.faults_off()` so the `RISA_FAULTS=1` CI leg
//! cannot change what they measure.
//!
//! PR 9 added the checkpoint/restore lane: a run snapshotted at a
//! simulated time `T`, serialized to JSON, and resumed must replay into
//! the **byte-identical** report and event dispatch order the
//! uninterrupted run produces — across arrival pipelines, pool sizes, and
//! faults on/off. A second new lane drives the chunked CSV trace-file
//! reader (`WorkloadSpec::TraceCsv`) through the streaming pipeline and
//! pins it to the generator run's bytes.
//!
//! CI runs this file under `RISA_ARRIVALS=streaming` and `RISA_FAULTS=1`
//! so no env toggle can rot.

use rayon::with_num_threads;
use risa_sim::{
    Algorithm, ArrivalMode, Checkpoint, DdcSimulation, FaultSpec, RunOutcome, RunReport,
    SimulationBuilder, WorkloadSpec,
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

/// Run one configuration to completion, returning the canonicalized
/// report (wall-clock zeroed — the one nondeterministic field) and the
/// full event dispatch order.
fn run(spec: &WorkloadSpec, algo: Algorithm, legacy: bool) -> (String, String) {
    run_mode(spec, algo, legacy, ArrivalMode::Materialized)
}

fn run_mode(
    spec: &WorkloadSpec,
    algo: Algorithm,
    legacy: bool,
    arrivals: ArrivalMode,
) -> (String, String) {
    let mut b = SimulationBuilder::new()
        .algorithm(algo)
        .workload(spec.clone())
        .arrivals(arrivals)
        .faults_off()
        .legacy_arrival_path(legacy);
    if legacy {
        // The pre-PR5 engine also timed every scheduling call.
        b = b.sched_timing_batch(1);
    }
    let mut sim = b.build();
    sim.enable_trace(20_000);
    let mut report: RunReport = sim.run();
    report.sched_seconds = 0.0;
    let json = serde_json::to_string(&report).expect("report serializes");
    let order = sim.trace().expect("trace enabled").dump();
    (json, order)
}

/// Tentpole acceptance: legacy and two-lane paths agree byte-for-byte on
/// reports *and* dispatch order.
#[test]
fn legacy_and_two_lane_paths_are_byte_identical() {
    for (name, spec) in canonical_specs() {
        for algo in [Algorithm::Risa, Algorithm::Nalb] {
            let (legacy_report, legacy_order) = run(&spec, algo, true);
            let (report, order) = run(&spec, algo, false);
            assert_eq!(
                legacy_report, report,
                "{name}/{algo}: RunReport diverged from the legacy engine"
            );
            assert_eq!(
                legacy_order, order,
                "{name}/{algo}: event dispatch order diverged"
            );
        }
    }
}

/// Thread count must not leak into the hot path: the same configuration
/// at 1 and 8 pool threads (generation is sharded; the DES loop itself is
/// single-threaded) produces identical bytes.
#[test]
fn reports_identical_at_1_and_8_jobs() {
    for (name, spec) in canonical_specs() {
        let go = || run(&spec, Algorithm::Risa, false);
        let one = with_num_threads(1, go);
        let eight = with_num_threads(8, go);
        assert_eq!(one, eight, "{name}: --jobs changed the run");
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
        .faults_off()
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
        .faults_off()
        .build();
    sim.run();
    assert!(sim.peak_fel_len() >= n as usize);
}

/// PR 6 tentpole acceptance: the **streaming** pipeline — trace generated
/// shard-by-shard during the run, nothing materialized — produces
/// byte-identical `RunReport` JSON and event dispatch order on both
/// canonical traces.
#[test]
fn streaming_pipeline_is_byte_identical_to_materialized() {
    for (name, spec) in canonical_specs() {
        for algo in [Algorithm::Risa, Algorithm::Nalb] {
            let (m_report, m_order) = run_mode(&spec, algo, false, ArrivalMode::Materialized);
            let (report, order) = run_mode(&spec, algo, false, ArrivalMode::Streaming);
            assert_eq!(
                m_report, report,
                "{name}/{algo}: streaming RunReport diverged"
            );
            assert_eq!(
                m_order, order,
                "{name}/{algo}: streaming dispatch order diverged"
            );
        }
    }
}

/// Thread count must not leak into the streaming pipeline either: shard
/// prefetch moves *where* shards generate, never what they contain.
#[test]
fn streaming_reports_identical_at_1_and_8_jobs() {
    for (name, spec) in canonical_specs() {
        let go = || run_mode(&spec, Algorithm::Risa, false, ArrivalMode::Streaming);
        let one = with_num_threads(1, go);
        let eight = with_num_threads(8, go);
        assert_eq!(one, eight, "{name}: --jobs changed the streaming run");
    }
}

/// PR 7 tentpole acceptance: the canonical churn scenario — rack
/// failures evacuating residents through the live scheduler, trunk and
/// transceiver flaps retracting bandwidth — is byte-identical (report
/// JSON **and** event dispatch order) across both arrival pipelines and
/// 1 vs 8 pool threads, on both canonical traces. Fault onsets ride the
/// same two-lane FEL as everything else, so this is the end-to-end proof
/// that churn never breaks run reproducibility.
#[test]
fn churn_scenario_is_byte_identical_across_modes_and_jobs() {
    for (name, spec) in canonical_specs() {
        let go = |arrivals: ArrivalMode| {
            let mut sim = SimulationBuilder::new()
                .algorithm(Algorithm::Risa)
                .workload(spec.clone())
                .faults(FaultSpec::canonical())
                .arrivals(arrivals)
                .build();
            sim.enable_trace(40_000);
            let mut report: RunReport = sim.run();
            report.sched_seconds = 0.0;
            let json = serde_json::to_string(&report).expect("report serializes");
            (json, sim.trace().expect("trace enabled").dump())
        };
        let base = with_num_threads(1, || go(ArrivalMode::Materialized));
        assert!(
            base.0.contains("\"faults\""),
            "{name}: churn run must report resilience metrics"
        );
        for arrivals in [ArrivalMode::Materialized, ArrivalMode::Streaming] {
            for jobs in [1usize, 8] {
                let got = with_num_threads(jobs, || go(arrivals));
                assert_eq!(
                    base, got,
                    "{name}/{arrivals:?}/jobs={jobs}: churn run diverged"
                );
            }
        }
    }
}

/// Trace capacity large enough that no lane of the checkpoint
/// differential ever evicts — prefix/suffix stitching needs every entry.
const TRACE_CAP: usize = 64_000;

fn build_cfg(spec: &WorkloadSpec, arrivals: ArrivalMode, faults: bool) -> DdcSimulation {
    let b = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(spec.clone())
        .arrivals(arrivals);
    if faults {
        b.faults(FaultSpec::canonical())
    } else {
        b.faults_off()
    }
    .build()
}

/// Full uninterrupted run: canonical report JSON, every dispatched event
/// rendered, and the simulated duration (for picking a mid-run horizon).
fn uninterrupted(
    spec: &WorkloadSpec,
    arrivals: ArrivalMode,
    faults: bool,
) -> (String, Vec<String>, f64) {
    let mut sim = build_cfg(spec, arrivals, faults);
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
fn checkpointed(
    spec: &WorkloadSpec,
    arrivals: ArrivalMode,
    faults: bool,
    t: f64,
) -> (String, Vec<String>) {
    let mut first = build_cfg(spec, arrivals, faults);
    first.enable_trace(TRACE_CAP);
    assert_eq!(
        first.run_until(t),
        RunOutcome::HorizonReached,
        "horizon must land mid-run"
    );
    let json = first.checkpoint().to_json();
    let cp = Checkpoint::from_json(&json).expect("checkpoint JSON round-trips");
    let mut resumed = cp.resume();
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
/// both canonical traces, across both arrival pipelines, 1 vs 8 pool
/// threads, and faults off/on.
#[test]
fn checkpoint_resume_is_byte_identical_across_modes_and_jobs() {
    for (name, spec) in canonical_specs() {
        for faults in [false, true] {
            // One uninterrupted baseline per fault setting; cross-config
            // byte-identity of uninterrupted runs is pinned by the other
            // differential legs, so every resumed run can compare against
            // this single reference transitively.
            let (base_report, base_events, duration) = with_num_threads(1, || {
                uninterrupted(&spec, ArrivalMode::Materialized, faults)
            });
            let t = duration * 0.4;
            for arrivals in [ArrivalMode::Materialized, ArrivalMode::Streaming] {
                for jobs in [1usize, 8] {
                    let (report, events) =
                        with_num_threads(jobs, || checkpointed(&spec, arrivals, faults, t));
                    assert_eq!(
                        base_report, report,
                        "{name}/{arrivals:?}/faults={faults}/jobs={jobs}: \
                         resumed RunReport diverged from the uninterrupted run"
                    );
                    assert_eq!(
                        base_events, events,
                        "{name}/{arrivals:?}/faults={faults}/jobs={jobs}: \
                         resumed event sequence diverged from the uninterrupted run"
                    );
                }
            }
        }
    }
}

/// PR 9 streaming-reader acceptance: a `WorkloadSpec::TraceCsv` run reads
/// the trace file in shard-sized chunks through the streaming pipeline —
/// `arrival_mode()` reports `Streaming`, peak buffered VMs stay bounded
/// by two shards — and its report and dispatch order are byte-identical
/// to the generator-backed run that produced the file.
#[test]
fn trace_csv_file_streams_chunked_and_matches_generator_run() {
    let spec = WorkloadSpec::Synthetic(SyntheticConfig::small(6000, 9));
    let (base_json, base_order) =
        run_mode(&spec, Algorithm::Risa, false, ArrivalMode::Materialized);

    let w = spec.materialize();
    let path = std::env::temp_dir().join(format!("risa_diff_trace_{}.csv", std::process::id()));
    std::fs::write(&path, risa_workload::csv::to_csv(&w)).expect("write trace file");
    let csv_spec = WorkloadSpec::TraceCsv {
        name: w.name().to_string(),
        path: path.display().to_string(),
    };

    let (json, order) = run_mode(&csv_spec, Algorithm::Risa, false, ArrivalMode::Streaming);
    assert_eq!(base_json, json, "TraceCsv streaming report diverged");
    assert_eq!(base_order, order, "TraceCsv dispatch order diverged");
    // And loaded whole, through the block reader, onto the trace cursor.
    let (json, order) = run_mode(&csv_spec, Algorithm::Risa, false, ArrivalMode::Materialized);
    assert_eq!(base_json, json, "TraceCsv materialized report diverged");
    assert_eq!(
        base_order, order,
        "TraceCsv materialized dispatch order diverged"
    );

    let mut sim = build_cfg(&csv_spec, ArrivalMode::Streaming, false);
    assert_eq!(
        sim.arrival_mode(),
        ArrivalMode::Streaming,
        "CSV trace files must stream, not fall back to materialized"
    );
    sim.run();
    let peak = sim
        .peak_buffered_arrivals()
        .expect("streaming runs report buffered high-water mark");
    assert!(
        peak <= 2 * risa_workload::shard::SHARD_SIZE as usize,
        "peak buffered VMs {peak} exceeds the two-shard bound"
    );
    std::fs::remove_file(&path).ok();
}

/// `RISA_ARRIVALS` (read when the builder gets no explicit `.arrivals()`)
/// selects the pipeline; the CI streaming leg exercises it end to end.
#[test]
fn builder_default_arrival_mode_follows_env() {
    let expected = ArrivalMode::from_env();
    let sim = SimulationBuilder::new()
        .workload(WorkloadSpec::synthetic(10, 1))
        .build();
    assert_eq!(sim.arrival_mode(), expected);
}
