//! Bounded-memory properties of the arrival pipelines — the streaming
//! cursor's two shards, and the one window of arrivals the event queue
//! holds on every pipeline — plus the loud-rejection contract for
//! unsorted traces.

use risa_sim::{Algorithm, ArrivalMode, SimulationBuilder, WorkloadSpec};
use risa_workload::shard::SHARD_SIZE;
use risa_workload::{LifetimeModel, SyntheticConfig};

/// The arrival lane's window: the most converted arrivals the event queue
/// may hold (`ARRIVAL_WINDOW` in `risa_des::queue`).
const ARRIVAL_WINDOW: usize = 1024;

/// The memory bound the tentpole promises: over a 100k-VM streaming run
/// the workload cursor never buffers more than two shards of VMs, and the
/// per-VM bookkeeping tracks residency, not trace length. (A fixed
/// lifetime keeps the resident population small; the default staircase
/// would make resident VMs — a *separate* memory term — grow with n.)
#[test]
fn peak_buffered_arrivals_is_two_shards_on_100k_run() {
    let n = 100_000;
    let cfg = SyntheticConfig {
        lifetime_model: LifetimeModel::Fixed { value: 6300.0 },
        ..SyntheticConfig::small(n, 17)
    };
    let mut sim = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::Synthetic(cfg))
        .arrivals(ArrivalMode::Streaming)
        .faults_off() // churn events would share the FEL bound asserted below
        .build();
    let report = sim.run();
    assert_eq!(report.total_vms, n);
    assert_eq!(report.admitted + report.dropped, n);

    let peak = sim.peak_buffered_arrivals().expect("streaming run");
    assert!(
        peak <= 2 * SHARD_SIZE as usize,
        "peak buffered {peak} exceeds two shards ({})",
        2 * SHARD_SIZE
    );
    assert!(
        peak >= SHARD_SIZE as usize,
        "peak buffered {peak} implausibly small for a {n}-VM run"
    );
    // The FEL holds in-flight departures only — the other bounded term.
    assert!(sim.peak_fel_len() <= sim.world().peak_resident() as usize);
    assert!((sim.world().peak_resident() as usize) < n as usize / 10);
    // And the queue's own view of the schedule is one window (a shard's
    // worth of times is the source's, counted above).
    assert!((1..=ARRIVAL_WINDOW).contains(&sim.peak_arrival_window()));
}

/// A *materialized* run holds its trace once: the event queue reads the
/// arrival schedule from the trace the world reads, one window at a time,
/// instead of owning a second, 16 B/VM copy of it. Over 100k VMs it never
/// buffers more than that window — and it does use the window, and the
/// FEL stays as resident-bounded as on the streaming pipeline.
#[test]
fn materialized_run_buffers_one_window_of_arrivals_on_100k_run() {
    let n = 100_000;
    let cfg = SyntheticConfig {
        lifetime_model: LifetimeModel::Fixed { value: 6300.0 },
        ..SyntheticConfig::small(n, 17)
    };
    let mut sim = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::Synthetic(cfg))
        .arrivals(ArrivalMode::Materialized)
        .faults_off()
        .build();
    let report = sim.run();
    assert_eq!(report.total_vms, n);
    assert_eq!(sim.peak_arrival_window(), ARRIVAL_WINDOW);
    assert_eq!(sim.peak_buffered_arrivals(), None, "no shard cursor here");
    assert!(sim.peak_fel_len() <= sim.world().peak_resident() as usize);

    // The legacy oracle has no lane: every arrival sits in the FEL.
    let mut legacy = SimulationBuilder::new()
        .workload(WorkloadSpec::synthetic(3000, 17))
        .legacy_arrival_path(true)
        .faults_off()
        .build();
    legacy.run();
    assert_eq!(legacy.peak_arrival_window(), 0);
    assert!(legacy.peak_fel_len() >= 3000);
}

/// The bound holds under every arrival-order stress we can apply: a fast
/// arrival process that keeps tens of thousands resident still caps the
/// *cursor* at two shards (resident VMs are the workload's business, not
/// the pipeline's).
#[test]
fn saturating_run_still_caps_cursor_at_two_shards() {
    let mut sim = SimulationBuilder::new()
        .workload(WorkloadSpec::Synthetic(SyntheticConfig::small(20_000, 9)))
        .arrivals(ArrivalMode::Streaming)
        .audit(true)
        .build();
    sim.run();
    let peak = sim.peak_buffered_arrivals().unwrap();
    assert!(peak <= 2 * SHARD_SIZE as usize, "peak {peak}");
}

/// Satellite fix: an unsorted trace handed to the builder must fail
/// *loudly* in debug builds instead of silently taking the slow
/// push-through-the-FEL fallback (which masked generator ordering bugs).
/// `Workload::from_vms` already debug-asserts order, so the only way an
/// unsorted workload reaches the builder is deserialization — exactly
/// what this test does.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "not sorted by arrival")]
fn unsorted_trace_is_rejected_loudly_in_debug_builds() {
    SimulationBuilder::new()
        .workload(WorkloadSpec::Trace(tampered_trace()))
        .build();
}

/// An out-of-order trace built through serde — the one constructor
/// without the `from_vms` ordering debug-assert, i.e. the path a broken
/// trace file would actually take.
fn tampered_trace() -> risa_workload::Workload {
    let sorted = WorkloadSpec::synthetic(10, 4).materialize();
    let mut vms = sorted.vms().to_vec();
    vms.swap(2, 7); // break the order, keep ids/fields valid
    let vms_json = serde_json::to_string(&vms).unwrap();
    let json = format!("{{\"name\":\"tampered\",\"vms\":{vms_json}}}");
    risa_workload::Workload::from_json(&json).unwrap()
}

/// The legacy oracle path deliberately pushes every arrival through the
/// FEL and never requires sortedness — it must keep accepting unsorted
/// traces (that is its job), even in debug builds.
#[test]
fn legacy_path_accepts_unsorted_traces() {
    let report = SimulationBuilder::new()
        .workload(WorkloadSpec::Trace(tampered_trace()))
        .legacy_arrival_path(true)
        .build()
        .run();
    assert_eq!(report.total_vms, 10);
    assert_eq!(report.admitted, 10);
}
