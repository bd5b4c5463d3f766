//! Bounded-memory properties of the arrival pipeline — the one shard the
//! workload cursor holds, and the one window of arrivals the event queue
//! holds — plus the loud-rejection contract for unsorted traces.

use risa_sim::{Algorithm, SimulationBuilder, WorkloadSpec};
use risa_workload::shard::SHARD_SIZE;
use risa_workload::{LifetimeModel, SyntheticConfig};

/// The arrival lane's window: the most converted arrivals the event queue
/// may hold (`ARRIVAL_WINDOW` in `risa_des::queue`).
const ARRIVAL_WINDOW: usize = 1024;

fn fixed_lifetime_100k() -> (u32, WorkloadSpec) {
    let n = 100_000;
    let cfg = SyntheticConfig {
        lifetime_model: LifetimeModel::Fixed { value: 6300.0 },
        ..SyntheticConfig::small(n, 17)
    };
    (n, WorkloadSpec::Synthetic(cfg))
}

/// The memory bound the tentpole promises, on a *default* run: over
/// 100k generated VMs the trace is never allocated — the workload cursor
/// buffers one shard, plus at most the lane's window, and the queue holds
/// one window of converted arrivals — and the per-VM bookkeeping tracks
/// residency, not trace length. (A fixed lifetime keeps the resident
/// population small; the default staircase would make resident VMs — a
/// *separate* memory term — grow with n.)
#[test]
fn default_run_buffers_one_shard_and_one_window_on_100k_run() {
    let (n, spec) = fixed_lifetime_100k();
    let mut sim = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(spec)
        .faults_off() // churn events would share the FEL bound asserted below
        .build();
    let report = sim.run();
    assert_eq!(report.total_vms, n);
    assert_eq!(report.admitted + report.dropped, n);

    let peak = sim
        .peak_buffered_arrivals()
        .expect("every non-legacy run reads the cursor");
    assert!(
        (SHARD_SIZE as usize..=SHARD_SIZE as usize + ARRIVAL_WINDOW).contains(&peak),
        "peak buffered {peak} is not one shard (+ at most one window)"
    );
    assert_eq!(
        sim.world().stream_shards_generated(),
        Some(n.div_ceil(SHARD_SIZE)),
        "each shard generated once"
    );
    // The FEL holds in-flight departures only — the other bounded term.
    assert!(sim.peak_fel_len() <= sim.world().peak_resident() as usize);
    assert!((sim.world().peak_resident() as usize) < n as usize / 10);
    // And the queue's own view of the schedule is one window, which a
    // shard fills exactly four times.
    assert_eq!(sim.peak_arrival_window(), ARRIVAL_WINDOW);
}

/// A *materialized* trace is held once: a pre-built 100k-VM trace is
/// served through the same cursor a shard-sized slice at a time, and the
/// event queue reads the arrival schedule off that slice one window at a
/// time instead of owning a second, 16 B/VM copy of it — and the FEL
/// stays as resident-bounded as on a generated run.
#[test]
fn materialized_run_buffers_one_window_of_arrivals_on_100k_run() {
    let (n, spec) = fixed_lifetime_100k();
    let mut sim = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::Trace(spec.materialize()))
        .faults_off()
        .build();
    let report = sim.run();
    assert_eq!(report.total_vms, n);
    assert_eq!(sim.peak_arrival_window(), ARRIVAL_WINDOW);
    assert_eq!(sim.peak_buffered_arrivals(), Some(SHARD_SIZE as usize));
    assert!(sim.peak_fel_len() <= sim.world().peak_resident() as usize);

    // The legacy oracle has neither lane nor cursor: every arrival sits
    // in the FEL, over the whole trace.
    let mut legacy = SimulationBuilder::new()
        .workload(WorkloadSpec::synthetic(3000, 17))
        .legacy_arrival_path(true)
        .faults_off()
        .build();
    legacy.run();
    assert_eq!(legacy.peak_arrival_window(), 0);
    assert_eq!(legacy.peak_buffered_arrivals(), None);
    assert!(legacy.peak_fel_len() >= 3000);
}

/// The bound holds under every arrival-order stress we can apply: a fast
/// arrival process that keeps tens of thousands resident still caps the
/// *cursor* at its one shard — well inside the two the prefetching cursor
/// this test was named for was allowed (resident VMs are the workload's
/// business, not the pipeline's).
#[test]
fn saturating_run_still_caps_cursor_at_two_shards() {
    let mut sim = SimulationBuilder::new()
        .workload(WorkloadSpec::Synthetic(SyntheticConfig::small(20_000, 9)))
        .audit(true)
        .build();
    sim.run();
    let peak = sim.peak_buffered_arrivals().unwrap();
    assert!(peak <= SHARD_SIZE as usize + ARRIVAL_WINDOW, "peak {peak}");
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
