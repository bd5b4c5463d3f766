//! Bounded-memory properties of the arrival pipeline — the one shard the
//! workload cursor holds, and the one window of arrivals the event queue
//! holds.

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
        .workload(spec) // no faults: churn events would share the FEL bound below
        .build();
    let report = sim.run();
    assert_eq!(report.total_vms, n);
    assert_eq!(report.admitted + report.dropped, n);

    let peak = sim.peak_buffered_arrivals();
    assert!(
        (SHARD_SIZE as usize..=SHARD_SIZE as usize + ARRIVAL_WINDOW).contains(&peak),
        "peak buffered {peak} is not one shard (+ at most one window)"
    );
    assert_eq!(
        sim.world().stream_shards_generated(),
        n.div_ceil(SHARD_SIZE),
        "each shard generated once"
    );
    // The FEL holds in-flight departures only — the other bounded term.
    assert!(sim.peak_fel_len() <= sim.world().peak_resident() as usize);
    assert!((sim.world().peak_resident() as usize) < n as usize / 10);
    // And the queue's own view of the schedule is one window, which a
    // shard fills exactly four times.
    assert_eq!(sim.peak_arrival_window(), ARRIVAL_WINDOW);
}

/// A *materialized* trace is held once: a 100k-VM trace file, loaded
/// whole, is served through the same cursor a shard-sized slice at a
/// time, and the event queue reads the arrival schedule off that slice
/// one window at a time instead of owning a second, 16 B/VM copy of it —
/// and the FEL stays as resident-bounded as on a generated run.
#[test]
fn materialized_run_buffers_one_window_of_arrivals_on_100k_run() {
    let (n, spec) = fixed_lifetime_100k();
    let path = std::env::temp_dir().join(format!("risa_bounds_{}.csv", std::process::id()));
    std::fs::write(&path, risa_workload::csv::to_csv(&spec.materialize())).unwrap();
    let mut sim = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::TraceCsv {
            name: "synthetic".into(),
            path: path.display().to_string(),
        })
        .build();
    std::fs::remove_file(&path).ok();
    let report = sim.run();
    assert_eq!(report.total_vms, n);
    assert_eq!(sim.peak_arrival_window(), ARRIVAL_WINDOW);
    assert_eq!(sim.peak_buffered_arrivals(), SHARD_SIZE as usize);
    assert!(sim.peak_fel_len() <= sim.world().peak_resident() as usize);
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
    let peak = sim.peak_buffered_arrivals();
    assert!(peak <= SHARD_SIZE as usize + ARRIVAL_WINDOW, "peak {peak}");
}
