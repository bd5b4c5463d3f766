//! DES throughput under churn: events/sec with the canonical fault
//! scenario injected, against the faults-off baseline on the same trace.
//!
//! The fault subsystem rides the same two-lane FEL as arrivals and
//! departures, so its cost shows up directly as events/sec. This bench
//! quantifies the churn tax: a saturating single run with and without
//! faults prints the artifact numbers, then a criterion sweep
//! times a 20k-VM run with and without the canonical scenario so the
//! overhead is comparable across commits.

use criterion::{BenchmarkId, Criterion};
use risa_sim::{Algorithm, FaultSpec, SimulationBuilder, WorkloadSpec};
use risa_workload::{SyntheticConfig, Workload};

const SATURATING_VMS: u32 = 100_000;

/// One full run; returns (events, seconds, evacuated, churn drops).
fn one_run(trace: &Workload, faults: bool) -> (u64, f64, u32, u32) {
    let mut b = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::Trace(trace.clone()));
    b = if faults {
        b.faults(FaultSpec::canonical())
    } else {
        b.faults_off()
    };
    let mut sim = b.build();
    let t0 = std::time::Instant::now();
    let report = sim.run();
    let secs = t0.elapsed().as_secs_f64();
    let (evac, churn_drops) = report
        .faults
        .map_or((0, 0), |f| (f.evacuated, f.dropped_churn));
    (sim.events_dispatched(), secs, evac, churn_drops)
}

fn main() {
    println!("{}", risa_sim::host_info());
    let trace = Workload::synthetic(&SyntheticConfig::small(SATURATING_VMS, 42));

    println!(
        "des_churn artifact: saturating {SATURATING_VMS}-VM single run, \
         canonical faults vs faults-off"
    );
    let (base_events, base_secs, _, _) = one_run(&trace, false);
    let (events, secs, evac, churn_drops) = one_run(&trace, true);
    let base_rate = base_events as f64 / base_secs.max(1e-9);
    let rate = events as f64 / secs.max(1e-9);
    println!(
        "  faults-off {base_rate:.0} events/s; \
         churn {rate:.0} events/s ({:+.1}%); \
         {evac} evacuated, {churn_drops} churn drops",
        (rate / base_rate - 1.0) * 100.0,
    );
    assert!(evac > 0, "canonical scenario must displace residents");
    println!();

    let mut c = Criterion::default().configure_from_args();
    let small = Workload::synthetic(&SyntheticConfig::small(20_000, 42));
    let mut g = c.benchmark_group("des_churn_20k_full_run");
    for faults in [false, true] {
        let label = if faults { "canonical" } else { "off" };
        g.bench_with_input(BenchmarkId::from_parameter(label), &faults, |b, &faults| {
            b.iter(|| one_run(&small, faults))
        });
    }
    g.finish();
    c.final_summary();
}
