//! DES hot-loop throughput: events/sec on a saturating single run.
//!
//! Figures 11/12 of the paper are *scheduler execution time* plots, so the
//! single-run event loop is the measurement instrument of this
//! reproduction. This bench tracks the instrument itself: a 100k-VM
//! synthetic trace (saturating the paper cluster) is replayed end to end,
//! reporting events dispatched per second and the peak FEL length — which
//! the two-lane queue keeps at O(resident VMs), not O(trace length). The
//! criterion group then times a 20k-VM run so the numbers are comparable
//! across commits.

use criterion::Criterion;
use risa_sim::{Algorithm, SimulationBuilder, WorkloadSpec};
use risa_workload::{SyntheticConfig, Workload};

const SATURATING_VMS: u32 = 100_000;

/// One full run; returns (events, seconds, peak FEL, admitted, dropped).
fn one_run(trace: &Workload) -> (u64, f64, usize, u32, u32) {
    let mut sim = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::Trace(trace.clone()))
        .faults_off() // perf baseline: comparable across env toggles
        .build();
    let t0 = std::time::Instant::now();
    let report = sim.run();
    let secs = t0.elapsed().as_secs_f64();
    (
        sim.events_dispatched(),
        secs,
        sim.peak_fel_len(),
        report.admitted,
        report.dropped,
    )
}

fn main() {
    println!("{}", risa_sim::host_info());
    let trace = Workload::synthetic(&SyntheticConfig::small(SATURATING_VMS, 42));

    println!("des_hot_loop artifact: saturating {SATURATING_VMS}-VM single run");
    let (events, secs, peak_fel, admitted, dropped) = one_run(&trace);
    println!(
        "  {events} events in {secs:.3} s = {:.0} events/s; \
         peak FEL {peak_fel} (trace {SATURATING_VMS}; admitted {admitted}, dropped {dropped})",
        events as f64 / secs.max(1e-9),
    );
    assert!(
        peak_fel < SATURATING_VMS as usize / 4,
        "peak FEL must stay resident-bounded"
    );
    println!();

    let mut c = Criterion::default().configure_from_args();
    let small = Workload::synthetic(&SyntheticConfig::small(20_000, 42));
    let mut g = c.benchmark_group("des_hot_loop_20k_full_run");
    g.bench_function("risa", |b| b.iter(|| one_run(&small)));
    g.finish();
    c.final_summary();
}
