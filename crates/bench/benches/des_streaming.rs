//! On-demand generation at scale: a ≥10M-VM synthetic run that a
//! materialized trace could only attempt by holding 32 B × n in memory,
//! run the default way — one shard cursor, peak memory O(resident VMs +
//! one shard).
//!
//! The artifact section runs the big trace once, printing events/sec,
//! the cursor's peak buffered arrivals (asserted ≤ one shard + one lane
//! window), the peak FEL length, and the process peak RSS so the
//! bounded-memory claim is visible in the log. `RISA_STREAM_VMS`
//! overrides the trace size (e.g. for a quick CI smoke). The criterion
//! sweep then compares the default run with the one path that still
//! materializes — the `legacy_arrival_path` oracle — end to end on a
//! 20k-VM trace.

use criterion::{BenchmarkId, Criterion};
use risa_sim::{peak_rss_bytes, Algorithm, SimulationBuilder, WorkloadSpec};
use risa_workload::shard::SHARD_SIZE;
use risa_workload::{LifetimeModel, SyntheticConfig};

const DEFAULT_VMS: u32 = 10_000_000;

/// The big trace: fixed lifetimes keep the resident population (a memory
/// term the *workload* owns) flat while the arrival count scales.
fn big_config(vms: u32) -> SyntheticConfig {
    SyntheticConfig {
        lifetime_model: LifetimeModel::Fixed { value: 6300.0 },
        ..SyntheticConfig::small(vms, 42)
    }
}

fn main() {
    println!("{}", risa_sim::host_info());

    let vms: u32 = std::env::var("RISA_STREAM_VMS")
        .ok()
        .map(|v| v.parse().expect("RISA_STREAM_VMS must be a VM count"))
        .unwrap_or(DEFAULT_VMS);

    println!("des_streaming artifact: {vms}-VM on-demand single run");
    let mut sim = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::Synthetic(big_config(vms)))
        .faults_off() // perf baseline: comparable across env toggles
        .build();
    let t0 = std::time::Instant::now();
    let report = sim.run();
    let secs = t0.elapsed().as_secs_f64();
    let events = sim.events_dispatched();
    let peak_buffered = sim.peak_buffered_arrivals().expect("a default run");
    let rss = peak_rss_bytes()
        .map(|b| format!("{:.0} MiB", b as f64 / (1u64 << 20) as f64))
        .unwrap_or_else(|| "n/a".into());
    println!(
        "  {events} events in {secs:.3} s = {:.0} events/s; \
         peak buffered {peak_buffered} VMs, peak FEL {}, peak resident {}, peak RSS {rss} \
         (admitted {}, dropped {})",
        events as f64 / secs.max(1e-9),
        sim.peak_fel_len(),
        sim.world().peak_resident(),
        report.admitted,
        report.dropped,
    );
    assert_eq!(report.admitted + report.dropped, vms);
    assert!(
        peak_buffered <= SHARD_SIZE as usize + 1024,
        "cursor buffered {peak_buffered} VMs, more than a shard and a window"
    );
    println!();

    let mut c = Criterion::default().configure_from_args();
    let small = big_config(20_000);
    let mut g = c.benchmark_group("des_streaming_20k_full_run");
    for (name, legacy) in [("on_demand", false), ("legacy_materialized", true)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &legacy, |b, &legacy| {
            b.iter(|| {
                SimulationBuilder::new()
                    .algorithm(Algorithm::Risa)
                    .workload(WorkloadSpec::Synthetic(small))
                    .legacy_arrival_path(legacy)
                    .faults_off()
                    .build()
                    .run()
            })
        });
    }
    g.finish();
    c.final_summary();
}
