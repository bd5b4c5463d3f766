//! Figure 11: scheduler execution time on the synthetic workload (paper:
//! NALB 865 s ≫ NULB 233 s > RISA-BF 112 s ≥ RISA 111 s on a Ryzen 7
//! 2700X). We benchmark the *scheduler-only* cost: one schedule+release
//! cycle on a cluster pre-loaded to ~60 % (the paper's operating point).

use criterion::{BenchmarkId, Criterion};
use rayon::prelude::*;
use risa_network::{NetworkConfig, NetworkState};
use risa_sched::{Algorithm, ScheduleOutcome, Scheduler};
use risa_sim::experiments;
use risa_topology::{Cluster, TopologyConfig, UnitDemand};

/// Pre-load the cluster to roughly the paper's §5.1 utilization.
fn loaded_state(algo: Algorithm) -> (Cluster, NetworkState, Scheduler) {
    let mut cluster = Cluster::new(TopologyConfig::paper());
    let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
    let mut sched = Scheduler::new(algo, &cluster);
    // ~650 typical VMs ≈ 60 % CPU/RAM utilization.
    let d = UnitDemand::new(4, 4, 2);
    for _ in 0..650 {
        match sched.schedule(&mut cluster, &mut net, &d) {
            ScheduleOutcome::Assigned(_) => {}
            ScheduleOutcome::Dropped(r) => panic!("preload dropped: {r:?}"),
        }
    }
    (cluster, net, sched)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_schedule_one_vm_at_60pct");
    let d = UnitDemand::new(4, 4, 2);
    // Pre-load all four per-algorithm clusters concurrently (the
    // replication setup, ~hundreds of schedules each); the measured
    // schedule/release cycles below stay sequential and uncontended.
    let states: Vec<(Cluster, NetworkState, Scheduler)> = Algorithm::ALL
        .par_iter()
        .map(|&algo| loaded_state(algo))
        .collect();
    for (algo, state) in Algorithm::ALL.into_iter().zip(states) {
        let (mut cluster, mut net, mut sched) = state;
        g.bench_with_input(BenchmarkId::from_parameter(algo), &algo, |b, _| {
            b.iter(|| match sched.schedule(&mut cluster, &mut net, &d) {
                ScheduleOutcome::Assigned(a) => Scheduler::release(&mut cluster, &mut net, &a),
                ScheduleOutcome::Dropped(r) => panic!("dropped: {r:?}"),
            });
        });
    }
    g.finish();
}

fn main() {
    println!("{}", risa_sim::host_info());
    println!("{}", experiments::fig11(42));
    println!(
        "paper: NALB 865 s > NULB 233 s > RISA-BF 112 s >= RISA 111 s (ordering is the result)\n"
    );

    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
