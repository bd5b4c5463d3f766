//! Figure 12: scheduler execution time on the Azure workloads (paper:
//! Azure-7500 — NALB 15 929 s, NULB 10 361 s, RISA 3 679 s, RISA-BF
//! 4 013 s; RISA 2.81×/4.33× faster than NULB/NALB). We benchmark one
//! schedule+release cycle with an Azure-typical small VM on a cluster
//! pre-loaded with Azure-like demands.

use criterion::{BenchmarkId, Criterion};
use rayon::prelude::*;
use risa_network::{NetworkConfig, NetworkState};
use risa_sched::{Algorithm, ScheduleOutcome, Scheduler};
use risa_sim::experiments;
use risa_topology::{Cluster, TopologyConfig, UnitDemand};

fn loaded_state(algo: Algorithm) -> (Cluster, NetworkState, Scheduler) {
    let mut cluster = Cluster::new(TopologyConfig::paper());
    let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
    let mut sched = Scheduler::new(algo, &cluster);
    // Azure-typical VM: 1-2 cores, small RAM, 128 GB storage; load until
    // storage (the contended resource) reaches ~60 %.
    let d = UnitDemand::new(1, 1, 2);
    for _ in 0..1400 {
        match sched.schedule(&mut cluster, &mut net, &d) {
            ScheduleOutcome::Assigned(_) => {}
            ScheduleOutcome::Dropped(r) => panic!("preload dropped: {r:?}"),
        }
    }
    (cluster, net, sched)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_schedule_one_azure_vm");
    let d = UnitDemand::new(1, 1, 2);
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
    println!("{}", experiments::fig12(2023));
    println!("paper Azure-7500: NALB 15929 s > NULB 10361 s > RISA-BF 4013 s > RISA 3679 s");
    println!("(RISA 2.81x vs NULB, 4.33x vs NALB — the ordering is the result)\n");

    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
