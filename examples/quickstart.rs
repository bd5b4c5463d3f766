//! Quickstart: build the paper's DDC, schedule a handful of VMs with RISA,
//! inspect the assignments, then run a full workload and print the report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use risa::prelude::*;
use risa::sched::ScheduleOutcome as Outcome;

fn main() {
    // --- Low-level API: drive the scheduler by hand. -------------------
    let mut cluster = Cluster::new(TopologyConfig::paper());
    let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
    let mut sched = Scheduler::new(Algorithm::Risa, &cluster);

    println!("Paper DDC (Table 1):");
    println!(
        "  {} racks x {} boxes, {} cores / {} GB RAM / {} GB storage total\n",
        cluster.num_racks(),
        cluster.num_boxes(),
        cluster.config().total_capacity_natural(ResourceKind::Cpu),
        cluster.config().total_capacity_natural(ResourceKind::Ram),
        cluster
            .config()
            .total_capacity_natural(ResourceKind::Storage),
    );

    // The paper's "typical VM": 8 cores, 16 GB RAM, 128 GB storage.
    let demand = UnitDemand::from_natural(&cluster.config().units, 8, 16, 128);
    println!("Scheduling five typical VMs ({demand}) with RISA:");
    let mut held = Vec::new();
    for i in 0..5 {
        match sched.schedule(&mut cluster, &mut net, &demand) {
            Outcome::Assigned(a) => {
                let cpu = a.placement.grant(ResourceKind::Cpu).box_id;
                println!(
                    "  vm{i}: {} in {} ({}, {} Mb/s reserved)",
                    cpu,
                    cluster.rack_of(cpu),
                    if a.intra_rack {
                        "intra-rack"
                    } else {
                        "inter-rack"
                    },
                    a.network.total_mbps(),
                );
                held.push(a);
            }
            Outcome::Dropped(r) => println!("  vm{i}: dropped ({r:?})"),
        }
    }
    println!(
        "  round-robin spread the VMs over {} distinct racks\n",
        held.iter()
            .map(|a| cluster.rack_of(a.placement.grant(ResourceKind::Cpu).box_id))
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );
    for a in &held {
        Scheduler::release(&mut cluster, &mut net, a);
    }

    // --- High-level API: a whole simulated workload. -------------------
    let report = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::synthetic(500, 42))
        .build()
        .run();
    println!("500-VM synthetic run under RISA:");
    println!("  admitted            {}", report.admitted);
    println!("  dropped             {}", report.dropped);
    println!("  inter-rack          {}", report.inter_rack_assignments);
    println!(
        "  CPU/RAM/STO util    {:.1}% / {:.1}% / {:.1}%",
        report.cpu_utilization * 100.0,
        report.ram_utilization * 100.0,
        report.storage_utilization * 100.0,
    );
    println!(
        "  optical power       {:.2} kW",
        report.optical_power_w / 1000.0
    );
    println!(
        "  mean CPU-RAM RTT    {:.0} ns",
        report.mean_cpu_ram_latency_ns
    );
}
