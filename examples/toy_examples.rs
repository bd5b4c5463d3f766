//! Reproduces §4.3 of the paper: the Table 3 toy DDC, toy example 1
//! (NULB/NALB vs RISA on a typical VM) and toy example 2 / Table 4
//! (RISA vs RISA-BF packing of eight CPU-only VMs).
//!
//! ```sh
//! cargo run --release --example toy_examples
//! ```

use risa::network::{FlowDemands, NetworkConfig, NetworkState};
use risa::prelude::*;
use risa::sched::{toy, ScheduleOutcome as Outcome};

fn main() {
    toy_example_1();
    toy_example_2();
}

/// §4.3.1: on the Table 3 state, NULB/NALB pick boxes (2, 1, 2) spanning
/// racks; RISA picks (2, 2, 2), all in rack 1.
fn toy_example_1() {
    println!("=== Toy example 1 (paper §4.3.1, Table 3) ===");
    let ids = toy::table3_ids();
    for algo in [Algorithm::Nulb, Algorithm::Nalb, Algorithm::Risa] {
        let mut cluster = toy::table3_cluster();
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut sched = Scheduler::new(algo, &cluster);
        let demand = toy::typical_vm_demand(&cluster);
        match sched.schedule(&mut cluster, &mut net, &demand) {
            Outcome::Assigned(a) => {
                let table_id = |b: risa::topology::BoxId, list: &[risa::topology::BoxId; 4]| {
                    list.iter().position(|&x| x == b).unwrap()
                };
                let cpu = a.placement.grant(ResourceKind::Cpu).box_id;
                let ram = a.placement.grant(ResourceKind::Ram).box_id;
                let sto = a.placement.grant(ResourceKind::Storage).box_id;
                println!(
                    "  {algo:<7} -> CPU/RAM/STO table ids ({}, {}, {})  [{}]",
                    table_id(cpu, &ids.cpu),
                    table_id(ram, &ids.ram),
                    table_id(sto, &ids.sto),
                    if a.intra_rack {
                        "intra-rack"
                    } else {
                        "inter-rack"
                    },
                );
            }
            Outcome::Dropped(r) => println!("  {algo:<7} -> dropped ({r:?})"),
        }
    }
    println!("  (paper: NULB/NALB = (2,1,2) inter-rack; RISA = (2,2,2) intra-rack)\n");
}

/// §4.3.2 / Table 4: eight CPU-only VMs on rack 1 (64 + 32 cores free).
/// RISA's next-fit fills box 0 then box 1; RISA-BF alternates by best-fit.
/// Note: the paper's Table 4 RISA-BF column claims VM 6 (16 cores) fits,
/// but the eight VMs total 100 cores against 96 available — VM 6 is
/// unplaceable under any policy (see `risa::sched::toy`).
fn toy_example_2() {
    println!("=== Toy example 2 (paper §4.3.2, Table 4) ===");
    println!("  VM:        {:?}", toy::TABLE4_CPU_REQUESTS);
    for (algo, label) in [(Algorithm::Risa, "RISA"), (Algorithm::RisaBf, "RISA-BF")] {
        let mut cluster = toy::table4_cluster();
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut sched = Scheduler::new(algo, &cluster);
        let ids = toy::table3_ids();
        let mut row = Vec::new();
        for cores in toy::TABLE4_CPU_REQUESTS {
            let demand = UnitDemand::from_natural(&cluster.config().units, cores, 0, 0);
            // §4.3: "assume there are enough network resources".
            let no_flows = FlowDemands {
                cpu_ram_mbps: 0,
                ram_sto_mbps: 0,
            };
            match sched.schedule_with_flows(&mut cluster, &mut net, &demand, &no_flows) {
                Outcome::Assigned(a) => {
                    let b = a.placement.grant(ResourceKind::Cpu).box_id;
                    row.push(if b == ids.cpu[3] { "1" } else { "0" }.to_string());
                }
                Outcome::Dropped(_) => row.push("NA".into()),
            }
        }
        println!("  {label:<8} rack-1 box: {row:?}");
    }
    println!("  (paper Table 4: RISA 0,0,0,1,1,1,NA,1; RISA-BF 1,1,0,0,1,0,[impossible],0)");
}
