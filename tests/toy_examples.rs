//! Integration reproduction of the paper's §4.3 toy examples through the
//! public facade (Tables 3 and 4).

use risa::network::{FlowDemands, NetworkConfig, NetworkState};
use risa::prelude::*;
use risa::sched::{toy, ScheduleOutcome};

fn assign(
    algo: Algorithm,
    cluster: &mut Cluster,
    net: &mut NetworkState,
) -> risa::sched::VmAssignment {
    let demand = toy::typical_vm_demand(cluster);
    let mut sched = Scheduler::new(algo, cluster);
    match sched.schedule(cluster, net, &demand) {
        ScheduleOutcome::Assigned(a) => a,
        ScheduleOutcome::Dropped(r) => panic!("{algo} dropped the typical VM: {r:?}"),
    }
}

/// §4.3.1: NULB and NALB choose table ids (2, 1, 2) — inter-rack; RISA
/// chooses (2, 2, 2) — intra-rack.
#[test]
fn toy_example_1_matches_paper() {
    let ids = toy::table3_ids();
    for algo in [Algorithm::Nulb, Algorithm::Nalb] {
        let mut cluster = toy::table3_cluster();
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let a = assign(algo, &mut cluster, &mut net);
        assert_eq!(a.placement.grant(ResourceKind::Cpu).box_id, ids.cpu[2]);
        assert_eq!(a.placement.grant(ResourceKind::Ram).box_id, ids.ram[1]);
        assert_eq!(a.placement.grant(ResourceKind::Storage).box_id, ids.sto[2]);
        assert!(!a.intra_rack, "{algo} must go inter-rack here");
    }
    // RISA: exactly the paper's (2, 2, 2).
    {
        let mut cluster = toy::table3_cluster();
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let a = assign(Algorithm::Risa, &mut cluster, &mut net);
        assert_eq!(a.placement.grant(ResourceKind::Cpu).box_id, ids.cpu[2]);
        assert_eq!(a.placement.grant(ResourceKind::Ram).box_id, ids.ram[2]);
        assert_eq!(a.placement.grant(ResourceKind::Storage).box_id, ids.sto[2]);
        assert!(a.intra_rack);
    }
    // RISA-BF: best-fit prefers the fuller boxes (3, 3, 2) — still all in
    // rack 1, which is the property the toy example demonstrates.
    {
        let mut cluster = toy::table3_cluster();
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let a = assign(Algorithm::RisaBf, &mut cluster, &mut net);
        assert_eq!(a.placement.grant(ResourceKind::Cpu).box_id, ids.cpu[3]);
        assert_eq!(a.placement.grant(ResourceKind::Ram).box_id, ids.ram[3]);
        assert_eq!(a.placement.grant(ResourceKind::Storage).box_id, ids.sto[2]);
        assert!(a.intra_rack);
    }
}

/// Table 4 via the public API: the full RISA and RISA-BF box traces.
/// VM 6 (16 cores) is unplaceable for both (the paper's RISA-BF column for
/// that cell is arithmetically impossible — 100 cores vs 96; see `toy`).
#[test]
fn table_4_traces_match_paper() {
    let run = |algo: Algorithm| -> Vec<Option<u8>> {
        let mut cluster = toy::table4_cluster();
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut sched = Scheduler::new(algo, &cluster);
        let ids = toy::table3_ids();
        toy::TABLE4_CPU_REQUESTS
            .iter()
            .map(|&cores| {
                let d = UnitDemand::from_natural(&cluster.config().units, cores, 0, 0);
                let no_flows = FlowDemands {
                    cpu_ram_mbps: 0,
                    ram_sto_mbps: 0,
                };
                match sched.schedule_with_flows(&mut cluster, &mut net, &d, &no_flows) {
                    ScheduleOutcome::Assigned(a) => Some(u8::from(
                        a.placement.grant(ResourceKind::Cpu).box_id == ids.cpu[3],
                    )),
                    ScheduleOutcome::Dropped(_) => None,
                }
            })
            .collect()
    };
    assert_eq!(
        run(Algorithm::Risa),
        [
            Some(0),
            Some(0),
            Some(0),
            Some(1),
            Some(1),
            Some(1),
            None,
            Some(1)
        ],
        "Table 4 RISA column"
    );
    assert_eq!(
        run(Algorithm::RisaBf),
        [
            Some(1),
            Some(1),
            Some(0),
            Some(0),
            Some(1),
            Some(0),
            None,
            Some(0)
        ],
        "Table 4 RISA-BF column (VM 6 corrected)"
    );
}

/// The contention-ratio arithmetic the paper prints in §4.3.1.
#[test]
fn toy_contention_ratios() {
    use risa::sched::{contention_ratios, most_contended, RackFilter};
    let cluster = toy::table3_cluster();
    let demand = toy::typical_vm_demand(&cluster);
    let crs = contention_ratios(&cluster, &demand, RackFilter::All);
    assert!((crs[0] - 0.0833).abs() < 1e-3, "CPU CR ~ 0.08");
    assert!((crs[1] - 0.25).abs() < 1e-12, "RAM CR = 0.25");
    assert!((crs[2] - 0.1667).abs() < 1e-3, "STO CR ~ 0.17");
    assert_eq!(
        most_contended(&cluster, &demand, RackFilter::All),
        ResourceKind::Ram
    );
}
