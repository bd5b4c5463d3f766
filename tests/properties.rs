//! Cross-crate property tests: conservation, invariants, and fairness
//! under randomized schedules through the public facade.

use proptest::prelude::*;
use risa::network::{NetworkConfig, NetworkState};
use risa::prelude::*;
use risa::sched::ScheduleOutcome;

fn arb_demand() -> impl Strategy<Value = UnitDemand> {
    // Paper-realistic demands: each kind fits a single box; max synthetic
    // VM is 8/8/2 units, Azure RAM reaches 14 units.
    (1u32..=8, 1u32..=14, 1u32..=2).prop_map(|(c, r, s)| UnitDemand::new(c, r, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Schedule a random batch, release everything, and the cluster and
    /// network return exactly to pristine — for every algorithm.
    #[test]
    fn schedule_release_conserves_state(
        demands in prop::collection::vec(arb_demand(), 1..120),
        algo_idx in 0usize..4,
    ) {
        let algo = Algorithm::ALL[algo_idx];
        let mut cluster = Cluster::new(TopologyConfig::paper());
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut sched = Scheduler::new(algo, &cluster);
        let mut held = Vec::new();
        for d in &demands {
            if let ScheduleOutcome::Assigned(a) = sched.schedule(&mut cluster, &mut net, d) {
                held.push(a);
            }
            cluster.check_invariants().map_err(TestCaseError::fail)?;
        }
        for a in &held {
            Scheduler::release(&mut cluster, &mut net, a);
        }
        prop_assert_eq!(cluster.total_available(ResourceKind::Cpu), 4608);
        prop_assert_eq!(cluster.total_available(ResourceKind::Ram), 4608);
        prop_assert_eq!(cluster.total_available(ResourceKind::Storage), 4608);
        prop_assert_eq!(net.intra_used_mbps(), 0);
        prop_assert_eq!(net.inter_used_mbps(), 0);
        net.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// An admitted VM's grants exactly match its demand, and the placement
    /// marked intra-rack really is single-rack.
    #[test]
    fn assignments_are_faithful(demands in prop::collection::vec(arb_demand(), 1..60)) {
        let mut cluster = Cluster::new(TopologyConfig::paper());
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut sched = Scheduler::new(Algorithm::Risa, &cluster);
        for d in &demands {
            if let ScheduleOutcome::Assigned(a) = sched.schedule(&mut cluster, &mut net, d) {
                for kind in [ResourceKind::Cpu, ResourceKind::Ram, ResourceKind::Storage] {
                    let g = a.placement.grant(kind);
                    prop_assert_eq!(g.units, d.get(kind));
                    prop_assert_eq!(cluster.kind_of(g.box_id), kind);
                }
                prop_assert_eq!(a.intra_rack, a.placement.is_intra_rack(&cluster));
                if a.intra_rack {
                    prop_assert!(!a.network.is_inter_rack());
                }
            }
        }
    }

    /// RISA's round-robin fairness: on a uniform stream of identical VMs
    /// that all fit, consecutive assignments never reuse a rack before all
    /// others have been visited.
    #[test]
    fn round_robin_visits_all_racks(units in 1u32..=4) {
        let d = UnitDemand::new(units, units, 1);
        let mut cluster = Cluster::new(TopologyConfig::paper());
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut sched = Scheduler::new(Algorithm::Risa, &cluster);
        let mut racks = Vec::new();
        for _ in 0..18 {
            match sched.schedule(&mut cluster, &mut net, &d) {
                ScheduleOutcome::Assigned(a) => {
                    racks.push(cluster.rack_of(a.placement.grant(ResourceKind::Cpu).box_id));
                }
                ScheduleOutcome::Dropped(r) => {
                    return Err(TestCaseError::fail(format!("dropped: {r:?}")));
                }
            }
        }
        let mut sorted = racks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), 18, "first 18 VMs must cover all 18 racks: {:?}", racks);
    }
}
