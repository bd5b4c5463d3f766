//! The unified scheduler front-end dispatching to NULB/NALB/RISA/RISA-BF.

use crate::algorithm::{Algorithm, ScheduleOutcome, VmAssignment};
use crate::nulb::{nulb_schedule, NulbParams, RackFilter, Scratch};
use crate::risa::RisaState;
use crate::work::WorkCounters;
use risa_network::{FlowDemands, NetworkState};
use risa_topology::{Cluster, UnitDemand};

/// A stateful scheduler instance. NULB/NALB are stateless per VM; RISA and
/// RISA-BF carry the round-robin and next-fit cursors across VMs, so one
/// `Scheduler` must live for the whole workload.
#[derive(Debug, Clone)]
pub struct Scheduler {
    algo: Algorithm,
    risa: RisaState,
    work: WorkCounters,
    /// NALB's within-rack sort buffer, the only per-VM working memory any
    /// algorithm needs.
    scratch: Scratch,
}

impl Scheduler {
    /// Create a scheduler for `algo` sized to `cluster`.
    pub fn new(algo: Algorithm, cluster: &Cluster) -> Self {
        Scheduler {
            algo,
            risa: RisaState::new(cluster, algo == Algorithm::RisaBf),
            work: WorkCounters::new(),
            scratch: Scratch::default(),
        }
    }

    /// The algorithm this scheduler runs.
    pub fn algorithm(&self) -> Algorithm {
        self.algo
    }

    /// Deterministic operation counters accumulated since construction —
    /// the machine-independent backing for the paper's Figure 11/12
    /// execution-time comparison.
    pub fn work(&self) -> &WorkCounters {
        &self.work
    }

    /// Schedule one VM with `demand` (in units). Bandwidth demands derive
    /// from the network config per Table 2. Mutates the cluster and network
    /// only on success.
    pub fn schedule(
        &mut self,
        cluster: &mut Cluster,
        net: &mut NetworkState,
        demand: &UnitDemand,
    ) -> ScheduleOutcome {
        let flows = FlowDemands::for_vm(net.config(), demand);
        self.schedule_with_flows(cluster, net, demand, &flows)
    }

    /// As [`Scheduler::schedule`] but with externally computed flow
    /// demands (ablation hook for non-Table-2 bandwidth models).
    pub fn schedule_with_flows(
        &mut self,
        cluster: &mut Cluster,
        net: &mut NetworkState,
        demand: &UnitDemand,
        flows: &FlowDemands,
    ) -> ScheduleOutcome {
        self.work.calls += 1;
        let result = match self.algo {
            Algorithm::Nulb => nulb_schedule(
                cluster,
                net,
                demand,
                flows,
                RackFilter::All,
                NulbParams::nulb(),
                &mut self.work,
                &mut self.scratch,
            ),
            Algorithm::Nalb => nulb_schedule(
                cluster,
                net,
                demand,
                flows,
                RackFilter::All,
                NulbParams::nalb(),
                &mut self.work,
                &mut self.scratch,
            ),
            Algorithm::Risa | Algorithm::RisaBf => self.risa.schedule(
                cluster,
                net,
                demand,
                flows,
                &mut self.work,
                &mut self.scratch,
            ),
        };
        match result {
            Ok(a) => ScheduleOutcome::Assigned(a),
            Err(reason) => ScheduleOutcome::Dropped(reason),
        }
    }

    /// Release an admitted VM's compute units and bandwidth (departure).
    pub fn release(cluster: &mut Cluster, net: &mut NetworkState, assignment: &VmAssignment) {
        net.release_vm(&assignment.network)
            .expect("releasing held flows cannot over-release");
        cluster
            .give_placement(&assignment.placement)
            .expect("releasing a held placement cannot fail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risa_network::NetworkConfig;
    use risa_topology::{ResourceKind, TopologyConfig};

    fn setup(algo: Algorithm) -> (Cluster, NetworkState, Scheduler) {
        let c = Cluster::new(TopologyConfig::paper());
        let n = NetworkState::new(NetworkConfig::paper(), &c);
        let s = Scheduler::new(algo, &c);
        (c, n, s)
    }

    #[test]
    fn all_algorithms_admit_on_pristine_cluster() {
        for algo in Algorithm::ALL {
            let (mut c, mut n, mut s) = setup(algo);
            let d = UnitDemand::new(2, 4, 2);
            let out = s.schedule(&mut c, &mut n, &d);
            let a = out.assigned().unwrap_or_else(|| panic!("{algo} dropped"));
            assert!(a.intra_rack, "{algo} should be intra-rack when empty");
            Scheduler::release(&mut c, &mut n, a);
            assert_eq!(c.total_available(ResourceKind::Cpu), 4608);
            assert_eq!(n.intra_used_mbps(), 0);
            c.check_invariants().unwrap();
        }
    }

    #[test]
    fn schedule_release_cycle_is_leak_free() {
        let (mut c, mut n, mut s) = setup(Algorithm::RisaBf);
        let d = UnitDemand::new(8, 8, 2);
        let mut held = vec![];
        for _ in 0..100 {
            match s.schedule(&mut c, &mut n, &d) {
                ScheduleOutcome::Assigned(a) => held.push(a),
                ScheduleOutcome::Dropped(r) => panic!("unexpected drop: {r:?}"),
            }
        }
        for a in &held {
            Scheduler::release(&mut c, &mut n, a);
        }
        assert_eq!(c.total_available(ResourceKind::Cpu), 4608);
        assert_eq!(c.total_available(ResourceKind::Ram), 4608);
        assert_eq!(c.total_available(ResourceKind::Storage), 4608);
        assert_eq!(n.intra_used_mbps(), 0);
        assert_eq!(n.inter_used_mbps(), 0);
    }

    #[test]
    fn algorithm_accessor() {
        let (_c, _n, s) = setup(Algorithm::Nalb);
        assert_eq!(s.algorithm(), Algorithm::Nalb);
    }

    /// Saturating the whole cluster eventually drops for every algorithm,
    /// and the drop leaves state consistent.
    #[test]
    fn saturation_drops_cleanly() {
        let mut admitted_by_algo = std::collections::HashMap::new();
        for algo in Algorithm::ALL {
            // Narrow 2-link trunks so the network saturates before compute.
            let c = Cluster::new(TopologyConfig::paper());
            let mut netcfg = NetworkConfig::paper();
            netcfg.box_uplink_width = 2;
            netcfg.rack_uplink_width = 4;
            let mut n = NetworkState::new(netcfg, &c);
            let mut s = Scheduler::new(algo, &c);
            let mut c = c;
            // 32 units each: CPU-RAM flow = 160 Gb/s, within one link but
            // heavy enough that trunks saturate before compute does.
            let d = UnitDemand::new(32, 32, 32);
            let mut admitted = 0;
            while let ScheduleOutcome::Assigned(_) = s.schedule(&mut c, &mut n, &d) {
                admitted += 1;
                assert!(admitted < 10_000, "{algo} never saturated");
            }
            // Compute bound: 4608 / 32 = 144 VMs.
            assert!(admitted <= 144, "{algo} overcommitted: {admitted}");
            assert!(admitted >= 1, "{algo} admitted nothing");
            c.check_invariants().unwrap();
            n.check_invariants().unwrap();
            admitted_by_algo.insert(algo, admitted);
        }
        // The paper's motivation in miniature: NULB's network-oblivious
        // first-fit keeps hammering the saturated first box and drops
        // early; RISA's round-robin spreads flows over every rack trunk.
        assert!(
            admitted_by_algo[&Algorithm::Risa] > admitted_by_algo[&Algorithm::Nulb],
            "RISA ({}) should outlast NULB ({}) under trunk pressure",
            admitted_by_algo[&Algorithm::Risa],
            admitted_by_algo[&Algorithm::Nulb]
        );
    }
}
