//! A shared steady-state scheduling workload for throughput studies.
//!
//! `risa-cli bench` times it, and the differential suite's saturation
//! history stresses the same demand mix, so the cycle lives here once
//! instead of being copy-pasted per driver.

use crate::algorithm::{Algorithm, ScheduleOutcome, VmAssignment};
use crate::scheduler::Scheduler;
use risa_network::{NetworkConfig, NetworkState};
use risa_topology::{Cluster, TopologyConfig, UnitDemand};
use std::collections::VecDeque;

/// The deterministic paper-realistic demand mix used by the scaling
/// studies: CPU cycles 1..=8 units, RAM sweeps 1..=14 (Azure's reach),
/// storage alternates 1/2.
pub fn paper_mix_demand(i: u32) -> UnitDemand {
    UnitDemand::new(1 + i % 8, 1 + (i * 5) % 14, 1 + i % 2)
}

/// A self-contained schedule/release treadmill: each [`ScheduleCycle::step`]
/// admits one [`paper_mix_demand`] VM and retires the oldest resident
/// beyond a fixed window, holding the cluster at a steady mid-load so
/// per-operation cost is measurable without drifting to saturation.
#[derive(Debug)]
pub struct ScheduleCycle {
    cluster: Cluster,
    net: NetworkState,
    sched: Scheduler,
    held: VecDeque<VmAssignment>,
    window: usize,
    i: u32,
}

impl ScheduleCycle {
    /// A treadmill over a fresh paper-shaped cluster with `racks` racks.
    pub fn new(racks: u16, algo: Algorithm) -> Self {
        let cfg = TopologyConfig {
            racks,
            ..TopologyConfig::paper()
        };
        let cluster = Cluster::new(cfg);
        let net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let sched = Scheduler::new(algo, &cluster);
        ScheduleCycle {
            cluster,
            net,
            sched,
            held: VecDeque::new(),
            window: 256,
            i: 0,
        }
    }

    /// One schedule (plus at most one release) operation.
    pub fn step(&mut self) {
        let i = self.i;
        self.i = self.i.wrapping_add(1);
        let d = paper_mix_demand(i);
        if let ScheduleOutcome::Assigned(a) =
            self.sched.schedule(&mut self.cluster, &mut self.net, &d)
        {
            self.held.push_back(a);
        }
        if self.held.len() > self.window {
            let a = self.held.pop_front().expect("non-empty window");
            Scheduler::release(&mut self.cluster, &mut self.net, &a);
        }
    }

    /// Currently resident VMs (peaks at the window size).
    pub fn resident(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_single_box() {
        let cap = TopologyConfig::paper().box_capacity_units();
        for i in 0..100 {
            let d = paper_mix_demand(i);
            assert_eq!(d, paper_mix_demand(i));
            assert!(d.max_units() <= cap);
            assert!(!d.is_zero());
        }
    }

    #[test]
    fn cycle_reaches_steady_state() {
        let mut cycle = ScheduleCycle::new(12, Algorithm::Risa);
        for _ in 0..600 {
            cycle.step();
        }
        assert_eq!(cycle.resident(), 256, "window caps residency");
        cycle.cluster.check_invariants().unwrap();
        cycle.net.check_invariants().unwrap();
    }
}
