//! An independent auditor for schedule histories.
//!
//! The schedulers mutate the cluster and network directly; the auditor
//! replays the resulting [`VmAssignment`]s against its own **shadow
//! ledger** built only from the configuration, catching any divergence
//! between what a scheduler *claims* and what the shared state allows:
//! over-capacity grants, wrong-kind boxes, mislabelled intra-rack flags,
//! double admissions and releases, leaks at end of run. VMs are keyed by
//! the caller's own index. The simulation test-suite runs every workload
//! through it.

use crate::algorithm::VmAssignment;
use risa_topology::{Cluster, ResourceKind, TopologyConfig, ALL_RESOURCES};
use std::collections::BTreeMap;

/// A violation detected by the auditor.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// A grant names a box of the wrong resource kind.
    WrongKind {
        /// Offending VM (the caller's index).
        vm: u32,
        /// Expected kind.
        expected: ResourceKind,
    },
    /// A box's cumulative grants exceed its capacity.
    OverCapacity {
        /// Offending VM.
        vm: u32,
        /// The box.
        box_id: u32,
        /// Units in use after this grant.
        used: u64,
        /// Box capacity.
        capacity: u64,
    },
    /// The `intra_rack` flag disagrees with the placement's racks.
    WrongIntraRackFlag {
        /// Offending VM.
        vm: u32,
    },
    /// The network allocation claims intra-rack flows for an inter-rack
    /// placement (or vice versa) on the CPU-RAM pair.
    FlowRackMismatch {
        /// Offending VM.
        vm: u32,
    },
    /// Admission of a VM the auditor holds resident already.
    AlreadyResident {
        /// The VM admitted twice.
        vm: u32,
    },
    /// Release of a VM the auditor never saw admitted (or saw released).
    UnknownRelease {
        /// The VM released.
        vm: u32,
    },
    /// Resources still held at [`ScheduleAuditor::finish`].
    Leak {
        /// VMs still resident.
        resident: usize,
    },
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditViolation::WrongKind { vm, expected } => {
                write!(
                    f,
                    "vm{vm}: grant for {expected} names a box of another kind"
                )
            }
            AuditViolation::OverCapacity {
                vm,
                box_id,
                used,
                capacity,
            } => write!(f, "vm{vm}: box{box_id} used {used}u of {capacity}u"),
            AuditViolation::WrongIntraRackFlag { vm } => {
                write!(f, "vm{vm}: intra_rack flag contradicts placement")
            }
            AuditViolation::FlowRackMismatch { vm } => {
                write!(f, "vm{vm}: flow inter-rack flags contradict placement")
            }
            AuditViolation::AlreadyResident { vm } => {
                write!(f, "vm{vm}: admitted while already resident")
            }
            AuditViolation::UnknownRelease { vm } => {
                write!(f, "vm{vm}: released while not resident")
            }
            AuditViolation::Leak { resident } => {
                write!(f, "{resident} VMs still resident at finish")
            }
        }
    }
}

/// Replays assignments/releases against a shadow ledger.
#[derive(Debug, Clone)]
pub struct ScheduleAuditor {
    cfg: TopologyConfig,
    /// Shadow used-units per box.
    used: Vec<u64>,
    /// Resident assignments by the caller's VM index. BTreeMap so a
    /// future "list the leaked VMs" diagnostic can never depend on hash
    /// order (`clippy.toml`'s `disallowed-types`).
    resident: BTreeMap<u32, VmAssignment>,
    violations: Vec<AuditViolation>,
    admitted: u64,
    released: u64,
}

impl ScheduleAuditor {
    /// Auditor for a cluster of `cluster`'s shape (capacities are taken
    /// from the live cluster so fixture overrides are respected).
    pub fn new(cluster: &Cluster) -> Self {
        ScheduleAuditor {
            cfg: *cluster.config(),
            used: vec![0; cluster.num_boxes()],
            resident: BTreeMap::new(),
            violations: Vec::new(),
            admitted: 0,
            released: 0,
        }
    }

    /// Record the admission of VM `vm` — the index the caller keys its
    /// VMs by, and passes back to [`ScheduleAuditor::release`]. Admitting
    /// a VM that is resident already is a violation and changes nothing.
    pub fn admit(&mut self, cluster: &Cluster, vm: u32, a: &VmAssignment) {
        if self.resident.contains_key(&vm) {
            self.violations.push(AuditViolation::AlreadyResident { vm });
            return;
        }
        self.admitted += 1;

        for kind in ALL_RESOURCES {
            let g = a.placement.grant(kind);
            if cluster.kind_of(g.box_id) != kind {
                self.violations
                    .push(AuditViolation::WrongKind { vm, expected: kind });
            }
            let slot = &mut self.used[g.box_id.0 as usize];
            *slot += g.units as u64;
            let capacity = cluster.box_state(g.box_id).capacity as u64;
            if *slot > capacity {
                self.violations.push(AuditViolation::OverCapacity {
                    vm,
                    box_id: g.box_id.0,
                    used: *slot,
                    capacity,
                });
            }
        }
        if a.intra_rack != a.placement.is_intra_rack(cluster) {
            self.violations
                .push(AuditViolation::WrongIntraRackFlag { vm });
        }
        let cpu_rack = cluster.rack_of(a.placement.grant(ResourceKind::Cpu).box_id);
        let ram_rack = cluster.rack_of(a.placement.grant(ResourceKind::Ram).box_id);
        if a.network.cpu_ram.inter_rack != (cpu_rack != ram_rack) {
            self.violations
                .push(AuditViolation::FlowRackMismatch { vm });
        }
        self.resident.insert(vm, a.clone());
    }

    /// Record the release of VM `vm`.
    pub fn release(&mut self, vm: u32) {
        match self.resident.remove(&vm) {
            None => self.violations.push(AuditViolation::UnknownRelease { vm }),
            Some(a) => {
                self.released += 1;
                for kind in ALL_RESOURCES {
                    let g = a.placement.grant(kind);
                    self.used[g.box_id.0 as usize] =
                        self.used[g.box_id.0 as usize].saturating_sub(g.units as u64);
                }
            }
        }
    }

    /// Number of admissions seen.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Number of releases seen.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Close the audit: everything must have been released.
    pub fn finish(mut self) -> Result<AuditSummary, Vec<AuditViolation>> {
        if !self.resident.is_empty() {
            self.violations.push(AuditViolation::Leak {
                resident: self.resident.len(),
            });
        }
        if self.used.iter().any(|&u| u != 0) && self.resident.is_empty() {
            // Can only happen through an auditor bug; surface loudly.
            self.violations.push(AuditViolation::Leak { resident: 0 });
        }
        if self.violations.is_empty() {
            Ok(AuditSummary {
                admitted: self.admitted,
                released: self.released,
            })
        } else {
            Err(self.violations)
        }
    }

    /// The topology the auditor checks against.
    pub fn config(&self) -> &TopologyConfig {
        &self.cfg
    }
}

/// A clean audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditSummary {
    /// Admissions replayed.
    pub admitted: u64,
    /// Releases replayed.
    pub released: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Algorithm, ScheduleOutcome};
    use crate::scheduler::Scheduler;
    use risa_network::{NetworkConfig, NetworkState};
    use risa_topology::UnitDemand;

    fn run_audited(
        algo: Algorithm,
        demands: &[UnitDemand],
    ) -> Result<AuditSummary, Vec<AuditViolation>> {
        let mut cluster = Cluster::new(TopologyConfig::paper());
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut sched = Scheduler::new(algo, &cluster);
        let mut auditor = ScheduleAuditor::new(&cluster);
        let mut resident = Vec::new();
        for (vm, d) in (0..).zip(demands) {
            if let ScheduleOutcome::Assigned(a) = sched.schedule(&mut cluster, &mut net, d) {
                auditor.admit(&cluster, vm, &a);
                resident.push((vm, a));
            }
        }
        for (vm, a) in resident {
            Scheduler::release(&mut cluster, &mut net, &a);
            auditor.release(vm);
        }
        auditor.finish()
    }

    #[test]
    fn clean_runs_audit_clean() {
        let demands: Vec<UnitDemand> = (0..200)
            .map(|i| UnitDemand::new(1 + i % 8, 1 + (i * 3) % 8, 2))
            .collect();
        for algo in Algorithm::ALL {
            let summary = run_audited(algo, &demands).unwrap_or_else(|v| {
                panic!("{algo} failed audit: {v:?}");
            });
            assert_eq!(summary.admitted, summary.released);
            assert_eq!(summary.admitted, 200);
        }
    }

    #[test]
    fn detects_leaks() {
        let mut cluster = Cluster::new(TopologyConfig::paper());
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut sched = Scheduler::new(Algorithm::Risa, &cluster);
        let mut auditor = ScheduleAuditor::new(&cluster);
        let d = UnitDemand::new(2, 4, 2);
        if let ScheduleOutcome::Assigned(a) = sched.schedule(&mut cluster, &mut net, &d) {
            auditor.admit(&cluster, 0, &a);
            // Never released.
        }
        let errs = auditor.finish().unwrap_err();
        assert!(matches!(errs[0], AuditViolation::Leak { resident: 1 }));
    }

    /// A VM is resident at most once: admitting it again, or releasing
    /// it twice, is a violation naming it.
    #[test]
    fn detects_double_release() {
        let mut cluster = Cluster::new(TopologyConfig::paper());
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut sched = Scheduler::new(Algorithm::Nulb, &cluster);
        let mut auditor = ScheduleAuditor::new(&cluster);
        let d = UnitDemand::new(1, 1, 1);
        let ScheduleOutcome::Assigned(a) = sched.schedule(&mut cluster, &mut net, &d) else {
            panic!()
        };
        let vm = 7;
        auditor.admit(&cluster, vm, &a);
        auditor.admit(&cluster, vm, &a); // already resident
        auditor.release(vm);
        auditor.release(vm); // double
        assert_eq!((auditor.admitted(), auditor.released()), (1, 1));
        let errs = auditor.finish().unwrap_err();
        assert_eq!(
            errs,
            vec![
                AuditViolation::AlreadyResident { vm },
                AuditViolation::UnknownRelease { vm }
            ]
        );
    }

    #[test]
    fn detects_fabricated_over_capacity() {
        use risa_network::{FlowDemands, LinkPolicy, VmNetAllocation};
        use risa_topology::{BoxAllocation, BoxId, VmPlacement};
        let cluster = Cluster::new(TopologyConfig::paper());
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut auditor = ScheduleAuditor::new(&cluster);
        // Fabricate an assignment that claims 129 units of a 128-unit box.
        let network = VmNetAllocation {
            cpu_ram: net
                .alloc_flow(&cluster, BoxId(0), BoxId(2), 0, LinkPolicy::FirstFit)
                .unwrap(),
            ram_sto: net
                .alloc_flow(&cluster, BoxId(2), BoxId(4), 0, LinkPolicy::FirstFit)
                .unwrap(),
        };
        let fake = VmAssignment {
            placement: VmPlacement {
                grants: [
                    BoxAllocation {
                        box_id: BoxId(0),
                        units: 129,
                    },
                    BoxAllocation {
                        box_id: BoxId(2),
                        units: 1,
                    },
                    BoxAllocation {
                        box_id: BoxId(4),
                        units: 1,
                    },
                ],
            },
            network,
            intra_rack: true,
            used_fallback: false,
        };
        auditor.admit(&cluster, 0, &fake);
        auditor.release(0);
        let errs = auditor.finish().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, AuditViolation::OverCapacity { box_id: 0, .. })));
        let _ = FlowDemands {
            cpu_ram_mbps: 0,
            ram_sto_mbps: 0,
        };
    }

    #[test]
    fn detects_wrong_kind_and_flag() {
        use risa_network::LinkPolicy;
        use risa_topology::{BoxAllocation, BoxId, VmPlacement};
        let cluster = Cluster::new(TopologyConfig::paper());
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut auditor = ScheduleAuditor::new(&cluster);
        let network = risa_network::VmNetAllocation {
            cpu_ram: net
                .alloc_flow(&cluster, BoxId(0), BoxId(8), 0, LinkPolicy::FirstFit)
                .unwrap(),
            ram_sto: net
                .alloc_flow(&cluster, BoxId(8), BoxId(4), 0, LinkPolicy::FirstFit)
                .unwrap(),
        };
        let fake = VmAssignment {
            placement: VmPlacement {
                grants: [
                    // "CPU" grant pointing at a RAM box (box 2).
                    BoxAllocation {
                        box_id: BoxId(2),
                        units: 1,
                    },
                    // RAM grant in another rack while claiming intra_rack.
                    BoxAllocation {
                        box_id: BoxId(8),
                        units: 1,
                    },
                    BoxAllocation {
                        box_id: BoxId(4),
                        units: 1,
                    },
                ],
            },
            network,
            intra_rack: true,
            used_fallback: false,
        };
        auditor.admit(&cluster, 0, &fake);
        auditor.release(0);
        let errs = auditor.finish().unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            AuditViolation::WrongKind {
                expected: ResourceKind::Cpu,
                ..
            }
        )));
        assert!(errs
            .iter()
            .any(|e| matches!(e, AuditViolation::WrongIntraRackFlag { .. })));
    }
}
