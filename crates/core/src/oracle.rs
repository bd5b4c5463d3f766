//! The scan-based reference schedulers — the differential oracle.
//!
//! This module preserves the *seed* implementations of all four
//! algorithms, which compute every decision with naive linear scans over
//! the box table (per-VM contention sums, whole-cluster first-fit walks,
//! rack re-sorts, pool rebuilds). The production schedulers answer the
//! same questions through the incremental
//! [`risa_topology::PlacementIndex`]; the differential test suite runs
//! both side by side over randomized schedule/release histories and
//! asserts **identical** assignments, drop reasons, and
//! [`WorkCounters`] — so the index can never silently change a placement
//! the paper's figures depend on.
//!
//! Nothing here is on a hot path; clarity and faithfulness to the seed
//! win over speed.

use crate::algorithm::{Algorithm, DropReason, ScheduleOutcome, VmAssignment};
use crate::nulb::{NeighborOrder, NulbParams};
use crate::work::WorkCounters;
use risa_network::{FlowDemands, LinkPolicy, NetworkState};
use risa_topology::{
    BoxAllocation, BoxId, Cluster, RackId, ResourceKind, UnitDemand, VmPlacement, ALL_RESOURCES,
};

/// The `SUPER_RACK` of Algorithm 1, built as the seed built it: per
/// resource kind, the list of racks holding at least one live box that can
/// satisfy the VM's demand of that kind, found by scanning every rack's
/// boxes. Production asks the placement index the same questions live
/// ([`crate::RackFilter::Admitting`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct SuperRack {
    racks: [Vec<RackId>; 3],
}

impl SuperRack {
    fn build(cluster: &Cluster, demand: &UnitDemand) -> Self {
        SuperRack {
            racks: ALL_RESOURCES.map(|kind| {
                (0..cluster.num_racks())
                    .map(RackId)
                    .filter(|&r| {
                        cluster.boxes_in_rack(r, kind).iter().any(|&b| {
                            !cluster.is_failed(b) && cluster.available(b) >= demand.get(kind)
                        })
                    })
                    .collect()
            }),
        }
    }

    /// Racks able to satisfy `kind`, ascending.
    fn racks_for(&self, kind: ResourceKind) -> &[RackId] {
        &self.racks[kind.index()]
    }

    /// Whether `rack` may serve `kind`.
    fn allows(&self, rack: RackId, kind: ResourceKind) -> bool {
        self.racks_for(kind).binary_search(&rack).is_ok()
    }

    /// True when some kind has no candidate rack at all — the VM cannot be
    /// placed and must drop in the compute phase.
    fn infeasible(&self) -> bool {
        self.racks.iter().any(|r| r.is_empty())
    }
}

/// Naive contention ratios: availability summed by scanning the box table,
/// exactly as the seed (and Algorithm 2's pseudocode) did.
fn contention_ratios_naive(
    cluster: &Cluster,
    demand: &UnitDemand,
    restrict: Option<&SuperRack>,
    work: &mut WorkCounters,
) -> [f64; 3] {
    let mut crs = [0.0f64; 3];
    for kind in ALL_RESOURCES {
        let req = demand.get(kind) as f64;
        let avail = match restrict {
            None => {
                // Failed boxes are still visited (and charged) by the
                // scan but contribute no availability, matching the
                // production totals which retract them.
                let mut n = 0u64;
                let sum = cluster
                    .boxes_of_kind(kind)
                    .map(|b| {
                        n += 1;
                        if cluster.is_failed(b.id) {
                            0
                        } else {
                            b.available as u64
                        }
                    })
                    .sum::<u64>() as f64;
                work.boxes_scanned += n;
                sum
            }
            Some(sr) => {
                work.racks_scanned += sr.racks_for(kind).len() as u64;
                sr.racks_for(kind)
                    .iter()
                    .map(|&r| {
                        cluster
                            .boxes_in_rack(r, kind)
                            .iter()
                            .map(|&b| {
                                if cluster.is_failed(b) {
                                    0
                                } else {
                                    cluster.available(b) as u64
                                }
                            })
                            .sum::<u64>()
                    })
                    .sum::<u64>() as f64
            }
        };
        crs[kind.index()] = if req == 0.0 {
            0.0
        } else if avail == 0.0 {
            f64::INFINITY
        } else {
            req / avail
        };
    }
    crs
}

fn most_contended_naive(
    cluster: &Cluster,
    demand: &UnitDemand,
    restrict: Option<&SuperRack>,
    work: &mut WorkCounters,
) -> ResourceKind {
    let crs = contention_ratios_naive(cluster, demand, restrict, work);
    let mut best = ResourceKind::Cpu;
    for kind in ALL_RESOURCES {
        if crs[kind.index()] > crs[best.index()] {
            best = kind;
        }
    }
    best
}

/// Seed first-box scan: every box of `kind` in global id order.
fn first_box_of_kind_naive(
    cluster: &Cluster,
    kind: ResourceKind,
    units: u32,
    restrict: Option<&SuperRack>,
    work: &mut WorkCounters,
) -> Option<BoxId> {
    cluster
        .boxes_of_kind(kind)
        .find(|b| {
            work.boxes_scanned += 1;
            !cluster.is_failed(b.id)
                && b.available >= units
                && restrict.is_none_or(|sr| sr.allows(b.rack, kind))
        })
        .map(|b| b.id)
}

/// Seed BFS: home rack first, then every other rack, re-sorting per probe
/// under NALB's modified order.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's parameter list"
)]
fn bfs_find_naive(
    cluster: &Cluster,
    net: &NetworkState,
    kind: ResourceKind,
    units: u32,
    home: RackId,
    restrict: Option<&SuperRack>,
    order: NeighborOrder,
    work: &mut WorkCounters,
) -> Option<BoxId> {
    let box_in_rack = |rack: RackId, work: &mut WorkCounters| -> Option<BoxId> {
        work.racks_scanned += 1;
        if let Some(sr) = restrict {
            if !sr.allows(rack, kind) {
                return None;
            }
        }
        let boxes = cluster.boxes_in_rack(rack, kind);
        match order {
            NeighborOrder::ById => boxes.iter().copied().find(|&b| {
                work.boxes_scanned += 1;
                !cluster.is_failed(b) && cluster.available(b) >= units
            }),
            NeighborOrder::ByBandwidthDesc => {
                work.sorts += 1;
                work.links_scanned += boxes.len() as u64;
                let mut sorted: Vec<BoxId> = boxes.to_vec();
                sorted.sort_by(|&a, &b| {
                    net.box_uplink_free_mbps(b)
                        .cmp(&net.box_uplink_free_mbps(a))
                        .then(a.cmp(&b))
                });
                sorted.into_iter().find(|&b| {
                    work.boxes_scanned += 1;
                    !cluster.is_failed(b) && cluster.available(b) >= units
                })
            }
        }
    };

    if let Some(b) = box_in_rack(home, work) {
        return Some(b);
    }
    let mut others: Vec<RackId> = (0..cluster.num_racks())
        .map(RackId)
        .filter(|&r| r != home)
        .collect();
    if order == NeighborOrder::ByBandwidthDesc {
        work.sorts += 1;
        work.links_scanned += others.len() as u64;
        others.sort_by(|&a, &b| {
            net.rack_uplink_free_mbps(b)
                .cmp(&net.rack_uplink_free_mbps(a))
                .then(a.cmp(&b))
        });
    }
    others.into_iter().find_map(|r| box_in_rack(r, work))
}

/// Seed Algorithm 2 (NULB/NALB, and RISA's restricted fallback).
fn nulb_schedule_naive(
    cluster: &mut Cluster,
    net: &mut NetworkState,
    demand: &UnitDemand,
    flows: &FlowDemands,
    restrict: Option<&SuperRack>,
    params: NulbParams,
    work: &mut WorkCounters,
) -> Result<VmAssignment, DropReason> {
    let scarce = most_contended_naive(cluster, demand, restrict, work);
    let Some(primary) =
        first_box_of_kind_naive(cluster, scarce, demand.get(scarce), restrict, work)
    else {
        return Err(DropReason::Compute);
    };
    let home = cluster.rack_of(primary);

    let mut grants = [BoxAllocation {
        box_id: primary,
        units: demand.get(scarce),
    }; 3];
    grants[scarce.index()] = BoxAllocation {
        box_id: primary,
        units: demand.get(scarce),
    };
    for kind in ALL_RESOURCES {
        if kind == scarce {
            continue;
        }
        let Some(b) = bfs_find_naive(
            cluster,
            net,
            kind,
            demand.get(kind),
            home,
            restrict,
            params.neighbor_order,
            work,
        ) else {
            return Err(DropReason::Compute);
        };
        grants[kind.index()] = BoxAllocation {
            box_id: b,
            units: demand.get(kind),
        };
    }
    let placement = VmPlacement { grants };

    if cluster.take_placement(&placement).is_err() {
        return Err(DropReason::Compute);
    }
    let cpu_box = placement.grant(ResourceKind::Cpu).box_id;
    let ram_box = placement.grant(ResourceKind::Ram).box_id;
    let sto_box = placement.grant(ResourceKind::Storage).box_id;
    match net.alloc_vm(
        cluster,
        cpu_box,
        ram_box,
        sto_box,
        flows,
        params.link_policy,
    ) {
        Ok(network) => {
            let intra_rack = placement.is_intra_rack(cluster);
            Ok(VmAssignment {
                placement,
                network,
                intra_rack,
                used_fallback: false,
            })
        }
        Err(_) => {
            cluster
                .give_placement(&placement)
                .expect("rollback of held placement");
            Err(DropReason::Network)
        }
    }
}

/// Seed RISA/RISA-BF state: identical cursors, naive pool rebuilds and
/// full-rack best-fit scans.
#[derive(Debug, Clone)]
struct RisaStateNaive {
    rr_cursor: u16,
    box_cursor: Vec<[usize; 3]>,
    best_fit: bool,
}

impl RisaStateNaive {
    fn new(cluster: &Cluster, best_fit: bool) -> Self {
        RisaStateNaive {
            rr_cursor: 0,
            box_cursor: vec![[0; 3]; cluster.num_racks() as usize],
            best_fit,
        }
    }

    fn pick_box(
        &self,
        cluster: &Cluster,
        rack: RackId,
        kind: ResourceKind,
        units: u32,
        work: &mut WorkCounters,
    ) -> Option<(BoxId, usize)> {
        let boxes = cluster.boxes_in_rack(rack, kind);
        if self.best_fit {
            work.boxes_scanned += boxes.len() as u64;
            boxes
                .iter()
                .enumerate()
                .filter(|(_, &b)| !cluster.is_failed(b) && cluster.available(b) >= units)
                .min_by_key(|(_, &b)| cluster.available(b))
                .map(|(pos, &b)| (b, pos))
        } else {
            let start = self.box_cursor[rack.0 as usize][kind.index()].min(boxes.len() - 1);
            (0..boxes.len())
                .map(|i| (start + i) % boxes.len())
                .find(|&pos| {
                    work.boxes_scanned += 1;
                    !cluster.is_failed(boxes[pos]) && cluster.available(boxes[pos]) >= units
                })
                .map(|pos| (boxes[pos], pos))
        }
    }

    fn try_rack(
        &mut self,
        cluster: &mut Cluster,
        net: &mut NetworkState,
        rack: RackId,
        demand: &UnitDemand,
        flows: &FlowDemands,
        work: &mut WorkCounters,
    ) -> Option<VmAssignment> {
        for kind in ALL_RESOURCES {
            work.links_scanned += cluster.boxes_in_rack(rack, kind).len() as u64;
        }
        if !net.rack_intra_feasible(cluster, rack, flows) {
            return None;
        }
        let mut grants = [BoxAllocation {
            box_id: BoxId(0),
            units: 0,
        }; 3];
        let mut positions = [0usize; 3];
        for kind in ALL_RESOURCES {
            let (b, pos) = self.pick_box(cluster, rack, kind, demand.get(kind), work)?;
            grants[kind.index()] = BoxAllocation {
                box_id: b,
                units: demand.get(kind),
            };
            positions[kind.index()] = pos;
        }
        let placement = VmPlacement { grants };
        cluster
            .take_placement(&placement)
            .expect("pick_box verified availability");
        match net.alloc_vm(
            cluster,
            placement.grant(ResourceKind::Cpu).box_id,
            placement.grant(ResourceKind::Ram).box_id,
            placement.grant(ResourceKind::Storage).box_id,
            flows,
            LinkPolicy::FirstFit,
        ) {
            Ok(network) => {
                if !self.best_fit {
                    for kind in ALL_RESOURCES {
                        self.box_cursor[rack.0 as usize][kind.index()] = positions[kind.index()];
                    }
                }
                Some(VmAssignment {
                    placement,
                    network,
                    intra_rack: true,
                    used_fallback: false,
                })
            }
            Err(_) => {
                cluster
                    .give_placement(&placement)
                    .expect("rollback of held placement");
                None
            }
        }
    }

    fn schedule(
        &mut self,
        cluster: &mut Cluster,
        net: &mut NetworkState,
        demand: &UnitDemand,
        flows: &FlowDemands,
        work: &mut WorkCounters,
    ) -> Result<VmAssignment, DropReason> {
        work.racks_scanned += cluster.num_racks() as u64;
        let pool: Vec<RackId> = (0..cluster.num_racks())
            .map(RackId)
            .filter(|&r| cluster.rack_fits(r, demand))
            .collect();
        if !pool.is_empty() {
            let start = pool.iter().position(|r| r.0 >= self.rr_cursor).unwrap_or(0);
            for i in 0..pool.len() {
                let rack = pool[(start + i) % pool.len()];
                if let Some(a) = self.try_rack(cluster, net, rack, demand, flows, work) {
                    self.rr_cursor = (rack.0 + 1) % cluster.num_racks();
                    return Ok(a);
                }
            }
        }
        work.racks_scanned += cluster.num_racks() as u64;
        let sr = SuperRack::build(cluster, demand);
        if sr.infeasible() {
            return Err(DropReason::Compute);
        }
        nulb_schedule_naive(
            cluster,
            net,
            demand,
            flows,
            Some(&sr),
            NulbParams::nulb(),
            work,
        )
        .map(|mut a| {
            a.used_fallback = true;
            a
        })
    }
}

/// A scheduler running the seed's scan-based algorithms verbatim. Same
/// public contract as [`crate::Scheduler`], usable drop-in for
/// differential comparison.
#[derive(Debug, Clone)]
pub struct OracleScheduler {
    algo: Algorithm,
    risa: RisaStateNaive,
    work: WorkCounters,
}

impl OracleScheduler {
    /// Create an oracle for `algo` sized to `cluster`.
    pub fn new(algo: Algorithm, cluster: &Cluster) -> Self {
        OracleScheduler {
            algo,
            risa: RisaStateNaive::new(cluster, algo == Algorithm::RisaBf),
            work: WorkCounters::new(),
        }
    }

    /// The accumulated work counters (the seed's cost model, measured by
    /// actually performing the scans).
    pub fn work(&self) -> &WorkCounters {
        &self.work
    }

    /// Schedule one VM, mutating `cluster`/`net` only on success.
    pub fn schedule(
        &mut self,
        cluster: &mut Cluster,
        net: &mut NetworkState,
        demand: &UnitDemand,
    ) -> ScheduleOutcome {
        let flows = FlowDemands::for_vm(net.config(), demand);
        self.work.calls += 1;
        let result = match self.algo {
            Algorithm::Nulb => nulb_schedule_naive(
                cluster,
                net,
                demand,
                &flows,
                None,
                NulbParams::nulb(),
                &mut self.work,
            ),
            Algorithm::Nalb => nulb_schedule_naive(
                cluster,
                net,
                demand,
                &flows,
                None,
                NulbParams::nalb(),
                &mut self.work,
            ),
            Algorithm::Risa | Algorithm::RisaBf => {
                self.risa
                    .schedule(cluster, net, demand, &flows, &mut self.work)
            }
        };
        match result {
            Ok(a) => ScheduleOutcome::Assigned(a),
            Err(reason) => ScheduleOutcome::Dropped(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn super_rack_membership() {
        let c = toy::table3_cluster();
        let d = toy::typical_vm_demand(&c);
        let sr = SuperRack::build(&c, &d);
        // Rack 0 has no CPU and no storage for the typical VM; rack 1 all.
        assert_eq!(sr.racks_for(ResourceKind::Cpu), &[RackId(1)]);
        assert_eq!(sr.racks_for(ResourceKind::Ram), &[RackId(0), RackId(1)]);
        assert_eq!(sr.racks_for(ResourceKind::Storage), &[RackId(1)]);
        assert!(sr.allows(RackId(0), ResourceKind::Ram));
        assert!(!sr.allows(RackId(0), ResourceKind::Cpu));
        assert!(!sr.infeasible());

        // An impossible demand empties a list.
        let sr = SuperRack::build(&c, &UnitDemand::new(999, 1, 1));
        assert!(sr.infeasible());
    }
}
