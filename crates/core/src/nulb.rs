//! NULB and NALB (Zervas et al. [20]), as specified in §4.1 and
//! Algorithm 2 of the RISA paper.
//!
//! Both run a *compute phase* (scarce resource via contention ratio, first
//! fitting box, BFS for the remaining resources — same rack first) and a
//! *network phase* (reserve the two flows). They differ in:
//!
//! * **BFS neighbour order** — NULB visits racks/boxes in id order; NALB
//!   re-sorts them by descending available bandwidth (*modified BFS*);
//! * **link selection** — NULB takes the first fitting link, NALB the one
//!   with the most available bandwidth.
//!
//! Either phase failing drops the VM. The same routine also serves as
//! RISA's fallback, restricted to the `SUPER_RACK`'s racks
//! ([`RackFilter::Admitting`]).

use crate::algorithm::{DropReason, VmAssignment};
use crate::contention::most_contended_counted;
use crate::work::WorkCounters;
use risa_network::{FlowDemands, LinkPolicy, NetworkState};
use risa_topology::{
    BoxAllocation, BoxId, Cluster, RackId, ResourceKind, UnitDemand, VmPlacement, ALL_RESOURCES,
};
use serde::{Deserialize, Serialize};

/// BFS neighbour ordering (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NeighborOrder {
    /// Racks and boxes in ascending id order (NULB).
    ById,
    /// Racks and boxes in descending available-bandwidth order, ties to
    /// the lower id (NALB's modified BFS).
    ByBandwidthDesc,
}

/// Parameter bundle distinguishing NULB from NALB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NulbParams {
    /// BFS neighbour ordering.
    pub neighbor_order: NeighborOrder,
    /// Link selection policy for the network phase.
    pub link_policy: LinkPolicy,
}

impl NulbParams {
    /// NULB's parameters.
    pub const fn nulb() -> Self {
        NulbParams {
            neighbor_order: NeighborOrder::ById,
            link_policy: LinkPolicy::FirstFit,
        }
    }

    /// NALB's parameters.
    pub const fn nalb() -> Self {
        NulbParams {
            neighbor_order: NeighborOrder::ByBandwidthDesc,
            link_policy: LinkPolicy::MostAvailable,
        }
    }
}

/// Which racks may serve each resource kind of the VM being scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RackFilter {
    /// Every rack: plain NULB/NALB.
    All,
    /// Per kind, only the racks holding a live box that can grant the VM's
    /// own demand of that kind — Algorithm 1's `SUPER_RACK`, RISA's
    /// fallback. Nothing is mutated before the placement is taken, so
    /// membership is asked of the live placement index
    /// ([`Cluster::rack_admits`]) instead of a per-VM snapshot.
    Admitting,
}

/// Reusable buffer for the per-rack sort NALB still performs; owned by the
/// `Scheduler` so the hot path allocates nothing per VM.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// NALB's within-rack box ordering buffer.
    boxes: Vec<BoxId>,
}

/// Find the first box of `kind` able to grant `units`, in global id order
/// (both algorithms' primary scarce-resource scan). The placement index
/// answers in O(log racks); [`WorkCounters`] is charged exactly what the
/// naive whole-table scan would have cost. The rack found admits `units`,
/// so it is a member under either [`RackFilter`].
fn first_box_of_kind(
    cluster: &Cluster,
    kind: ResourceKind,
    units: u32,
    work: &mut WorkCounters,
) -> Option<BoxId> {
    let Some(rack) = cluster.next_rack_with_fit(kind, units, 0) else {
        // The naive scan would have visited every box and found none.
        work.boxes_scanned += cluster.config().boxes_of_kind(kind) as u64;
        return None;
    };
    let b = cluster
        .first_fit_in_rack(rack, kind, units)
        .expect("rack max admits a fit");
    work.boxes_scanned += cluster.kind_position(b) + 1;
    Some(b)
}

/// The BFS's pick inside a rack the index says admits `units`: the first
/// fit in `order`, charging the counters the naive per-box loop would up
/// to it. NALB orders the boxes by descending free uplink bandwidth (ties
/// to the lower id) in the scheduler's scratch buffer; rack size is a
/// small constant, so the sort is O(1).
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's parameter list"
)]
fn fit_in_rack(
    cluster: &Cluster,
    net: &NetworkState,
    rack: RackId,
    kind: ResourceKind,
    units: u32,
    order: NeighborOrder,
    work: &mut WorkCounters,
    scratch: &mut Scratch,
) -> BoxId {
    let mut boxes = cluster.boxes_in_rack(rack, kind);
    if order == NeighborOrder::ByBandwidthDesc {
        work.sorts += 1;
        work.links_scanned += boxes.len() as u64;
        scratch.boxes.clear();
        scratch.boxes.extend_from_slice(boxes);
        scratch.boxes.sort_by(|&a, &b| {
            net.box_uplink_free_mbps(b)
                .cmp(&net.box_uplink_free_mbps(a))
                .then(a.cmp(&b))
        });
        boxes = &scratch.boxes;
    }
    boxes
        .iter()
        .copied()
        .find(|&b| {
            work.boxes_scanned += 1;
            !cluster.is_failed(b) && cluster.available(b) >= units
        })
        .expect("rack max admits a fit")
}

/// BFS search for `kind`: the home rack's boxes first, then every other
/// rack, with ordering per `order`. Returns the first box that fits.
///
/// Only a rack the placement index proves holds a fit is ever read; every
/// other rack the naive walk passes is charged to [`WorkCounters`] without
/// being touched — one rack check each and, unless `restrict` excludes it
/// (a rack that cannot grant `units` is no `SUPER_RACK` member), its whole
/// box list (plus NALB's per-rack sort). NULB's id-order walk is one
/// rack-successor query, which also tells NALB when there is nothing to
/// walk for; NALB's bandwidth-descending walk reads the network's
/// incremental rack ordering instead of sorting per probe.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's parameter list"
)]
fn bfs_find(
    cluster: &Cluster,
    net: &NetworkState,
    kind: ResourceKind,
    units: u32,
    home: RackId,
    restrict: RackFilter,
    order: NeighborOrder,
    work: &mut WorkCounters,
    scratch: &mut Scratch,
) -> Option<BoxId> {
    let mk = cluster.config().box_mix.of(kind) as u64;
    // What the naive BFS pays for `n` racks it scans without finding a fit.
    let charge_misses = |n: u64, work: &mut WorkCounters| {
        if restrict == RackFilter::All {
            work.boxes_scanned += mk * n;
            if order == NeighborOrder::ByBandwidthDesc {
                work.sorts += n;
                work.links_scanned += mk * n;
            }
        }
    };

    // Distance 0: the home rack.
    work.racks_scanned += 1;
    if cluster.rack_admits(home, kind, units) {
        return Some(fit_in_rack(
            cluster, net, home, kind, units, order, work, scratch,
        ));
    }
    charge_misses(1, work);

    // Distance 1: every other rack (two-tier topology ⇒ all equidistant).
    // The home rack holds no fit, so it is never the rack found below, and
    // when no rack holds one the walk passes all the others in any order.
    let others = cluster.num_racks().saturating_sub(1) as u64;
    if order == NeighborOrder::ByBandwidthDesc {
        // The naive walk sorts every other rack by free uplink bandwidth
        // first; the incremental ordering replaces the sort, but the cost
        // model still charges it.
        work.sorts += 1;
        work.links_scanned += others;
    }
    let Some(first) = cluster.next_rack_with_fit(kind, units, 0) else {
        work.racks_scanned += others;
        charge_misses(others, work);
        return None;
    };
    let (rack, passed) = match order {
        NeighborOrder::ById => (first, (first.0 - u16::from(home.0 < first.0)) as u64),
        NeighborOrder::ByBandwidthDesc => net
            .racks_by_free_bw_desc()
            .filter(|&r| r != home)
            .zip(0u64..)
            .find(|&(r, _)| cluster.rack_admits(r, kind, units))
            .expect("some rack holds a fit"),
    };
    work.racks_scanned += passed + 1;
    charge_misses(passed, work);
    Some(fit_in_rack(
        cluster, net, rack, kind, units, order, work, scratch,
    ))
}

/// Algorithm 2 in full: compute phase + network phase, dropping on failure.
///
/// [`RackFilter::Admitting`] limits each kind's candidate boxes to the
/// `SUPER_RACK`'s racks (RISA's fallback path); [`RackFilter::All`] is the
/// plain NULB/NALB behaviour.
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors the paper's parameter list"
)]
pub(crate) fn nulb_schedule(
    cluster: &mut Cluster,
    net: &mut NetworkState,
    demand: &UnitDemand,
    flows: &FlowDemands,
    restrict: RackFilter,
    params: NulbParams,
    work: &mut WorkCounters,
    scratch: &mut Scratch,
) -> Result<VmAssignment, DropReason> {
    // 1. Most scarce resource by contention ratio.
    let scarce = most_contended_counted(cluster, demand, restrict, work);

    // 2. First box satisfying the scarce demand.
    let Some(primary) = first_box_of_kind(cluster, scarce, demand.get(scarce), work) else {
        return Err(DropReason::Compute);
    };
    let home = cluster.rack_of(primary);

    // 3. BFS for the remaining kinds, same rack first.
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
        let Some(b) = bfs_find(
            cluster,
            net,
            kind,
            demand.get(kind),
            home,
            restrict,
            params.neighbor_order,
            work,
            scratch,
        ) else {
            return Err(DropReason::Compute);
        };
        grants[kind.index()] = BoxAllocation {
            box_id: b,
            units: demand.get(kind),
        };
    }
    let placement = VmPlacement { grants };

    // 4. Commit compute, then the network phase.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;
    use risa_network::NetworkConfig;
    use risa_topology::TopologyConfig;

    fn net_for(c: &Cluster) -> NetworkState {
        NetworkState::new(NetworkConfig::paper(), c)
    }

    fn flows(_c: &Cluster, d: &UnitDemand) -> FlowDemands {
        FlowDemands::for_vm(&NetworkConfig::paper(), d)
    }

    /// §4.3.1 toy example 1: NULB picks CPU/RAM/storage table ids (2, 1, 2)
    /// — an inter-rack assignment.
    #[test]
    fn toy_example1_nulb_goes_inter_rack() {
        let mut c = toy::table3_cluster();
        let mut n = net_for(&c);
        let d = toy::typical_vm_demand(&c);
        let f = flows(&c, &d);
        let a = nulb_schedule(
            &mut c,
            &mut n,
            &d,
            &f,
            RackFilter::All,
            NulbParams::nulb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap();
        let ids = toy::table3_ids();
        assert_eq!(a.placement.grant(ResourceKind::Cpu).box_id, ids.cpu[2]);
        assert_eq!(a.placement.grant(ResourceKind::Ram).box_id, ids.ram[1]);
        assert_eq!(a.placement.grant(ResourceKind::Storage).box_id, ids.sto[2]);
        assert!(!a.intra_rack, "paper: NULB's choice is inter-rack");
    }

    /// NALB makes the same compute choice on the toy state (bandwidth is
    /// uniform), still inter-rack.
    #[test]
    fn toy_example1_nalb_also_inter_rack() {
        let mut c = toy::table3_cluster();
        let mut n = net_for(&c);
        let d = toy::typical_vm_demand(&c);
        let f = flows(&c, &d);
        let a = nulb_schedule(
            &mut c,
            &mut n,
            &d,
            &f,
            RackFilter::All,
            NulbParams::nalb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap();
        assert!(!a.intra_rack);
    }

    #[test]
    fn drops_on_compute_when_nothing_fits() {
        let mut c = toy::table3_cluster();
        let mut n = net_for(&c);
        // More RAM than any single box has free (max 8 units).
        let d = UnitDemand::new(1, 9, 1);
        let f = flows(&c, &d);
        let err = nulb_schedule(
            &mut c,
            &mut n,
            &d,
            &f,
            RackFilter::All,
            NulbParams::nulb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap_err();
        assert_eq!(err, DropReason::Compute);
        c.check_invariants().unwrap();
        assert_eq!(n.intra_used_mbps(), 0, "failed compute leaks no bandwidth");
    }

    #[test]
    fn drops_on_network_and_rolls_back_compute() {
        let mut c = Cluster::new(TopologyConfig::paper());
        let mut n = net_for(&c);
        let d = UnitDemand::new(2, 4, 2);
        let f = flows(&c, &d);
        // Saturate every CPU box uplink so the CPU-RAM flow cannot be
        // wired; spread the far ends over both RAM boxes so each RAM trunk
        // fills exactly (2 CPU boxes × 1 flow each per RAM box).
        for b in c
            .boxes_of_kind(ResourceKind::Cpu)
            .map(|b| b.id)
            .collect::<Vec<_>>()
        {
            let rams = c.boxes_in_rack(c.rack_of(b), ResourceKind::Ram).to_vec();
            for ram in rams {
                for _ in 0..4 {
                    n.alloc_flow(&c, b, ram, 200_000, LinkPolicy::FirstFit)
                        .unwrap();
                }
            }
        }
        let before = c.total_available(ResourceKind::Cpu);
        let err = nulb_schedule(
            &mut c,
            &mut n,
            &d,
            &f,
            RackFilter::All,
            NulbParams::nulb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap_err();
        assert_eq!(err, DropReason::Network);
        assert_eq!(
            c.total_available(ResourceKind::Cpu),
            before,
            "compute grants must be rolled back on a network drop"
        );
    }

    #[test]
    fn same_rack_preferred_when_possible() {
        let mut c = Cluster::new(TopologyConfig::paper());
        let mut n = net_for(&c);
        let d = UnitDemand::new(2, 4, 2);
        let f = flows(&c, &d);
        let a = nulb_schedule(
            &mut c,
            &mut n,
            &d,
            &f,
            RackFilter::All,
            NulbParams::nulb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap();
        assert!(a.intra_rack, "pristine cluster: BFS finds home-rack boxes");
    }

    /// RISA's fallback restricts each kind to the racks admitting the VM's
    /// own demand: a home rack outside that set costs one rack check and
    /// not a single box read, where unrestricted NULB scans its box list.
    #[test]
    fn restricted_bfs_skips_a_non_admitting_home_rack_uncharged() {
        // Demand (1, 8, 1): RAM is scarce, so the primary box is rack 0's
        // first RAM box; rack 0's CPU is drained, so it is no SUPER_RACK
        // member for CPU and the CPU lands in rack 1.
        let d = UnitDemand::new(1, 8, 1);
        let run = |restrict: RackFilter| {
            let mut c = Cluster::new(TopologyConfig::paper());
            c.force_available(BoxId(0), 0);
            c.force_available(BoxId(1), 0);
            let mut n = net_for(&c);
            let f = flows(&c, &d);
            let mut work = WorkCounters::new();
            let a = nulb_schedule(
                &mut c,
                &mut n,
                &d,
                &f,
                restrict,
                NulbParams::nulb(),
                &mut work,
                &mut Scratch::default(),
            )
            .unwrap();
            let rack = |kind| c.rack_of(a.placement.grant(kind).box_id);
            assert_eq!(rack(ResourceKind::Ram), RackId(0));
            assert_eq!(rack(ResourceKind::Storage), RackId(0));
            assert_eq!(rack(ResourceKind::Cpu), RackId(1));
            work
        };
        let restricted = run(RackFilter::Admitting);
        // One box read per kind: the primary RAM box, rack 1's first CPU
        // box, rack 0's first storage box. Rack 0's two CPU boxes: none.
        assert_eq!(restricted.boxes_scanned, 3);
        // Contention ratios count member racks (17 + 18 + 18); the BFS
        // checks rack 0 and rack 1 for CPU and rack 0 for storage.
        assert_eq!(restricted.racks_scanned, 53 + 3);
        // Unrestricted NULB sums the three 36-box tables for its ratios and
        // pays rack 0's CPU box list before moving on.
        let all = run(RackFilter::All);
        assert_eq!(all.boxes_scanned, 3 * 36 + restricted.boxes_scanned + 2);
        assert_eq!(all.racks_scanned, 3);
    }

    /// NALB's modified BFS prefers racks with more free uplink bandwidth;
    /// NULB ignores bandwidth and takes the lowest rack id.
    #[test]
    fn nalb_prefers_higher_bandwidth_rack() {
        // Demand (1, 8, 1): RAM is scarce, so the primary box is the first
        // RAM box (rack 0). Emptying rack 0's CPU forces the CPU BFS
        // off-rack, where the orders diverge.
        let d = UnitDemand::new(1, 8, 1);
        let f = flows(&Cluster::new(TopologyConfig::paper()), &d);

        let mut c = Cluster::new(TopologyConfig::paper());
        c.force_available(BoxId(0), 0);
        c.force_available(BoxId(1), 0);
        let mut n = net_for(&c);
        // Drain uplink bandwidth: rack 1 heavily (3 × 150 Gb/s leaving it),
        // racks 2-4 lightly (150 Gb/s arriving each). Racks 5+ stay full.
        n.alloc_flow(&c, BoxId(6), BoxId(12), 150_000, LinkPolicy::FirstFit)
            .unwrap();
        n.alloc_flow(&c, BoxId(7), BoxId(18), 150_000, LinkPolicy::FirstFit)
            .unwrap();
        n.alloc_flow(&c, BoxId(8), BoxId(24), 150_000, LinkPolicy::FirstFit)
            .unwrap();
        let a = nulb_schedule(
            &mut c,
            &mut n,
            &d,
            &f,
            RackFilter::All,
            NulbParams::nalb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap();
        let cpu_rack = c.rack_of(a.placement.grant(ResourceKind::Cpu).box_id);
        assert_eq!(
            cpu_rack,
            RackId(5),
            "NALB picks the first fully-free uplink (racks 5+ tie, lowest id)"
        );

        // NULB, by contrast, takes rack 1 (lowest id) regardless.
        let mut c2 = Cluster::new(TopologyConfig::paper());
        c2.force_available(BoxId(0), 0);
        c2.force_available(BoxId(1), 0);
        let mut n2 = net_for(&c2);
        let a2 = nulb_schedule(
            &mut c2,
            &mut n2,
            &d,
            &f,
            RackFilter::All,
            NulbParams::nulb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap();
        assert_eq!(
            c2.rack_of(a2.placement.grant(ResourceKind::Cpu).box_id),
            RackId(1)
        );
    }

    #[test]
    fn zero_demand_vm_is_trivially_assigned() {
        let mut c = Cluster::new(TopologyConfig::paper());
        let mut n = net_for(&c);
        let d = UnitDemand::ZERO;
        let f = flows(&c, &d);
        let a = nulb_schedule(
            &mut c,
            &mut n,
            &d,
            &f,
            RackFilter::All,
            NulbParams::nulb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap();
        assert!(a.intra_rack);
        assert_eq!(a.network.total_mbps(), 0);
    }
}
