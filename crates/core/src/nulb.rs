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
//! RISA's fallback, restricted to the `SUPER_RACK` rack lists.

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

/// The `SUPER_RACK` of Algorithm 1: per resource kind, the racks holding at
/// least one box that can satisfy the VM's demand of that kind.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuperRack {
    racks: [Vec<RackId>; 3],
    member: [Vec<bool>; 3],
    /// Per kind: `prefix[r]` = number of member racks with id < `r`
    /// (length racks + 1). Lets the index-backed scans charge the exact
    /// box count a naive restricted scan would have visited, in O(1).
    prefix: [Vec<u32>; 3],
}

impl SuperRack {
    /// Build the three rack lists for `demand` from the cached per-rack
    /// maxima (O(racks)).
    pub fn build(cluster: &Cluster, demand: &UnitDemand) -> Self {
        let mut sr = SuperRack::default();
        sr.rebuild(cluster, demand);
        sr
    }

    /// As [`SuperRack::build`], refilling `self`'s buffers in place: once
    /// they have grown to the cluster's rack count this allocates nothing.
    pub fn rebuild(&mut self, cluster: &Cluster, demand: &UnitDemand) {
        for kind in ALL_RESOURCES {
            let k = kind.index();
            let units = demand.get(kind);
            let (racks, member, prefix) =
                (&mut self.racks[k], &mut self.member[k], &mut self.prefix[k]);
            racks.clear();
            member.clear();
            prefix.clear();
            let mut members = 0;
            prefix.push(members);
            for r in 0..cluster.num_racks() {
                let fits = cluster.rack_admits(RackId(r), kind, units);
                if fits {
                    racks.push(RackId(r));
                }
                member.push(fits);
                members += u32::from(fits);
                prefix.push(members);
            }
        }
    }

    /// Racks able to satisfy `kind`.
    pub fn racks_for(&self, kind: ResourceKind) -> &[RackId] {
        &self.racks[kind.index()]
    }

    /// Whether `rack` may serve `kind`.
    pub fn allows(&self, rack: RackId, kind: ResourceKind) -> bool {
        self.member[kind.index()][rack.0 as usize]
    }

    /// Number of member racks for `kind` with id in `[lo, hi)`. O(1).
    fn members_in(&self, kind: ResourceKind, lo: u16, hi: u16) -> u64 {
        let p = &self.prefix[kind.index()];
        (p[hi as usize] - p[lo as usize]) as u64
    }

    /// True when some kind has no candidate rack at all — the VM cannot be
    /// placed and must drop in the compute phase.
    pub fn infeasible(&self) -> bool {
        self.racks.iter().any(|r| r.is_empty())
    }
}

/// Reusable buffers for the per-rack sorts NALB still performs and for
/// RISA's fallback `SUPER_RACK`; owned by the `Scheduler` so the hot path
/// allocates nothing per VM.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// NALB's within-rack box ordering buffer.
    boxes: Vec<BoxId>,
    /// RISA's fallback restriction, rebuilt in place per fallback VM.
    pub(crate) super_rack: SuperRack,
}

/// Number of member racks (per the optional restriction) in `[lo, hi)`,
/// excluding `home` — the racks a naive BFS would have fully scanned.
fn allowed_in_window(
    restrict: Option<&SuperRack>,
    kind: ResourceKind,
    lo: u16,
    hi: u16,
    home: RackId,
) -> u64 {
    if hi <= lo {
        return 0;
    }
    let total = match restrict {
        None => (hi - lo) as u64,
        Some(sr) => sr.members_in(kind, lo, hi),
    };
    let home_counts = (lo..hi).contains(&home.0) && restrict.is_none_or(|sr| sr.allows(home, kind));
    total - u64::from(home_counts)
}

/// Find the first box of `kind` able to grant `units`, in global id order
/// (both algorithms' primary scarce-resource scan). The placement index
/// answers in O(log racks); [`WorkCounters`] is charged exactly what the
/// naive whole-table scan would have cost.
fn first_box_of_kind(
    cluster: &Cluster,
    kind: ResourceKind,
    units: u32,
    restrict: Option<&SuperRack>,
    work: &mut WorkCounters,
) -> Option<BoxId> {
    let total = cluster.config().boxes_of_kind(kind) as u64;
    let mut from = 0u16;
    loop {
        let Some(rack) = cluster.next_rack_with_fit(kind, units, from) else {
            // The naive scan would have visited every box and found none.
            work.boxes_scanned += total;
            return None;
        };
        if restrict.is_none_or(|sr| sr.allows(rack, kind)) {
            let b = cluster
                .first_fit_in_rack(rack, kind, units)
                .expect("rack max admits a fit");
            work.boxes_scanned += cluster.kind_position(b) + 1;
            return Some(b);
        }
        // A fitting but restricted rack: the naive scan passes through it.
        from = rack.0 + 1;
        if from >= cluster.num_racks() {
            work.boxes_scanned += total;
            return None;
        }
    }
}

/// Scan one rack's boxes in id order for a fit, charging the counters the
/// naive per-box loop would (found at offset `o` → `o + 1` reads; miss →
/// the rack's whole box list).
fn id_order_box_in_rack(
    cluster: &Cluster,
    rack: RackId,
    kind: ResourceKind,
    units: u32,
    work: &mut WorkCounters,
) -> Option<BoxId> {
    let boxes = cluster.boxes_in_rack(rack, kind);
    match boxes
        .iter()
        .position(|&b| !cluster.is_failed(b) && cluster.available(b) >= units)
    {
        Some(pos) => {
            work.boxes_scanned += pos as u64 + 1;
            Some(boxes[pos])
        }
        None => {
            work.boxes_scanned += boxes.len() as u64;
            None
        }
    }
}

/// NALB's within-rack pick: boxes ordered by descending free uplink
/// bandwidth (ties to the lower id), first fit wins. Uses the scheduler's
/// scratch buffer; rack size is a small constant, so the sort is O(1).
fn bw_order_box_in_rack(
    cluster: &Cluster,
    net: &NetworkState,
    rack: RackId,
    kind: ResourceKind,
    units: u32,
    work: &mut WorkCounters,
    scratch: &mut Scratch,
) -> Option<BoxId> {
    let boxes = cluster.boxes_in_rack(rack, kind);
    work.sorts += 1;
    work.links_scanned += boxes.len() as u64;
    scratch.boxes.clear();
    scratch.boxes.extend_from_slice(boxes);
    scratch.boxes.sort_by(|&a, &b| {
        net.box_uplink_free_mbps(b)
            .cmp(&net.box_uplink_free_mbps(a))
            .then(a.cmp(&b))
    });
    scratch.boxes.iter().copied().find(|&b| {
        work.boxes_scanned += 1;
        !cluster.is_failed(b) && cluster.available(b) >= units
    })
}

/// BFS search for `kind`: the home rack's boxes first, then every other
/// rack, with ordering per `order`. Returns the first box that fits.
///
/// NULB's id-order walk is served by the placement index's rack-successor
/// query (skipped racks are charged to [`WorkCounters`] arithmetically);
/// NALB's bandwidth-descending walk reads the network's incremental rack
/// ordering instead of sorting every rack per probe.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
fn bfs_find(
    cluster: &Cluster,
    net: &NetworkState,
    kind: ResourceKind,
    units: u32,
    home: RackId,
    restrict: Option<&SuperRack>,
    order: NeighborOrder,
    work: &mut WorkCounters,
    scratch: &mut Scratch,
) -> Option<BoxId> {
    let mk = cluster.config().box_mix.of(kind) as u64;
    let racks = cluster.num_racks();
    let home_allowed = restrict.is_none_or(|sr| sr.allows(home, kind));

    // Distance 0: the home rack.
    work.racks_scanned += 1;
    if home_allowed {
        let found = match order {
            NeighborOrder::ById => id_order_box_in_rack(cluster, home, kind, units, work),
            NeighborOrder::ByBandwidthDesc => {
                bw_order_box_in_rack(cluster, net, home, kind, units, work, scratch)
            }
        };
        if found.is_some() {
            return found;
        }
    }

    // Distance 1: every other rack (two-tier topology ⇒ all equidistant).
    match order {
        NeighborOrder::ById => {
            // Walk only the racks the index proves can fit; charge skipped
            // racks what the naive in-order scan would have cost (one rack
            // check each, a full box list for allowed racks).
            let mut from = 0u16;
            loop {
                let next = cluster.next_rack_with_fit(kind, units, from);
                let stop = next.map_or(racks, |r| r.0);
                work.racks_scanned +=
                    (stop - from) as u64 - u64::from((from..stop).contains(&home.0));
                work.boxes_scanned += mk * allowed_in_window(restrict, kind, from, stop, home);
                let rack = next?;
                if rack == home {
                    from = rack.0 + 1;
                    if from >= racks {
                        return None;
                    }
                    continue;
                }
                work.racks_scanned += 1;
                if restrict.is_none_or(|sr| sr.allows(rack, kind)) {
                    let b = id_order_box_in_rack(cluster, rack, kind, units, work);
                    debug_assert!(b.is_some(), "rack max admits a fit");
                    return b;
                }
                from = rack.0 + 1;
                if from >= racks {
                    return None;
                }
            }
        }
        NeighborOrder::ByBandwidthDesc => {
            // The naive walk sorts every other rack by free uplink
            // bandwidth first; the incremental ordering replaces the sort,
            // but the cost model still charges it.
            work.sorts += 1;
            work.links_scanned += racks.saturating_sub(1) as u64;
            for rack in net.racks_by_free_bw_desc() {
                if rack == home {
                    continue;
                }
                work.racks_scanned += 1;
                if let Some(sr) = restrict {
                    if !sr.allows(rack, kind) {
                        continue;
                    }
                }
                if let Some(b) =
                    bw_order_box_in_rack(cluster, net, rack, kind, units, work, scratch)
                {
                    return Some(b);
                }
            }
            None
        }
    }
}

/// Algorithm 2 in full: compute phase + network phase, dropping on failure.
///
/// `restrict` limits each kind's candidate boxes to the SUPER_RACK's racks
/// (RISA's fallback path); `None` is the plain NULB/NALB behaviour.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub(crate) fn nulb_schedule(
    cluster: &mut Cluster,
    net: &mut NetworkState,
    demand: &UnitDemand,
    flows: &FlowDemands,
    restrict: Option<&SuperRack>,
    params: NulbParams,
    work: &mut WorkCounters,
    scratch: &mut Scratch,
) -> Result<VmAssignment, DropReason> {
    // 1. Most scarce resource by contention ratio.
    let scarce = most_contended_counted(cluster, demand, restrict, work);

    // 2. First box satisfying the scarce demand.
    let Some(primary) = first_box_of_kind(cluster, scarce, demand.get(scarce), restrict, work)
    else {
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
            None,
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
            None,
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
            None,
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
            None,
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
            None,
            NulbParams::nulb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap();
        assert!(a.intra_rack, "pristine cluster: BFS finds home-rack boxes");
    }

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

    #[test]
    fn restriction_excludes_rack0_ram() {
        // Force the scarce search away from rack 0 via SUPER_RACK even
        // though rack 0's RAM box 3 has 4 units free.
        let mut c = toy::table3_cluster();
        let mut n = net_for(&c);
        let d = toy::typical_vm_demand(&c);
        let f = flows(&c, &d);
        // Build a SUPER_RACK for a demand whose RAM needs 8 units: only
        // rack 1 qualifies for RAM.
        let tight = UnitDemand::new(2, 8, 2);
        let sr = SuperRack::build(&c, &tight);
        assert_eq!(sr.racks_for(ResourceKind::Ram), &[RackId(1)]);
        let a = nulb_schedule(
            &mut c,
            &mut n,
            &d,
            &f,
            Some(&sr),
            NulbParams::nulb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap();
        // With rack 0 excluded for RAM, everything lands in rack 1.
        assert!(a.intra_rack);
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
            None,
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
            None,
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
            None,
            NulbParams::nulb(),
            &mut WorkCounters::new(),
            &mut Scratch::default(),
        )
        .unwrap();
        assert!(a.intra_rack);
        assert_eq!(a.network.total_mbps(), 0);
    }
}
