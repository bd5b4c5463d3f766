//! RISA and RISA-BF (Algorithms 1 and 3 — the paper's contribution).
//!
//! Per VM:
//! 1. `INTRA_RACK_POOL` is every rack whose per-resource max-available
//!    boxes can each host the VM's whole demand of that resource. It is
//!    never materialised: its members are successor queries on the
//!    placement index (O(log racks) each), while [`WorkCounters`] keeps
//!    charging the O(racks) membership scan of §4.2.
//! 2. If the pool is non-empty, visit it **round-robin** (a persistent
//!    cursor continues after the last admitted rack, balancing load across
//!    racks). The first rack whose intra-rack network can carry the VM's
//!    flows receives all three grants:
//!    * **RISA** picks boxes by *next-fit*: a persistent per-rack,
//!      per-resource cursor scans from the last-used box (this is the scan
//!      that reproduces the paper's Table 4 trace exactly);
//!    * **RISA-BF** picks the *best-fit* box — the fullest box that still
//!      fits, reducing stranding (§4.2, Algorithm 3).
//! 3. If the pool is empty or no pool rack can carry the flows, fall back
//!    to NULB restricted to the `SUPER_RACK` — per resource, the racks
//!    with a box that can host the VM's demand of it — dropping first when
//!    some resource has no such rack (read from the index's root before
//!    the pool is searched: it empties the pool too). The `SUPER_RACK` is
//!    not built either: membership, member counts and member totals are
//!    O(1) placement-index queries ([`RackFilter::Admitting`]), so the
//!    fallback does no per-rack work.

use crate::algorithm::{DropReason, VmAssignment};
use crate::nulb::{nulb_schedule, NulbParams, RackFilter, Scratch};
use crate::work::WorkCounters;
use risa_network::{FlowDemands, LinkPolicy, NetworkState};
use risa_topology::{
    BoxAllocation, BoxId, Cluster, RackId, ResourceKind, UnitDemand, VmPlacement, ALL_RESOURCES,
};

/// Persistent RISA state: the rack round-robin cursor and the per-rack,
/// per-resource next-fit box cursors.
#[derive(Debug, Clone)]
pub(crate) struct RisaState {
    /// Next rack id the round-robin should prefer.
    rr_cursor: u16,
    /// Per rack, per resource kind: index (within the rack's box list) of
    /// the last-used box. Only RISA (not RISA-BF) consults these.
    box_cursor: Vec<[usize; 3]>,
    /// Best-fit box selection (RISA-BF) instead of next-fit (RISA).
    best_fit: bool,
}

impl RisaState {
    pub(crate) fn new(cluster: &Cluster, best_fit: bool) -> Self {
        RisaState {
            rr_cursor: 0,
            box_cursor: vec![[0; 3]; cluster.num_racks() as usize],
            best_fit,
        }
    }

    /// Pick a box for `kind` within `rack`. The returned position only
    /// feeds the next-fit cursor; best-fit (which never commits cursors)
    /// reports 0.
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
            // Best-fit: the box with the least availability that still
            // fits; ties to the lower id. The placement index scans the
            // rack's fit keys (live boxes only); the counter keeps the
            // naive full-rack-scan cost model.
            work.boxes_scanned += boxes.len() as u64;
            let b = cluster.best_fit_in_rack(rack, kind, units)?;
            Some((b, 0))
        } else {
            // Next-fit: scan from the cursor (inclusive), wrapping.
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

    /// Attempt the whole intra-rack assignment inside `rack`.
    fn try_rack(
        &mut self,
        cluster: &mut Cluster,
        net: &mut NetworkState,
        rack: RackId,
        demand: &UnitDemand,
        flows: &FlowDemands,
        work: &mut WorkCounters,
    ) -> Option<VmAssignment> {
        // Cheap bandwidth pre-check (Alg. 1's AVAIL_INTRA_RACK_NET test);
        // it reads the max-free link of each box trunk in the rack.
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
                    // Commit the next-fit cursors to the chosen boxes.
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

    /// Next `INTRA_RACK_POOL` member at or after `from`, wrapping once
    /// (to the racks below `from`: the ones not searched yet).
    /// Live successor queries over the placement index replace the seed's
    /// per-VM pool vector; failed `try_rack` attempts roll every mutation
    /// back, so the live query sees exactly the snapshot the seed built.
    fn pool_rack_from(&self, cluster: &Cluster, demand: &UnitDemand, from: u16) -> Option<RackId> {
        let racks = cluster.num_racks();
        cluster
            .next_pool_rack(demand, from, racks)
            .or_else(|| cluster.next_pool_rack(demand, 0, from))
    }

    /// Algorithm 1 / 3 for one VM.
    pub(crate) fn schedule(
        &mut self,
        cluster: &mut Cluster,
        net: &mut NetworkState,
        demand: &UnitDemand,
        flows: &FlowDemands,
        work: &mut WorkCounters,
        scratch: &mut Scratch,
    ) -> Result<VmAssignment, DropReason> {
        // The seed built INTRA_RACK_POOL with an O(racks) membership scan
        // per VM; the counter keeps charging that §4.2 cost model while
        // the successor queries below answer in O(log racks).
        work.racks_scanned += cluster.num_racks() as u64;
        // A kind no rack admits empties the pool and the SUPER_RACK alike —
        // the common case past saturation — and the placement index's root
        // says so in O(1), before either is searched.
        let feasible = ALL_RESOURCES
            .iter()
            .all(|&k| cluster.any_rack_admits(k, demand.get(k)));
        // Round-robin: start at the first pool rack ≥ the cursor (wrapping
        // to the lowest pool rack), then visit each pool member once.
        let first = if feasible {
            self.pool_rack_from(cluster, demand, self.rr_cursor)
        } else {
            None
        };
        if let Some(first) = first {
            let mut rack = first;
            loop {
                if let Some(a) = self.try_rack(cluster, net, rack, demand, flows, work) {
                    self.rr_cursor = (rack.0 + 1) % cluster.num_racks();
                    return Ok(a);
                }
                match self.pool_rack_from(cluster, demand, rack.0 + 1) {
                    Some(next) if next != first => rack = next,
                    _ => break, // wrapped through the whole pool
                }
            }
        }
        // Fallback: SUPER_RACK + NULB (Alg. 1's else branch). The seed
        // built the SUPER_RACK's three rack lists with another O(racks)
        // scan, charged here; the lists themselves are never built. An
        // empty list is exactly "no rack admits that kind", and membership
        // is `RackFilter::Admitting`'s live index query.
        work.racks_scanned += cluster.num_racks() as u64;
        if !feasible {
            return Err(DropReason::Compute);
        }
        nulb_schedule(
            cluster,
            net,
            demand,
            flows,
            RackFilter::Admitting,
            NulbParams::nulb(),
            work,
            scratch,
        )
        .map(|mut a| {
            a.used_fallback = true;
            a
        })
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

    fn flows(d: &UnitDemand) -> FlowDemands {
        FlowDemands::for_vm(&NetworkConfig::paper(), d)
    }

    /// §4.3: "Let us assume that there are enough network resources" — the
    /// toy traces are compute-only, so Table 4 runs with zero-demand flows.
    fn no_flows() -> FlowDemands {
        FlowDemands {
            cpu_ram_mbps: 0,
            ram_sto_mbps: 0,
        }
    }

    /// §4.3.1 toy example 1: RISA assigns table ids (2, 2, 2) — all rack 1,
    /// no inter-rack usage.
    #[test]
    fn toy_example1_risa_stays_intra_rack() {
        let mut c = toy::table3_cluster();
        let mut n = net_for(&c);
        let d = toy::typical_vm_demand(&c);
        let mut s = RisaState::new(&c, false);
        let a = s
            .schedule(
                &mut c,
                &mut n,
                &d,
                &flows(&d),
                &mut WorkCounters::new(),
                &mut Scratch::default(),
            )
            .unwrap();
        let ids = toy::table3_ids();
        assert!(a.intra_rack);
        assert!(!a.used_fallback);
        assert_eq!(a.placement.grant(ResourceKind::Cpu).box_id, ids.cpu[2]);
        assert_eq!(a.placement.grant(ResourceKind::Ram).box_id, ids.ram[2]);
        assert_eq!(a.placement.grant(ResourceKind::Storage).box_id, ids.sto[2]);
        assert_eq!(n.inter_used_mbps(), 0);
    }

    /// Table 4, RISA column: next-fit packing of the eight CPU-only VMs —
    /// boxes 0,0,0,1,1,1,drop,1 (rack-1 box indexes).
    #[test]
    fn table4_risa_next_fit_trace() {
        let mut c = toy::table4_cluster();
        let mut n = net_for(&c);
        let mut s = RisaState::new(&c, false);
        let ids = toy::table3_ids();
        let mut trace: Vec<Option<u8>> = vec![];
        for cores in toy::TABLE4_CPU_REQUESTS {
            let d = UnitDemand::from_natural(&c.config().units, cores, 0, 0);
            match s.schedule(
                &mut c,
                &mut n,
                &d,
                &no_flows(),
                &mut WorkCounters::new(),
                &mut Scratch::default(),
            ) {
                Ok(a) => {
                    let b = a.placement.grant(ResourceKind::Cpu).box_id;
                    let idx = if b == ids.cpu[2] {
                        0
                    } else if b == ids.cpu[3] {
                        1
                    } else {
                        panic!("CPU landed outside rack 1: {b}")
                    };
                    trace.push(Some(idx));
                }
                Err(_) => trace.push(None),
            }
        }
        assert_eq!(
            trace,
            vec![
                Some(0),
                Some(0),
                Some(0),
                Some(1),
                Some(1),
                Some(1),
                None, // VM 6 (16 cores): 9 + 7 cores left, unplaceable
                Some(1),
            ],
            "Table 4 RISA column"
        );
    }

    /// Table 4, RISA-BF column: best-fit alternation 1,1,0,0,1,0,(drop),0.
    /// The paper prints VM 6 as box 0, but Table 4 demands 100 cores of a
    /// 96-core rack — VM 6 is arithmetically unplaceable (see `toy`).
    #[test]
    fn table4_risa_bf_best_fit_trace() {
        let mut c = toy::table4_cluster();
        let mut n = net_for(&c);
        let mut s = RisaState::new(&c, true);
        let ids = toy::table3_ids();
        let mut trace: Vec<Option<u8>> = vec![];
        for cores in toy::TABLE4_CPU_REQUESTS {
            let d = UnitDemand::from_natural(&c.config().units, cores, 0, 0);
            match s.schedule(
                &mut c,
                &mut n,
                &d,
                &no_flows(),
                &mut WorkCounters::new(),
                &mut Scratch::default(),
            ) {
                Ok(a) => {
                    let b = a.placement.grant(ResourceKind::Cpu).box_id;
                    trace.push(Some(u8::from(b == ids.cpu[3])));
                }
                Err(_) => trace.push(None),
            }
        }
        assert_eq!(
            trace,
            vec![
                Some(1),
                Some(1),
                Some(0),
                Some(0),
                Some(1),
                Some(0),
                None,
                Some(0),
            ],
            "Table 4 RISA-BF column (VM 6 cannot fit: 100 cores vs 96)"
        );
    }

    /// RISA-BF packs strictly more of Table 4 than first-fit-style RISA
    /// would if the last VM were larger — the §4.3.2 point that best-fit
    /// reduces stranding.
    #[test]
    fn best_fit_leaves_larger_contiguous_hole() {
        // After vms 0..=5: RISA leaves (9, 7) cores; RISA-BF leaves (14, 2).
        let run = |best_fit: bool| -> Vec<u32> {
            let mut c = toy::table4_cluster();
            let mut n = net_for(&c);
            let mut s = RisaState::new(&c, best_fit);
            for cores in &toy::TABLE4_CPU_REQUESTS[..6] {
                let d = UnitDemand::from_natural(&c.config().units, *cores, 0, 0);
                s.schedule(
                    &mut c,
                    &mut n,
                    &d,
                    &no_flows(),
                    &mut WorkCounters::new(),
                    &mut Scratch::default(),
                )
                .unwrap();
            }
            let ids = toy::table3_ids();
            vec![c.available(ids.cpu[2]), c.available(ids.cpu[3])]
        };
        assert_eq!(run(false), vec![9, 7]);
        assert_eq!(run(true), vec![14, 2]);
        // A 14-core VM now fits under best-fit but not under next-fit.
        assert!(run(true).iter().any(|&a| a >= 14));
        assert!(!run(false).iter().any(|&a| a >= 14));
    }

    /// Round-robin rotates across racks of the pool.
    #[test]
    fn round_robin_spreads_across_racks() {
        let mut c = Cluster::new(TopologyConfig::paper());
        let mut n = net_for(&c);
        let mut s = RisaState::new(&c, false);
        let d = UnitDemand::new(2, 4, 2);
        let mut racks = vec![];
        for _ in 0..18 {
            let a = s
                .schedule(
                    &mut c,
                    &mut n,
                    &d,
                    &flows(&d),
                    &mut WorkCounters::new(),
                    &mut Scratch::default(),
                )
                .unwrap();
            racks.push(c.rack_of(a.placement.grant(ResourceKind::Cpu).box_id));
        }
        // Every rack used exactly once before any repeats.
        let expected: Vec<RackId> = (0..18).map(RackId).collect();
        assert_eq!(racks, expected);
        // The 19th wraps back to rack 0.
        let a = s
            .schedule(
                &mut c,
                &mut n,
                &d,
                &flows(&d),
                &mut WorkCounters::new(),
                &mut Scratch::default(),
            )
            .unwrap();
        assert_eq!(
            c.rack_of(a.placement.grant(ResourceKind::Cpu).box_id),
            RackId(0)
        );
    }

    /// Empty pool triggers the SUPER_RACK/NULB fallback and flags it.
    #[test]
    fn fallback_on_empty_pool() {
        let mut c = toy::table3_cluster();
        let mut n = net_for(&c);
        // Demand: RAM 8u exists only in rack 1; CPU 2u only rack 1; but
        // require 5u storage — rack 1's max is 8u... make the pool empty by
        // demanding CPU 2u + RAM 4u + storage 5u and draining rack1 CPU.
        let ids = toy::table3_ids();
        c.force_available(ids.cpu[2], 1); // rack1 box0: 1 unit
        c.force_available(ids.cpu[3], 2); // rack1 box1: 2 units
                                          // Pool: rack needs cpu>=2 (rack1 box1 ok), ram>=4 (rack1 ok),
                                          // sto>=2 (rack1 ok) → pool=[rack1]. Drain storage to kill the pool.
        c.force_available(ids.sto[2], 1);
        c.force_available(ids.sto[3], 1);
        let d = UnitDemand::new(2, 4, 2);
        let mut s = RisaState::new(&c, false);
        // No rack can host storage 2u in one box → SUPER_RACK infeasible.
        let err = s
            .schedule(
                &mut c,
                &mut n,
                &d,
                &flows(&d),
                &mut WorkCounters::new(),
                &mut Scratch::default(),
            )
            .unwrap_err();
        assert_eq!(err, DropReason::Compute);

        // Give rack 0 storage back: pool still empty (rack0 lacks CPU),
        // but SUPER_RACK is feasible → inter-rack fallback assignment.
        c.force_available(ids.sto[0], 8);
        let a = s
            .schedule(
                &mut c,
                &mut n,
                &d,
                &flows(&d),
                &mut WorkCounters::new(),
                &mut Scratch::default(),
            )
            .unwrap();
        assert!(a.used_fallback);
        assert!(!a.intra_rack, "CPU in rack 1, storage only in rack 0");
    }

    /// Network-saturated pool racks are skipped; the next pool rack wins.
    #[test]
    fn pool_rack_with_saturated_network_is_skipped() {
        let mut c = Cluster::new(TopologyConfig::paper());
        let mut n = net_for(&c);
        // Saturate every box uplink in rack 0 pairwise: eight full-link
        // flows between each pair fill both endpoint trunks exactly.
        for (a, b) in [(0u32, 1u32), (2, 3), (4, 5)] {
            for _ in 0..8 {
                n.alloc_flow(&c, BoxId(a), BoxId(b), 200_000, LinkPolicy::FirstFit)
                    .unwrap();
            }
        }
        let d = UnitDemand::new(2, 4, 2);
        let mut s = RisaState::new(&c, false);
        let a = s
            .schedule(
                &mut c,
                &mut n,
                &d,
                &flows(&d),
                &mut WorkCounters::new(),
                &mut Scratch::default(),
            )
            .unwrap();
        assert!(a.intra_rack);
        assert_eq!(
            c.rack_of(a.placement.grant(ResourceKind::Cpu).box_id),
            RackId(1),
            "rack 0 has compute but no bandwidth; round-robin moves on"
        );
    }
}
