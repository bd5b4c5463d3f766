//! Property test for the network's derived state — the running layer
//! totals and the rack bandwidth ordering: under arbitrary interleavings
//! of every mutation the crate exposes — including the refused ones,
//! which must roll back — `intra_used_mbps`, `inter_used_mbps` and
//! `stranded_mbps` equal the sums over every trunk,
//! `racks_by_free_bw_desc` equals a sort of the racks by their trunks'
//! free bandwidth, and `check_invariants` (which recomputes all of it
//! too) holds, after each step.

use proptest::prelude::*;
use risa_network::{
    FlowDemands, LinkPolicy, NetworkConfig, NetworkState, Trunk, TrunkId, VmNetAllocation,
};
use risa_topology::{BoxId, Cluster, RackId, TopologyConfig};

/// Operations land on the cluster's last four racks (24 boxes), so trunks
/// saturate — and allocations fail and roll back — within a short run,
/// and so the `scaled(40)` case exercises high trunk ids.
const WINDOW_RACKS: u16 = 4;

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        boxes: [u32; 3],
        cpu_ram: usize,
        ram_sto: usize,
        most_available: bool,
    },
    Release(u32),
    Replay(u32),
    /// `fail_link` or `restore_link` on one link of a box or rack trunk.
    Link {
        fail: bool,
        rack_trunk: bool,
        idx: u32,
        link: u32,
    },
}

/// Flow sizes from nothing to a whole 200 Gb/s link.
const MBPS: [u64; 4] = [0, 40_000, 120_000, 200_000];

fn op_strategy() -> impl Strategy<Value = Op> {
    let alloc = || {
        (
            (any::<u32>(), any::<u32>(), any::<u32>()),
            0..MBPS.len(),
            0..MBPS.len(),
            any::<bool>(),
        )
            .prop_map(|((c, r, s), cpu_ram, ram_sto, most_available)| Op::Alloc {
                boxes: [c, r, s],
                cpu_ram,
                ram_sto,
                most_available,
            })
    };
    let link = || {
        (any::<bool>(), any::<bool>(), any::<u32>(), any::<u32>()).prop_map(
            |(fail, rack_trunk, idx, link)| Op::Link {
                fail,
                rack_trunk,
                idx,
                link,
            },
        )
    };
    prop_oneof![
        alloc(),
        alloc(),
        alloc(),
        any::<u32>().prop_map(Op::Release),
        any::<u32>().prop_map(Op::Replay),
        link(),
        link(),
    ]
}

/// `[intra_used, inter_used, stranded]` the slow way: every trunk read
/// through the public accessor.
fn naive_totals(cluster: &Cluster, net: &NetworkState) -> [u64; 3] {
    let boxes = || (0..cluster.num_boxes() as u32).map(|b| net.trunk(TrunkId::BoxUplink(b)));
    let racks = || (0..cluster.num_racks()).map(|r| net.trunk(TrunkId::RackUplink(r)));
    [
        boxes().map(Trunk::used_mbps).sum(),
        racks().map(Trunk::used_mbps).sum(),
        boxes().chain(racks()).map(Trunk::stranded_mbps).sum(),
    ]
}

/// NALB's neighbour order the slow way: every rack sorted by its trunk's
/// free bandwidth, descending, ties to the lower id. Untouched racks all
/// tie at full capacity, and flows of equal size make more ties.
fn naive_rack_order(cluster: &Cluster, net: &NetworkState) -> Vec<RackId> {
    let mut racks: Vec<RackId> = (0..cluster.num_racks()).map(RackId).collect();
    racks.sort_by_key(|&r| (std::cmp::Reverse(net.rack_uplink_free_mbps(r)), r));
    racks
}

fn assert_coherent(cluster: &Cluster, net: &NetworkState) -> Result<(), TestCaseError> {
    net.check_invariants().map_err(TestCaseError::fail)?;
    prop_assert_eq!(
        net.racks_by_free_bw_desc().collect::<Vec<_>>(),
        naive_rack_order(cluster, net)
    );
    prop_assert_eq!(
        [
            net.intra_used_mbps(),
            net.inter_used_mbps(),
            net.stranded_mbps()
        ],
        naive_totals(cluster, net)
    );
    Ok(())
}

fn drive(topology: TopologyConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let cluster = Cluster::new(topology);
    let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
    let num_boxes = cluster.num_boxes() as u32;
    let window = WINDOW_RACKS as u32 * (num_boxes / cluster.num_racks() as u32);
    let box_at = |i: u32| num_boxes - window + i % window;
    let mut held: Vec<VmNetAllocation> = Vec::new();
    let mut released: Vec<VmNetAllocation> = Vec::new();
    assert_coherent(&cluster, &net)?;
    for op in ops {
        match *op {
            Op::Alloc {
                boxes,
                cpu_ram,
                ram_sto,
                most_available,
            } => {
                let demand = FlowDemands {
                    cpu_ram_mbps: MBPS[cpu_ram],
                    ram_sto_mbps: MBPS[ram_sto],
                };
                let policy = if most_available {
                    LinkPolicy::MostAvailable
                } else {
                    LinkPolicy::FirstFit
                };
                let [cpu, ram, sto] = boxes.map(|b| BoxId(box_at(b)));
                let before = naive_totals(&cluster, &net);
                match net.alloc_vm(&cluster, cpu, ram, sto, &demand, policy) {
                    Ok(a) => held.push(a),
                    Err(_) => prop_assert_eq!(
                        naive_totals(&cluster, &net),
                        before,
                        "a refused allocation must roll back every hop"
                    ),
                }
            }
            Op::Release(i) if !held.is_empty() => {
                let a = held.swap_remove(i as usize % held.len());
                net.release_vm(&a)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                released.push(a);
            }
            Op::Replay(i) if !released.is_empty() => {
                let i = i as usize % released.len();
                let before = naive_totals(&cluster, &net);
                match net.replay_vm(&released[i]) {
                    Ok(()) => held.push(released.swap_remove(i)),
                    Err(_) => prop_assert_eq!(
                        naive_totals(&cluster, &net),
                        before,
                        "a refused replay must roll back every hop"
                    ),
                }
            }
            Op::Release(_) | Op::Replay(_) => {}
            // Double faults and spurious repairs are refused; either way
            // the totals must still match.
            Op::Link {
                fail,
                rack_trunk,
                idx,
                link,
            } => {
                let id = if rack_trunk {
                    TrunkId::RackUplink(
                        cluster.num_racks() - WINDOW_RACKS + idx as u16 % WINDOW_RACKS,
                    )
                } else {
                    TrunkId::BoxUplink(box_at(idx))
                };
                let link = link as usize % net.trunk(id).width();
                let _ = if fail {
                    net.fail_link(id, link)
                } else {
                    net.restore_link(id, link)
                };
            }
        }
        assert_coherent(&cluster, &net)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn layer_totals_match_trunk_sums_on_the_paper_network(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        drive(TopologyConfig::paper(), &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn layer_totals_match_trunk_sums_at_720_racks(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        drive(TopologyConfig::paper().scaled(40), &ops)?;
    }
}
