//! Property test for the network's derived state — the running layer
//! totals and the rack bandwidth ordering: under arbitrary interleavings
//! of every mutation the crate exposes — including the refused ones,
//! which must roll back — `intra_used_mbps`, `inter_used_mbps` and
//! `stranded_mbps` equal the sums over every trunk and `check_invariants`
//! (which recomputes all of it too, every trunk record's four ledgers
//! among it: the sums, the maximum and how many up links hold it, and the
//! rack ordering with the racks still pending a re-rank) holds, after
//! each step. Reads of `racks_by_free_bw_desc` come at random points of
//! the script, so several racks' uplinks may have moved — some back to
//! where they were ranked — since the last one, and each read must equal
//! a fresh sort of the racks by their trunks' free bandwidth. On the trunks
//! the operations touch, every read a scheduler makes — the ledgers,
//! `max_link_free_mbps`, `first_fit`, `most_available` — also equals a
//! recount over the links' public free/up state, so the down bit stored in
//! a link word never leaks into one, at the paper's trunk widths, at 1, 3,
//! 63, 64 and 65, and at any width from 1 to 65.

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
    /// Read NALB's neighbour order (which re-ranks the pending racks).
    ReadOrder,
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
        Just(Op::ReadOrder),
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

/// One trunk's scheduler-facing reads against a recount over its links'
/// free bandwidth and up/down state, for every demand the operations use
/// and one past a whole link.
fn assert_trunk_reads(t: Trunk<'_>) -> Result<(), TestCaseError> {
    let links: Vec<(u64, bool)> = (0..t.width())
        .map(|l| (t.link_free_mbps(l), t.link_up(l)))
        .collect();
    let up = || links.iter().filter(|(_, up)| *up).map(|&(free, _)| free);
    let all: u64 = links.iter().map(|&(free, _)| free).sum();
    let max_up = up().max().unwrap_or(0);
    prop_assert!(links
        .iter()
        .all(|&(free, _)| free <= t.link_capacity_mbps()));
    prop_assert_eq!(t.free_mbps(), up().sum::<u64>());
    prop_assert_eq!(t.used_mbps(), t.capacity_mbps() - all);
    prop_assert_eq!(t.stranded_mbps(), all - t.free_mbps());
    prop_assert_eq!(t.max_link_free_mbps(), max_up);
    prop_assert_eq!(t.up_width(), up().count());
    for mbps in [1, MBPS[1], MBPS[2], MBPS[3], MBPS[3] + 1] {
        let fits = |&(free, up): &(u64, bool)| up && free >= mbps;
        prop_assert_eq!(t.first_fit(mbps), links.iter().position(fits));
        let most = links
            .iter()
            .position(|&(free, up)| up && free == max_up && max_up >= mbps);
        prop_assert_eq!(t.most_available(mbps), most);
    }
    Ok(())
}

fn assert_coherent(
    cluster: &Cluster,
    net: &NetworkState,
    touched: impl Iterator<Item = TrunkId>,
) -> Result<(), TestCaseError> {
    net.check_invariants().map_err(TestCaseError::fail)?;
    prop_assert_eq!(
        [
            net.intra_used_mbps(),
            net.inter_used_mbps(),
            net.stranded_mbps()
        ],
        naive_totals(cluster, net)
    );
    for id in touched {
        assert_trunk_reads(net.trunk(id))?;
    }
    Ok(())
}

fn drive(topology: TopologyConfig, cfg: NetworkConfig, ops: &[Op]) -> Result<(), TestCaseError> {
    let cluster = Cluster::new(topology);
    let mut net = NetworkState::new(cfg, &cluster);
    let num_boxes = cluster.num_boxes() as u32;
    let window = WINDOW_RACKS as u32 * (num_boxes / cluster.num_racks() as u32);
    let box_at = |i: u32| num_boxes - window + i % window;
    let first_rack = cluster.num_racks() - WINDOW_RACKS;
    let touched = || {
        (0..window)
            .map(|i| TrunkId::BoxUplink(box_at(i)))
            .chain((first_rack..cluster.num_racks()).map(TrunkId::RackUplink))
    };
    let assert_coherent = |net: &NetworkState| assert_coherent(&cluster, net, touched());
    let assert_order = |net: &mut NetworkState| {
        let fresh = naive_rack_order(&cluster, net);
        prop_assert_eq!(net.racks_by_free_bw_desc().collect::<Vec<_>>(), fresh);
        net.check_invariants().map_err(TestCaseError::fail)
    };
    let mut held: Vec<VmNetAllocation> = Vec::new();
    let mut released: Vec<VmNetAllocation> = Vec::new();
    assert_coherent(&net)?;
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
                    TrunkId::RackUplink(first_rack + idx as u16 % WINDOW_RACKS)
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
            Op::ReadOrder => assert_order(&mut net)?,
        }
        assert_coherent(&net)?;
    }
    assert_order(&mut net)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn layer_totals_match_trunk_sums_on_the_paper_network(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        drive(TopologyConfig::paper(), NetworkConfig::paper(), &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn layer_totals_match_trunk_sums_at_720_racks(
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        drive(TopologyConfig::paper().scaled(40), NetworkConfig::paper(), &ops)?;
    }
}

/// The trunk widths the flat layout is checked at besides the paper's
/// 8 / 16: one link, a few, and either side of 64.
const WIDTHS: [u16; 5] = [1, 3, 63, 64, 65];

/// A trunk width: half the time one of [`WIDTHS`], else any from 1 to 65.
fn width() -> impl Strategy<Value = u16> {
    (0..2 * WIDTHS.len(), 1u16..=65)
        .prop_map(|(edge, any)| WIDTHS.get(edge).copied().unwrap_or(any))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn layer_totals_match_trunk_sums_at_every_trunk_width(
        widths in (width(), width()),
        ops in prop::collection::vec(op_strategy(), 1..250),
    ) {
        let cfg = NetworkConfig {
            box_uplink_width: widths.0,
            rack_uplink_width: widths.1,
            ..NetworkConfig::paper()
        };
        drive(TopologyConfig::paper(), cfg, &ops)?;
    }
}
