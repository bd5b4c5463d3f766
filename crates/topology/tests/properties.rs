//! Property tests for the cluster resource ledger: allocation and release
//! are exact inverses, caches never go stale, and capacity is never
//! exceeded, under arbitrary interleavings of operations.

use proptest::prelude::*;
use risa_topology::{
    AllocError, BoxId, BoxMix, Cluster, RackId, ResourceKind, TopologyConfig, UnitDemand,
    ALL_RESOURCES,
};

#[derive(Debug, Clone)]
enum Op {
    Take { box_idx: u8, units: u32 },
    Give { box_idx: u8, units: u32 },
}

/// PR 7 battery: capacity *removal* interleaved with the ledger ops.
#[derive(Debug, Clone)]
enum ChurnOp {
    Take {
        box_idx: u8,
        units: u32,
    },
    Give {
        box_idx: u8,
        units: u32,
    },
    Remove {
        box_idx: u8,
    },
    Restore {
        box_idx: u8,
    },
    /// Fixture hooks: resize a live box (capacities past the paper's 128
    /// units grow the index's key table), then pin its free units.
    Force {
        box_idx: u8,
        capacity: u32,
        available: u32,
    },
}

fn churn_op_strategy() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        (0u8..108, 0u32..200).prop_map(|(box_idx, units)| ChurnOp::Take { box_idx, units }),
        (0u8..108, 0u32..200).prop_map(|(box_idx, units)| ChurnOp::Give { box_idx, units }),
        (0u8..108).prop_map(|box_idx| ChurnOp::Remove { box_idx }),
        (0u8..108).prop_map(|box_idx| ChurnOp::Restore { box_idx }),
        (0u8..108, 0u32..=300, 0u32..=300).prop_map(|(box_idx, capacity, available)| {
            ChurnOp::Force {
                box_idx,
                capacity,
                available,
            }
        }),
    ]
}

/// Linear-scan reference for `next_rack_with_fit`: first rack ≥ `from`
/// holding a live box of `kind` with ≥ `units` free.
fn next_rack_scan(c: &Cluster, kind: ResourceKind, units: u32, from: u16) -> Option<RackId> {
    (from..c.num_racks()).map(RackId).find(|&r| {
        c.boxes_in_rack(r, kind)
            .iter()
            .any(|&b| !c.is_failed(b) && c.available(b) >= units)
    })
}

/// Linear-scan reference for `best_fit_in_rack`: the live box with the
/// least availability that still fits, ties to the lower id.
fn best_fit_scan(c: &Cluster, rack: RackId, kind: ResourceKind, units: u32) -> Option<BoxId> {
    c.boxes_in_rack(rack, kind)
        .iter()
        .copied()
        .filter(|&b| !c.is_failed(b) && c.available(b) >= units)
        .min_by_key(|&b| (c.available(b), b))
}

/// Linear-scan reference for `admitting_racks`: how many racks hold a live
/// box of `kind` with ≥ `units` free, and the free units of `kind` in all
/// their live boxes.
fn admitting_racks_scan(c: &Cluster, kind: ResourceKind, units: u32) -> (u32, u64) {
    let mut found = (0, 0);
    for r in (0..c.num_racks()).map(RackId) {
        let live = || {
            c.boxes_in_rack(r, kind)
                .iter()
                .filter(|&&b| !c.is_failed(b))
                .map(|&b| c.available(b))
        };
        if live().any(|avail| avail >= units) {
            found.0 += 1;
            found.1 += live().map(u64::from).sum::<u64>();
        }
    }
    found
}

/// Every index query the schedulers use, checked against linear scans over
/// the live (non-failed) box table.
fn assert_queries_match_scans(c: &Cluster, probe: u32) -> Result<(), TestCaseError> {
    for kind in ALL_RESOURCES {
        // Zero units (a rack with every box of the kind retracted must not
        // count), one, mid-box, a whole box, and past the largest box.
        let cap = c.boxes_of_kind(kind).map(|b| b.capacity).max().unwrap_or(0);
        for units in [0, 1, cap / 2, cap, cap + 1, probe] {
            prop_assert_eq!(
                c.admitting_racks(kind, units),
                admitting_racks_scan(c, kind, units),
                "admitting_racks({:?}, {}) diverged",
                kind,
                units
            );
        }
        for from in [0u16, 5, c.num_racks() - 1] {
            prop_assert_eq!(
                c.next_rack_with_fit(kind, probe, from),
                next_rack_scan(c, kind, probe, from),
                "next_rack_with_fit({:?}, {}, {}) diverged",
                kind,
                probe,
                from
            );
        }
        for units in [0, probe] {
            prop_assert_eq!(
                c.any_rack_admits(kind, units),
                next_rack_scan(c, kind, units, 0).is_some(),
                "any_rack_admits({:?}, {}) diverged",
                kind,
                units
            );
        }
        for r in 0..c.num_racks() {
            let rack = RackId(r);
            for units in [0, probe] {
                prop_assert_eq!(
                    c.rack_admits(rack, kind, units),
                    next_rack_scan(c, kind, units, r) == Some(rack),
                    "rack_admits({}, {:?}, {}) diverged",
                    r,
                    kind,
                    units
                );
            }
            prop_assert_eq!(
                c.best_fit_in_rack(rack, kind, probe),
                best_fit_scan(c, rack, kind, probe),
                "best_fit_in_rack({}, {:?}, {}) diverged",
                r,
                kind,
                probe
            );
            let total: u64 = c
                .boxes_in_rack(rack, kind)
                .iter()
                .filter(|&&b| !c.is_failed(b))
                .map(|&b| c.available(b) as u64)
                .sum();
            prop_assert_eq!(c.rack_total_available(rack, kind), total);
        }
    }
    Ok(())
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..108, 0u32..200).prop_map(|(box_idx, units)| Op::Take { box_idx, units }),
        (0u8..108, 0u32..200).prop_map(|(box_idx, units)| Op::Give { box_idx, units }),
    ]
}

proptest! {
    /// Fuzz the ledger with random takes/gives; after every op the cluster
    /// invariants hold, and failed ops leave the state untouched.
    #[test]
    fn ledger_invariants_under_random_ops(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut c = Cluster::new(TopologyConfig::paper());
        for op in ops {
            let before_cpu = c.total_available(ResourceKind::Cpu);
            match op {
                Op::Take { box_idx, units } => {
                    let id = BoxId(box_idx as u32);
                    let avail = c.available(id);
                    match c.take(id, units) {
                        Ok(()) => prop_assert!(units <= avail),
                        Err(AllocError::Insufficient { .. }) => {
                            prop_assert!(units > avail);
                            prop_assert_eq!(c.available(id), avail, "failed take mutated state");
                            if c.kind_of(id) == ResourceKind::Cpu {
                                prop_assert_eq!(c.total_available(ResourceKind::Cpu), before_cpu);
                            }
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e:?}"))),
                    }
                }
                Op::Give { box_idx, units } => {
                    let id = BoxId(box_idx as u32);
                    let avail = c.available(id);
                    let cap = c.box_state(id).capacity;
                    match c.give(id, units) {
                        Ok(()) => prop_assert!(avail + units <= cap),
                        Err(AllocError::OverRelease { .. }) => {
                            prop_assert!(avail + units > cap);
                            prop_assert_eq!(c.available(id), avail, "failed give mutated state");
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e:?}"))),
                    }
                }
            }
            c.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    /// take(x); give(x) restores the exact prior state for any valid x.
    #[test]
    fn take_give_is_identity(box_idx in 0u8..108, units in 0u32..=128) {
        let mut c = Cluster::new(TopologyConfig::paper());
        let id = BoxId(box_idx as u32);
        let kind = c.kind_of(id);
        let before_avail = c.available(id);
        let before_total = c.total_available(kind);
        let before_rack = c.rack_max_available(c.rack_of(id), kind);

        c.take(id, units).unwrap();
        c.give(id, units).unwrap();

        prop_assert_eq!(c.available(id), before_avail);
        prop_assert_eq!(c.total_available(kind), before_total);
        prop_assert_eq!(c.rack_max_available(c.rack_of(id), kind), before_rack);
        c.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// rack_fits agrees with a brute-force scan of the rack's boxes.
    #[test]
    fn rack_fits_matches_bruteforce(
        takes in prop::collection::vec((0u8..108, 0u32..=128), 0..50),
        cpu in 0u32..=130, ram in 0u32..=130, sto in 0u32..=130,
    ) {
        let mut c = Cluster::new(TopologyConfig::paper());
        for (b, u) in takes {
            let _ = c.take(BoxId(b as u32), u);
        }
        let demand = risa_topology::UnitDemand::new(cpu, ram, sto);
        for rack in 0..c.num_racks() {
            let rack = risa_topology::RackId(rack);
            let brute = [ResourceKind::Cpu, ResourceKind::Ram, ResourceKind::Storage]
                .iter()
                .all(|&k| {
                    c.boxes_in_rack(rack, k)
                        .iter()
                        .any(|&b| c.available(b) >= demand.get(k))
                });
            prop_assert_eq!(c.rack_fits(rack, &demand), brute);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// PR 7 acceptance battery (10k cases): under interleaved
    /// `take`/`give`/`remove_box`/`restore_box` sequences (and fixture
    /// resizes), the box keys, per-rack totals, key table and rack-tree
    /// maxima always equal a naive full recount (`check_invariants`
    /// rebuilds the index from scratch and compares all four), and
    /// `next_rack_with_fit` / `best_fit_in_rack` / `admitting_racks` /
    /// `rack_admits` / `any_rack_admits` agree with linear scans over the
    /// live box table.
    #[test]
    fn removal_battery_matches_naive_recount(
        ops in prop::collection::vec(churn_op_strategy(), 1..14),
        probe in 0u32..=130,
    ) {
        let mut c = Cluster::new(TopologyConfig::paper());
        for op in ops {
            match op {
                ChurnOp::Take { box_idx, units } => {
                    let id = BoxId(box_idx as u32);
                    let before = c.available(id);
                    match c.take(id, units) {
                        Ok(()) => prop_assert!(!c.is_failed(id) && units <= before),
                        Err(AllocError::BoxFailed) => {
                            prop_assert!(c.is_failed(id));
                            prop_assert_eq!(c.available(id), before, "failed-box take mutated");
                        }
                        Err(AllocError::Insufficient { .. }) => prop_assert!(units > before),
                        Err(e) => return Err(TestCaseError::fail(format!("unexpected {e:?}"))),
                    }
                }
                ChurnOp::Give { box_idx, units } => {
                    let id = BoxId(box_idx as u32);
                    let before = c.available(id);
                    let cap = c.box_state(id).capacity;
                    match c.give(id, units) {
                        Ok(()) => prop_assert!(!c.is_failed(id) && before + units <= cap),
                        Err(AllocError::BoxFailed) => {
                            prop_assert!(c.is_failed(id));
                            prop_assert_eq!(c.available(id), before, "failed-box give mutated");
                        }
                        Err(AllocError::OverRelease { .. }) => prop_assert!(before + units > cap),
                        Err(e) => return Err(TestCaseError::fail(format!("unexpected {e:?}"))),
                    }
                }
                ChurnOp::Remove { box_idx } => {
                    let id = BoxId(box_idx as u32);
                    let kind = c.kind_of(id);
                    let was_failed = c.is_failed(id);
                    let (avail, cap) = (c.available(id), c.box_state(id).capacity);
                    let (tot_a, tot_c) = (c.total_available(kind), c.total_capacity(kind));
                    match c.remove_box(id) {
                        Ok(()) => {
                            prop_assert!(!was_failed);
                            prop_assert_eq!(c.total_available(kind), tot_a - avail as u64);
                            prop_assert_eq!(c.total_capacity(kind), tot_c - cap as u64);
                            prop_assert_eq!(c.available(id), avail, "failure must freeze state");
                        }
                        Err(AllocError::BoxFailed) => prop_assert!(was_failed),
                        Err(e) => return Err(TestCaseError::fail(format!("unexpected {e:?}"))),
                    }
                }
                ChurnOp::Restore { box_idx } => {
                    let id = BoxId(box_idx as u32);
                    let kind = c.kind_of(id);
                    let was_failed = c.is_failed(id);
                    let avail = c.available(id);
                    let tot_a = c.total_available(kind);
                    match c.restore_box(id) {
                        Ok(()) => {
                            prop_assert!(was_failed);
                            prop_assert_eq!(c.total_available(kind), tot_a + avail as u64);
                            prop_assert_eq!(c.available(id), avail, "repair keeps frozen units");
                        }
                        Err(AllocError::BoxNotFailed) => prop_assert!(!was_failed),
                        Err(e) => return Err(TestCaseError::fail(format!("unexpected {e:?}"))),
                    }
                }
                ChurnOp::Force { box_idx, capacity, available } => {
                    let id = BoxId(box_idx as u32);
                    if !c.is_failed(id) {
                        c.set_box_capacity(id, capacity);
                        c.force_available(id, available.min(capacity));
                    }
                }
            }
            c.check_invariants().map_err(TestCaseError::fail)?;
            assert_queries_match_scans(&c, probe)?;
        }
    }

    /// remove_box(x); restore_box(x) is an exact identity on every
    /// aggregate, regardless of the box's load at failure time.
    #[test]
    fn remove_restore_is_identity(
        box_idx in 0u8..108,
        taken in 0u32..=128,
        pool in prop::collection::vec((0u8..108, 0u32..=128), 0..20),
    ) {
        let mut c = Cluster::new(TopologyConfig::paper());
        for (b, u) in pool {
            let _ = c.take(BoxId(b as u32), u);
        }
        let id = BoxId(box_idx as u32);
        let _ = c.take(id, taken);
        let kind = c.kind_of(id);
        let rack = c.rack_of(id);
        let before = (
            c.available(id),
            c.total_available(kind),
            c.total_capacity(kind),
            c.rack_max_available(rack, kind),
            c.rack_total_available(rack, kind),
        );
        c.remove_box(id).unwrap();
        c.check_invariants().map_err(TestCaseError::fail)?;
        c.restore_box(id).unwrap();
        let after = (
            c.available(id),
            c.total_available(kind),
            c.total_capacity(kind),
            c.rack_max_available(rack, kind),
            c.rack_total_available(rack, kind),
        );
        prop_assert_eq!(before, after);
        c.check_invariants().map_err(TestCaseError::fail)?;
        assert_queries_match_scans(&c, taken)?;
    }

    /// A whole-rack outage and repair: the rack disappears from every
    /// successor/pool query while down and returns exactly as it was.
    #[test]
    fn rack_outage_roundtrip(
        rack in 0u16..18,
        takes in prop::collection::vec((0u8..108, 0u32..=128), 0..30),
        cpu in 0u32..=130, ram in 0u32..=130, sto in 0u32..=130,
    ) {
        let mut c = Cluster::new(TopologyConfig::paper());
        for (b, u) in takes {
            let _ = c.take(BoxId(b as u32), u);
        }
        let rack = RackId(rack);
        let demand = UnitDemand::new(cpu, ram, sto);
        let fits_before = c.rack_fits(rack, &demand);
        let ids: Vec<BoxId> = ALL_RESOURCES
            .iter()
            .flat_map(|&k| c.boxes_in_rack(rack, k).to_vec())
            .collect();
        for &b in &ids {
            c.remove_box(b).unwrap();
        }
        c.check_invariants().map_err(TestCaseError::fail)?;
        for kind in ALL_RESOURCES {
            prop_assert_eq!(c.rack_max_available(rack, kind), 0);
        }
        if cpu.max(ram).max(sto) > 0 {
            prop_assert!(!c.rack_fits(rack, &demand));
        }
        assert_queries_match_scans(&c, cpu)?;
        for &b in &ids {
            c.restore_box(b).unwrap();
        }
        prop_assert_eq!(c.rack_fits(rack, &demand), fits_before);
        c.check_invariants().map_err(TestCaseError::fail)?;
    }
}

/// Linear-scan reference for `next_pool_rack`: first rack in `[from, end)`
/// holding, for every kind, a live box with that kind's demand free.
fn pool_rack_scan(c: &Cluster, demand: &UnitDemand, from: u16, end: u16) -> Option<RackId> {
    (from..end.min(c.num_racks())).map(RackId).find(|&r| {
        ALL_RESOURCES.iter().all(|&k| {
            c.boxes_in_rack(r, k)
                .iter()
                .any(|&b| !c.is_failed(b) && c.available(b) >= demand.get(k))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// RISA's round-robin wrap searches `[from, n)` and then only
    /// `[0, from)`. On random index states — boxes drained, pinned and
    /// retracted with `remove_box` — the bounded query equals a linear
    /// scan of its range, and the bounded wrap equals the unbounded one
    /// (`[from, n)` then all of `[0, n)`).
    #[test]
    fn bounded_pool_search_matches_the_unbounded_wrap(
        boxes in prop::collection::vec((0u8..108, 0u32..=128, any::<bool>()), 0..120),
        probes in prop::collection::vec((0u16..=19, 0u16..=19, (0u32..=130, 0u32..=130, 0u32..=130)), 1..12),
    ) {
        let mut c = Cluster::new(TopologyConfig::paper());
        for (b, available, retract) in boxes {
            let id = BoxId(b as u32);
            if c.is_failed(id) {
                continue;
            }
            c.force_available(id, available);
            if retract {
                c.remove_box(id).unwrap();
            }
        }
        c.check_invariants().map_err(TestCaseError::fail)?;
        let n = c.num_racks();
        for (from, end, (cpu, ram, sto)) in probes {
            let d = UnitDemand::new(cpu, ram, sto);
            prop_assert_eq!(
                c.next_pool_rack(&d, from, end),
                pool_rack_scan(&c, &d, from, end),
                "next_pool_rack({:?}, {}, {}) diverged", d, from, end
            );
            let bounded = c.next_pool_rack(&d, from, n).or_else(|| c.next_pool_rack(&d, 0, from));
            let unbounded = c.next_pool_rack(&d, from, n).or_else(|| c.next_pool_rack(&d, 0, n));
            prop_assert_eq!(bounded, unbounded, "wrap from {} diverged for {:?}", from, d);
        }
    }
}

/// The placement index's rack-tree fan-out (`index.rs`'s private `F`). The
/// tree-shape battery's rack counts sit on both sides of one full block
/// and of one full second level; keep this equal to it.
const F: u16 = 16;

/// One step of the tree-shape battery. `near` picks a box a few racks at
/// most past the case's anchor box, so a case's steps keep landing on the
/// same racks and move their maxima up *and* back down.
#[derive(Debug, Clone)]
enum ShapeOp {
    Take { near: u32, units: u32 },
    Give { near: u32, units: u32 },
    Remove { near: u32 },
    Restore { near: u32 },
}

fn shape_op_strategy() -> impl Strategy<Value = ShapeOp> {
    prop_oneof![
        3 => (0u32..12, 0u32..=8).prop_map(|(near, units)| ShapeOp::Take { near, units }),
        3 => (0u32..12, 0u32..=8).prop_map(|(near, units)| ShapeOp::Give { near, units }),
        1 => (0u32..12).prop_map(|near| ShapeOp::Remove { near }),
        1 => (0u32..12).prop_map(|near| ShapeOp::Restore { near }),
    ]
}

/// Successor, pool (bounded and wrapped), admission and best-fit queries
/// against their linear scans, from racks on both sides of every block
/// boundary the cluster has and around `near` (where the steps land).
fn assert_tree_queries_match_scans(
    c: &Cluster,
    near: RackId,
    demands: &[UnitDemand],
) -> Result<(), TestCaseError> {
    let n = c.num_racks();
    let mut froms = vec![0, near.0, near.0 + 1, F - 1, F, F * F - 1, F * F, n - 1, n];
    froms.retain(|&from| from <= n);
    for d in demands {
        for kind in ALL_RESOURCES {
            for &from in &froms {
                prop_assert_eq!(
                    c.next_rack_with_fit(kind, d.get(kind), from),
                    next_rack_scan(c, kind, d.get(kind), from),
                    "next_rack_with_fit({:?}, {}, {}) diverged on {} racks",
                    kind,
                    d.get(kind),
                    from,
                    n
                );
            }
            prop_assert_eq!(
                c.admitting_racks(kind, d.get(kind)),
                admitting_racks_scan(c, kind, d.get(kind))
            );
            prop_assert_eq!(
                c.any_rack_admits(kind, d.get(kind)),
                next_rack_scan(c, kind, d.get(kind), 0).is_some()
            );
            for rack in [RackId(0), near, RackId(n - 1)] {
                prop_assert_eq!(
                    c.rack_admits(rack, kind, d.get(kind)),
                    next_rack_scan(c, kind, d.get(kind), rack.0) == Some(rack)
                );
                prop_assert_eq!(
                    c.best_fit_in_rack(rack, kind, d.get(kind)),
                    best_fit_scan(c, rack, kind, d.get(kind))
                );
            }
        }
        for &from in &froms {
            for end in [n, near.0 + 1] {
                prop_assert_eq!(
                    c.next_pool_rack(d, from, end),
                    pool_rack_scan(c, d, from, end),
                    "next_pool_rack({:?}, {}, {}) diverged on {} racks",
                    d,
                    from,
                    end,
                    n
                );
            }
            // RISA's wrap: `[from, n)`, then the racks below `from`.
            prop_assert_eq!(
                c.next_pool_rack(d, from, n)
                    .or_else(|| c.next_pool_rack(d, 0, from)),
                pool_rack_scan(c, d, from, n).or_else(|| pool_rack_scan(c, d, 0, from)),
                "wrapped pool search from {} diverged for {:?} on {} racks",
                from,
                d,
                n
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every tree shape: one rack (the leaf is the root), a partial, a
    /// full and a just-overfull block, the same one level up, and the
    /// benchmark's 720 racks — each with 1, 2 and unequal boxes a kind.
    /// Boxes hold 8 units and start level at a drawn plateau, so a single
    /// `give` lifts a box above every other in the cluster (the root
    /// moves) and the `take` after it shrinks the box that *was* the
    /// maximum (its range and blocks are rescanned). After every take /
    /// give / `remove_box` / `restore_box` the index equals its rebuild
    /// and every query its linear scan; then a whole rack and the whole
    /// cluster go dark, where a zero-unit demand must find nothing.
    #[test]
    fn index_matches_scans_at_every_tree_shape(
        anchor in any::<u32>(),
        plateau in (0u32..=8, 0u32..=8, 0u32..=8),
        probe in (0u32..=9, 0u32..=9, 0u32..=9),
        ops in prop::collection::vec(shape_op_strategy(), 1..24),
    ) {
        let plateau = UnitDemand::new(plateau.0, plateau.1, plateau.2);
        let demands = [
            UnitDemand::ZERO,
            UnitDemand::new(probe.0, probe.1, probe.2),
            plateau,
            UnitDemand::new(
                plateau.get(ResourceKind::Cpu) + 1,
                plateau.get(ResourceKind::Ram) + 1,
                plateau.get(ResourceKind::Storage) + 1,
            ),
        ];
        for racks in [1, F - 1, F, F + 1, F * F, F * F + 1, 720] {
            for (cpu, ram, storage) in [(1, 1, 1), (2, 2, 2), (3, 1, 2)] {
                let mut c = Cluster::new(TopologyConfig {
                    racks,
                    box_mix: BoxMix { cpu, ram, storage },
                    bricks_per_box: 1,
                    units_per_brick: 8,
                    ..TopologyConfig::paper()
                });
                let num_boxes = c.num_boxes() as u32;
                for b in (0..num_boxes).map(BoxId) {
                    c.force_available(b, plateau.get(c.kind_of(b)));
                }
                let anchor = anchor % num_boxes;
                let near_rack = c.rack_of(BoxId(anchor));
                for op in &ops {
                    // Refusals (a failed box, too few or too many units, a
                    // second failure or repair) leave the state as it was:
                    // the other batteries pin that; here they are no-ops.
                    let target = |near: u32| BoxId((anchor + near) % num_boxes);
                    let _ = match *op {
                        ShapeOp::Take { near, units } => c.take(target(near), units),
                        ShapeOp::Give { near, units } => c.give(target(near), units),
                        ShapeOp::Remove { near } => c.remove_box(target(near)),
                        ShapeOp::Restore { near } => c.restore_box(target(near)),
                    };
                    c.check_invariants().map_err(TestCaseError::fail)?;
                    assert_tree_queries_match_scans(&c, near_rack, &demands)?;
                }
                // The anchor's rack goes dark, then every rack: no demand,
                // not even of zero units, is admitted by a rack (or a
                // cluster) without a live box.
                let dark = |c: &mut Cluster, rack: RackId| {
                    for kind in ALL_RESOURCES {
                        for b in c.boxes_in_rack(rack, kind).to_vec() {
                            if !c.is_failed(b) {
                                c.remove_box(b).unwrap();
                            }
                        }
                    }
                };
                dark(&mut c, near_rack);
                c.check_invariants().map_err(TestCaseError::fail)?;
                prop_assert!(!c.rack_fits(near_rack, &UnitDemand::ZERO));
                assert_tree_queries_match_scans(&c, near_rack, &demands)?;
                for rack in (0..racks).map(RackId) {
                    dark(&mut c, rack);
                }
                c.check_invariants().map_err(TestCaseError::fail)?;
                for kind in ALL_RESOURCES {
                    prop_assert!(!c.any_rack_admits(kind, 0));
                    prop_assert_eq!(c.admitting_racks(kind, 0), (0, 0));
                }
                assert_tree_queries_match_scans(&c, near_rack, &demands)?;
            }
        }
    }
}
