//! Property tests for the cluster resource ledger: allocation and release
//! are exact inverses, caches never go stale, and capacity is never
//! exceeded, under arbitrary interleavings of operations.

use proptest::prelude::*;
use risa_topology::{
    AllocError, BoxId, Cluster, RackId, ResourceKind, TopologyConfig, UnitDemand, ALL_RESOURCES,
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
        for r in 0..c.num_racks() {
            let rack = RackId(r);
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
    /// resizes), the sorted availability sets, per-rack totals, key table
    /// and segment-tree maxima always equal a naive full recount
    /// (`check_invariants` rebuilds the index from scratch and compares
    /// all four), and `next_rack_with_fit` / `best_fit_in_rack` /
    /// `admitting_racks` agree with linear scans over the live box table.
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
