//! Mutable cluster state: unit-granular box accounting backed by the
//! incremental [`PlacementIndex`], which keeps every per-rack and
//! cross-rack aggregate (maxima, totals, rack successor queries) coherent
//! on each `take`/`give` without rescans.

use crate::config::TopologyConfig;
use crate::index::PlacementIndex;
use crate::resources::{BoxId, RackId, ResourceKind, UnitDemand, ALL_RESOURCES};

/// Why an allocation or release was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The box does not have `requested` free units (`available` is what it
    /// had at the time).
    Insufficient {
        /// Units asked for.
        requested: u32,
        /// Units actually free.
        available: u32,
    },
    /// A release would push a box above its capacity — always a caller bug.
    OverRelease {
        /// Units being returned.
        returned: u32,
        /// Units currently free.
        available: u32,
        /// Box capacity.
        capacity: u32,
    },
    /// The box id is out of range for this cluster.
    NoSuchBox,
    /// The box is marked failed (offline): it can neither grant nor accept
    /// units until [`Cluster::restore_box`] brings it back.
    BoxFailed,
    /// [`Cluster::restore_box`] was asked to repair a box that is not
    /// failed — always a caller bug.
    BoxNotFailed,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Insufficient {
                requested,
                available,
            } => write!(f, "requested {requested}u but only {available}u free"),
            AllocError::OverRelease {
                returned,
                available,
                capacity,
            } => write!(
                f,
                "release of {returned}u would exceed capacity ({available}u free of {capacity}u)"
            ),
            AllocError::NoSuchBox => write!(f, "no such box"),
            AllocError::BoxFailed => write!(f, "box is failed (offline)"),
            AllocError::BoxNotFailed => write!(f, "box is not failed"),
        }
    }
}

impl std::error::Error for AllocError {}

/// State of one single-resource box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxState {
    /// Global box id (index into the cluster's box table).
    pub id: BoxId,
    /// Rack this box lives in.
    pub rack: RackId,
    /// The single resource kind this box provides.
    pub kind: ResourceKind,
    /// Capacity in units.
    pub capacity: u32,
    /// Currently free units.
    pub available: u32,
}

impl BoxState {
    /// Units currently allocated.
    pub fn used(&self) -> u32 {
        self.capacity - self.available
    }
}

/// One box-level grant: `units` taken from `box_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxAllocation {
    /// The granting box.
    pub box_id: BoxId,
    /// Units granted.
    pub units: u32,
}

/// A complete compute placement for one VM: one box per resource kind
/// (the paper guarantees VM demands fit within a single box, §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmPlacement {
    /// Grants in canonical kind order (CPU, RAM, storage).
    pub grants: [BoxAllocation; 3],
}

impl VmPlacement {
    /// Grant for `kind`.
    pub fn grant(&self, kind: ResourceKind) -> BoxAllocation {
        self.grants[kind.index()]
    }

    /// Racks touched by this placement, deduplicated, in kind order.
    pub fn racks(&self, cluster: &Cluster) -> Vec<RackId> {
        let mut racks: Vec<RackId> = self
            .grants
            .iter()
            .map(|g| cluster.rack_of(g.box_id))
            .collect();
        racks.dedup();
        racks.sort_unstable();
        racks.dedup();
        racks
    }

    /// True when all three grants sit in the same rack — the property RISA
    /// maximizes (an "intra-rack VM assignment" in Figures 5 and 7).
    pub fn is_intra_rack(&self, cluster: &Cluster) -> bool {
        let r0 = cluster.rack_of(self.grants[0].box_id);
        self.grants[1..]
            .iter()
            .all(|g| cluster.rack_of(g.box_id) == r0)
    }
}

/// The whole disaggregated cluster: box table and the incremental
/// [`PlacementIndex`] serving every aggregate query.
///
/// Box ids are rack-major and, within a rack, CPU → RAM → storage
/// (`BoxMix::box_range`): a rack's boxes of a kind are a contiguous id
/// range, which [`Cluster::new`] assigns.
#[derive(Debug, Clone)]
pub struct Cluster {
    cfg: TopologyConfig,
    boxes: Vec<BoxState>,
    /// Every box id, ascending: what [`Cluster::boxes_in_rack`] slices.
    box_ids: Vec<BoxId>,
    /// Incremental aggregates: per-box fit keys, per-rack maxima/totals
    /// and the rack tree (derived state, rebuilt on load). Failed boxes
    /// are retracted from it.
    index: PlacementIndex,
    /// Per box: true while the box is failed (offline). Failed boxes stay
    /// in the box table and rack ranges — scans still *visit* them, so the
    /// seed's cost model is unchanged — but they are retracted from every
    /// aggregate and can never grant or accept units.
    failed: Vec<bool>,
    totals_avail: [u64; 3],
    totals_cap: [u64; 3],
}

impl Cluster {
    /// Build a pristine uniform cluster from a validated configuration.
    ///
    /// Box ids are assigned rack-major and, within a rack, in CPU → RAM →
    /// storage order; NULB's "first box" scan follows this order.
    pub fn new(cfg: TopologyConfig) -> Self {
        cfg.validate().expect("invalid topology configuration");
        let cap = cfg.box_capacity_units();
        let mut boxes = Vec::with_capacity(cfg.total_boxes() as usize);
        for rack in 0..cfg.racks {
            for kind in ALL_RESOURCES {
                for _ in 0..cfg.box_mix.of(kind) {
                    let id = BoxId(boxes.len() as u32);
                    boxes.push(BoxState {
                        id,
                        rack: RackId(rack),
                        kind,
                        capacity: cap,
                        available: cap,
                    });
                }
            }
        }
        let failed = vec![false; boxes.len()];
        let mut totals_cap = [0u64; 3];
        for b in &boxes {
            totals_cap[b.kind.index()] += b.capacity as u64;
        }
        let index = PlacementIndex::build(cfg.racks, cfg.box_mix, live_avail(&boxes, &failed));
        Cluster {
            cfg,
            box_ids: boxes.iter().map(|b| b.id).collect(),
            boxes,
            index,
            failed,
            totals_avail: totals_cap,
            totals_cap,
        }
    }

    /// The configuration this cluster was built from.
    pub fn config(&self) -> &TopologyConfig {
        &self.cfg
    }

    /// Number of racks.
    pub fn num_racks(&self) -> u16 {
        self.cfg.racks
    }

    /// Number of boxes.
    pub fn num_boxes(&self) -> usize {
        self.boxes.len()
    }

    /// State of one box.
    pub fn box_state(&self, id: BoxId) -> &BoxState {
        &self.boxes[id.0 as usize]
    }

    /// Rack of a box.
    #[inline]
    pub fn rack_of(&self, id: BoxId) -> RackId {
        self.boxes[id.0 as usize].rack
    }

    /// Resource kind of a box.
    #[inline]
    pub fn kind_of(&self, id: BoxId) -> ResourceKind {
        self.boxes[id.0 as usize].kind
    }

    /// Free units in a box. For a failed box this is the availability
    /// frozen at failure time; failed boxes are never eligible for grants
    /// (check [`Cluster::is_failed`] in any scan that reads this).
    #[inline]
    pub fn available(&self, id: BoxId) -> u32 {
        self.boxes[id.0 as usize].available
    }

    /// True while `id` is failed (offline). See [`Cluster::remove_box`].
    #[inline]
    pub fn is_failed(&self, id: BoxId) -> bool {
        self.failed[id.0 as usize]
    }

    /// All boxes in global id order.
    pub fn boxes(&self) -> impl Iterator<Item = &BoxState> {
        self.boxes.iter()
    }

    /// All boxes of `kind`, in global id order (NULB's scan order).
    pub fn boxes_of_kind(&self, kind: ResourceKind) -> impl Iterator<Item = &BoxState> {
        self.boxes.iter().filter(move |b| b.kind == kind)
    }

    /// Box ids of `kind` within `rack`, ascending.
    pub fn boxes_in_rack(&self, rack: RackId, kind: ResourceKind) -> &[BoxId] {
        &self.box_ids[self.cfg.box_mix.box_range(rack, kind)]
    }

    /// Largest free-unit count among `rack`'s boxes of `kind` — RISA's
    /// per-rack max-available table (§4.2: "RISA keeps track of the boxes
    /// with the maximum amount of each resource for each rack"). O(1) from
    /// the placement index.
    #[inline]
    pub fn rack_max_available(&self, rack: RackId, kind: ResourceKind) -> u32 {
        self.index.rack_max(rack, kind)
    }

    /// Total free units of `kind` within `rack`. O(1) from the placement
    /// index.
    #[inline]
    pub fn rack_total_available(&self, rack: RackId, kind: ResourceKind) -> u64 {
        self.index.rack_total(rack, kind)
    }

    /// The racks [`Cluster::rack_admits`] accepts for (`kind`, `units`) —
    /// that kind's `SUPER_RACK` list for a VM demanding `units` — as `(how
    /// many, their summed [`Cluster::rack_total_available`])`: the
    /// restricted contention-ratio denominator. O(box capacity) from the
    /// placement index's key table, independent of the rack count.
    pub fn admitting_racks(&self, kind: ResourceKind, units: u32) -> (u32, u64) {
        self.index.admitting_racks(kind, units)
    }

    /// Whether any rack holds a live box of `kind` with at least `units`
    /// free, i.e. whether [`Cluster::next_rack_with_fit`] from rack 0 would
    /// find one. O(1): the placement index's root.
    #[inline]
    pub fn any_rack_admits(&self, kind: ResourceKind, units: u32) -> bool {
        self.index.any_rack_admits(kind, units)
    }

    /// First rack with id ≥ `from` holding a single box of `kind` with
    /// `units` free. Exact, O(log racks).
    pub fn next_rack_with_fit(&self, kind: ResourceKind, units: u32, from: u16) -> Option<RackId> {
        self.index.next_rack_with_fit(kind, units, from)
    }

    /// First rack with id in `[from, end)` whose per-kind max-available
    /// boxes can each host the whole `demand` (RISA's `INTRA_RACK_POOL`
    /// membership), or `None`. O(log racks) on homogeneous state.
    pub fn next_pool_rack(&self, demand: &UnitDemand, from: u16, end: u16) -> Option<RackId> {
        let d = [
            demand.get(ResourceKind::Cpu),
            demand.get(ResourceKind::Ram),
            demand.get(ResourceKind::Storage),
        ];
        self.index.next_pool_rack(&d, from, end)
    }

    /// The lowest-id box of `kind` in `rack` with at least `units` free
    /// (the id-order first-fit used by NULB's scans). O(boxes-per-rack),
    /// which the uniform box mix makes a small constant.
    pub fn first_fit_in_rack(&self, rack: RackId, kind: ResourceKind, units: u32) -> Option<BoxId> {
        self.boxes_in_rack(rack, kind)
            .iter()
            .copied()
            .find(|&b| !self.is_failed(b) && self.available(b) >= units)
    }

    /// The fullest box of `kind` in `rack` that still fits `units`
    /// (RISA-BF's best-fit; ties to the lower id). O(boxes-per-rack).
    pub fn best_fit_in_rack(&self, rack: RackId, kind: ResourceKind, units: u32) -> Option<BoxId> {
        self.index.best_fit(rack, kind, units)
    }

    /// Position of `box_id` within the id-ordered sequence of its kind's
    /// boxes — how many boxes a naive `boxes_of_kind` scan visits before
    /// reaching it. O(1).
    pub fn kind_position(&self, box_id: BoxId) -> u64 {
        let b = self.box_state(box_id);
        let first_in_rack = self.cfg.box_mix.box_range(b.rack, b.kind).start as u64;
        let per_rack = self.cfg.box_mix.of(b.kind) as u64;
        b.rack.0 as u64 * per_rack + (box_id.0 as u64 - first_in_rack)
    }

    /// Whether `rack` holds a live box of `kind` with at least `units`
    /// free. Unlike comparing against [`Cluster::rack_max_available`],
    /// this stays correct for zero-unit demands after every box of `kind`
    /// in the rack has failed. O(1).
    #[inline]
    pub fn rack_admits(&self, rack: RackId, kind: ResourceKind, units: u32) -> bool {
        self.index.rack_admits(rack, kind, units)
    }

    /// True when every per-kind demand fits in *some single live box* of
    /// `rack`.
    pub fn rack_fits(&self, rack: RackId, demand: &UnitDemand) -> bool {
        ALL_RESOURCES
            .iter()
            .all(|&k| self.rack_admits(rack, k, demand.get(k)))
    }

    /// Cluster-wide free units of `kind`.
    pub fn total_available(&self, kind: ResourceKind) -> u64 {
        self.totals_avail[kind.index()]
    }

    /// Cluster-wide capacity of `kind`, in units.
    pub fn total_capacity(&self, kind: ResourceKind) -> u64 {
        self.totals_cap[kind.index()]
    }

    /// Fraction of `kind` currently allocated, in `[0, 1]`.
    pub fn utilization(&self, kind: ResourceKind) -> f64 {
        let cap = self.totals_cap[kind.index()];
        if cap == 0 {
            0.0
        } else {
            1.0 - self.totals_avail[kind.index()] as f64 / cap as f64
        }
    }

    /// Take `units` from `box_id`. O(log racks) via the incremental
    /// placement index (no rack rescans).
    pub fn take(&mut self, box_id: BoxId, units: u32) -> Result<(), AllocError> {
        let b = self
            .boxes
            .get_mut(box_id.0 as usize)
            .ok_or(AllocError::NoSuchBox)?;
        if self.failed[box_id.0 as usize] {
            return Err(AllocError::BoxFailed);
        }
        if units > b.available {
            return Err(AllocError::Insufficient {
                requested: units,
                available: b.available,
            });
        }
        b.available -= units;
        let (rack, kind, new) = (b.rack, b.kind, b.available);
        self.totals_avail[kind.index()] -= units as u64;
        self.index.update(rack, kind, box_id, new);
        Ok(())
    }

    /// Return `units` to `box_id`. O(log racks).
    pub fn give(&mut self, box_id: BoxId, units: u32) -> Result<(), AllocError> {
        let b = self
            .boxes
            .get_mut(box_id.0 as usize)
            .ok_or(AllocError::NoSuchBox)?;
        if self.failed[box_id.0 as usize] {
            return Err(AllocError::BoxFailed);
        }
        // `units` is the caller's word: no wrapping past the test.
        if b.available
            .checked_add(units)
            .is_none_or(|sum| sum > b.capacity)
        {
            return Err(AllocError::OverRelease {
                returned: units,
                available: b.available,
                capacity: b.capacity,
            });
        }
        b.available += units;
        let (rack, kind, new) = (b.rack, b.kind, b.available);
        self.totals_avail[kind.index()] += units as u64;
        self.index.update(rack, kind, box_id, new);
        Ok(())
    }

    /// Atomically take all three grants of `placement`; on any failure the
    /// earlier grants are rolled back and the cluster is unchanged.
    pub fn take_placement(&mut self, placement: &VmPlacement) -> Result<(), AllocError> {
        for i in 0..3 {
            let g = placement.grants[i];
            if let Err(e) = self.take(g.box_id, g.units) {
                for g in &placement.grants[..i] {
                    self.give(g.box_id, g.units)
                        .expect("rollback of a grant we just took cannot fail");
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Release all three grants of `placement`.
    pub fn give_placement(&mut self, placement: &VmPlacement) -> Result<(), AllocError> {
        for g in &placement.grants {
            self.give(g.box_id, g.units)?;
        }
        Ok(())
    }

    /// Mark `box_id` failed, incrementally retracting it from every
    /// aggregate the schedulers consult: its availability leaves the
    /// per-rack totals and maxima and the rack tree, and its capacity
    /// leaves the cluster-wide capacity totals (the retracted capacity is
    /// what the resilience metrics call *stranded*).
    ///
    /// The box stays in the box table and rack ranges with its availability
    /// frozen — naive scans still visit it (the seed's cost model is
    /// unchanged) but must skip it via [`Cluster::is_failed`]. `take` and
    /// `give` on a failed box return [`AllocError::BoxFailed`]; callers
    /// are expected to evacuate (release) any placements touching the box
    /// *before* failing it.
    ///
    /// Errors with [`AllocError::BoxFailed`] if the box is already failed.
    pub fn remove_box(&mut self, box_id: BoxId) -> Result<(), AllocError> {
        let b = *self
            .boxes
            .get(box_id.0 as usize)
            .ok_or(AllocError::NoSuchBox)?;
        if self.failed[box_id.0 as usize] {
            return Err(AllocError::BoxFailed);
        }
        self.failed[box_id.0 as usize] = true;
        self.totals_avail[b.kind.index()] -= b.available as u64;
        self.totals_cap[b.kind.index()] -= b.capacity as u64;
        self.index.remove(b.rack, b.kind, b.id);
        Ok(())
    }

    /// Repair a box failed by [`Cluster::remove_box`]: its frozen
    /// availability re-enters every aggregate and the box becomes eligible
    /// for grants again. The availability is restored exactly as frozen,
    /// keeping the take/give ledger coherent across a fail/repair cycle.
    ///
    /// Errors with [`AllocError::BoxNotFailed`] if the box is not failed.
    pub fn restore_box(&mut self, box_id: BoxId) -> Result<(), AllocError> {
        let b = *self
            .boxes
            .get(box_id.0 as usize)
            .ok_or(AllocError::NoSuchBox)?;
        if !self.failed[box_id.0 as usize] {
            return Err(AllocError::BoxNotFailed);
        }
        self.failed[box_id.0 as usize] = false;
        self.totals_avail[b.kind.index()] += b.available as u64;
        self.totals_cap[b.kind.index()] += b.capacity as u64;
        self.index.insert(b.rack, b.kind, b.id, b.available);
        Ok(())
    }

    /// Fixture hook: override one box's capacity, resetting it to fully
    /// free. Used to build the paper's Table 3 toy state and ablations.
    pub fn set_box_capacity(&mut self, box_id: BoxId, capacity_units: u32) {
        assert!(
            !self.failed[box_id.0 as usize],
            "fixture hook on failed box"
        );
        assert!(
            capacity_units <= TopologyConfig::MAX_BOX_UNITS,
            "capacity above the supported maximum"
        );
        let b = &mut self.boxes[box_id.0 as usize];
        let (rack, kind) = (b.rack, b.kind);
        self.totals_cap[kind.index()] -= b.capacity as u64;
        self.totals_avail[kind.index()] -= b.available as u64;
        b.capacity = capacity_units;
        b.available = capacity_units;
        self.totals_cap[kind.index()] += capacity_units as u64;
        self.totals_avail[kind.index()] += capacity_units as u64;
        self.index.update(rack, kind, box_id, capacity_units);
    }

    /// Fixture hook: force one box's free units (≤ capacity). Used to load
    /// the exact availability column of the paper's Table 3.
    pub fn force_available(&mut self, box_id: BoxId, available_units: u32) {
        assert!(
            !self.failed[box_id.0 as usize],
            "fixture hook on failed box"
        );
        let b = &mut self.boxes[box_id.0 as usize];
        assert!(available_units <= b.capacity, "availability above capacity");
        let (rack, kind) = (b.rack, b.kind);
        self.totals_avail[kind.index()] -= b.available as u64;
        b.available = available_units;
        self.totals_avail[kind.index()] += available_units as u64;
        self.index.update(rack, kind, box_id, available_units);
    }

    /// Debug invariant check: cached tables agree with the box table.
    /// Cheap enough for tests; not called on hot paths.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.failed.len() != self.boxes.len() {
            return Err("failed mask length diverges from the box table".into());
        }
        let mut avail = [0u64; 3];
        let mut cap = [0u64; 3];
        for b in &self.boxes {
            if b.available > b.capacity {
                return Err(format!("{}: available exceeds capacity", b.id));
            }
            if !self.failed[b.id.0 as usize] {
                avail[b.kind.index()] += b.available as u64;
                cap[b.kind.index()] += b.capacity as u64;
            }
        }
        if avail != self.totals_avail {
            return Err(format!(
                "total-available cache stale: {:?} vs {:?}",
                self.totals_avail, avail
            ));
        }
        if cap != self.totals_cap {
            return Err("total-capacity cache stale".into());
        }
        for rack in 0..self.cfg.racks {
            for kind in ALL_RESOURCES {
                let expect = self
                    .boxes_in_rack(RackId(rack), kind)
                    .iter()
                    .filter(|&&b| !self.failed[b.0 as usize])
                    .map(|&b| self.boxes[b.0 as usize].available)
                    .max()
                    .unwrap_or(0);
                if self.rack_max_available(RackId(rack), kind) != expect {
                    return Err(format!("rack max stale for rack{rack}/{kind}"));
                }
            }
        }
        self.index
            .check_against(live_avail(&self.boxes, &self.failed))
    }
}

/// Every box's availability in id order, `None` for a failed box: what the
/// placement index is built from and checked against.
fn live_avail<'a>(
    boxes: &'a [BoxState],
    failed: &'a [bool],
) -> impl Iterator<Item = Option<u32>> + 'a {
    boxes
        .iter()
        .zip(failed)
        .map(|(b, &failed)| (!failed).then_some(b.available))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_cluster() -> Cluster {
        Cluster::new(TopologyConfig::paper())
    }

    #[test]
    fn construction_matches_table1() {
        let c = paper_cluster();
        assert_eq!(c.num_boxes(), 108);
        assert_eq!(c.num_racks(), 18);
        assert_eq!(c.total_capacity(ResourceKind::Cpu), 4608);
        assert_eq!(c.total_available(ResourceKind::Cpu), 4608);
        assert_eq!(c.utilization(ResourceKind::Cpu), 0.0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn box_id_order_is_rack_major_kind_minor() {
        let c = paper_cluster();
        // Rack 0: boxes 0..6 = [CPU, CPU, RAM, RAM, STO, STO].
        assert_eq!(c.kind_of(BoxId(0)), ResourceKind::Cpu);
        assert_eq!(c.kind_of(BoxId(1)), ResourceKind::Cpu);
        assert_eq!(c.kind_of(BoxId(2)), ResourceKind::Ram);
        assert_eq!(c.kind_of(BoxId(3)), ResourceKind::Ram);
        assert_eq!(c.kind_of(BoxId(4)), ResourceKind::Storage);
        assert_eq!(c.kind_of(BoxId(5)), ResourceKind::Storage);
        assert_eq!(c.rack_of(BoxId(5)), RackId(0));
        assert_eq!(c.rack_of(BoxId(6)), RackId(1));
        // boxes_in_rack returns ascending ids.
        assert_eq!(
            c.boxes_in_rack(RackId(1), ResourceKind::Ram),
            &[BoxId(8), BoxId(9)]
        );
    }

    #[test]
    fn take_and_give_roundtrip() {
        let mut c = paper_cluster();
        c.take(BoxId(0), 100).unwrap();
        assert_eq!(c.available(BoxId(0)), 28);
        assert_eq!(c.total_available(ResourceKind::Cpu), 4508);
        assert_eq!(c.rack_max_available(RackId(0), ResourceKind::Cpu), 128);
        c.take(BoxId(1), 120).unwrap();
        assert_eq!(c.rack_max_available(RackId(0), ResourceKind::Cpu), 28);
        c.give(BoxId(0), 100).unwrap();
        c.give(BoxId(1), 120).unwrap();
        assert_eq!(c.total_available(ResourceKind::Cpu), 4608);
        c.check_invariants().unwrap();
    }

    #[test]
    fn take_refuses_oversubscription() {
        let mut c = paper_cluster();
        let err = c.take(BoxId(0), 129).unwrap_err();
        assert_eq!(
            err,
            AllocError::Insufficient {
                requested: 129,
                available: 128
            }
        );
        // Nothing changed.
        assert_eq!(c.available(BoxId(0)), 128);
        c.check_invariants().unwrap();
    }

    #[test]
    fn give_refuses_over_release() {
        let mut c = paper_cluster();
        c.take(BoxId(0), 10).unwrap();
        let err = c.give(BoxId(0), 11).unwrap_err();
        assert!(matches!(err, AllocError::OverRelease { .. }));
        // A release that would wrap `u32` is the same error, not a wrap (or,
        // in debug, a panic), and nothing moves.
        assert_eq!(
            c.give(BoxId(0), u32::MAX).unwrap_err(),
            AllocError::OverRelease {
                returned: u32::MAX,
                available: 118,
                capacity: 128
            }
        );
        assert_eq!(c.available(BoxId(0)), 118);
        c.check_invariants().unwrap();
    }

    #[test]
    fn no_such_box() {
        let mut c = paper_cluster();
        assert_eq!(c.take(BoxId(9999), 1).unwrap_err(), AllocError::NoSuchBox);
    }

    #[test]
    fn placement_is_atomic_with_rollback() {
        let mut c = paper_cluster();
        // Make the storage grant impossible.
        c.force_available(BoxId(4), 0);
        c.force_available(BoxId(5), 0);
        let p = VmPlacement {
            grants: [
                BoxAllocation {
                    box_id: BoxId(0),
                    units: 2,
                },
                BoxAllocation {
                    box_id: BoxId(2),
                    units: 4,
                },
                BoxAllocation {
                    box_id: BoxId(4),
                    units: 2,
                },
            ],
        };
        assert!(c.take_placement(&p).is_err());
        // CPU and RAM grants rolled back.
        assert_eq!(c.available(BoxId(0)), 128);
        assert_eq!(c.available(BoxId(2)), 128);
        c.check_invariants().unwrap();

        // Restore storage and the same placement succeeds, then releases.
        c.force_available(BoxId(4), 8);
        c.take_placement(&p).unwrap();
        assert_eq!(c.available(BoxId(4)), 6);
        assert!(p.is_intra_rack(&c));
        c.give_placement(&p).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn rack_fits_uses_single_box_maxima() {
        let mut c = paper_cluster();
        // Split CPU so no single rack-0 box has 100 free, though the rack
        // has 156 free in total: rack_fits must say no.
        c.take(BoxId(0), 50).unwrap();
        c.take(BoxId(1), 50).unwrap();
        let d = UnitDemand::new(100, 1, 1);
        assert!(!c.rack_fits(RackId(0), &d));
        assert!(c.rack_fits(RackId(1), &d));
        let d_ok = UnitDemand::new(78, 1, 1);
        assert!(c.rack_fits(RackId(0), &d_ok));
    }

    #[test]
    fn inter_rack_placement_detected() {
        let c = paper_cluster();
        let p = VmPlacement {
            grants: [
                BoxAllocation {
                    box_id: BoxId(0),
                    units: 1,
                }, // rack 0
                BoxAllocation {
                    box_id: BoxId(8),
                    units: 1,
                }, // rack 1
                BoxAllocation {
                    box_id: BoxId(4),
                    units: 1,
                }, // rack 0
            ],
        };
        assert!(!p.is_intra_rack(&c));
        assert_eq!(p.racks(&c), vec![RackId(0), RackId(1)]);
    }

    #[test]
    fn fixture_hooks_update_all_caches() {
        let mut c = paper_cluster();
        c.set_box_capacity(BoxId(4), 8); // paper Table 3 storage box: 512 GB
        assert_eq!(c.box_state(BoxId(4)).capacity, 8);
        assert_eq!(c.total_capacity(ResourceKind::Storage), 4608 - 128 + 8);
        c.force_available(BoxId(4), 0);
        assert_eq!(c.rack_max_available(RackId(0), ResourceKind::Storage), 128);
        c.force_available(BoxId(5), 3);
        assert_eq!(c.rack_max_available(RackId(0), ResourceKind::Storage), 3);
        c.check_invariants().unwrap();
    }

    #[test]
    fn remove_box_retracts_every_aggregate() {
        let mut c = paper_cluster();
        c.take(BoxId(0), 100).unwrap(); // box 0: 28 free of 128
        c.remove_box(BoxId(0)).unwrap();
        assert!(c.is_failed(BoxId(0)));
        // Availability and capacity leave the totals; the frozen state stays
        // on the box itself.
        assert_eq!(c.total_available(ResourceKind::Cpu), 4608 - 100 - 28);
        assert_eq!(c.total_capacity(ResourceKind::Cpu), 4608 - 128);
        assert_eq!(c.available(BoxId(0)), 28);
        // The rack max is now the surviving box; queries never name box 0.
        assert_eq!(c.rack_max_available(RackId(0), ResourceKind::Cpu), 128);
        assert_eq!(
            c.first_fit_in_rack(RackId(0), ResourceKind::Cpu, 1),
            Some(BoxId(1))
        );
        assert_eq!(
            c.best_fit_in_rack(RackId(0), ResourceKind::Cpu, 1),
            Some(BoxId(1))
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn restore_box_reenters_with_frozen_availability() {
        let mut c = paper_cluster();
        c.take(BoxId(0), 100).unwrap();
        c.remove_box(BoxId(0)).unwrap();
        c.restore_box(BoxId(0)).unwrap();
        assert!(!c.is_failed(BoxId(0)));
        assert_eq!(c.available(BoxId(0)), 28);
        assert_eq!(c.total_available(ResourceKind::Cpu), 4608 - 100);
        assert_eq!(c.total_capacity(ResourceKind::Cpu), 4608);
        // The outstanding 100 units release cleanly after the repair cycle.
        c.give(BoxId(0), 100).unwrap();
        assert_eq!(c.total_available(ResourceKind::Cpu), 4608);
        c.check_invariants().unwrap();
    }

    #[test]
    fn failed_boxes_refuse_take_give_and_double_transitions() {
        let mut c = paper_cluster();
        c.remove_box(BoxId(4)).unwrap();
        assert_eq!(c.take(BoxId(4), 1).unwrap_err(), AllocError::BoxFailed);
        assert_eq!(c.give(BoxId(4), 1).unwrap_err(), AllocError::BoxFailed);
        assert_eq!(c.remove_box(BoxId(4)).unwrap_err(), AllocError::BoxFailed);
        assert_eq!(
            c.restore_box(BoxId(5)).unwrap_err(),
            AllocError::BoxNotFailed
        );
        assert_eq!(
            c.remove_box(BoxId(9999)).unwrap_err(),
            AllocError::NoSuchBox
        );
        c.check_invariants().unwrap();
        c.restore_box(BoxId(4)).unwrap();
        c.check_invariants().unwrap();
    }

    #[test]
    fn whole_rack_removal_zeroes_rack_queries() {
        let mut c = paper_cluster();
        for kind in ALL_RESOURCES {
            for b in c.boxes_in_rack(RackId(3), kind).to_vec() {
                c.remove_box(b).unwrap();
            }
        }
        for kind in ALL_RESOURCES {
            assert_eq!(c.rack_max_available(RackId(3), kind), 0);
            assert_eq!(c.rack_total_available(RackId(3), kind), 0);
            assert_eq!(c.first_fit_in_rack(RackId(3), kind, 1), None);
            assert_eq!(c.best_fit_in_rack(RackId(3), kind, 0), None);
        }
        assert!(!c.rack_fits(RackId(3), &UnitDemand::new(1, 1, 1)));
        // Successor queries route around the dead rack.
        assert_eq!(
            c.next_rack_with_fit(ResourceKind::Cpu, 1, 3),
            Some(RackId(4))
        );
        c.check_invariants().unwrap();
    }

    #[test]
    fn utilization_tracks_allocations() {
        let mut c = paper_cluster();
        c.take(BoxId(0), 128).unwrap();
        let u = c.utilization(ResourceKind::Cpu);
        assert!((u - 128.0 / 4608.0).abs() < 1e-12);
    }
}
