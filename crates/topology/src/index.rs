//! The incremental placement index: the cross-rack data structures that
//! make every scheduler hot path scan-free.
//!
//! The seed implementation rebuilt per-rack aggregates by rescanning a
//! rack's boxes on every `take`/`give` and answered cross-rack questions
//! ("first box that fits", "next rack that can host this VM") with linear
//! scans over the whole cluster. That is fine at the paper's 18 racks and
//! hopeless at 768. [`PlacementIndex`] maintains, incrementally on every
//! availability change:
//!
//! * per rack × resource kind, a **sorted availability set** — a
//!   `Vec<(avail, BoxId)>` kept ascending, as a rack holds a handful of
//!   boxes of a kind (two on every shipped config) — giving
//!   O(log boxes-per-rack) best-fit ("fullest box that still fits") and
//!   O(1) per-rack maxima;
//! * per rack × resource kind, the **total available units**;
//! * per resource kind, a dense **key table** indexed by fit key:
//!   `(racks holding that key, their summed totals)` — 130 entries on the
//!   paper's 128-unit boxes. A suffix sum over it is the (member count,
//!   Σ free units) of "racks that admit `units`", i.e. RISA's restricted
//!   contention-ratio denominator, in O(box capacity) independent of the
//!   rack count;
//! * a **segment tree over racks** whose nodes store per-kind maxima of
//!   the rack *fit keys* — giving O(log racks) successor queries
//!   `next_rack_with_fit` (single kind, exact) and `next_pool_rack`
//!   (all three kinds; exact at leaves, guided at internal nodes).
//!
//! A rack's fit key for a kind is `max_available + 1` over the rack's
//! *live* boxes, or `0` when every box of that kind has been retracted
//! (see [`PlacementIndex::remove`]). Encoding liveness into the key makes
//! every fit predicate a strict comparison `key > units`, i.e. "some live
//! box has ≥ `units` free" — which stays correct for zero-unit demands on
//! a fully-failed rack, where a plain `max ≥ units` would wrongly admit
//! the rack (max saturates to 0 with no boxes behind it).
//!
//! Updates are O(log racks + log boxes-per-rack) per `take`/`give` (the
//! key table moves in O(1) where the key is recomputed anyway); queries
//! never scan the box table. `Cluster` owns one of these and keeps
//! it coherent; `check_invariants` cross-checks every structure against a
//! brute-force rebuild.

use crate::resources::{BoxId, RackId, ResourceKind};

/// Incrementally-maintained aggregates over the cluster's availability
/// state. See the module docs for the structure inventory.
#[derive(Debug, Clone, Default)]
pub struct PlacementIndex {
    racks: usize,
    /// Leaf count of the segment tree (racks rounded up to a power of two).
    cap: usize,
    /// Segment tree nodes, 1-indexed; `tree[cap + r]` is rack `r`'s
    /// per-kind fit-key leaf (`max_available + 1`, `0` = no live boxes),
    /// internal nodes hold children maxima.
    tree: Vec<[u32; 3]>,
    /// Per rack, per kind: `(available, box)` ascending.
    sets: Vec<[AvailSet; 3]>,
    /// Per rack, per kind: total available units.
    totals: Vec<[u64; 3]>,
    /// Per kind, indexed by fit key: `(racks whose leaf holds that key,
    /// sum of their totals)`. Dense: as long as the largest key ever seen,
    /// i.e. the box capacity in units + 2, which is why box capacity is
    /// bounded where it enters ([`TopologyConfig::MAX_BOX_UNITS`]).
    ///
    /// [`TopologyConfig::MAX_BOX_UNITS`]: crate::TopologyConfig::MAX_BOX_UNITS
    keys: [Vec<(u32, u64)>; 3],
}

/// One rack's live boxes of one kind as `(available, box)`, ascending.
type AvailSet = Vec<(u32, BoxId)>;

/// Add `entry` at its sorted position; false if it was already there.
fn set_insert(set: &mut AvailSet, entry: (u32, BoxId)) -> bool {
    match set.binary_search(&entry) {
        Ok(_) => false,
        Err(pos) => {
            set.insert(pos, entry);
            true
        }
    }
}

/// Take `entry` out; false if it was not there.
fn set_remove(set: &mut AvailSet, entry: (u32, BoxId)) -> bool {
    match set.binary_search(&entry) {
        Ok(pos) => {
            set.remove(pos);
            true
        }
        Err(_) => false,
    }
}

impl PlacementIndex {
    /// Build the index for `racks` racks from an iterator of
    /// `(rack, kind, box, available)` tuples.
    pub fn build(
        racks: u16,
        boxes: impl Iterator<Item = (RackId, ResourceKind, BoxId, u32)>,
    ) -> Self {
        let n = racks as usize;
        let cap = n.next_power_of_two().max(1);
        let mut index = PlacementIndex {
            racks: n,
            cap,
            tree: vec![[0; 3]; 2 * cap],
            sets: (0..n).map(|_| Default::default()).collect(),
            totals: vec![[0; 3]; n],
            keys: Default::default(),
        };
        for (rack, kind, box_id, avail) in boxes {
            let (r, k) = (rack.0 as usize, kind.index());
            set_insert(&mut index.sets[r][k], (avail, box_id));
            index.totals[r][k] += avail as u64;
        }
        for r in 0..n {
            for k in 0..3 {
                let key = Self::fit_key(&index.sets[r][k]);
                index.tree[cap + r][k] = key;
                let slot = Self::key_slot(&mut index.keys[k], key);
                slot.0 += 1;
                slot.1 += index.totals[r][k];
            }
        }
        for node in (1..cap).rev() {
            index.tree[node] = Self::merge(index.tree[2 * node], index.tree[2 * node + 1]);
        }
        index
    }

    fn merge(a: [u32; 3], b: [u32; 3]) -> [u32; 3] {
        [a[0].max(b[0]), a[1].max(b[1]), a[2].max(b[2])]
    }

    /// The rack/kind fit key: `max_available + 1` over live boxes, `0`
    /// when none remain. (Saturating: a box with `u32::MAX` free would
    /// alias with `u32::MAX - 1`, which no real capacity approaches.)
    fn fit_key(set: &AvailSet) -> u32 {
        set.last().map_or(0, |&(avail, _)| avail.saturating_add(1))
    }

    /// `table`'s entry for `key`, growing the table to reach it.
    fn key_slot(table: &mut Vec<(u32, u64)>, key: u32) -> &mut (u32, u64) {
        let key = key as usize;
        if key >= table.len() {
            table.resize(key + 1, (0, 0));
        }
        &mut table[key]
    }

    /// Rack `r`'s set of `k` just changed and now totals `new_total`:
    /// move the rack's key-table contribution from its old (key, total) to
    /// the new one and refresh its tree leaf.
    fn reindex(&mut self, r: usize, k: usize, new_total: u64) {
        let old_key = self.tree[self.cap + r][k];
        let new_key = Self::fit_key(&self.sets[r][k]);
        let old_total = std::mem::replace(&mut self.totals[r][k], new_total);
        let table = &mut self.keys[k];
        if old_key == new_key {
            let slot = &mut table[new_key as usize];
            slot.1 = slot.1 + new_total - old_total;
            return;
        }
        let old = &mut table[old_key as usize];
        old.0 -= 1;
        old.1 -= old_total;
        let new = Self::key_slot(table, new_key);
        new.0 += 1;
        new.1 += new_total;
        self.refresh_leaf(r, k, new_key);
    }

    /// Record one box's availability change. O(log racks) when the rack
    /// maximum moves, O(log boxes-per-rack) otherwise.
    pub fn update(
        &mut self,
        rack: RackId,
        kind: ResourceKind,
        box_id: BoxId,
        old_avail: u32,
        new_avail: u32,
    ) {
        if old_avail == new_avail {
            return; // zero-unit grants and releases are no-ops
        }
        let (r, k) = (rack.0 as usize, kind.index());
        let set = &mut self.sets[r][k];
        let removed = set_remove(set, (old_avail, box_id));
        debug_assert!(removed, "index out of sync: missing {box_id} @ {old_avail}");
        set_insert(set, (new_avail, box_id));
        let total = self.totals[r][k] + new_avail as u64 - old_avail as u64;
        self.reindex(r, k, total);
    }

    /// Store rack `r`'s changed fit key and repair the maxima above it.
    fn refresh_leaf(&mut self, r: usize, k: usize, new_key: u32) {
        let mut node = self.cap + r;
        self.tree[node][k] = new_key;
        while node > 1 {
            node /= 2;
            let recomputed = Self::merge(self.tree[2 * node], self.tree[2 * node + 1]);
            if self.tree[node] == recomputed {
                break;
            }
            self.tree[node] = recomputed;
        }
    }

    /// Retract one box from the index entirely — used when the box fails
    /// and must stop answering every aggregate query (maxima, totals,
    /// best-fit, successor scans). O(log racks) when the rack maximum
    /// moves.
    pub fn remove(&mut self, rack: RackId, kind: ResourceKind, box_id: BoxId, avail: u32) {
        let (r, k) = (rack.0 as usize, kind.index());
        let removed = set_remove(&mut self.sets[r][k], (avail, box_id));
        debug_assert!(removed, "index out of sync: missing {box_id} @ {avail}");
        self.reindex(r, k, self.totals[r][k] - avail as u64);
    }

    /// Re-admit a box previously retracted with [`PlacementIndex::remove`]
    /// at availability `avail`. O(log racks) when the rack maximum moves.
    pub fn insert(&mut self, rack: RackId, kind: ResourceKind, box_id: BoxId, avail: u32) {
        let (r, k) = (rack.0 as usize, kind.index());
        let inserted = set_insert(&mut self.sets[r][k], (avail, box_id));
        debug_assert!(inserted, "index out of sync: duplicate {box_id} @ {avail}");
        self.reindex(r, k, self.totals[r][k] + avail as u64);
    }

    /// Largest availability among `rack`'s *live* boxes of `kind`
    /// (0 when none remain). O(1).
    #[inline]
    pub fn rack_max(&self, rack: RackId, kind: ResourceKind) -> u32 {
        self.tree[self.cap + rack.0 as usize][kind.index()].saturating_sub(1)
    }

    /// Whether `rack` holds a live box of `kind` with ≥ `units` free.
    /// Unlike `rack_max(..) >= units`, this stays correct for zero-unit
    /// demands on a rack whose boxes of `kind` have all been retracted.
    /// O(1).
    #[inline]
    pub fn rack_admits(&self, rack: RackId, kind: ResourceKind, units: u32) -> bool {
        self.tree[self.cap + rack.0 as usize][kind.index()] > units
    }

    /// Total available units of `kind` in `rack`. O(1).
    #[inline]
    pub fn rack_total(&self, rack: RackId, kind: ResourceKind) -> u64 {
        self.totals[rack.0 as usize][kind.index()]
    }

    /// The racks holding a *live* box of `kind` with ≥ `units` free — the
    /// racks [`PlacementIndex::rack_admits`] accepts — as `(how many, their
    /// summed [`PlacementIndex::rack_total`])`. A suffix sum over the key
    /// table: O(box capacity), whatever the rack count.
    pub fn admitting_racks(&self, kind: ResourceKind, units: u32) -> (u32, u64) {
        let table = &self.keys[kind.index()];
        let first = (units as usize).saturating_add(1).min(table.len());
        table[first..]
            .iter()
            .fold((0, 0), |(n, sum), &(racks, total)| (n + racks, sum + total))
    }

    /// The fullest box of `kind` in `rack` that still has `units` free
    /// (best-fit; ties to the lower box id). O(log boxes-per-rack).
    pub fn best_fit(&self, rack: RackId, kind: ResourceKind, units: u32) -> Option<BoxId> {
        let set = &self.sets[rack.0 as usize][kind.index()];
        set.get(set.partition_point(|&entry| entry < (units, BoxId(0))))
            .map(|&(_, b)| b)
    }

    /// First rack with id ≥ `from` holding a *live* box of `kind` with
    /// ≥ `units` free. Exact, O(log racks).
    pub fn next_rack_with_fit(&self, kind: ResourceKind, units: u32, from: u16) -> Option<RackId> {
        let k = kind.index();
        self.descend(from as usize, self.racks, |node| node[k] > units)
    }

    /// First rack with id in `[from, end)` able to host the whole `demand`
    /// in single *live* boxes (RISA's `INTRA_RACK_POOL` membership test).
    /// Exact at leaves; internal nodes prune by per-kind fit keys.
    pub fn next_pool_rack(&self, demand: &[u32; 3], from: u16, end: u16) -> Option<RackId> {
        self.descend(from as usize, end as usize, |node| {
            node[0] > demand[0] && node[1] > demand[1] && node[2] > demand[2]
        })
    }

    /// Leftmost leaf in `[start, end)` on which `pred` holds, among real
    /// racks.
    fn descend(
        &self,
        start: usize,
        end: usize,
        pred: impl Fn(&[u32; 3]) -> bool + Copy,
    ) -> Option<RackId> {
        let end = end.min(self.racks);
        if start >= end {
            return None;
        }
        self.descend_node(1, 0, self.cap, start, end, pred)
    }

    fn descend_node(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        start: usize,
        end: usize,
        pred: impl Fn(&[u32; 3]) -> bool + Copy,
    ) -> Option<RackId> {
        if hi <= start || lo >= end || !pred(&self.tree[node]) {
            return None;
        }
        if hi - lo == 1 {
            return Some(RackId(lo as u16));
        }
        let mid = (lo + hi) / 2;
        self.descend_node(2 * node, lo, mid, start, end, pred)
            .or_else(|| self.descend_node(2 * node + 1, mid, hi, start, end, pred))
    }

    /// Exhaustively cross-check every aggregate against `avail_of`.
    pub fn check_against(
        &self,
        racks: u16,
        boxes: impl Iterator<Item = (RackId, ResourceKind, BoxId, u32)>,
    ) -> Result<(), String> {
        let rebuilt = PlacementIndex::build(racks, boxes);
        if rebuilt.sets != self.sets {
            return Err("placement-index availability sets stale".into());
        }
        if rebuilt.totals != self.totals {
            return Err("placement-index rack totals stale".into());
        }
        if rebuilt.tree != self.tree {
            return Err("placement-index segment tree stale".into());
        }
        // The live table may have grown past the keys that remain: compare
        // up to trailing empty entries.
        let trimmed = |t: &Vec<(u32, u64)>| {
            let used = t.iter().rposition(|&e| e != (0, 0)).map_or(0, |p| p + 1);
            t[..used].to_vec()
        };
        if rebuilt.keys.each_ref().map(trimmed) != self.keys.each_ref().map(trimmed) {
            return Err("placement-index key table stale".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ALL_RESOURCES;

    fn sample() -> PlacementIndex {
        // 3 racks x 2 boxes per kind, availabilities laid out by formula.
        let boxes = (0..3u16).flat_map(|r| {
            ALL_RESOURCES.into_iter().flat_map(move |kind| {
                (0..2u32).map(move |i| {
                    let id = BoxId(r as u32 * 6 + kind.index() as u32 * 2 + i);
                    let avail = 10 * (r as u32 + 1) + i;
                    (RackId(r), kind, id, avail)
                })
            })
        });
        PlacementIndex::build(3, boxes)
    }

    #[test]
    fn build_computes_maxima_and_totals() {
        let idx = sample();
        assert_eq!(idx.rack_max(RackId(0), ResourceKind::Cpu), 11);
        assert_eq!(idx.rack_max(RackId(2), ResourceKind::Storage), 31);
        assert_eq!(idx.rack_total(RackId(1), ResourceKind::Ram), 41);
    }

    #[test]
    fn update_moves_maxima() {
        let mut idx = sample();
        // Drain rack 2's best CPU box (id 13, avail 31).
        idx.update(RackId(2), ResourceKind::Cpu, BoxId(13), 31, 0);
        assert_eq!(idx.rack_max(RackId(2), ResourceKind::Cpu), 30);
        assert_eq!(idx.rack_total(RackId(2), ResourceKind::Cpu), 30);
        idx.update(RackId(2), ResourceKind::Cpu, BoxId(13), 0, 31);
        assert_eq!(idx.rack_max(RackId(2), ResourceKind::Cpu), 31);
    }

    #[test]
    fn successor_queries_are_exact() {
        let idx = sample();
        // Only rack 2 can host 31 CPU units.
        assert_eq!(
            idx.next_rack_with_fit(ResourceKind::Cpu, 31, 0),
            Some(RackId(2))
        );
        assert_eq!(idx.next_rack_with_fit(ResourceKind::Cpu, 31, 3), None);
        assert_eq!(idx.next_rack_with_fit(ResourceKind::Cpu, 32, 0), None);
        // Every rack hosts 5 units; successor respects `from`.
        assert_eq!(
            idx.next_rack_with_fit(ResourceKind::Ram, 5, 1),
            Some(RackId(1))
        );
        // Pool query needs all three kinds at once.
        assert_eq!(idx.next_pool_rack(&[21, 21, 21], 0, 3), Some(RackId(1)));
        assert_eq!(idx.next_pool_rack(&[21, 31, 21], 0, 3), Some(RackId(2)));
        assert_eq!(idx.next_pool_rack(&[32, 0, 0], 0, 3), None);
        // The upper bound is exclusive.
        assert_eq!(idx.next_pool_rack(&[21, 21, 21], 0, 1), None);
        assert_eq!(idx.next_pool_rack(&[0, 0, 0], 1, 1), None);
        assert_eq!(idx.next_pool_rack(&[0, 0, 0], 1, 9), Some(RackId(1)));
    }

    #[test]
    fn admitting_racks_counts_and_sums_by_key() {
        let mut idx = sample();
        // Rack r's CPU boxes hold 10(r+1) and 10(r+1)+1: maxima 11, 21, 31.
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 0), (3, 21 + 41 + 61));
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 11), (3, 123));
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 12), (2, 41 + 61));
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 31), (1, 61));
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 32), (0, 0));
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, u32::MAX), (0, 0));
        // A total moves without its key moving; then the key moves too.
        idx.update(RackId(2), ResourceKind::Cpu, BoxId(12), 30, 5);
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 31), (1, 36));
        idx.update(RackId(2), ResourceKind::Cpu, BoxId(13), 31, 40);
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 40), (1, 45));
        // A rack with no live box admits nothing, not even zero units.
        idx.remove(RackId(0), ResourceKind::Cpu, BoxId(0), 10);
        idx.remove(RackId(0), ResourceKind::Cpu, BoxId(1), 11);
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 0), (2, 41 + 45));
        idx.insert(RackId(0), ResourceKind::Cpu, BoxId(1), 11);
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 0), (3, 11 + 41 + 45));
    }

    #[test]
    fn best_fit_prefers_fullest_then_lowest_id() {
        let mut idx = sample();
        // Rack 0 CPU: (10, box0), (11, box1). Demand 10 → box0 (fuller).
        assert_eq!(
            idx.best_fit(RackId(0), ResourceKind::Cpu, 10),
            Some(BoxId(0))
        );
        assert_eq!(
            idx.best_fit(RackId(0), ResourceKind::Cpu, 11),
            Some(BoxId(1))
        );
        assert_eq!(idx.best_fit(RackId(0), ResourceKind::Cpu, 12), None);
        // Equal availability ties to the lower id.
        idx.update(RackId(0), ResourceKind::Cpu, BoxId(1), 11, 10);
        assert_eq!(
            idx.best_fit(RackId(0), ResourceKind::Cpu, 9),
            Some(BoxId(0))
        );
    }

    #[test]
    fn check_against_detects_corruption() {
        let boxes =
            || (0..2u16).map(|r| (RackId(r), ResourceKind::Cpu, BoxId(r as u32), 5 + r as u32));
        let mut idx = PlacementIndex::build(2, boxes());
        assert!(idx.check_against(2, boxes()).is_ok());
        idx.update(RackId(0), ResourceKind::Cpu, BoxId(0), 5, 3);
        assert!(idx.check_against(2, boxes()).is_err());
    }
}
