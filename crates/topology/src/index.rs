//! The incremental placement index: RISA's table of "the boxes with the
//! maximum amount of each resource for each rack" (§4.2) and the rack
//! tree above it, so that no scheduler hot path scans the box table.
//!
//! Everything is flat and sized once by [`PlacementIndex::build`]; a
//! `take`/`give` allocates nothing:
//!
//! * per box, its **fit key** — `available + 1`, or `0` while the box is
//!   retracted (see [`PlacementIndex::remove`]) — in one array indexed by
//!   box id. Ids are rack-major and kind-minor, so the boxes of one (rack,
//!   kind) are a contiguous range of it (`BoxMix::box_range`): the rack's
//!   key is the maximum over that range, and best-fit ("fullest box that
//!   still fits") is a scan of it — a handful of entries, two on every
//!   shipped config;
//! * per rack × kind, the **total available units**;
//! * per kind, a dense **key table** indexed by rack fit key: `(racks
//!   holding that key, their summed totals)` — 130 entries on the paper's
//!   128-unit boxes. A suffix sum over it is the (member count, Σ free
//!   units) of "racks that admit `units`", i.e. RISA's restricted
//!   contention-ratio denominator, in O(box capacity) independent of the
//!   rack count;
//! * per kind, a **rack tree of fan-out [`F`]**, every level in one array:
//!   level 0 is the rack fit keys, each entry above is the maximum of a
//!   block of `F` entries below, the last level is one entry, the root.
//!   A successor query (`next_rack_with_fit`: one kind, exact;
//!   `next_pool_rack`: all three kinds, exact at the racks and guided
//!   above them) starts *at the rack it was asked about* and only climbs
//!   past blocks it has ruled out, so the common case — the round-robin
//!   cursor's rack fits — is one comparison, a miss is a short contiguous
//!   scan per level, and "no rack fits" from rack 0 is the root alone,
//!   which [`PlacementIndex::any_rack_admits`] also reads directly.
//!
//! Encoding liveness into the key makes every fit predicate a strict
//! comparison `key > units`, i.e. "some live box has ≥ `units` free" —
//! which stays correct for zero-unit demands on a fully-failed rack, where
//! a plain `max ≥ units` would wrongly admit the rack (max saturates to 0
//! with no boxes behind it).
//!
//! An update moves one box key and derives every maximum above it — the
//! rack's, then one block per level — in O(1) each unless the key that
//! shrank *was* that maximum (then its range or block is rescanned), and
//! stops at the first maximum that does not move. `Cluster` owns one of
//! these and keeps it coherent; `check_invariants` cross-checks every
//! structure against a brute-force rebuild.

use crate::config::BoxMix;
use crate::resources::{BoxId, RackId, ResourceKind, ALL_RESOURCES};

/// log2 of the rack tree's fan-out.
const SHIFT: u32 = 4;
/// The rack tree's fan-out. 8, 16 and 32 were measured on the
/// `BENCHMARK.json` workloads and tied (README "Decided by measurement"):
/// a walk that starts at the rack it was asked about rarely leaves level 0.
const F: usize = 1 << SHIFT;

/// Incrementally-maintained aggregates over the cluster's availability
/// state. See the module docs for the structure inventory.
#[derive(Debug, Clone)]
pub struct PlacementIndex {
    racks: usize,
    mix: BoxMix,
    /// Per box, by id: its fit key (`available + 1`, `0` = retracted).
    box_keys: Vec<u32>,
    /// Per kind, the rack tree: level `l` is
    /// `tree[k][level_start[l]..level_start[l + 1]]`; level 0 (from index
    /// 0, so `tree[k][r]` is rack `r`'s fit key) holds the maximum box key
    /// of each rack, every other level the block maxima of the one below.
    tree: [Vec<u32>; 3],
    /// Where each level starts in a `tree` array, then the array's length.
    level_start: Vec<usize>,
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

/// The maximum of a set of keys after one of them moved `old → new`, given
/// the maximum `cur` from before: O(1) unless the key that shrank was the
/// maximum, the only case that has to `rescan` the set.
fn moved_max(cur: u32, old: u32, new: u32, rescan: impl FnOnce() -> u32) -> u32 {
    if new >= cur || old < cur {
        cur.max(new)
    } else {
        rescan()
    }
}

fn max_key(keys: &[u32]) -> u32 {
    keys.iter().copied().max().unwrap_or(0)
}

/// The free units behind a box fit key (none while retracted).
fn key_avail(key: u32) -> u64 {
    key.saturating_sub(1) as u64
}

impl PlacementIndex {
    /// Build the index for `racks` racks of `mix` boxes each from every
    /// box's availability in id order, `None` for a retracted (failed)
    /// box.
    pub fn build(racks: u16, mix: BoxMix, avail: impl Iterator<Item = Option<u32>>) -> Self {
        let n = racks as usize;
        let box_keys: Vec<u32> = avail.map(|a| a.map_or(0, |a| a + 1)).collect();
        assert_eq!(box_keys.len(), n * mix.total() as usize, "box table size");
        let mut level_start = vec![0, n];
        let mut len = n;
        while len > 1 {
            len = len.div_ceil(F);
            level_start.push(level_start[level_start.len() - 1] + len);
        }
        let nodes = level_start[level_start.len() - 1];
        let mut index = PlacementIndex {
            racks: n,
            mix,
            box_keys,
            tree: std::array::from_fn(|_| vec![0; nodes]),
            level_start,
            totals: vec![[0; 3]; n],
            keys: Default::default(),
        };
        for kind in ALL_RESOURCES {
            let k = kind.index();
            for r in 0..n {
                let boxes = &index.box_keys[mix.box_range(RackId(r as u16), kind)];
                let (key, total) = (max_key(boxes), boxes.iter().map(|&b| key_avail(b)).sum());
                index.tree[k][r] = key;
                index.totals[r][k] = total;
                let slot = Self::key_slot(&mut index.keys[k], key);
                slot.0 += 1;
                slot.1 += total;
            }
            for level in 1..index.level_start.len() - 1 {
                for pos in 0..index.level_start[level + 1] - index.level_start[level] {
                    index.tree[k][index.level_start[level] + pos] = index.block_max(k, level, pos);
                }
            }
        }
        index
    }

    /// The maximum over the children of entry `pos` of `level` (≥ 1): a
    /// block of [`F`] entries of the level below, fewer at its end.
    fn block_max(&self, k: usize, level: usize, pos: usize) -> u32 {
        let lo = self.level_start[level - 1] + (pos << SHIFT);
        max_key(&self.tree[k][lo..(lo + F).min(self.level_start[level])])
    }

    /// `table`'s entry for `key`, growing the table to reach it.
    fn key_slot(table: &mut Vec<(u32, u64)>, key: u32) -> &mut (u32, u64) {
        let key = key as usize;
        if key >= table.len() {
            table.resize(key + 1, (0, 0));
        }
        &mut table[key]
    }

    /// Move one box's fit key and everything derived from it: the rack's
    /// total, its fit key, its key-table contribution and — only when the
    /// rack key moved — the tree above it.
    fn set_key(&mut self, rack: RackId, kind: ResourceKind, box_id: BoxId, new_key: u32) {
        let (r, k) = (rack.0 as usize, kind.index());
        let old_key = std::mem::replace(&mut self.box_keys[box_id.0 as usize], new_key);
        if old_key == new_key {
            return; // zero-unit grants and releases are no-ops
        }
        let old_rack_key = self.tree[k][r];
        let new_rack_key = moved_max(old_rack_key, old_key, new_key, || {
            max_key(&self.box_keys[self.mix.box_range(rack, kind)])
        });
        let old_total = self.totals[r][k];
        let new_total = old_total + key_avail(new_key) - key_avail(old_key);
        self.totals[r][k] = new_total;
        let table = &mut self.keys[k];
        if old_rack_key == new_rack_key {
            let slot = &mut table[new_rack_key as usize];
            slot.1 = slot.1 + new_total - old_total;
            return;
        }
        let old = &mut table[old_rack_key as usize];
        old.0 -= 1;
        old.1 -= old_total;
        let new = Self::key_slot(table, new_rack_key);
        new.0 += 1;
        new.1 += new_total;
        self.refresh_leaf(r, k, new_rack_key);
    }

    /// Store rack `r`'s changed fit key and repair the block maxima above
    /// it, stopping at the first one that does not move.
    fn refresh_leaf(&mut self, r: usize, k: usize, new_key: u32) {
        let (mut pos, mut old, mut new) = (r, self.tree[k][r], new_key);
        self.tree[k][r] = new_key;
        for level in 1..self.level_start.len() - 1 {
            pos >>= SHIFT;
            let node = self.level_start[level] + pos;
            let cur = self.tree[k][node];
            let max = moved_max(cur, old, new, || self.block_max(k, level, pos));
            if max == cur {
                break;
            }
            self.tree[k][node] = max;
            (old, new) = (cur, max);
        }
    }

    /// Record a live box's availability change. O(1) unless the box held
    /// its rack's maximum and shrank; O(tree levels) when the rack
    /// maximum moves.
    pub fn update(&mut self, rack: RackId, kind: ResourceKind, box_id: BoxId, new_avail: u32) {
        debug_assert!(
            self.box_keys[box_id.0 as usize] > 0,
            "{box_id} is retracted"
        );
        self.set_key(rack, kind, box_id, new_avail + 1);
    }

    /// Retract one box from the index entirely — used when the box fails
    /// and must stop answering every aggregate query (maxima, totals,
    /// best-fit, successor scans).
    pub fn remove(&mut self, rack: RackId, kind: ResourceKind, box_id: BoxId) {
        debug_assert!(
            self.box_keys[box_id.0 as usize] > 0,
            "{box_id} is retracted"
        );
        self.set_key(rack, kind, box_id, 0);
    }

    /// Re-admit a box previously retracted with [`PlacementIndex::remove`]
    /// at availability `avail`.
    pub fn insert(&mut self, rack: RackId, kind: ResourceKind, box_id: BoxId, avail: u32) {
        debug_assert!(self.box_keys[box_id.0 as usize] == 0, "{box_id} is live");
        self.set_key(rack, kind, box_id, avail + 1);
    }

    /// Largest availability among `rack`'s *live* boxes of `kind`
    /// (0 when none remain). O(1).
    #[inline]
    pub fn rack_max(&self, rack: RackId, kind: ResourceKind) -> u32 {
        self.tree[kind.index()][rack.0 as usize].saturating_sub(1)
    }

    /// Whether `rack` holds a live box of `kind` with ≥ `units` free.
    /// Unlike `rack_max(..) >= units`, this stays correct for zero-unit
    /// demands on a rack whose boxes of `kind` have all been retracted.
    /// O(1).
    #[inline]
    pub fn rack_admits(&self, rack: RackId, kind: ResourceKind, units: u32) -> bool {
        self.tree[kind.index()][rack.0 as usize] > units
    }

    /// Whether *any* rack holds a live box of `kind` with ≥ `units` free:
    /// the tree's root. O(1).
    #[inline]
    pub fn any_rack_admits(&self, kind: ResourceKind, units: u32) -> bool {
        self.tree[kind.index()]
            .last()
            .is_some_and(|&root| root > units)
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
    /// (best-fit; ties to the lower box id). O(boxes-per-rack).
    pub fn best_fit(&self, rack: RackId, kind: ResourceKind, units: u32) -> Option<BoxId> {
        self.mix
            .box_range(rack, kind)
            .filter(|&b| self.box_keys[b] > units)
            .min_by_key(|&b| self.box_keys[b])
            .map(|b| BoxId(b as u32))
    }

    /// First rack with id ≥ `from` holding a *live* box of `kind` with
    /// ≥ `units` free. Exact; O(F · tree levels), O(1) when `from` fits
    /// and, from rack 0, when nothing does.
    pub fn next_rack_with_fit(&self, kind: ResourceKind, units: u32, from: u16) -> Option<RackId> {
        let tree = &self.tree[kind.index()];
        self.first_admitting(from as usize, self.racks, |node| tree[node] > units)
    }

    /// First rack with id in `[from, end)` able to host the whole `demand`
    /// in single *live* boxes (RISA's `INTRA_RACK_POOL` membership test).
    /// Exact at the racks; the levels above prune by per-kind block
    /// maxima.
    pub fn next_pool_rack(&self, demand: &[u32; 3], from: u16, end: u16) -> Option<RackId> {
        let [cpu, ram, sto] = &self.tree;
        self.first_admitting(from as usize, end as usize, |node| {
            cpu[node] > demand[0] && ram[node] > demand[1] && sto[node] > demand[2]
        })
    }

    /// Lowest rack in `[start, end)` on which `admits` holds, given the
    /// index of a tree entry — the same in every kind's array. Above the
    /// racks `admits` only has to be necessary: an entry is entered when
    /// it holds and skipped with its whole subtree when it does not.
    ///
    /// The walk starts at `start`'s own entry on the highest level where
    /// it opens a block and climbs again whenever it steps onto a block
    /// boundary, so everything under the current entry is ≥ `start` and
    /// everything before it has been ruled out.
    fn first_admitting(
        &self,
        start: usize,
        end: usize,
        admits: impl Fn(usize) -> bool,
    ) -> Option<RackId> {
        let end = end.min(self.racks);
        let root = self.level_start.len() - 2;
        let climb = |level: &mut usize, pos: &mut usize| {
            while *pos & (F - 1) == 0 && *level < root {
                *pos >>= SHIFT;
                *level += 1;
            }
        };
        let (mut level, mut pos) = (0, start);
        climb(&mut level, &mut pos);
        // `pos << (SHIFT * level)` is the first rack under the entry.
        while pos << (SHIFT * level as u32) < end {
            if !admits(self.level_start[level] + pos) {
                pos += 1;
                climb(&mut level, &mut pos);
            } else if level == 0 {
                return Some(RackId(pos as u16));
            } else {
                level -= 1;
                pos <<= SHIFT;
            }
        }
        None
    }

    /// Exhaustively cross-check every aggregate against a rebuild from
    /// `avail` (as for [`PlacementIndex::build`]).
    pub fn check_against(&self, avail: impl Iterator<Item = Option<u32>>) -> Result<(), String> {
        let rebuilt = PlacementIndex::build(self.racks as u16, self.mix, avail);
        if rebuilt.box_keys != self.box_keys {
            return Err("placement-index box keys stale".into());
        }
        if rebuilt.totals != self.totals {
            return Err("placement-index rack totals stale".into());
        }
        if rebuilt.tree != self.tree {
            return Err("placement-index rack tree stale".into());
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

    fn sample() -> PlacementIndex {
        // 3 racks x 2 boxes per kind (box id = 6·rack + 2·kind + i), rack
        // r's boxes of every kind holding 10(r+1) and 10(r+1)+1.
        let avail = (0..18u32).map(|id| Some(10 * (id / 6 + 1) + id % 2));
        PlacementIndex::build(3, BoxMix::paper(), avail)
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
        idx.update(RackId(2), ResourceKind::Cpu, BoxId(13), 0);
        assert_eq!(idx.rack_max(RackId(2), ResourceKind::Cpu), 30);
        assert_eq!(idx.rack_total(RackId(2), ResourceKind::Cpu), 30);
        idx.update(RackId(2), ResourceKind::Cpu, BoxId(13), 31);
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
        idx.update(RackId(2), ResourceKind::Cpu, BoxId(12), 5);
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 31), (1, 36));
        idx.update(RackId(2), ResourceKind::Cpu, BoxId(13), 40);
        assert_eq!(idx.admitting_racks(ResourceKind::Cpu, 40), (1, 45));
        // A rack with no live box admits nothing, not even zero units.
        idx.remove(RackId(0), ResourceKind::Cpu, BoxId(0));
        idx.remove(RackId(0), ResourceKind::Cpu, BoxId(1));
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
        idx.update(RackId(0), ResourceKind::Cpu, BoxId(1), 10);
        assert_eq!(
            idx.best_fit(RackId(0), ResourceKind::Cpu, 9),
            Some(BoxId(0))
        );
    }

    #[test]
    fn check_against_detects_corruption() {
        let mix = BoxMix {
            cpu: 1,
            ram: 1,
            storage: 1,
        };
        let avail = || (0..6u32).map(|id| Some(5 + id));
        let mut idx = PlacementIndex::build(2, mix, avail());
        assert!(idx.check_against(avail()).is_ok());
        idx.update(RackId(0), ResourceKind::Cpu, BoxId(0), 3);
        assert!(idx.check_against(avail()).is_err());
    }
}
