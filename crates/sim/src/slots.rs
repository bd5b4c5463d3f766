//! The world's per-VM store: assignments keyed by VM index, with memory
//! that follows residents rather than the trace.

use std::collections::VecDeque;

/// Per-VM slot storage whose memory follows *residents*, not the trace:
/// a ring of slab indices over the live VM-index span in front of a slab
/// of values. VM indices are admitted in ascending order and depart in
/// any order, so the ring costs 4 B × (newest − oldest live index) and
/// the slab `size_of::<Option<T>>()` × peak residents — a VM that is
/// dropped, or has departed, holds nothing. Nothing is hashed: inserts
/// and takes walk the ring the way a dense array would be walked.
#[derive(Debug, Clone)]
pub(crate) struct PerVmSlots<T> {
    /// VM index of `ring[0]` (meaningless while the ring is empty).
    base: u32,
    /// Slab index of each VM in `base..base + ring.len()`, [`NO_SLOT`]
    /// for a VM without a value. Kept trimmed: a non-empty ring starts
    /// and ends on a live VM.
    ring: VecDeque<u32>,
    /// The values; `None` entries are exactly the ones listed in `free`.
    slab: Vec<Option<T>>,
    /// Vacant slab entries, reused before the slab grows.
    free: Vec<u32>,
}

/// Ring entry of a VM that holds no value (never a slab index: the slab
/// holds at most one entry per `u32` VM index).
const NO_SLOT: u32 = u32::MAX;

impl<T> PerVmSlots<T> {
    pub(crate) fn new() -> Self {
        PerVmSlots {
            base: 0,
            ring: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Ring position of VM `idx`, if inside the live span.
    fn ring_pos(&self, idx: u32) -> Option<usize> {
        let pos = idx.checked_sub(self.base)? as usize;
        (pos < self.ring.len()).then_some(pos)
    }

    /// Store `value` for VM `idx` (slot must be empty). Ascending `idx`
    /// appends; an `idx` below the live span (an evacuated VM re-placed
    /// after the span moved on) extends the front.
    pub(crate) fn insert(&mut self, idx: u32, value: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(value);
                slot
            }
            None => {
                self.slab.push(Some(value));
                (self.slab.len() - 1) as u32
            }
        };
        if self.ring.is_empty() {
            self.base = idx;
        }
        if idx < self.base {
            for _ in idx + 1..self.base {
                self.ring.push_front(NO_SLOT);
            }
            self.ring.push_front(slot);
            self.base = idx;
        } else {
            let pos = (idx - self.base) as usize;
            if pos >= self.ring.len() {
                // The hot case: the next arrival, past any dropped ones.
                self.ring.resize(pos, NO_SLOT);
                self.ring.push_back(slot);
            } else {
                debug_assert_eq!(self.ring[pos], NO_SLOT, "slot {idx} already occupied");
                self.ring[pos] = slot;
            }
        }
    }

    /// Remove and return VM `idx`'s value, if present.
    pub(crate) fn take(&mut self, idx: u32) -> Option<T> {
        let pos = self.ring_pos(idx)?;
        let slot = std::mem::replace(&mut self.ring[pos], NO_SLOT);
        if slot == NO_SLOT {
            return None;
        }
        let value = self.slab[slot as usize].take();
        debug_assert!(value.is_some(), "ring points at a vacant slab entry");
        self.free.push(slot);
        while self.ring.front() == Some(&NO_SLOT) {
            self.ring.pop_front();
            self.base += 1;
        }
        while self.ring.back() == Some(&NO_SLOT) {
            self.ring.pop_back();
        }
        value
    }

    /// Borrow VM `idx`'s value, if present.
    pub(crate) fn get(&self, idx: u32) -> Option<&T> {
        match self.ring[self.ring_pos(idx)?] {
            NO_SLOT => None,
            slot => self.slab[slot as usize].as_ref(),
        }
    }

    /// True when no VM holds a value (end-of-run: everything departed).
    pub(crate) fn all_free(&self) -> bool {
        self.ring.is_empty()
    }

    /// Live entries (resident VMs with a value).
    pub(crate) fn occupied(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Every occupied `(vm index, value)` in ascending index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.ring
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NO_SLOT)
            .map(|(pos, &slot)| {
                let value = self.slab[slot as usize]
                    .as_ref()
                    .expect("ring points at a vacant slab entry");
                (self.base + pos as u32, value)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::tests::run_world;
    use proptest::prelude::*;
    use risa_sched::Algorithm;
    use std::collections::{btree_map, BTreeMap};

    /// One scripted operation against the store.
    #[derive(Debug, Clone, Copy)]
    enum SlotOp {
        /// Insert the next index, this far past the newest one inserted.
        Insert(u32),
        /// Take the live index of this rank (modulo the population).
        TakeLive(u32),
        /// Take whatever index this is, live or not.
        TakeAny(u32),
        /// Read whatever index this is.
        Get(u32),
        /// Re-insert the index taken this long ago, unless it is live
        /// again — by now it may lie below the ring's base.
        Reinsert(u32),
    }

    fn slot_ops() -> impl Strategy<Value = Vec<SlotOp>> {
        prop::collection::vec(
            (0u32..10, 0u32..1 << 16).prop_map(|(sel, arg)| match sel {
                0..=3 => SlotOp::Insert(1 + arg % 3),
                4..=5 => SlotOp::TakeLive(arg),
                6 => SlotOp::TakeAny(arg),
                7 => SlotOp::Get(arg),
                _ => SlotOp::Reinsert(arg),
            }),
            0..300,
        )
    }

    proptest! {
        /// The store against a `BTreeMap` model, step by step: same
        /// answers, same ascending pairs, and the two memory bounds the
        /// design promises — the slab never outgrows the peak population
        /// and the ring never outgrows the live index span.
        #[test]
        fn slots_match_an_ordered_map_within_their_bounds(script in slot_ops()) {
            let mut slots: PerVmSlots<u64> = PerVmSlots::new();
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            let mut taken: Vec<u32> = Vec::new();
            let (mut next, mut stamp, mut peak) = (0u32, 0u64, 0usize);
            for op in script {
                stamp += 1;
                match op {
                    SlotOp::Insert(gap) => {
                        next += gap;
                        slots.insert(next, stamp);
                        model.insert(next, stamp);
                    }
                    SlotOp::TakeLive(rank) if !model.is_empty() => {
                        let idx = *model.keys().nth(rank as usize % model.len()).unwrap();
                        prop_assert_eq!(slots.take(idx), model.remove(&idx));
                        taken.push(idx);
                    }
                    SlotOp::TakeLive(idx) | SlotOp::TakeAny(idx) => {
                        let idx = idx % (next + 3);
                        let got = slots.take(idx);
                        prop_assert_eq!(got, model.remove(&idx));
                        taken.extend(got.map(|_| idx));
                    }
                    SlotOp::Get(idx) => {
                        let idx = idx % (next + 3);
                        prop_assert_eq!(slots.get(idx), model.get(&idx));
                    }
                    SlotOp::Reinsert(age) if !taken.is_empty() => {
                        let idx = taken[taken.len() - 1 - age as usize % taken.len()];
                        if let btree_map::Entry::Vacant(gone) = model.entry(idx) {
                            slots.insert(idx, stamp);
                            gone.insert(stamp);
                        }
                    }
                    SlotOp::Reinsert(_) => {}
                }
                peak = peak.max(model.len());
                prop_assert_eq!(slots.occupied(), model.len());
                prop_assert_eq!(slots.all_free(), model.is_empty());
                let pairs: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(slots.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>(), pairs);
                prop_assert!(slots.slab.len() <= peak, "slab {} > peak {peak}", slots.slab.len());
                let span = match (model.keys().next(), model.keys().next_back()) {
                    (Some(oldest), Some(newest)) => (newest - oldest + 1) as usize,
                    _ => 0,
                };
                prop_assert!(slots.ring.len() <= span, "ring {} > span {span}", slots.ring.len());
            }
        }
    }

    /// End to end: far past saturation most arrivals are dropped and
    /// never touch the store, and the rest reuse departed VMs' slab
    /// entries — the slab ends no longer than the peak residency.
    #[test]
    fn saturated_run_keeps_the_slab_within_peak_residency() {
        let w = run_world(Algorithm::Risa, 60_000, 42);
        assert!(w.counters.dropped_compute > 0, "the run must saturate");
        assert!(w.assignments.all_free());
        assert!(
            w.assignments.slab.len() <= w.peak_resident() as usize,
            "slab {} > peak resident {}",
            w.assignments.slab.len(),
            w.peak_resident()
        );
    }
}
