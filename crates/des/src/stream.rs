//! The static lane of the two-lane event queue: a pre-sorted arrival
//! cursor.
//!
//! A DDC trace knows every VM arrival up front, already sorted by time.
//! Pushing a million arrivals through the future-event list just to pop
//! them back in the same order pays O(n log n) heap traffic and keeps the
//! FEL at O(total VMs). A [`SortedStream`] instead *walks* the sorted
//! arrivals with a cursor; [`crate::EventQueue`] merges it against the
//! dynamic FEL at `(time, seq)`, so the FEL only ever holds events
//! scheduled during the run — O(resident VMs) for the DDC model.
//!
//! Sequence numbers are assigned lazily from a base reserved at preload
//! time: entry *i* of the stream has `seq = base + i`, exactly the numbers
//! the entries would have carried had they been pushed up front. The merge
//! is therefore **byte-identical** to the push-everything path (pinned by
//! `crates/sim/tests/hot_path_differential.rs`).

use crate::queue::{EventKey, QueueEntry};
use crate::time::SimTime;
use std::fmt;

/// A cursor over time-sorted `(time, event)` pairs, yielding
/// [`QueueEntry`]s with consecutive sequence numbers from a fixed base.
pub struct SortedStream<E> {
    iter: std::vec::IntoIter<(SimTime, E)>,
    next_seq: u64,
}

impl<E> SortedStream<E> {
    /// Wrap `entries`, which must be non-decreasing in time; `seq_base` is
    /// the sequence number of the first entry.
    ///
    /// # Panics
    /// If `entries` is not sorted by time.
    pub(crate) fn new(entries: Vec<(SimTime, E)>, seq_base: u64) -> Self {
        for (i, pair) in entries.windows(2).enumerate() {
            assert!(
                pair[0].0 <= pair[1].0,
                "preloaded events must be sorted by time: entry {} at {:?} precedes entry {} at {:?}",
                i + 1,
                pair[1].0,
                i,
                pair[0].0,
            );
        }
        SortedStream {
            iter: entries.into_iter(),
            next_seq: seq_base,
        }
    }

    /// `(time, seq)` of the next entry, without consuming it.
    #[inline]
    pub fn peek_key(&self) -> Option<EventKey> {
        self.iter
            .as_slice()
            .first()
            .map(|(t, _)| (*t, self.next_seq))
    }

    /// Consume and return the next entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<QueueEntry<E>> {
        let (at, event) = self.iter.next()?;
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(QueueEntry { at, seq, event })
    }

    /// Entries not yet delivered.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.iter.len()
    }
}

// Payload-opaque `Debug` (no `E: Debug` bound).
impl<E> fmt::Debug for SortedStream<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SortedStream")
            .field("remaining", &self.remaining())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    #[test]
    fn yields_in_order_with_consecutive_seqs() {
        let mut s = SortedStream::new(vec![(t(1.0), "a"), (t(1.0), "b"), (t(4.0), "c")], 10);
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.peek_key(), Some((t(1.0), 10)));
        let popped: Vec<_> =
            std::iter::from_fn(|| s.pop().map(|e| (e.at, e.seq, e.event))).collect();
        assert_eq!(
            popped,
            vec![(t(1.0), 10, "a"), (t(1.0), 11, "b"), (t(4.0), 12, "c")]
        );
        assert_eq!(s.peek_key(), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_input_panics() {
        let _ = SortedStream::new(vec![(t(2.0), ()), (t(1.0), ())], 0);
    }

    #[test]
    fn empty_stream_is_fine() {
        let mut s = SortedStream::<u8>::new(vec![], 0);
        assert_eq!(s.peek_key(), None);
        assert!(s.pop().is_none());
    }
}
