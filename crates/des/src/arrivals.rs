//! Pluggable producers for the static arrival lane.
//!
//! [`crate::SortedStream`] is the materialized oracle: every arrival sits
//! in one `Vec`, sorted, before the first event fires — simple, fast, and
//! O(trace) memory. An [`ArrivalSource`] generalizes that lane: the queue
//! asks the source for the next arrival *when the merge needs it*, so a
//! source may generate arrivals lazily (e.g. one workload shard at a
//! time) and the engine's peak memory drops from O(trace) to O(whatever
//! the source buffers).
//!
//! ## Contract
//!
//! Implementations must uphold two invariants the queue's determinism
//! rests on:
//!
//! 1. **Monotone times** — each yielded time is ≥ its predecessor
//!    (checked by a `debug_assert` in the queue's pop path). The merge
//!    against the future-event list assumes the arrival lane is sorted.
//! 2. **Exact `remaining`** — [`ArrivalSource::remaining`] must return
//!    precisely the number of events the source will still yield. At
//!    attach time the queue reserves that many sequence numbers for the
//!    lane, exactly as [`crate::EventQueue::preload_sorted`] reserves
//!    `events.len()`; an inexact count would shift every later sequence
//!    number and change same-tick tie-breaking versus the materialized
//!    path.
//!
//! `peek_time` takes `&mut self` (like
//! [`crate::EventQueue::peek_time`]) so a source may fault in its next
//! buffer — swap to the next shard — to learn the next time.
//!
//! Under this contract a lazy source that generates the *same* `(time,
//! event)` pairs as a materialized `Vec` is delivered **byte-identically**
//! to preloading that `Vec`: same times, same payloads, same sequence
//! numbers, same merge decisions (`crates/sim/tests/hot_path_differential.rs`
//! pins this end to end for the streaming workload cursor).

use crate::time::SimTime;
use std::fmt;

/// A lazy, time-ordered producer of arrival events for the static lane of
/// [`crate::EventQueue`]; attach one with
/// [`crate::EventQueue::attach_arrivals`].
///
/// See the module docs for the monotonicity and exact-`remaining`
/// contract implementations must uphold.
pub trait ArrivalSource<E>: fmt::Debug {
    /// Delivery time of the next arrival, without consuming it, or `None`
    /// when the source is exhausted. `&mut self` so lazy sources may fault
    /// in their next buffer here.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Produce the next arrival, or `None` when exhausted. Times must be
    /// non-decreasing across calls and consistent with `peek_time`.
    fn next(&mut self) -> Option<(SimTime, E)>;

    /// Exactly how many arrivals remain (total minus already yielded).
    /// The queue trusts this for sequence-number reservation; see the
    /// module docs.
    fn remaining(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;

    /// A minimal lazy source: computes arrivals on demand from a counter.
    #[derive(Debug)]
    struct Countdown {
        next: u32,
        total: u32,
    }

    impl ArrivalSource<u32> for Countdown {
        fn peek_time(&mut self) -> Option<SimTime> {
            (self.next < self.total).then(|| SimTime::from_units(f64::from(self.next)))
        }
        fn next(&mut self) -> Option<(SimTime, u32)> {
            let i = self.next;
            if i >= self.total {
                return None;
            }
            self.next += 1;
            Some((SimTime::from_units(f64::from(i)), i))
        }
        fn remaining(&self) -> usize {
            (self.total - self.next) as usize
        }
    }

    #[test]
    fn lazy_source_is_delivered_like_a_preload() {
        let total = 50u32;
        let materialized: Vec<_> = (0..total)
            .map(|i| (SimTime::from_units(f64::from(i)), i))
            .collect();

        let mut oracle = EventQueue::new();
        oracle.preload_sorted(materialized);
        let mut lazy = EventQueue::new();
        lazy.attach_arrivals(Box::new(Countdown { next: 0, total }));
        assert_eq!(lazy.len(), oracle.len());

        // Interleave identical same-tick pushes on both queues so stream
        // vs FEL tie-breaks are exercised, then compare full drains.
        let mut logs = Vec::new();
        for q in [&mut oracle, &mut lazy] {
            let mut log = Vec::new();
            for round in 0..5 {
                let e = q.pop().unwrap();
                q.push(e.at, 1000 + round);
                log.push((e.at, e.seq, e.event));
            }
            while let Some(e) = q.pop() {
                log.push((e.at, e.seq, e.event));
            }
            logs.push(log);
        }
        assert_eq!(logs[0], logs[1], "lazy arrival lane diverged from preload");
    }
}
