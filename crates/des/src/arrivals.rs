//! Producers for the event queue's arrival lane.
//!
//! A trace knows every arrival up front, already sorted by time. Pushing
//! a million arrivals through the future-event list just to pop them back
//! in the same order pays O(n log n) heap traffic and keeps the FEL at
//! O(total VMs); copying them into the queue instead holds the schedule
//! twice. An [`ArrivalSource`] does neither: the queue asks it for the
//! next arrivals *when the merge needs them*, one bounded window at a
//! time (see [`crate::EventQueue`]), so the source decides what is
//! resident — a cursor over a trace that already exists, or a generator
//! that produces one workload shard at a time.
//!
//! ## Contract
//!
//! Implementations must uphold two invariants the queue's determinism
//! rests on:
//!
//! 1. **Monotone times** — each yielded time is ≥ its predecessor. The
//!    merge against the future-event list is only correct over a sorted
//!    lane, so the queue `assert!`s this on every entry as its window
//!    refills, in release builds too.
//! 2. **Exact `remaining`** — [`ArrivalSource::remaining`] must return
//!    precisely the number of events the source will still yield. At
//!    attach time the queue reserves that many sequence numbers for the
//!    lane — entry *i* is delivered with `seq = base + i`, the number it
//!    would have carried had every arrival been pushed up front — so an
//!    inexact count would shift every later sequence number and change
//!    same-tick tie-breaking.
//!
//! Under this contract delivery is **byte-identical** to pushing the same
//! `(time, event)` pairs through the future-event list: same times, same
//! payloads, same sequence numbers, same merge decisions
//! (`tests/fel_props.rs` pins this against a linear-scan model;
//! `crates/sim/tests/hot_path_differential.rs` end to end).

use crate::time::SimTime;
use std::fmt;

/// A time-ordered producer of arrival events for the arrival lane of
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

    /// Append the next arrivals to `out`, in order: at least one unless
    /// the source is exhausted, at most `max`. This is how the queue
    /// reads a source — once per window, not once per event — so a source
    /// over a dense buffer should override the default (a loop over
    /// [`ArrivalSource::next`]) with one pass over it. Handing over fewer
    /// than `max` (say, up to the end of the current shard) is fine.
    fn fill(&mut self, out: &mut Vec<(SimTime, E)>, max: usize) {
        for _ in 0..max {
            match self.next() {
                Some(entry) => out.push(entry),
                None => break,
            }
        }
    }
}

/// The simplest source, for this crate's unit tests: a `Vec` of arrivals
/// handed over through the default `fill`.
#[cfg(test)]
pub(crate) fn vec_source<E: Send + 'static>(
    entries: Vec<(SimTime, E)>,
) -> Box<dyn ArrivalSource<E> + Send> {
    struct VecSource<E>(std::vec::IntoIter<(SimTime, E)>);
    impl<E> fmt::Debug for VecSource<E> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "VecSource({} left)", self.0.len())
        }
    }
    impl<E> ArrivalSource<E> for VecSource<E> {
        fn peek_time(&mut self) -> Option<SimTime> {
            self.0.as_slice().first().map(|(at, _)| *at)
        }
        fn next(&mut self) -> Option<(SimTime, E)> {
            self.0.next()
        }
        fn remaining(&self) -> usize {
            self.0.len()
        }
    }
    Box::new(VecSource(entries.into_iter()))
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

    /// A source that computes its arrivals is delivered exactly like one
    /// that holds them (long enough that both refill mid-drain).
    #[test]
    fn lazy_source_is_delivered_like_a_preload() {
        let total = 2500u32;
        let materialized: Vec<_> = (0..total)
            .map(|i| (SimTime::from_units(f64::from(i)), i))
            .collect();

        let mut oracle = EventQueue::new();
        oracle.attach_arrivals(vec_source(materialized));
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
                q.push(e.at, 10_000 + round);
                log.push((e.at, e.seq, e.event));
            }
            while let Some(e) = q.pop() {
                log.push((e.at, e.seq, e.event));
            }
            logs.push(log);
        }
        assert_eq!(logs[0].len(), total as usize + 5);
        assert_eq!(
            logs[0], logs[1],
            "lazy arrival lane diverged from the held one"
        );
    }
}
