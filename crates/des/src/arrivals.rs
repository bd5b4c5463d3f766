//! The event queue's arrival lane: a bounded window over arrivals someone
//! else produces.
//!
//! A trace knows every arrival up front, already sorted by time. Pushing
//! a million arrivals through the future-event list just to pop them back
//! in the same order pays a push and a pop apiece and keeps the FEL at
//! O(total VMs); copying them into the queue instead holds the schedule
//! twice. The lane does neither: [`crate::EventQueue::attach_arrivals`]
//! announces how many arrivals there will be, and whoever drives the
//! queue hands them over *when the merge needs them*, one bounded window
//! at a time ([`crate::EventQueue::feed_arrivals`]) — so the producer
//! decides what is resident: a trace that already exists, or a generator
//! that produces one workload shard at a time. [`crate::Simulation`]
//! drives its queue from its [`crate::World`]
//! ([`crate::World::fill_arrivals`]), which is what lets one workload
//! cursor serve the lane and the event handler alike: the producer is not
//! boxed into the queue, so it needs no second copy of its state and no
//! lock.
//!
//! ## Contract
//!
//! A producer must uphold two invariants the queue's determinism rests
//! on:
//!
//! 1. **Monotone times** — each entry's time is ≥ its predecessor's, and
//!    the first is ≥ the last event the queue delivered before the lane
//!    was attached. The merge against the future-event list is only
//!    correct over a sorted lane, and the future-event list only accepts
//!    what does not precede a delivered event, so the lane `assert!`s
//!    this on every entry as its window refills, in release builds too.
//! 2. **Exact count** — the producer hands over precisely the number of
//!    arrivals announced at attach, at least one per refill until then.
//!    The queue reserves that many sequence numbers for the lane — entry
//!    *i* is delivered with `seq = base + i`, the number it would have
//!    carried had every arrival been pushed up front — so an inexact
//!    count would shift every later sequence number and change same-tick
//!    tie-breaking.
//!
//! Under this contract delivery is **byte-identical** to pushing the same
//! `(time, event)` pairs through the future-event list: same times, same
//! payloads, same sequence numbers, same merge decisions
//! (`tests/fel_props.rs` pins this against a linear-scan model;
//! `crates/sim/tests/hot_path_differential.rs` end to end).

use crate::time::SimTime;

/// Arrivals the lane converts ahead of the merge: enough that a refill's
/// call vanishes per event, and 16 KB of the DDC model's 16 B entries
/// (256 measured a tie end to end, 4 096 no better).
pub(crate) const ARRIVAL_WINDOW: usize = 1024;

/// The arrival lane: its producer's arrivals, read through a bounded
/// window.
pub(crate) struct ArrivalLane<E> {
    /// Arrivals the producer has yet to hand over.
    pub(crate) unfilled: usize,
    /// Entries handed over and not yet delivered, *latest first*: the
    /// head of the lane is `window.last()`, so delivering it is a
    /// `Vec::pop`.
    pub(crate) window: Vec<(SimTime, E)>,
    /// Sequence number of the lane's head.
    pub(crate) next_seq: u64,
    /// Entries handed over so far, and the time of the last of them (the
    /// queue's last delivered time before the first): what the next
    /// refill's order check continues from.
    handed: u64,
    last: SimTime,
}

impl<E> ArrivalLane<E> {
    /// A lane of `count` arrivals whose head will carry `next_seq`, none
    /// of them earlier than `delivered`.
    pub(crate) fn new(count: usize, next_seq: u64, delivered: SimTime) -> Self {
        ArrivalLane {
            unfilled: count,
            window: Vec::new(),
            next_seq,
            handed: 0,
            last: delivered,
        }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.unfilled + self.window.len()
    }

    /// Refill the drained window of a lane with arrivals left: `fill`
    /// appends the next ones to the buffer it is given, at least one and
    /// at most the count it is given.
    ///
    /// # Panics
    /// If `fill` hands over no entry or too many, or one earlier than its
    /// predecessor.
    pub(crate) fn refill(&mut self, fill: impl FnOnce(&mut Vec<(SimTime, E)>, usize)) {
        debug_assert!(self.window.is_empty(), "refill of a window in use");
        let max = ARRIVAL_WINDOW.min(self.unfilled);
        fill(&mut self.window, max);
        assert!(
            (1..=max).contains(&self.window.len()),
            "arrival lane refill handed over {} entries (1..={max} asked for, {} arrivals remaining)",
            self.window.len(),
            self.unfilled
        );
        self.unfilled -= self.window.len();
        for (at, _) in &self.window {
            assert!(
                self.last <= *at,
                "preloaded events must be sorted by time: entry {} at {:?} precedes {} at {:?}",
                self.handed,
                at,
                match self.handed.checked_sub(1) {
                    Some(previous) => format!("entry {previous}"),
                    None => "the last event delivered before the lane was attached".into(),
                },
                self.last,
            );
            self.last = *at;
            self.handed += 1;
        }
        self.window.reverse();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::queue::{EventQueue, QueueEntry};

    /// For this crate's unit tests: a queue whose lane holds the arrivals of
    /// a `Vec`, fed before every pop and peek the way an engine feeds one
    /// from its world. Everything else derefs to the queue.
    pub(crate) struct Fed<E> {
        queue: EventQueue<E>,
        rest: std::vec::IntoIter<(SimTime, E)>,
    }

    impl<E> Fed<E> {
        pub(crate) fn attach(mut queue: EventQueue<E>, entries: Vec<(SimTime, E)>) -> Self {
            queue.attach_arrivals(entries.len());
            Fed {
                queue,
                rest: entries.into_iter(),
            }
        }

        fn feed(&mut self) {
            let rest = &mut self.rest;
            self.queue
                .feed_arrivals(|out, max| out.extend(rest.take(max)));
        }

        pub(crate) fn pop(&mut self) -> Option<QueueEntry<E>> {
            self.feed();
            self.queue.pop()
        }

        pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
            self.feed();
            self.queue.peek_time()
        }
    }

    impl<E> std::ops::Deref for Fed<E> {
        type Target = EventQueue<E>;
        fn deref(&self) -> &Self::Target {
            &self.queue
        }
    }

    impl<E> std::ops::DerefMut for Fed<E> {
        fn deref_mut(&mut self) -> &mut Self::Target {
            &mut self.queue
        }
    }

    /// A producer that computes its arrivals when asked — a few at a time,
    /// never a window's worth — is delivered exactly like one that holds
    /// them (long enough that both refill mid-drain).
    #[test]
    fn lazy_source_is_delivered_like_a_preload() {
        let total = 2500u32;
        let materialized: Vec<_> = (0..total)
            .map(|i| (SimTime::from_units(f64::from(i)), i))
            .collect();

        let mut held = Fed::attach(EventQueue::new(), materialized);
        let mut lazy = EventQueue::new();
        lazy.attach_arrivals(total as usize);
        assert_eq!(lazy.len(), held.len());

        let mut next = 0u32;
        let mut lazy_pop = |q: &mut EventQueue<u32>| {
            q.feed_arrivals(|out, max| {
                let upto = total.min(next + max.min(37) as u32);
                out.extend((next..upto).map(|i| (SimTime::from_units(f64::from(i)), i)));
                next = upto;
            });
            q.pop()
        };
        // Interleave identical same-tick pushes on both queues so lane
        // vs FEL tie-breaks are exercised, then compare full drains.
        let mut logs = [Vec::new(), Vec::new()];
        for round in 0..5 {
            let (a, b) = (held.pop().unwrap(), lazy_pop(&mut lazy).unwrap());
            held.push(a.at, 10_000 + round);
            lazy.push(b.at, 10_000 + round);
            logs[0].push((a.at, a.seq, a.event));
            logs[1].push((b.at, b.seq, b.event));
        }
        while let Some(e) = held.pop() {
            logs[0].push((e.at, e.seq, e.event));
        }
        while let Some(e) = lazy_pop(&mut lazy) {
            logs[1].push((e.at, e.seq, e.event));
        }
        assert_eq!(logs[0].len(), total as usize + 5);
        assert_eq!(
            logs[0], logs[1],
            "lazy arrival lane diverged from the held one"
        );
        assert_eq!(lazy.peak_arrival_window(), 37);
    }
}
