//! The pending-event set: a **two-lane** queue ordered by `(time, seq)`.
//!
//! Lane 1 is the optional arrival lane: arrivals known (or derivable) up
//! front and already sorted, announced with
//! [`EventQueue::attach_arrivals`] and read through a small bounded
//! *window* of already-converted `(time, event)` entries; lane 2 is the
//! dynamic future-event list (FEL) that holds events scheduled during the
//! run. [`EventQueue::pop`] merges the lanes at `(time, seq)`, so delivery
//! order is exactly what pushing everything into one FEL would produce —
//! but the FEL stays O(events in flight) instead of O(all events ever
//! known), and the queue itself never holds more than one window of the
//! schedule: whether the arrivals exist all at once is their producer's
//! business.
//!
//! ## The monotone contract
//!
//! Time never runs backwards: [`EventQueue::push`] refuses — an
//! `assert!`, in every build — an entry earlier than the last one the
//! queue delivered from either lane, and a lane attached after deliveries
//! must not start before them either (checked as its window refills).
//! A discrete-event engine never needs more: a handler schedules at or
//! after "now", which is the time just delivered. The queue turns that
//! contract into its speed.
//!
//! ## The FEL: a sorted run beside a monotone radix heap
//!
//! Many workloads push their departures in time order (the paper's §5.1
//! staircase traces push each at or after the last), and such entries need
//! no heap: a push not before the tail of the *sorted run*, a FIFO, is
//! appended to it, and any other goes to the radix heap below. The run is
//! in `(time, seq)` order by construction (times never fall, `seq` only
//! rises), so every pop and peek takes the least of three heads — arrival
//! lane, run, heap — by the full key, and delivery order is exactly one
//! heap's whichever structure an entry sits in.
//!
//! Because no key is ever pushed below the last one delivered, the heap is
//! a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990) over
//! `at.ticks()` instead of a comparison heap. Keys are measured against a
//! *base*, the last key the heap moved down (never above a pending key):
//! the `ready` bucket holds the keys equal to it, FIFO, and far bucket
//! `i` the keys whose highest bit differing from it is bit `i`, each far
//! bucket remembering its earliest entry. A push is one XOR, one
//! `leading_zeros` and one compare. A pop takes the head of `ready`, and
//! when that is empty *refills* it: the first non-empty far bucket (a
//! mask's `trailing_zeros`) gives up its minimum as the new base, and its
//! entries move down, in order, to `ready` or to lower buckets. An entry
//! only ever moves down, so it moves at most 64 times however deep the
//! list — and every entry with a given key always shares one bucket, and
//! moves in order, so equal times leave in push order: exactly
//! `(time, seq)` for the heap's own entries. The sequence number stays in
//! each entry for the merge with the run and the arrival lane and for
//! [`EventQueue::pop`]'s caller.
//!
//! Looking at the heap's minimum ([`EventQueue::peek_time`], and every
//! merge decision) must **not** move the base: an arrival or a run entry
//! earlier than the heap's minimum is still to be delivered and may
//! schedule a departure below that minimum. It does not need to: the
//! minimum is the head of `ready`, or else the remembered earliest entry
//! of the lowest non-empty far bucket — O(1), no scan, and nothing to
//! invalidate.
//!
//! ## The window
//!
//! The merge looks at the lane's head on every pop and every peek. Asking
//! the producer each time would put a call and a time conversion on that
//! path, so the lane instead takes up to 1 024 entries at once and serves
//! them from a dense buffer; the per-event path reads one slot. The
//! producer is whoever drives the queue: before each pop or peek the
//! driver calls [`EventQueue::feed_arrivals`], which takes the next
//! arrivals when the window has drained — [`crate::Simulation`] does it
//! from its [`crate::World`]. A refill is the one place every arrival passes
//! through exactly once, so it carries the lane's sortedness check — an
//! `assert!`, in every build: the merge is only correct over a sorted
//! lane, and an unsorted one would deliver events out of order without
//! any other symptom.
//!
//! Determinism requirement: when two events are scheduled for the same
//! tick, the one scheduled *first* is delivered first. Every entry
//! carries a monotonically increasing sequence number that breaks ties
//! across the lanes; an attached lane reserves one per arrival — the
//! numbers its arrivals would have been pushed with — which is why the
//! count given at attach must be exact (the lane's contract:
//! `arrivals.rs`).

use crate::arrivals::ArrivalLane;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// The total-order key the engine dispatches by: `(time, seq)`.
pub type EventKey = (SimTime, u64);

/// One scheduled event: delivery time, tie-breaking sequence, payload.
#[derive(Debug, Clone)]
pub struct QueueEntry<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Global insertion sequence; earlier insertions fire first on ties.
    pub seq: u64,
    /// The event payload handed to the [`crate::World`] handler.
    pub event: E,
}

/// A deterministic two-lane event queue.
pub struct EventQueue<E> {
    arrivals: Option<ArrivalLane<E>>,
    /// FEL entries pushed in time order; the heap holds the others.
    run: VecDeque<QueueEntry<E>>,
    heap: RadixHeap<E>,
    next_seq: u64,
    /// Time of the last entry delivered from either lane: the earliest a
    /// push may be.
    delivered: SimTime,
    peak_fel: usize,
    peak_window: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            arrivals: None,
            run: VecDeque::new(),
            heap: RadixHeap::new(),
            next_seq: 0,
            delivered: SimTime::ZERO,
            peak_fel: 0,
            peak_window: 0,
        }
    }

    /// Load the arrival lane: exactly `count` arrivals, delivered merged
    /// against dynamically pushed events exactly as if they had all been
    /// pushed now — they reserve the next `count` sequence numbers — but
    /// never entering the future-event list. The queue's driver hands
    /// them over, in non-decreasing time order and none before the last
    /// event already delivered (checked as the window refills, in every
    /// build), by calling [`EventQueue::feed_arrivals`] before each pop
    /// and peek.
    ///
    /// # Panics
    /// If a previous arrival lane has not been fully delivered yet.
    pub fn attach_arrivals(&mut self, count: usize) {
        assert!(
            self.stream_remaining() == 0,
            "attach_arrivals: a previous arrival lane is still being delivered"
        );
        self.arrivals = Some(ArrivalLane::new(count, self.next_seq, self.delivered));
        self.next_seq += count as u64;
    }

    /// Refill the arrival lane's window if it has drained and arrivals
    /// are left — what the driver does before every pop and peek. `fill`
    /// appends the next arrivals, in order, to the buffer it is given: at
    /// least one, at most the count it is given.
    ///
    /// # Panics
    /// If `fill` hands over no entry, too many, or one earlier than its
    /// predecessor.
    #[inline]
    pub fn feed_arrivals(&mut self, fill: impl FnOnce(&mut Vec<(SimTime, E)>, usize)) {
        if let Some(lane) = self.arrivals.as_mut() {
            if lane.window.is_empty() && lane.unfilled > 0 {
                lane.refill(fill);
                self.peak_window = self.peak_window.max(lane.window.len());
            }
        }
    }

    /// Schedule `event` for delivery at `at`. Returns the sequence number
    /// assigned to the entry (useful in tests asserting FIFO tie order).
    ///
    /// # Panics
    /// If `at` is earlier than the last entry delivered from either lane
    /// (the monotone contract, checked in every build).
    pub fn push(&mut self, at: SimTime, event: E) -> u64 {
        assert!(
            at >= self.delivered,
            "EventQueue::push at {at:?} precedes the last delivered event at {:?}",
            self.delivered
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = QueueEntry { at, seq, event };
        if self.run.back().is_none_or(|tail| at >= tail.at) {
            self.run.push_back(entry);
        } else {
            self.heap.push(entry);
        }
        self.peak_fel = self.peak_fel.max(self.fel_len());
        seq
    }

    /// Remove and return the earliest entry across both lanes, or `None`
    /// when empty.
    pub fn pop(&mut self) -> Option<QueueEntry<E>> {
        self.pop_through(SimTime::MAX)
    }

    /// Remove and return the earliest entry if it is due at or before
    /// `horizon`, else `None`: a peek and a pop for one merge.
    pub fn pop_through(&mut self, horizon: SimTime) -> Option<QueueEntry<E>> {
        let ((at, _), head) = self.earliest()?;
        if at > horizon {
            return None;
        }
        let entry = match head {
            Head::Arrival => self.pop_arrival(),
            Head::Run => self.run.pop_front(),
            Head::Heap => self.heap.pop(),
        }?;
        self.delivered = entry.at;
        Some(entry)
    }

    /// Delivery time of the earliest pending event. Takes `&mut self`
    /// because looking at an exhausted arrival lane retires it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.earliest().map(|((at, _), _)| at)
    }

    /// The least of the three heads and where it is (keys are unique:
    /// every entry has its own `seq`).
    #[inline]
    fn earliest(&mut self) -> Option<(EventKey, Head)> {
        let run = self.run.front().map(|e| ((e.at, e.seq), Head::Run));
        let mut best = self.heap.min_key().map(|k| (k, Head::Heap));
        for head in [run, self.arrival_key().map(|k| (k, Head::Arrival))] {
            if head.is_some_and(|(k, _)| best.is_none_or(|(b, _)| k < b)) {
                best = head;
            }
        }
        best
    }

    /// `(time, seq)` of the arrival lane's head. Drops the lane once every
    /// arrival has been delivered, so an exhausted lane costs the rest of
    /// the run one `None` test.
    ///
    /// # Panics
    /// If the lane was left waiting (see [`EventQueue::feed_arrivals`]).
    #[inline]
    fn arrival_key(&mut self) -> Option<EventKey> {
        let lane = self.arrivals.as_mut()?;
        let Some((at, _)) = lane.window.last() else {
            assert!(
                lane.unfilled == 0,
                "the arrival lane is fed by the queue's driver before each pop or peek"
            );
            self.arrivals = None;
            return None;
        };
        Some((*at, lane.next_seq))
    }

    /// Deliver the head `arrival_key` just reported.
    #[inline]
    fn pop_arrival(&mut self) -> Option<QueueEntry<E>> {
        let lane = self.arrivals.as_mut()?;
        let (at, event) = lane.window.pop()?;
        let seq = lane.next_seq;
        lane.next_seq += 1;
        Some(QueueEntry { at, seq, event })
    }

    /// Time of the last entry delivered from either lane (t = 0 before
    /// the first): the engine's clock, and the earliest a push may be.
    #[inline]
    pub(crate) fn delivered(&self) -> SimTime {
        self.delivered
    }

    /// Number of pending events across both lanes.
    pub fn len(&self) -> usize {
        self.stream_remaining() + self.fel_len()
    }

    /// True when no events are pending in either lane.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events still waiting in the arrival lane: those its producer has
    /// yet to hand over plus the window's.
    pub fn stream_remaining(&self) -> usize {
        self.arrivals.as_ref().map_or(0, ArrivalLane::remaining)
    }

    /// Events currently in the future-event list (the dynamic lane): the
    /// sorted run and the radix heap together.
    pub fn fel_len(&self) -> usize {
        self.run.len() + self.heap.len
    }

    /// High-water mark of the future-event list. With an arrival lane
    /// attached this is O(events in flight) — the two-lane design's win —
    /// and tests assert it stays far below the total event count.
    pub fn peak_fel_len(&self) -> usize {
        self.peak_fel
    }

    /// High-water mark of the arrival lane's window: the most arrivals
    /// the queue itself ever held at once, whatever the trace length.
    pub fn peak_arrival_window(&self) -> usize {
        self.peak_window
    }

    /// Total number of events ever scheduled on this queue (pushed, or
    /// reserved by an attached arrival lane).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

// Payload-opaque `Debug` (no `E: Debug` bound): summarizes both lanes.
impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("stream_remaining", &self.stream_remaining())
            .field("fel_len", &self.fel_len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

/// Which head [`EventQueue::pop`] takes.
#[derive(Clone, Copy)]
enum Head {
    Arrival,
    Run,
    Heap,
}

/// The future-event list's out-of-order entries: a monotone radix heap
/// over `at.ticks()` (see the module docs). Every pending key is at or
/// above `base`.
struct RadixHeap<E> {
    /// The key every bucket is measured against: the minimum the last
    /// refill moved down.
    base: u64,
    /// Entries whose key equals `base`, in push order.
    ready: VecDeque<QueueEntry<E>>,
    /// `far[i]`: entries whose key's highest bit differing from `base` is
    /// bit `i`, in push order. A drained bucket keeps its capacity.
    far: [Vec<QueueEntry<E>>; 64],
    /// `far_min[i]`: `(ticks, seq)` of `far[i]`'s earliest entry, while
    /// the bucket holds one.
    far_min: [(u64, u64); 64],
    /// Bit `i` set while `far[i]` is non-empty.
    occupied: u64,
    /// Entries held, `ready` and `far` together.
    len: usize,
}

impl<E> RadixHeap<E> {
    fn new() -> Self {
        RadixHeap {
            base: 0,
            ready: VecDeque::new(),
            far: std::array::from_fn(|_| Vec::new()),
            far_min: [(0, 0); 64],
            occupied: 0,
            len: 0,
        }
    }

    /// File `entry` under the current base: `ready`, or the far bucket
    /// its key's highest differing bit names, whose earliest entry it may
    /// become. The caller guarantees the key is not below the base.
    #[inline]
    fn place(&mut self, entry: QueueEntry<E>) {
        let key = (entry.at.ticks(), entry.seq);
        let diff = key.0 ^ self.base;
        if diff == 0 {
            self.ready.push_back(entry);
        } else {
            let i = 63 - diff.leading_zeros() as usize;
            // Entries reach a bucket in sequence order, so among equal
            // times the first to arrive stays the minimum.
            if self.occupied & (1 << i) == 0 || key.0 < self.far_min[i].0 {
                self.far_min[i] = key;
            }
            self.far[i].push(entry);
            self.occupied |= 1 << i;
        }
    }

    /// Add an entry whose key is at or above the base (the queue's push
    /// check guarantees it: the base was delivered, or lies below what
    /// was).
    #[inline]
    fn push(&mut self, entry: QueueEntry<E>) {
        debug_assert!(entry.at.ticks() >= self.base, "a key below the radix base");
        self.place(entry);
        self.len += 1;
    }

    /// `(time, seq)` of the earliest entry: the head of `ready`, or else
    /// the lowest non-empty far bucket's earliest, since every key in a
    /// bucket lies below every key in the next. Does not move the base.
    #[inline]
    fn min_key(&self) -> Option<EventKey> {
        let (ticks, seq) = match self.ready.front() {
            Some(head) => (self.base, head.seq),
            None if self.occupied != 0 => self.far_min[self.occupied.trailing_zeros() as usize],
            None => return None,
        };
        Some((SimTime::from_ticks(ticks), seq))
    }

    /// Remove the earliest entry, refilling `ready` first if it is empty.
    fn pop(&mut self) -> Option<QueueEntry<E>> {
        if self.ready.is_empty() {
            if self.occupied == 0 {
                return None;
            }
            let i = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << i);
            self.base = self.far_min[i].0;
            // Every key in bucket `i` now differs from the base below bit
            // `i`: each entry moves down, in order, and the bucket keeps
            // its allocation for the next time it fills.
            let mut bucket = std::mem::take(&mut self.far[i]);
            for entry in bucket.drain(..) {
                self.place(entry);
            }
            self.far[i] = bucket;
        }
        let entry = self.ready.pop_front()?;
        self.len -= 1;
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{tests::Fed, ARRIVAL_WINDOW};

    fn t(u: f64) -> SimTime {
        SimTime::from_units(u)
    }

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|e| e.event)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5.0), "c");
        q.push(t(1.0), "a");
        q.push(t(3.0), "b");
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7.0), i);
        }
        let expect: Vec<_> = (0..100).collect();
        assert_eq!(drain(&mut q), expect, "same-tick events must be FIFO");
    }

    #[test]
    fn interleaved_times_and_ties() {
        let mut q = EventQueue::new();
        q.push(t(2.0), "b1");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b2");
        q.push(t(0.5), "start");
        assert_eq!(drain(&mut q), vec!["start", "a", "b1", "b2"]);
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(t(9.0), ());
        q.push(t(4.0), ());
        assert_eq!(q.peek_time(), Some(t(4.0)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    /// Entries at one time pushed before a refill moves them down and
    /// after it — into the far bucket they share, then into the ready
    /// bucket — still leave in push order.
    #[test]
    fn equal_times_stay_fifo_across_refills() {
        let mut q = EventQueue::new();
        let at = SimTime::from_ticks(1000);
        q.push(at, 0);
        q.push(SimTime::from_ticks(5), 100);
        q.push(at, 1);
        assert_eq!(q.pop().map(|e| e.event), Some(100), "refills t=5");
        q.push(at, 2);
        assert_eq!(
            q.pop().map(|e| (e.at, e.event)),
            Some((at, 0)),
            "refills t=1000"
        );
        q.push(at, 3);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    /// Looking at the FEL does not commit it: an arrival earlier than the
    /// FEL's minimum may still schedule an entry below that minimum — in a
    /// lower bucket or in the minimum's own — which then leads.
    #[test]
    fn peek_does_not_move_the_base() {
        let late = SimTime::from_ticks((1 << 20) + 5);
        let mut q = EventQueue::new();
        q.push(late, "late");
        let arrivals = vec![(SimTime::from_ticks(10), "arrival"); 2];
        let mut q = Fed::attach(q, arrivals);
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(10)));
        assert_eq!(q.pop().map(|e| e.event), Some("arrival"));
        q.push(SimTime::from_ticks(20), "departure");
        q.push(SimTime::from_ticks((1 << 20) + 1), "sooner");
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(10)));
        assert_eq!(q.pop().map(|e| e.event), Some("arrival"));
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(20)));
        assert_eq!(drain(&mut q), vec!["departure", "sooner", "late"]);
    }

    /// An arrival tying with FEL entries is delivered between those pushed
    /// before its lane was attached and those pushed after, wherever they
    /// sit in the radix heap.
    #[test]
    fn lane_ties_split_the_fel_at_the_attach() {
        let at = SimTime::from_ticks(1000);
        let mut q = EventQueue::new();
        q.push(at, "before");
        let mut q = Fed::attach(q, vec![(at, "arrival")]);
        q.push(at, "after");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["before", "arrival", "after"]);
    }

    #[test]
    fn preload_merges_byte_identically_with_push_path() {
        let arrivals = vec![(t(1.0), 0u32), (t(2.0), 1), (t(2.0), 2), (t(8.0), 3)];
        // Oracle: everything pushed through the FEL.
        let mut oracle = EventQueue::new();
        for &(at, ev) in &arrivals {
            oracle.push(at, ev);
        }
        // Two-lane: arrivals on their lane, nothing in the FEL.
        let mut lanes = Fed::attach(EventQueue::new(), arrivals.clone());
        assert_eq!(lanes.fel_len(), 0);
        assert_eq!(lanes.len(), oracle.len());
        // Interleave identical dynamic pushes (same-tick collisions
        // with the lane's entries included) on both queues.
        let mut log = [Vec::new(), Vec::new()];
        for round in 0..3 {
            let (a, b) = (oracle.pop().unwrap(), lanes.pop().unwrap());
            log[0].push((a.at, a.seq, a.event));
            log[1].push((b.at, b.seq, b.event));
            oracle.push(a.at, 100 + round); // same-tick as the popped entry
            lanes.push(b.at, 100 + round);
        }
        log[0].extend(std::iter::from_fn(|| oracle.pop()).map(|e| (e.at, e.seq, e.event)));
        log[1].extend(std::iter::from_fn(|| lanes.pop()).map(|e| (e.at, e.seq, e.event)));
        assert_eq!(log[0], log[1], "lanes diverged");
    }

    #[test]
    fn preload_tracks_lengths_and_seq() {
        let mut q = EventQueue::new();
        q.push(t(5.0), 99u32);
        let mut q = Fed::attach(q, vec![(t(1.0), 1), (t(2.0), 2)]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.stream_remaining(), 2);
        assert_eq!(q.fel_len(), 1);
        assert_eq!(q.scheduled_total(), 3);
        // The lane's entries carry seqs 1 and 2 (after the push's 0)… but
        // deliver first because their *times* are earlier.
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.seq, e.event))).collect();
        assert_eq!(popped, vec![(1, 1), (2, 2), (0, 99)]);
        // A fully-drained lane allows a fresh one.
        q.attach_arrivals(1);
        q.feed_arrivals(|out, _| out.push((t(9.0), 7)));
        assert_eq!(q.pop().map(|e| (e.seq, e.event)), Some((3, 7)));
    }

    #[test]
    #[should_panic(expected = "still being delivered")]
    fn double_preload_rejected() {
        let mut q = EventQueue::<u32>::new();
        q.attach_arrivals(1);
        q.attach_arrivals(1);
    }

    /// The monotone contract holds for the arrival lane too: a lane
    /// attached after deliveries may not start before them.
    #[test]
    #[should_panic(
        expected = "sorted by time: entry 0 at t=1.000000u precedes the last event \
                               delivered before the lane was attached at t=5.000000u"
    )]
    fn a_lane_starting_before_the_delivered_time_panics() {
        let mut q = EventQueue::new();
        q.push(t(5.0), 0u32);
        q.pop();
        let mut q = Fed::attach(q, vec![(t(1.0), 1)]);
        q.pop();
    }

    #[test]
    fn peak_fel_len_counts_only_the_dynamic_lane() {
        let mut q = Fed::attach(
            EventQueue::new(),
            (0..100).map(|i| (t(i as f64), i)).collect(),
        );
        assert_eq!(q.peak_fel_len(), 0);
        q.push(t(50.0), 1000);
        q.push(t(60.0), 1001);
        q.pop();
        assert_eq!(q.peak_fel_len(), 2);
    }

    /// Pushes at or after the run's tail — equal times included — never
    /// enter the radix heap, before or after pops; one that is earlier
    /// does, and is still delivered in `(time, seq)` order. The FEL's
    /// length, its peak and `Debug` count the run and the heap together.
    #[test]
    fn in_order_pushes_skip_the_radix_heap() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.push(SimTime::from_ticks(10 * (i / 2)), i);
        }
        assert_eq!((q.run.len(), q.heap.len), (50, 0));
        assert_eq!(drain(&mut q)[..10], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // An emptied run takes the next push whatever its time.
        q.push(SimTime::from_ticks(1000), 100);
        q.push(SimTime::from_ticks(1000), 101);
        q.push(SimTime::from_ticks(500), 102);
        q.push(SimTime::from_ticks(2000), 103);
        // Tick 1000 now has entries in both structures.
        q.push(SimTime::from_ticks(1000), 104);
        assert_eq!((q.run.len(), q.heap.len), (3, 2));
        assert_eq!((q.fel_len(), q.len(), q.peak_fel_len()), (5, 5, 50));
        assert!(format!("{q:?}").contains("fel_len: 5"), "{q:?}");
        assert_eq!(drain(&mut q), vec![102, 100, 101, 104, 103]);
        for i in 0..60u64 {
            q.push(SimTime::from_ticks(2000 + i), i);
        }
        assert_eq!((q.run.len(), q.heap.len), (60, 0));
        assert_eq!(q.peak_fel_len(), 60);
    }

    /// The lane hands its entries over in order, numbered consecutively
    /// from the base reserved at attach — across refills — and never
    /// holds more than one window of them.
    #[test]
    fn lane_yields_in_order_with_reserved_seqs() {
        let n = 2 * ARRIVAL_WINDOW as u64 + 10;
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::MAX, i); // seqs 0..10 go to the FEL
        }
        let mut q = Fed::attach(q, (0..n).map(|i| (SimTime::from_ticks(i / 3), i)).collect());
        assert_eq!(q.scheduled_total(), 10 + n);
        assert_eq!(q.stream_remaining(), n as usize);
        for i in 0..n {
            assert_eq!(q.peek_time(), Some(SimTime::from_ticks(i / 3)));
            let e = q.pop().unwrap();
            assert_eq!((e.at.ticks(), e.seq, e.event), (i / 3, 10 + i, i));
            assert_eq!(q.stream_remaining(), (n - 1 - i) as usize);
        }
        assert_eq!(q.peak_arrival_window(), ARRIVAL_WINDOW);
        assert_eq!(q.fel_len(), 10);
    }

    /// The order check is an `assert!`: it holds in release builds, and
    /// also where the offending pair straddles two refills.
    #[test]
    #[should_panic(expected = "sorted by time: entry 1025 at")]
    fn unsorted_lane_panics() {
        let mut entries: Vec<_> = (0..2000u64).map(|i| (SimTime::from_ticks(i), ())).collect();
        entries[ARRIVAL_WINDOW + 1].0 = SimTime::from_ticks(5);
        let mut q = Fed::attach(EventQueue::new(), entries);
        while q.pop().is_some() {}
    }

    #[test]
    #[should_panic(expected = "sorted by time: entry 1024 at")]
    fn unsorted_lane_panics_across_a_refill() {
        let mut entries: Vec<_> = (0..2000u64).map(|i| (SimTime::from_ticks(i), ())).collect();
        entries[ARRIVAL_WINDOW].0 = SimTime::from_ticks(5);
        let mut q = Fed::attach(EventQueue::new(), entries);
        while q.pop().is_some() {}
    }

    /// The push-side check is an `assert!` too, whichever lane delivered
    /// the entry the push would precede.
    #[test]
    #[should_panic(
        expected = "EventQueue::push at t=3.000000u precedes the last delivered event \
                               at t=4.000000u"
    )]
    fn push_before_the_last_delivered_time_panics() {
        let mut q = Fed::attach(EventQueue::new(), vec![(t(4.0), 0u32)]);
        q.push(t(9.0), 1);
        assert_eq!(q.pop().map(|e| e.event), Some(0));
        q.push(t(4.0), 2);
        q.push(t(3.0), 3);
    }

    #[test]
    #[should_panic(expected = "fed by the queue's driver")]
    fn starved_lane_panics() {
        let mut q = EventQueue::<u8>::new();
        q.attach_arrivals(3);
        q.pop();
    }

    #[test]
    #[should_panic(expected = "handed over 0 entries")]
    fn short_producer_panics() {
        let mut q = EventQueue::<u8>::new();
        q.attach_arrivals(3);
        q.feed_arrivals(|_, _| {});
    }

    #[test]
    fn empty_lane_is_fine() {
        let mut q = EventQueue::<u8>::new();
        q.attach_arrivals(0);
        q.feed_arrivals(|_, _| panic!("fed an empty lane"));
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled_total(), 0);
        let mut q = Fed::attach(q, vec![(t(1.0), 1)]);
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
    }
}
