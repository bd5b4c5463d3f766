//! Ordering properties of the event queue's future-event list.
//!
//! `EventQueue` must pop in strict `(time, seq)` order under arbitrary
//! push/pop interleavings — including same-tick bursts, where only the
//! sequence number breaks ties — checked against a linear-scan `Vec` model,
//! and must deliver a preloaded sorted stream byte-identically to pushing
//! the same events.

use proptest::prelude::*;
use risa_des::{EventQueue, SimTime};

/// One scripted operation against the queue.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push an entry at this many ticks.
    Push(u64),
    /// Pop the earliest entry.
    Pop,
}

/// Random scripts biased ~3:1 toward pushes, with times drawn from a small
/// range so same-tick collisions are common.
fn ops(max_ticks: u64) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u32..4, 0u64..max_ticks).prop_map(|(sel, t)| if sel < 3 { Op::Push(t) } else { Op::Pop }),
        0..400,
    )
}

/// A popped entry: `(ticks, seq, payload)`.
type Popped = (u64, u64, u64);

/// Run one script against a real `EventQueue` and against the model (a
/// `Vec` of pending `(ticks, seq)` keys whose minimum is removed on every
/// pop); returns both pop logs, live pops first, then the drained tail.
/// Each entry's payload is its own sequence number, so the logs also check
/// that payloads follow their entries through the heap.
fn replay(script: &[Op]) -> (Vec<Popped>, Vec<Popped>) {
    fn model_pop(model: &mut Vec<(u64, u64)>) -> Option<Popped> {
        let (i, &(ticks, seq)) = model.iter().enumerate().min_by_key(|&(_, &k)| k)?;
        model.swap_remove(i);
        Some((ticks, seq, seq))
    }
    let mut queue = EventQueue::new();
    let mut model = Vec::new();
    let (mut popped, mut expected) = (Vec::new(), Vec::new());
    for op in script {
        match *op {
            Op::Push(ticks) => {
                let seq = queue.scheduled_total();
                assert_eq!(queue.push(SimTime::from_ticks(ticks), seq), seq);
                model.push((ticks, seq));
            }
            Op::Pop => {
                // Exercise peek_time too: it must agree with the pop.
                let peeked = queue.peek_time();
                let entry = queue.pop();
                assert_eq!(peeked, entry.as_ref().map(|e| e.at));
                popped.extend(entry.map(|e| (e.at.ticks(), e.seq, e.event)));
                expected.extend(model_pop(&mut model));
            }
        }
    }
    // Drain the remainder: the tail order matters as much as the live one.
    popped.extend(std::iter::from_fn(|| queue.pop()).map(|e| (e.at.ticks(), e.seq, e.event)));
    expected.extend(std::iter::from_fn(|| model_pop(&mut model)));
    (popped, expected)
}

proptest! {
    /// Strict `(time, seq)` pop order for any interleaving, times spread
    /// wide enough that most pops are decided by time.
    #[test]
    fn queue_pops_in_time_seq_order(script in ops(4096)) {
        let (popped, expected) = replay(&script);
        prop_assert_eq!(popped, expected);
    }

    /// Same-tick-burst-heavy scripts (8 distinct times): ties must pop in
    /// push order.
    #[test]
    fn queue_same_tick_bursts_are_fifo(script in ops(8)) {
        let (popped, expected) = replay(&script);
        prop_assert_eq!(popped, expected);
    }

    /// Two-lane delivery: preloading a sorted prefix then pushing the rest
    /// is byte-identical to pushing everything.
    #[test]
    fn preload_equals_push(
        sorted in prop::collection::vec(0u64..500, 0..100),
        pushed in prop::collection::vec(0u64..500, 0..100),
    ) {
        let mut sorted = sorted;
        sorted.sort_unstable();
        let mut preloading = EventQueue::new();
        preloading.preload_sorted(
            sorted.iter().map(|&t| (SimTime::from_ticks(t), t as u32)).collect(),
        );
        let mut pushing = EventQueue::new();
        for &t in &sorted {
            pushing.push(SimTime::from_ticks(t), t as u32);
        }
        for q in [&mut preloading, &mut pushing] {
            for &t in &pushed {
                q.push(SimTime::from_ticks(t), t as u32);
            }
        }
        let drain = |q: &mut EventQueue<u32>| -> Vec<(u64, u64, u32)> {
            std::iter::from_fn(|| q.pop().map(|e| (e.at.ticks(), e.seq, e.event))).collect()
        };
        prop_assert_eq!(drain(&mut preloading), drain(&mut pushing));
    }
}
