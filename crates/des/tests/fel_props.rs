//! Ordering properties of the event queue, both lanes.
//!
//! `EventQueue` must pop in strict `(time, seq)` order under any push/pop
//! interleaving that keeps its contract — no push before the last entry
//! delivered — including same-tick bursts, where only the sequence number
//! breaks ties, with or without an arrival lane attached, whatever its
//! driver hands over per refill, over time spans that walk the radix
//! heap through many refills, and over long in-order runs — which the
//! queue keeps in a sorted run beside its heap — broken by out-of-order
//! pushes and by same-tick bursts split between the two. All of it is
//! checked against one linear-scan `Vec` model that knows nothing of
//! lanes, windows, runs, buckets or bases. A push that breaks the contract is refused in every build.

use proptest::prelude::*;
use risa_des::{EventQueue, SimTime};

/// One scripted operation against the queue.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push an entry this many ticks after the last entry delivered (or
    /// after tick 0, before the first pop).
    Push(u64),
    /// Push this many entries at the time of the latest push (or of the
    /// last delivery, if that is later).
    Burst(u32),
    /// Push this many entries in time order, each this many ticks after
    /// the one before, the first at the time a `Burst` would use.
    Ascend(u32, u64),
    /// Push this many entries this many ticks after the last delivery:
    /// below the latest push, when that was later, so beside equal-time
    /// entries pushed while the time was still the latest.
    BurstAt(u64, u32),
    /// Pop the earliest entry, this many times.
    Pop(u32),
}

/// A sorted arrival lane: entry *i* fires at `ticks[i]`, and a refill
/// hands over at most `step` entries.
#[derive(Debug, Clone)]
struct Lane {
    ticks: Vec<u64>,
    step: usize,
}

/// The lane's producer. Its payloads are what the *model* says the
/// entries' sequence numbers are (`base + i`), so the pop logs also check
/// the reservation made at attach.
#[derive(Debug)]
struct StepSource {
    lane: Lane,
    base: u64,
    next: usize,
}

impl StepSource {
    fn fill(&mut self, out: &mut Vec<(SimTime, u64)>, max: usize) {
        let upto = self
            .lane
            .ticks
            .len()
            .min(self.next + max.min(self.lane.step));
        out.extend((self.next..upto).map(|i| {
            (
                SimTime::from_ticks(self.lane.ticks[i]),
                self.base + i as u64,
            )
        }));
        self.next = upto;
    }
}

/// A queue and its lane's producer: this file drives the queue the way an
/// engine drives one from its world.
struct Driven {
    queue: EventQueue<u64>,
    feeder: Option<StepSource>,
}

impl Driven {
    /// What a driver owes the lane before every pop and peek.
    fn feed(&mut self) {
        let feeder = &mut self.feeder;
        self.queue.feed_arrivals(|out, max| {
            let feeder = feeder.as_mut().expect("only a lane asks");
            feeder.fill(out, max)
        });
    }

    fn pop(&mut self) -> Option<Popped> {
        self.feed();
        self.queue.pop().map(|e| (e.at.ticks(), e.seq, e.event))
    }
}

/// A queue holding `pre` pushed entries (seqs `0..pre.len()`) and then,
/// if there is one, the lane (the next `lane.ticks.len()` seqs).
fn build(pre: &[u64], lane: Option<&Lane>) -> Driven {
    let mut queue = EventQueue::new();
    for &ticks in pre {
        let seq = queue.scheduled_total();
        assert_eq!(queue.push(SimTime::from_ticks(ticks), seq), seq);
    }
    let feeder = lane.map(|lane| StepSource {
        lane: lane.clone(),
        base: queue.scheduled_total(),
        next: 0,
    });
    if let Some(lane) = lane {
        queue.attach_arrivals(lane.ticks.len());
    }
    Driven { queue, feeder }
}

/// A popped entry: `(ticks, seq, payload)`.
type Popped = (u64, u64, u64);

/// Run one script against a real `EventQueue` and against the model (a
/// `Vec` of pending `(ticks, seq)` keys whose minimum is removed on every
/// pop); returns both pop logs, live pops first, then the drained tail.
/// Each entry's payload is its own sequence number, so the logs also check
/// that payloads follow their entries through the heap and the window.
fn replay(pre: &[u64], lane: Option<&Lane>, script: &[Op]) -> (Vec<Popped>, Vec<Popped>) {
    fn model_pop(model: &mut Vec<(u64, u64)>) -> Option<Popped> {
        let (i, &(ticks, seq)) = model.iter().enumerate().min_by_key(|&(_, &k)| k)?;
        model.swap_remove(i);
        Some((ticks, seq, seq))
    }
    let mut driven = build(pre, lane);
    let lane_ticks = lane.map_or(&[][..], |l| &l.ticks);
    let mut model: Vec<(u64, u64)> = pre.iter().chain(lane_ticks).copied().zip(0u64..).collect();
    let (mut popped, mut expected) = (Vec::new(), Vec::new());
    fn push(driven: &mut Driven, model: &mut Vec<(u64, u64)>, ticks: u64) {
        let seq = driven.queue.scheduled_total();
        assert_eq!(driven.queue.push(SimTime::from_ticks(ticks), seq), seq);
        model.push((ticks, seq));
    }
    // The last delivered time and the latest pushed one.
    let (mut delivered, mut pushed) = (0u64, 0u64);
    for op in script {
        match *op {
            Op::Push(offset) => {
                pushed = delivered + offset;
                push(&mut driven, &mut model, pushed);
            }
            Op::Burst(count) => {
                pushed = pushed.max(delivered);
                for _ in 0..count {
                    push(&mut driven, &mut model, pushed);
                }
            }
            Op::Ascend(count, gap) => {
                pushed = pushed.max(delivered);
                for i in 0..count {
                    pushed += if i == 0 { 0 } else { gap };
                    push(&mut driven, &mut model, pushed);
                }
            }
            Op::BurstAt(offset, count) => {
                pushed = delivered + offset;
                for _ in 0..count {
                    push(&mut driven, &mut model, pushed);
                }
            }
            Op::Pop(times) => {
                for _ in 0..times {
                    // Exercise peek_time too: it must agree with the pop.
                    driven.feed();
                    let peeked = driven.queue.peek_time();
                    let entry = driven.pop();
                    assert_eq!(peeked.map(SimTime::ticks), entry.map(|e| e.0));
                    if let Some((ticks, _, _)) = entry {
                        delivered = ticks;
                    }
                    popped.extend(entry);
                    expected.extend(model_pop(&mut model));
                }
            }
        }
        assert_eq!(driven.queue.len(), model.len());
    }
    // Drain the remainder: the tail order matters as much as the live one.
    popped.extend(std::iter::from_fn(|| driven.pop()));
    expected.extend(std::iter::from_fn(|| model_pop(&mut model)));
    // Whatever the lane's length, the queue held one window of it at most.
    let bound = lane.map_or(0, |l| l.step.min(1024));
    assert!(driven.queue.peak_arrival_window() <= bound);
    (popped, expected)
}

/// Random scripts biased ~3:1 toward pushes, each landing up to
/// `max_offset` ticks after the last delivery: a small range keeps
/// same-tick collisions common.
fn ops(max_offset: u64) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u32..4, 0u64..max_offset).prop_map(|(sel, offset)| {
            if sel < 3 {
                Op::Push(offset)
            } else {
                Op::Pop(1)
            }
        }),
        0..400,
    )
}

/// Scripts whose pushes land anywhere from 0 to 2⁴¹ ticks after the last
/// delivery, the magnitude drawn first so every scale is common; bursts
/// repeat the latest push's time, before and after the pops that refill
/// its bucket, and pops come in short runs.
fn wide_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u32..8, 0u32..42, any::<u64>(), 1u32..6).prop_map(|(sel, bits, draw, n)| match sel {
            0..=3 => Op::Push(draw & ((1u64 << bits) - 1)),
            4 => Op::Burst(n),
            _ => Op::Pop(n),
        }),
        0..400,
    )
}

/// Scripts of long in-order runs (up to 60 pushes, 0–3 ticks apart) broken
/// by single pushes and same-tick bursts a few ticks after the last
/// delivery — mostly below the latest push, so at times the in-order run
/// already holds — and by runs of pops.
fn run_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u32..8, 0u64..24, 1u32..60, 0u64..4).prop_map(|(sel, offset, n, gap)| match sel {
            0 | 1 => Op::Ascend(n, gap),
            2 => Op::Push(offset),
            3 => Op::BurstAt(offset, n % 5 + 1),
            4 => Op::Burst(n % 5 + 1),
            _ => Op::Pop(n),
        }),
        0..120,
    )
}

/// A lane of up to 2 600 arrivals 0–2 ticks apart (so ties within the lane
/// are common, and a full window refills twice), handed over 1, 2 or a
/// window's worth a call.
fn lane() -> impl Strategy<Value = Lane> {
    (
        prop::collection::vec(0u64..3, 0..2600),
        prop_oneof![Just(1usize), Just(2), Just(usize::MAX)],
    )
        .prop_map(|(gaps, step)| {
            let ticks = gaps
                .iter()
                .scan(0, |t, gap| {
                    *t += gap;
                    Some(*t)
                })
                .collect();
            Lane { ticks, step }
        })
}

/// Scripts for a queue with a lane: pops come in runs long enough to walk
/// through refills, pushes land on or just past the tick the lane is
/// crossing (ties between the lanes, on both sides of a refill).
fn lane_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u32..7, 0u64..16, 1u32..300).prop_map(|(sel, offset, run)| match sel {
            0..=3 => Op::Push(offset),
            _ => Op::Pop(run),
        }),
        0..60,
    )
}

proptest! {
    /// Strict `(time, seq)` pop order for any interleaving, times spread
    /// wide enough that most pops are decided by time.
    #[test]
    fn queue_pops_in_time_seq_order(script in ops(4096)) {
        let (popped, expected) = replay(&[], None, &script);
        prop_assert_eq!(popped, expected);
    }

    /// Same-tick-burst-heavy scripts (8 distinct offsets): ties must pop
    /// in push order.
    #[test]
    fn queue_same_tick_bursts_are_fifo(script in ops(8)) {
        let (popped, expected) = replay(&[], None, &script);
        prop_assert_eq!(popped, expected);
    }

    /// Times spanning 2⁴¹ ticks walk the radix heap through many refills
    /// and every bucket, with equal-time bursts pushed on both sides of
    /// the refill that moves their time down; on some, a lane merges in,
    /// tying with entries pushed before it was attached and after.
    #[test]
    fn wide_times_pop_in_time_seq_order_across_refills(
        pre in prop::collection::vec(0u64..64, 0..4),
        lane in prop_oneof![Just(None), lane().prop_map(Some)],
        script in wide_ops(),
    ) {
        let (popped, expected) = replay(&pre, lane.as_ref(), &script);
        prop_assert_eq!(popped, expected);
    }

    /// In-order runs mixed with out-of-order pushes and same-tick bursts
    /// that land partly in the sorted run and partly in the heap, with
    /// and without a lane merging in: strict `(time, seq)` order.
    #[test]
    fn in_order_runs_mixed_with_out_of_order_pushes(
        pre in prop::collection::vec(0u64..64, 0..4),
        lane in prop_oneof![Just(None), lane().prop_map(Some)],
        script in run_ops(),
    ) {
        let (popped, expected) = replay(&pre, lane.as_ref(), &script);
        prop_assert_eq!(popped, expected);
    }

    /// Two-lane delivery: a sorted prefix on the arrival lane, the rest
    /// pushed, is byte-identical to pushing everything.
    #[test]
    fn preload_equals_push(
        sorted in prop::collection::vec(0u64..500, 0..100),
        pushed in prop::collection::vec(0u64..500, 0..100),
    ) {
        let mut sorted = sorted;
        sorted.sort_unstable();
        let script: Vec<Op> = pushed.iter().map(|&t| Op::Push(t)).collect();
        let lane = Lane { ticks: sorted.clone(), step: usize::MAX };
        let (lanes, model) = replay(&[], Some(&lane), &script);
        let (pushing, _) = replay(&sorted, None, &script);
        prop_assert_eq!(&lanes, &model);
        prop_assert_eq!(lanes, pushing);
    }

    /// The windowed lane against the same model: any refill size, a
    /// non-zero sequence base, and pushes tying with the lane across
    /// refills.
    #[test]
    fn windowed_lane_pops_in_time_seq_order(
        pre in prop::collection::vec(0u64..2600, 0..4),
        lane in lane(),
        script in lane_ops(),
    ) {
        let (popped, expected) = replay(&pre, Some(&lane), &script);
        prop_assert_eq!(popped, expected);
    }
}

/// The lane's order check is not a `debug_assert!`: CI runs this file with
/// `--release` too. Whatever the refill size, an out-of-order producer
/// stops the run at the refill that meets the offending entry.
#[test]
fn unsorted_source_panics_in_every_build() {
    let mut ticks: Vec<u64> = (0..1500).collect();
    ticks[1200] = 7;
    for step in [1, 2, usize::MAX] {
        let lane = Lane {
            ticks: ticks.clone(),
            step,
        };
        let drained = std::panic::catch_unwind(|| {
            let mut driven = build(&[], Some(&lane));
            std::iter::from_fn(|| driven.pop()).count()
        });
        let message = *drained
            .expect_err("an unsorted lane must not drain")
            .downcast::<String>()
            .expect("assert! panics with a String");
        assert!(
            message.contains("sorted by time: entry 1200 at"),
            "step {step}: {message}"
        );
    }
}

/// The push-side half of the contract is not a `debug_assert!` either: a
/// push before the last delivered time — delivered from the future-event
/// list, or from the lane — is refused in every build.
#[test]
fn push_before_the_last_delivery_panics_in_every_build() {
    let lane = Lane {
        ticks: vec![100],
        step: usize::MAX,
    };
    for (pre, delivered) in [(&[50u64][..], 50u64), (&[][..], 100)] {
        let refused = std::panic::catch_unwind(|| {
            let mut driven = build(pre, Some(&lane));
            driven.pop();
            driven.queue.push(SimTime::from_ticks(delivered), 0);
            driven.queue.push(SimTime::from_ticks(delivered - 1), 0);
        });
        let message = *refused
            .expect_err("a push before the last delivery must be refused")
            .downcast::<String>()
            .expect("assert! panics with a String");
        let expected = format!(
            "push at {:?} precedes the last delivered event at {:?}",
            SimTime::from_ticks(delivered - 1),
            SimTime::from_ticks(delivered)
        );
        assert!(message.contains(&expected), "{message}");
    }
}
