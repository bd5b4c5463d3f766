//! # risa-des — a deterministic discrete-event simulation engine
//!
//! The RISA paper evaluates schedulers on a discrete-event simulation of VM
//! arrivals and departures. This crate provides the event-queue substrate
//! that the [`risa-sim`] driver builds on. It is deliberately generic: time
//! is a fixed-point tick counter, events are an arbitrary payload type, and
//! the engine guarantees **deterministic replay** — two runs with the same
//! initial events and the same handler logic produce identical event orders,
//! because ties in time are broken by insertion sequence number.
//!
//! ## The two-lane queue
//!
//! [`EventQueue`] merges two lanes at `(time, seq)`:
//!
//! 1. one **arrival lane** for events known (or derivable) up front and
//!    already sorted — a trace's arrivals — read through a bounded window
//!    of ~1 000 converted entries. [`Simulation::attach_arrivals`]
//!    announces how many there are and the engine refills the window from
//!    [`World::fill_arrivals`]: a world that generates its workload one
//!    shard at a time serves the lane from the cursor it reads each
//!    arrival's payload from, so the queue holds a window of the
//!    schedule, never a copy of it; and
//! 2. a dynamic **future-event list** for events scheduled during the run —
//!    departures, in the DDC model.
//!
//! Attaching reserves the sequence numbers the arrivals would have been
//! pushed with, so delivery order is *byte-identical* to pushing
//! everything up front — but the FEL stays sized to the events in flight
//! (O(resident VMs) instead of O(all VMs)) and no arrival passes through
//! it. The merge is only correct over a sorted lane,
//! so the window's refill `assert!`s the source's order in every build.
//!
//! Time only moves forward: [`EventQueue::push`] refuses (an `assert!`,
//! in every build) an entry earlier than the last one delivered from
//! either lane. That `assert!` is the contract's one guard; handlers
//! schedule only through [`EventCtx::schedule_in`], a delay from now, and
//! the engine's clock *is* the queue's last-delivered time. That contract
//! is what lets the FEL be a monotone radix heap over the tick count
//! rather than a comparison heap: a push is a bit scan, and an entry
//! moves down at most 64 times before it is popped, FIFO among equal
//! times (`src/queue.rs` has the layout). A proptest (`tests/fel_props.rs`)
//! pins strict `(time, seq)` pop order under push/pop interleavings of
//! both lanes that keep the contract — times from same-tick bursts to
//! spans of 2⁴¹ ticks — against one linear-scan model (`src/arrivals.rs`
//! states the contract an arrival producer must uphold).
//!
//! ```
//! use risa_des::{Simulation, SimDuration, SimTime, World, EventCtx};
//!
//! struct Counter { fired: Vec<u64> }
//! impl World for Counter {
//!     type Event = u64;
//!     fn handle(&mut self, ctx: &mut EventCtx<'_, u64>, ev: u64) {
//!         self.fired.push(ev);
//!         if ev < 3 {
//!             ctx.schedule_in(SimDuration::from_units(1.0), ev + 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: vec![] });
//! sim.schedule(SimTime::ZERO, 0);
//! sim.run_to_completion();
//! assert_eq!(sim.world().fired, vec![0, 1, 2, 3]);
//! assert_eq!(sim.now(), SimTime::from_units(3.0));
//! ```
//!
//! [`risa-sim`]: ../risa_sim/index.html

#![warn(missing_docs)]

mod arrivals;
mod engine;
mod queue;
mod time;
mod trace;

pub use engine::{EventCtx, RunOutcome, Simulation, World};
pub use queue::{EventKey, EventQueue, QueueEntry};
pub use time::{SimDuration, SimTime, TICKS_PER_UNIT};
pub use trace::{EventTrace, TraceEntry};
