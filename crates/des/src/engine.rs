//! The simulation loop: pops events in `(time, seq)` order and dispatches
//! them to a user-supplied [`World`], which may schedule further events
//! through an [`EventCtx`].

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::trace::EventTrace;

/// The model being simulated. Implementors own all mutable simulation state
/// (the datacenter, the scheduler, the metrics) and react to events.
pub trait World {
    /// Event payload type delivered by the engine (`Debug` so that
    /// [`Simulation::enable_trace`] can render it).
    type Event: std::fmt::Debug;

    /// Handle one event at `ctx.now()`. Follow-up events are scheduled
    /// only through [`EventCtx::schedule_in`], a delay from now, so a
    /// handler cannot reach into the past; [`EventQueue::push`]'s
    /// `assert!` is the one guard of that contract, in every build.
    fn handle(&mut self, ctx: &mut EventCtx<'_, Self::Event>, event: Self::Event);

    /// Append the world's next arrivals to `out`, in order: at least one,
    /// at most `max`, times non-decreasing (checked by the queue in every
    /// build). Called only after [`Simulation::attach_arrivals`], once
    /// per window of the arrival lane and never for more arrivals than
    /// were announced there. The arrivals come out of state the world
    /// also reads while handling them — one workload cursor, one owner.
    fn fill_arrivals(&mut self, out: &mut Vec<(SimTime, Self::Event)>, max: usize) {
        let _ = (out, max);
    }
}

/// Handle given to [`World::handle`] for scheduling follow-up events.
pub struct EventCtx<'a, E> {
    queue: &'a mut EventQueue<E>,
}

impl<E> EventCtx<'_, E> {
    /// Current simulation time: that of the event being handled.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.queue.delivered()
    }

    /// Schedule `event` after a relative delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now() + delay, event);
    }
}

/// Result of driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Exhausted,
    /// The run hit the supplied horizon; later events remain queued.
    HorizonReached,
    /// The event budget was consumed.
    BudgetExhausted,
}

/// The discrete-event engine: a queue, whose last-delivered time is the
/// clock, and a [`World`].
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    dispatched: u64,
    trace: Option<EventTrace>,
}

impl<W: World> Simulation<W> {
    /// Wrap `world` with an empty queue at t = 0.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            dispatched: 0,
            trace: None,
        }
    }

    /// Keep a ring buffer of the last `capacity` dispatched events for
    /// post-mortem inspection (see [`Simulation::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        // Seed the trace's sequence counter with the events already
        // dispatched, so a trace enabled mid-run (on a resumed checkpoint)
        // numbers its entries exactly as the uninterrupted run would have.
        self.trace = Some(EventTrace::with_base(capacity, self.dispatched));
    }

    /// The event trace, when enabled.
    pub fn trace(&self) -> Option<&EventTrace> {
        self.trace.as_ref()
    }

    /// Schedule an event before (or during) the run.
    ///
    /// # Panics
    /// If `at` precedes [`Simulation::now`], the time of the last event
    /// dispatched: the queue only moves forward ([`EventQueue::push`]).
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        self.queue.push(at, event);
    }

    /// Load the queue's arrival lane (see
    /// [`EventQueue::attach_arrivals`]) with `count` arrivals the world
    /// produces: the engine refills the lane's window from
    /// [`World::fill_arrivals`] whenever it drains. Delivery order is
    /// exactly as if every arrival had been [`Simulation::schedule`]d
    /// here — but the future-event list never holds them, so it stays
    /// sized to the events the world schedules *during* the run, and the
    /// world is asked for them one bounded window ahead of the merge.
    ///
    /// # Panics
    /// If a previous arrival lane is still being delivered.
    pub fn attach_arrivals(&mut self, count: usize) {
        self.queue.attach_arrivals(count);
    }

    /// Shared view of the two-lane event queue (lengths, peak FEL size).
    pub fn queue(&self) -> &EventQueue<W::Event> {
        &self.queue
    }

    /// Current simulation clock: the time of the last event dispatched.
    pub fn now(&self) -> SimTime {
        self.queue.delivered()
    }

    /// Shared view of the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable view of the model (e.g. to extract metrics after a run).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consume the engine, returning the model.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Total events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Delivery time of the next event to dispatch, `None` once none is
    /// left: the queue's head, the arrival lane fed first as a dispatch
    /// feeds it.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.feed_lane();
        self.queue.peek_time()
    }

    /// Refill the arrival lane's window, when it has drained, from the
    /// world; must precede every pop and peek of the queue.
    #[inline]
    fn feed_lane(&mut self) {
        let world = &mut self.world;
        self.queue
            .feed_arrivals(|out, max| world.fill_arrivals(out, max));
    }

    /// Run until the queue drains.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX, u64::MAX)
    }

    /// Run while `peek_time <= horizon`, at most `max_events` dispatches
    /// (a budget of 1 is a single step).
    ///
    /// Events scheduled exactly at the horizon *are* dispatched; the first
    /// event strictly beyond it ends the run with
    /// [`RunOutcome::HorizonReached`] and stays queued.
    ///
    /// Outcome precedence: queue-state outcomes win over the budget. An
    /// empty queue reports [`RunOutcome::Exhausted`] and a
    /// horizon-crossing head event reports [`RunOutcome::HorizonReached`]
    /// even when `max_events` is 0 (or was consumed exactly);
    /// [`RunOutcome::BudgetExhausted`] means *undispatched work at or
    /// before the horizon remains*.
    pub fn run_until(&mut self, horizon: SimTime, max_events: u64) -> RunOutcome {
        let mut budget = max_events;
        loop {
            self.feed_lane();
            // One merge a dispatch: the pop is the peek.
            let due = (budget > 0).then(|| self.queue.pop_through(horizon));
            let Some(entry) = due.flatten() else {
                return match self.queue.peek_time() {
                    None => RunOutcome::Exhausted,
                    Some(t) if t > horizon => RunOutcome::HorizonReached,
                    Some(_) => RunOutcome::BudgetExhausted,
                };
            };
            self.dispatched += 1;
            if let Some(trace) = &mut self.trace {
                trace.record(entry.at, &entry.event);
            }
            let mut ctx = EventCtx {
                queue: &mut self.queue,
            };
            self.world.handle(&mut ctx, entry.event);
            budget -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An M/D/∞-style toy world: arrivals spawn departures; we count both.
    struct Toy {
        arrivals: u32,
        departures: u32,
        log: Vec<(f64, ToyEvent)>,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum ToyEvent {
        Arrive(u32),
        Depart(u32),
    }

    impl World for Toy {
        type Event = ToyEvent;
        fn handle(&mut self, ctx: &mut EventCtx<'_, ToyEvent>, ev: ToyEvent) {
            self.log.push((ctx.now().as_units(), ev));
            match ev {
                ToyEvent::Arrive(id) => {
                    self.arrivals += 1;
                    ctx.schedule_in(SimDuration::from_units(5.0), ToyEvent::Depart(id));
                }
                ToyEvent::Depart(_) => self.departures += 1,
            }
        }
    }

    fn toy() -> Toy {
        Toy {
            arrivals: 0,
            departures: 0,
            log: vec![],
        }
    }

    #[test]
    fn arrivals_spawn_departures() {
        let mut sim = Simulation::new(toy());
        for i in 0..4 {
            sim.schedule(SimTime::from_units(i as f64 * 2.0), ToyEvent::Arrive(i));
        }
        assert_eq!(sim.run_to_completion(), RunOutcome::Exhausted);
        let w = sim.world();
        assert_eq!(w.arrivals, 4);
        assert_eq!(w.departures, 4);
        // Last departure: arrival at t=6 departs at t=11.
        assert_eq!(sim.now(), SimTime::from_units(11.0));
        assert_eq!(sim.dispatched(), 8);
    }

    #[test]
    fn horizon_is_inclusive() {
        let mut sim = Simulation::new(toy());
        sim.schedule(SimTime::from_units(1.0), ToyEvent::Arrive(0));
        // Departure lands at t=6.0; horizon exactly 6.0 must include it.
        assert_eq!(
            sim.run_until(SimTime::from_units(6.0), u64::MAX),
            RunOutcome::Exhausted
        );
        assert_eq!(sim.world().departures, 1);

        let mut sim = Simulation::new(toy());
        sim.schedule(SimTime::from_units(1.0), ToyEvent::Arrive(0));
        assert_eq!(
            sim.run_until(SimTime::from_units(5.9), u64::MAX),
            RunOutcome::HorizonReached
        );
        assert_eq!(sim.world().departures, 0);
        assert_eq!(sim.queue().len(), 1, "the departure stays queued");
    }

    #[test]
    fn event_budget_is_respected() {
        let mut sim = Simulation::new(toy());
        for i in 0..10 {
            sim.schedule(SimTime::from_units(i as f64), ToyEvent::Arrive(i));
        }
        assert_eq!(sim.run_until(SimTime::MAX, 3), RunOutcome::BudgetExhausted);
        assert_eq!(sim.dispatched(), 3);
    }

    /// Regression: queue-state outcomes take precedence over the budget.
    /// An empty queue used to report `BudgetExhausted` when
    /// `max_events == 0` because the budget was checked before the peek.
    #[test]
    fn budget_outcome_only_when_dispatchable_work_remains() {
        // Empty queue + zero budget: nothing to dispatch ⇒ Exhausted.
        let mut sim = Simulation::new(toy());
        assert_eq!(sim.run_until(SimTime::MAX, 0), RunOutcome::Exhausted);

        // Draining on exactly the last budget unit ⇒ Exhausted, not
        // BudgetExhausted (the queue state is the more informative fact).
        let mut sim = Simulation::new(toy());
        sim.schedule(SimTime::from_units(1.0), ToyEvent::Arrive(0));
        assert_eq!(sim.run_until(SimTime::MAX, 2), RunOutcome::Exhausted);
        assert_eq!(sim.dispatched(), 2);

        // Head event beyond the horizon + zero budget ⇒ HorizonReached.
        let mut sim = Simulation::new(toy());
        sim.schedule(SimTime::from_units(9.0), ToyEvent::Arrive(0));
        assert_eq!(
            sim.run_until(SimTime::from_units(5.0), 0),
            RunOutcome::HorizonReached
        );

        // Pending work within the horizon + zero budget ⇒ BudgetExhausted.
        let mut sim = Simulation::new(toy());
        sim.schedule(SimTime::from_units(1.0), ToyEvent::Arrive(0));
        assert_eq!(sim.run_until(SimTime::MAX, 0), RunOutcome::BudgetExhausted);
        assert_eq!(sim.dispatched(), 0);
    }

    /// A toy world that also produces its arrivals — `total` of them, 1
    /// unit apart, at most 7 a refill — for the arrival lane.
    struct Feeding {
        toy: Toy,
        next: u32,
        total: u32,
    }

    impl World for Feeding {
        type Event = ToyEvent;
        fn handle(&mut self, ctx: &mut EventCtx<'_, ToyEvent>, ev: ToyEvent) {
            self.toy.handle(ctx, ev);
        }
        fn fill_arrivals(&mut self, out: &mut Vec<(SimTime, ToyEvent)>, max: usize) {
            let upto = self.total.min(self.next + max.min(7) as u32);
            out.extend(
                (self.next..upto).map(|i| (SimTime::from_units(i as f64), ToyEvent::Arrive(i))),
            );
            self.next = upto;
        }
    }

    /// The arrival lane is observationally identical to scheduling every
    /// arrival up front — same event order, same world state, through
    /// `run_until` and one event at a time — while the FEL holds only the
    /// dynamically scheduled departures and the world is asked for its
    /// arrivals a window at a time.
    #[test]
    fn preloaded_arrivals_match_scheduled_arrivals() {
        // Arrivals 1 unit apart, departures 5 units later ⇒ at most ~6
        // events are ever genuinely "in flight".
        let total = 50;
        let mut pushed = Simulation::new(toy());
        for i in 0..total {
            pushed.schedule(SimTime::from_units(i as f64), ToyEvent::Arrive(i));
        }
        pushed.run_to_completion();

        let preloaded = || {
            let mut sim = Simulation::new(Feeding {
                toy: toy(),
                next: 0,
                total,
            });
            sim.attach_arrivals(total as usize);
            assert_eq!(sim.queue().len(), 50, "the length counts the arrival lane");
            sim
        };
        let mut run = preloaded();
        assert_eq!(run.run_to_completion(), RunOutcome::Exhausted);
        let mut stepped = preloaded();
        while stepped.run_until(SimTime::MAX, 1) == RunOutcome::BudgetExhausted {}
        for fed in [&run, &stepped] {
            assert_eq!(pushed.world().log, fed.world().toy.log);
            assert_eq!(pushed.dispatched(), fed.dispatched());
            assert_eq!(fed.world().next, total);
            // Arrivals bypassed the FEL: it only ever held in-flight
            // departures, not the whole trace as on the push path.
            assert!(fed.queue().peak_fel_len() <= 6);
            assert_eq!(fed.queue().peak_arrival_window(), 7);
        }
        assert_eq!(pushed.queue().peak_fel_len(), 50);
    }

    #[test]
    fn trace_records_dispatched_events() {
        let mut sim = Simulation::new(toy());
        sim.enable_trace(4);
        for i in 0..3 {
            sim.schedule(SimTime::from_units(i as f64), ToyEvent::Arrive(i));
        }
        sim.run_to_completion();
        let trace = sim.trace().unwrap();
        // 3 arrivals + 3 departures dispatched; ring keeps the last 4.
        assert_eq!(trace.recorded(), 6);
        assert_eq!(trace.len(), 4);
        assert!(trace.dump().contains("Depart(2)"));
        assert!(trace.dump().contains("earlier events evicted"));
    }

    #[test]
    fn deterministic_replay_identical_logs() {
        let run = || {
            let mut sim = Simulation::new(toy());
            // Many same-tick arrivals stress the tie-break path.
            for i in 0..50 {
                sim.schedule(SimTime::from_units((i % 5) as f64), ToyEvent::Arrive(i));
            }
            sim.run_to_completion();
            sim.into_world().log
        };
        assert_eq!(run(), run());
    }
}
