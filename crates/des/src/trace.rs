//! Event tracing: an optional ring buffer of recently dispatched events,
//! for post-mortem debugging of simulation logic ("what happened right
//! before the drop spike?").

use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt;

/// One dispatched event, rendered eagerly so the recorder does not hold
/// onto the event type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Dispatch time.
    pub at: SimTime,
    /// Dispatch sequence (0-based count of dispatched events).
    pub seq: u64,
    /// `Debug` rendering of the event.
    pub rendered: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12}] #{:<8} {}", self.at, self.seq, self.rendered)
    }
}

/// A bounded ring buffer of trace entries.
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    capacity: usize,
    entries: VecDeque<TraceEntry>,
    recorded: u64,
}

impl EventTrace {
    /// Keep the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self::with_base(capacity, 0)
    }

    /// Keep the most recent `capacity` events, numbering the first entry
    /// `base` instead of 0 — used when tracing starts mid-run (e.g. on a
    /// run resumed from a checkpoint) so entry sequence numbers
    /// stay aligned with the global dispatch count.
    pub fn with_base(capacity: usize, base: u64) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        EventTrace {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            recorded: base,
        }
    }

    /// Record one dispatched event.
    pub fn record<E: fmt::Debug>(&mut self, at: SimTime, event: &E) {
        self.record_rendered(at, format!("{event:?}"));
    }

    /// Record an already-rendered event (used by the engine, whose event
    /// type is only known to be `Debug` at trace-enable time).
    pub fn record_rendered(&mut self, at: SimTime, rendered: String) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(TraceEntry {
            at,
            seq: self.recorded,
            rendered,
        });
        self.recorded += 1;
    }

    /// Retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render the retained tail as text.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.recorded > self.entries.len() as u64 {
            let _ = writeln!(
                out,
                "... {} earlier events evicted ...",
                self.recorded - self.entries.len() as u64
            );
        }
        for e in &self.entries {
            let _ = writeln!(out, "{e}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[derive(Debug)]
    #[expect(dead_code, reason = "fields exist to show up in Debug renderings")]
    enum Ev {
        Arrive(u32),
        Depart(u32),
    }

    #[test]
    fn records_in_order() {
        let mut t = EventTrace::new(10);
        assert!(t.is_empty());
        t.record(SimTime::from_units(1.0), &Ev::Arrive(0));
        t.record(SimTime::from_units(2.0), &Ev::Depart(0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.recorded(), 2);
        let seqs: Vec<u64> = t.entries().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert!(t.entries().next().unwrap().rendered.contains("Arrive(0)"));
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = EventTrace::new(3);
        for i in 0..10u32 {
            t.record(SimTime::from_units(i as f64), &Ev::Arrive(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.recorded(), 10);
        let seqs: Vec<u64> = t.entries().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert!(t.dump().starts_with("... 7 earlier events evicted ..."));
    }

    #[test]
    fn dump_renders_each_entry() {
        let mut t = EventTrace::new(5);
        t.record(SimTime::from_units(3.5), &Ev::Depart(7));
        let s = t.dump();
        assert!(s.contains("Depart(7)"));
        assert!(s.contains("3.500"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        EventTrace::new(0);
    }
}
