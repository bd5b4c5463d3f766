//! In-memory span recorder: spans are kept in a `Vec` and written out
//! once, when the probe ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the recorder; doubles as the span id in the file.
pub type SpanId = usize;

struct Span {
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// What an empty `Instant::now()` … `elapsed()` region reports.
    clock_pair_ns: f64,
}

impl Tracer {
    pub fn new() -> Self {
        const PAIRS: u32 = 10_000;
        let mut total = 0;
        for _ in 0..PAIRS {
            let started = Instant::now();
            total += started.elapsed().as_nanos();
        }
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            clock_pair_ns: total as f64 / f64::from(PAIRS),
        }
    }

    /// `raw_ns` summed over `calls` separately timed calls, less the
    /// clock reads it contains. Calls of a few hundred nanoseconds are
    /// timed one by one, where the clock pair is a tenth of the reading.
    pub fn less_clock(&self, raw_ns: u64, calls: u64) -> u64 {
        raw_ns.saturating_sub((self.clock_pair_ns * calls as f64) as u64)
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span now; finish it with [`Tracer::close`].
    pub fn open(&mut self, parent: Option<SpanId>, name: &'static str) -> SpanId {
        let now = self.now();
        self.add(parent, name, now, now, 0)
    }

    /// End span `id` now, having done `count` units of work. Returns the
    /// span's duration in nanoseconds.
    pub fn close(&mut self, id: SpanId, count: u64) -> u64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.count = count;
        now - span.start_ns
    }

    /// Record an already-measured span.
    pub fn add(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> SpanId {
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns,
            count,
        });
        self.spans.len() - 1
    }

    /// The trace file: one object per span, ids are positions in the list.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.count
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]\n");
        out
    }
}
