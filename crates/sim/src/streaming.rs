//! The arrival pipeline's queue side: the two [`risa_des::ArrivalSource`]s
//! a run attaches to the event queue's arrival lane.
//!
//! A *materialized* run builds the whole trace before the first event and
//! attaches [`TraceArrivals`], a cursor over that trace — the same
//! `Arc<Workload>` the world reads its VMs from, so the schedule is held
//! once. A *streaming* run is bounded-memory: it generates the trace
//! shard-by-shard *while* the engine simulates, with two cursors walking
//! the same [`ShardSource`] independently:
//!
//! * [`StreamingArrivals`] (this module) feeds the event queue's
//!   arrival lane through [`risa_des::ArrivalSource`]. It needs only the
//!   *arrival times*, so it uses the cheap
//!   [`ShardSource::shard_arrivals`] pass — one `Vec<f64>` shard buffer,
//!   refilled synchronously (re-deriving the arrivals RNG stream costs
//!   microseconds per shard).
//! * [`risa_workload::StreamingShards`] (owned by the world) yields the
//!   full [`risa_workload::VmRequest`]s in the same index order, double-
//!   buffered: while the engine drains shard *k*, shard *k+1* generates
//!   on the resident `rayon` pool. Peak buffered VMs ≤ 2 shards.
//!
//! The cursors never coordinate, yet always agree: arrivals are delivered
//! strictly in VM-index order (the stitched trace is sorted and the queue
//! assigns consecutive sequence numbers), so the world's cursor is always
//! exactly one VM behind the queue's. Both rebase shard-local times with
//! the identical running `offset += total` accumulation the materialized
//! prefix sum performs — the same `f64` additions in the same order —
//! which is why a streaming run is *byte-identical* to a materialized one
//! (pinned by `tests/hot_path_differential.rs`).

use crate::world::SimEvent;
use risa_des::{ArrivalSource, SimTime};
use risa_workload::{ShardSource, Workload};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// How the simulation obtains its arrival schedule (builder
/// [`crate::SimulationBuilder::arrivals`], `risa-cli run --arrivals`, or
/// the `RISA_ARRIVALS` environment variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalMode {
    /// Generate the whole trace before the run (the oracle path).
    Materialized,
    /// Feed arrivals shard-by-shard during the run: peak memory is
    /// O(resident VMs + 2 shards) instead of O(trace length). Every
    /// [`crate::WorkloadSpec`] streams — generators regenerate shards,
    /// pre-built traces are served in shard-sized slices, and CSV trace
    /// files are read chunk-by-chunk from disk.
    Streaming,
}

impl ArrivalMode {
    /// Every mode, for sweeps and differential tests.
    pub const ALL: [ArrivalMode; 2] = [ArrivalMode::Materialized, ArrivalMode::Streaming];

    /// Mode selected by the `RISA_ARRIVALS` environment variable
    /// (`materialized` | `streaming`), defaulting to
    /// [`ArrivalMode::Materialized`]. Panics on an unrecognized value
    /// rather than silently running the wrong pipeline.
    pub fn from_env() -> ArrivalMode {
        // risa-lint: allow(env_read) — selects the arrival pipeline; differential tests prove the choice never changes a report byte
        match std::env::var("RISA_ARRIVALS") {
            Err(_) => ArrivalMode::Materialized,
            Ok(v) => v.parse().unwrap_or_else(|e| panic!("RISA_ARRIVALS: {e}")),
        }
    }
}

impl FromStr for ArrivalMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "materialized" => Ok(ArrivalMode::Materialized),
            "streaming" => Ok(ArrivalMode::Streaming),
            other => Err(format!(
                "unknown arrival mode '{other}' (materialized|streaming)"
            )),
        }
    }
}

impl fmt::Display for ArrivalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArrivalMode::Materialized => "materialized",
            ArrivalMode::Streaming => "streaming",
        })
    }
}

/// How arrival `idx` of a trace maps onto the event timeline — the one
/// definition every arrival path shares.
pub(crate) fn arrival_event(idx: u32, arrival: f64) -> (SimTime, SimEvent) {
    (SimTime::from_units(arrival), SimEvent::Arrival(idx))
}

/// The arrival schedule of a trace that already exists: yields
/// `(arrival time, SimEvent::Arrival(idx))` in VM-index order straight
/// from the shared trace, converting a window's worth at a time.
#[derive(Debug)]
pub(crate) struct TraceArrivals {
    trace: Arc<Workload>,
    /// Index of the next VM arrival to yield.
    next: usize,
}

impl TraceArrivals {
    pub(crate) fn new(trace: Arc<Workload>) -> Self {
        TraceArrivals { trace, next: 0 }
    }
}

impl ArrivalSource<SimEvent> for TraceArrivals {
    fn peek_time(&mut self) -> Option<SimTime> {
        let vm = self.trace.vms().get(self.next)?;
        Some(SimTime::from_units(vm.arrival))
    }

    fn next(&mut self) -> Option<(SimTime, SimEvent)> {
        let vm = self.trace.vms().get(self.next)?;
        self.next += 1;
        Some(arrival_event(self.next as u32 - 1, vm.arrival))
    }

    fn remaining(&self) -> usize {
        self.trace.len() - self.next
    }

    fn fill(&mut self, out: &mut Vec<(SimTime, SimEvent)>, max: usize) {
        let rest = &self.trace.vms()[self.next..];
        let n = rest.len().min(max);
        out.extend(
            rest[..n]
                .iter()
                .zip(self.next as u32..)
                .map(|(vm, idx)| arrival_event(idx, vm.arrival)),
        );
        self.next += n;
    }
}

/// Lazy arrival schedule for the event queue's arrival lane: yields
/// `(arrival time, SimEvent::Arrival(idx))` in VM-index order, holding
/// one shard of arrival *times* at a time (see the [module docs](self)).
pub(crate) struct StreamingArrivals {
    source: Arc<dyn ShardSource>,
    /// Shard-local arrival times of the shard currently being drained.
    times: Vec<f64>,
    /// Cursor into `times`.
    pos: usize,
    /// Absolute time offset of the shard in `times`.
    shard_offset: f64,
    /// Running prefix sum: absolute offset of `next_shard`.
    offset: f64,
    /// Next shard to load.
    next_shard: u32,
    /// Global index of the next VM arrival to yield.
    next_idx: u32,
    total: u32,
}

impl StreamingArrivals {
    pub(crate) fn new(source: Arc<dyn ShardSource>) -> Self {
        let total = source.total_vms();
        StreamingArrivals {
            source,
            times: Vec::new(),
            pos: 0,
            shard_offset: 0.0,
            offset: 0.0,
            next_shard: 0,
            next_idx: 0,
            total,
        }
    }

    /// Make `times[pos]` valid, loading the next shard's arrival pass if
    /// the current one is drained. Returns `false` at end of trace.
    fn ensure(&mut self) -> bool {
        while self.pos == self.times.len() {
            if self.next_shard >= self.source.num_shards() {
                return false;
            }
            let (times, total) = self.source.shard_arrivals(self.next_shard);
            debug_assert_eq!(times.len(), self.source.shard_range(self.next_shard).len());
            // The same sequential accumulation as the materialized
            // prefix sum — bit-equal offsets, hence bit-equal times.
            self.shard_offset = self.offset;
            self.offset += total;
            self.times = times;
            self.pos = 0;
            self.next_shard += 1;
        }
        true
    }
}

impl ArrivalSource<SimEvent> for StreamingArrivals {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.ensure()
            .then(|| SimTime::from_units(self.shard_offset + self.times[self.pos]))
    }

    fn next(&mut self) -> Option<(SimTime, SimEvent)> {
        if !self.ensure() {
            return None;
        }
        let entry = arrival_event(self.next_idx, self.shard_offset + self.times[self.pos]);
        self.pos += 1;
        self.next_idx += 1;
        Some(entry)
    }

    fn remaining(&self) -> usize {
        (self.total - self.next_idx) as usize
    }

    /// One pass over what is left of the current shard (so a window may
    /// come up short at a shard's end; the next refill starts the next
    /// shard).
    fn fill(&mut self, out: &mut Vec<(SimTime, SimEvent)>, max: usize) {
        if !self.ensure() {
            return;
        }
        let rest = &self.times[self.pos..];
        let n = rest.len().min(max);
        let offset = self.shard_offset;
        out.extend(
            rest[..n]
                .iter()
                .zip(self.next_idx..)
                .map(|(&local, idx)| arrival_event(idx, offset + local)),
        );
        self.pos += n;
        self.next_idx += n as u32;
    }
}

impl fmt::Debug for StreamingArrivals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingArrivals")
            .field("label", &self.source.label())
            .field("next_idx", &self.next_idx)
            .field("total", &self.total)
            .field("next_shard", &self.next_shard)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!(
            "materialized".parse::<ArrivalMode>().unwrap(),
            ArrivalMode::Materialized
        );
        assert_eq!(
            "Streaming".parse::<ArrivalMode>().unwrap(),
            ArrivalMode::Streaming
        );
        assert!("shard".parse::<ArrivalMode>().is_err());
        for mode in ArrivalMode::ALL {
            assert_eq!(mode.to_string().parse::<ArrivalMode>().unwrap(), mode);
        }
    }

    /// Drain `source` through `fill`, `max` entries a call.
    fn drain(mut source: impl ArrivalSource<SimEvent>, max: usize) -> Vec<(SimTime, SimEvent)> {
        let mut got = Vec::new();
        while source.remaining() > 0 {
            let (before, left) = (got.len(), source.remaining());
            source.fill(&mut got, max);
            assert!((1..=max).contains(&(got.len() - before)));
            assert_eq!(source.remaining(), left - (got.len() - before));
        }
        source.fill(&mut got, max); // an exhausted source hands over nothing
        assert!(source.peek_time().is_none() && source.next().is_none());
        got
    }

    /// Both queue-side cursors must emit exactly the trace's schedule —
    /// VM `i` at its arrival time, bit-equal, in index order — through
    /// `next` and through `fill` at any window size.
    #[test]
    fn streaming_arrivals_match_materialized_schedule() {
        for spec in [
            WorkloadSpec::synthetic(9000, 11), // > 2 shards
            WorkloadSpec::azure(risa_workload::AzureSubset::N3000, 4),
        ] {
            let trace = Arc::new(spec.materialize());
            let expect: Vec<_> = trace
                .vms()
                .iter()
                .map(|vm| (SimTime::from_units(vm.arrival), SimEvent::Arrival(vm.id.0)))
                .collect();
            let streaming = || StreamingArrivals::new(spec.shard_source().expect("streams"));
            let held = || TraceArrivals::new(Arc::clone(&trace));
            assert_eq!(streaming().remaining(), expect.len());
            assert_eq!(held().remaining(), expect.len());

            let mut cursor = streaming();
            let by_next: Vec<_> = std::iter::from_fn(|| cursor.next()).collect();
            assert_eq!(by_next, expect);
            let mut cursor = held();
            let by_next: Vec<_> = std::iter::from_fn(|| cursor.next()).collect();
            assert_eq!(by_next, expect);
            for max in [1, 7, 1024, usize::MAX] {
                assert_eq!(drain(streaming(), max), expect, "streaming, max {max}");
                assert_eq!(drain(held(), max), expect, "held, max {max}");
            }
        }
    }

    #[test]
    fn peek_agrees_with_next() {
        let mut cursor =
            StreamingArrivals::new(WorkloadSpec::synthetic(50, 3).shard_source().unwrap());
        let mut seen = 0;
        while let Some(t) = cursor.peek_time() {
            let (at, event) = cursor.next().unwrap();
            assert_eq!(at, t);
            assert_eq!(event, SimEvent::Arrival(seen));
            seen += 1;
        }
        assert_eq!(seen, 50);
    }
}
