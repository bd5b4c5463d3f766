//! How a run's arrivals reach the engine: one pipeline, and the one
//! choice left in it.
//!
//! Every run (the `legacy_arrival_path` oracle aside) serves its workload
//! through a single [`risa_workload::StreamingShards`] cursor the world
//! owns, over the [`risa_workload::ShardSource`] its
//! [`crate::WorkloadSpec`] names: the cursor generates one shard at a
//! time, inline, once; the event queue's arrival lane fills its window
//! from the resident shard's arrival column
//! ([`risa_des::World::fill_arrivals`]) and the world reads the same
//! shard's VM when `Arrival(idx)` is dispatched. A generator spec is
//! therefore never materialized, and its arrival times are drawn once; a
//! trace that already exists is served through
//! [`risa_workload::TraceShards`] on the same cursor. What
//! [`ArrivalMode`] still selects is how a trace *file* becomes a source.
//!
//! The lane and the world never coordinate, yet always agree: arrivals
//! are delivered strictly in VM-index order (the stitched trace is sorted
//! and the queue assigns consecutive sequence numbers), so the world's
//! reader trails the lane's by at most the lane's window. The cursor
//! rebases shard-local times with the identical running `offset += total`
//! accumulation the materialized prefix sum performs — the same `f64`
//! additions in the same order — which is why an on-demand run is
//! *byte-identical* to one over the materialized trace (pinned by
//! `tests/hot_path_differential.rs` against the legacy path, which
//! materializes and pushes every arrival through the FEL).

use crate::world::SimEvent;
use risa_des::SimTime;
use std::fmt;
use std::str::FromStr;

/// How a CSV trace *file* is read (builder
/// [`crate::SimulationBuilder::arrivals`], `risa-cli run --arrivals`): a
/// resource trade, never a behaviour change — reports and event order are
/// byte-identical. Generated workloads and traces already in memory do
/// not consult it: generators always generate on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrivalMode {
    /// Load and validate the whole file before the run (one parse per
    /// row; the trace is resident for the run). The default.
    Materialized,
    /// Validate the file in one scan before the run, then re-read it a
    /// shard at a time during it: peak memory is O(resident VMs + one
    /// shard) instead of O(trace length), for a second parse of each row.
    Streaming,
}

impl ArrivalMode {
    /// Every mode, for sweeps and differential tests.
    pub const ALL: [ArrivalMode; 2] = [ArrivalMode::Materialized, ArrivalMode::Streaming];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use crate::world::DdcWorld;
    use crate::SimConfig;
    use risa_des::World as _;
    use risa_sched::Algorithm;

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

    /// What the world hands the arrival lane must be exactly the
    /// materialized trace's schedule — VM `i` at its arrival time,
    /// bit-equal, in index order — at any window size, with a window
    /// stopping short at a shard's end and never coming back empty before
    /// the trace does.
    #[test]
    fn streaming_arrivals_match_materialized_schedule() {
        for spec in [
            WorkloadSpec::synthetic(9000, 11), // > 2 shards
            WorkloadSpec::azure(risa_workload::AzureSubset::N3000, 4),
        ] {
            let expect: Vec<_> = spec
                .materialize()
                .vms()
                .iter()
                .map(|vm| (SimTime::from_units(vm.arrival), SimEvent::Arrival(vm.id.0)))
                .collect();
            for max in [1, 7, 1024, usize::MAX] {
                let source = spec
                    .shard_source()
                    .expect("generators have no file to fail");
                let mut world = DdcWorld::new(SimConfig::paper(), Algorithm::Risa, source);
                let mut got = Vec::new();
                while got.len() < expect.len() {
                    let before = got.len();
                    world.fill_arrivals(&mut got, max);
                    assert!((1..=max).contains(&(got.len() - before)), "max {max}");
                }
                world.fill_arrivals(&mut got, max); // an exhausted cursor hands over nothing
                assert_eq!(got, expect, "max {max}");
            }
        }
    }
}
