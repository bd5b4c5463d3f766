//! The push-every-arrival reference run: the trace materialized up front
//! and every arrival pushed through the future-event list, as the engine
//! ran before it had an arrival lane. The lane off the on-demand cursor
//! must reproduce it byte for byte, report and event dispatch order.

use crate::builder::{DdcSimulation, SimulationBuilder};
use crate::world::{arrival_event, DdcWorld};
use crate::{Algorithm, FaultSpec, WorkloadSpec};
use risa_des::Simulation;
use risa_workload::{AzureSubset, ShardSource, SyntheticConfig, TraceShards};
use std::sync::Arc;

/// `recipe`'s run with its whole trace pushed through the FEL.
fn pushed(recipe: SimulationBuilder) -> DdcSimulation {
    let trace = recipe.workload.materialize();
    let arrivals: Vec<_> = (trace.vms().iter().zip(0..))
        .map(|(vm, idx)| arrival_event(idx, vm.arrival))
        .collect();
    let source: Arc<dyn ShardSource> = Arc::new(TraceShards::new(trace));
    let world = DdcWorld::new(recipe.cfg, recipe.algorithm, Arc::clone(&source));
    let mut sim = Simulation::new(recipe.primed(world, || source.span_units()));
    for (at, event) in arrivals {
        sim.schedule(at, event);
    }
    SimulationBuilder::seed_faults(&mut sim);
    DdcSimulation { sim, recipe }
}

/// `recipe` run to completion, pushed or off the lane: the report (wall
/// clock zeroed) and the event dispatch order. Only the pushed run holds
/// the trace in the FEL, and only the lane a window of it.
fn run(recipe: SimulationBuilder, push: bool) -> (String, String) {
    let mut sim = if push { pushed(recipe) } else { recipe.build() };
    sim.enable_trace(40_000);
    let mut report = sim.run();
    assert_eq!(sim.peak_arrival_window() == 0, push);
    assert_eq!(sim.peak_fel_len() >= report.total_vms as usize, push);
    report.sched_seconds = 0.0;
    let json = serde_json::to_string(&report).expect("report serializes");
    (json, sim.trace().expect("trace enabled").dump())
}

/// On a saturating synthetic trace and the largest Azure slice, both
/// algorithm families, faults off and on (the fault onsets ride the same
/// FEL; the span comes from an arrivals-only pass or the built trace).
#[test]
fn legacy_and_two_lane_paths_are_byte_identical() {
    let specs = [
        WorkloadSpec::Synthetic(SyntheticConfig::small(6000, 9)),
        WorkloadSpec::azure(AzureSubset::N7500, 2023),
    ];
    for spec in specs {
        for algo in [Algorithm::Risa, Algorithm::Nalb] {
            for faults in [None, Some(FaultSpec::canonical())] {
                let mut recipe = SimulationBuilder::new()
                    .algorithm(algo)
                    .workload(spec.clone());
                recipe.faults = faults;
                let lane = run(recipe.clone(), false);
                assert_eq!(lane.0.contains("\"faults\":{"), recipe.faults.is_some());
                // The engine before the lane also timed every scheduling call.
                let pushed = run(recipe.sched_timing_batch(1), true);
                assert!(pushed.0 == lane.0, "{spec:?}/{algo}: report diverged");
                assert!(
                    pushed.1 == lane.1,
                    "{spec:?}/{algo}: dispatch order diverged"
                );
            }
        }
    }
}

/// The churn scenario with the audit on.
#[test]
fn churn_is_byte_identical_across_arrival_paths() {
    let recipe = SimulationBuilder::new()
        .workload(WorkloadSpec::synthetic(6000, 9))
        .faults(FaultSpec::canonical())
        .audit(true);
    assert!(run(recipe.clone(), true) == run(recipe, false));
}

/// The pushed run holds the whole trace in the FEL: the contrast that
/// shows the lane's resident-bounded FEL is not vacuous.
#[test]
fn legacy_path_peaks_at_trace_length() {
    let mut sim = pushed(SimulationBuilder::new().workload(WorkloadSpec::synthetic(2000, 7)));
    sim.run();
    assert!(sim.peak_fel_len() >= 2000);
}
