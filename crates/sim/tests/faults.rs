//! End-to-end fault-injection battery: churn actually happens, the
//! evacuation pipeline balances, runs stay deterministic and drained
//! runs end pristine (audited).

use risa_sim::{Algorithm, DdcSimulation, FaultSpec, RunReport, SimulationBuilder, WorkloadSpec};
use risa_topology::{Cluster, RackId, ResourceKind, TopologyConfig};
use std::collections::{BTreeMap, BTreeSet};

fn churn_run(algo: Algorithm, spec: FaultSpec) -> RunReport {
    let mut r = SimulationBuilder::new()
        .algorithm(algo)
        .workload(WorkloadSpec::synthetic(3000, 11))
        .faults(spec)
        .audit(true)
        .build()
        .run();
    r.sched_seconds = 0.0;
    r
}

#[test]
fn canonical_scenario_produces_churn_and_balances() {
    let r = churn_run(Algorithm::Risa, FaultSpec::canonical());
    let f = r.faults.as_ref().expect("faults attached");
    assert!(f.rack_failures > 0, "canonical scenario fails racks: {f:?}");
    assert_eq!(f.rack_repairs, f.rack_failures, "every failure repaired");
    assert_eq!(f.trunk_link_ups, f.trunk_link_downs);
    assert_eq!(f.xcvr_ups, f.xcvr_downs);
    // The evacuation pipeline balances on a drained run.
    assert_eq!(
        f.evacuated,
        f.evac_replaced + f.dropped_churn + f.evac_departed
    );
    assert!(f.evacuated > 0, "rack failures displace residents: {f:?}");
    // Evacuees re-placed through the audited `admit` a first arrival uses.
    assert!(f.evac_replaced > 0, "some evacuees are re-placed: {f:?}");
    assert!(f.mean_recovery_time > 0.0);
    assert!(f.mean_stranded_units > 0.0, "downtime strands capacity");
    // The main drop counters are churn-free: evacuation drops are
    // accounted separately.
    assert_eq!(r.admitted + r.dropped, r.total_vms);
}

#[test]
fn fault_runs_are_deterministic() {
    let a = churn_run(Algorithm::Nalb, FaultSpec::canonical());
    let b = churn_run(Algorithm::Nalb, FaultSpec::canonical());
    assert_eq!(a, b);
}

#[test]
fn scenario_seed_changes_the_churn() {
    let a = churn_run(Algorithm::Risa, FaultSpec::canonical_seeded(1));
    let b = churn_run(Algorithm::Risa, FaultSpec::canonical_seeded(2));
    let (fa, fb) = (a.faults.unwrap(), b.faults.unwrap());
    assert_ne!(
        (fa.rack_failures, fa.mean_recovery_time, fa.evacuated),
        (fb.rack_failures, fb.mean_recovery_time, fb.evacuated)
    );
}

/// Migration delays can outlive a VM's remaining lifetime; those VMs
/// depart in transit and the pipeline still balances. A huge per-unit
/// delay makes *every* evacuation lose the race with its departure.
#[test]
fn in_transit_departures_cancel_migrations() {
    let spec = FaultSpec {
        migration_delay_per_unit: 1e7,
        ..FaultSpec::canonical()
    };
    let r = churn_run(Algorithm::Risa, spec);
    let f = r.faults.unwrap();
    assert!(f.evacuated > 0);
    assert_eq!(f.evac_replaced, 0, "nothing outruns its departure: {f:?}");
    assert_eq!(f.evacuated, f.evac_departed + f.dropped_churn);
}

/// A rates-zeroed spec attaches the machinery but never fires: the run
/// matches faults-off numbers, modulo the (all-zero) report block.
#[test]
fn zero_rate_scenario_is_quiet() {
    let spec = FaultSpec {
        rack_failures_per_span: 0.0,
        trunk_downs_per_span: 0.0,
        xcvr_downs_per_span: 0.0,
        ..FaultSpec::canonical()
    };
    let quiet = churn_run(Algorithm::Risa, spec);
    let f = quiet.faults.as_ref().unwrap();
    assert_eq!(
        (
            f.rack_failures,
            f.trunk_link_downs,
            f.xcvr_downs,
            f.evacuated
        ),
        (0, 0, 0, 0)
    );
    let mut off = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::synthetic(3000, 11))
        .audit(true)
        .build()
        .run();
    off.sched_seconds = 0.0;
    let mut quiet_stripped = quiet.clone();
    quiet_stripped.faults = None;
    assert_eq!(quiet_stripped, off);
}

/// What [`walk_evacuations`] saw.
#[derive(Debug, Default)]
struct EvacuationLog {
    rack_failures: u32,
    victims: u32,
    /// Victims with only their CPU grant / only their RAM grant (of the
    /// two) in the failed rack.
    cpu_side_only: u32,
    ram_side_only: u32,
    /// Re-placed VMs released by their original departure event.
    replacements_released: u32,
    /// Re-placed VMs evacuated again when their new rack failed.
    evacuated_again: u32,
}

/// Run `build()` once for its dispatch log, then again in lockstep with
/// that log, pausing around every rack failure: the VMs it evacuates
/// must be exactly the residents holding a grant in the failed rack, each
/// migrated once, same-instant migrations of one failure in ascending
/// index order (the order they were scheduled in). Also follows every
/// re-placed VM to its release — by its original departure, or by
/// another evacuation.
fn walk_evacuations(n: u32, build: impl Fn() -> DdcSimulation) -> EvacuationLog {
    let mut reference = build();
    reference.enable_trace(4 * n as usize);
    reference.run();
    let trace = reference.trace().expect("trace enabled");
    assert_eq!(trace.recorded(), trace.len() as u64, "nothing evicted");
    let log: Vec<(f64, &str)> = trace
        .entries()
        .map(|e| (e.at.as_units(), e.rendered.as_str()))
        .collect();
    let arg = |event: &str, kind: &str| -> Option<u32> {
        let inner = event.strip_prefix(kind)?.strip_prefix('(')?;
        inner.strip_suffix(')')?.parse().ok()
    };

    let cluster = Cluster::new(TopologyConfig::paper());
    let rack_of = |sim: &DdcSimulation, vm: u32, kind: ResourceKind| {
        let a = sim.world().assignment(vm).expect("resident");
        cluster.rack_of(a.placement.grant(kind).box_id)
    };
    let mut sim = build();
    let mut seen = EvacuationLog::default();
    let mut replaced: BTreeSet<u32> = BTreeSet::new();
    // Victim -> the log index of the failure that evacuated it, until its
    // `Migrate`; and the last `Migrate` seen, as (log index, at, vm, failure).
    let mut in_transit: BTreeMap<u32, usize> = BTreeMap::new();
    let mut last_migrate = None;
    for (k, &(at, event)) in log.iter().enumerate() {
        if let Some(rack) = arg(event, "RackFail") {
            let rack = RackId(rack as u16);
            // Pause right before the failure; it must be alone at its
            // instant for the before/after comparison to mean anything.
            assert!(log[k - 1].0 < at && log.get(k + 1).is_none_or(|next| at < next.0));
            sim.run_until(log[k - 1].0);
            assert_eq!(sim.events_dispatched(), k as u64);
            let residents: Vec<u32> = (0..n)
                .filter(|&vm| sim.world().assignment(vm).is_some())
                .collect();
            let expected: Vec<u32> = residents
                .iter()
                .copied()
                .filter(|&vm| {
                    let a = sim.world().assignment(vm).expect("resident");
                    a.placement.racks(&cluster).contains(&rack)
                })
                .collect();
            for &vm in &expected {
                let cpu = rack_of(&sim, vm, ResourceKind::Cpu) == rack;
                let ram = rack_of(&sim, vm, ResourceKind::Ram) == rack;
                seen.cpu_side_only += u32::from(cpu && !ram);
                seen.ram_side_only += u32::from(ram && !cpu);
                seen.evacuated_again += u32::from(replaced.remove(&vm));
            }
            let tally = |sim: &DdcSimulation| sim.world().fault_report().expect("faults").evacuated;
            let tally_before = tally(&sim);

            sim.run_until(at);
            assert_eq!(sim.events_dispatched(), k as u64 + 1);
            assert_eq!(tally(&sim) - tally_before, expected.len() as u32);
            for vm in residents {
                let evacuated = expected.binary_search(&vm).is_ok();
                assert_eq!(sim.world().assignment(vm).is_none(), evacuated, "vm {vm}");
            }
            for &vm in &expected {
                assert_eq!(in_transit.insert(vm, k), None, "vm {vm} evacuated twice");
            }
            seen.rack_failures += 1;
            seen.victims += expected.len() as u32;
        } else if let Some(vm) = arg(event, "Migrate") {
            let failure = in_transit.remove(&vm);
            let failure = failure.unwrap_or_else(|| panic!("Migrate({vm}) of no victim"));
            // Same-sized victims of one failure migrate at one instant, in
            // the order their failure scheduled them.
            if let Some((prev_k, prev_at, prev_vm, prev_failure)) = last_migrate {
                if prev_k + 1 == k && prev_at == at && prev_failure == failure {
                    assert!(prev_vm < vm, "victims of {} out of order", log[failure].1);
                }
            }
            last_migrate = Some((k, at, vm, failure));
            sim.run_until(at);
            if sim.world().assignment(vm).is_some() {
                replaced.insert(vm);
            }
        } else if let Some(vm) = arg(event, "Departure").filter(|vm| replaced.contains(vm)) {
            sim.run_until(log[k - 1].0);
            assert!(log[k - 1].0 < at && sim.world().assignment(vm).is_some());
            sim.run_until(at);
            assert!(sim.world().assignment(vm).is_none(), "vm {vm} released");
            replaced.remove(&vm);
            seen.replacements_released += 1;
        }
    }
    assert!(
        replaced.is_empty(),
        "re-placed and never released: {replaced:?}"
    );
    assert!(in_transit.is_empty(), "never migrated: {in_transit:?}");
    // Drains clean: the audit ledger balances and nothing stays resident.
    let report = sim.run();
    let faults = report.faults.expect("faults attached");
    assert_eq!(faults.evacuated, seen.victims);
    assert_eq!(faults.rack_failures, seen.rack_failures);
    assert_eq!(sim.world().resident(), 0);
    seen
}

/// NALB on a loaded cluster spreads VMs over racks, so a failing rack's
/// victims are not just "the VMs placed there whole": a VM whose CPU and
/// RAM boxes sit in different racks goes when *either* rack fails.
#[test]
fn rack_failure_evacuates_exactly_the_vms_with_a_grant_there() {
    let n = 3000;
    let seen = walk_evacuations(n, || {
        SimulationBuilder::new()
            .algorithm(Algorithm::Nalb)
            .workload(WorkloadSpec::synthetic(n, 11))
            .faults(FaultSpec::canonical())
            .audit(true)
            .build()
    });
    assert!(seen.rack_failures >= 3 && seen.victims > 100, "{seen:?}");
    assert!(seen.cpu_side_only > 0 && seen.ram_side_only > 0, "{seen:?}");
}

/// Racks fail often enough that re-placed VMs meet a second failure: the
/// re-placement (an index far below the newest arrival's) is found by the
/// next derivation like any other resident, and otherwise released by
/// the VM's original departure event.
#[test]
fn replaced_vms_are_released_by_departure_or_found_by_the_next_failure() {
    let n = 2000;
    let seen = walk_evacuations(n, || {
        let spec = FaultSpec {
            rack_failures_per_span: 3.0,
            rack_downtime_frac: 0.01,
            ..FaultSpec::canonical()
        };
        SimulationBuilder::new()
            .algorithm(Algorithm::Nalb)
            .workload(WorkloadSpec::synthetic(n, 5))
            .faults(spec)
            .audit(true)
            .build()
    });
    assert!(seen.replacements_released > 0, "{seen:?}");
    assert!(seen.evacuated_again > 0, "{seen:?}");
}
