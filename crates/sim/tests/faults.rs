//! End-to-end fault-injection battery: churn actually happens, the
//! evacuation pipeline balances, runs stay deterministic and drained
//! runs end pristine (audited).

use risa_sim::{Algorithm, ArrivalMode, FaultSpec, RunReport, SimulationBuilder, WorkloadSpec};

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

/// The tentpole determinism claim: a churn scenario is byte-identical
/// across arrival pipelines (thread count is covered by
/// the CI matrix — nothing in a run draws from the pool under faults
/// except workload generation, which is pinned separately).
#[test]
fn churn_is_byte_identical_across_arrival_modes() {
    let run = |mode: ArrivalMode| {
        let mut sim = SimulationBuilder::new()
            .workload(WorkloadSpec::synthetic(6000, 9))
            .faults(FaultSpec::canonical())
            .arrivals(mode)
            .audit(true)
            .build();
        sim.enable_trace(40_000);
        let mut r = sim.run();
        r.sched_seconds = 0.0;
        let trace = format!("{:?}", sim.trace().unwrap());
        (serde_json::to_string(&r).unwrap(), trace)
    };
    assert_eq!(run(ArrivalMode::Streaming), run(ArrivalMode::Materialized));
}

/// Faults-off runs are byte-identical to a builder that never heard of
/// faults — the `faults` report block vanishes entirely.
#[test]
fn faults_off_is_byte_identical_to_no_faults() {
    let run = |explicit_off: bool| {
        let mut b = SimulationBuilder::new().workload(WorkloadSpec::synthetic(800, 4));
        if explicit_off {
            b = b.faults_off();
        }
        let mut r = b.build().run();
        r.sched_seconds = 0.0;
        serde_json::to_string(&r).unwrap()
    };
    let off = run(true);
    assert!(!off.contains("faults"));
    if std::env::var("RISA_FAULTS").is_err() {
        assert_eq!(run(false), off);
    }
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
        .faults_off()
        .audit(true)
        .build()
        .run();
    off.sched_seconds = 0.0;
    let mut quiet_stripped = quiet.clone();
    quiet_stripped.faults = None;
    assert_eq!(quiet_stripped, off);
}
