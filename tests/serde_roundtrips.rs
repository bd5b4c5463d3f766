//! Serialization round-trips across the whole public surface: traces
//! (JSON and CSV), configurations and reports.

use risa::prelude::*;
use risa::sim::SimConfig;
use risa::workload::csv;

#[test]
fn workload_json_and_csv_agree() {
    let w = Workload::synthetic(&SyntheticConfig::small(80, 9));
    let via_json = Workload::from_json(&w.to_json()).unwrap();
    let via_csv = csv::from_csv(w.name(), &csv::to_csv(&w)).unwrap();
    assert_eq!(via_json, w);
    assert_eq!(via_csv, w);
}

#[test]
fn azure_trace_roundtrips() {
    let w = Workload::azure(AzureSubset::N3000, 4);
    let back = Workload::from_json(&w.to_json()).unwrap();
    assert_eq!(back, w);
    // Figure 6 marginals survive the round-trip.
    assert_eq!(back.vms().iter().filter(|v| v.cpu_cores == 1).count(), 1326);
}

#[test]
fn sliced_traces_replay_identically() {
    let base = Workload::azure(AzureSubset::N3000, 4);
    let slice = Workload::from_vms(base.name(), base.vms()[..500].to_vec());
    let run = |w: &Workload| {
        SimulationBuilder::new()
            .algorithm(Algorithm::Risa)
            .workload(WorkloadSpec::Trace(w.clone()))
            .build()
            .run()
    };
    let direct = run(&slice);
    let via_json = run(&Workload::from_json(&slice.to_json()).unwrap());
    assert_eq!(direct.admitted, via_json.admitted);
    assert_eq!(
        direct.inter_rack_assignments,
        via_json.inter_rack_assignments
    );
    assert_eq!(direct.optical_energy_j, via_json.optical_energy_j);
}

#[test]
fn sim_config_roundtrips() {
    let cfg = SimConfig::paper();
    let json = serde_json::to_string_pretty(&cfg).unwrap();
    let back: SimConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn run_report_roundtrips() {
    let report = SimulationBuilder::new()
        .algorithm(Algorithm::Nalb)
        .workload(WorkloadSpec::synthetic(60, 2))
        .build()
        .run();
    let json = serde_json::to_string(&report).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    // The JSON exposes the work counters for external analysis.
    assert!(json.contains("boxes_scanned"));
}
