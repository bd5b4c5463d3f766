//! Serialization round-trips across the whole public surface: traces
//! (CSV, their one format), configurations and reports.

use risa::prelude::*;
use risa::sim::SimConfig;
use risa::workload::csv;

#[test]
fn workload_csv_roundtrips() {
    let w = Workload::synthetic(&SyntheticConfig::small(80, 9));
    let via_csv = csv::from_csv(w.name(), &csv::to_csv(&w)).unwrap();
    assert_eq!(via_csv, w);
}

#[test]
fn azure_trace_roundtrips() {
    let w = Workload::azure(AzureSubset::N3000, 4);
    let back = csv::from_csv(w.name(), &csv::to_csv(&w)).unwrap();
    assert_eq!(back, w);
    // Figure 6 marginals survive the round-trip.
    assert_eq!(back.vms().iter().filter(|v| v.cpu_cores == 1).count(), 1326);
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
