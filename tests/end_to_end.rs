//! End-to-end simulations through the facade: figure shapes at reduced
//! scale, determinism, and conservation of resources.

use risa::prelude::*;
use risa::sim::experiments;
use risa::workload::azure::{generate_with, AzureProcess};

fn run(algo: Algorithm, spec: WorkloadSpec) -> RunReport {
    SimulationBuilder::new()
        .algorithm(algo)
        .workload(spec)
        .build()
        .run()
}

/// Figure 5's shape at 1200 VMs: RISA/RISA-BF make dramatically fewer
/// inter-rack assignments than NULB/NALB, with zero drops.
#[test]
fn fig5_shape_holds_end_to_end() {
    let spec = WorkloadSpec::Synthetic(SyntheticConfig::small(1200, 2023));
    let reports: Vec<RunReport> = Algorithm::ALL
        .iter()
        .map(|&a| run(a, spec.clone()))
        .collect();
    let by = |a: Algorithm| reports.iter().find(|r| r.algorithm == a).unwrap();
    assert!(by(Algorithm::Nulb).inter_rack_assignments >= 20);
    assert!(
        by(Algorithm::Risa).inter_rack_assignments * 5
            <= by(Algorithm::Nulb).inter_rack_assignments,
        "RISA must cut inter-rack assignments at least 5x vs NULB"
    );
    assert!(
        by(Algorithm::RisaBf).inter_rack_assignments <= by(Algorithm::Risa).inter_rack_assignments,
        "best-fit packs at least as well as next-fit in the paper's runs"
    );
    for r in &reports {
        assert_eq!(r.dropped, 0, "{}: unexpected drops", r.algorithm);
    }
}

/// Figure 7/8's shape on a reduced Azure slice: zero inter-rack and zero
/// inter-network utilization for RISA/RISA-BF; equal intra utilization for
/// every algorithm when nothing drops.
#[test]
fn fig7_fig8_shape_on_azure_3000() {
    let spec = WorkloadSpec::azure(AzureSubset::N3000, 5);
    let reports: Vec<RunReport> = Algorithm::ALL
        .iter()
        .map(|&a| run(a, spec.clone()))
        .collect();
    let by = |a: Algorithm| reports.iter().find(|r| r.algorithm == a).unwrap();
    assert_eq!(by(Algorithm::Risa).inter_rack_assignments, 0);
    assert_eq!(by(Algorithm::RisaBf).inter_rack_assignments, 0);
    assert!(by(Algorithm::Nulb).inter_rack_assignments > 0);
    assert_eq!(by(Algorithm::Risa).inter_net_utilization, 0.0);
    assert!(by(Algorithm::Nulb).inter_net_utilization > 0.0);
    // Intra utilization equal across algorithms (paper Figure 8, given no
    // drops): every admitted VM crosses the same box uplinks.
    let u0 = by(Algorithm::Nulb).intra_net_utilization;
    for r in &reports {
        assert_eq!(r.dropped, 0);
        assert!(
            (r.intra_net_utilization - u0).abs() < 1e-6,
            "{}: intra utilization diverged",
            r.algorithm
        );
    }
}

/// Figures 9 and 10: RISA's optical power is strictly below NULB's, and
/// its mean CPU-RAM latency is exactly 110 ns while NULB's exceeds it.
#[test]
fn fig9_fig10_shape_on_azure_3000() {
    let spec = WorkloadSpec::azure(AzureSubset::N3000, 5);
    let nulb = run(Algorithm::Nulb, spec.clone());
    let risa = run(Algorithm::Risa, spec);
    assert!(risa.optical_power_w < nulb.optical_power_w);
    assert_eq!(risa.mean_cpu_ram_latency_ns, 110.0);
    assert!(nulb.mean_cpu_ram_latency_ns > 110.0);
}

/// Identical seeds reproduce identical reports (wall-clock field aside) —
/// the determinism claim of the `risa-sim` crate docs.
#[test]
fn determinism_across_runs() {
    let spec = WorkloadSpec::Synthetic(SyntheticConfig::small(400, 99));
    let mut a = run(Algorithm::RisaBf, spec.clone());
    let mut b = run(Algorithm::RisaBf, spec);
    a.sched_seconds = 0.0;
    b.sched_seconds = 0.0;
    assert_eq!(a, b);
}

/// Drop accounting always balances: admitted + dropped == total.
#[test]
fn drop_accounting_balances_under_overload() {
    // Very fast arrivals overload the cluster and force drops.
    let cfg = SyntheticConfig {
        num_vms: 1500,
        interarrival_mean: 2.0,
        ..SyntheticConfig::paper(3)
    };
    for algo in Algorithm::ALL {
        let r = run(algo, WorkloadSpec::Synthetic(cfg));
        assert_eq!(r.admitted + r.dropped, r.total_vms, "{algo}");
        assert_eq!(r.dropped, r.dropped_compute + r.dropped_network, "{algo}");
        assert!(r.dropped > 0, "{algo} should drop under 5x overload");
    }
}

/// The experiment matrix runner produces a complete, labelled grid.
#[test]
fn experiment_matrix_is_complete() {
    let rep = experiments::fig5_with(&WorkloadSpec::Synthetic(SyntheticConfig::small(200, 1)));
    assert_eq!(rep.runs.len(), 4);
    for a in Algorithm::ALL {
        assert!(rep.run(a, "synthetic").is_some(), "{a} missing");
    }
    assert!(rep.rendered.contains("inter-rack"));
}

/// Figures 11/12, machine-independently: the deterministic per-VM
/// operation counts order exactly as the paper's execution times do —
/// NALB > NULB ≫ RISA-BF ≥ RISA-level work.
#[test]
fn fig11_fig12_work_ordering_is_deterministic() {
    let spec = WorkloadSpec::azure(AzureSubset::N3000, 2023);
    let ops: Vec<(Algorithm, f64)> = Algorithm::ALL
        .iter()
        .map(|&a| (a, run(a, spec.clone()).work.ops_per_call()))
        .collect();
    let by = |a: Algorithm| ops.iter().find(|(x, _)| *x == a).unwrap().1;
    assert!(
        by(Algorithm::Nalb) > by(Algorithm::Nulb),
        "NALB's modified BFS must cost more than NULB"
    );
    assert!(
        by(Algorithm::Nulb) > 2.0 * by(Algorithm::Risa),
        "the paper's >2x RISA speedup vs NULB (ours: {} vs {})",
        by(Algorithm::Nulb),
        by(Algorithm::Risa)
    );
    assert!(
        by(Algorithm::Nalb) > 3.0 * by(Algorithm::Risa),
        "the paper's >4x RISA speedup vs NALB (ours: {} vs {})",
        by(Algorithm::Nalb),
        by(Algorithm::Risa)
    );
}

/// Every algorithm passes a fully audited end-to-end run (the shadow
/// ledger independently re-validates each grant and release).
#[test]
fn audited_runs_pass_for_all_algorithms() {
    for algo in Algorithm::ALL {
        let report = risa::sim::SimulationBuilder::new()
            .algorithm(algo)
            .workload(WorkloadSpec::Synthetic(SyntheticConfig::small(500, 31)))
            .audit(true)
            .build()
            .run(); // panics on any audit violation
        assert_eq!(report.admitted + report.dropped, 500, "{algo}");
    }
}

/// A custom (slower) Azure process keeps every invariant intact.
#[test]
fn custom_azure_process_end_to_end() {
    let w = generate_with(
        AzureSubset::N3000,
        4,
        AzureProcess {
            interarrival_mean: 30.0,
            ..AzureProcess::default()
        },
    );
    let path = std::env::temp_dir().join(format!("risa_e2e_azure_{}.csv", std::process::id()));
    std::fs::write(&path, risa::workload::csv::to_csv(&w)).unwrap();
    let spec = WorkloadSpec::TraceCsv {
        name: w.name().to_string(),
        path: path.display().to_string(),
    };
    let r = run(Algorithm::Risa, spec);
    std::fs::remove_file(&path).ok();
    assert_eq!(r.dropped, 0);
    assert_eq!(r.inter_rack_assignments, 0);
    assert!(r.intra_net_utilization > 0.0);
}
