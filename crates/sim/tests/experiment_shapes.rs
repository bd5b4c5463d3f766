//! Integration tests for the experiment layer itself: every per-figure
//! entry point renders a complete, well-formed report whose headline
//! properties match the paper's direction.

use risa_sim::{experiments, Algorithm, SimConfig, WorkloadSpec};
use risa_workload::{AzureSubset, SyntheticConfig};

/// One shared reduced Azure matrix keeps this suite fast.
fn azure3000_runs() -> Vec<risa_sim::RunReport> {
    let cfg = SimConfig::paper();
    experiments::run_matrix(
        &cfg,
        &[WorkloadSpec::azure(AzureSubset::N3000, 77)],
        &Algorithm::ALL,
        true,
    )
}

#[test]
fn headline_directions_hold_on_one_matrix() {
    let runs = azure3000_runs();
    let by = |a: Algorithm| runs.iter().find(|r| r.algorithm == a).unwrap();

    // Figure 7: RISA/RISA-BF at exactly zero.
    assert_eq!(by(Algorithm::Risa).inter_rack_percent(), 0.0);
    assert_eq!(by(Algorithm::RisaBf).inter_rack_percent(), 0.0);
    assert!(by(Algorithm::Nulb).inter_rack_percent() > 0.0);

    // Figure 8: intra equal across algorithms; inter zero for RISA.
    let intra0 = by(Algorithm::Nulb).intra_net_utilization;
    for r in &runs {
        assert!((r.intra_net_utilization - intra0).abs() < 1e-6);
    }
    assert_eq!(by(Algorithm::Risa).inter_net_utilization, 0.0);

    // Figure 9: RISA power strictly below the baselines.
    assert!(by(Algorithm::Risa).optical_power_w < by(Algorithm::Nulb).optical_power_w);
    assert!(by(Algorithm::RisaBf).optical_power_w < by(Algorithm::Nalb).optical_power_w);

    // Figure 10: RISA exactly at the 110 ns intra-rack constant.
    assert_eq!(by(Algorithm::Risa).mean_cpu_ram_latency_ns, 110.0);
    assert!(by(Algorithm::Nulb).mean_cpu_ram_latency_ns > 110.0);

    // Figures 11/12 (deterministic ops): NALB > NULB > RISA-like work.
    let ops = |a: Algorithm| by(a).work.ops_per_call();
    assert!(ops(Algorithm::Nalb) > ops(Algorithm::Nulb));
    assert!(ops(Algorithm::Nulb) > ops(Algorithm::Risa));
    assert!(ops(Algorithm::Nulb) > ops(Algorithm::RisaBf));
}

#[test]
fn rendered_reports_are_complete() {
    // fig6 is cheap (no simulation) — full check.
    let f6 = experiments::fig6(7);
    for label in ["Azure-3000", "Azure-5000", "Azure-7500"] {
        assert!(f6.rendered.contains(label), "fig6 missing {label}");
    }
    assert!(f6.runs.is_empty(), "fig6 is workload-only");

    // A reduced fig5 renders a table plus the bar chart.
    let f5 = experiments::fig5_with(&WorkloadSpec::Synthetic(SyntheticConfig::small(150, 3)));
    assert!(f5.rendered.contains("Figure 5"));
    assert!(f5.rendered.contains('#'), "bar chart present");
    assert_eq!(f5.runs.len(), 4);
    assert_eq!(f5.runs_for_workload("synthetic").len(), 4);
}

#[test]
fn lifetime_ablation_keeps_risa_at_zero() {
    let rep = experiments::ablation_lifetimes(5, 900);
    // 3 models × 4 algorithms.
    assert_eq!(rep.runs.len(), 12);
    for r in rep
        .runs
        .iter()
        .filter(|r| matches!(r.algorithm, Algorithm::Risa | Algorithm::RisaBf))
    {
        assert_eq!(
            r.inter_rack_assignments, 0,
            "{} should stay intra-rack under every lifetime model",
            r.algorithm
        );
    }
}

#[test]
fn trunk_ablation_narrow_trunks_drop_more() {
    let rep = experiments::ablation_trunk_width(9, &[1, 8]);
    let dropped = |width_first: bool, algo: Algorithm| {
        // Runs are pushed width-major (all four algorithms per width).
        let idx_base = if width_first { 0 } else { 4 };
        rep.runs[idx_base..idx_base + 4]
            .iter()
            .find(|r| r.algorithm == algo)
            .unwrap()
            .dropped
    };
    // Width 1 drops at least as much as width 8 for every algorithm.
    for algo in Algorithm::ALL {
        assert!(
            dropped(true, algo) >= dropped(false, algo),
            "{algo}: narrow trunks can't drop less"
        );
    }
}
