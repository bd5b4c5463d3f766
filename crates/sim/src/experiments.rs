//! One entry point per figure/table of the paper's evaluation (§5).
//!
//! Each function runs the required simulations and renders a paper-style
//! table. The (algorithm × workload) matrices run concurrently on the
//! vendored `rayon` executor (scoped workers dealing jobs off one cursor;
//! sized by `RISA_THREADS` / `risa-cli --jobs`), **except** the
//! execution-time experiments (Figures 11/12), which run sequentially so
//! the wall-clock measurement is uncontended. Each trial generates its
//! workload inline, on demand, on the thread that runs it. Parallelism
//! never changes results: the executor preserves input order, every run
//! is independently seeded, and `tests/determinism.rs` asserts
//! byte-identical reports across thread counts, oversubscribed widths
//! included. A panicking run (e.g. an oversized VM
//! rejected by the builder) propagates its panic out of the matrix, as
//! the sequential loop would. The returned [`ExperimentReport`] carries
//! both the rendering and the raw [`RunReport`]s for programmatic
//! assertions.

use crate::config::SimConfig;
use crate::report::{ExperimentReport, RunReport};
use crate::spec::WorkloadSpec;
use crate::SimulationBuilder;
use rayon::prelude::*;
use risa_metrics::{Align, BarChart, BinnedHistogram, OnlineStats, Table};
use risa_sched::Algorithm;
use risa_workload::{AzureSubset, Workload, WorkloadStats};

/// Run every (algorithm × workload) combination.
///
/// `parallel = true` fans the jobs out over the `rayon` pool; results come
/// back in job order regardless of thread count, and a panic in any job
/// propagates to the caller. `parallel = false` runs sequentially on the
/// calling thread, required when the experiment reports scheduler
/// wall-clock times (Figures 11/12) — sequential mode therefore also
/// switches the scheduler timer to exact per-call measurement
/// (`sched_timing_batch(1)`) instead of the default amortized sampling,
/// so the figures report undiluted per-call wall-clock.
pub fn run_matrix(
    cfg: &SimConfig,
    specs: &[WorkloadSpec],
    algos: &[Algorithm],
    parallel: bool,
) -> Vec<RunReport> {
    let jobs: Vec<(Algorithm, WorkloadSpec)> = specs
        .iter()
        .flat_map(|w| algos.iter().map(move |&a| (a, w.clone())))
        .collect();
    let run_one = |(a, w): &(Algorithm, WorkloadSpec)| {
        // Paper figures reproduce fault-free runs; pin churn off so the
        // `RISA_FAULTS` toggle can never skew a reproduction.
        let builder = SimulationBuilder::new()
            .config(*cfg)
            .algorithm(*a)
            .workload(w.clone())
            .faults_off();
        let builder = if parallel {
            builder
        } else {
            builder.sched_timing_batch(1)
        };
        builder.build().run()
    };
    if parallel {
        jobs.par_iter().map(run_one).collect()
    } else {
        jobs.iter().map(run_one).collect()
    }
}

fn azure_specs(seed: u64) -> Vec<WorkloadSpec> {
    AzureSubset::ALL
        .iter()
        .map(|&s| WorkloadSpec::azure(s, seed))
        .collect()
}

/// Figure 5: number of inter-rack VM assignments on the synthetic random
/// workload (paper: NULB 255, NALB 255, RISA 7, RISA-BF 2), plus the §5.1
/// average utilizations (paper: CPU 64.66 %, RAM 65.11 %, storage 31.72 %).
pub fn fig5(seed: u64) -> ExperimentReport {
    fig5_with(seed, &WorkloadSpec::synthetic_paper(seed))
}

/// Figure 5 on an arbitrary synthetic spec (scaled-down test hook).
pub fn fig5_with(_seed: u64, spec: &WorkloadSpec) -> ExperimentReport {
    let cfg = SimConfig::paper();
    let runs = run_matrix(&cfg, std::slice::from_ref(spec), &Algorithm::ALL, true);
    let mut t = Table::new(
        "Figure 5: inter-rack VM assignments (synthetic workload)",
        &[
            "algorithm",
            "inter-rack assignments",
            "dropped",
            "cpu%",
            "ram%",
            "sto%",
        ],
    )
    .align(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for r in &runs {
        t.row(&[
            r.algorithm.to_string(),
            r.inter_rack_assignments.to_string(),
            r.dropped.to_string(),
            format!("{:.2}", r.cpu_utilization * 100.0),
            format!("{:.2}", r.ram_utilization * 100.0),
            format!("{:.2}", r.storage_utilization * 100.0),
        ]);
    }
    let mut chart = BarChart::new("(bars mirror the paper's Figure 5)", "VMs");
    for r in &runs {
        chart.bar(r.algorithm.label(), r.inter_rack_assignments as f64);
    }
    ExperimentReport {
        id: "fig5".into(),
        title: "Inter-rack VM assignments, synthetic workload".into(),
        rendered: format!("{}\n{}", t.render(), chart.render()),
        runs,
    }
}

/// Figure 6: CPU and RAM histograms of the Azure-like workloads
/// (10 matplotlib-style bins; the counts must match the paper exactly).
pub fn fig6(seed: u64) -> ExperimentReport {
    let mut out = String::new();
    for subset in AzureSubset::ALL {
        let w = Workload::azure(subset, seed);
        let stats = WorkloadStats::of(&w);
        let cpu: Vec<f64> = w.vms().iter().map(|v| v.cpu_cores as f64).collect();
        let ram: Vec<f64> = w.vms().iter().map(|v| v.ram_gb as f64).collect();
        let hc = BinnedHistogram::of_data(&cpu, 10);
        let hr = BinnedHistogram::of_data(&ram, 10);
        out.push_str(&format!(
            "--- {} ({} VMs, {:.1}% small) ---\nCPU cores:\n{}RAM GB:\n{}\n",
            subset.label(),
            w.len(),
            stats.small_vm_fraction * 100.0,
            hc.render(),
            hr.render(),
        ));
    }
    ExperimentReport {
        id: "fig6".into(),
        title: "Azure workload characterization (CPU/RAM histograms)".into(),
        rendered: out,
        runs: vec![],
    }
}

fn azure_table<F>(title: &str, runs: &[RunReport], cell: F) -> String
where
    F: Fn(&RunReport) -> String,
{
    let mut t = Table::new(title, &["workload", "NULB", "NALB", "RISA", "RISA-BF"]).align(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for subset in AzureSubset::ALL {
        let mut row = vec![subset.label().to_string()];
        for algo in Algorithm::ALL {
            let r = runs
                .iter()
                .find(|r| r.algorithm == algo && r.workload == subset.label())
                .expect("matrix is complete");
            row.push(cell(r));
        }
        t.row(&row);
    }
    t.render()
}

fn azure_experiment<F>(
    id: &str,
    title: &str,
    seed: u64,
    parallel: bool,
    cell: F,
) -> ExperimentReport
where
    F: Fn(&RunReport) -> String,
{
    let cfg = SimConfig::paper();
    let runs = run_matrix(&cfg, &azure_specs(seed), &Algorithm::ALL, parallel);
    let rendered = azure_table(title, &runs, cell);
    ExperimentReport {
        id: id.into(),
        title: title.into(),
        rendered,
        runs,
    }
}

/// Figure 7: percentage of inter-rack VM assignments on the Azure-like
/// workloads (paper: up to 52 % NULB / 48 % NALB; 0 % for RISA, RISA-BF).
pub fn fig7(seed: u64) -> ExperimentReport {
    azure_experiment(
        "fig7",
        "Figure 7: % inter-rack VM assignments (Azure workloads)",
        seed,
        true,
        |r| format!("{:.1}", r.inter_rack_percent()),
    )
}

/// Figure 8: intra- and inter-rack network utilization (paper: intra equal
/// across algorithms — 30.4 / 35.4 / 42.6 % — and inter 0 for RISA/RISA-BF).
pub fn fig8(seed: u64) -> ExperimentReport {
    let cfg = SimConfig::paper();
    let runs = run_matrix(&cfg, &azure_specs(seed), &Algorithm::ALL, true);
    let intra = azure_table(
        "Figure 8a: intra-rack network utilization (%)",
        &runs,
        |r| format!("{:.1}", r.intra_net_utilization * 100.0),
    );
    let inter = azure_table(
        "Figure 8b: inter-rack network utilization (%)",
        &runs,
        |r| format!("{:.2}", r.inter_net_utilization * 100.0),
    );
    ExperimentReport {
        id: "fig8".into(),
        title: "Network utilization, Azure workloads".into(),
        rendered: format!("{intra}\n{inter}"),
        runs,
    }
}

/// Figure 9: average power consumption of the optical components, kW
/// (paper: 3.36 kW RISA vs 5.22 kW NULB on Azure-3000 — a 33 % reduction).
pub fn fig9(seed: u64) -> ExperimentReport {
    azure_experiment(
        "fig9",
        "Figure 9: optical component power (kW)",
        seed,
        true,
        |r| format!("{:.2}", r.optical_power_w / 1000.0),
    )
}

/// Figure 10: average CPU-RAM round-trip latency, ns (paper: 110 ns for
/// RISA/RISA-BF, 226/216 ns for NULB/NALB on Azure-3000).
pub fn fig10(seed: u64) -> ExperimentReport {
    azure_experiment(
        "fig10",
        "Figure 10: average CPU-RAM round-trip latency (ns)",
        seed,
        true,
        |r| format!("{:.0}", r.mean_cpu_ram_latency_ns),
    )
}

/// Figure 11: scheduler execution time on the synthetic workload (paper
/// ordering: NALB ≫ NULB > RISA-BF ≥ RISA). Sequential for clean timing.
pub fn fig11(seed: u64) -> ExperimentReport {
    let cfg = SimConfig::paper();
    let spec = WorkloadSpec::synthetic_paper(seed);
    let runs = run_matrix(&cfg, &[spec], &Algorithm::ALL, false);
    let mut t = Table::new(
        "Figure 11: scheduler execution time, synthetic workload",
        &[
            "algorithm",
            "sched time (ms)",
            "vs RISA",
            "ops/VM",
            "ops vs RISA",
        ],
    )
    .align(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let risa = runs
        .iter()
        .find(|r| r.algorithm == Algorithm::Risa)
        .expect("matrix is complete");
    let (risa_s, risa_ops) = (risa.sched_seconds, risa.work.ops_per_call().max(1e-9));
    for r in &runs {
        t.row(&[
            r.algorithm.to_string(),
            format!("{:.2}", r.sched_seconds * 1e3),
            format!("{:.2}x", r.sched_seconds / risa_s),
            format!("{:.0}", r.work.ops_per_call()),
            format!("{:.2}x", r.work.ops_per_call() / risa_ops),
        ]);
    }
    ExperimentReport {
        id: "fig11".into(),
        title: "Execution time, synthetic workload".into(),
        rendered: t.render(),
        runs,
    }
}

/// Figure 12: scheduler execution time on the Azure workloads (paper:
/// RISA 2.81× faster than NULB, 4.33× than NALB on Azure-7500). Reported
/// both as wall-clock and as deterministic operation counts.
pub fn fig12(seed: u64) -> ExperimentReport {
    let cfg = SimConfig::paper();
    let runs = run_matrix(&cfg, &azure_specs(seed), &Algorithm::ALL, false);
    let times = azure_table(
        "Figure 12a: scheduler execution time (ms, wall clock)",
        &runs,
        |r| format!("{:.2}", r.sched_seconds * 1e3),
    );
    let ops = azure_table(
        "Figure 12b: scheduler work (deterministic ops per VM)",
        &runs,
        |r| format!("{:.0}", r.work.ops_per_call()),
    );
    ExperimentReport {
        id: "fig12".into(),
        title: "Execution time, Azure workloads".into(),
        rendered: format!("{times}\n{ops}"),
        runs,
    }
}

/// Ablation: sweep the box-uplink trunk width and report drop counts and
/// inter-rack assignments — why `NetworkConfig::paper` uses one link per
/// brick (8): narrower trunks drop VMs the paper admits.
pub fn ablation_trunk_width(seed: u64, widths: &[u16]) -> ExperimentReport {
    let mut t = Table::new(
        "Ablation: box-uplink trunk width (synthetic, 1000 VMs)",
        &["width", "algorithm", "admitted", "dropped", "inter-rack"],
    )
    .align(&[
        Align::Right,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut runs = vec![];
    for &width in widths {
        let mut cfg = SimConfig::paper();
        cfg.network.box_uplink_width = width;
        let spec = WorkloadSpec::Synthetic(risa_workload::SyntheticConfig::small(1000, seed));
        for r in run_matrix(&cfg, &[spec], &Algorithm::ALL, true) {
            t.row(&[
                width.to_string(),
                r.algorithm.to_string(),
                r.admitted.to_string(),
                r.dropped.to_string(),
                r.inter_rack_assignments.to_string(),
            ]);
            runs.push(r);
        }
    }
    ExperimentReport {
        id: "ablation-trunk".into(),
        title: "Trunk width ablation".into(),
        rendered: t.render(),
        runs,
    }
}

/// Ablation: the cell-sharing factor α of Eq. (1) scales switch trim power
/// linearly; sweep the paper's admissible range [0.5, 1.0].
pub fn ablation_alpha(seed: u64, alphas: &[f64]) -> ExperimentReport {
    let mut t = Table::new(
        "Ablation: Eq. (1) cell-sharing factor α (Azure-3000)",
        &["alpha", "algorithm", "power (kW)"],
    )
    .align(&[Align::Right, Align::Left, Align::Right]);
    let mut runs = vec![];
    for &alpha in alphas {
        let mut cfg = SimConfig::paper();
        cfg.photonics.alpha = alpha;
        let spec = WorkloadSpec::azure(AzureSubset::N3000, seed);
        for r in run_matrix(&cfg, &[spec], &[Algorithm::Nulb, Algorithm::Risa], true) {
            t.row(&[
                format!("{alpha:.2}"),
                r.algorithm.to_string(),
                format!("{:.2}", r.optical_power_w / 1000.0),
            ]);
            runs.push(r);
        }
    }
    ExperimentReport {
        id: "ablation-alpha".into(),
        title: "α sweep".into(),
        rendered: t.render(),
        runs,
    }
}

/// Figure 5 with statistical confidence: run the synthetic workload over
/// many seeds and report mean ± std of the inter-rack counts per
/// algorithm (the paper reports a single run; this shows the gap is not a
/// seed artifact).
pub fn fig5_seed_sweep(seeds: &[u64], n: u32) -> ExperimentReport {
    let cfg = SimConfig::paper();
    let runs: Vec<RunReport> = seeds
        .par_iter()
        .flat_map(|&seed| {
            let spec = WorkloadSpec::Synthetic(risa_workload::SyntheticConfig::small(n, seed));
            run_matrix(&cfg, &[spec], &Algorithm::ALL, false)
        })
        .collect();
    let mut t = Table::new(
        format!(
            "Figure 5 over {} seeds ({} VMs): inter-rack assignments",
            seeds.len(),
            n
        ),
        &["algorithm", "mean", "std", "min", "max"],
    )
    .align(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for algo in Algorithm::ALL {
        let mut s = OnlineStats::new();
        for r in runs.iter().filter(|r| r.algorithm == algo) {
            s.record(r.inter_rack_assignments as f64);
        }
        t.row(&[
            algo.to_string(),
            format!("{:.1}", s.mean()),
            format!("{:.1}", s.std_dev()),
            format!("{:.0}", s.min().unwrap_or(0.0)),
            format!("{:.0}", s.max().unwrap_or(0.0)),
        ]);
    }
    ExperimentReport {
        id: "fig5-seeds".into(),
        title: "Figure 5 seed sweep".into(),
        rendered: t.render(),
        runs,
    }
}

/// Ablation: swap the paper's staircase lifetimes for exponential/fixed
/// models — RISA's inter-rack advantage must survive the change (it is a
/// property of the placement policy, not of the lifetime process).
pub fn ablation_lifetimes(seed: u64, n: u32) -> ExperimentReport {
    use risa_workload::{LifetimeModel, SyntheticConfig};
    let models: [(&str, LifetimeModel); 3] = [
        ("staircase (paper)", LifetimeModel::Staircase),
        (
            "exponential(6300)",
            LifetimeModel::Exponential { mean: 6300.0 },
        ),
        ("fixed(6300)", LifetimeModel::Fixed { value: 6300.0 }),
    ];
    let mut t = Table::new(
        "Ablation: lifetime model vs inter-rack assignments (synthetic)",
        &["lifetime model", "NULB", "NALB", "RISA", "RISA-BF"],
    )
    .align(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let cfg = SimConfig::paper();
    let mut runs = vec![];
    for (label, model) in models {
        let spec = WorkloadSpec::Synthetic(SyntheticConfig {
            lifetime_model: model,
            ..SyntheticConfig::small(n, seed)
        });
        let rs = run_matrix(&cfg, &[spec], &Algorithm::ALL, true);
        let mut row = vec![label.to_string()];
        for algo in Algorithm::ALL {
            let r = rs.iter().find(|r| r.algorithm == algo).unwrap();
            row.push(r.inter_rack_assignments.to_string());
        }
        t.row(&row);
        runs.extend(rs);
    }
    ExperimentReport {
        id: "ablation-lifetimes".into(),
        title: "Lifetime model ablation".into(),
        rendered: t.render(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down Figure 5 (1200 VMs so departures create the churn
    /// that fragments NULB): the shape must hold — RISA and RISA-BF make
    /// far fewer inter-rack assignments than NULB/NALB.
    #[test]
    fn fig5_shape_small() {
        let spec = WorkloadSpec::Synthetic(risa_workload::SyntheticConfig::small(1200, 42));
        let rep = fig5_with(42, &spec);
        let by = |a: Algorithm| rep.run(a, "synthetic").unwrap();
        let (nulb, nalb, risa, bf) = (
            by(Algorithm::Nulb).inter_rack_assignments,
            by(Algorithm::Nalb).inter_rack_assignments,
            by(Algorithm::Risa).inter_rack_assignments,
            by(Algorithm::RisaBf).inter_rack_assignments,
        );
        assert!(
            risa < nulb && bf < nulb && risa < nalb && bf < nalb,
            "RISA({risa})/RISA-BF({bf}) must beat NULB({nulb})/NALB({nalb})"
        );
        assert!(
            nulb >= 50,
            "NULB should fragment substantially at this load, got {nulb}"
        );
        assert!(rep.rendered.contains("Figure 5"));
        // No drops at this load (the paper reports none either).
        assert!(rep.runs.iter().all(|r| r.dropped == 0));
        // §5.1: the utilizations agree across algorithms when nothing drops.
        let u0 = by(Algorithm::Nulb).cpu_utilization;
        for a in Algorithm::ALL {
            assert!((by(a).cpu_utilization - u0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig6_counts_match_paper_bins() {
        let rep = fig6(3);
        // Azure-3000 CPU histogram: the four paper counts appear verbatim.
        for count in ["1326", "1269", "316", "89"] {
            assert!(rep.rendered.contains(count), "missing bin count {count}");
        }
        assert!(rep.rendered.contains("Azure-7500"));
    }

    #[test]
    fn run_matrix_is_complete_and_labelled() {
        let cfg = SimConfig::paper();
        let specs = [WorkloadSpec::synthetic(50, 1)];
        let runs = run_matrix(&cfg, &specs, &Algorithm::ALL, true);
        assert_eq!(runs.len(), 4);
        let mut algos: Vec<Algorithm> = runs.iter().map(|r| r.algorithm).collect();
        algos.sort_by_key(|a| a.label());
        algos.dedup();
        assert_eq!(algos.len(), 4);
    }

    #[test]
    fn seed_sweep_preserves_ordering() {
        let rep = fig5_seed_sweep(&[1, 2, 3], 800);
        assert_eq!(rep.runs.len(), 12);
        let mean = |a: Algorithm| {
            let rs: Vec<f64> = rep
                .runs
                .iter()
                .filter(|r| r.algorithm == a)
                .map(|r| r.inter_rack_assignments as f64)
                .collect();
            rs.iter().sum::<f64>() / rs.len() as f64
        };
        assert!(mean(Algorithm::Risa) < mean(Algorithm::Nulb));
        assert!(mean(Algorithm::RisaBf) < mean(Algorithm::Nalb));
        assert!(rep.rendered.contains("mean"));
    }

    #[test]
    fn ablation_alpha_scales_power() {
        let rep = ablation_alpha(5, &[0.5, 1.0]);
        let p = |alpha: f64| {
            rep.runs
                .iter()
                .find(|r| {
                    r.algorithm == Algorithm::Risa
                        && (r.optical_power_w > 0.0)
                        && ((alpha - 0.5).abs() < 1e-9)
                })
                .map(|r| r.optical_power_w)
        };
        // Power under α=1.0 strictly exceeds α=0.5 for the same runs.
        let risa: Vec<f64> = rep
            .runs
            .iter()
            .filter(|r| r.algorithm == Algorithm::Risa)
            .map(|r| r.optical_power_w)
            .collect();
        assert_eq!(risa.len(), 2);
        assert!(risa[1] > risa[0], "α=1.0 power must exceed α=0.5");
        let _ = p(0.5);
    }
}
