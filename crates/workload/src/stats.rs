//! Workload characterization (the numbers behind Figure 6's narrative).

use crate::vm::Workload;

/// Summary statistics of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    /// Number of VM requests.
    pub count: usize,
    /// Mean CPU demand, cores.
    pub mean_cpu_cores: f64,
    /// Mean RAM demand, GB.
    pub mean_ram_gb: f64,
    /// Mean storage demand, GB.
    pub mean_storage_gb: f64,
    /// Fraction of "small" VMs (≤2 cores and ≤4 GB), the quantity the
    /// paper uses to contrast Azure-3000/5000/7500 (§5.2).
    pub small_vm_fraction: f64,
    /// Mean lifetime, time units.
    pub mean_lifetime: f64,
    /// Time of the last arrival.
    pub last_arrival: f64,
    /// Latest departure across all VMs (simulation horizon).
    pub horizon: f64,
    /// Σ (lifetime) — total VM-time, the numerator of the expected
    /// steady-state concurrency `vm_time / horizon`.
    pub total_vm_time: f64,
}

impl WorkloadStats {
    /// Compute statistics for `w`.
    pub fn of(w: &Workload) -> Self {
        let n = w.len().max(1) as f64;
        let mut cpu = 0.0;
        let mut ram = 0.0;
        let mut sto = 0.0;
        let mut life = 0.0;
        let mut small = 0usize;
        let mut last_arrival = 0.0f64;
        let mut horizon = 0.0f64;
        for vm in w.vms() {
            cpu += vm.cpu_cores as f64;
            ram += vm.ram_gb as f64;
            sto += vm.storage_gb as f64;
            life += vm.lifetime;
            if vm.cpu_cores <= 2 && vm.ram_gb <= 4 {
                small += 1;
            }
            last_arrival = last_arrival.max(vm.arrival);
            horizon = horizon.max(vm.departure());
        }
        WorkloadStats {
            count: w.len(),
            mean_cpu_cores: cpu / n,
            mean_ram_gb: ram / n,
            mean_storage_gb: sto / n,
            small_vm_fraction: small as f64 / n,
            mean_lifetime: life / n,
            last_arrival,
            horizon,
            total_vm_time: life,
        }
    }

    /// Expected average concurrency over the run: `Σ lifetime / horizon`.
    pub fn mean_concurrency(&self) -> f64 {
        if self.horizon <= 0.0 {
            0.0
        } else {
            self.total_vm_time / self.horizon
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::azure::AzureSubset;
    use crate::synthetic::SyntheticConfig;

    #[test]
    fn synthetic_means_match_uniform_expectation() {
        let w = Workload::synthetic(&SyntheticConfig::paper(21));
        let s = WorkloadStats::of(&w);
        assert_eq!(s.count, 2500);
        // U{1..32}: mean 16.5; allow sampling noise.
        assert!(
            (s.mean_cpu_cores - 16.5).abs() < 0.6,
            "{}",
            s.mean_cpu_cores
        );
        assert!((s.mean_ram_gb - 16.5).abs() < 0.6);
        assert_eq!(s.mean_storage_gb, 128.0);
        // Staircase mean: 6300 + 360 * mean(step) where steps 0..=24.
        assert!((s.mean_lifetime - (6300.0 + 360.0 * 12.0)).abs() < 360.0);
        assert!(s.horizon > s.last_arrival);
    }

    /// §5.2: "Azure-7500 has the greatest percentage of small VMs",
    /// Azure-3000 the lowest.
    #[test]
    fn small_vm_fraction_ordering_matches_paper() {
        let f = |s: AzureSubset| WorkloadStats::of(&Workload::azure(s, 17)).small_vm_fraction;
        let (f3, f5, f7) = (
            f(AzureSubset::N3000),
            f(AzureSubset::N5000),
            f(AzureSubset::N7500),
        );
        assert!(f3 < f5, "Azure-3000 ({f3}) < Azure-5000 ({f5})");
        assert!(f5 < f7, "Azure-5000 ({f5}) < Azure-7500 ({f7})");
    }

    #[test]
    fn azure_cpu_means_are_small() {
        // §5.2: "the CPU requirement is generally low" vs synthetic 16.5.
        let s = WorkloadStats::of(&Workload::azure(AzureSubset::N3000, 17));
        assert!(s.mean_cpu_cores < 3.0);
        assert!(s.mean_ram_gb < 8.0);
    }

    #[test]
    fn mean_concurrency_sane() {
        let w = Workload::synthetic(&SyntheticConfig::paper(4));
        let s = WorkloadStats::of(&w);
        let c = s.mean_concurrency();
        // ~2500 VMs × ~10 620 u lifetime over a ~40 000 u horizon ≈ 650.
        assert!(c > 400.0 && c < 900.0, "concurrency {c}");
    }

    #[test]
    fn empty_workload_is_safe() {
        let w = Workload::from_vms("empty", vec![]);
        let s = WorkloadStats::of(&w);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_concurrency(), 0.0);
    }
}
