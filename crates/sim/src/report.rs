//! Run reports (one simulation) and experiment reports (one paper figure).

use crate::faults::FaultReport;
use risa_sched::{Algorithm, WorkCounters};
use serde::{Deserialize, Serialize};

/// Everything measured over one simulation run — the raw material for each
/// paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Scheduling algorithm used.
    pub algorithm: Algorithm,
    /// Workload label ("synthetic", "Azure-3000", …).
    pub workload: String,
    /// Requests in the workload.
    pub total_vms: u32,
    /// Admitted VMs.
    pub admitted: u32,
    /// Dropped VMs (compute + network).
    pub dropped: u32,
    /// Drops in the compute phase.
    pub dropped_compute: u32,
    /// Drops in the network phase.
    pub dropped_network: u32,
    /// Admitted VMs whose three grants span racks (Figures 5 and 7).
    pub inter_rack_assignments: u32,
    /// RISA/RISA-BF assignments that used the SUPER_RACK fallback.
    pub fallback_assignments: u32,
    /// Time-weighted mean CPU utilization, fraction (§5.1 text).
    pub cpu_utilization: f64,
    /// Time-weighted mean RAM utilization, fraction.
    pub ram_utilization: f64,
    /// Time-weighted mean storage utilization, fraction.
    pub storage_utilization: f64,
    /// Time-weighted mean intra-rack network utilization (Figure 8 left).
    pub intra_net_utilization: f64,
    /// Time-weighted mean inter-rack network utilization (Figure 8 right).
    pub inter_net_utilization: f64,
    /// Total optical energy over the run, joules.
    pub optical_energy_j: f64,
    /// Mean optical power = energy / duration, watts (Figure 9).
    pub optical_power_w: f64,
    /// Mean CPU-RAM round-trip latency over admitted VMs, ns (Figure 10).
    pub mean_cpu_ram_latency_ns: f64,
    /// Wall-clock seconds spent inside the scheduler (Figures 11/12).
    ///
    /// Measured **amortized** by default: one clock pair around every
    /// K-th `Scheduler::schedule` call (K =
    /// [`crate::DEFAULT_SCHED_TIMING_BATCH`]), scaled by `calls/sampled` —
    /// an unbiased estimate at a fraction of the clock-read cost on the
    /// per-arrival hot path. `SimulationBuilder::sched_timing_batch(1)`
    /// restores the exact per-call measurement; the Figure 11/12
    /// experiments (sequential `run_matrix`) always use it. This is the
    /// report's only wall-clock field — everything else is deterministic.
    pub sched_seconds: f64,
    /// Deterministic scheduler operation counters — the machine-independent
    /// complement to `sched_seconds` (Figures 11/12).
    pub work: WorkCounters,
    /// Simulated duration, paper time units (≡ seconds).
    pub sim_duration: f64,
    /// Resilience metrics when the run carried a fault-injection scenario
    /// ([`crate::SimulationBuilder::faults`]); `None` on faults-off runs.
    ///
    /// Serialization omits the field entirely when `None`, so faults-off
    /// reports stay byte-identical to the pre-fault engine's output (and
    /// old report JSON still deserializes).
    pub faults: Option<FaultReport>,
}

// Hand-written (not derived) so a `None` faults block serializes to *no*
// field rather than `null` — the byte-identity contract above.
impl Serialize for RunReport {
    fn to_value(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("algorithm".into(), self.algorithm.to_value()),
            ("workload".into(), self.workload.to_value()),
            ("total_vms".into(), self.total_vms.to_value()),
            ("admitted".into(), self.admitted.to_value()),
            ("dropped".into(), self.dropped.to_value()),
            ("dropped_compute".into(), self.dropped_compute.to_value()),
            ("dropped_network".into(), self.dropped_network.to_value()),
            (
                "inter_rack_assignments".into(),
                self.inter_rack_assignments.to_value(),
            ),
            (
                "fallback_assignments".into(),
                self.fallback_assignments.to_value(),
            ),
            ("cpu_utilization".into(), self.cpu_utilization.to_value()),
            ("ram_utilization".into(), self.ram_utilization.to_value()),
            (
                "storage_utilization".into(),
                self.storage_utilization.to_value(),
            ),
            (
                "intra_net_utilization".into(),
                self.intra_net_utilization.to_value(),
            ),
            (
                "inter_net_utilization".into(),
                self.inter_net_utilization.to_value(),
            ),
            ("optical_energy_j".into(), self.optical_energy_j.to_value()),
            ("optical_power_w".into(), self.optical_power_w.to_value()),
            (
                "mean_cpu_ram_latency_ns".into(),
                self.mean_cpu_ram_latency_ns.to_value(),
            ),
            ("sched_seconds".into(), self.sched_seconds.to_value()),
            ("work".into(), self.work.to_value()),
            ("sim_duration".into(), self.sim_duration.to_value()),
        ];
        if let Some(f) = &self.faults {
            fields.push(("faults".into(), f.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for RunReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::value::field;
        Ok(RunReport {
            algorithm: Algorithm::from_value(field(v, "algorithm")?)?,
            workload: String::from_value(field(v, "workload")?)?,
            total_vms: u32::from_value(field(v, "total_vms")?)?,
            admitted: u32::from_value(field(v, "admitted")?)?,
            dropped: u32::from_value(field(v, "dropped")?)?,
            dropped_compute: u32::from_value(field(v, "dropped_compute")?)?,
            dropped_network: u32::from_value(field(v, "dropped_network")?)?,
            inter_rack_assignments: u32::from_value(field(v, "inter_rack_assignments")?)?,
            fallback_assignments: u32::from_value(field(v, "fallback_assignments")?)?,
            cpu_utilization: f64::from_value(field(v, "cpu_utilization")?)?,
            ram_utilization: f64::from_value(field(v, "ram_utilization")?)?,
            storage_utilization: f64::from_value(field(v, "storage_utilization")?)?,
            intra_net_utilization: f64::from_value(field(v, "intra_net_utilization")?)?,
            inter_net_utilization: f64::from_value(field(v, "inter_net_utilization")?)?,
            optical_energy_j: f64::from_value(field(v, "optical_energy_j")?)?,
            optical_power_w: f64::from_value(field(v, "optical_power_w")?)?,
            mean_cpu_ram_latency_ns: f64::from_value(field(v, "mean_cpu_ram_latency_ns")?)?,
            sched_seconds: f64::from_value(field(v, "sched_seconds")?)?,
            work: WorkCounters::from_value(field(v, "work")?)?,
            sim_duration: f64::from_value(field(v, "sim_duration")?)?,
            faults: match v.get("faults") {
                Some(fv) => Some(FaultReport::from_value(fv)?),
                None => None,
            },
        })
    }
}

impl RunReport {
    /// Admitted VMs fully contained in one rack.
    pub fn intra_rack_assignments(&self) -> u32 {
        self.admitted - self.inter_rack_assignments
    }

    /// Inter-rack assignments as a percentage of all requests (Figure 7's
    /// y-axis: "percentage of inter-rack VM assignments out of the total
    /// number of VMs").
    pub fn inter_rack_percent(&self) -> f64 {
        if self.total_vms == 0 {
            0.0
        } else {
            100.0 * self.inter_rack_assignments as f64 / self.total_vms as f64
        }
    }
}

/// A rendered experiment: identifies the paper artifact it regenerates and
/// carries both the formatted table and the raw rows.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Paper artifact id ("fig5", "table4", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Rendered monospace table (what `risa-cli experiment` prints).
    pub rendered: String,
    /// The underlying runs.
    pub runs: Vec<RunReport>,
}

impl ExperimentReport {
    /// The run for `algorithm` on `workload`, if present.
    pub fn run(&self, algorithm: Algorithm, workload: &str) -> Option<&RunReport> {
        self.runs
            .iter()
            .find(|r| r.algorithm == algorithm && r.workload == workload)
    }

    /// All runs for one workload, in [`Algorithm::ALL`] order.
    pub fn runs_for_workload(&self, workload: &str) -> Vec<&RunReport> {
        Algorithm::ALL
            .iter()
            .filter_map(|&a| self.run(a, workload))
            .collect()
    }
}

impl std::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.rendered)
    }
}

/// Host description for the Table 5 analogue that `risa-cli info` and
/// `risa-cli bench` print first.
pub fn host_info() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "host: {} logical cores, {} {}, rustc (paper Table 5 used an AMD Ryzen 7 2700X, 32 GB DDR4)",
        cores,
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(algorithm: Algorithm, workload: &str, inter: u32) -> RunReport {
        RunReport {
            algorithm,
            workload: workload.into(),
            total_vms: 100,
            admitted: 100,
            dropped: 0,
            dropped_compute: 0,
            dropped_network: 0,
            inter_rack_assignments: inter,
            fallback_assignments: 0,
            cpu_utilization: 0.5,
            ram_utilization: 0.5,
            storage_utilization: 0.3,
            intra_net_utilization: 0.3,
            inter_net_utilization: 0.0,
            optical_energy_j: 1.0,
            optical_power_w: 1.0,
            mean_cpu_ram_latency_ns: 110.0,
            sched_seconds: 0.1,
            work: WorkCounters::new(),
            sim_duration: 1000.0,
            faults: None,
        }
    }

    #[test]
    fn derived_percentages() {
        let r = dummy(Algorithm::Nulb, "w", 52);
        assert_eq!(r.intra_rack_assignments(), 48);
        assert!((r.inter_rack_percent() - 52.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vms_is_safe() {
        let mut r = dummy(Algorithm::Risa, "w", 0);
        r.total_vms = 0;
        r.admitted = 0;
        assert_eq!(r.inter_rack_percent(), 0.0);
    }

    #[test]
    fn experiment_lookup() {
        let rep = ExperimentReport {
            id: "fig5".into(),
            title: "t".into(),
            rendered: "r".into(),
            runs: vec![
                dummy(Algorithm::Nulb, "synthetic", 255),
                dummy(Algorithm::Risa, "synthetic", 7),
            ],
        };
        assert_eq!(
            rep.run(Algorithm::Risa, "synthetic")
                .unwrap()
                .inter_rack_assignments,
            7
        );
        assert!(rep.run(Algorithm::Nalb, "synthetic").is_none());
        assert_eq!(rep.runs_for_workload("synthetic").len(), 2);
        assert_eq!(format!("{rep}"), "r");
    }

    #[test]
    fn host_info_mentions_cores() {
        assert!(host_info().contains("cores"));
    }

    #[test]
    fn report_serde_roundtrip() {
        let r = dummy(Algorithm::RisaBf, "Azure-3000", 3);
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    /// A faults-off report serializes with no `faults` key at all (the
    /// byte-identity contract with the pre-fault engine), while a
    /// faults-on report appends the block and round-trips.
    #[test]
    fn faults_block_is_omitted_when_absent() {
        let off = dummy(Algorithm::Risa, "w", 0);
        let json = serde_json::to_string(&off).unwrap();
        assert!(!json.contains("faults"));
        assert_eq!(serde_json::from_str::<RunReport>(&json).unwrap(), off);

        let mut on = off.clone();
        on.faults = Some(FaultReport {
            rack_failures: 2,
            rack_repairs: 2,
            trunk_link_downs: 1,
            trunk_link_ups: 1,
            xcvr_downs: 0,
            xcvr_ups: 0,
            evacuated: 5,
            evac_replaced: 4,
            dropped_churn: 1,
            evac_departed: 0,
            mean_evac_latency: 0.6,
            mean_recovery_time: 21.0,
            mean_stranded_units: 3.5,
            mean_stranded_mbps: 2e5,
        });
        let json = serde_json::to_string(&on).unwrap();
        assert!(json.contains("\"faults\""));
        assert!(json.ends_with('}'), "faults is the last field");
        assert_eq!(serde_json::from_str::<RunReport>(&json).unwrap(), on);
    }
}
