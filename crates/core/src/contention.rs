//! Contention ratio (CR): the scarce-resource heuristic shared by NULB,
//! NALB and RISA's fallback path (§4.1).
//!
//! `CR(r) = requested(r) / available(r)` over the candidate box set; the
//! resource with the highest CR is searched for first. Ties (and the
//! all-zero-demand case) resolve in canonical CPU → RAM → storage order,
//! which the paper leaves unspecified.

use crate::nulb::RackFilter;
use risa_topology::{Cluster, ResourceKind, UnitDemand, ALL_RESOURCES};

/// CR per resource kind. `available == 0` with non-zero demand yields
/// `f64::INFINITY` (that resource is maximally contended — and the VM will
/// drop in the compute phase anyway).
///
/// Algorithm 2's pseudocode computes availability by **scanning the box
/// table** ("for all res_type: append CR(res_type)"); the per-VM scan is
/// part of the NULB/NALB cost the paper's Figures 11/12 measure. Since the
/// cluster now carries incremental totals, the *values* are read in O(1) —
/// while [`crate::WorkCounters`] still charges the scan the baseline
/// algorithms are defined with, keeping the machine-independent cost model
/// identical to the seed's.
///
/// Under [`RackFilter::Admitting`] each kind's availability is summed over
/// the racks that can grant the VM's own demand of that kind (RISA's
/// `SUPER_RACK`), read from the placement index's key table.
pub fn contention_ratios(cluster: &Cluster, demand: &UnitDemand, restrict: RackFilter) -> [f64; 3] {
    let mut scratch = crate::work::WorkCounters::new();
    contention_ratios_counted(cluster, demand, restrict, &mut scratch)
}

/// [`contention_ratios`] with work accounting (the per-VM scan cost the
/// Figure 11/12 experiments attribute to NULB/NALB).
pub(crate) fn contention_ratios_counted(
    cluster: &Cluster,
    demand: &UnitDemand,
    restrict: RackFilter,
    work: &mut crate::work::WorkCounters,
) -> [f64; 3] {
    let mut crs = [0.0f64; 3];
    for kind in ALL_RESOURCES {
        let req = demand.get(kind) as f64;
        let avail = match restrict {
            RackFilter::All => {
                // Identical to the naive Σ over boxes_of_kind; the counter
                // charges the full scan that sum used to perform.
                work.boxes_scanned += cluster.config().boxes_of_kind(kind) as u64;
                cluster.total_available(kind) as f64
            }
            RackFilter::Admitting => {
                // The naive sum walks the kind's SUPER_RACK list.
                let (racks, total) = cluster.admitting_racks(kind, demand.get(kind));
                work.racks_scanned += racks as u64;
                total as f64
            }
        };
        crs[kind.index()] = if req == 0.0 {
            0.0
        } else if avail == 0.0 {
            f64::INFINITY
        } else {
            req / avail
        };
    }
    crs
}

/// The most-contended resource kind (highest CR, ties to canonical order).
pub fn most_contended(
    cluster: &Cluster,
    demand: &UnitDemand,
    restrict: RackFilter,
) -> ResourceKind {
    let mut scratch = crate::work::WorkCounters::new();
    most_contended_counted(cluster, demand, restrict, &mut scratch)
}

/// [`most_contended`] with work accounting.
pub(crate) fn most_contended_counted(
    cluster: &Cluster,
    demand: &UnitDemand,
    restrict: RackFilter,
    work: &mut crate::work::WorkCounters,
) -> ResourceKind {
    let crs = contention_ratios_counted(cluster, demand, restrict, work);
    let mut best = ResourceKind::Cpu;
    for kind in ALL_RESOURCES {
        if crs[kind.index()] > crs[best.index()] {
            best = kind;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use risa_topology::TopologyConfig;

    /// The paper's toy example 1 arithmetic (§4.3.1): CR(CPU)=0.08,
    /// CR(RAM)=0.25, CR(STO)=0.17 for an 8-core/16 GB/128 GB VM against
    /// the Table 3 availability.
    #[test]
    fn toy_example1_ratios() {
        let cluster = crate::toy::table3_cluster();
        let demand = crate::toy::typical_vm_demand(&cluster);
        let crs = contention_ratios(&cluster, &demand, RackFilter::All);
        // Units: CPU req 2u of 24u free; RAM 4u of 16u; STO 2u of 12u.
        assert!((crs[0] - 2.0 / 24.0).abs() < 1e-12, "CPU CR {}", crs[0]);
        assert!((crs[1] - 4.0 / 16.0).abs() < 1e-12, "RAM CR {}", crs[1]);
        assert!((crs[2] - 2.0 / 12.0).abs() < 1e-12, "STO CR {}", crs[2]);
        // Paper prints 0.08 / 0.25 / 0.17 (they divide natural amounts:
        // 8/96 cores, 16/64 GB, 128/768 GB — identical ratios).
        assert!((crs[0] - 0.0833).abs() < 1e-3);
        assert!((crs[1] - 0.25).abs() < 1e-12);
        assert!((crs[2] - 0.1667).abs() < 1e-3);
        assert_eq!(
            most_contended(&cluster, &demand, RackFilter::All),
            ResourceKind::Ram
        );
    }

    #[test]
    fn zero_demand_has_zero_cr() {
        let cluster = Cluster::new(TopologyConfig::paper());
        let crs = contention_ratios(&cluster, &UnitDemand::ZERO, RackFilter::All);
        assert_eq!(crs, [0.0; 3]);
        // Ties resolve to CPU.
        assert_eq!(
            most_contended(&cluster, &UnitDemand::ZERO, RackFilter::All),
            ResourceKind::Cpu
        );
    }

    #[test]
    fn exhausted_resource_is_infinitely_contended() {
        let mut cluster = Cluster::new(TopologyConfig::paper());
        for b in 0..cluster.num_boxes() {
            let id = risa_topology::BoxId(b as u32);
            if cluster.kind_of(id) == ResourceKind::Storage {
                cluster.force_available(id, 0);
            }
        }
        let d = UnitDemand::new(1, 1, 1);
        let crs = contention_ratios(&cluster, &d, RackFilter::All);
        assert!(crs[2].is_infinite());
        assert_eq!(
            most_contended(&cluster, &d, RackFilter::All),
            ResourceKind::Storage
        );
    }

    #[test]
    fn restriction_changes_denominator() {
        let mut cluster = Cluster::new(TopologyConfig::paper());
        let d = UnitDemand::new(4, 4, 4);
        // A pristine cluster admits every rack, so they coincide.
        assert_eq!(
            contention_ratios(&cluster, &d, RackFilter::All),
            contention_ratios(&cluster, &d, RackFilter::Admitting)
        );
        // Leave rack 0's CPU boxes 3 units each: too few for the VM, so
        // its 6 free units leave the restricted CPU denominator only.
        cluster.force_available(risa_topology::BoxId(0), 3);
        cluster.force_available(risa_topology::BoxId(1), 3);
        let all = contention_ratios(&cluster, &d, RackFilter::All);
        let restricted = contention_ratios(&cluster, &d, RackFilter::Admitting);
        assert_eq!(all[0], 4.0 / (4608.0 - 250.0));
        assert_eq!(restricted[0], 4.0 / (4608.0 - 256.0));
        assert_eq!(all[1..], restricted[1..]);
    }
}
