//! Fixtures reproducing the paper's §4.3 toy examples (Tables 3 and 4).
//!
//! Table 3 describes a 2-rack DDC with two boxes per resource per rack:
//!
//! | resource | capacity/box | avail (rack0 box0, rack0 box1, rack1 box0, rack1 box1) |
//! |----------|--------------|---------------------------------------------------------|
//! | CPU      | 64 cores     | 0, 0, 64, 32 |
//! | RAM      | 64 GB        | 0, 16, 32, 16 |
//! | storage  | 512 GB       | 0, 0, 256, 512 |
//!
//! Table 4 then schedules eight CPU-only VMs (15, 10, 30, 12, 5, 8, 16,
//! 4 cores) onto rack 1. The paper tracks **core-granular** availability
//! there, so [`table4_cluster`] uses a 1-core CPU unit; [`table3_cluster`]
//! keeps the paper's 4-core unit.
//!
//! Known paper inconsistency: Table 4's RISA-BF column claims all eight
//! VMs fit, but they total 100 cores against 96 available — VM 6
//! (16 cores) cannot fit under any policy.
//! Our reproduction matches every Table 4 cell *except* that impossible
//! one, for both RISA and RISA-BF.

use risa_topology::{BoxId, Cluster, TopologyConfig, UnitDemand, UnitSizes};

/// Box ids of the Table 3 cluster, in the table's (resource, id) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table3Ids {
    /// CPU boxes, table ids 0..=3.
    pub cpu: [BoxId; 4],
    /// RAM boxes, table ids 0..=3.
    pub ram: [BoxId; 4],
    /// Storage boxes, table ids 0..=3.
    pub sto: [BoxId; 4],
}

/// Global box ids corresponding to Table 3's per-resource ids.
///
/// Our cluster numbers boxes rack-major (rack 0: CPU 0-1, RAM 2-3, STO 4-5;
/// rack 1: CPU 6-7, RAM 8-9, STO 10-11), so Table 3's "CPU id 2" (rack 1,
/// box 0) is global box 6, and so on.
pub fn table3_ids() -> Table3Ids {
    Table3Ids {
        cpu: [BoxId(0), BoxId(1), BoxId(6), BoxId(7)],
        ram: [BoxId(2), BoxId(3), BoxId(8), BoxId(9)],
        sto: [BoxId(4), BoxId(5), BoxId(10), BoxId(11)],
    }
}

fn build(units: UnitSizes) -> Cluster {
    let cfg = TopologyConfig {
        racks: 2,
        box_mix: risa_topology::BoxMix {
            cpu: 2,
            ram: 2,
            storage: 2,
        },
        bricks_per_box: 1,
        units_per_brick: 16,
        units,
    };
    let mut c = Cluster::new(cfg);
    let ids = table3_ids();
    let u = units;

    // Capacities: CPU 64 cores, RAM 64 GB, storage 512 GB per box.
    for b in ids.cpu {
        c.set_box_capacity(b, 64 / u.cpu_cores_per_unit);
    }
    for b in ids.ram {
        c.set_box_capacity(b, 64 / u.ram_gb_per_unit);
    }
    for b in ids.sto {
        c.set_box_capacity(b, 512 / u.storage_gb_per_unit);
    }

    // Availability column of Table 3, converted to units.
    let cpu_avail = [0u32, 0, 64, 32];
    let ram_avail = [0u32, 16, 32, 16];
    let sto_avail = [0u32, 0, 256, 512];
    for (i, b) in ids.cpu.into_iter().enumerate() {
        c.force_available(b, cpu_avail[i] / u.cpu_cores_per_unit);
    }
    for (i, b) in ids.ram.into_iter().enumerate() {
        c.force_available(b, ram_avail[i] / u.ram_gb_per_unit);
    }
    for (i, b) in ids.sto.into_iter().enumerate() {
        c.force_available(b, sto_avail[i] / u.storage_gb_per_unit);
    }
    c
}

/// The Table 3 cluster at the paper's Table 1 unit sizes (4-core CPU unit).
pub fn table3_cluster() -> Cluster {
    build(UnitSizes::paper())
}

/// The Table 3 cluster with a **1-core CPU unit**, matching Table 4's
/// core-granular packing arithmetic.
pub fn table4_cluster() -> Cluster {
    build(UnitSizes {
        cpu_cores_per_unit: 1,
        ..UnitSizes::paper()
    })
}

/// The §4.3.1 "typical VM": 8 cores, 16 GB RAM, 128 GB storage.
pub fn typical_vm_demand(cluster: &Cluster) -> UnitDemand {
    UnitDemand::from_natural(&cluster.config().units, 8, 16, 128)
}

/// Table 4's CPU-only request sequence, in cores.
pub const TABLE4_CPU_REQUESTS: [u32; 8] = [15, 10, 30, 12, 5, 8, 16, 4];

#[cfg(test)]
mod tests {
    use super::*;
    use risa_topology::{RackId, ResourceKind};

    #[test]
    fn table3_availability_loaded_exactly() {
        let c = table3_cluster();
        let ids = table3_ids();
        // CPU in 4-core units.
        assert_eq!(c.available(ids.cpu[0]), 0);
        assert_eq!(c.available(ids.cpu[2]), 16);
        assert_eq!(c.available(ids.cpu[3]), 8);
        // RAM in 4 GB units.
        assert_eq!(c.available(ids.ram[1]), 4);
        assert_eq!(c.available(ids.ram[2]), 8);
        // Storage in 64 GB units; capacity 512 GB = 8 units.
        assert_eq!(c.box_state(ids.sto[0]).capacity, 8);
        assert_eq!(c.available(ids.sto[2]), 4);
        assert_eq!(c.available(ids.sto[3]), 8);
        c.check_invariants().unwrap();
    }

    #[test]
    fn rack0_cannot_host_the_typical_vm() {
        let c = table3_cluster();
        let d = typical_vm_demand(&c);
        assert!(!c.rack_fits(RackId(0), &d));
        assert!(c.rack_fits(RackId(1), &d));
    }

    #[test]
    fn table4_cluster_is_core_granular() {
        let c = table4_cluster();
        let ids = table3_ids();
        assert_eq!(c.available(ids.cpu[2]), 64);
        assert_eq!(c.available(ids.cpu[3]), 32);
        assert_eq!(c.config().units.cpu_cores_per_unit, 1);
        // RAM/storage untouched by the unit change.
        assert_eq!(c.available(ids.ram[2]), 8);
    }

    #[test]
    fn table4_totals_expose_the_paper_inconsistency() {
        // 100 cores demanded vs 96 available: VM 6 cannot fit.
        let total: u32 = TABLE4_CPU_REQUESTS.iter().sum();
        let c = table4_cluster();
        let avail = c
            .boxes_in_rack(RackId(1), ResourceKind::Cpu)
            .iter()
            .map(|&b| c.available(b))
            .sum::<u32>();
        assert_eq!(total, 100);
        assert_eq!(avail, 96);
    }
}
