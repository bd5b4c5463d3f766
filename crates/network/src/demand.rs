//! Per-VM bandwidth demands (Table 2 of the paper).

use crate::config::NetworkConfig;
use risa_topology::{ResourceKind, UnitDemand};

/// The two flows a VM needs once placed: CPU↔RAM and RAM↔storage.
///
/// Table 2 gives per-unit rates. The paper does not spell out which side's
/// unit count scales a flow; we charge the **max** of the two endpoints'
/// unit counts, which upper-bounds either reading and keeps the demand
/// monotone in every component (property-tested below).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDemands {
    /// CPU↔RAM flow, Mb/s.
    pub cpu_ram_mbps: u64,
    /// RAM↔storage flow, Mb/s.
    pub ram_sto_mbps: u64,
}

impl FlowDemands {
    /// Demands for a VM with the given unit-granular resource demand.
    pub fn for_vm(cfg: &NetworkConfig, demand: &UnitDemand) -> Self {
        let cpu = demand.get(ResourceKind::Cpu) as u64;
        let ram = demand.get(ResourceKind::Ram) as u64;
        let sto = demand.get(ResourceKind::Storage) as u64;
        FlowDemands {
            cpu_ram_mbps: cfg.cpu_ram_mbps_per_unit * cpu.max(ram),
            ram_sto_mbps: cfg.ram_sto_mbps_per_unit * ram.max(sto),
        }
    }

    /// Combined demand crossing the RAM box's uplink (both flows terminate
    /// at the RAM box).
    pub fn ram_box_mbps(&self) -> u64 {
        self.cpu_ram_mbps + self.ram_sto_mbps
    }

    /// Total bandwidth of both flows.
    pub fn total_mbps(&self) -> u64 {
        self.cpu_ram_mbps + self.ram_sto_mbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demands(cpu: u32, ram: u32, sto: u32) -> FlowDemands {
        FlowDemands::for_vm(&NetworkConfig::paper(), &UnitDemand::new(cpu, ram, sto))
    }

    /// Table 2 rates at unit granularity.
    #[test]
    fn per_unit_rates() {
        let d = demands(1, 1, 1);
        assert_eq!(d.cpu_ram_mbps, 5_000);
        assert_eq!(d.ram_sto_mbps, 1_000);
        assert_eq!(d.total_mbps(), 6_000);
    }

    /// The paper's largest synthetic VM: 32 cores (8u), 32 GB (8u), 128 GB (2u).
    #[test]
    fn max_synthetic_vm() {
        let d = demands(8, 8, 2);
        assert_eq!(d.cpu_ram_mbps, 40_000); // 5 Gb/s x 8
        assert_eq!(d.ram_sto_mbps, 8_000); // 1 Gb/s x 8
                                           // Both flows fit one 200 Gb/s link with room to spare.
        assert!(d.ram_box_mbps() < 200_000);
    }

    #[test]
    fn max_of_endpoints_scales_flows() {
        // RAM-heavy VM: the CPU-RAM flow is driven by the RAM side.
        assert_eq!(demands(1, 8, 1).cpu_ram_mbps, 40_000);
        // Storage-heavy: RAM-STO driven by the storage side.
        assert_eq!(demands(1, 1, 4).ram_sto_mbps, 4_000);
    }

    #[test]
    fn monotone_in_every_component() {
        let base = demands(2, 2, 2);
        for (c, r, s) in [(3, 2, 2), (2, 3, 2), (2, 2, 3)] {
            let bigger = demands(c, r, s);
            assert!(bigger.cpu_ram_mbps >= base.cpu_ram_mbps);
            assert!(bigger.ram_sto_mbps >= base.ram_sto_mbps);
        }
    }

    #[test]
    fn zero_demand_zero_flows() {
        let d = demands(0, 0, 0);
        assert_eq!(d.total_mbps(), 0);
    }
}
