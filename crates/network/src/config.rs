//! Network configuration: link rates, trunk widths, per-unit flow demands.

use crate::state::MAX_RACK_TRUNK_MBPS;
use serde::{Deserialize, Serialize};

/// Static description of the optical network (§3.1, Table 2 and the switch
/// port counts from §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Capacity of one SiP link in Mb/s (paper: 8 × 25 Gb/s = 200 000 Mb/s).
    pub link_mbps: u64,
    /// Parallel links between a box and its rack switch.
    ///
    /// Figure 3 of the paper draws one SiP mid-board optical module per
    /// brick, so a box's uplink trunk is bricks-per-box = 8 links
    /// (8 × 200 Gb/s = 1.6 Tb/s). This width admits even a fully packed
    /// box's flows, matching the paper's drop-free evaluations
    /// (`experiments::ablation_trunk_width` shows narrower trunks drop).
    pub box_uplink_width: u16,
    /// Parallel links between a rack switch and the inter-rack switch.
    pub rack_uplink_width: u16,
    /// CPU↔RAM bandwidth per unit, Mb/s (Table 2: 5 Gb/s/unit).
    pub cpu_ram_mbps_per_unit: u64,
    /// RAM↔storage bandwidth per unit, Mb/s (Table 2: 1 Gb/s/unit).
    pub ram_sto_mbps_per_unit: u64,
    /// Box switch port count (paper §5.2: 64).
    pub box_switch_ports: u16,
    /// Intra-rack switch port count (paper §5.2: 256).
    pub rack_switch_ports: u16,
    /// Inter-rack switch port count (paper §5.2: 512).
    pub inter_rack_switch_ports: u16,
}

impl NetworkConfig {
    /// The paper's configuration.
    pub const fn paper() -> Self {
        NetworkConfig {
            link_mbps: 200_000,
            box_uplink_width: 8,
            rack_uplink_width: 16,
            cpu_ram_mbps_per_unit: 5_000,
            ram_sto_mbps_per_unit: 1_000,
            box_switch_ports: 64,
            rack_switch_ports: 256,
            inter_rack_switch_ports: 512,
        }
    }

    /// Total Mb/s of one box uplink trunk.
    pub const fn box_trunk_mbps(&self) -> u64 {
        self.link_mbps * self.box_uplink_width as u64
    }

    /// Total Mb/s of one rack uplink trunk.
    pub const fn rack_trunk_mbps(&self) -> u64 {
        self.link_mbps * self.rack_uplink_width as u64
    }

    /// Sanity-check the configuration. A rack uplink trunk must carry
    /// less than 2⁴⁸ Mb/s: the rack ordering keys its free bandwidth in
    /// 48 bits, and so any one link's free bandwidth leaves the top bit
    /// of its word in the flat trunk layout free for the down flag.
    pub fn validate(&self) -> Result<(), String> {
        if self.link_mbps == 0 {
            return Err("links must have non-zero capacity".into());
        }
        if self.box_uplink_width == 0 || self.rack_uplink_width == 0 {
            return Err("trunks must contain at least one link".into());
        }
        let rack_trunk = self
            .link_mbps
            .checked_mul(u64::from(self.rack_uplink_width));
        if rack_trunk.is_none_or(|mbps| mbps > MAX_RACK_TRUNK_MBPS) {
            return Err(format!(
                "a rack uplink trunk may carry at most {MAX_RACK_TRUNK_MBPS} Mb/s"
            ));
        }
        for p in [
            self.box_switch_ports,
            self.rack_switch_ports,
            self.inter_rack_switch_ports,
        ] {
            if !p.is_power_of_two() || p < 2 {
                return Err(format!(
                    "switch port counts must be powers of two >= 2 for a Benes fabric, got {p}"
                ));
            }
        }
        Ok(())
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 2 and the §3.1/§5.2 constants.
    #[test]
    fn paper_constants() {
        let c = NetworkConfig::paper();
        assert_eq!(c.link_mbps, 200_000); // 8 x 25 Gb/s
        assert_eq!(c.cpu_ram_mbps_per_unit, 5_000); // 5 Gb/s/unit
        assert_eq!(c.ram_sto_mbps_per_unit, 1_000); // 1 Gb/s/unit
        assert_eq!(c.box_switch_ports, 64);
        assert_eq!(c.rack_switch_ports, 256);
        assert_eq!(c.inter_rack_switch_ports, 512);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn trunk_capacity_derivation() {
        let c = NetworkConfig::paper();
        // One SiP link per brick: 8 x 200 Gb/s per box.
        assert_eq!(c.box_trunk_mbps(), 1_600_000);
        assert_eq!(c.rack_trunk_mbps(), 3_200_000);
    }

    #[test]
    fn validation_rejects_non_pow2_switches() {
        let mut c = NetworkConfig::paper();
        c.rack_switch_ports = 100;
        assert!(c.validate().is_err());

        let mut c = NetworkConfig::paper();
        c.box_uplink_width = 0;
        assert!(c.validate().is_err());

        let mut c = NetworkConfig::paper();
        c.link_mbps = 0;
        assert!(c.validate().is_err());

        // The rack ordering's key holds 48 bits of free bandwidth.
        let mut c = NetworkConfig::paper();
        c.link_mbps = (1 << 48) / u64::from(c.rack_uplink_width);
        assert!(c.validate().is_err());
        c.link_mbps -= 1;
        assert!(c.validate().is_ok());
        c.link_mbps = u64::MAX;
        assert!(c.validate().is_err());
    }
}
