//! Topology configuration reproducing Table 1 of the paper.

use crate::resources::{RackId, ResourceKind};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Natural size of one brick unit per resource kind (Table 1, right column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitSizes {
    /// Cores per CPU unit (paper: 4).
    pub cpu_cores_per_unit: u32,
    /// GB per RAM unit (paper: 4).
    pub ram_gb_per_unit: u32,
    /// GB per storage unit (paper: 64).
    pub storage_gb_per_unit: u32,
}

impl UnitSizes {
    /// Table 1 unit sizes.
    pub const fn paper() -> Self {
        UnitSizes {
            cpu_cores_per_unit: 4,
            ram_gb_per_unit: 4,
            storage_gb_per_unit: 64,
        }
    }

    /// Natural size (cores or GB) of one unit of `kind`.
    pub const fn natural_per_unit(&self, kind: ResourceKind) -> u32 {
        match kind {
            ResourceKind::Cpu => self.cpu_cores_per_unit,
            ResourceKind::Ram => self.ram_gb_per_unit,
            ResourceKind::Storage => self.storage_gb_per_unit,
        }
    }
}

impl Default for UnitSizes {
    fn default() -> Self {
        UnitSizes::paper()
    }
}

/// How many boxes of each resource kind a rack holds.
///
/// Table 1 says "rack size = 6 boxes" without stating the mix; the paper's
/// reported utilizations (§5.1: CPU 64.66%, RAM 65.11%, storage 31.72%) are
/// consistent only with a balanced 2+2+2 mix; `risa-cli experiment fig5`
/// prints the utilizations this mix yields beside the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoxMix {
    /// CPU boxes per rack.
    pub cpu: u16,
    /// RAM boxes per rack.
    pub ram: u16,
    /// Storage boxes per rack.
    pub storage: u16,
}

impl BoxMix {
    /// The inferred paper mix: 2 CPU + 2 RAM + 2 storage boxes per rack.
    pub const fn paper() -> Self {
        BoxMix {
            cpu: 2,
            ram: 2,
            storage: 2,
        }
    }

    /// Boxes of `kind` per rack.
    pub const fn of(&self, kind: ResourceKind) -> u16 {
        match kind {
            ResourceKind::Cpu => self.cpu,
            ResourceKind::Ram => self.ram,
            ResourceKind::Storage => self.storage,
        }
    }

    /// Total boxes per rack.
    pub const fn total(&self) -> u16 {
        self.cpu + self.ram + self.storage
    }

    /// The global ids of `rack`'s boxes of `kind`. Ids are rack-major and,
    /// within a rack, CPU → RAM → storage, so they are one contiguous
    /// range: this is the layout [`Cluster::new`](crate::Cluster::new)
    /// assigns, deserialization enforces, and the placement index scans.
    pub(crate) const fn box_range(&self, rack: RackId, kind: ResourceKind) -> Range<usize> {
        let before = match kind {
            ResourceKind::Cpu => 0,
            ResourceKind::Ram => self.cpu,
            ResourceKind::Storage => self.cpu + self.ram,
        };
        let start = rack.0 as usize * self.total() as usize + before as usize;
        start..start + self.of(kind) as usize
    }
}

impl Default for BoxMix {
    fn default() -> Self {
        BoxMix::paper()
    }
}

/// Full topology configuration (Table 1 plus the inferred box mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Racks per cluster (paper: 18).
    pub racks: u16,
    /// Per-rack box mix (paper: 6 boxes; inferred 2/2/2).
    pub box_mix: BoxMix,
    /// Bricks per box (paper: 8).
    pub bricks_per_box: u16,
    /// Units per brick (paper: 16).
    pub units_per_brick: u16,
    /// Natural size of a unit per kind (paper: 4 cores / 4 GB / 64 GB).
    pub units: UnitSizes,
}

impl TopologyConfig {
    /// Largest box capacity accepted, in units. The placement index keeps
    /// a table dense in box availability, so configuration validation and
    /// cluster deserialization refuse larger boxes instead of letting
    /// outside input size it.
    pub const MAX_BOX_UNITS: u32 = 1 << 16;

    /// The exact Table 1 configuration used in the paper's evaluation.
    pub const fn paper() -> Self {
        TopologyConfig {
            racks: 18,
            box_mix: BoxMix::paper(),
            bricks_per_box: 8,
            units_per_brick: 16,
            units: UnitSizes::paper(),
        }
    }

    /// A small 2-rack configuration handy for tests and toy examples.
    pub const fn tiny() -> Self {
        TopologyConfig {
            racks: 2,
            box_mix: BoxMix {
                cpu: 2,
                ram: 2,
                storage: 2,
            },
            bricks_per_box: 1,
            units_per_brick: 16,
            units: UnitSizes::paper(),
        }
    }

    /// The same per-rack shape with `multiplier ×` as many racks — the
    /// `--scale` knob for beyond-paper cluster sizes (10×/100× studies).
    /// Panics when the rack count would overflow `u16`.
    pub fn scaled(&self, multiplier: u16) -> Self {
        assert!(multiplier > 0, "scale multiplier must be positive");
        let racks = self
            .racks
            .checked_mul(multiplier)
            .expect("scaled rack count exceeds u16");
        TopologyConfig { racks, ..*self }
    }

    /// Units of capacity in one box (bricks × units-per-brick).
    pub const fn box_capacity_units(&self) -> u32 {
        self.bricks_per_box as u32 * self.units_per_brick as u32
    }

    /// Boxes of `kind` in the whole cluster.
    pub const fn boxes_of_kind(&self, kind: ResourceKind) -> u32 {
        self.racks as u32 * self.box_mix.of(kind) as u32
    }

    /// Total boxes in the cluster.
    pub const fn total_boxes(&self) -> u32 {
        self.racks as u32 * self.box_mix.total() as u32
    }

    /// Cluster-wide capacity of `kind`, in units.
    pub const fn total_capacity_units(&self, kind: ResourceKind) -> u32 {
        self.boxes_of_kind(kind) * self.box_capacity_units()
    }

    /// Cluster-wide capacity of `kind`, in natural amounts (cores/GB).
    pub const fn total_capacity_natural(&self, kind: ResourceKind) -> u64 {
        self.total_capacity_units(kind) as u64 * self.units.natural_per_unit(kind) as u64
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.racks == 0 {
            return Err("cluster must have at least one rack".into());
        }
        // `BoxMix::total` and the id ranges built on it add in `u16`.
        let mix = self.box_mix;
        if mix.cpu as u32 + mix.ram as u32 + mix.storage as u32 > u16::MAX as u32 {
            return Err("racks hold at most 65535 boxes".into());
        }
        if self.box_mix.total() == 0 {
            return Err("racks must hold at least one box".into());
        }
        if self.box_mix.cpu == 0 || self.box_mix.ram == 0 || self.box_mix.storage == 0 {
            return Err("every rack needs at least one box of each kind (paper §3.1)".into());
        }
        if self.box_capacity_units() == 0 {
            return Err("boxes must have non-zero capacity".into());
        }
        if self.box_capacity_units() > Self::MAX_BOX_UNITS {
            return Err(format!(
                "boxes of {} units exceed the supported {}",
                self.box_capacity_units(),
                Self::MAX_BOX_UNITS
            ));
        }
        if self.units.cpu_cores_per_unit == 0
            || self.units.ram_gb_per_unit == 0
            || self.units.storage_gb_per_unit == 0
        {
            return Err("unit sizes must be non-zero".into());
        }
        Ok(())
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ALL_RESOURCES;

    /// Table 1, row by row.
    #[test]
    fn table1_constants() {
        let c = TopologyConfig::paper();
        assert_eq!(c.racks, 18); // cluster size: 18 racks
        assert_eq!(c.box_mix.total(), 6); // rack size: 6 boxes
        assert_eq!(c.bricks_per_box, 8); // box size: 8 bricks
        assert_eq!(c.units_per_brick, 16); // brick size: 16 units
        assert_eq!(c.units.cpu_cores_per_unit, 4); // CPU unit: 4 cores
        assert_eq!(c.units.ram_gb_per_unit, 4); // RAM unit: 4 GB
        assert_eq!(c.units.storage_gb_per_unit, 64); // storage unit: 64 GB
        assert!(c.validate().is_ok());
    }

    #[test]
    fn derived_capacities() {
        let c = TopologyConfig::paper();
        assert_eq!(c.box_capacity_units(), 128);
        assert_eq!(c.total_boxes(), 108);
        // 18 racks × 2 boxes × 128 units.
        assert_eq!(c.total_capacity_units(ResourceKind::Cpu), 4608);
        // …× 4 cores/unit = 18 432 cores.
        assert_eq!(c.total_capacity_natural(ResourceKind::Cpu), 18_432);
        assert_eq!(c.total_capacity_natural(ResourceKind::Ram), 18_432);
        // storage: 4608 units × 64 GB = 294 912 GB.
        assert_eq!(c.total_capacity_natural(ResourceKind::Storage), 294_912);
    }

    #[test]
    fn validation_catches_degenerate_configs() {
        let mut c = TopologyConfig::paper();
        c.racks = 0;
        assert!(c.validate().is_err());

        let mut c = TopologyConfig::paper();
        c.box_mix.ram = 0;
        assert!(c.validate().is_err());

        let mut c = TopologyConfig::paper();
        c.bricks_per_box = 0;
        assert!(c.validate().is_err());

        let mut c = TopologyConfig::paper();
        c.units.storage_gb_per_unit = 0;
        assert!(c.validate().is_err());

        // A mix whose sum leaves `u16` is refused, not wrapped (or, in
        // debug, panicked on) by `total()`.
        let mut c = TopologyConfig::paper();
        (c.box_mix.cpu, c.box_mix.ram) = (40_000, 40_000);
        assert!(c.validate().is_err());

        // The placement index is dense in box availability.
        let mut c = TopologyConfig::paper();
        (c.bricks_per_box, c.units_per_brick) = (256, 256);
        assert!(c.validate().is_ok());
        c.units_per_brick = 257;
        assert!(c.validate().is_err());
    }

    #[test]
    fn box_mix_accessors() {
        let m = BoxMix::paper();
        for kind in ALL_RESOURCES {
            assert_eq!(m.of(kind), 2);
        }
    }

    #[test]
    fn scaled_multiplies_racks_only() {
        let c = TopologyConfig::paper().scaled(10);
        assert_eq!(c.racks, 180);
        assert_eq!(c.box_mix, BoxMix::paper());
        assert_eq!(c.box_capacity_units(), 128);
        assert!(c.validate().is_ok());
        assert_eq!(TopologyConfig::paper().scaled(1), TopologyConfig::paper());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_zero() {
        TopologyConfig::paper().scaled(0);
    }

    #[test]
    fn tiny_config_is_valid() {
        assert!(TopologyConfig::tiny().validate().is_ok());
        assert_eq!(TopologyConfig::tiny().box_capacity_units(), 16);
    }

    #[test]
    fn serde_roundtrip() {
        let c = TopologyConfig::paper();
        let json = serde_json::to_string(&c).unwrap();
        let back: TopologyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
