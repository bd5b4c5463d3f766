//! Resource kinds, identifiers, and unit-granular demand vectors.

use std::fmt;
use std::ops::{Index, IndexMut};

/// The three disaggregated resource types of the paper (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// Compute boxes (unit = 4 cores in Table 1).
    Cpu,
    /// Memory boxes (unit = 4 GB).
    Ram,
    /// Storage boxes (unit = 64 GB).
    Storage,
}

/// All resource kinds in canonical order (CPU, RAM, storage) — the order
/// the paper's algorithms iterate `res_type`.
pub const ALL_RESOURCES: [ResourceKind; 3] =
    [ResourceKind::Cpu, ResourceKind::Ram, ResourceKind::Storage];

impl ResourceKind {
    /// Stable dense index (0/1/2) for array-backed tables.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Ram => 1,
            ResourceKind::Storage => 2,
        }
    }

    /// Inverse of [`ResourceKind::index`].
    #[inline]
    pub const fn from_index(i: usize) -> ResourceKind {
        match i {
            0 => ResourceKind::Cpu,
            1 => ResourceKind::Ram,
            2 => ResourceKind::Storage,
            _ => panic!("resource index out of range"),
        }
    }

    /// Short label used in reports ("CPU", "RAM", "STO").
    pub const fn label(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "CPU",
            ResourceKind::Ram => "RAM",
            ResourceKind::Storage => "STO",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Index of a rack within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RackId(pub u16);

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// Global index of a box within the cluster (dense, 0-based, stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BoxId(pub u32);

impl fmt::Display for BoxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "box{}", self.0)
    }
}

/// A VM's resource demand expressed in **units** per resource kind.
///
/// The paper converts a VM's natural requirements (cores, GB) to brick units
/// using Table 1's unit sizes; allocations happen at unit granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct UnitDemand([u32; 3]);

impl UnitDemand {
    /// Demand of zero units of everything.
    pub const ZERO: UnitDemand = UnitDemand([0; 3]);

    /// Build from per-kind unit counts (CPU, RAM, storage order).
    pub const fn new(cpu: u32, ram: u32, storage: u32) -> Self {
        UnitDemand([cpu, ram, storage])
    }

    /// Convert natural amounts (cores, GB RAM, GB storage) to units by
    /// rounding **up** to whole units, as a real allocator must.
    pub fn from_natural(
        units: &crate::config::UnitSizes,
        cpu_cores: u32,
        ram_gb: u32,
        storage_gb: u32,
    ) -> Self {
        UnitDemand([
            cpu_cores.div_ceil(units.cpu_cores_per_unit),
            ram_gb.div_ceil(units.ram_gb_per_unit),
            storage_gb.div_ceil(units.storage_gb_per_unit),
        ])
    }

    /// Units demanded of `kind`.
    #[inline]
    pub fn get(&self, kind: ResourceKind) -> u32 {
        self.0[kind.index()]
    }

    /// Set the demanded units of `kind`.
    #[inline]
    pub fn set(&mut self, kind: ResourceKind, units: u32) {
        self.0[kind.index()] = units;
    }

    /// True when nothing is demanded.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 3]
    }

    /// Component-wise `<=` (fits within an availability vector).
    pub fn fits_within(&self, avail: &UnitDemand) -> bool {
        (0..3).all(|i| self.0[i] <= avail.0[i])
    }

    /// Largest single-kind demand, in units.
    pub fn max_units(&self) -> u32 {
        self.0.iter().copied().max().unwrap_or(0)
    }

    /// Total units across kinds (a crude size measure used in reports).
    pub fn total_units(&self) -> u32 {
        self.0.iter().sum()
    }
}

impl Index<ResourceKind> for UnitDemand {
    type Output = u32;
    fn index(&self, kind: ResourceKind) -> &u32 {
        &self.0[kind.index()]
    }
}

impl IndexMut<ResourceKind> for UnitDemand {
    fn index_mut(&mut self, kind: ResourceKind) -> &mut u32 {
        &mut self.0[kind.index()]
    }
}

impl fmt::Display for UnitDemand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={}u ram={}u sto={}u",
            self.0[0], self.0[1], self.0[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnitSizes;

    #[test]
    fn index_roundtrip() {
        for kind in ALL_RESOURCES {
            assert_eq!(ResourceKind::from_index(kind.index()), kind);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ResourceKind::Cpu.label(), "CPU");
        assert_eq!(ResourceKind::Ram.to_string(), "RAM");
        assert_eq!(ResourceKind::Storage.label(), "STO");
    }

    #[test]
    fn natural_conversion_rounds_up() {
        let u = UnitSizes::paper(); // 4 cores, 4 GB, 64 GB
                                    // 1 core still occupies a whole 4-core unit.
        let d = UnitDemand::from_natural(&u, 1, 1, 1);
        assert_eq!(d, UnitDemand::new(1, 1, 1));
        // Exact multiples don't over-allocate.
        let d = UnitDemand::from_natural(&u, 32, 32, 128);
        assert_eq!(d, UnitDemand::new(8, 8, 2));
        // Paper's "typical VM": 8 cores / 16 GB / 128 GB.
        let d = UnitDemand::from_natural(&u, 8, 16, 128);
        assert_eq!(d, UnitDemand::new(2, 4, 2));
    }

    #[test]
    fn fits_within_is_componentwise() {
        let small = UnitDemand::new(1, 2, 3);
        let big = UnitDemand::new(3, 3, 3);
        assert!(small.fits_within(&big));
        assert!(!big.fits_within(&small));
        assert!(small.fits_within(&small));
        // One exceeding component breaks the fit.
        assert!(!UnitDemand::new(4, 0, 0).fits_within(&big));
    }

    #[test]
    fn indexing_and_setters() {
        let mut d = UnitDemand::ZERO;
        assert!(d.is_zero());
        d[ResourceKind::Ram] = 5;
        d.set(ResourceKind::Storage, 2);
        assert_eq!(d.get(ResourceKind::Ram), 5);
        assert_eq!(d[ResourceKind::Storage], 2);
        assert_eq!(d.max_units(), 5);
        assert_eq!(d.total_units(), 7);
        assert!(!d.is_zero());
    }

    #[test]
    fn display_formats() {
        assert_eq!(RackId(3).to_string(), "rack3");
        assert_eq!(BoxId(17).to_string(), "box17");
        assert_eq!(UnitDemand::new(1, 2, 3).to_string(), "cpu=1u ram=2u sto=3u");
    }
}
