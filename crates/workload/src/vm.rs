//! VM requests and workload containers.

use risa_topology::{TopologyConfig, UnitDemand};

/// Dense identifier of a VM within one workload (its arrival rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VmId(pub u32);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// One VM request: natural-unit resource demands plus its arrival time and
/// lifetime in paper time units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmRequest {
    /// Arrival rank / identifier.
    pub id: VmId,
    /// CPU demand in cores.
    pub cpu_cores: u32,
    /// RAM demand in GB.
    pub ram_gb: u32,
    /// Storage demand in GB (the paper fixes this at 128 GB).
    pub storage_gb: u32,
    /// Arrival time, paper time units.
    pub arrival: f64,
    /// Lifetime, paper time units (1 unit ≡ 1 s in the energy model).
    pub lifetime: f64,
}

impl VmRequest {
    /// Unit-granular demand under `cfg`'s unit sizes.
    pub fn demand(&self, cfg: &TopologyConfig) -> UnitDemand {
        UnitDemand::from_natural(&cfg.units, self.cpu_cores, self.ram_gb, self.storage_gb)
    }

    /// Departure time (arrival + lifetime).
    pub fn departure(&self) -> f64 {
        self.arrival + self.lifetime
    }
}

/// A full, ordered workload (VMs sorted by arrival). Its one serialized
/// form is the CSV trace ([`crate::csv`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    vms: Vec<VmRequest>,
}

impl Workload {
    /// Wrap a VM list, `debug_assert!`ing that it is sorted by arrival. Ids
    /// are not checked: a replay's need for each to be its rank is enforced
    /// where a trace enters one, a file's by `rows::ranked_rows`
    /// ([`crate::TraceError::NonDenseId`]), a workload's by
    /// [`crate::TraceShards::new`]'s `debug_assert!`.
    pub fn from_vms(name: impl Into<String>, vms: Vec<VmRequest>) -> Self {
        debug_assert!(
            vms.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "workload must be sorted by arrival"
        );
        Workload {
            name: name.into(),
            vms,
        }
    }

    /// Generate the paper's synthetic random workload (§5.1).
    ///
    /// Sharded, one shard at a time (see [`crate::shard`]).
    pub fn synthetic(cfg: &crate::synthetic::SyntheticConfig) -> Self {
        crate::synthetic::generate(cfg)
    }

    /// Generate an Azure-2017-like workload matched to Figure 6 (§5.2).
    ///
    /// Deck shuffles walk one stream; per-VM draws are sharded (see
    /// [`crate::shard`]).
    pub fn azure(subset: crate::azure::AzureSubset, seed: u64) -> Self {
        crate::azure::generate(subset, seed)
    }

    /// Workload label used in reports ("synthetic", "Azure-3000", …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of VM requests.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// True when the workload holds no requests.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// The request list, ordered by arrival.
    pub fn vms(&self) -> &[VmRequest] {
        &self.vms
    }

    /// Check the paper's standing assumption (§2) that every VM fits in a
    /// single box of each resource; returns the first violator if any.
    pub fn validate_fits(&self, cfg: &TopologyConfig) -> Result<(), VmRequest> {
        let cap = cfg.box_capacity_units();
        for vm in &self.vms {
            if vm.demand(cfg).max_units() > cap {
                return Err(*vm);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(id: u32, arrival: f64) -> VmRequest {
        VmRequest {
            id: VmId(id),
            cpu_cores: 8,
            ram_gb: 16,
            storage_gb: 128,
            arrival,
            lifetime: 6300.0,
        }
    }

    #[test]
    fn demand_uses_topology_units() {
        let cfg = TopologyConfig::paper();
        let d = vm(0, 0.0).demand(&cfg);
        assert_eq!(d, UnitDemand::new(2, 4, 2));
    }

    #[test]
    fn departure_is_arrival_plus_lifetime() {
        assert_eq!(vm(0, 100.0).departure(), 6400.0);
    }

    #[test]
    fn workload_accessors() {
        let w = Workload::from_vms("test", vec![vm(0, 0.0), vm(1, 5.0)]);
        assert_eq!(w.name(), "test");
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(w.vms()[1].arrival, 5.0);
    }

    /// `from_vms` checks the order of arrivals (in debug builds) and
    /// nothing about ids; the readers and the trace store check those.
    #[test]
    fn from_vms_checks_order_not_ids() {
        let w = Workload::from_vms("sparse", vec![vm(5, 0.0), vm(2, 1.0)]);
        assert_eq!(w.vms().iter().map(|vm| vm.id.0).collect::<Vec<_>>(), [5, 2]);
        let unsorted = std::panic::catch_unwind(|| {
            Workload::from_vms("unsorted", vec![vm(0, 1.0), vm(1, 0.0)])
        });
        assert_eq!(unsorted.is_err(), cfg!(debug_assertions));
    }

    #[test]
    fn validate_fits_catches_oversized_vm() {
        let cfg = TopologyConfig::paper();
        let mut big = vm(0, 0.0);
        big.ram_gb = 513; // 129 units > 128-unit box
        let w = Workload::from_vms("bad", vec![big]);
        assert_eq!(w.validate_fits(&cfg).unwrap_err().id, VmId(0));

        let ok = Workload::from_vms("ok", vec![vm(0, 0.0)]);
        assert!(ok.validate_fits(&cfg).is_ok());
    }
}
