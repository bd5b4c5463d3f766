//! # risa-network — the two-tier optical network substrate
//!
//! The paper's DDC (Figures 2 and 3) connects every box to its rack's
//! optical circuit switch, and every rack switch to a cluster-level
//! inter-rack switch. Each physical link is a Luxtera-style SiP module with
//! 8 × 25 Gb/s channels = **200 Gb/s per link** (§3.1); boxes and racks
//! attach through *trunks* of several such links.
//!
//! A VM's placement produces two flows (Table 2):
//! * CPU ↔ RAM at 5 Gb/s per unit,
//! * RAM ↔ storage at 1 Gb/s per unit.
//!
//! An intra-rack flow crosses the two box uplink trunks; an inter-rack flow
//! additionally crosses both rack uplink trunks. Individual links inside a
//! trunk are allocated per flow, and the *link selection policy* is exactly
//! what distinguishes the baselines: NULB takes the **first** link that
//! fits, NALB the link with the **most available bandwidth** (§4.1).
//!
//! Bandwidth is tracked as integer **Mb/s** so the ledger is exact.
//!
//! ```
//! use risa_network::{NetworkConfig, NetworkState, LinkPolicy, FlowDemands};
//! use risa_topology::{Cluster, TopologyConfig, UnitDemand, BoxId};
//!
//! let cluster = Cluster::new(TopologyConfig::paper());
//! let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
//!
//! // The paper's typical VM: 2 CPU units, 4 RAM units, 2 storage units.
//! let demand = FlowDemands::for_vm(net.config(), &UnitDemand::new(2, 4, 2));
//! assert_eq!(demand.cpu_ram_mbps, 5_000 * 4);  // 5 Gb/s x max(2,4) units
//! assert_eq!(demand.ram_sto_mbps, 1_000 * 4);  // 1 Gb/s x max(4,2) units
//!
//! // Wire the VM between boxes 0 (CPU), 2 (RAM) and 4 (storage) in rack 0.
//! let alloc = net
//!     .alloc_vm(&cluster, BoxId(0), BoxId(2), BoxId(4), &demand, LinkPolicy::FirstFit)
//!     .unwrap();
//! assert!(!alloc.is_inter_rack());
//! net.release_vm(&alloc);
//! assert_eq!(net.intra_used_mbps(), 0);
//! ```

#![warn(missing_docs)]

mod config;
mod demand;
mod state;
mod trunk;

pub use config::NetworkConfig;
pub use demand::FlowDemands;
pub use state::{FlowPath, HopGrant, LinkPolicy, NetError, NetworkState, VmNetAllocation};
pub use trunk::{Trunk, TrunkId};
