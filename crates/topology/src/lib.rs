//! # risa-topology — the disaggregated-datacenter resource model
//!
//! The RISA paper (§3.1, Figure 3, Table 1) evaluates on the dRedBox-style
//! disaggregated architecture of Zervas et al.: a **cluster** of racks, each
//! rack holding single-resource **boxes** (CPU, RAM or storage), each box
//! divided into **bricks** of a fixed number of resource **units**
//! (CPU unit = 4 cores, RAM unit = 4 GB, storage unit = 64 GB).
//!
//! This crate owns:
//! * the configuration type reproducing Table 1 ([`TopologyConfig`]),
//! * resource-kind/unit arithmetic ([`ResourceKind`], [`UnitDemand`]),
//! * the mutable cluster state with unit-granular allocate/release
//!   ([`Cluster`]),
//! * the incremental [`PlacementIndex`] behind it: per-box fit keys,
//!   per-rack maxima and totals, and a wide rack tree that answer
//!   first-fit / best-fit / pool-successor queries in O(log racks)
//!   instead of the seed's per-VM linear scans.
//!
//! The network is deliberately **not** modelled here (see `risa-network`);
//! schedulers combine both.
//!
//! ```
//! use risa_topology::{Cluster, TopologyConfig, ResourceKind, UnitDemand};
//!
//! let cluster = Cluster::new(TopologyConfig::paper());
//! // Table 1: 18 racks x 2 CPU boxes x 8 bricks x 16 units x 4 cores.
//! assert_eq!(cluster.total_capacity(ResourceKind::Cpu), 18 * 2 * 128);
//!
//! // A "typical" VM from the paper's toy example: 8 cores, 16 GB, 128 GB.
//! let demand = UnitDemand::from_natural(&cluster.config().units, 8, 16, 128);
//! assert_eq!(demand.get(ResourceKind::Cpu), 2);      // ceil(8 / 4)
//! assert_eq!(demand.get(ResourceKind::Ram), 4);      // ceil(16 / 4)
//! assert_eq!(demand.get(ResourceKind::Storage), 2);  // ceil(128 / 64)
//! ```

#![warn(missing_docs)]

mod cluster;
mod config;
mod index;
mod resources;

pub use cluster::{AllocError, BoxAllocation, BoxState, Cluster, VmPlacement};
pub use config::{BoxMix, TopologyConfig, UnitSizes};
pub use index::PlacementIndex;
pub use resources::{BoxId, RackId, ResourceKind, UnitDemand, ALL_RESOURCES};
