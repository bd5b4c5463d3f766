//! # risa-sched — the RISA paper's scheduling algorithms
//!
//! This crate implements all four schedulers evaluated in the paper:
//!
//! * **NULB** (network-unaware locality-based, Zervas et al. \[20\],
//!   Algorithm 2): contention-ratio scarce-resource selection, first-box
//!   scan, breadth-first search for the remaining resources (same rack
//!   first), first-fit link selection.
//! * **NALB** (network-aware locality-based \[20\]): NULB with the BFS
//!   neighbour order re-sorted by descending available bandwidth and
//!   most-available link selection.
//! * **RISA** (Algorithm 1, this paper): an `INTRA_RACK_POOL` of racks able
//!   to host the whole VM, consumed **round-robin**; within the rack a
//!   next-fit box scan; on an empty/infeasible pool, fall back to NULB
//!   restricted to the `SUPER_RACK`.
//! * **RISA-BF** (Algorithm 3): RISA with best-fit (ascending-availability)
//!   box selection inside the chosen rack.
//!
//! The schedulers mutate a [`risa_topology::Cluster`] (compute units) and a
//! [`risa_network::NetworkState`] (link bandwidth) and are fully
//! deterministic. Since PR 1 they run scan-free against the incremental
//! [`risa_topology::PlacementIndex`]; the [`oracle`] module preserves the
//! seed's scan-based implementations as an executable spec, and
//! `tests/differential.rs` proves placement/drop/counter equality against
//! it. [`WorkCounters`] still charges the naive scan costs that the
//! paper's Figures 11/12 model. Key entry points: [`Scheduler::schedule`],
//! [`Scheduler::release`], and [`cycle::ScheduleCycle`] (the throughput
//! treadmill shared by `risa-cli bench` and the criterion `scale` bench).
//!
//! ```
//! use risa_sched::{Algorithm, Scheduler, ScheduleOutcome};
//! use risa_topology::{Cluster, TopologyConfig, UnitDemand};
//! use risa_network::{NetworkConfig, NetworkState};
//!
//! let mut cluster = Cluster::new(TopologyConfig::paper());
//! let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
//! let mut sched = Scheduler::new(Algorithm::Risa, &cluster);
//!
//! let demand = UnitDemand::new(2, 4, 2); // the paper's "typical VM"
//! match sched.schedule(&mut cluster, &mut net, &demand) {
//!     ScheduleOutcome::Assigned(a) => {
//!         assert!(a.intra_rack, "an empty DDC always admits intra-rack");
//!         Scheduler::release(&mut cluster, &mut net, &a);
//!     }
//!     ScheduleOutcome::Dropped(reason) => panic!("dropped: {reason:?}"),
//! }
//! ```

#![warn(missing_docs)]

mod algorithm;
pub mod audit;
mod contention;
pub mod cycle;
mod nulb;
pub mod oracle;
mod risa;
mod scheduler;
pub mod toy;
mod work;

pub use algorithm::{Algorithm, DropReason, ScheduleOutcome, VmAssignment};
pub use contention::{contention_ratios, most_contended};
pub use nulb::{NeighborOrder, NulbParams, RackFilter};
pub use scheduler::Scheduler;
pub use work::WorkCounters;
