//! # risa-sim — end-to-end DDC simulation and the paper's experiments
//!
//! Drives the whole stack: a [`risa_des`] event loop delivers VM arrivals
//! and departures; a [`risa_sched::Scheduler`] places each arrival onto the
//! [`risa_topology::Cluster`] and [`risa_network::NetworkState`]; the
//! [`risa_photonics`] energy model and [`risa_metrics`] accumulators turn
//! the run into the numbers the paper reports.
//!
//! The [`experiments`] module has one entry point per figure/table of the
//! paper's evaluation, plus ablations the paper does not run. Their
//! matrices of independent runs are the only work that uses threads:
//! [`with_jobs`] (`risa-cli experiment --jobs`) sets how many, and the
//! count never changes a report — `tests/determinism.rs` asserts 1-wide
//! and 4-wide matrices serialize byte-identically. A single run creates
//! no thread.
//!
//! ```
//! use risa_sim::{Algorithm, SimulationBuilder, WorkloadSpec};
//!
//! let report = SimulationBuilder::new()
//!     .algorithm(Algorithm::Risa)
//!     .workload(WorkloadSpec::synthetic(100, 7))
//!     .build()
//!     .run();
//! assert_eq!(report.total_vms, 100);
//! assert_eq!(report.dropped, 0);
//! assert_eq!(report.inter_rack_assignments, 0);
//! ```

#![warn(missing_docs)]

mod builder;
mod checkpoint;
mod churn;
mod config;
mod dealer;
pub mod experiments;
mod faults;
mod meters;
#[cfg(test)]
mod push_oracle;
mod report;
mod sched_timer;
mod slots;
mod spec;
mod world;

pub use builder::{BuildError, DdcSimulation, SimulationBuilder};
pub use checkpoint::{Checkpoint, ResumeError, CHECKPOINT_VERSION};
pub use config::{LatencyConfig, SimConfig};
pub use dealer::with_jobs;
pub use faults::{FaultReport, FaultSpec};
pub use report::{host_info, ExperimentReport, RunReport};
pub use sched_timer::DEFAULT_SCHED_TIMING_BATCH;
pub use spec::WorkloadSpec;
pub use world::{DdcWorld, SimEvent};

// Re-export the vocabulary types callers need alongside the builder.
pub use risa_des::RunOutcome;
pub use risa_sched::Algorithm;
