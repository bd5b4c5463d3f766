//! # risa-metrics — measurement substrate for the RISA reproduction
//!
//! Every number reported in the paper's evaluation (Figures 5–12) is a
//! statistic over a simulation run: counts of inter-rack assignments,
//! *time-weighted* average utilizations, mean latencies, integrated energy.
//! This crate provides those statistic kernels plus the fixed-bin histogram
//! used to characterize workloads (Figure 6) and a plain-text table renderer
//! so experiment binaries can print paper-style tables.
//!
//! Everything here is deterministic and allocation-light; the simulation
//! driver updates these accumulators millions of times per run.

#![warn(missing_docs)]

mod chart;
mod histogram;
mod online;
mod table;
mod timeweighted;

pub use chart::BarChart;
pub use histogram::{BinnedHistogram, HistogramSpec};
pub use online::OnlineStats;
pub use table::{Align, Table};
pub use timeweighted::TimeWeighted;
