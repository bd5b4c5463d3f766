//! # risa-workload — workload generators and traces for the RISA evaluation
//!
//! Two workload families drive the paper's evaluation (§5):
//!
//! 1. **Synthetic random** (§5.1): 2500 VMs, CPU ~ U{1..32} cores,
//!    RAM ~ U{1..32} GB, storage fixed at 128 GB, Poisson arrivals with a
//!    mean interarrival of 10 time units, and a *staircase* lifetime —
//!    6300 time units plus 360 per completed set of 100 requests.
//! 2. **Azure-2017-like** (§5.2): the paper slices the public Azure trace
//!    into its first 3000/5000/7500 VMs. The trace itself is not
//!    redistributable, but Figure 6 prints the exact per-bin histogram
//!    counts of CPU cores and RAM for each slice; [`azure`] regenerates
//!    VM populations with **exactly** those marginal counts (storage fixed
//!    at 128 GB, as the paper assumes). A scheduler sees only each VM's
//!    unit demand, arrival and lifetime, so the published marginals are
//!    what it reacts to; the unpublished CPU × RAM pairing is drawn
//!    independently.
//!
//! All generation is seeded and deterministic — and, since trace version 2,
//! **sharded**: every [`shard::SHARD_SIZE`] (= 4096) VMs draw from their own
//! `(seed, shard, stream)`-derived RNG streams, with absolute arrivals
//! stitched by a prefix sum over per-shard interarrival totals (see
//! [`shard`]). Shard boundaries are fixed, so any shard can be drawn
//! without those before it, and generation runs on the calling thread.
//!
//! Because every shard is independently derivable, traces can also be
//! consumed **on demand**: a generator exposed as a [`ShardSource`]
//! produces any single shard when asked, and a [`StreamingShards`] cursor
//! walks the workload generating one shard at a time, inline, holding one
//! shard in memory — and serving from it both the arrival times an event
//! queue reads ahead and the VMs themselves. The cursor's running offset
//! performs the same sequential `f64` additions as the materialized
//! prefix sum, so its VMs and a materialized trace are byte-identical by
//! construction (see [`shard`]; `risa-sim` runs every simulation on it).
//!
//! > **Trace-version note:** the sharded stream replaced the legacy
//! > single-stream generator as the canonical trace. Distributions and all
//! > Figure 6 marginals are unchanged, but a given seed produces a
//! > *different* (equally valid) trace than pre-shard versions — regenerate
//! > any stored traces rather than comparing across versions.
//!
//! ```
//! use risa_workload::{SyntheticConfig, AzureSubset, Workload};
//!
//! let syn = Workload::synthetic(&SyntheticConfig::paper(42));
//! assert_eq!(syn.len(), 2500);
//!
//! let az = Workload::azure(AzureSubset::N3000, 7);
//! assert_eq!(az.len(), 3000);
//! // Figure 6(a): exactly 1326 single-core VMs in Azure-3000.
//! assert_eq!(az.vms().iter().filter(|v| v.cpu_cores == 1).count(), 1326);
//! ```

#![warn(missing_docs)]

pub mod azure;
pub mod csv;
mod decimal;
mod rows;
pub mod shard;
mod stats;
mod streaming;
mod synthetic;
mod trace;
mod vm;

pub use azure::{AzureShards, AzureSubset};
pub use csv::TraceError;
pub use shard::ShardSource;
pub use stats::WorkloadStats;
pub use streaming::StreamingShards;
pub use synthetic::{LifetimeModel, SyntheticConfig, SyntheticShards};
pub use trace::TraceShards;
pub use vm::{VmId, VmRequest, Workload};
