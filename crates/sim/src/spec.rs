//! Workload specification: how the simulation obtains its VM trace — a
//! generator (synthetic or Azure-like) or a CSV trace file, the one form
//! in which a recorded trace enters a run.

use risa_workload::azure::AzureProcess;
use risa_workload::{
    AzureShards, AzureSubset, ShardSource, SyntheticConfig, SyntheticShards, TraceFileError,
    TraceShards, Workload,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Declarative description of the workload a simulation should run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// The §5.1 synthetic random workload with explicit parameters.
    Synthetic(SyntheticConfig),
    /// An Azure-2017-like slice (§5.2) with a seed.
    Azure {
        /// Which slice.
        subset: AzureSubset,
        /// Generation seed.
        seed: u64,
    },
    /// A CSV trace file on disk, read once at build time, a block at a
    /// time, into a columnar store of 20 B a row
    /// ([`TraceShards::read_csv_file`]); never resident as text or as a
    /// request list.
    TraceCsv {
        /// Workload label for reports.
        name: String,
        /// Path to the CSV file ([`risa_workload::csv`] schema).
        path: String,
    },
}

impl WorkloadSpec {
    /// Synthetic workload of `n` VMs with paper parameters.
    pub fn synthetic(n: u32, seed: u64) -> Self {
        WorkloadSpec::Synthetic(SyntheticConfig::small(n, seed))
    }

    /// The full 2500-VM paper synthetic workload.
    pub fn synthetic_paper(seed: u64) -> Self {
        WorkloadSpec::Synthetic(SyntheticConfig::paper(seed))
    }

    /// An Azure-like slice.
    pub fn azure(subset: AzureSubset, seed: u64) -> Self {
        WorkloadSpec::Azure { subset, seed }
    }

    /// Materialize the trace, or say why the trace file it names cannot
    /// be one (only [`WorkloadSpec::TraceCsv`] can fail). A simulation
    /// does not call this — it reads [`WorkloadSpec::shard_source`] on
    /// demand; the legacy arrival path and tests that want the whole
    /// trace do.
    ///
    /// Synthetic and Azure specs generate **sharded**, on the calling
    /// thread: fixed 4096-VM index shards with `(seed, shard)`-derived RNG
    /// streams, stitched by a prefix sum over per-shard interarrival
    /// totals (`risa_workload::shard`) — the same VMs, bit for bit, that a
    /// run's on-demand cursor draws.
    pub fn load(&self) -> Result<Workload, TraceFileError> {
        Ok(match self {
            WorkloadSpec::Synthetic(cfg) => Workload::synthetic(cfg),
            WorkloadSpec::Azure { subset, seed } => Workload::azure(*subset, *seed),
            WorkloadSpec::TraceCsv { name, path } => Workload::read_csv_file(name, path)?,
        })
    }

    /// [`WorkloadSpec::load`] for callers with nobody to report to
    /// (tests, the probe): panics on a missing or invalid trace
    /// file.
    pub fn materialize(&self) -> Workload {
        self.load().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The spec as a lazy per-shard source — what a run's shard cursor
    /// reads, and the one place a spec becomes one. Generator-backed specs
    /// generate each shard from its RNG streams; a CSV file is loaded
    /// into columns and *served* in shard-sized slices gathered from them
    /// ([`risa_workload::TraceShards`]).
    ///
    /// The source yields the *same trace* [`WorkloadSpec::load`]
    /// produces, bit-for-bit, so consuming it through a cursor is
    /// byte-identical to materializing — and a trace file `load` refuses
    /// is refused here with the same error.
    pub fn shard_source(&self) -> Result<Arc<dyn ShardSource>, TraceFileError> {
        Ok(match self {
            WorkloadSpec::Synthetic(cfg) => Arc::new(SyntheticShards::new(cfg)),
            WorkloadSpec::Azure { subset, seed } => {
                Arc::new(AzureShards::new(*subset, *seed, AzureProcess::default()))
            }
            WorkloadSpec::TraceCsv { name, path } => {
                Arc::new(TraceShards::read_csv_file(name, path)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_materializes_n_vms() {
        assert_eq!(WorkloadSpec::synthetic(37, 1).materialize().len(), 37);
        assert_eq!(WorkloadSpec::synthetic_paper(1).materialize().len(), 2500);
    }

    #[test]
    fn azure_materializes_subset() {
        let w = WorkloadSpec::azure(AzureSubset::N3000, 2).materialize();
        assert_eq!(w.len(), 3000);
        assert_eq!(w.name(), "Azure-3000");
    }

    /// The shard source must yield exactly the trace `materialize`
    /// yields — the foundation of the on-demand/materialized identity —
    /// for every spec kind, a CSV file of a generated trace included.
    #[test]
    fn shard_source_reproduces_materialize() {
        let path =
            std::env::temp_dir().join(format!("risa_spec_shards_{}.csv", std::process::id()));
        let csv = risa_workload::csv::to_csv(&WorkloadSpec::synthetic(5000, 21).materialize());
        std::fs::write(&path, csv).unwrap();
        for spec in [
            WorkloadSpec::synthetic(5000, 21),
            WorkloadSpec::azure(AzureSubset::N3000, 8),
            WorkloadSpec::TraceCsv {
                name: "synthetic".into(),
                path: path.display().to_string(),
            },
        ] {
            let source = spec.shard_source().expect("a valid file opens");
            assert_eq!(
                risa_workload::shard::materialize(&*source),
                spec.materialize().vms()
            );
            assert_eq!(source.label(), spec.materialize().name());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_csv_spec_streams_and_materializes_identically() {
        let w = WorkloadSpec::synthetic(500, 4).materialize();
        let path = std::env::temp_dir().join(format!("risa_spec_trace_{}.csv", std::process::id()));
        std::fs::write(&path, risa_workload::csv::to_csv(&w)).unwrap();
        let spec = WorkloadSpec::TraceCsv {
            name: "disk".into(),
            path: path.display().to_string(),
        };
        let materialized = spec.materialize();
        assert_eq!(materialized.name(), "disk");
        assert_eq!(materialized.vms(), w.vms());
        let source = spec.shard_source().expect("a valid file opens");
        assert_eq!(risa_workload::shard::materialize(&*source), w.vms());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "cannot read trace file")]
    fn trace_csv_spec_missing_file_fails_loudly() {
        WorkloadSpec::TraceCsv {
            name: "x".into(),
            path: "/nonexistent/risa/spec.csv".into(),
        }
        .materialize();
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = WorkloadSpec::azure(AzureSubset::N5000, 9);
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
