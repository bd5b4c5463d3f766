//! Workload specification: how the simulation obtains its VM trace — a
//! generator (synthetic or Azure-like) or a CSV trace file, the one form
//! in which a recorded trace enters a run.

use crate::builder::BuildError;
use risa_workload::azure::AzureProcess;
use risa_workload::{
    shard, AzureShards, AzureSubset, ShardSource, SyntheticConfig, SyntheticShards, TraceShards,
    Workload,
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

    /// The trace a run replays, whole: [`WorkloadSpec::shard_source`]
    /// gathered by [`risa_workload::shard::materialize`], for tests and the
    /// probe (a run reads the source). Panics on an unusable trace file.
    pub fn materialize(&self) -> Workload {
        let source = self.shard_source().unwrap_or_else(|e| panic!("{e}"));
        Workload::from_vms(source.label(), shard::materialize(&*source))
    }

    /// The spec as a lazy per-shard source — what a run's shard cursor
    /// reads, and the one place a spec becomes one. Generator-backed specs
    /// generate each shard from its `(seed, shard)`-derived RNG streams; a
    /// CSV file is loaded into columns and *served* in shard-sized slices
    /// gathered from them ([`risa_workload::TraceShards`]), or refused as
    /// [`BuildError::TraceFile`]: the reader's error, named by its path here.
    pub fn shard_source(&self) -> Result<Arc<dyn ShardSource>, BuildError> {
        Ok(match self {
            WorkloadSpec::Synthetic(cfg) => Arc::new(SyntheticShards::new(cfg)),
            WorkloadSpec::Azure { subset, seed } => {
                Arc::new(AzureShards::new(*subset, *seed, AzureProcess::default()))
            }
            WorkloadSpec::TraceCsv { name, path } => {
                Arc::new(TraceShards::read_csv_file(name, path).map_err(|error| {
                    BuildError::TraceFile {
                        path: path.clone(),
                        error,
                    }
                })?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risa_workload::csv::{from_csv, to_csv, HEADER};
    use risa_workload::StreamingShards;

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

    /// `materialize` is what a run's cursor replays: for a generator, the
    /// generator's own trace, bit for bit (`{:?}` tells every `f64` apart).
    #[test]
    fn materialize_is_what_the_run_replays() {
        let cfg = SyntheticConfig::small(5000, 21);
        let synthetic = WorkloadSpec::Synthetic(cfg).materialize();
        assert!(format!("{synthetic:?}") == format!("{:?}", Workload::synthetic(&cfg)));
        let azure = WorkloadSpec::azure(AzureSubset::N3000, 8).materialize();
        let generated = Workload::azure(AzureSubset::N3000, 8);
        assert!(format!("{azure:?}") == format!("{generated:?}"));
    }

    /// For a trace file, the rows the text reader reads, down to the sign
    /// of a zero: a row arriving at `-0.0` holds a valid time, which the
    /// run's cursor rebases to `+0.0` (`arrival + 0.0`), and so does
    /// `materialize`.
    #[test]
    fn trace_csv_spec_streams_and_materializes_identically() {
        let generated = to_csv(&WorkloadSpec::synthetic(500, 4).materialize());
        let signed = format!("{HEADER}\n0,1,2,128,-0.0,10\n1,1,2,128,0.5,10\n");
        for (tag, text) in [("generated", generated), ("signed", signed)] {
            let path =
                std::env::temp_dir().join(format!("risa_spec_{}_{tag}.csv", std::process::id()));
            std::fs::write(&path, &text).unwrap();
            let spec = WorkloadSpec::TraceCsv {
                name: "disk".into(),
                path: path.display().to_string(),
            };
            let trace = spec.materialize();
            let replayed: Vec<_> = StreamingShards::new(spec.shard_source().unwrap()).collect();
            std::fs::remove_file(&path).ok();
            assert!(
                format!("{:?}", trace.vms()) == format!("{replayed:?}"),
                "{tag}"
            );
            let read = from_csv("disk", &text.replace(",-0.0,", ",0.0,")).unwrap();
            assert!(format!("{trace:?}") == format!("{read:?}"), "{tag}");
        }
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
