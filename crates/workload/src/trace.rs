//! Pre-built traces as shard sources.
//!
//! Generated workloads stream through [`crate::ShardSource`] because every
//! shard is *derivable* on demand from per-shard RNG streams. A pre-built
//! trace (a [`Workload`] literal, or a CSV file loaded whole by
//! [`Workload::read_csv_file`]) has no generator to re-run — but it can
//! still be **served** in shard-sized slices, which is all the shard
//! cursor needs: [`TraceShards`] does that.
//!
//! ## The zero-delta stitching trick
//!
//! Generated shards report arrivals in *shard-local* time plus a per-shard
//! delta total, and the consumer rebases with `offset + local`. A pre-built
//! trace's arrivals are already absolute, and `offset + (absolute - offset)`
//! is **not** an `f64` identity — rebasing through deltas would break
//! byte-identity with the materialized path. [`TraceShards`] therefore
//! returns arrivals **unchanged** with a per-shard delta total of `0.0`:
//! the consumer's running offset stays `0.0` forever, its rebase is
//! `arrival + 0.0` (exact for every non-negative arrival, and arrivals
//! are validated non-negative), and the streamed trace is bit-for-bit the
//! stored one. Because the totals no longer encode the span, it
//! overrides [`ShardSource::span_units`] with the true last arrival.

use crate::csv::{self, CsvError, ReadError};
use crate::shard::ShardSource;
use crate::vm::{VmRequest, Workload};
use std::fs::File;
use std::path::Path;

/// An in-memory [`Workload`] served shard-by-shard.
///
/// How a trace that is already loaded — a CSV file read whole, or a
/// generated trace materialized up front — reaches the same cursor a
/// generator feeds.
#[derive(Debug, Clone)]
pub struct TraceShards {
    workload: Workload,
}

impl TraceShards {
    /// Wrap a workload. The workload must be sorted by arrival (enforced
    /// by [`Workload`] construction).
    pub fn new(workload: Workload) -> Self {
        TraceShards { workload }
    }
}

impl ShardSource for TraceShards {
    fn total_vms(&self) -> u32 {
        self.workload.len() as u32
    }

    fn label(&self) -> &str {
        self.workload.name()
    }

    fn shard_vms(&self, shard: u32) -> (Vec<VmRequest>, f64) {
        let r = self.shard_range(shard);
        // Arrivals stay absolute; delta total 0.0 keeps the consumer's
        // running offset at zero (see module docs).
        (
            self.workload.vms()[r.start as usize..r.end as usize].to_vec(),
            0.0,
        )
    }

    fn largest_request(&self) -> (u32, u32, u32) {
        self.workload.vms().iter().fold((0, 0, 0), |(c, r, s), vm| {
            (c.max(vm.cpu_cores), r.max(vm.ram_gb), s.max(vm.storage_gb))
        })
    }

    fn span_units(&self) -> f64 {
        self.workload.vms().last().map_or(0.0, |vm| vm.arrival)
    }
}

/// Errors raised while loading a CSV trace file
/// ([`Workload::read_csv_file`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFileError {
    /// The file could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// Stringified I/O error.
        message: String,
    },
    /// A row failed CSV validation (same rules as [`crate::csv::from_csv`]).
    Csv(CsvError),
    /// VM ids must equal the row's 0-based rank: the streaming arrival
    /// pipeline addresses VMs by arrival index, so a gap or permutation in
    /// ids would silently diverge from the materialized path.
    NonDenseId {
        /// 1-based line number.
        line: usize,
        /// Rank the row should have carried.
        expected: u32,
        /// Id actually found.
        found: u32,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceFileError::Io { path, message } => {
                write!(f, "cannot read trace file '{path}': {message}")
            }
            TraceFileError::Csv(e) => write!(f, "trace file: {e}"),
            &TraceFileError::NonDenseId {
                line,
                expected,
                found,
            } => ReadError::NonDenseId {
                line,
                expected,
                found,
            }
            .fmt(f),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<CsvError> for TraceFileError {
    fn from(e: CsvError) -> Self {
        TraceFileError::Csv(e)
    }
}

impl TraceFileError {
    fn io(path: &Path, e: std::io::Error) -> Self {
        TraceFileError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }

    /// A reader's verdict on the file at `path`.
    fn from_read(path: &Path, e: ReadError) -> Self {
        match e {
            ReadError::Io(e) => Self::io(path, e),
            ReadError::Csv(e) => TraceFileError::Csv(e),
            ReadError::NonDenseId {
                line,
                expected,
                found,
            } => TraceFileError::NonDenseId {
                line,
                expected,
                found,
            },
        }
    }
}

impl Workload {
    /// Load the CSV trace file at `path` whole, through
    /// [`csv::read_csv`]: validated a block at a time, and never resident
    /// as text. `name` labels the workload.
    pub fn read_csv_file(name: &str, path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| TraceFileError::io(path, e))?;
        csv::read_csv(name, file).map_err(|e| TraceFileError::from_read(path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{from_csv, HEADER};
    use crate::shard::{materialize, SHARD_SIZE};
    use crate::streaming::StreamingShards;
    use crate::synthetic::SyntheticConfig;
    use std::sync::Arc;

    fn sample_workload(n: u32) -> Workload {
        Workload::synthetic(&SyntheticConfig::small(n, 11))
    }

    #[test]
    fn trace_shards_reproduce_the_workload_exactly() {
        // 2.5 shards so the ragged tail and shard boundaries are exercised.
        let w = sample_workload(SHARD_SIZE * 2 + 50);
        let shards = TraceShards::new(w.clone());
        assert_eq!(shards.total_vms(), w.len() as u32);
        assert_eq!(shards.label(), w.name());
        assert_eq!(materialize(&shards), w.vms());
        assert_eq!(
            shards.span_units().to_bits(),
            w.vms().last().unwrap().arrival.to_bits()
        );
        // Every per-shard delta total is exactly zero, so a cursor's
        // offset never moves.
        for s in 0..shards.num_shards() {
            assert_eq!(shards.shard_vms(s).1, 0.0);
            assert_eq!(shards.shard_total(s), 0.0);
        }
        assert_eq!(shards.largest_request(), (32, 32, 128));
    }

    #[test]
    fn streaming_cursor_over_trace_shards_is_bit_exact_and_bounded() {
        let w = sample_workload(SHARD_SIZE * 2 + 50);
        let cursor = StreamingShards::new(Arc::new(TraceShards::new(w.clone())));
        let streamed: Vec<VmRequest> = cursor.collect();
        assert_eq!(streamed, *w.vms());
    }

    fn temp_csv(tag: &str, contents: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("risa_trace_{}_{tag}.csv", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn csv_file_shards_tolerate_blank_lines_and_empty_files() {
        let path = temp_csv("blanks", &format!("{HEADER}\n\n0,1,2,128,1.0,10.0\n\n"));
        let shards = TraceShards::new(Workload::read_csv_file("blanky", &path).unwrap());
        assert_eq!(shards.total_vms(), 1);
        assert_eq!(shards.shard_vms(0).0.len(), 1);
        std::fs::remove_file(&path).ok();

        let path = temp_csv("empty", &format!("{HEADER}\n"));
        let shards = TraceShards::new(Workload::read_csv_file("empty", &path).unwrap());
        assert_eq!(shards.total_vms(), 0);
        assert_eq!(shards.num_shards(), 0);
        assert_eq!(shards.span_units(), 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_validates_eagerly() {
        let missing = Workload::read_csv_file("x", "/nonexistent/risa/trace.csv").unwrap_err();
        assert!(matches!(missing, TraceFileError::Io { .. }));
        assert!(missing.to_string().contains("/nonexistent/risa/trace.csv"));

        let path = temp_csv("badheader", "nope\n0,1,2,128,1.0,10.0\n");
        assert_eq!(
            Workload::read_csv_file("x", &path).unwrap_err(),
            TraceFileError::Csv(CsvError::BadHeader)
        );
        std::fs::remove_file(&path).ok();

        let path = temp_csv(
            "unsorted",
            &format!("{HEADER}\n0,1,2,128,5.0,10.0\n1,1,2,128,4.0,10.0\n"),
        );
        assert_eq!(
            Workload::read_csv_file("x", &path).unwrap_err(),
            TraceFileError::Csv(CsvError::NotSorted { line: 3 })
        );
        std::fs::remove_file(&path).ok();

        let path = temp_csv(
            "sparseid",
            &format!("{HEADER}\n0,1,2,128,1.0,10.0\n5,1,2,128,2.0,10.0\n"),
        );
        assert_eq!(
            Workload::read_csv_file("x", &path).unwrap_err(),
            TraceFileError::NonDenseId {
                line: 3,
                expected: 1,
                found: 5
            }
        );
        std::fs::remove_file(&path).ok();
    }

    /// A trace file reaches a run as one whole-file load served through
    /// [`TraceShards`]: a file it accepts is served row for row as the
    /// text reader reads it, and a file it refuses gets a typed verdict.
    #[test]
    fn whole_file_load_and_shard_open_agree() {
        let same = |tag: &str, contents: &[u8]| {
            let path = std::env::temp_dir()
                .join(format!("risa_trace_{}_same_{tag}.csv", std::process::id()));
            std::fs::write(&path, contents).unwrap();
            let refused = Workload::read_csv_file("x", &path)
                .map(|w| {
                    let text = std::str::from_utf8(contents).unwrap();
                    let served = materialize(&TraceShards::new(w));
                    assert_eq!(served, from_csv("x", text).unwrap().vms(), "{tag}");
                })
                .err();
            std::fs::remove_file(&path).ok();
            refused
        };
        let doc = |rows: &str| format!("{HEADER}\n{rows}").into_bytes();
        assert_eq!(
            same("ok", &doc("0,1,2,128,1.0,10\r\n\n 1,+1,2,128,1.0,10")),
            None
        );
        assert_eq!(same("empty", b""), Some(CsvError::BadHeader.into()));
        assert_eq!(
            same("row", &doc("0,1,2,128,1.0,10\n1,1,2,128,2.0\n")),
            Some(CsvError::BadArity { line: 3 }.into())
        );
        for (tag, rows, line, expected, found) in [
            ("swapped", "1,1,2,128,1.0,10\n0,1,2,128,2.0,10\n", 2, 0, 1),
            ("sparse", "0,1,2,128,1.0,10\n2,1,2,128,2.0,10\n", 3, 1, 2),
            ("dup", "0,1,2,128,1.0,10\n0,1,2,128,2.0,10\n", 3, 1, 0),
        ] {
            assert_eq!(
                same(tag, &doc(rows)),
                Some(TraceFileError::NonDenseId {
                    line,
                    expected,
                    found
                })
            );
        }
        let mut binary = doc("0,1,2,128,1.0,10\n");
        binary.extend([0xc3, 0x28, b'\n']);
        let refused = same("binary", &binary).expect("not text");
        assert!(
            matches!(&refused, TraceFileError::Io { path, message }
                if path.ends_with("same_binary.csv") && message.contains("UTF-8")),
            "{refused:?}"
        );
    }
}
