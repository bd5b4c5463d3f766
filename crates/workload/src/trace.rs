//! Pre-built traces as shard sources — in-memory and file-backed.
//!
//! Generated workloads stream through [`crate::ShardSource`] because every
//! shard is *derivable* on demand from per-shard RNG streams. A pre-built
//! trace (a [`Workload`] literal, or a CSV file on disk) has no generator
//! to re-run — but it can still be **served** in shard-sized chunks, which
//! is all the shard cursor needs. This module provides the two adapters:
//!
//! * [`TraceShards`] slices an in-memory [`Workload`] into shards; and
//! * [`CsvFileShards`] is the chunked trace-file reader: one validating
//!   scan at open records the byte offset of each shard's first row, and
//!   each `shard_vms` call re-reads only that shard's bytes — so a run
//!   over an on-disk CSV holds one shard of VMs in memory, and parses
//!   each row twice (the scan, then the read), both times through the
//!   one row loop in [`crate::csv`].
//!
//! ## The zero-delta stitching trick
//!
//! Generated shards report arrivals in *shard-local* time plus a per-shard
//! delta total, and the consumer rebases with `offset + local`. A pre-built
//! trace's arrivals are already absolute, and `offset + (absolute - offset)`
//! is **not** an `f64` identity — rebasing through deltas would break
//! byte-identity with the materialized path. Both adapters therefore
//! return arrivals **unchanged** with a per-shard delta total of `0.0`:
//! the consumer's running offset stays `0.0` forever, its rebase is
//! `arrival + 0.0` (exact for every non-negative arrival, and arrivals
//! are validated non-negative), and the streamed trace is bit-for-bit the
//! stored one. Because the totals no longer encode the span, both
//! adapters override [`ShardSource::span_units`] with the true last
//! arrival.

use crate::csv::{self, CsvError, ReadError};
use crate::shard::{ShardSource, SHARD_SIZE};
use crate::vm::{VmRequest, Workload};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// An in-memory [`Workload`] served shard-by-shard.
///
/// How a trace that is already loaded — a `WorkloadSpec::Trace`, a CSV
/// file read whole — reaches the same cursor a generator feeds.
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

/// Errors raised while loading a CSV trace file, whole
/// ([`Workload::read_csv_file`]) or as a shard source
/// ([`CsvFileShards::open`]): the same file gets the same error from both.
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
    /// [`csv::read_csv`]: validated like [`CsvFileShards::open`]
    /// validates it, and never resident as text. `name` labels the
    /// workload.
    pub fn read_csv_file(name: &str, path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| TraceFileError::io(path, e))?;
        csv::read_csv(name, file).map_err(|e| TraceFileError::from_read(path, e))
    }
}

/// A CSV trace file on disk, served shard-by-shard without ever holding
/// the whole trace in memory.
///
/// [`CsvFileShards::open`] makes one streaming pass over the file — the
/// pass [`crate::csv::read_csv`] makes: header, arity, field domains,
/// dense ids, sorted arrivals — and records, per [`SHARD_SIZE`] rows, the
/// byte offset of the shard's first row. Each [`ShardSource::shard_vms`]
/// call then reopens the file and runs the same row loop over the bytes
/// from the shard's offset to the next shard's (to the length the file
/// had at `open` for the last; bytes appended since are never read). The
/// file must not otherwise be modified between `open` and the run —
/// `shard_vms` panics (loudly, naming the file and the shard) if those
/// bytes no longer hold exactly the shard's rows.
#[derive(Debug, Clone)]
pub struct CsvFileShards {
    path: PathBuf,
    name: String,
    /// Byte offset of the first data row of each shard, then the file's
    /// length: shard `s` is the bytes `offsets[s]..offsets[s + 1]`.
    offsets: Vec<u64>,
    total: u32,
    span: f64,
    /// Per-column maxima over every row: `(cpu_cores, ram_gb, storage_gb)`.
    largest: (u32, u32, u32),
}

impl CsvFileShards {
    /// Open and validate `path`, labelling the workload `name`.
    pub fn open(name: impl Into<String>, path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path).map_err(|e| TraceFileError::io(&path, e))?;
        let mut offsets = Vec::new();
        let mut total: u32 = 0;
        let mut span = 0.0f64;
        let mut largest = (0u32, 0u32, 0u32);
        let len = csv::scan(file, |row_start, vm| {
            // `vm.id` is the row's rank, and the row count fits a `u32`
            // (the scan checked both).
            if vm.id.0.is_multiple_of(SHARD_SIZE) {
                offsets.push(row_start);
            }
            total = vm.id.0 + 1;
            span = vm.arrival;
            largest = (
                largest.0.max(vm.cpu_cores),
                largest.1.max(vm.ram_gb),
                largest.2.max(vm.storage_gb),
            );
        })
        .map_err(|e| TraceFileError::from_read(&path, e))?;
        offsets.push(len);
        Ok(CsvFileShards {
            path,
            name: name.into(),
            offsets,
            total,
            span,
            largest,
        })
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl ShardSource for CsvFileShards {
    fn total_vms(&self) -> u32 {
        self.total
    }

    fn label(&self) -> &str {
        &self.name
    }

    fn shard_vms(&self, shard: u32) -> (Vec<VmRequest>, f64) {
        let want = self.shard_range(shard).len();
        let bytes = self.offsets[shard as usize]..self.offsets[shard as usize + 1];
        let mut vms = Vec::with_capacity(want);
        // An error of the re-read counts lines from the shard's first.
        let read = File::open(&self.path)
            .and_then(|mut file| {
                file.seek(SeekFrom::Start(bytes.start))?;
                Ok(file.take(bytes.end - bytes.start))
            })
            .map_err(ReadError::Io)
            .and_then(|file| {
                csv::rows(file, true, |_, _, vm| {
                    vms.push(vm);
                    Ok(())
                })
            });
        let changed = match read {
            // Absolute arrivals, zero delta total (see module docs).
            Ok(_) if vms.len() == want => return (vms, 0.0),
            Ok(_) => format!("holds {} rows, not {want}", vms.len()),
            Err(e) => e.to_string(),
        };
        panic!(
            "trace file '{}' changed since open(): shard {shard}: {changed}",
            self.path.display()
        )
    }

    fn largest_request(&self) -> (u32, u32, u32) {
        self.largest
    }

    fn span_units(&self) -> f64 {
        self.span
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{to_csv, HEADER};
    use crate::shard::materialize;
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

    fn temp_csv(tag: &str, contents: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("risa_trace_{}_{tag}.csv", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn csv_file_shards_match_in_memory_parse() {
        let w = sample_workload(SHARD_SIZE * 2 + 50);
        let path = temp_csv("roundtrip", &to_csv(&w));
        let shards = CsvFileShards::open("disk", &path).unwrap();
        assert_eq!(shards.total_vms(), w.len() as u32);
        assert_eq!(shards.num_shards(), 3);
        assert_eq!(
            shards.span_units().to_bits(),
            w.vms().last().unwrap().arrival.to_bits()
        );
        // Chunked re-reads reproduce the trace bit-for-bit, shard by shard
        // and end to end.
        assert_eq!(materialize(&shards), w.vms());
        let streamed: Vec<VmRequest> = StreamingShards::new(Arc::new(shards.clone())).collect();
        assert_eq!(streamed, *w.vms());
        std::fs::remove_file(&path).ok();
    }

    /// The arrival column a lane reads off each re-read shard is the
    /// trace's, bit for bit, with blank lines scattered through the file
    /// (one right at a shard boundary), and the per-column maxima the
    /// opening scan kept are the trace's too.
    #[test]
    fn csv_shard_arrivals_equal_the_arrival_column_of_shard_vms() {
        let w = sample_workload(SHARD_SIZE * 2 + 50);
        let mut csv = String::new();
        for (i, line) in to_csv(&w).lines().enumerate() {
            csv.push_str(line);
            csv.push('\n');
            if i % 97 == 0 || i == SHARD_SIZE as usize {
                csv.push_str(if i % 2 == 0 { "\n" } else { "   \n" });
            }
        }
        let path = temp_csv("arrivals", &csv);
        let shards = CsvFileShards::open("disk", &path).unwrap();
        assert_eq!(shards.num_shards(), 3);
        for s in 0..shards.num_shards() {
            let (vms, total) = shards.shard_vms(s);
            assert_eq!(total.to_bits(), shards.shard_total(s).to_bits());
            let r = shards.shard_range(s);
            let column: Vec<u64> = w.vms()[r.start as usize..r.end as usize]
                .iter()
                .map(|vm| vm.arrival.to_bits())
                .collect();
            let bits: Vec<u64> = vms.iter().map(|vm| vm.arrival.to_bits()).collect();
            assert_eq!(bits, column, "shard {s}");
        }
        assert_eq!(materialize(&shards), w.vms());
        assert_eq!(
            shards.largest_request(),
            TraceShards::new(w).largest_request()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_file_shards_tolerate_blank_lines_and_empty_files() {
        let path = temp_csv("blanks", &format!("{HEADER}\n\n0,1,2,128,1.0,10.0\n\n"));
        let shards = CsvFileShards::open("blanky", &path).unwrap();
        assert_eq!(shards.total_vms(), 1);
        assert_eq!(shards.shard_vms(0).0.len(), 1);
        std::fs::remove_file(&path).ok();

        let path = temp_csv("empty", &format!("{HEADER}\n"));
        let shards = CsvFileShards::open("empty", &path).unwrap();
        assert_eq!(shards.total_vms(), 0);
        assert_eq!(shards.num_shards(), 0);
        assert_eq!(shards.span_units(), 0.0);
        std::fs::remove_file(&path).ok();
    }

    /// The re-read is the scan: every shard of a file equals the matching
    /// slice of the whole-file read — CRLF endings, blank and
    /// whitespace-only lines inside a shard and between two, padded and
    /// signed rows only `parse_row` takes, no final newline, row counts
    /// around the shard size.
    #[test]
    fn shard_reads_equal_the_matching_slice_of_the_whole_read() {
        for n in [
            0,
            1,
            SHARD_SIZE - 1,
            SHARD_SIZE,
            SHARD_SIZE + 1,
            3 * SHARD_SIZE + 123,
        ] {
            let w = sample_workload(n);
            let mut text = format!("{HEADER}\r\n");
            for (i, row) in to_csv(&w).lines().skip(1).enumerate() {
                if i % SHARD_SIZE as usize == 0 || i % 613 == 5 {
                    text.push_str(if i % 2 == 0 { "\n \t\r\n" } else { "\r\n" });
                }
                match i % 7 {
                    0 => text.push_str(&format!("  {row}\t")),
                    1 => text.push_str(&format!("+{row}")),
                    _ => text.push_str(row),
                }
                text.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
            }
            if n % 2 == 1 {
                text.truncate(text.trim_end().len());
            }
            let path = temp_csv(&format!("slices_{n}"), &text);
            let whole = Workload::read_csv_file("x", &path).unwrap();
            assert_eq!(whole.vms(), w.vms(), "n = {n}");
            let shards = CsvFileShards::open("x", &path).unwrap();
            // Bytes appended once the file is open are not the trace's.
            let mut grown = text.clone().into_bytes();
            grown.extend(b"\nnot,a,row\n\xff\n");
            std::fs::write(&path, grown).unwrap();
            assert_eq!(shards.total_vms(), n);
            for s in 0..shards.num_shards() {
                let r = shards.shard_range(s);
                assert_eq!(
                    shards.shard_vms(s).0,
                    whole.vms()[r.start as usize..r.end as usize],
                    "n = {n}, shard {s}"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// A file that no longer holds a shard's rows where `open` found them
    /// — a row edited, a row gone, the file cut short — stops the run,
    /// naming the file and the shard.
    #[test]
    fn a_file_changed_after_open_panics_naming_file_and_shard() {
        let w = sample_workload(SHARD_SIZE + 50);
        let text = to_csv(&w);
        let second_shard = text.match_indices('\n').nth(SHARD_SIZE as usize).unwrap().0 + 1;
        let edited = format!("{}x{}", &text[..second_shard], &text[second_shard + 1..]);
        let row_gone = text[..second_shard].trim_end().rsplit_once('\n').unwrap().0;
        let row_gone = format!(
            "{row_gone}\n{}{}",
            " ".repeat(second_shard - row_gone.len() - 1),
            &text[second_shard..]
        );
        for (tag, changed, shard, want) in [
            ("edited", edited.as_str(), 1, "cannot parse column 'id'"),
            (
                "row_gone",
                row_gone.as_str(),
                0,
                "holds 4095 rows, not 4096",
            ),
            ("cut", &text[..text.len() - 20], 1, "shard 1"),
            ("cut_short", &text[..second_shard + 10], 1, "shard 1"),
        ] {
            let path = temp_csv(&format!("changed_{tag}"), &text);
            let shards = CsvFileShards::open("x", &path).unwrap();
            std::fs::write(&path, changed).unwrap();
            let panic = std::panic::catch_unwind(|| shards.shard_vms(shard))
                .expect_err("a changed file must not be served");
            let message = panic.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.contains(&path.display().to_string())
                    && message.contains(&format!("changed since open(): shard {shard}"))
                    && message.contains(want),
                "{tag}: {message}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn open_validates_eagerly() {
        let missing = CsvFileShards::open("x", "/nonexistent/risa/trace.csv").unwrap_err();
        assert!(matches!(missing, TraceFileError::Io { .. }));
        assert!(missing.to_string().contains("/nonexistent/risa/trace.csv"));

        let path = temp_csv("badheader", "nope\n0,1,2,128,1.0,10.0\n");
        assert_eq!(
            CsvFileShards::open("x", &path).unwrap_err(),
            TraceFileError::Csv(CsvError::BadHeader)
        );
        std::fs::remove_file(&path).ok();

        let path = temp_csv(
            "unsorted",
            &format!("{HEADER}\n0,1,2,128,5.0,10.0\n1,1,2,128,4.0,10.0\n"),
        );
        assert_eq!(
            CsvFileShards::open("x", &path).unwrap_err(),
            TraceFileError::Csv(CsvError::NotSorted { line: 3 })
        );
        std::fs::remove_file(&path).ok();

        let path = temp_csv(
            "sparseid",
            &format!("{HEADER}\n0,1,2,128,1.0,10.0\n5,1,2,128,2.0,10.0\n"),
        );
        assert_eq!(
            CsvFileShards::open("x", &path).unwrap_err(),
            TraceFileError::NonDenseId {
                line: 3,
                expected: 1,
                found: 5
            }
        );
        std::fs::remove_file(&path).ok();
    }

    /// The two ways into a trace file — whole, or shard by shard — are one
    /// validating pass: the same file gets the same verdict from both.
    #[test]
    fn whole_file_load_and_shard_open_agree() {
        let same = |tag: &str, contents: &[u8]| {
            let path = std::env::temp_dir()
                .join(format!("risa_trace_{}_same_{tag}.csv", std::process::id()));
            std::fs::write(&path, contents).unwrap();
            let whole = Workload::read_csv_file("x", &path);
            let shards = CsvFileShards::open("x", &path);
            let refused = match (whole, shards) {
                (Ok(w), Ok(s)) => {
                    assert_eq!(materialize(&s), w.vms(), "{tag}");
                    None
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{tag}");
                    Some(a)
                }
                (a, b) => panic!("{tag}: whole {a:?}, shards {b:?}"),
            };
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
        let missing = Workload::read_csv_file("x", "/nonexistent/risa/trace.csv").unwrap_err();
        assert_eq!(
            missing,
            CsvFileShards::open("x", "/nonexistent/risa/trace.csv").unwrap_err()
        );
    }
}
