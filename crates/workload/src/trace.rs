//! Recorded traces as shard sources, held as columns.
//!
//! Generated workloads stream through [`crate::ShardSource`] because every
//! shard is *derivable* on demand from per-shard RNG streams. A recorded
//! trace (a CSV file, or a [`Workload`] already in memory) has no
//! generator to re-run — but it can still be **served** in shard-sized
//! slices, which is all the shard cursor needs: [`TraceShards`] does that.
//!
//! ## A trace as columns
//!
//! A replay reads each row's arrival, lifetime and three amounts, and its
//! id is its rank (a trace file whose ids are not is refused, see
//! [`TraceError::NonDenseId`]). So the store holds no id and no
//! request list: an arrival column, a lifetime column, and a column of
//! *shape* ids indexing the distinct `(cpu_cores, ram_gb, storage_gb)`
//! triples in order of first appearance — 20 B a row and 12 B a shape,
//! where a `Vec<VmRequest>` takes 32 B a row. A trace file is read once,
//! at build time, through the CSV reader's one row loop straight into the
//! columns ([`TraceShards::read_csv_file`]); the shape ids come from an
//! open-addressing table that lives only while the file loads, and since
//! they are handed out in order of first appearance, the same file always
//! makes the same store. A shard is gathered from the columns when the
//! cursor asks for it.
//!
//! ## The zero-delta stitching trick
//!
//! Generated shards report arrivals in *shard-local* time plus a per-shard
//! delta total, and the consumer rebases with `offset + local`. A recorded
//! trace's arrivals are already absolute, and `offset + (absolute - offset)`
//! is **not** an `f64` identity — rebasing through deltas would break
//! byte-identity with the materialized path. [`TraceShards`] therefore
//! returns arrivals **unchanged** with a per-shard delta total of `0.0`:
//! the consumer's running offset stays `0.0` forever, its rebase is
//! `arrival + 0.0` (exact for every non-negative arrival, and arrivals
//! are validated non-negative), and the streamed trace is bit-for-bit the
//! stored one. Because the totals no longer encode the span, it
//! overrides [`ShardSource::span_units`] with the true last arrival.

use crate::csv::TraceError;
use crate::rows::{self, Row};
use crate::shard::ShardSource;
use crate::vm::{VmId, VmRequest, Workload};
use std::fs::File;
use std::ops::Range;
use std::path::Path;

/// A recorded trace, held as columns and served shard by shard (see the
/// module docs).
///
/// How a trace file — or a trace already in memory, which tests hand
/// over — reaches the same cursor a generator feeds.
#[derive(Debug, Clone)]
pub struct TraceShards {
    name: String,
    /// Each row's arrival time.
    arrival: Vec<f64>,
    /// Each row's lifetime.
    lifetime: Vec<f64>,
    /// Each row's index into `shapes`.
    shape: Vec<u32>,
    /// The distinct `[cpu_cores, ram_gb, storage_gb]` triples, in order
    /// of first appearance.
    shapes: Vec<[u32; 3]>,
}

impl TraceShards {
    /// Hold a workload as columns. Its VMs must be sorted by arrival
    /// (enforced by [`Workload`] construction), and their ids are not
    /// kept: a VM's id is its rank, as it is in every generated trace and
    /// in every trace file [`TraceShards::read_csv_file`] accepts.
    pub fn new(workload: Workload) -> Self {
        debug_assert!(
            workload
                .vms()
                .iter()
                .zip(0..)
                .all(|(vm, rank)| vm.id.0 == rank),
            "a stored trace's ids are its ranks"
        );
        let mut loader = Loader::new(workload.name());
        for vm in workload.vms() {
            let shape = [vm.cpu_cores, vm.ram_gb, vm.storage_gb];
            loader.push((shape, vm.arrival, vm.lifetime));
        }
        loader.finish()
    }

    /// Load the CSV trace file at `path` into columns, in one pass of the
    /// CSV row loop under the checks a replay needs — the rows
    /// [`crate::csv::from_csv`] accepts, with its errors, each id its row's
    /// rank: validated a block at a time, and never resident as text or as
    /// a request list. The one reader of a trace file. `name` labels the
    /// workload; the error does not name the file, which the caller does.
    pub fn read_csv_file(name: &str, path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let file = File::open(path).map_err(|e| TraceError::Io(e.to_string()))?;
        let mut loader = Loader::new(name);
        rows::ranked_rows(
            file,
            #[inline(always)]
            |row| loader.push(row),
        )?;
        Ok(loader.finish())
    }

    /// Rows `range` as requests, each with its rank for its id.
    fn gather(&self, range: Range<u32>) -> Vec<VmRequest> {
        let r = range.start as usize..range.end as usize;
        self.arrival[r.clone()]
            .iter()
            .zip(&self.lifetime[r.clone()])
            .zip(&self.shape[r])
            .zip(range)
            .map(|(((&arrival, &lifetime), &shape), id)| {
                let [cpu_cores, ram_gb, storage_gb] = self.shapes[shape as usize];
                VmRequest {
                    id: VmId(id),
                    cpu_cores,
                    ram_gb,
                    storage_gb,
                    arrival,
                    lifetime,
                }
            })
            .collect()
    }
}

/// A [`TraceShards`] being filled row by row, with the table that hands
/// out its shape ids. [`Loader::finish`] keeps the store and drops the
/// table.
struct Loader {
    store: TraceShards,
    /// Open addressing, linear probing, a power-of-two length at most a
    /// quarter full: a slot holds a shape and its id plus one inline (0:
    /// empty), so a hit is one load and one compare.
    slots: Vec<[u32; 4]>,
}

impl Loader {
    fn new(name: &str) -> Self {
        Loader {
            store: TraceShards {
                name: name.to_string(),
                arrival: Vec::new(),
                lifetime: Vec::new(),
                shape: Vec::new(),
                shapes: Vec::new(),
            },
            slots: vec![[0; 4]; 64],
        }
    }

    /// Append a row: its shape's id and its two times.
    #[inline(always)]
    fn push(&mut self, (shape, arrival, lifetime): Row) {
        let at = probe(&self.slots, shape);
        let shape = match self.slots[at][3] {
            0 => self.intern(at, shape),
            slot => slot - 1,
        };
        self.store.arrival.push(arrival);
        self.store.lifetime.push(lifetime);
        self.store.shape.push(shape);
    }

    /// A new shape's id, the next, with its slot at `at`.
    #[cold]
    fn intern(&mut self, at: usize, shape: [u32; 3]) -> u32 {
        // Ids stay below the row count, itself a `u32`.
        let shapes = &mut self.store.shapes;
        let id = shapes.len() as u32;
        shapes.push(shape);
        self.slots[at] = [shape[0], shape[1], shape[2], id + 1];
        if 4 * shapes.len() > self.slots.len() {
            let grown = vec![[0; 4]; 2 * self.slots.len()];
            for slot in std::mem::replace(&mut self.slots, grown) {
                if slot[3] != 0 {
                    let at = probe(&self.slots, [slot[0], slot[1], slot[2]]);
                    self.slots[at] = slot;
                }
            }
        }
        id
    }

    /// The store, its columns trimmed to their length.
    fn finish(self) -> TraceShards {
        let mut store = self.store;
        store.arrival.shrink_to_fit();
        store.lifetime.shrink_to_fit();
        store.shape.shrink_to_fit();
        store.shapes.shrink_to_fit();
        store
    }
}

/// The slot of `slots` that holds `shape`, else the empty one its probe
/// reaches first.
#[inline]
fn probe(slots: &[[u32; 4]], shape: [u32; 3]) -> usize {
    let mask = slots.len() - 1;
    let mut at = home(shape) & mask;
    loop {
        match slots[at] {
            [_, _, _, 0] => return at,
            [cpu, ram, storage, _] if [cpu, ram, storage] == shape => return at,
            _ => at = (at + 1) & mask,
        }
    }
}

/// Where `shape`'s probe starts, before masking to the table's length.
#[inline]
fn home([cpu, ram, storage]: [u32; 3]) -> usize {
    let key = u64::from(cpu) ^ u64::from(ram).rotate_left(21) ^ u64::from(storage).rotate_left(42);
    let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed ^ (mixed >> 32)) as usize
}

impl ShardSource for TraceShards {
    fn total_vms(&self) -> u32 {
        self.arrival.len() as u32
    }

    fn label(&self) -> &str {
        &self.name
    }

    fn shard_vms(&self, shard: u32) -> (Vec<VmRequest>, f64) {
        // Arrivals stay absolute; delta total 0.0 keeps the consumer's
        // running offset at zero (see module docs).
        (self.gather(self.shard_range(shard)), 0.0)
    }

    fn largest_request(&self) -> (u32, u32, u32) {
        self.shapes
            .iter()
            .fold((0, 0, 0), |(c, r, s), &[cpu, ram, storage]| {
                (c.max(cpu), r.max(ram), s.max(storage))
            })
    }

    fn span_units(&self) -> f64 {
        self.arrival.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{from_csv, to_csv, HEADER};
    use crate::shard::{materialize, SHARD_SIZE};
    use crate::streaming::StreamingShards;
    use crate::synthetic::SyntheticConfig;
    use std::sync::Arc;

    fn sample_workload(n: u32) -> Workload {
        Workload::synthetic(&SyntheticConfig::small(n, 11))
    }

    /// Every field of every row, the times as bits.
    fn bits(vms: &[VmRequest]) -> Vec<(u32, [u32; 3], u64, u64)> {
        vms.iter()
            .map(|vm| {
                let shape = [vm.cpu_cores, vm.ram_gb, vm.storage_gb];
                (vm.id.0, shape, vm.arrival.to_bits(), vm.lifetime.to_bits())
            })
            .collect()
    }

    /// The trace store's verdict on `contents` as a file, checked against
    /// the text reader [`from_csv`]'s: the rows served, bit for bit, the
    /// largest request and the span, or the same refusal. A refusal of
    /// ids the text reader takes names the row it read there; bytes that
    /// are no text, or a line past a read block, are the store's alone.
    fn load(tag: &str, contents: &[u8]) -> Result<TraceShards, TraceError> {
        let path =
            std::env::temp_dir().join(format!("risa_trace_{}_{tag}.csv", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        let store = TraceShards::read_csv_file("x", &path);
        std::fs::remove_file(&path).ok();
        let Ok(text) = std::str::from_utf8(contents) else {
            return store;
        };
        let judged = from_csv("x", text);
        if let Err(TraceError::NonDenseId {
            expected, found, ..
        }) = store
        {
            let read = judged.expect("the text reader takes any ids");
            assert_eq!(read.vms()[expected as usize].id.0, found, "{tag}");
            return store;
        }
        let served = store.as_ref().map(|store| {
            let span = store.span_units().to_bits();
            (bits(&materialize(store)), store.largest_request(), span)
        });
        let read = judged.map(|read| {
            let fold = read.vms().iter().fold((0, 0, 0), |(c, r, s), vm| {
                (c.max(vm.cpu_cores), r.max(vm.ram_gb), s.max(vm.storage_gb))
            });
            let span = read.vms().last().map_or(0.0, |vm| vm.arrival).to_bits();
            (bits(read.vms()), fold, span)
        });
        assert_eq!(served.map_err(Clone::clone), read, "{tag}");
        store
    }

    #[test]
    fn trace_shards_reproduce_the_workload_exactly() {
        // 2.5 shards so the ragged tail and shard boundaries are exercised.
        let w = sample_workload(SHARD_SIZE * 2 + 50);
        let shards = TraceShards::new(w.clone());
        assert_eq!(shards.total_vms(), w.len() as u32);
        assert_eq!(shards.label(), w.name());
        assert_eq!(bits(&materialize(&shards)), bits(w.vms()));
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

    /// The store serves what [`from_csv`] reads, bit for bit: a trace
    /// with a ragged last shard, one of a single shape, and one in which every row is a shape of its own, so
    /// the shape table grows many times over while it loads.
    #[test]
    fn store_serves_what_read_csv_reads() {
        let ragged = to_csv(&sample_workload(SHARD_SIZE * 2 + 50));
        let store = load("ragged", ragged.as_bytes()).unwrap();
        assert_eq!(store.total_vms(), SHARD_SIZE * 2 + 50);
        assert_eq!(store.shard_vms(2).0.len(), 50);

        let mut one = format!("{HEADER}\n");
        let mut distinct = one.clone();
        for i in 0..5000u32 {
            let t = f64::from(i) * 0.1;
            one.push_str(&format!("{i},8,16,128,{t:?},6300.0\n"));
            distinct.push_str(&format!(
                "{i},{},{},{},{t:?},{:?}\n",
                i + 1,
                5000 - i,
                i % 7,
                t / 3.0
            ));
        }
        let store = load("one", one.as_bytes()).unwrap();
        assert_eq!((store.total_vms(), store.shapes.len()), (5000, 1));
        let store = load("distinct", distinct.as_bytes()).unwrap();
        assert_eq!((store.total_vms(), store.shapes.len()), (5000, 5000));
        assert_eq!(store.largest_request(), (5000, 5000, 6));
        // Ids come from first appearance, so the same file makes the same
        // store however its shapes hash.
        assert!(store.shape.iter().zip(0..).all(|(&id, rank)| id == rank));
    }

    #[test]
    fn csv_file_shards_tolerate_blank_lines_and_empty_files() {
        let crlf = format!("{HEADER}\r\n\r\n0,1,2,128,1.0,10.0\r\n\n1,3,4,128,2.5,0.125\r\n\r\n");
        let store = load("crlf", crlf.as_bytes()).unwrap();
        assert_eq!(store.total_vms(), 2);
        assert_eq!(store.shard_vms(0).0.len(), 2);

        let empty = load("empty", format!("{HEADER}\n").as_bytes()).unwrap();
        assert_eq!(empty.total_vms(), 0);
        assert_eq!(empty.num_shards(), 0);
        assert_eq!(empty.span_units(), 0.0);
        assert_eq!(empty.largest_request(), (0, 0, 0));
    }

    /// Bytes per row: 20 of heap capacity in the columns and 12 per
    /// distinct shape, and no load-time table kept — pinned so a stored
    /// trace does not grow back into a request list (32 B a row) unnoticed.
    #[test]
    fn bytes_per_row_are_pinned() {
        let rows = 100_000u32;
        let mut text = format!("{HEADER}\n");
        for i in 0..rows {
            let (cpu, ram) = (i % 32 + 1, i / 32 % 32 + 1);
            let t = f64::from(i) * 9.25;
            text.push_str(&format!("{i},{cpu},{ram},128,{t:?},6300.5\n"));
        }
        let store = load("footprint", text.as_bytes()).unwrap();
        let shapes = store.shapes.len();
        assert_eq!(shapes, 1024);
        let heap = 8 * store.arrival.capacity()
            + 8 * store.lifetime.capacity()
            + 4 * store.shape.capacity()
            + 12 * store.shapes.capacity();
        let bound = 20 * rows as usize + 12 * shapes;
        assert!(heap <= bound + 64, "{heap} B of columns, bound {bound} B");
        assert_eq!(
            std::mem::size_of::<TraceShards>(),
            std::mem::size_of::<String>() + 4 * std::mem::size_of::<Vec<u8>>(),
            "a name and four columns"
        );
        assert_eq!(std::mem::size_of::<VmRequest>(), 32);
    }

    /// Dense ids are enforced where a trace enters a replay, not by
    /// [`Workload::from_vms`] or the text reader: a file by the store's
    /// reader, a workload by [`TraceShards::new`]'s `debug_assert!`.
    #[test]
    fn dense_ids_are_enforced_by_the_reader_and_the_store() {
        let rows = "0,1,2,128,1.0,10\n2,1,2,128,2.0,10\n";
        let refused = TraceError::NonDenseId {
            line: 3,
            expected: 1,
            found: 2,
        };
        assert_eq!(
            load("nondense", format!("{HEADER}\n{rows}").as_bytes()).err(),
            Some(refused)
        );
        let sparse = from_csv("x", &format!("{HEADER}\n{rows}")).unwrap();
        let stored = std::panic::catch_unwind(|| TraceShards::new(sparse));
        assert_eq!(stored.is_err(), cfg!(debug_assertions));
    }

    /// Every file refused is refused when the store opens it, with the
    /// same [`TraceError`], line and column the text reader names.
    #[test]
    fn open_validates_eagerly() {
        let missing = TraceShards::read_csv_file("x", "/nonexistent/risa/trace.csv").unwrap_err();
        assert!(matches!(missing, TraceError::Io(_)));

        let doc = |rows: &str| format!("{HEADER}\n{rows}").into_bytes();
        let refused = |tag: &str, contents: &[u8]| load(tag, contents).err();
        assert_eq!(refused("empty", b""), Some(TraceError::BadHeader));
        assert_eq!(
            refused("badheader", b"nope\n0,1,2,128,1.0,10.0\n"),
            Some(TraceError::BadHeader)
        );
        for (tag, rows, error) in [
            (
                "unsorted",
                "0,1,2,128,5.0,10.0\n1,1,2,128,4.0,10.0\n",
                TraceError::NotSorted { line: 3 },
            ),
            (
                "arity",
                "0,1,2,128,1.0,10\n1,1,2,128,2.0\n",
                TraceError::BadArity { line: 3 },
            ),
            (
                "field",
                "0,1,2,128,1.0,10\n1,1,x,128,2.0,10\n",
                TraceError::BadField {
                    line: 3,
                    column: "ram_gb",
                },
            ),
            (
                "value",
                "0,1,2,128,1.0,10\n\n1,1,2,128,2.0,1e13\n",
                TraceError::BadValue {
                    line: 4,
                    column: "lifetime",
                },
            ),
            (
                "swapped",
                "1,1,2,128,1.0,10\n0,1,2,128,2.0,10\n",
                TraceError::NonDenseId {
                    line: 2,
                    expected: 0,
                    found: 1,
                },
            ),
            (
                "dup",
                "0,1,2,128,1.0,10\n0,1,2,128,2.0,10\n",
                TraceError::NonDenseId {
                    line: 3,
                    expected: 1,
                    found: 0,
                },
            ),
            (
                "gap",
                "0,1,2,128,1.0,10.0\n5,1,2,128,2.0,10.0\n",
                TraceError::NonDenseId {
                    line: 3,
                    expected: 1,
                    found: 5,
                },
            ),
        ] {
            assert_eq!(refused(tag, &doc(rows)), Some(error), "{tag}");
        }
        let mut binary = doc("0,1,2,128,1.0,10\n");
        binary.extend([0xc3, 0x28, b'\n']);
        assert_eq!(
            refused("binary", &binary),
            Some(TraceError::NotText { line: 3 })
        );
    }

    /// A file the store takes is the trace the text reader reads, in any
    /// spelling the language allows.
    #[test]
    fn whole_file_load_and_shard_open_agree() {
        let text = format!("{HEADER}\n0,1,2,128,1.0,10\r\n\n 1,+1,2,128,1.0,10");
        let store = load("spelled", text.as_bytes()).unwrap();
        let judged = from_csv("x", &text).unwrap();
        assert_eq!(bits(&materialize(&store)), bits(judged.vms()));
        assert_eq!(store.label(), "x");
    }
}
