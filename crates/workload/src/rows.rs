//! The one row loop of a trace file, [`ranked_rows`], and [`fast_row`],
//! the walk that reads the row a trace writer emits with what a replay
//! requires of it. A row the walk does not take goes whole to
//! [`crate::csv`]'s `parse_row` and the checks after it, which refuse the
//! trace with a [`TraceError`], the same value `csv::from_csv` returns.

use crate::csv::{bad_time, parse_row, valid_time, TraceError, HEADER, MAX_TIME};
use crate::decimal::{digits, plain_decimal, short_digits, spelled};
use crate::vm::VmRequest;
use std::io::{self, Read};

/// The time field at `bytes[start]`: its value and where the first byte
/// outside [`spelled`] is. `str::parse` gets what is no [`plain_decimal`]
/// (a sign, an exponent, 20 digits, an undecided quotient). `None` if the
/// buffer ends first, or the field is not a time in the domain.
#[inline]
pub(crate) fn fast_time(bytes: &[u8], start: usize) -> Option<(f64, usize)> {
    plain_decimal(bytes, start).or_else(|| {
        let end = start + bytes.get(start..)?.iter().position(|&b| !spelled(b))?;
        let value = std::str::from_utf8(&bytes[start..end]).ok()?.parse().ok()?;
        valid_time(value).then_some((value, end))
    })
}

/// A row as a replay keeps it: its VM's `[cpu_cores, ram_gb, storage_gb]`,
/// arrival and lifetime. Its id is its rank.
pub(crate) type Row = ([u32; 3], f64, f64);

/// The row a trace writer emits — `digits,digits,digits,digits,time,time`,
/// nothing padded, then `\n` or `\r\n` — read in one walk from the start
/// of its line with what a replay requires of it: its id `rank`, below
/// `u32::MAX`, and its arrival not before `last`. The row, and the bytes it
/// took. `None` is not a verdict: padding, a sign, a long integer, times
/// out of their domain, an id or arrival out of order, a buffer that ends
/// first all leave the line to [`parse_row`] and the checks after it.
#[inline]
fn fast_row(bytes: &[u8], rank: u32, last: f64) -> Option<(Row, usize)> {
    // Ten digits cannot wrap the `u64`; more are not tried.
    let (id, end) = digits(bytes, 0, 0);
    let ranked = id == u64::from(rank) && rank < u32::MAX;
    if !(1..=10).contains(&end) || bytes.get(end) != Some(&b',') || !ranked {
        return None;
    }
    let (mut shape, mut at) = ([0u32; 3], end + 1);
    for int in &mut shape {
        // Up to seven digits and a comma, one word; longer are not tried.
        let (value, run, after) = short_digits(bytes, at);
        if !(1..8).contains(&run) || after != b',' {
            return None;
        }
        (*int, at) = (value as u32, at + run + 1);
    }
    let (arrival, at) = fast_time(bytes, at).filter(|&(_, at)| bytes[at] == b',')?;
    let (lifetime, at) = fast_time(bytes, at + 1)?;
    let at = at + usize::from(bytes[at] == b'\r');
    // `fast_time`'s times are in their domain: of `bad_time`, the departure is left.
    let departs = arrival + lifetime <= MAX_TIME;
    debug_assert_eq!(departs, bad_time(arrival, lifetime).is_none());
    (bytes.get(at) == Some(&b'\n') && arrival >= last && departs)
        .then_some(((shape, arrival, lifetime), at + 1))
}

/// The longest line accepted (a row is under a hundred bytes; a "line" of
/// a megabyte is not a trace). A sixteenth of it is asked of the reader
/// at a time, and more only under a line that does not fit.
pub(crate) const BLOCK: usize = 1 << 20;

/// A whole line, for what [`fast_row`] left alone: the header where it is
/// due, a blank line (both `None`), a row only [`parse_row`] can judge.
fn judge(bytes: &[u8], line: usize, headed: bool) -> Result<Option<VmRequest>, TraceError> {
    let text = std::str::from_utf8(bytes).map_err(|_| TraceError::NotText { line })?;
    match (headed, text.trim()) {
        (false, HEADER) | (true, "") => Ok(None),
        (false, _) => Err(TraceError::BadHeader),
        (true, row) => parse_row(row, line).map(Some),
    }
}

/// What a replay requires of `vm`, the row at `line` after `rank` rows that
/// last arrived at `last`: its id its rank ([`TraceError::NonDenseId`]), its
/// arrival not before `last`, and room for one more row in a `u32`.
fn ranked(vm: &VmRequest, line: usize, rank: u32, last: f64) -> Result<(), TraceError> {
    if vm.id.0 != rank {
        Err(TraceError::NonDenseId {
            line,
            expected: rank,
            found: vm.id.0,
        })
    } else if vm.arrival < last {
        Err(TraceError::NotSorted { line })
    } else if rank == u32::MAX {
        Err(TraceError::TooManyRows { line })
    } else {
        Ok(())
    }
}

/// The rows of a trace a replay can take, in order, handed to `each`, a
/// block of `reader` at a time: [`fast_row`] where it answers, else the
/// whole line through [`parse_row`] and [`ranked`], which say why a row is
/// refused; blank lines skipped, the header required first. The one
/// definition of what a replay requires of a trace, and the loop of its
/// one reader, the trace store's ([`crate::TraceShards::read_csv_file`]).
pub(crate) fn ranked_rows(
    mut reader: impl Read,
    mut each: impl FnMut(Row),
) -> Result<(), TraceError> {
    // `buf[..filled]`: the bytes no complete line has claimed yet (a
    // line's carried head, then the reader's last block).
    let mut buf = vec![0u8; BLOCK >> 4];
    let (mut filled, mut line, mut headed) = (0usize, 0usize, false);
    let (mut rank, mut last) = (0u32, f64::NEG_INFINITY);
    loop {
        if filled == BLOCK {
            return Err(TraceError::LongLine { line: line + 1 });
        } else if filled == buf.len() {
            buf.resize(2 * filled, 0);
        }
        let got = loop {
            match reader.read(&mut buf[filled..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => break other.map_err(|e| TraceError::Io(e.to_string()))?,
            }
        };
        // The carried bytes hold no newline: only the new ones can end a line.
        let carried = filled;
        filled += got;
        let mut start = 0;
        loop {
            let fast = headed.then(|| fast_row(&buf[start..filled], rank, last));
            let row = match fast.flatten() {
                Some((row, used)) => {
                    (line, start) = (line + 1, start + used);
                    row
                }
                // Any other line, whole.
                None => {
                    let from = start.max(carried);
                    let end = match buf[from..filled].iter().position(|&b| b == b'\n') {
                        Some(at) => from + at,
                        None if got == 0 && start < filled => filled,
                        None => break,
                    };
                    line += 1;
                    let vm = judge(&buf[start..end], line, headed)?;
                    (headed, start) = (true, (end + 1).min(filled));
                    let Some(vm) = vm else { continue };
                    ranked(&vm, line, rank, last)?;
                    let shape = [vm.cpu_cores, vm.ram_gb, vm.storage_gb];
                    (shape, vm.arrival, vm.lifetime)
                }
            };
            (rank, last) = (rank + 1, row.1);
            each(row);
        }
        if got == 0 {
            break;
        }
        buf.copy_within(start..filled, 0);
        filled -= start;
    }
    if headed {
        Ok(())
    } else {
        Err(TraceError::BadHeader)
    }
}
