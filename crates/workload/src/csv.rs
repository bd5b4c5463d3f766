//! CSV traces: the one trace file format.
//!
//! CSV is the lingua franca of trace analysis tooling (the Azure trace
//! itself ships as CSV), so a trace is a simple header-checked CSV:
//!
//! ```text
//! id,cpu_cores,ram_gb,storage_gb,arrival,lifetime
//! 0,8,16,128,12.5,6300.0
//! ```
//!
//! Times are written with `{:?}` — Rust's shortest-round-trip float
//! rendering — so a CSV round trip preserves every `f64` bit-for-bit
//! (asserted by `csv_round_trip_is_bit_exact` below). This matters for
//! runs over a trace file and checkpoint resumes, whose byte-identity
//! guarantees assume the trace survives interchange exactly.
//!
//! Two readers accept the same language, row for row (`parse_row` is
//! its one definition): [`from_csv`] over text already in memory, and
//! [`read_csv`] over any [`Read`], a block at a time — that one never holds
//! the text, and also requires what a replay requires of a trace
//! (`ranked_rows`: ids equal to each row's rank, arrivals sorted). A trace
//! *file* a simulation replays goes through the same `ranked_rows` into
//! columns ([`crate::TraceShards::read_csv_file`]), never into a list of
//! requests.
//!
//! The block reader is one row loop (`rows`). At each line start it tries
//! `fast_row`: the row a trace writer emits, read in one walk over its
//! bytes — newline included, no UTF-8 pass, digits eight at a time, and a
//! time that is a plain decimal of at most 19 digits read exactly in
//! integers (`plain_decimal`), so `str::parse` sees only exponents, signs
//! and longer fields. Its `None` is *not* a verdict; the loop then finds
//! the line's end and `parse_row` accepts the line or names its error.

use crate::vm::{VmId, VmRequest, Workload};
use std::fmt::Write as _;
use std::io::{self, Read};

/// The exact header line emitted and required.
pub const HEADER: &str = "id,cpu_cores,ram_gb,storage_gb,arrival,lifetime";

/// The latest a row's VM may leave: its `arrival + lifetime`, in time
/// units. A simulation's clock counts `u64` ticks of 10⁻⁶ units, so it ends
/// near 1.8·10¹³ units, and a time past it would be clamped to that end
/// rather than run; this bound keeps every row's times inside the clock.
pub const MAX_TIME: f64 = 1e13;

/// Errors raised while parsing a CSV trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// First line did not match [`HEADER`].
    BadHeader,
    /// A row had the wrong number of fields.
    BadArity {
        /// 1-based line number.
        line: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: &'static str,
    },
    /// A field parsed but its value is outside the valid domain: a
    /// non-finite or negative time, or a VM that would leave after
    /// [`MAX_TIME`]. NaN in particular would otherwise silently defeat the
    /// sorted-arrivals check (`NaN < last` is false) and poison downstream
    /// event ordering.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: &'static str,
    },
    /// Rows are not sorted by arrival time.
    NotSorted {
        /// 1-based line number of the offending row.
        line: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::BadHeader => write!(f, "bad CSV header (expected '{HEADER}')"),
            CsvError::BadArity { line } => write!(f, "line {line}: expected 6 fields"),
            CsvError::BadField { line, column } => {
                write!(f, "line {line}: cannot parse column '{column}'")
            }
            CsvError::BadValue { line, column } => {
                write!(
                    f,
                    "line {line}: column '{column}' must be a finite, non-negative number, \
                     with arrival + lifetime at most {MAX_TIME:e}"
                )
            }
            CsvError::NotSorted { line } => {
                write!(f, "line {line}: arrivals must be non-decreasing")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Serialize a workload as CSV (header + one row per VM).
pub fn to_csv(w: &Workload) -> String {
    let mut out = String::with_capacity(64 * (w.len() + 1));
    out.push_str(HEADER);
    out.push('\n');
    for vm in w.vms() {
        write_row(&mut out, vm);
    }
    out
}

/// Append `vm`'s row, newline included, to `out`.
pub fn write_row(out: &mut String, vm: &VmRequest) {
    // `{:?}` (shortest round-trip rendering) for the two floats:
    // `{}` Display can render a value whose re-parse differs in the
    // last ulp, which would silently break trace byte-identity.
    writeln!(
        out,
        "{},{},{},{},{:?},{:?}",
        vm.id.0, vm.cpu_cores, vm.ram_gb, vm.storage_gb, vm.arrival, vm.lifetime
    )
    .expect("writing to a String cannot fail");
}

/// Parse one data row (no header, already trimmed, non-empty) into a
/// [`VmRequest`]. `line` is the 1-based line number used in errors.
///
/// Shared by [`from_csv`] and the block reader's row loop ([`rows`]), so
/// both accept exactly the same rows. The sorted-arrivals check stays
/// with the callers because it needs cross-row state.
pub(crate) fn parse_row(row: &str, line: usize) -> Result<VmRequest, CsvError> {
    // Exactly six fields, checked before any of them is parsed, without
    // a per-row allocation.
    let mut split = row.split(',');
    let mut fields = [""; 6];
    for field in &mut fields {
        *field = split.next().ok_or(CsvError::BadArity { line })?;
    }
    if split.next().is_some() {
        return Err(CsvError::BadArity { line });
    }
    fn num<T: std::str::FromStr>(
        s: &str,
        line: usize,
        column: &'static str,
    ) -> Result<T, CsvError> {
        s.trim()
            .parse()
            .map_err(|_| CsvError::BadField { line, column })
    }
    let vm = VmRequest {
        id: VmId(num(fields[0], line, "id")?),
        cpu_cores: num(fields[1], line, "cpu_cores")?,
        ram_gb: num(fields[2], line, "ram_gb")?,
        storage_gb: num(fields[3], line, "storage_gb")?,
        arrival: num(fields[4], line, "arrival")?,
        lifetime: num(fields[5], line, "lifetime")?,
    };
    match bad_time(vm.arrival, vm.lifetime) {
        Some(column) => Err(CsvError::BadValue { line, column }),
        None => Ok(vm),
    }
}

/// The domain of one time field.
fn valid_time(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

/// The column that takes a row's times out of their domain — each a
/// [`valid_time`], and the VM gone by [`MAX_TIME`] — if one does. The one
/// judgment of a row's times, [`parse_row`]'s and [`fast_row`]'s.
fn bad_time(arrival: f64, lifetime: f64) -> Option<&'static str> {
    if !valid_time(arrival) || arrival > MAX_TIME {
        Some("arrival")
    } else if !valid_time(lifetime) || arrival + lifetime > MAX_TIME {
        Some("lifetime")
    } else {
        None
    }
}

/// `10^k`, each an exact `f64`, for the `k` a 19-digit field can have behind its point.
const POW10: [f64; 20] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19,
];

/// `10^k` as integers, for the same `k`.
const POW10_INT: [u64; 20] = {
    let mut table = [1u64; 20];
    let mut k = 1;
    while k < 20 {
        table[k] = table[k - 1] * 10;
        k += 1;
    }
    table
};

/// `b'0'` in every byte of a word.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// The run of decimal digits at `bytes[at]`, appended to `value`: the
/// new value and where the run ends. Wraps past 19 digits in all; the
/// callers count them.
///
/// Eight bytes at a time while eight are left: one load says how many of
/// them lead with digits, and those are folded in at once.
fn digits(bytes: &[u8], mut at: usize, mut value: u64) -> (u64, usize) {
    while let Some(&word) = bytes.get(at..).and_then(<[u8]>::first_chunk) {
        let word = u64::from_le_bytes(word);
        // A byte is a digit iff its `- b'0'` is below 10: no high-nibble bit
        // set, before or after adding 6. Borrows and carries only run from a
        // lower byte to a higher one, so the lowest byte flagged is the
        // first that is not a digit, and the bytes below it are exact.
        let less = word.wrapping_sub(ZEROS);
        let flagged = (less | less.wrapping_add(0x0606_0606_0606_0606)) & 0xf0f0_f0f0_f0f0_f0f0;
        let run = (flagged.trailing_zeros() / 8) as usize;
        if run == 0 {
            return (value, at);
        }
        // The run's digits, shifted to the top of the word, read as an
        // eight-digit number behind leading zeros.
        let chunk = eight_digits(less << (64 - 8 * run));
        value = value.wrapping_mul(POW10_INT[run]).wrapping_add(chunk);
        at += run;
        if run < 8 {
            return (value, at);
        }
    }
    while at < bytes.len() && bytes[at].wrapping_sub(b'0') < 10 {
        value = value
            .wrapping_mul(10)
            .wrapping_add(u64::from(bytes[at] - b'0'));
        at += 1;
    }
    (value, at)
}

/// The number eight digits spell, one digit a byte, the first in the
/// lowest byte (a little-endian load of their text, less `b'0'` each):
/// adjacent digits pair into 2-digit lanes, those into 4-digit lanes, and
/// those into the value. No lane outgrows its width.
fn eight_digits(word: u64) -> u64 {
    let pairs = (word * 10 + (word >> 8)) & 0x00ff_00ff_00ff_00ff;
    let quads = (pairs * 100 + (pairs >> 16)) & 0x0000_ffff_0000_ffff;
    (quads * 10_000 + (quads >> 32)) & 0xffff_ffff
}

/// `mantissa / 10^frac` rounded once, to nearest with ties to even: the
/// `f64` `str::parse` gives for that decimal. Below 2⁵³ both operands are
/// exact `f64`s and one IEEE division rounds once (Clinger's exact case).
/// Above, the mantissa is not an `f64`, so the quotient is taken in
/// integers: `mantissa · 2⁶⁴ / 10^frac` has at least 54 bits (the mantissa
/// is at least 2⁵³ and the divisor below 2⁶⁴), the top 53 are the
/// significand, the next the round bit, and the bits under it and the
/// division's remainder the sticky bit.
fn exact_quotient(mantissa: u64, frac: usize) -> f64 {
    if mantissa < 1 << 53 {
        return mantissa as f64 / POW10[frac];
    }
    let divisor = u128::from(POW10_INT[frac]);
    let scaled = u128::from(mantissa) << 64;
    let quotient = scaled / divisor;
    let inexact = quotient * divisor != scaled;
    let shift = 128 - 53 - quotient.leading_zeros();
    let half = 1u128 << (shift - 1);
    let below = quotient & (2 * half - 1);
    let significand = (quotient >> shift) as u64;
    let up = below > half || (below == half && (inexact || significand & 1 == 1));
    // The value is `significand · 2^(shift − 64)` with the significand in
    // [2⁵², 2⁵³): a normal `f64` whose biased exponent is `shift + 1011`.
    // Rounding up to 2⁵³ carries into that exponent, as it should.
    let bits = (u64::from(shift) + 1011) << 52;
    f64::from_bits(bits + (significand - (1 << 52)) + u64::from(up))
}

/// A byte a time field may be spelled with.
fn spelled(byte: u8) -> bool {
    matches!(byte, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

/// The plain decimal at `bytes[start]` — 1 to 19 digits around at most
/// one point, then a byte outside [`spelled`] — as `str::parse` reads it:
/// its value and where that byte is. `None` for any other spelling, or a
/// buffer that ends first.
fn plain_decimal(bytes: &[u8], start: usize) -> Option<(f64, usize)> {
    let (mut mantissa, mut at) = digits(bytes, start, 0);
    let mut count = at - start;
    let mut frac = 0;
    if bytes.get(at) == Some(&b'.') {
        let point = at;
        (mantissa, at) = digits(bytes, at + 1, mantissa);
        frac = at - point - 1;
        count += frac;
    }
    (!spelled(*bytes.get(at)?) && (1..=19).contains(&count))
        .then(|| (exact_quotient(mantissa, frac), at))
}

/// The time field starting at `bytes[start]`: its value and where the
/// first byte outside [`spelled`] is. A [`plain_decimal`] is read
/// exactly; `str::parse` gets every other spelling (a sign, an exponent,
/// 20 digits or more). `None` if the buffer ends first, or the field is
/// not a time in the domain.
fn fast_time(bytes: &[u8], start: usize) -> Option<(f64, usize)> {
    if let Some(read) = plain_decimal(bytes, start) {
        return Some(read);
    }
    let end = start + bytes.get(start..)?.iter().position(|&b| !spelled(b))?;
    let value = std::str::from_utf8(&bytes[start..end]).ok()?.parse().ok()?;
    valid_time(value).then_some((value, end))
}

/// The row a trace writer emits — `digits,digits,digits,digits,time,time`,
/// nothing padded, no sign on the integers, then `\n` or `\r\n` — read in
/// one walk from the start of its line: the row, and the bytes it took,
/// newline included. `None` is not a verdict: padding, a sign, a seventh
/// field, an overflow, times outside their domain, a buffer that ends
/// before the newline all leave the line to [`parse_row`]. So this
/// decides nothing about what a row may look like.
fn fast_row(bytes: &[u8]) -> Option<(VmRequest, usize)> {
    let mut at = 0;
    let mut int = || {
        // Ten digits cannot wrap the `u64`; more are not tried.
        let (value, end) = digits(bytes, at, 0);
        let field = (1..=10).contains(&(end - at)) && bytes.get(end) == Some(&b',');
        at = end + 1;
        u32::try_from(value).ok().filter(|_| field)
    };
    let (id, cpu_cores, ram_gb, storage_gb) = (int()?, int()?, int()?, int()?);
    let (arrival, at) = fast_time(bytes, at).filter(|&(_, at)| bytes[at] == b',')?;
    let (lifetime, at) = fast_time(bytes, at + 1)?;
    let at = at + usize::from(bytes[at] == b'\r');
    let vm = VmRequest {
        id: VmId(id),
        cpu_cores,
        ram_gb,
        storage_gb,
        arrival,
        lifetime,
    };
    (bytes.get(at) == Some(&b'\n') && bad_time(arrival, lifetime).is_none()).then_some((vm, at + 1))
}

/// Parse a workload from CSV produced by [`to_csv`] (or hand-written in
/// the same schema). `name` labels the resulting workload.
pub fn from_csv(name: &str, csv: &str) -> Result<Workload, CsvError> {
    let mut lines = csv.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        _ => return Err(CsvError::BadHeader),
    }
    let mut vms: Vec<VmRequest> = Vec::new();
    let mut last_arrival = f64::NEG_INFINITY;
    for (idx, row) in lines {
        let line = idx + 1;
        let row = row.trim();
        if row.is_empty() {
            continue;
        }
        let vm = parse_row(row, line)?;
        if vm.arrival < last_arrival {
            return Err(CsvError::NotSorted { line });
        }
        last_arrival = vm.arrival;
        vms.push(vm);
    }
    Ok(Workload::from_vms(name, vms))
}

/// Why [`read_csv`] refused its input.
#[derive(Debug)]
pub enum ReadError {
    /// The reader failed, or the bytes were not UTF-8 (an
    /// [`io::ErrorKind::InvalidData`] error, as `read_to_string` reports
    /// it), or a line ran past a megabyte.
    Io(io::Error),
    /// A row broke the rules [`from_csv`] enforces.
    Csv(CsvError),
    /// A row's id is not its 0-based rank. A simulation addresses VMs by
    /// arrival index, so a gap, duplicate or permutation in the ids would
    /// place some other row's VM at this row's arrival.
    NonDenseId {
        /// 1-based line number.
        line: usize,
        /// Rank the row should have carried.
        expected: u32,
        /// Id actually found.
        found: u32,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => e.fmt(f),
            ReadError::Csv(e) => e.fmt(f),
            ReadError::NonDenseId {
                line,
                expected,
                found,
            } => write!(
                f,
                "line {line}: VM ids must be dense and in order (expected {expected}, found {found})"
            ),
        }
    }
}

impl std::error::Error for ReadError {}

impl ReadError {
    /// Input that is not a trace at all, reported as `read_to_string`
    /// reports bytes that are not text.
    fn invalid_data(what: impl Into<String>) -> Self {
        ReadError::Io(io::Error::new(io::ErrorKind::InvalidData, what.into()))
    }
}

/// The longest line accepted (a row is under a hundred bytes; a "line" of
/// a megabyte is not a trace). A sixteenth of it is asked of the reader
/// at a time, and more only under a line that does not fit.
const BLOCK: usize = 1 << 20;

/// A whole line, for what [`fast_row`] left alone: the header where it is
/// due, a blank line (both `None`), a row only [`parse_row`] can judge.
fn judge(bytes: &[u8], line: usize, headed: bool) -> Result<Option<VmRequest>, ReadError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| ReadError::invalid_data("stream did not contain valid UTF-8"))?;
    match (headed, text.trim()) {
        (false, HEADER) | (true, "") => Ok(None),
        (false, _) => Err(ReadError::Csv(CsvError::BadHeader)),
        (true, row) => parse_row(row, line).map(Some).map_err(ReadError::Csv),
    }
}

/// The one row loop: every data row of `reader`, a block at a time —
/// [`fast_row`] where it answers, else the line through [`parse_row`];
/// blank lines skipped; the header required first. Hands `each` the row's
/// 1-based line number and the row.
fn rows(
    mut reader: impl Read,
    mut each: impl FnMut(usize, VmRequest) -> Result<(), ReadError>,
) -> Result<(), ReadError> {
    // `buf[..filled]`: the bytes no complete line has claimed yet (a
    // line's carried head, then the reader's last block).
    let mut buf = vec![0u8; BLOCK >> 4];
    let (mut filled, mut line, mut headed) = (0usize, 0usize, false);
    loop {
        if filled == BLOCK {
            return Err(ReadError::invalid_data(format!(
                "line {} is longer than {BLOCK} bytes",
                line + 1
            )));
        } else if filled == buf.len() {
            buf.resize(2 * filled, 0);
        }
        let got = loop {
            match reader.read(&mut buf[filled..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => break other.map_err(ReadError::Io)?,
            }
        };
        // The carried bytes hold no newline: only the new ones can end a line.
        let mut searched = filled;
        filled += got;
        let mut start = 0;
        while start < filled {
            let (vm, next) = match headed.then(|| fast_row(&buf[start..filled])).flatten() {
                Some((vm, used)) => (Some(vm), start + used),
                None => {
                    let end = match buf[searched..filled].iter().position(|&b| b == b'\n') {
                        Some(at) => searched + at,
                        None if got == 0 => filled,
                        None => break,
                    };
                    let vm = judge(&buf[start..end], line + 1, headed)?;
                    headed = true;
                    (vm, (end + 1).min(filled))
                }
            };
            line += 1;
            if let Some(vm) = vm {
                each(line, vm)?;
            }
            start = next;
            searched = next;
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
        Err(ReadError::Csv(CsvError::BadHeader))
    }
}

/// The rows of a trace a replay can take, in order: [`rows`], and on each
/// row what a replay requires of a trace — its id equal to its rank
/// (judged after the row itself and before its order, see
/// [`ReadError::NonDenseId`]), arrivals non-decreasing, and at most
/// `u32::MAX` rows. The one definition of those checks, for [`read_csv`]
/// and for the trace store a run replays ([`crate::TraceShards`]).
pub(crate) fn ranked_rows(
    reader: impl Read,
    mut each: impl FnMut(&VmRequest),
) -> Result<(), ReadError> {
    let mut rank: u32 = 0;
    let mut last_arrival = f64::NEG_INFINITY;
    rows(reader, |line, vm| {
        if vm.id.0 != rank {
            return Err(ReadError::NonDenseId {
                line,
                expected: rank,
                found: vm.id.0,
            });
        }
        if vm.arrival < last_arrival {
            return Err(ReadError::Csv(CsvError::NotSorted { line }));
        }
        // A trace's length must itself be a `u32`.
        rank = rank.checked_add(1).ok_or_else(|| {
            ReadError::invalid_data(format!(
                "line {line}: a trace holds at most {} rows",
                u32::MAX
            ))
        })?;
        last_arrival = vm.arrival;
        each(&vm);
        Ok(())
    })
}

/// Read a workload from a CSV trace (the [`to_csv`] schema) without ever
/// holding more of it than one read block. Accepts exactly the rows
/// [`from_csv`] accepts, with the same errors, and additionally requires
/// what a replay requires of a trace: each id its row's rank (see
/// [`ReadError::NonDenseId`]) and at most `u32::MAX` rows. `name` labels
/// the resulting workload. The library's reader of a whole trace, and the
/// oracle the trace store a run replays is tested against.
pub fn read_csv(name: &str, reader: impl Read) -> Result<Workload, ReadError> {
    let mut vms = Vec::new();
    ranked_rows(reader, |vm| vms.push(*vm))?;
    Ok(Workload::from_vms(name, vms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_preserves_everything_but_name() {
        let w = Workload::synthetic(&SyntheticConfig::small(60, 3));
        let back = from_csv("synthetic", &to_csv(&w)).unwrap();
        assert_eq!(w, back);
    }

    /// Regression for the `{}`-formatted writer: every `f64` bit pattern
    /// that can legally appear in a trace (subnormals, values with no
    /// short decimal form, a departure at [`MAX_TIME`] itself) must survive
    /// a CSV round trip exactly.
    #[test]
    fn csv_round_trip_is_bit_exact() {
        let times = [
            0.0,
            0.1 + 0.2, // 0.30000000000000004 — classic shortest-repr case
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            1.5e-10,
            12.5,
            6300.000000000001,
            MAX_TIME / 3.0,
            MAX_TIME / 2.0, // the last VM leaves at MAX_TIME exactly
        ];
        let mut sorted: Vec<f64> = times.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let vms: Vec<VmRequest> = sorted
            .iter()
            .enumerate()
            .map(|(i, &t)| VmRequest {
                id: VmId(i as u32),
                cpu_cores: 1,
                ram_gb: 2,
                storage_gb: 4,
                arrival: t,
                lifetime: times[i],
            })
            .collect();
        let w = Workload::from_vms("bits", vms);
        let back = from_csv("bits", &to_csv(&w)).unwrap();
        assert_eq!(back.len(), w.len());
        for (a, b) in w.vms().iter().zip(back.vms()) {
            assert_eq!(
                a.arrival.to_bits(),
                b.arrival.to_bits(),
                "arrival {} not bit-identical after round trip",
                a.arrival
            );
            assert_eq!(
                a.lifetime.to_bits(),
                b.lifetime.to_bits(),
                "lifetime {} not bit-identical after round trip",
                a.lifetime
            );
        }
    }

    #[test]
    fn header_enforced() {
        assert_eq!(
            from_csv("x", "wrong\n1,2,3,4,5,6").unwrap_err(),
            CsvError::BadHeader
        );
        assert_eq!(from_csv("x", "").unwrap_err(), CsvError::BadHeader);
    }

    #[test]
    fn arity_and_field_errors_carry_line_numbers() {
        // Too few, too many, and a trailing comma (an empty seventh
        // field) — arity is judged before any field is parsed.
        for bad in [
            "1,2,3",
            "1,2,3,128,1.0",
            "1,2,3,128,1.0,10,7",
            "1,2,3,128,1.0,10,",
            "1,one,3,128,1.0,10,7",
        ] {
            let csv = format!("{HEADER}\n0,1,2,128,0.0,10\n{bad}\n");
            assert_eq!(
                from_csv("x", &csv).unwrap_err(),
                CsvError::BadArity { line: 3 },
                "row: {bad}"
            );
        }

        let csv = format!("{HEADER}\n0,one,2,128,0.0,10\n");
        assert_eq!(
            from_csv("x", &csv).unwrap_err(),
            CsvError::BadField {
                line: 2,
                column: "cpu_cores"
            }
        );
    }

    #[test]
    fn unsorted_arrivals_rejected() {
        let csv = format!("{HEADER}\n0,1,2,128,5.0,10\n1,1,2,128,4.0,10\n");
        assert_eq!(
            from_csv("x", &csv).unwrap_err(),
            CsvError::NotSorted { line: 3 }
        );
    }

    /// Regression: a NaN arrival used to slip through the `NotSorted`
    /// check (`NaN < last` is false, and every later comparison against
    /// the NaN "last arrival" is false too), silently accepting an
    /// unordered trace. It must now be rejected as a bad value.
    #[test]
    fn nan_arrival_no_longer_bypasses_sort_check() {
        let csv = format!("{HEADER}\n0,1,2,128,5.0,10\n1,1,2,128,NaN,10\n2,1,2,128,1.0,10\n");
        assert_eq!(
            from_csv("x", &csv).unwrap_err(),
            CsvError::BadValue {
                line: 3,
                column: "arrival"
            }
        );
    }

    #[test]
    fn non_finite_and_negative_times_rejected() {
        for (row, column) in [
            ("0,1,2,128,inf,10", "arrival"),
            ("0,1,2,128,-0.5,10", "arrival"),
            ("0,1,2,128,1.0,NaN", "lifetime"),
            ("0,1,2,128,1.0,-inf", "lifetime"),
            ("0,1,2,128,1.0,-3", "lifetime"),
            // Past the engine clock: a time once clamped to its end.
            ("0,1,1,128,1e15,10", "arrival"),
            ("0,1,1,128,10000000000001,0", "arrival"),
            ("0,1,2,128,1.0,1e300", "lifetime"),
            ("0,1,2,128,6e12,4000000000001", "lifetime"),
            ("0,1,2,128,9999999999999.5,0.75", "lifetime"),
        ] {
            let csv = format!("{HEADER}\n{row}\n");
            let want = CsvError::BadValue { line: 2, column };
            assert_eq!(from_csv("x", &csv).unwrap_err(), want, "row: {row}");
            assert_eq!(verdict(read_csv("x", csv.as_bytes())), Err(want), "{row}");
        }
        // Zero times are valid (a trace may start at t = 0), and so is a
        // VM that leaves at the bound itself.
        for row in [
            "0,0,0,128,0,0",
            "0,1,2,128,6e12,4e12",
            "0,1,2,128,10000000000000,0",
        ] {
            let csv = format!("{HEADER}\n{row}\n");
            assert!(from_csv("x", &csv).is_ok(), "{row}");
            assert_eq!(verdict(read_csv("x", csv.as_bytes())), from_csv("x", &csv));
        }
    }

    #[test]
    fn blank_lines_tolerated() {
        let csv = format!("{HEADER}\n0,1,2,128,1.0,10\n\n1,1,2,128,2.0,10\n");
        assert_eq!(from_csv("x", &csv).unwrap().len(), 2);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CsvError::BadHeader.to_string().contains(HEADER));
        assert!(CsvError::NotSorted { line: 7 }.to_string().contains('7'));
        let bad = CsvError::BadValue {
            line: 9,
            column: "arrival",
        }
        .to_string();
        assert!(bad.contains('9') && bad.contains("arrival") && bad.contains("finite"));
    }

    /// A reader that hands over 1–7 bytes a call, so every row (and the
    /// header, and every CRLF) straddles a read.
    struct Dribble<'a> {
        rest: &'a [u8],
        sizes: std::iter::Cycle<std::slice::Iter<'a, usize>>,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (*self.sizes.next().unwrap())
                .min(self.rest.len())
                .min(buf.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    /// What the two readers must agree on: the workload, or the error.
    fn verdict(read: Result<Workload, ReadError>) -> Result<Workload, CsvError> {
        read.map_err(|e| match e {
            ReadError::Csv(e) => e,
            other => panic!("the text reader has no such error: {other}"),
        })
    }

    /// An integer field for `value`: mostly plain, sometimes in one of the
    /// other spellings `u32::from_str` takes, sometimes one it refuses.
    fn int_field(value: u32, style: u32) -> String {
        match style {
            0 => format!("+{value}"),
            1 => format!(" {value}\t"),
            2 => format!("00{value}"),
            3 => "4294967296".into(), // u32::MAX + 1
            4 => format!("{value}9999999999"),
            5 => format!("-{value}"),
            6 => String::new(),
            7 => format!("{value}.0"),
            8 => format!("\u{a0}{value}"), // NBSP: `trim` takes it, a byte trim would not
            _ => value.to_string(),
        }
    }

    /// A time field for `value`, likewise.
    fn time_field(value: f64, style: u32) -> String {
        match style {
            0 => format!("+{value:?}"),
            1 => format!("{value:e}"),
            2 => format!("{value:E}"),
            3 => format!("  {value:?} "),
            4 => "inf".into(),
            5 => "NaN".into(),
            6 => format!("-{value:?}"), // "-0.0" is in the domain, "-2.5" is not
            7 => "1e999".into(),
            8 => "-1e-999".into(),
            9 => format!("{value:?}s"),
            10 => ".".into(),
            11 => format!("{}", value as u64),
            // Either side of the exact-decimal line: a mantissa past 2⁵³
            // (and past 19 digits), and one of 16 digits, mostly under it.
            12 => format!("{value:.17}"),
            13 => format!("{value:.*}", 16 - (value as u64).to_string().len()),
            // At the departure bound: past it once the other time is not 0.
            14 => "10000000000000".into(),
            _ => format!("{value:?}"),
        }
    }

    /// One generated line of a document.
    #[derive(Debug, Clone)]
    struct Line {
        /// 0 blank, 1 whitespace-only, 2 five fields, 3 seven fields,
        /// 4 trailing comma, 5 NBSP-padded row, else a plain row.
        shape: u32,
        /// A style for each of the six fields (see the `*_field` fns).
        styles: [u32; 6],
        sizes: (u32, u32),
        /// Gap to the previous arrival; negative once in a while.
        gap: f64,
        lifetime: f64,
        crlf: bool,
    }

    fn line() -> impl Strategy<Value = Line> {
        (
            0u32..40,
            prop::collection::vec(0u32..120, 6),
            (1u32..=32, 1u32..=32),
            (0u32..60, 0u64..1 << 53, 0u64..1 << 53),
            any::<bool>(),
        )
            .prop_map(|(shape, styles, sizes, (back, a, b), crlf)| Line {
                shape,
                styles: styles.try_into().unwrap(),
                sizes,
                gap: if back == 0 {
                    -1.0
                } else {
                    9.0 * a as f64 / (1u64 << 53) as f64
                },
                lifetime: 6300.0 * b as f64 / (1u64 << 53) as f64,
                crlf,
            })
    }

    /// Render a document: `header` 0 is none at all, 1 a wrong one, 2 a
    /// padded one, else the plain one. Ids are the data rows' ranks (in
    /// whatever spelling), so the text reader and the block reader are
    /// asked about the same language.
    fn document(header: u32, lines: &[Line], final_newline: bool) -> String {
        let mut text = match header {
            0 => String::new(),
            1 => format!("{HEADER},\n"),
            2 => format!("\u{a0} {HEADER}\t\r\n"),
            _ => format!("{HEADER}\n"),
        };
        let (mut rank, mut arrival) = (0u32, 0.0f64);
        for l in lines {
            let row = match l.shape {
                0 => String::new(),
                1 => " \t\u{a0}".into(),
                _ => {
                    arrival = (arrival + l.gap).max(0.0);
                    let mut fields = vec![
                        int_field(rank, l.styles[0]),
                        int_field(l.sizes.0, l.styles[1]),
                        int_field(l.sizes.1, l.styles[2]),
                        int_field(128, l.styles[3]),
                        time_field(arrival, l.styles[4]),
                        time_field(l.lifetime, l.styles[5]),
                    ];
                    rank += 1;
                    match l.shape {
                        2 => drop(fields.pop()),
                        3 => fields.push("7".into()),
                        4 => fields.push(String::new()),
                        _ => {}
                    }
                    let row = fields.join(",");
                    if l.shape == 5 {
                        format!("\u{a0}{row}\u{2003}")
                    } else {
                        row
                    }
                }
            };
            text.push_str(&row);
            text.push_str(if l.crlf { "\r\n" } else { "\n" });
        }
        if !final_newline {
            while text.ends_with(['\n', '\r']) {
                text.pop();
            }
        }
        text
    }

    proptest! {
        /// `read_csv` over the bytes, a few at a time, is `from_csv` over
        /// the text: the same workload or the same error, line and column
        /// included — whatever the spelling of a field, the line endings,
        /// the padding, the arity, wherever the reads fall.
        #[test]
        fn block_reader_agrees_with_text_reader(
            header in 0u32..12,
            lines in prop::collection::vec(line(), 0..40),
            final_newline in any::<bool>(),
            sizes in prop::collection::vec(1usize..=7, 1..9),
        ) {
            let text = document(header, &lines, final_newline);
            let dribble = Dribble { rest: text.as_bytes(), sizes: sizes.iter().cycle() };
            prop_assert_eq!(
                verdict(read_csv("doc", dribble)),
                from_csv("doc", &text),
                "document: {:?}", text
            );
            // And handed over whole.
            prop_assert_eq!(verdict(read_csv("doc", text.as_bytes())), from_csv("doc", &text));
        }
    }

    /// What [`fast_time`] may say of `field` (a `,` put behind it): the
    /// bits `str::parse` gives where those are a time, else nothing.
    fn assert_reads_as_parsed(field: &str) {
        let parsed = field.parse::<f64>().ok().filter(|v| valid_time(*v));
        let read = fast_time(format!("{field},").as_bytes(), 0);
        assert_eq!(
            read.map(|(value, at)| (value.to_bits(), at)),
            parsed.map(|value| (value.to_bits(), field.len())),
            "field {field:?}: read {read:?}, parsed {parsed:?}"
        );
    }

    /// Whether [`plain_decimal`] reads `field` (a `,` put behind it).
    fn is_plain(field: &str) -> bool {
        plain_decimal(format!("{field},").as_bytes(), 0).is_some()
    }

    /// The exact-decimal case against `str::parse`, bit for bit, along
    /// each of its edges — no digit, leading zeros, the mantissas either
    /// side of 2⁵³ and the largest 19-digit one with the point at every
    /// position (k = 0 to 19, and 22 and 23 behind it, which are too
    /// long), halfway cases of the integer quotient, which round to even,
    /// and one unit either side of them, which its remainder decides —
    /// and the spellings that are not its own: a sign, an exponent, a 20th
    /// digit.
    #[test]
    fn exact_decimals_are_the_bits_str_parse_gives() {
        // 19 digits, 20, the largest 19; 2⁶⁴, which wraps the accumulator
        // to 0, and ten times it; 22, 23 and 28 zeros; either side of
        // `MAX_TIME`; last, no field.
        let mut fields: Vec<String> = "0 0.0 1. .5 . 000012.50 1e5 1.2.3 -0.0 -2.5 +7 \
            1234567890123456789 12345678901234567890 9999999999999999999 \
            18446744073709551616 184467440737095516160 0.0000000000000000000001 \
            0.00000000000000000000001 00000000000000000000000000001 \
            1e13 10000000000000 9999999999999.999 10000000000000.001"
            .split(' ')
            .map(String::from)
            .collect();
        fields.push(String::new());
        for field in [
            "12345678901234567890",
            ".00000000000000000001",
            "1e5",
            "1.5E3",
            "+7",
            "-0.0",
        ] {
            assert!(!is_plain(field), "{field:?} is read by `str::parse`");
        }
        let tie = (1u64 << 53) + 1;
        let mut plain = Vec::new();
        for mantissa in [
            (1u64 << 53) - 1,
            1 << 53,
            tie,
            (1 << 53) + 3,
            POW10_INT[19] - 1,
            POW10_INT[18],
            u64::MAX / 2,
        ] {
            let text = mantissa.to_string();
            plain.push(text.clone());
            for k in (0..=19).chain([22, 23]) {
                let field = if k >= text.len() {
                    format!(".{text:0>k$}")
                } else {
                    let (int, frac) = text.split_at(text.len() - k);
                    format!("{int}.{frac}")
                };
                if k <= 19 {
                    plain.push(field);
                } else {
                    fields.push(field);
                }
            }
        }
        for (k, scale) in (1..=3).zip(&POW10_INT[1..]) {
            for m in [tie * scale - 1, tie * scale, tie * scale + 1] {
                let text = m.to_string();
                let (int, frac) = text.split_at(text.len() - k);
                plain.push(format!("{int}.{frac}"));
            }
        }
        for field in &plain {
            assert!(is_plain(field), "{field:?} is a plain decimal");
        }
        fields.extend(plain);
        for field in &fields {
            assert_reads_as_parsed(field);
        }
        // And as rows: each field through both readers, alone and — those
        // that are times — together.
        let mut text = format!("{HEADER}\n");
        let mut rank = 0;
        for field in &fields {
            let one = format!("{HEADER}\n0,1,2,128,0,{field}\n");
            let judged = from_csv("doc", &one);
            assert_eq!(
                verdict(read_csv("doc", one.as_bytes())),
                judged,
                "{field:?}"
            );
            if judged.is_ok() {
                text.push_str(&format!("{rank},1,2,128,0,{field}\r\n"));
                rank += 1;
            }
        }
        let bits =
            |w: Workload| -> Vec<u64> { w.vms().iter().map(|vm| vm.lifetime.to_bits()).collect() };
        assert_eq!(
            bits(read_csv("doc", text.as_bytes()).unwrap()),
            bits(from_csv("doc", &text).unwrap())
        );
        assert!(rank > 100, "only {rank} of the fields are times");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any digits-and-a-point field — 1 to 19 digits, the point at
        /// every position (leading, inside, trailing, or none), up to three
        /// more zeros either side — is what `str::parse` makes of it, and
        /// it is read in integers exactly when it has at most 19 digits in
        /// all: half of the 17-digit times a trace writer emits have a
        /// mantissa of 2⁵³ or more.
        #[test]
        fn plain_decimal_fields_read_as_parsed(
            width in 1usize..=19,
            bits in any::<u64>(),
            point in 0usize..=26,
            lead in 0usize..4,
            trail in 0usize..4,
        ) {
            let digits = format!(
                "{}{:0>width$}{}", "0".repeat(lead), bits % POW10_INT[width], "0".repeat(trail)
            );
            let at = point % (digits.len() + 2);
            let field = if at > digits.len() {
                digits.clone()
            } else {
                format!("{}.{}", &digits[..at], &digits[at..])
            };
            assert_reads_as_parsed(&field);
            prop_assert_eq!(is_plain(&field), digits.len() <= 19, "{:?}", field);
        }

        /// The fields a trace writer emits — `{:?}` of any time in
        /// `[0, MAX_TIME]`, drawn uniform over the bit patterns (every
        /// binade alike, subnormals included) and uniform over the values —
        /// read as `str::parse` reads them, through whichever path.
        #[test]
        fn debug_rendered_times_read_as_parsed(bits in any::<u64>(), scale in 0u32..64) {
            assert_reads_as_parsed(&format!("{:?}", f64::from_bits(bits % MAX_TIME.to_bits())));
            let uniform = (bits >> 11) as f64 / (1u64 << 53) as f64 * MAX_TIME;
            assert_reads_as_parsed(&format!("{:?}", uniform / 2f64.powi(scale as i32)));
        }
    }

    /// The generator above must not be vacuous: over a fixed sweep of
    /// documents both verdicts, and every error kind, turn up.
    #[test]
    fn generated_documents_cover_every_verdict() {
        let mut runner = proptest::TestRunner::new(ProptestConfig::with_cases(400), "cover");
        let mut seen = std::collections::BTreeSet::new();
        runner.run("cover", |rng| {
            let lines = prop::collection::vec(line(), 0..40).generate(rng);
            let header = (0u32..12).generate(rng);
            seen.insert(match from_csv("doc", &document(header, &lines, true)) {
                Ok(w) if w.is_empty() => "ok-empty",
                Ok(_) => "ok",
                Err(CsvError::BadHeader) => "header",
                Err(CsvError::BadArity { .. }) => "arity",
                Err(CsvError::BadField { .. }) => "field",
                Err(CsvError::BadValue { .. }) => "value",
                Err(CsvError::NotSorted { .. }) => "sorted",
            });
            Ok(())
        });
        assert_eq!(seen.len(), 7, "saw only {seen:?}");
    }

    /// A trace bigger than two read blocks, through a reader that fills
    /// every block: rows straddle the real block edges.
    #[test]
    fn block_reader_carries_rows_across_real_blocks() {
        let w = Workload::synthetic(&SyntheticConfig::small(60_000, 5));
        let text = to_csv(&w);
        assert!(text.len() > 2 * BLOCK);
        assert_eq!(read_csv("synthetic", text.as_bytes()).unwrap(), w);
    }

    /// What a replay needs and an interchange format does not: ids equal
    /// to ranks. Swapped, sparse and duplicate ids each name their line.
    #[test]
    fn block_reader_requires_dense_ids() {
        for (rows, line, expected, found) in [
            ("1,1,2,128,1.0,10\n0,1,2,128,2.0,10\n", 2, 0, 1),
            ("0,1,2,128,1.0,10\n\n5,1,2,128,2.0,10\n", 4, 1, 5),
            (
                "0,1,2,128,1.0,10\n1,1,2,128,2.0,10\n1,1,2,128,3.0,10\n",
                4,
                2,
                1,
            ),
        ] {
            let csv = format!("{HEADER}\n{rows}");
            assert!(from_csv("x", &csv).is_ok(), "the text reader takes any ids");
            match read_csv("x", csv.as_bytes()).unwrap_err() {
                ReadError::NonDenseId {
                    line: l,
                    expected: e,
                    found: f,
                } => {
                    assert_eq!((l, e, f), (line, expected, found), "rows: {rows}")
                }
                other => panic!("expected NonDenseId, got {other}"),
            }
        }
        // Density is judged after the row itself and before its order.
        let csv = format!("{HEADER}\n0,1,2,128,5.0,10\n7,1,2,128,4.0,x\n");
        assert!(matches!(
            read_csv("x", csv.as_bytes()).unwrap_err(),
            ReadError::Csv(CsvError::BadField {
                line: 3,
                column: "lifetime"
            })
        ));
        let csv = format!("{HEADER}\n0,1,2,128,5.0,10\n7,1,2,128,4.0,10\n");
        assert!(matches!(
            read_csv("x", csv.as_bytes()).unwrap_err(),
            ReadError::NonDenseId {
                line: 3,
                expected: 1,
                found: 7
            }
        ));
    }

    /// Bytes that are not text, and a "line" no row could be, are input
    /// errors, not panics and not unbounded buffers.
    #[test]
    fn block_reader_refuses_non_text_and_endless_lines() {
        let mut bytes = format!("{HEADER}\n0,1,2,128,1.0,10\n1,1,2,128,2.0,").into_bytes();
        bytes.extend([0xff, 0xfe, b'\n']);
        match read_csv("x", &bytes[..]).unwrap_err() {
            ReadError::Io(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                assert!(e.to_string().contains("UTF-8"));
            }
            other => panic!("expected an I/O error, got {other}"),
        }
        let mut bytes = format!("{HEADER}\n0,1,2,128,1.0,10\n").into_bytes();
        bytes.resize(bytes.len() + BLOCK + 1, b' ');
        match read_csv("x", &bytes[..]).unwrap_err() {
            ReadError::Io(e) => assert!(e.to_string().contains("line 3 is longer than")),
            other => panic!("expected an I/O error, got {other}"),
        }
        // Two bytes fewer and it is a line (a blank one) that just fits:
        // the read buffer grows to hold it, and the rows behind it count.
        bytes.truncate(bytes.len() - 2);
        bytes.extend(b"\n1,1,2,128,2.0,10\n");
        assert_eq!(read_csv("x", &bytes[..]).unwrap().len(), 2);
        // A reader's own failure is handed on as it is.
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        assert!(read_csv("x", Broken)
            .unwrap_err()
            .to_string()
            .contains("disk on fire"));
    }
}
