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
//! its one definition): [`from_csv`] over text already in memory, and the
//! trace store's [`crate::TraceShards::read_csv_file`] over a file, a block
//! at a time, straight into columns — that one never holds the text or a
//! list of requests, and also requires what a replay requires of a trace
//! (`rows::ranked_rows`, the one row loop: ids equal to each row's rank,
//! arrivals sorted).
//!
//! Both refuse with one [`TraceError`], the line and column included, so
//! where both judge a trace their verdicts are equal as values. Only the
//! file reader reads bytes and requires dense ids: a non-dense id, bytes
//! that are not UTF-8, a line past a read block, rows past `u32::MAX` and
//! an I/O failure are its refusals alone. The error does not name the
//! file; whoever opened it does.

use crate::rows::BLOCK;
use crate::vm::{VmId, VmRequest, Workload};
use std::fmt::Write as _;

/// The exact header line emitted and required.
pub const HEADER: &str = "id,cpu_cores,ram_gb,storage_gb,arrival,lifetime";

/// The latest a row's VM may leave: its `arrival + lifetime`, in time
/// units. A simulation's clock counts `u64` ticks of 10⁻⁶ units, so it ends
/// near 1.8·10¹³ units, and a time past it would be clamped to that end
/// rather than run; this bound keeps every row's times inside the clock.
pub const MAX_TIME: f64 = 1e13;

/// Why a trace was refused, by either reader: [`from_csv`] over text, or
/// the trace store's over a file ([`crate::TraceShards::read_csv_file`]),
/// which alone requires dense ids and reads bytes. A refusal a line causes
/// names the line (1-based), and one a field causes names its column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The first line is not [`HEADER`], or there is none.
    BadHeader,
    /// A row had the wrong number of fields.
    BadArity {
        /// The row's line.
        line: usize,
    },
    /// A field failed to parse.
    BadField {
        /// The row's line.
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
        /// The row's line.
        line: usize,
        /// Column name.
        column: &'static str,
    },
    /// Rows are not sorted by arrival time.
    NotSorted {
        /// The line of the row that arrives too early.
        line: usize,
    },
    /// A row's id is not its 0-based rank. A simulation addresses VMs by
    /// arrival index, so a gap, duplicate or permutation in the ids would
    /// place some other row's VM at this row's arrival.
    NonDenseId {
        /// The row's line.
        line: usize,
        /// Rank the row should have carried.
        expected: u32,
        /// Id actually found.
        found: u32,
    },
    /// A line holds bytes that are not UTF-8.
    NotText {
        /// The line.
        line: usize,
    },
    /// A line runs past a read block, 1 MiB: no row is that long.
    LongLine {
        /// The line.
        line: usize,
    },
    /// A row past the `u32::MAX` a trace may hold.
    TooManyRows {
        /// The row's line.
        line: usize,
    },
    /// The file could not be opened or read: the I/O error's message.
    Io(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadHeader => write!(f, "line 1: bad CSV header (expected '{HEADER}')"),
            Self::BadArity { line } => write!(f, "line {line}: expected 6 fields"),
            Self::BadField { line, column } => {
                write!(f, "line {line}: cannot parse column '{column}'")
            }
            Self::BadValue { line, column } => write!(
                f,
                "line {line}: column '{column}' must be a finite, non-negative number, \
                 with arrival + lifetime at most {MAX_TIME:e}"
            ),
            Self::NotSorted { line } => write!(f, "line {line}: arrivals must be non-decreasing"),
            Self::NonDenseId {
                line,
                expected,
                found,
            } => write!(
                f,
                "line {line}: VM ids must be dense and in order (expected {expected}, found {found})"
            ),
            Self::NotText { line } => write!(f, "line {line}: not valid UTF-8"),
            Self::LongLine { line } => write!(f, "line {line}: longer than {BLOCK} bytes"),
            Self::TooManyRows { line } => {
                write!(f, "line {line}: a trace holds at most {} rows", u32::MAX)
            }
            Self::Io(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for TraceError {}

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
/// Shared by [`from_csv`] and the block reader's row loop
/// ([`crate::rows`]), so both accept exactly the same rows. The sorted-arrivals check stays
/// with the callers because it needs cross-row state.
pub(crate) fn parse_row(row: &str, line: usize) -> Result<VmRequest, TraceError> {
    // Exactly six fields, checked before any of them is parsed, without
    // a per-row allocation.
    let mut split = row.split(',');
    let mut fields = [""; 6];
    for field in &mut fields {
        *field = split.next().ok_or(TraceError::BadArity { line })?;
    }
    if split.next().is_some() {
        return Err(TraceError::BadArity { line });
    }
    fn num<T: std::str::FromStr>(
        s: &str,
        line: usize,
        column: &'static str,
    ) -> Result<T, TraceError> {
        s.trim()
            .parse()
            .map_err(|_| TraceError::BadField { line, column })
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
        Some(column) => Err(TraceError::BadValue { line, column }),
        None => Ok(vm),
    }
}

/// The domain of one time field.
pub(crate) fn valid_time(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

/// The column that takes a row's times out of their domain — each a
/// [`valid_time`], and the VM gone by [`MAX_TIME`] — if one does. The one
/// judgment of a row's times: [`parse_row`]'s, and the fused row walk's,
/// whose times are in their domain as read, which leaves it the departure.
pub(crate) fn bad_time(arrival: f64, lifetime: f64) -> Option<&'static str> {
    if !valid_time(arrival) || arrival > MAX_TIME {
        Some("arrival")
    } else if !valid_time(lifetime) || arrival + lifetime > MAX_TIME {
        Some("lifetime")
    } else {
        None
    }
}

/// Parse a workload from CSV produced by [`to_csv`] (or hand-written in
/// the same schema). `name` labels the resulting workload.
pub fn from_csv(name: &str, csv: &str) -> Result<Workload, TraceError> {
    let mut lines = csv.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        _ => return Err(TraceError::BadHeader),
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
            return Err(TraceError::NotSorted { line });
        }
        last_arrival = vm.arrival;
        vms.push(vm);
    }
    Ok(Workload::from_vms(name, vms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::ranked_rows;
    use crate::synthetic::SyntheticConfig;
    use proptest::prelude::*;
    use std::io::{self, Read};

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
            TraceError::BadHeader
        );
        assert_eq!(from_csv("x", "").unwrap_err(), TraceError::BadHeader);
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
                TraceError::BadArity { line: 3 },
                "row: {bad}"
            );
        }

        let csv = format!("{HEADER}\n0,one,2,128,0.0,10\n");
        assert_eq!(
            from_csv("x", &csv).unwrap_err(),
            TraceError::BadField {
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
            TraceError::NotSorted { line: 3 }
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
            TraceError::BadValue {
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
            let want = TraceError::BadValue { line: 2, column };
            assert_eq!(from_csv("x", &csv).unwrap_err(), want, "row: {row}");
            assert_eq!(read_rows("x", csv.as_bytes()), Err(want), "{row}");
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
            assert_eq!(read_rows("x", csv.as_bytes()), from_csv("x", &csv));
        }
    }

    #[test]
    fn blank_lines_tolerated() {
        let csv = format!("{HEADER}\n0,1,2,128,1.0,10\n\n1,1,2,128,2.0,10\n");
        assert_eq!(from_csv("x", &csv).unwrap().len(), 2);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(TraceError::BadHeader.to_string().contains(HEADER));
        assert!(TraceError::NotSorted { line: 7 }.to_string().contains('7'));
        let bad = TraceError::BadValue {
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

    /// The trace the row loop reads off `reader`, each id its row's rank.
    fn read_rows(name: &str, reader: impl Read) -> Result<Workload, TraceError> {
        let mut vms = Vec::new();
        ranked_rows(
            reader,
            |([cpu_cores, ram_gb, storage_gb], arrival, lifetime)| {
                let id = VmId(vms.len() as u32);
                vms.push(VmRequest {
                    id,
                    cpu_cores,
                    ram_gb,
                    storage_gb,
                    arrival,
                    lifetime,
                })
            },
        )?;
        Ok(Workload::from_vms(name, vms))
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
        /// The row loop over the bytes, a few at a time, is `from_csv` over
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
                read_rows("doc", dribble),
                from_csv("doc", &text),
                "document: {:?}", text
            );
            // And handed over whole.
            prop_assert_eq!(read_rows("doc", text.as_bytes()), from_csv("doc", &text));
        }
    }

    /// A valid trace — dense ids, sorted arrivals, `{:?}` times — with one
    /// structure-aware corruption: `kind` 0 turns a digit into another byte, 1
    /// drops a comma, 2 doubles one, 3 puts a point before a digit (in a
    /// time, a second point), 4 inserts a `\r`, 5 a sign before a field, 6
    /// an exponent behind one, 7 makes a field 20 digits, else the text is
    /// cut at a byte. `pick` chooses the place.
    fn corrupted(
        rows: &[(u32, u32, u64, u64)],
        crlf: bool,
        kind: u32,
        byte: u8,
        pick: usize,
    ) -> Vec<u8> {
        let mut text = format!("{HEADER}\n");
        let mut arrival = 0.0;
        for (rank, &(cpu, ram, gap, life)) in rows.iter().enumerate() {
            arrival += (gap >> 11) as f64 / (1u64 << 53) as f64 * 90.0;
            let lifetime = (life >> 11) as f64 / (1u64 << 53) as f64 * 63_000.0;
            let end = if crlf { "\r\n" } else { "\n" };
            text.push_str(&format!(
                "{rank},{cpu},{ram},128,{arrival:?},{lifetime:?}{end}"
            ));
        }
        let mut bytes = text.into_bytes();
        let body = HEADER.len() + 1;
        let sites = |bytes: &[u8], want: fn(&[u8], usize) -> bool| -> usize {
            let sites: Vec<usize> = (body..bytes.len()).filter(|&at| want(bytes, at)).collect();
            sites[pick % sites.len()]
        };
        let digit = |bytes: &[u8], at: usize| bytes[at].is_ascii_digit();
        let comma = |bytes: &[u8], at: usize| bytes[at] == b',';
        let field_start = |bytes: &[u8], at: usize| matches!(bytes[at - 1], b',' | b'\n');
        let field_end = |bytes: &[u8], at: usize| matches!(bytes[at], b',' | b'\r' | b'\n');
        match kind {
            0 => {
                // Half the time another digit: an id off its rank, an
                // arrival out of order.
                let at = sites(&bytes, digit);
                bytes[at] = if byte < 128 { b'0' + byte % 10 } else { byte };
            }
            1 => drop(bytes.remove(sites(&bytes, comma))),
            2 => bytes.insert(sites(&bytes, comma), b','),
            3 => bytes.insert(sites(&bytes, digit), b'.'),
            4 => bytes.insert(body + pick % (bytes.len() - body), b'\r'),
            5 => bytes.insert(
                sites(&bytes, field_start),
                [b'+', b'-'][usize::from(byte & 1)],
            ),
            6 => {
                let at = sites(&bytes, field_end);
                let exponent = format!("e{}", i32::from(byte as i8) % 20);
                bytes.splice(at..at, exponent.bytes());
            }
            7 => {
                let start = sites(&bytes, field_start);
                let end = start
                    + bytes[start..]
                        .iter()
                        .position(|&b| matches!(b, b',' | b'\r' | b'\n'))
                        .unwrap();
                let long: &[u8] = [b"12345678901234567890".as_slice(), b"1234567890.0123456789"]
                    [usize::from(byte & 1)];
                bytes.splice(start..end, long.iter().copied());
            }
            _ => bytes.truncate(pick % (bytes.len() + 1)),
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// Whatever one corruption does to a valid trace, the row loop
        /// (`ranked_rows`) neither panics nor parts from the `str::parse` oracle
        /// [`from_csv`]: the same rows bit for bit, or the same
        /// [`TraceError`] — or, for bytes that are no text, the line that
        /// holds the first of them. Ids that are not ranks are refused only
        /// where the oracle, which takes any ids, accepts the file.
        #[test]
        fn corrupted_rows_are_judged_as_the_oracle_judges(
            rows in prop::collection::vec((1u32..=32, 1u32..=32, any::<u64>(), any::<u64>()), 1..12),
            crlf in any::<bool>(),
            kind in 0u32..9,
            byte in 0u32..256,
            pick in 0u32..1 << 20,
        ) {
            let bytes = corrupted(&rows, crlf, kind, byte as u8, pick as usize);
            let bits = |w: Workload| -> Vec<(u32, [u32; 3], u64, u64)> {
                w.vms()
                    .iter()
                    .map(|vm| {
                        let shape = [vm.cpu_cores, vm.ram_gb, vm.storage_gb];
                        (vm.id.0, shape, vm.arrival.to_bits(), vm.lifetime.to_bits())
                    })
                    .collect()
            };
            let read = read_rows("doc", &bytes[..]).map(bits);
            let judged = match std::str::from_utf8(&bytes) {
                Ok(text) => from_csv("doc", text).map(bits),
                Err(e) => {
                    let line = 1 + bytes[..e.valid_up_to()].iter().filter(|&&b| b == b'\n').count();
                    Err(TraceError::NotText { line })
                }
            };
            if !matches!((&read, &judged), (Err(TraceError::NonDenseId { .. }), Ok(_))) {
                prop_assert_eq!(read, judged, "{:?}", String::from_utf8_lossy(&bytes));
            }
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
                Err(TraceError::BadHeader) => "header",
                Err(TraceError::BadArity { .. }) => "arity",
                Err(TraceError::BadField { .. }) => "field",
                Err(TraceError::BadValue { .. }) => "value",
                Err(TraceError::NotSorted { .. }) => "sorted",
                Err(other) => panic!("the text reader has no such error: {other}"),
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
        assert_eq!(read_rows("synthetic", text.as_bytes()).unwrap(), w);
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
            assert_eq!(
                read_rows("x", csv.as_bytes()),
                Err(TraceError::NonDenseId {
                    line,
                    expected,
                    found
                }),
                "rows: {rows}"
            );
        }
        // Density is judged after the row itself and before its order.
        let csv = format!("{HEADER}\n0,1,2,128,5.0,10\n7,1,2,128,4.0,x\n");
        assert_eq!(
            read_rows("x", csv.as_bytes()),
            Err(TraceError::BadField {
                line: 3,
                column: "lifetime"
            })
        );
        let csv = format!("{HEADER}\n0,1,2,128,5.0,10\n7,1,2,128,4.0,10\n");
        assert_eq!(
            read_rows("x", csv.as_bytes()),
            Err(TraceError::NonDenseId {
                line: 3,
                expected: 1,
                found: 7
            })
        );
    }

    /// Bytes that are not text, and a "line" no row could be, are input
    /// errors, not panics and not unbounded buffers.
    #[test]
    fn block_reader_refuses_non_text_and_endless_lines() {
        let mut bytes = format!("{HEADER}\n0,1,2,128,1.0,10\n1,1,2,128,2.0,").into_bytes();
        bytes.extend([0xff, 0xfe, b'\n']);
        assert_eq!(
            read_rows("x", &bytes[..]),
            Err(TraceError::NotText { line: 3 })
        );
        let mut bytes = format!("{HEADER}\n0,1,2,128,1.0,10\n").into_bytes();
        bytes.resize(bytes.len() + BLOCK + 1, b' ');
        assert_eq!(
            read_rows("x", &bytes[..]),
            Err(TraceError::LongLine { line: 3 })
        );
        // Two bytes fewer and it is a line (a blank one) that just fits:
        // the read buffer grows to hold it, and the rows behind it count.
        bytes.truncate(bytes.len() - 2);
        bytes.extend(b"\n1,1,2,128,2.0,10\n");
        assert_eq!(read_rows("x", &bytes[..]).unwrap().len(), 2);
        // A reader's own failure is handed on as it is.
        struct Broken;
        impl Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        assert_eq!(
            read_rows("x", Broken),
            Err(TraceError::Io("disk on fire".into()))
        );
    }
}
