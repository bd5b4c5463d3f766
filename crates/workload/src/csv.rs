//! CSV trace interchange.
//!
//! JSON (in `vm.rs`) is the lossless native format; CSV is the lingua
//! franca of trace analysis tooling (the Azure trace itself ships as CSV),
//! so workloads can also round-trip through a simple header-checked CSV:
//!
//! ```text
//! id,cpu_cores,ram_gb,storage_gb,arrival,lifetime
//! 0,8,16,128,12.5,6300.0
//! ```
//!
//! Times are written with `{:?}` — Rust's shortest-round-trip float
//! rendering — so a CSV round trip preserves every `f64` bit-for-bit
//! (asserted by `csv_round_trip_is_bit_exact` below). This matters for
//! the streaming trace reader and checkpoint paths, whose byte-identity
//! guarantees assume the trace survives interchange exactly.

use crate::vm::{VmId, VmRequest, Workload};

/// The exact header line emitted and required.
pub const HEADER: &str = "id,cpu_cores,ram_gb,storage_gb,arrival,lifetime";

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
    /// A field parsed but its value is outside the valid domain
    /// (non-finite or negative time). NaN in particular would otherwise
    /// silently defeat the sorted-arrivals check (`NaN < last` is false)
    /// and poison downstream event ordering.
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
                    "line {line}: column '{column}' must be a finite, non-negative number"
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
        // `{:?}` (shortest round-trip rendering) for the two floats:
        // `{}` Display can render a value whose re-parse differs in the
        // last ulp, which would silently break trace byte-identity.
        out.push_str(&format!(
            "{},{},{},{},{:?},{:?}\n",
            vm.id.0, vm.cpu_cores, vm.ram_gb, vm.storage_gb, vm.arrival, vm.lifetime
        ));
    }
    out
}

/// Parse one data row (no header, already trimmed, non-empty) into a
/// [`VmRequest`]. `line` is the 1-based line number used in errors.
///
/// Shared by [`from_csv`] and the chunked trace-file reader
/// ([`crate::CsvFileShards`]), so both paths accept exactly the same
/// rows. The sorted-arrivals check stays with the callers because it
/// needs cross-row state.
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
    for (value, column) in [(vm.arrival, "arrival"), (vm.lifetime, "lifetime")] {
        if !value.is_finite() || value < 0.0 {
            return Err(CsvError::BadValue { line, column });
        }
    }
    Ok(vm)
}

/// The arrival column alone of a row [`parse_row`] has accepted before —
/// the same field, trimmed and parsed the same way, hence the same bits —
/// or `None` if the row no longer has one.
pub(crate) fn parse_arrival(row: &str) -> Option<f64> {
    row.split(',').nth(4)?.trim().parse().ok()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;

    #[test]
    fn roundtrip_preserves_everything_but_name() {
        let w = Workload::synthetic(&SyntheticConfig::small(60, 3));
        let back = from_csv("synthetic", &to_csv(&w)).unwrap();
        assert_eq!(w, back);
    }

    /// Regression for the `{}`-formatted writer: every `f64` bit pattern
    /// that can legally appear in a trace (subnormals, extremes, values
    /// with no short decimal form) must survive a CSV round trip exactly.
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
            1e300,
            f64::MAX,
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
        ] {
            let csv = format!("{HEADER}\n{row}\n");
            assert_eq!(
                from_csv("x", &csv).unwrap_err(),
                CsvError::BadValue { line: 2, column },
                "row: {row}"
            );
        }
        // Zero times are valid (a trace may start at t = 0).
        let csv = format!("{HEADER}\n0,1,2,128,0,0\n");
        assert!(from_csv("x", &csv).is_ok());
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
}
