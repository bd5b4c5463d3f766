//! Plain-text table rendering for paper-style experiment reports.
//!
//! Every experiment and `risa-cli` report in this workspace ends by
//! printing a table whose rows mirror a table/figure of the paper (e.g. Figure 5's
//! four inter-rack-assignment counts). Keeping the renderer here means the
//! report format is identical everywhere and testable in one place.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right.
    Left,
    /// Pad on the left (numbers).
    Right,
}

/// A simple monospace table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column headers. All columns are
    /// left-aligned until [`Table::align`] is called.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns: vec![Align::Left; headers.len()],
            rows: Vec::new(),
        }
    }

    /// Set per-column alignment (panics if the arity differs from headers).
    pub fn align(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.headers.len(), "alignment arity");
        self.aligns = aligns.to_vec();
        self
    }

    /// Append a row (panics if the arity differs from headers).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells.to_vec());
        self
    }

    /// Append a row of displayable items.
    pub fn row_display<D: std::fmt::Display>(&mut self, cells: &[D]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells)
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a `String` with a title line, a rule, headers, and rows.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 3 * ncols.saturating_sub(1);
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let _ = writeln!(out, "{}", "=".repeat(total.max(self.title.len())));
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("   ");
                }
                match aligns[i] {
                    Align::Left => {
                        let _ = write!(line, "{:<w$}", cell, w = widths[i]);
                    }
                    Align::Right => {
                        let _ = write!(line, "{:>w$}", cell, w = widths[i]);
                    }
                }
            }
            // Right-pad is cosmetic; trim to keep diffs clean.
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths, &self.aligns));
        let _ = writeln!(out, "{}", "-".repeat(total.max(self.title.len())));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths, &self.aligns));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fig5_style_table() {
        let mut t = Table::new(
            "Figure 5: inter-rack VM assignments (synthetic)",
            &["algorithm", "inter-rack"],
        )
        .align(&[Align::Left, Align::Right]);
        t.row_display(&["NULB", "255"]);
        t.row_display(&["NALB", "255"]);
        t.row_display(&["RISA", "7"]);
        t.row_display(&["RISA-BF", "2"]);
        let s = t.render();
        assert!(s.contains("RISA-BF"));
        assert!(s.contains("255"));
        // header + rule + column line + rule + 4 rows
        assert_eq!(s.lines().count(), 8);
        // Right-aligned number column: "7" is padded left.
        let risa_line = s.lines().find(|l| l.starts_with("RISA ")).unwrap();
        assert!(risa_line.ends_with('7'));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn empty_and_len() {
        let mut t = Table::new("t", &["c"]);
        assert!(t.is_empty());
        t.row_display(&[1]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new("t", &["c"]);
        t.row_display(&["v"]);
        assert_eq!(format!("{t}"), t.render());
    }

    #[test]
    fn column_width_tracks_longest_cell() {
        let mut t = Table::new("t", &["name", "v"]);
        t.row_display(&["a-very-long-algorithm-name", "1"]);
        t.row_display(&["x", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Both data rows align their second column at the same offset.
        let pos1 = lines[4].find('1').unwrap();
        let pos2 = lines[5].find('2').unwrap();
        assert_eq!(pos1, pos2);
    }
}
