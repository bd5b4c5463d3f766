//! Fixed-bin histograms matching the paper's Figure 6 methodology.
//!
//! Figure 6 of the paper characterizes the Azure workloads with 10-bin
//! histograms over the observed range (matplotlib `hist` semantics: equal
//! width bins over `[min, max]`, right-inclusive last bin). We reproduce
//! those semantics exactly so our regenerated Figure 6 bin counts can be
//! compared 1:1 against the numbers printed in the paper.

/// Bin layout: `bins` equal-width bins spanning `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSpec {
    /// Inclusive lower bound of the first bin.
    pub lo: f64,
    /// Inclusive upper bound of the last bin.
    pub hi: f64,
    /// Number of equal-width bins (matplotlib default: 10).
    pub bins: usize,
}

impl HistogramSpec {
    /// The paper's Figure 6 layout: 10 bins over the data range.
    pub fn paper_fig6(lo: f64, hi: f64) -> Self {
        HistogramSpec { lo, hi, bins: 10 }
    }

    /// Infer the layout from data, like `plt.hist(x)` does.
    pub fn from_data(data: &[f64], bins: usize) -> Self {
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = if data.is_empty() {
            (0.0, 1.0)
        } else {
            (lo, hi)
        };
        HistogramSpec { lo, hi, bins }
    }

    /// Width of each bin.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.bins as f64
    }

    /// Bin index for `x`, or `None` when outside `[lo, hi]`.
    ///
    /// Matplotlib semantics: bins are half-open `[a, b)` except the last,
    /// which is closed `[a, b]`.
    pub fn bin_of(&self, x: f64) -> Option<usize> {
        if x < self.lo || x > self.hi {
            return None;
        }
        if x == self.hi {
            return Some(self.bins - 1);
        }
        let idx = ((x - self.lo) / self.width()) as usize;
        Some(idx.min(self.bins - 1))
    }

    /// `[start, end)` edges of bin `i` (last bin end is inclusive).
    pub fn edges(&self, i: usize) -> (f64, f64) {
        let w = self.width();
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }
}

/// A populated fixed-bin histogram.
#[derive(Debug, Clone)]
pub struct BinnedHistogram {
    spec: HistogramSpec,
    counts: Vec<u64>,
    out_of_range: u64,
    total: u64,
}

impl BinnedHistogram {
    /// Empty histogram with the given layout.
    pub fn new(spec: HistogramSpec) -> Self {
        BinnedHistogram {
            counts: vec![0; spec.bins],
            spec,
            out_of_range: 0,
            total: 0,
        }
    }

    /// Build the paper-style 10-bin histogram straight from data.
    pub fn of_data(data: &[f64], bins: usize) -> Self {
        let mut h = BinnedHistogram::new(HistogramSpec::from_data(data, bins));
        for &x in data {
            h.record(x);
        }
        h
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        match self.spec.bin_of(x) {
            Some(i) => self.counts[i] += 1,
            None => self.out_of_range += 1,
        }
    }

    /// Per-bin counts, first to last.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Layout used by this histogram.
    pub fn spec(&self) -> &HistogramSpec {
        &self.spec
    }

    /// Observations that fell outside `[lo, hi]`.
    pub fn out_of_range(&self) -> u64 {
        self.out_of_range
    }

    /// Total observations recorded (in and out of range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Render as `"[lo,hi) count"` lines, the format `experiment fig6` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let (a, b) = self.spec.edges(i);
            let close = if i + 1 == self.spec.bins { ']' } else { ')' };
            let _ = writeln!(s, "[{a:8.2}, {b:8.2}{close}  {c}");
        }
        if self.out_of_range > 0 {
            let _ = writeln!(s, "out-of-range      {}", self.out_of_range);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matplotlib_last_bin_is_inclusive() {
        let spec = HistogramSpec::paper_fig6(1.0, 8.0);
        assert_eq!(spec.bin_of(8.0), Some(9));
        assert_eq!(spec.bin_of(1.0), Some(0));
        assert_eq!(spec.bin_of(0.99), None);
        assert_eq!(spec.bin_of(8.01), None);
    }

    /// The decisive check: Azure-3000 CPU cores {1,2,4,8} with 10 bins over
    /// [1,8] must land in bins 0, 1, 4 and 9 — exactly where the paper's
    /// Figure 6(a) shows its four non-zero bars (1326/1269/316/89).
    #[test]
    fn azure_cpu_core_values_land_in_paper_bins() {
        let spec = HistogramSpec::paper_fig6(1.0, 8.0);
        assert_eq!(spec.bin_of(1.0), Some(0));
        assert_eq!(spec.bin_of(2.0), Some(1));
        assert_eq!(spec.bin_of(4.0), Some(4));
        assert_eq!(spec.bin_of(8.0), Some(9));
    }

    /// Likewise RAM values {1.75, 3.5, 7, 14, 28, 56} GB over [1.75, 56]
    /// produce non-zero bins 0, 0, 0, 1(?), 2, 4, 9 — the paper's Fig 6(a)
    /// RAM panel shows bars in bins 0,1,2,4,9.
    #[test]
    fn azure_ram_values_land_in_paper_bins() {
        let spec = HistogramSpec::paper_fig6(1.75, 56.0);
        assert_eq!(spec.bin_of(1.75), Some(0));
        assert_eq!(spec.bin_of(3.5), Some(0));
        assert_eq!(spec.bin_of(7.0), Some(0));
        assert_eq!(spec.bin_of(14.0), Some(2));
        assert_eq!(spec.bin_of(28.0), Some(4));
        assert_eq!(spec.bin_of(56.0), Some(9));
    }

    #[test]
    fn of_data_counts_everything() {
        let data = [1.0, 1.0, 2.0, 4.0, 8.0];
        let h = BinnedHistogram::of_data(&data, 10);
        assert_eq!(h.total(), 5);
        assert_eq!(h.out_of_range(), 0);
        assert_eq!(h.counts().iter().sum::<u64>(), 5);
        assert_eq!(h.counts()[0], 2);
    }

    #[test]
    fn out_of_range_is_tracked_not_dropped() {
        let mut h = BinnedHistogram::new(HistogramSpec::paper_fig6(0.0, 10.0));
        h.record(-1.0);
        h.record(11.0);
        h.record(5.0);
        assert_eq!(h.out_of_range(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn render_mentions_every_bin() {
        let h = BinnedHistogram::of_data(&[0.0, 1.0, 2.0], 10);
        let s = h.render();
        assert_eq!(s.lines().count(), 10);
    }

    #[test]
    fn empty_data_spec_is_sane() {
        let spec = HistogramSpec::from_data(&[], 10);
        assert_eq!(spec.lo, 0.0);
        assert_eq!(spec.hi, 1.0);
    }
}
