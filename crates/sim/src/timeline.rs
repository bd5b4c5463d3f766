//! Time-series recording: utilization and occupancy sampled on a fixed
//! grid over the run — the raw series behind the paper's time-averaged
//! figures, exportable as CSV for plotting.

/// One sample of the simulated system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Sample time, paper time units.
    pub t: f64,
    /// CPU units in use.
    pub cpu_used: f64,
    /// RAM units in use.
    pub ram_used: f64,
    /// Storage units in use.
    pub sto_used: f64,
    /// Intra-rack bandwidth in use, Mb/s.
    pub intra_mbps: f64,
    /// Inter-rack bandwidth in use, Mb/s.
    pub inter_mbps: f64,
    /// Resident (admitted, not yet departed) VMs.
    pub resident_vms: u32,
}

/// A fixed-interval sampler. The simulation driver offers it every event;
/// it keeps at most one sample per grid point (the state as of the first
/// event at-or-after the grid time).
#[derive(Debug, Clone)]
pub struct Timeline {
    interval: f64,
    next_sample: f64,
    points: Vec<TimelinePoint>,
}

impl Timeline {
    /// Sample every `interval` time units (must be positive).
    pub fn new(interval: f64) -> Self {
        assert!(interval > 0.0, "sampling interval must be positive");
        Timeline {
            interval,
            next_sample: 0.0,
            points: Vec::new(),
        }
    }

    /// Offer the state at time `t`; records if a grid point has passed.
    pub fn offer(&mut self, point: TimelinePoint) {
        if point.t + 1e-12 >= self.next_sample {
            self.points.push(point);
            // Skip grid points the simulation jumped over (the tolerance
            // must match the acceptance test above, or a point recorded
            // just before its grid time would leave the grid unadvanced).
            while self.next_sample <= point.t + 1e-12 {
                self.next_sample += self.interval;
            }
        }
    }

    /// Record `point` unconditionally (used to flush the final state at
    /// the end of a run, which may fall between grid points).
    pub fn force(&mut self, point: TimelinePoint) {
        if self.points.last().map(|p| p.t) != Some(point.t) {
            self.points.push(point);
        }
        while self.next_sample <= point.t {
            self.next_sample += self.interval;
        }
    }

    /// The recorded samples.
    pub fn points(&self) -> &[TimelinePoint] {
        &self.points
    }

    /// Sampling interval.
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// Render as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("t,cpu_used,ram_used,sto_used,intra_mbps,inter_mbps,resident_vms\n");
        for p in &self.points {
            out.push_str(&format!(
                "{:.3},{:.0},{:.0},{:.0},{:.0},{:.0},{}\n",
                p.t, p.cpu_used, p.ram_used, p.sto_used, p.intra_mbps, p.inter_mbps, p.resident_vms
            ));
        }
        out
    }

    /// Peak resident VM count over the run.
    pub fn peak_resident(&self) -> u32 {
        self.points
            .iter()
            .map(|p| p.resident_vms)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(t: f64, vms: u32) -> TimelinePoint {
        TimelinePoint {
            t,
            cpu_used: vms as f64 * 2.0,
            ram_used: vms as f64 * 4.0,
            sto_used: vms as f64 * 2.0,
            intra_mbps: vms as f64 * 24_000.0,
            inter_mbps: 0.0,
            resident_vms: vms,
        }
    }

    #[test]
    fn samples_on_grid_only() {
        let mut tl = Timeline::new(10.0);
        tl.offer(pt(0.0, 1)); // grid 0
        tl.offer(pt(3.0, 2)); // skipped (next grid 10)
        tl.offer(pt(9.9, 3)); // skipped
        tl.offer(pt(10.0, 4)); // grid 10
        tl.offer(pt(35.0, 5)); // grid 20 and 30 jumped; records once
        tl.offer(pt(39.0, 6)); // next grid is 40 → skipped
        tl.offer(pt(40.0, 7)); // grid 40
        let vms: Vec<u32> = tl.points().iter().map(|p| p.resident_vms).collect();
        assert_eq!(vms, vec![1, 4, 5, 7]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut tl = Timeline::new(1.0);
        tl.offer(pt(0.0, 2));
        tl.offer(pt(1.0, 3));
        let csv = tl.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("t,cpu_used"));
        assert!(lines[1].starts_with("0.000,4,8,4,48000,0,2"));
    }

    #[test]
    fn peak_resident() {
        let mut tl = Timeline::new(1.0);
        assert_eq!(tl.peak_resident(), 0);
        tl.offer(pt(0.0, 2));
        tl.offer(pt(1.0, 9));
        tl.offer(pt(2.0, 4));
        assert_eq!(tl.peak_resident(), 9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        Timeline::new(0.0);
    }
}
