//! Time-weighted averaging of a piecewise-constant signal.
//!
//! Utilization in the paper (Figure 8, and the §5.1 CPU/RAM/storage
//! utilizations) is an average **over time**, not over events: a VM that
//! holds 8 units for 10 000 time units contributes 100× more than one that
//! holds them for 100. `TimeWeighted` integrates the signal exactly between
//! change points.

/// Integrates a piecewise-constant `f64` signal over simulated time.
///
/// The caller reports every change with [`TimeWeighted::set`]; queries close
/// the current segment implicitly. Times are plain `f64` time units so this
/// crate stays independent of `risa-des` (the sim driver converts).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    start: f64,
    last_t: f64,
    value: f64,
    integral: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Start tracking at time `t0` with initial value `v0`.
    pub fn new(t0: f64, v0: f64) -> Self {
        TimeWeighted {
            start: t0,
            last_t: t0,
            value: v0,
            integral: 0.0,
            peak: v0,
        }
    }

    /// Change the signal to `v` at time `t`. `t` must be ≥ the previous
    /// change point; the elapsed segment is accumulated at the old value.
    pub fn set(&mut self, t: f64, v: f64) {
        debug_assert!(
            t >= self.last_t,
            "time went backwards: {t} < {}",
            self.last_t
        );
        self.integral += self.value * (t - self.last_t).max(0.0);
        self.last_t = t;
        self.value = v;
        self.peak = self.peak.max(v);
    }

    /// Add `delta` to the current value at time `t` (convenience for
    /// counters like "units in use").
    pub fn add(&mut self, t: f64, delta: f64) {
        let v = self.value + delta;
        self.set(t, v);
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Greatest value the signal has reached.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Integral of the signal from start to `t_end`.
    pub fn integral_to(&self, t_end: f64) -> f64 {
        self.integral + self.value * (t_end - self.last_t).max(0.0)
    }

    /// Time-weighted mean over `[start, t_end]`; 0 for an empty interval.
    pub fn mean_to(&self, t_end: f64) -> f64 {
        let span = t_end - self.start;
        if span <= 0.0 {
            0.0
        } else {
            self.integral_to(t_end) / span
        }
    }
}

impl Default for TimeWeighted {
    fn default() -> Self {
        TimeWeighted::new(0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal_means_itself() {
        let tw = TimeWeighted::new(0.0, 3.5);
        assert_eq!(tw.mean_to(10.0), 3.5);
        assert_eq!(tw.integral_to(10.0), 35.0);
        assert_eq!(tw.peak(), 3.5);
    }

    #[test]
    fn step_function_integrates_exactly() {
        // 0 for [0,10), 4 for [10,20), 2 for [20,40]
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(10.0, 4.0);
        tw.set(20.0, 2.0);
        assert_eq!(tw.integral_to(40.0), 0.0 * 10.0 + 4.0 * 10.0 + 2.0 * 20.0);
        assert_eq!(tw.mean_to(40.0), 80.0 / 40.0);
        assert_eq!(tw.peak(), 4.0);
        assert_eq!(tw.current(), 2.0);
    }

    #[test]
    fn add_tracks_occupancy() {
        // VM arrives at t=0 holding 2 units, another at t=5 holding 3,
        // first departs at t=10. Occupancy: 2,5,3.
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.add(0.0, 2.0);
        tw.add(5.0, 3.0);
        tw.add(10.0, -2.0);
        assert_eq!(tw.current(), 3.0);
        assert_eq!(tw.peak(), 5.0);
        // ∫ = 2*5 + 5*5 + 3*10 over [0,20]
        assert_eq!(tw.integral_to(20.0), 10.0 + 25.0 + 30.0);
    }

    #[test]
    fn empty_interval_is_zero_mean() {
        let tw = TimeWeighted::new(7.0, 9.9);
        assert_eq!(tw.mean_to(7.0), 0.0);
        assert_eq!(tw.mean_to(6.0), 0.0);
    }

    #[test]
    fn repeated_set_at_same_time_keeps_last() {
        let mut tw = TimeWeighted::new(0.0, 1.0);
        tw.set(5.0, 2.0);
        tw.set(5.0, 7.0); // zero-width segment at value 2
        assert_eq!(tw.integral_to(10.0), 1.0 * 5.0 + 7.0 * 5.0);
        assert_eq!(tw.peak(), 7.0);
    }
}
