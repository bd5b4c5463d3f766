//! Amortized wall-clock instrumentation for `Scheduler::schedule` — the
//! one clock the world reads, behind `DdcWorld`'s timed `schedule`.

use std::time::{Duration, Instant};

/// Default scheduler-timing batch: one clock pair per 16 scheduling calls
/// (see `SchedTimer` in this module).
pub const DEFAULT_SCHED_TIMING_BATCH: u32 = 16;

/// Amortized wall-clock instrumentation for `Scheduler::schedule`.
///
/// The seed implementation read `Instant::now()` twice around *every*
/// scheduling call — two clock reads per arrival on the hottest path of the
/// whole simulation. This timer instead samples one call in every `every`
/// (calls `every−1, 2·every−1, …` — deterministic in *which* calls are
/// timed, and keeping the cold first call out of the scaled samples, see
/// [`SchedTimer::start`]) and reports `sampled_wall × calls / sampled` — an
/// unbiased estimate of total scheduler wall-clock under the paper's
/// workloads, at roughly `2/every` clock reads per arrival. `every == 1`
/// restores the seed's exact per-call measurement (used by the
/// Figure 11/12 experiments, where `sched_seconds` *is* the result).
#[derive(Debug, Clone)]
pub(crate) struct SchedTimer {
    every: u32,
    calls: u64,
    sampled: u64,
    wall: Duration,
    /// Call 0's wall time, kept out of the regular samples (it pays
    /// first-touch/cold-cache costs that `calls/sampled` scaling would
    /// inflate) but used as the fallback estimate for runs too short to
    /// reach the first regular sample point.
    cold: Duration,
}

impl SchedTimer {
    pub(crate) fn new(every: u32) -> Self {
        assert!(every >= 1, "sched timing batch must be at least 1");
        SchedTimer {
            every,
            calls: 0,
            sampled: 0,
            wall: Duration::ZERO,
            cold: Duration::ZERO,
        }
    }

    /// Start timing if this call is a sample point: the regular points
    /// are calls `every−1, 2·every−1, …` (deterministic, and skipping the
    /// cold first call), plus call 0 itself as the fallback sample (with
    /// `every == 1` call 0 *is* a regular point, so exact mode includes
    /// the cold call like the seed did).
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "SchedTimer is the sanctioned scheduler-wall instrument; sched_seconds is \
                  left out of every report comparison"
    )]
    pub(crate) fn start(&self) -> Option<Instant> {
        (self.calls == 0 || (self.calls + 1).is_multiple_of(u64::from(self.every)))
            .then(Instant::now)
    }

    /// Account one finished scheduling call.
    #[inline]
    pub(crate) fn finish(&mut self, started: Option<Instant>) {
        if let Some(t0) = started {
            let elapsed = t0.elapsed();
            if self.calls == 0 && self.every > 1 {
                self.cold = elapsed;
            } else {
                self.wall += elapsed;
                self.sampled += 1;
            }
        }
        self.calls += 1;
    }

    /// Estimated total scheduler wall-clock, in seconds. Runs shorter
    /// than one timing batch never hit a regular sample point; they fall
    /// back to scaling the always-timed first call, so a run that did
    /// real scheduling work never reports zero.
    pub(crate) fn estimate_seconds(&self) -> f64 {
        if self.sampled > 0 {
            // Scale factor first: with every call sampled it is exactly
            // 1.0, so the estimate degenerates to the measured total.
            self.wall.as_secs_f64() * (self.calls as f64 / self.sampled as f64)
        } else if self.calls > 0 {
            self.cold.as_secs_f64() * self.calls as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::world::tests::{primed, run_world, synthetic};
    use risa_sched::Algorithm;
    use std::time::Duration;

    #[test]
    fn scheduler_wall_clock_is_measured() {
        let w = run_world(Algorithm::Nalb, 50, 1);
        // Default batch of 16 over 50 arrivals ⇒ calls 15/31/47 sampled
        // (the cold call 0 is deliberately skipped).
        assert_eq!(w.sched.calls, 50);
        assert_eq!(w.sched.sampled, 3);
        assert!(w.sched.wall > Duration::ZERO);
        assert!(w.sched_seconds() > 0.0);
    }

    #[test]
    fn exact_timing_batch_samples_every_call() {
        let mut sim = primed(Algorithm::Risa, synthetic(20, 3));
        sim.world_mut().set_sched_timing_batch(1);
        sim.run_to_completion();
        let w = sim.world();
        assert_eq!(w.sched.sampled, w.sched.calls);
        // With every call sampled the estimate *is* the measured total.
        assert_eq!(w.sched_seconds(), w.sched.wall.as_secs_f64());
    }

    /// Regression: a run shorter than one timing batch must still report
    /// nonzero scheduler time (the always-timed first call is the
    /// fallback sample).
    #[test]
    fn short_run_scheduler_time_is_nonzero() {
        let w = run_world(Algorithm::Risa, 10, 2);
        assert_eq!(w.sched.calls, 10);
        assert_eq!(w.sched.sampled, 0, "no regular sample point reached");
        assert!(w.sched.cold > Duration::ZERO);
        assert!(w.sched_seconds() > 0.0);
    }
}
