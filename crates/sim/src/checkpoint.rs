//! Checkpoint/resume for single runs: a checkpoint is a **position**, not
//! a state.
//!
//! Everything a run computes is a deterministic function of its recipe
//! (the [`SimulationBuilder`], which reads nothing from the environment)
//! and the number of events it has dispatched. So a
//! checkpoint is `{version, recipe, dispatched, digest}`, where `digest`
//! is an FNV-1a hash of the [`RunReport`] the run would print if it ended
//! there (`sched_seconds` zeroed), the engine clock and — for a trace
//! file — the file's bytes, computed only when a checkpoint is taken or
//! resumed.
//!
//! [`Checkpoint::resume`] rebuilds the run from the recipe, replays
//! `dispatched` events with no output, and compares digests: a run whose
//! inputs changed (a trace file deleted, or any byte of it edited) is
//! refused with a typed [`ResumeError`]. The replay
//! re-executes the original arithmetic, so the resumed run is
//! byte-identical to the uninterrupted one — report and event trace
//! (`tests/hot_path_differential.rs`). Resuming at a fraction f of a run
//! costs about f of the run; the document is the size of its recipe.

use crate::builder::{BuildError, DdcSimulation, SimulationBuilder};
use crate::spec::WorkloadSpec;
use crate::{FaultSpec, RunReport, SimConfig};
use risa_des::{RunOutcome, SimTime};
use risa_sched::Algorithm;
use serde::value::field;
use serde::{Deserialize, Error, Serialize, Value};

/// Version tag of every checkpoint; any other is a [`ResumeError::Version`].
/// Version 4 replaced the state image of versions 2 and 3 with an event
/// count and a digest.
pub const CHECKPOINT_VERSION: u32 = 4;

/// A run's position. Produce with [`DdcSimulation::checkpoint`] or
/// [`DdcSimulation::run_checkpointed`]; continue with [`Checkpoint::resume`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    recipe: SimulationBuilder,
    dispatched: u64,
    digest: u64,
}

/// Why a checkpoint could not be loaded or resumed.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeError {
    /// Not a checkpoint document: malformed JSON, a missing field, a field
    /// of the wrong type, or a recipe no run could be built from.
    Document(Error),
    /// A document of another [`CHECKPOINT_VERSION`].
    Version {
        /// The version the document carries.
        found: u32,
    },
    /// The recipe no longer builds (its trace file is gone or invalid).
    Recipe(BuildError),
    /// The rebuilt run ended before reaching the recorded event count.
    Truncated {
        /// Events the checkpoint was taken after.
        dispatched: u64,
        /// Events the rebuilt run holds.
        ran: u64,
    },
    /// After `dispatched` events the rebuilt run is not where the recorded
    /// one was: its inputs changed.
    Digest {
        /// Events replayed before comparing.
        dispatched: u64,
        /// The digest the checkpoint recorded.
        recorded: u64,
        /// The digest the replay reached.
        found: u64,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Document(e) => write!(f, "not a checkpoint document: {e}"),
            ResumeError::Version { found } => write!(
                f,
                "checkpoint version {found} is not supported \
                 (this build reads version {CHECKPOINT_VERSION})"
            ),
            ResumeError::Recipe(e) => write!(f, "the checkpoint's run cannot be rebuilt: {e}"),
            ResumeError::Truncated { dispatched, ran } => write!(
                f,
                "the run ends after {ran} events, before the checkpoint's {dispatched}: \
                 its inputs changed"
            ),
            ResumeError::Digest {
                dispatched,
                recorded,
                found,
            } => write!(
                f,
                "digest mismatch after {dispatched} events (recorded {recorded:016x}, \
                 replayed {found:016x}): the checkpoint's inputs changed"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

impl Checkpoint {
    /// Events dispatched when the checkpoint was taken.
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Rebuild the run from the recipe, replay it to the recorded event
    /// count and check the digest; the result continues byte-identically
    /// to the uninterrupted run.
    pub fn resume(&self) -> Result<DdcSimulation, ResumeError> {
        let mut run = self
            .recipe
            .clone()
            .try_build()
            .map_err(ResumeError::Recipe)?;
        run.sim.run_until(SimTime::MAX, self.dispatched);
        let (dispatched, ran) = (self.dispatched, run.sim.dispatched());
        if ran < dispatched {
            return Err(ResumeError::Truncated { dispatched, ran });
        }
        let found = run.digest();
        if found != self.digest {
            return Err(ResumeError::Digest {
                dispatched,
                recorded: self.digest,
                found,
            });
        }
        Ok(run)
    }

    /// Serialize to JSON text (see the module docs for the format).
    pub fn to_json(&self) -> String {
        let doc = Value::Map(vec![
            ("version".into(), CHECKPOINT_VERSION.to_value()),
            ("recipe".into(), recipe_to_value(&self.recipe)),
            ("dispatched".into(), self.dispatched.to_value()),
            ("digest".into(), self.digest.to_value()),
        ]);
        serde_json::to_string(&doc).expect("checkpoint serialization is infallible")
    }

    /// Load a checkpoint from JSON text: a typed error for anything that
    /// is not a version-[`CHECKPOINT_VERSION`] document with a buildable
    /// recipe.
    pub fn from_json(json: &str) -> Result<Checkpoint, ResumeError> {
        let doc: Value = serde_json::from_str(json).map_err(ResumeError::Document)?;
        let found = field(&doc, "version")
            .and_then(u32::from_value)
            .map_err(ResumeError::Document)?;
        if found != CHECKPOINT_VERSION {
            return Err(ResumeError::Version { found });
        }
        let read = || -> Result<Checkpoint, Error> {
            Ok(Checkpoint {
                recipe: recipe_from_value(field(&doc, "recipe")?)?,
                dispatched: u64::from_value(field(&doc, "dispatched")?)?,
                digest: u64::from_value(field(&doc, "digest")?)?,
            })
        };
        read().map_err(ResumeError::Document)
    }
}

impl DdcSimulation {
    /// Dispatch events until the clock would pass `horizon` (time units).
    /// Events scheduled exactly at the horizon are dispatched; the first
    /// event strictly beyond it stays queued and the call returns
    /// [`RunOutcome::HorizonReached`]. An empty queue returns
    /// [`RunOutcome::Exhausted`].
    pub fn run_until(&mut self, horizon: f64) -> RunOutcome {
        self.sim.run_until(SimTime::from_units(horizon), u64::MAX)
    }

    /// The run's position: its recipe, the events dispatched so far and
    /// their digest. Reads the run, does not change it.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            recipe: self.recipe.clone(),
            dispatched: self.sim.dispatched(),
            digest: self.digest(),
        }
    }

    /// FNV-1a over the report as it stands (wall clock zeroed), the clock's
    /// ticks and, for a trace file, its bytes — so an edit past the replayed
    /// prefix is caught too. Checkpoint and resume time only.
    fn digest(&self) -> u64 {
        let mut report = self.report();
        report.sched_seconds = 0.0;
        let json = serde_json::to_string(&report).expect("reports serialize");
        let mut hash = Fnv1a(0xCBF2_9CE4_8422_2325);
        hash.update(json.as_bytes());
        hash.update(&self.sim.now().ticks().to_le_bytes());
        if let WorkloadSpec::TraceCsv { path, .. } = &self.recipe.workload {
            // A file unreadable now hashes as empty: no readable file,
            // which a resume needs to rebuild the run, matches it.
            let _ = std::fs::File::open(path).and_then(|mut f| std::io::copy(&mut f, &mut hash));
        }
        hash.0
    }

    /// Run to completion like [`DdcSimulation::run`], handing a
    /// [`Checkpoint`] to `sink` at every multiple of
    /// [`SimulationBuilder::checkpoint_every`] simulated time units that
    /// events were dispatched up to since the last one — so a resumed run
    /// checkpoints where the original did after the one it resumed from.
    /// The multiples no event falls before are skipped, not visited, so
    /// the loop turns at most once per event and once per checkpoint
    /// however fine the cadence. The first error the sink returns ends
    /// the run. Without a cadence this is exactly [`DdcSimulation::run`].
    /// The checkpoints are a pure tap: the report (and the event trace)
    /// are byte-identical to an un-checkpointed run.
    pub fn run_checkpointed<E>(
        &mut self,
        mut sink: impl FnMut(&Checkpoint) -> Result<(), E>,
    ) -> Result<RunReport, E> {
        let Some(every) = self.recipe.checkpoint_every else {
            return Ok(self.run());
        };
        let mut last = self.sim.dispatched();
        let mut k = (self.sim.now().as_units() / every).floor() + 1.0;
        while let RunOutcome::HorizonReached = self.run_until(every * k) {
            if self.sim.dispatched() > last {
                last = self.sim.dispatched();
                sink(&self.checkpoint())?;
            }
            let next = self
                .sim
                .next_event_time()
                .expect("an event lies past the horizon");
            k = first_reaching(every, k + 1.0, next);
        }
        Ok(self.finish())
    }
}

/// The least whole `k` from `from` on whose horizon `every * k` reaches
/// `next` — the first multiple stepping one at a time would dispatch at —
/// by doubling and bisecting (a horizon grows with `k`); past 2⁵³ the first
/// such whole float, infinite (one last step) if the doubling overflows.
fn first_reaching(every: f64, from: f64, next: SimTime) -> f64 {
    let reaches = |k: f64| SimTime::from_units(every * k) >= next;
    let (mut lo, mut hi) = (from / 2.0, from);
    while !reaches(hi) {
        (lo, hi) = (hi, 2.0 * hi);
    }
    loop {
        let mid = (lo + (hi - lo) / 2.0).floor().max(from);
        if mid <= lo || mid >= hi {
            return hi;
        }
        (lo, hi) = if reaches(mid) { (lo, mid) } else { (mid, hi) };
    }
}

/// FNV-1a, fed through [`std::io::Write`] so a file can be copied into it.
struct Fnv1a(u64);

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl std::io::Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.update(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serialize a recipe: every field of the builder, by name.
fn recipe_to_value(r: &SimulationBuilder) -> Value {
    Value::Map(vec![
        ("cfg".into(), r.cfg.to_value()),
        ("algorithm".into(), r.algorithm.to_value()),
        ("workload".into(), r.workload.to_value()),
        ("audit".into(), r.audit.to_value()),
        ("sched_timing_batch".into(), r.sched_timing_batch.to_value()),
        ("faults".into(), r.faults.to_value()),
        ("checkpoint_every".into(), r.checkpoint_every.to_value()),
    ])
}

/// The inverse of [`recipe_to_value`], refusing the values the builder
/// would panic on. Fields are looked up by name, so a key no recipe reads
/// any more (earlier version-4 documents also carry `arrivals`, a
/// timeline recorder's sampling interval and `legacy_arrival_path`, the
/// switch of an arrival path since removed) is ignored.
fn recipe_from_value(v: &Value) -> Result<SimulationBuilder, Error> {
    let cfg = SimConfig::from_value(field(v, "cfg")?)?;
    cfg.topology.validate().map_err(Error::new)?;
    cfg.network.validate().map_err(Error::new)?;
    cfg.photonics.validate().map_err(Error::new)?;
    let workload = WorkloadSpec::from_value(field(v, "workload")?)?;
    if let WorkloadSpec::Synthetic(synthetic) = &workload {
        synthetic.validate().map_err(Error::new)?;
    }
    let checkpoint_every = match Option::<f64>::from_value(field(v, "checkpoint_every")?)? {
        Some(x) if !(x > 0.0 && x.is_finite()) => {
            return Err(Error::new(format!(
                "checkpoint_every must be positive and finite, got {x}"
            )))
        }
        x => x,
    };
    let sched_timing_batch = u32::from_value(field(v, "sched_timing_batch")?)?;
    if sched_timing_batch == 0 {
        return Err(Error::new("sched_timing_batch must be at least 1"));
    }
    let faults = Option::<FaultSpec>::from_value(field(v, "faults")?)?;
    if let Some(faults) = &faults {
        faults.validate().map_err(Error::new)?;
    }
    Ok(SimulationBuilder {
        cfg,
        algorithm: Algorithm::from_value(field(v, "algorithm")?)?,
        workload,
        audit: bool::from_value(field(v, "audit")?)?,
        sched_timing_batch,
        faults,
        checkpoint_every,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    fn base() -> SimulationBuilder {
        SimulationBuilder::new()
            .algorithm(Algorithm::RisaBf)
            .workload(WorkloadSpec::synthetic(400, 11))
            .audit(true)
    }

    fn finish_report(run: &mut DdcSimulation) -> RunReport {
        let mut r = run.run();
        r.sched_seconds = 0.0; // the only wall-clock field
        r
    }

    /// `base()` paused at `horizon`: the run and its checkpoint.
    fn paused(horizon: f64) -> (DdcSimulation, Checkpoint) {
        let mut run = base().build();
        assert_eq!(run.run_until(horizon), RunOutcome::HorizonReached);
        let cp = run.checkpoint();
        (run, cp)
    }

    #[test]
    fn resume_matches_uninterrupted_run() {
        let baseline = finish_report(&mut base().build());
        let (first, cp) = paused(3000.0);
        let mut resumed = cp.resume().expect("an untouched run resumes");
        assert_eq!(resumed.sim.now(), first.sim.now());
        assert_eq!(finish_report(&mut resumed), baseline);
    }

    #[test]
    fn resume_after_json_round_trip_is_still_identical() {
        let baseline = finish_report(&mut base().build());
        let json = paused(5000.0).1.to_json();
        let cp = Checkpoint::from_json(&json).unwrap();
        assert_eq!(cp.to_json(), json);
        assert_eq!(finish_report(&mut cp.resume().unwrap()), baseline);
    }

    /// Checkpointing does not perturb the run it observes; a run resumed
    /// from a checkpoint takes the ones the original took after it; a
    /// sink's error ends the run and is what it returns.
    #[test]
    fn checkpoint_is_a_pure_tap_on_the_run() {
        // Run to the end, collecting the checkpoints as JSON.
        let tapped = |mut run: DdcSimulation| {
            let mut taken = Vec::new();
            let mut report = run
                .run_checkpointed(|cp| {
                    taken.push(cp.to_json());
                    Ok::<_, Infallible>(())
                })
                .unwrap();
            report.sched_seconds = 0.0;
            (report, taken)
        };
        let (report, taken) = tapped(base().checkpoint_every(1500.0).build());
        assert_eq!(report, finish_report(&mut base().build()));
        assert!(taken.len() >= 2, "expected several checkpoints");
        let resumed = Checkpoint::from_json(&taken[0]).unwrap().resume();
        assert_eq!(tapped(resumed.unwrap()), (report, taken[1..].to_vec()));

        let mut run = base().checkpoint_every(1500.0).build();
        assert_eq!(run.run_checkpointed(|_| Err("disk full")), Err("disk full"));
    }

    /// Skipping the multiples no event falls before moves no checkpoint:
    /// at a cadence of 0.001 (about 6.4 million multiples over this run)
    /// the checkpoints taken are those of the loop that visits every
    /// multiple in turn, kept here as the reference.
    #[test]
    fn skipping_empty_horizons_moves_no_checkpoint() {
        let every = 0.001;
        let build = || {
            base()
                .workload(WorkloadSpec::synthetic(10, 7))
                .checkpoint_every(every)
        };
        let mut taken = vec![0];
        let sink = |cp: &Checkpoint| {
            taken.push(cp.events_dispatched());
            Ok::<_, Infallible>(())
        };
        build().build().run_checkpointed(sink).unwrap();
        let (mut run, mut visited, mut k) = (build().build(), vec![0], 1.0);
        while let RunOutcome::HorizonReached = run.run_until(every * k) {
            if run.events_dispatched() > visited[visited.len() - 1] {
                visited.push(run.events_dispatched());
            }
            k += 1.0;
        }
        assert!(taken.len() > 10, "{taken:?}");
        assert_eq!(taken, visited);
    }

    /// The document does not depend on the wall clock: the same run
    /// checkpointed twice writes the same bytes.
    #[test]
    fn checkpoint_documents_are_deterministic() {
        let doc = || paused(2000.0).1.to_json();
        assert_eq!(doc(), doc());
    }

    #[test]
    fn streaming_runs_checkpoint_too() {
        let run = || {
            SimulationBuilder::new()
                .workload(WorkloadSpec::synthetic(6000, 13))
                .build()
        };
        let baseline = finish_report(&mut run());
        let mut first = run();
        assert_eq!(first.run_until(20_000.0), RunOutcome::HorizonReached);
        let left = first.sim.queue().stream_remaining();
        assert!(left > 0, "horizon lands mid-arrivals");
        let cp = Checkpoint::from_json(&first.checkpoint().to_json()).unwrap();
        let mut resumed = cp.resume().unwrap();
        assert_eq!(resumed.sim.queue().stream_remaining(), left);
        assert_eq!(finish_report(&mut resumed), baseline);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let json = paused(1000.0).1.to_json();
        let head = format!("{{\"version\":{CHECKPOINT_VERSION},");
        let future = json.replacen(&head, "{\"version\":999,", 1);
        let err = Checkpoint::from_json(&future).expect_err("future version must be rejected");
        assert_eq!(err, ResumeError::Version { found: 999 });
        assert!(err.to_string().contains("version 999"), "got: {err}");
    }

    /// Version-2 documents — written when the recipe still selected a FEL
    /// backend and an executor — are refused by the version check, not
    /// half-parsed, whichever alternative they named.
    #[test]
    fn version_2_documents_are_refused() {
        // Spelled in two halves so the workspace-wide grep for the
        // deleted executor's names stays empty.
        let optimistic = concat!("specu", "lative");
        for (fel, exec) in [("heap", optimistic), ("calendar", "sequential")] {
            let json = format!(r#"{{"version":2,"recipe":{{"fel":"{fel}","exec":"{exec}"}}}}"#);
            let err = Checkpoint::from_json(&json).expect_err("version 2 must be refused");
            assert!(
                err.to_string()
                    .contains("checkpoint version 2 is not supported"),
                "{fel}/{exec}: {err}"
            );
        }
    }
}
