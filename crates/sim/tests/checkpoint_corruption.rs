//! A corrupted checkpoint is refused with a typed [`ResumeError`] every
//! time — never a panic, never a hang, never a run resumed into the wrong
//! state. The document under attack sets every recipe knob off its default
//! (faults, audit, exact scheduler timing, a cadence), and each field can
//! be given a value of the wrong type.

use proptest::prelude::*;
use risa_sim::{Algorithm, Checkpoint, FaultSpec, ResumeError, SimulationBuilder, WorkloadSpec};
use serde::Value;
use std::sync::OnceLock;

/// A small churn run's first checkpoint, as JSON, and the run's total
/// event count.
fn document() -> &'static (String, u64) {
    static DOC: OnceLock<(String, u64)> = OnceLock::new();
    DOC.get_or_init(|| {
        let mut run = SimulationBuilder::new()
            .algorithm(Algorithm::Nalb)
            .workload(WorkloadSpec::synthetic(300, 5))
            .faults(FaultSpec::canonical())
            .audit(true)
            .sched_timing_batch(1)
            .checkpoint_every(1000.0)
            .build();
        let mut first = None;
        run.run_checkpointed(|cp| {
            first.get_or_insert_with(|| cp.to_json());
            Ok::<_, ()>(())
        })
        .unwrap();
        (first.expect("the cadence fires"), run.events_dispatched())
    })
}

fn tree() -> Value {
    serde_json::from_str(&document().0).unwrap()
}

/// Every field of the document as a path: the top level's, then the
/// recipe's.
fn fields() -> Vec<Vec<String>> {
    let keys =
        |v: &Value| -> Vec<String> { v.as_map().unwrap().iter().map(|(k, _)| k.clone()).collect() };
    let (top, recipe) = (keys(&tree()), keys(tree().get("recipe").unwrap()));
    let recipe = recipe.into_iter().map(|k| vec!["recipe".into(), k]);
    top.into_iter().map(|k| vec![k]).chain(recipe).collect()
}

/// The document with the value at `path` (map keys, outermost first)
/// replaced.
fn with<S: AsRef<str>>(path: &[S], value: Value) -> String {
    fn set<S: AsRef<str>>(tree: &mut Value, path: &[S], value: Value) {
        let Value::Map(fields) = tree else {
            panic!("a map")
        };
        let slot = &mut fields
            .iter_mut()
            .find(|(k, _)| k == path[0].as_ref())
            .expect("written")
            .1;
        match path {
            [_] => *slot = value,
            [_, rest @ ..] => set(slot, rest, value),
            [] => unreachable!(),
        }
    }
    let mut tree = tree();
    set(&mut tree, path, value);
    serde_json::to_string(&tree).unwrap()
}

fn resume(json: &str) -> Result<u64, ResumeError> {
    let run = Checkpoint::from_json(json)?.resume()?;
    Ok(run.events_dispatched())
}

#[derive(Debug, Clone)]
enum Corruption {
    /// Give field `.0` (modulo the field count) wrong-typed value `.1`.
    WrongType(usize, usize),
    /// Claim this many events past the run's end.
    PastEnd(u64),
    /// Flip this bit of the digest.
    FlipDigest(u32),
    /// Claim this version.
    Version(u32),
}

fn corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        (0usize..64, 0usize..3).prop_map(|(f, v)| Corruption::WrongType(f, v)),
        (1u64..1 << 40).prop_map(Corruption::PastEnd),
        (0u32..64).prop_map(Corruption::FlipDigest),
        prop_oneof![Just(2u32), Just(3), Just(5)].prop_map(Corruption::Version),
    ]
}

fn apply(c: &Corruption) -> String {
    let int = |v: u64| Value::Int(i128::from(v));
    match *c {
        Corruption::WrongType(field, value) => {
            let fields = fields();
            let wrong = [
                Value::Str("x".into()),
                Value::Seq(vec![]),
                Value::Map(vec![]),
            ];
            with(&fields[field % fields.len()], wrong[value].clone())
        }
        Corruption::PastEnd(extra) => with(&["dispatched"], int(document().1 + extra)),
        Corruption::FlipDigest(bit) => {
            let digest = tree().get("digest").and_then(Value::as_int).unwrap() as u64;
            with(&["digest"], int(digest ^ 1 << bit))
        }
        Corruption::Version(v) => with(&["version"], int(u64::from(v))),
    }
}

#[test]
fn the_untouched_document_resumes() {
    let (json, total) = document();
    assert_eq!(fields().len(), 4 + 7, "every recipe knob is written");
    let at = resume(json).expect("untouched");
    assert!(0 < at && at < *total);
}

#[test]
fn truncation_at_every_byte_is_a_document_error() {
    let (json, _) = document();
    for n in 0..json.len() {
        assert!(
            matches!(resume(&json[..n]), Err(ResumeError::Document(_))),
            "cut at {n}"
        );
    }
}

/// Values of the right type that no run can be built with are refused as
/// documents, not met as a panic (or an endless cadence) in the builder —
/// a synthetic workload's parameters included.
#[test]
fn out_of_range_recipe_values_are_document_errors() {
    let synthetic = |key: &'static str| ["recipe", "workload", "Synthetic", key];
    let faults = |key: &'static str| ["recipe", "faults", key];
    let pair = |lo: i128, hi: i128| Value::Seq(vec![Value::Int(lo), Value::Int(hi)]);
    for (path, value) in [
        (&["recipe", "sched_timing_batch"][..], Value::Int(0)),
        (&["recipe", "checkpoint_every"], Value::Float(0.0)),
        (&["recipe", "cfg", "topology", "racks"], Value::Int(0)),
        (&["recipe", "cfg", "network", "link_mbps"], Value::Int(0)),
        (&synthetic("interarrival_mean"), Value::Float(-1.0)),
        (&synthetic("cpu_cores"), pair(32, 1)),
        (&synthetic("cpu_cores"), pair(0, 0)),
        (&synthetic("lifetime_step_every"), Value::Int(0)),
        (&faults("rack_downtime_frac"), Value::Float(-0.5)),
        (&faults("migration_delay_per_unit"), Value::Float(-1.0)),
        (&faults("rack_failures_per_span"), Value::Float(-0.35)),
    ] {
        let err = resume(&with(path, value));
        assert!(
            matches!(err, Err(ResumeError::Document(_))),
            "{path:?}: {err:?}"
        );
    }
}

proptest! {
    #[test]
    fn every_corruption_is_a_typed_error(c in corruption()) {
        let err = resume(&apply(&c)).expect_err("a corrupted document must be refused");
        let typed = match (&c, &err) {
            (Corruption::WrongType(..), ResumeError::Document(_)) => true,
            (Corruption::PastEnd(_), ResumeError::Truncated { ran, .. }) => *ran == document().1,
            (Corruption::FlipDigest(_), ResumeError::Digest { .. }) => true,
            (Corruption::Version(v), ResumeError::Version { found }) => v == found,
            _ => false,
        };
        prop_assert!(typed, "{:?} gave {:?}", c, err);
    }
}
