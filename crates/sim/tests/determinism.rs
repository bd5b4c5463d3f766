//! Parallelism must be invisible in the results.
//!
//! An experiment matrix is the one thing that runs on threads (the
//! crate's dealer, sized by `with_jobs`), and the width may only change
//! wall-clock time, never a report. These tests pin that contract: the
//! same seeded experiment matrix serialized after a 1-wide run and a
//! 4-wide run must be **byte-identical** — modulo `sched_seconds`, the
//! report's one wall-clock field, which is zeroed before comparison
//! (`builder.rs` documents it as the only nondeterministic field).
//!
//! The same holds on a matrix of multi-shard workloads, whose cells
//! generate their shards inline on the worker that runs them, including
//! when the width is far past the machine's cores.

use risa_sim::{experiments, with_jobs, Algorithm, RunReport, SimConfig, WorkloadSpec};

/// A small but non-trivial matrix: two synthetic workloads (with churn)
/// across all four algorithms = 8 full simulation jobs.
fn matrix() -> Vec<RunReport> {
    let cfg = SimConfig::paper();
    let specs = [
        WorkloadSpec::synthetic(400, 11),
        WorkloadSpec::synthetic(300, 12),
    ];
    experiments::run_matrix(&cfg, &specs, &Algorithm::ALL, true)
}

/// Serialize with the wall-clock field normalized out.
fn canonical_json(mut runs: Vec<RunReport>) -> String {
    for r in &mut runs {
        r.sched_seconds = 0.0;
    }
    serde_json::to_string(&runs).expect("reports serialize")
}

#[test]
fn one_thread_and_four_threads_serialize_identically() {
    let sequential = with_jobs(1, matrix);
    let parallel = with_jobs(4, matrix);
    assert_eq!(
        sequential.len(),
        parallel.len(),
        "matrix completeness must not depend on thread count"
    );
    // Order preservation: job i is the same (algorithm, workload) pair.
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.algorithm, p.algorithm);
        assert_eq!(s.workload, p.workload);
    }
    assert_eq!(
        canonical_json(sequential),
        canonical_json(parallel),
        "reports must be byte-identical at any thread count"
    );
}

#[test]
fn oversubscribed_pool_is_still_deterministic() {
    // More threads than jobs, and an odd count that doesn't divide the
    // matrix evenly — the chunk deal must not affect results.
    let reference = canonical_json(with_jobs(1, matrix));
    for threads in [3, 16] {
        assert_eq!(
            canonical_json(with_jobs(threads, matrix)),
            reference,
            "threads={threads}"
        );
    }
}

#[test]
fn seed_sweep_is_thread_count_invariant() {
    // `fig5_seed_sweep` deals whole seeds and flattens their matrices —
    // the other parallel shape in the experiments module.
    let run = || {
        experiments::fig5_seed_sweep(&[1, 2], 300)
            .runs
            .into_iter()
            .collect::<Vec<RunReport>>()
    };
    assert_eq!(
        canonical_json(with_jobs(1, run)),
        canonical_json(with_jobs(4, run))
    );
}

#[test]
fn workload_generation_is_stable_across_repeated_runs() {
    // Sharded-vs-sharded: two independent materializations of the same
    // spec agree byte-for-byte (no hidden global state in the shard
    // streams).
    let spec = WorkloadSpec::synthetic(9000, 7);
    let a = spec.materialize();
    let b = spec.materialize();
    assert_eq!(
        risa_workload::csv::to_csv(&a),
        risa_workload::csv::to_csv(&b)
    );
}

/// A parallel experiment matrix over multi-shard workloads. What the
/// tests below pin is matrix determinism at width 1 vs 8 vs
/// oversubscribed; nothing nests (the name is from when cells generated
/// their shards on the pool too — they generate inline since runs
/// generate on demand).
fn nested_matrix() -> Vec<RunReport> {
    let cfg = SimConfig::paper();
    // > SHARD_SIZE VMs per spec, so every cell crosses a shard boundary.
    let specs = [
        WorkloadSpec::synthetic(5000, 21),
        WorkloadSpec::synthetic(4500, 22),
    ];
    experiments::run_matrix(&cfg, &specs, &Algorithm::ALL, true)
}

#[test]
fn nested_matrix_over_generated_traces_is_byte_identical_1_vs_8() {
    let sequential = with_jobs(1, nested_matrix);
    let parallel = with_jobs(8, nested_matrix);
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.algorithm, p.algorithm);
        assert_eq!(s.workload, p.workload);
    }
    assert_eq!(
        canonical_json(sequential),
        canonical_json(parallel),
        "a matrix over multi-shard workloads must be byte-identical"
    );
}

#[test]
fn oversubscribed_nested_run_is_still_deterministic() {
    // A width far beyond this machine's cores (CI runners have <= 8):
    // more workers than jobs, plus OS-level oversubscription. Results must
    // not move.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wide = 16.max(2 * cores);
    assert_eq!(
        canonical_json(with_jobs(1, nested_matrix)),
        canonical_json(with_jobs(wide, nested_matrix)),
        "width {wide} (> {cores} cores) must not change any report byte"
    );
}

/// The whole-job types the dealer moves between threads.
#[test]
fn simulation_job_types_are_send_and_sync() {
    fn assert_send<T: Send>() {}
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimConfig>();
    assert_send_sync::<WorkloadSpec>();
    assert_send_sync::<RunReport>();
    assert_send_sync::<risa_sim::ExperimentReport>();
    assert_send_sync::<risa_sim::SimulationBuilder>();
    // A primed simulation moves to a worker; it is not shared.
    assert_send::<risa_sim::DdcSimulation>();
    assert_send::<risa_sim::DdcWorld>();
}

/// Where every cell of a fixed run matrix ends, one line a run: its name,
/// the events it dispatched and the FNV-1a digest its checkpoint records
/// (the report as it stands with the wall clock zeroed, the clock's ticks
/// and, for a trace file, its bytes). A change that claims to keep
/// behaviour keeps this file byte for byte; on a mismatch the whole new
/// table is printed, ready to compare or to check in.
#[test]
fn run_digests_match_the_ledger() {
    let synthetic = ("synthetic-3000-s7", WorkloadSpec::synthetic(3000, 7));
    let azure = (
        "azure-3000-s2023",
        WorkloadSpec::azure(risa_workload::AzureSubset::N3000, 2023),
    );
    let csv = (
        "steady_small.csv",
        WorkloadSpec::TraceCsv {
            name: "steady_small".into(),
            path: "tests/fixtures/steady_small.csv".into(),
        },
    );
    let cells = [(&synthetic, 1), (&azure, 1), (&csv, 1), (&synthetic, 4)];
    let mut table = String::new();
    for ((label, spec), scale) in cells {
        for algorithm in Algorithm::ALL {
            for faults in [false, true] {
                let mut builder = risa_sim::SimulationBuilder::new()
                    .algorithm(algorithm)
                    .workload(spec.clone())
                    .topology(risa_topology::TopologyConfig::paper().scaled(scale));
                if faults {
                    builder = builder.faults(risa_sim::FaultSpec::canonical());
                }
                let mut sim = builder.build();
                sim.run();
                let doc: serde::Value =
                    serde_json::from_str(&sim.checkpoint().to_json()).expect("checkpoint parses");
                let read = |key| doc.get(key).and_then(serde::Value::as_int).expect(key);
                let faults = if faults { "faults" } else { "no-faults" };
                table += &format!(
                    "{algorithm} {label} x{scale} {faults} {} {:016x}\n",
                    read("dispatched"),
                    read("digest"),
                );
            }
        }
    }
    let ledger = include_str!("fixtures/digests.txt");
    assert!(
        table == ledger,
        "run digests moved; the new table (tests/fixtures/digests.txt):\n{table}"
    );
}
