//! Machine-readable benchmark artifacts: `risa-cli bench --json` writes
//! `BENCH_des.json`, `BENCH_scale.json`, and `BENCH_gen.json` so the perf
//! trajectory of the three hot paths — the DES event loop, the scheduler
//! at scale, and sharded trace generation — can be tracked commit over
//! commit instead of eyeballed from bench printouts. Snapshots are
//! checked in at the repo root; regenerate with
//! `risa-cli bench --json --out .`.
//!
//! Every envelope carries a `schema` tag (bump on breaking shape
//! changes), the git revision, and the thread count, so a snapshot is
//! interpretable on its own.

#![expect(
    clippy::disallowed_methods,
    reason = "bench timings are wall-clock by definition and reach no RunReport"
)]

use rayon::prelude::*;
use risa_sched::cycle::ScheduleCycle;
use risa_sched::Algorithm;
use risa_sim::{SimulationBuilder, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// `BENCH_des.json`: single-run DES throughput on the saturating
/// synthetic trace — the des_hot_loop bench's artifact, machine-readable.
#[derive(Debug, Serialize, Deserialize)]
pub struct DesBench {
    /// Envelope shape tag.
    pub schema: String,
    /// [`git_rev`]'s stamp: short `HEAD`, `-dirty` if the tree differs.
    pub git_rev: String,
    /// Pool threads during the measurement.
    pub threads: usize,
    /// VMs in the measured trace.
    pub vms: u32,
    /// One row: the one arrival lane (there were two, one per mode,
    /// while a generated trace could also be materialized first).
    pub runs: Vec<DesRun>,
}

/// One DES measurement row.
#[derive(Debug, Serialize, Deserialize)]
pub struct DesRun {
    /// Events dispatched (arrivals + departures).
    pub events: u64,
    /// Wall-clock seconds of the run, which generates its trace on
    /// demand: generation is inside this number.
    pub seconds: f64,
    /// `events / seconds`.
    pub events_per_sec: f64,
    /// High-water mark of the future-event list.
    pub peak_fel: usize,
    /// High-water mark of resident VMs.
    pub peak_resident: u32,
    /// High-water mark of VMs buffered by the workload cursor (one
    /// shard, plus at most one lane window).
    pub peak_buffered_arrivals: Option<usize>,
}

/// `BENCH_scale.json`: scheduler ops/s over cluster sizes (the `bench`
/// table, machine-readable).
#[derive(Debug, Serialize, Deserialize)]
pub struct ScaleBench {
    /// Envelope shape tag.
    pub schema: String,
    /// [`git_rev`]'s stamp: short `HEAD`, `-dirty` if the tree differs.
    pub git_rev: String,
    /// Pool threads during the measurement (cells time concurrently;
    /// prefer `--jobs 1` snapshots for uncontended per-op numbers).
    pub threads: usize,
    /// Schedule/release cycles per cell.
    pub vms_per_cell: u32,
    /// One row per (racks × algorithm) cell.
    pub rows: Vec<ScaleRow>,
}

/// One (cluster size × algorithm) throughput cell.
#[derive(Debug, Serialize, Deserialize)]
pub struct ScaleRow {
    /// Racks in the scaled cluster.
    pub racks: u16,
    /// Scheduling algorithm.
    pub algorithm: String,
    /// Schedule/release cycles per second.
    pub ops_per_sec: f64,
    /// Microseconds per cycle.
    pub us_per_op: f64,
}

/// `BENCH_gen.json`: sharded trace-generation throughput.
#[derive(Debug, Serialize, Deserialize)]
pub struct GenBench {
    /// Envelope shape tag.
    pub schema: String,
    /// [`git_rev`]'s stamp: short `HEAD`, `-dirty` if the tree differs.
    pub git_rev: String,
    /// Pool threads during the measurement.
    pub threads: usize,
    /// VMs generated.
    pub vms: u32,
    /// Wall-clock seconds to materialize the trace.
    pub seconds: f64,
    /// `vms / seconds`.
    pub vms_per_sec: f64,
}

/// Revision the working tree was built from: the short `HEAD` hash, with
/// `-dirty` appended when the tree differs from it (a snapshot regenerated
/// before its commit measures the change, not the parent it names);
/// `"unknown"` outside a repo.
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    stamp_rev(
        git(&["rev-parse", "--short", "HEAD"]).as_deref(),
        git(&["status", "--porcelain"]).as_deref(),
    )
}

/// [`git_rev`]'s stamp from the two git outputs (`None`: the command
/// failed). An unreadable status is not evidence of a clean tree.
fn stamp_rev(head: Option<&str>, porcelain: Option<&str>) -> String {
    let Some(head) = head.map(str::trim).filter(|h| !h.is_empty()) else {
        return "unknown".to_string();
    };
    let clean = porcelain.is_some_and(|p| p.trim().is_empty());
    format!("{head}{}", if clean { "" } else { "-dirty" })
}

/// Measure the DES event loop: one full default run on a saturating
/// `vms`-VM synthetic trace (seed 42, the des_hot_loop configuration, so
/// numbers are comparable across commits).
pub fn des_bench(vms: u32) -> DesBench {
    let mut sim = SimulationBuilder::new()
        .algorithm(Algorithm::Risa)
        .workload(WorkloadSpec::synthetic(vms, 42))
        .faults_off() // comparable across commits and env toggles
        .build();
    let t0 = Instant::now();
    sim.run();
    let seconds = t0.elapsed().as_secs_f64();
    let events = sim.events_dispatched();
    DesBench {
        schema: "risa-bench-des/v4".into(),
        git_rev: git_rev(),
        threads: rayon::current_num_threads(),
        vms,
        runs: vec![DesRun {
            events,
            seconds,
            events_per_sec: events as f64 / seconds.max(1e-9),
            peak_fel: sim.peak_fel_len(),
            peak_resident: sim.world().peak_resident(),
            peak_buffered_arrivals: sim.peak_buffered_arrivals(),
        }],
    }
}

/// Measure scheduler throughput cells (shared with the `bench` text
/// table); cells run concurrently on the pool.
pub fn scale_rows(racks: &[u16], vms: u32) -> Vec<ScaleRow> {
    let cells: Vec<(u16, Algorithm)> = racks
        .iter()
        .flat_map(|&n| Algorithm::ALL.iter().map(move |&a| (n, a)))
        .collect();
    cells
        .par_iter()
        .map(|&(n, algo)| {
            let mut cycle = ScheduleCycle::new(n, algo);
            let t0 = Instant::now();
            for _ in 0..vms {
                cycle.step();
            }
            let secs = t0.elapsed().as_secs_f64();
            let ops = vms as f64 / secs.max(1e-9);
            ScaleRow {
                racks: n,
                algorithm: algo.to_string(),
                ops_per_sec: ops,
                us_per_op: 1e6 / ops,
            }
        })
        .collect()
}

/// Wrap scale rows in the snapshot envelope.
pub fn scale_bench(racks: &[u16], vms: u32) -> ScaleBench {
    ScaleBench {
        schema: "risa-bench-scale/v1".into(),
        git_rev: git_rev(),
        threads: rayon::current_num_threads(),
        vms_per_cell: vms,
        rows: scale_rows(racks, vms),
    }
}

/// Measure sharded trace generation: materialize a `vms`-VM synthetic
/// trace on the pool.
pub fn gen_bench(vms: u32) -> GenBench {
    let spec = WorkloadSpec::synthetic(vms, 42);
    let t0 = Instant::now();
    let w = spec.materialize();
    let seconds = t0.elapsed().as_secs_f64();
    assert_eq!(w.len(), vms as usize);
    GenBench {
        schema: "risa-bench-gen/v1".into(),
        git_rev: git_rev(),
        threads: rayon::current_num_threads(),
        vms,
        seconds,
        vms_per_sec: vms as f64 / seconds.max(1e-9),
    }
}

/// Run all three suites and write `BENCH_des.json` / `BENCH_scale.json` /
/// `BENCH_gen.json` under `out_dir`, printing one summary line per file.
pub fn write_snapshots(
    out_dir: &str,
    racks: &[u16],
    scale_vms: u32,
    des_vms: u32,
    gen_vms: u32,
) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let write = |name: &str, json: String| -> Result<(), String> {
        let path = std::path::Path::new(out_dir).join(name);
        std::fs::write(&path, json + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    let des = des_bench(des_vms);
    for r in &des.runs {
        println!(
            "des: {:.0} events/s (peak FEL {}, peak buffered {:?})",
            r.events_per_sec, r.peak_fel, r.peak_buffered_arrivals
        );
    }
    write(
        "BENCH_des.json",
        serde_json::to_string_pretty(&des).map_err(|e| e.to_string())?,
    )?;
    let scale = scale_bench(racks, scale_vms);
    println!(
        "scale: {} cells, {} cycles each on {} threads",
        scale.rows.len(),
        scale.vms_per_cell,
        scale.threads
    );
    write(
        "BENCH_scale.json",
        serde_json::to_string_pretty(&scale).map_err(|e| e.to_string())?,
    )?;
    let gen = gen_bench(gen_vms);
    println!("gen: {:.0} VMs/s over {} VMs", gen.vms_per_sec, gen.vms);
    write(
        "BENCH_gen.json",
        serde_json::to_string_pretty(&gen).map_err(|e| e.to_string())?,
    )?;
    println!("wrote BENCH_des.json, BENCH_scale.json, BENCH_gen.json to {out_dir}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Envelope snapshots must round-trip and carry the schema, rev and
    /// thread fields a consumer keys on (the CI smoke step greps these).
    #[test]
    fn des_envelope_roundtrips_with_schema() {
        let b = des_bench(2000);
        assert_eq!(b.schema, "risa-bench-des/v4");
        assert_eq!(b.runs.len(), 1, "one lane, one row");
        assert!(b.threads >= 1);
        let r = &b.runs[0];
        assert!(r.events >= 2 * 2000 - 2000); // ≥ arrivals
        assert!(r.events_per_sec > 0.0);
        assert_eq!(r.peak_buffered_arrivals, Some(2000), "under one shard");
        let json = serde_json::to_string(&b).unwrap();
        let back: DesBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back.vms, 2000);
        assert_eq!(back.runs.len(), b.runs.len());
    }

    #[test]
    fn scale_envelope_covers_all_cells() {
        let b = scale_bench(&[12], 50);
        assert_eq!(b.schema, "risa-bench-scale/v1");
        assert_eq!(b.rows.len(), Algorithm::ALL.len());
        assert!(b.rows.iter().all(|r| r.ops_per_sec > 0.0 && r.racks == 12));
        let back: ScaleBench = serde_json::from_str(&serde_json::to_string(&b).unwrap()).unwrap();
        assert_eq!(back.vms_per_cell, 50);
    }

    #[test]
    fn gen_envelope_measures_throughput() {
        let b = gen_bench(10_000);
        assert_eq!(b.schema, "risa-bench-gen/v1");
        assert!(b.vms_per_sec > 0.0);
        let back: GenBench = serde_json::from_str(&serde_json::to_string(&b).unwrap()).unwrap();
        assert_eq!(back.vms, 10_000);
    }

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }

    #[test]
    fn rev_stamp_marks_a_dirty_tree() {
        assert_eq!(stamp_rev(Some("0bcc887\n"), Some("")), "0bcc887");
        assert_eq!(stamp_rev(Some("0bcc887\n"), Some("\n")), "0bcc887");
        assert_eq!(
            stamp_rev(Some("0bcc887\n"), Some(" M crates/core/src/nulb.rs\n")),
            "0bcc887-dirty"
        );
        assert_eq!(
            stamp_rev(Some("0bcc887"), Some("?? BENCH_new.json\n")),
            "0bcc887-dirty"
        );
        // No status to read: the tree cannot be called clean.
        assert_eq!(stamp_rev(Some("0bcc887\n"), None), "0bcc887-dirty");
        assert_eq!(stamp_rev(None, Some("")), "unknown");
        assert_eq!(stamp_rev(Some("\n"), Some(" M x\n")), "unknown");
    }
}
