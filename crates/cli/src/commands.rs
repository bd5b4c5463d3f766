//! Command execution.
//!
//! `experiment` is the one command that fans work out: its matrices run on
//! `risa-sim`'s experiment dealer, whose scoped workers live for one
//! matrix, as many as `--jobs` says ([`risa_sim::with_jobs`]; all cores
//! without it). A `run` and `generate` generate their workload inline and
//! create no thread, and `bench` times its cells one after another on the
//! calling thread. Simulation *reports* are byte-identical at any width;
//! wall-clock measurements (the fig11/fig12 timings) are not, which is why
//! those stay sequential. A panic inside a worker (e.g. a workload that
//! fails validation) propagates to the command and aborts it, exactly as
//! the sequential loop would.

use crate::args::{Command, WorkloadArg};
use risa_metrics::{Align, Table};
use risa_network::NetworkConfig;
use risa_sched::cycle::ScheduleCycle;
use risa_sched::Algorithm;
use risa_sim::{experiments, host_info, Checkpoint, RunReport, SimulationBuilder, WorkloadSpec};
use risa_topology::TopologyConfig;
use risa_workload::shard::SHARD_SIZE;
use risa_workload::{csv, StreamingShards, SyntheticConfig};
use std::io::Write as _;
use std::time::Instant;

/// Execute a parsed command.
pub fn execute(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Info => info(),
        Command::Run {
            algo,
            workload,
            seed,
            scale,
            faults,
            json,
            checkpoint,
            checkpoint_every,
            resume,
        } => {
            let mut sim = if let Some(path) = resume {
                // The checkpoint embeds the run recipe: nothing is
                // re-read from flags.
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read checkpoint {path}: {e}"))?;
                let cp = Checkpoint::from_json(&text)
                    .map_err(|e| format!("bad checkpoint {path}: {e}"))?;
                eprintln!("resuming after {} events", cp.events_dispatched());
                cp.resume()
                    .map_err(|e| format!("cannot resume {path}: {e}"))?
            } else {
                let paper = TopologyConfig::paper();
                if u32::from(paper.racks) * u32::from(scale) > u32::from(u16::MAX) {
                    return Err(format!(
                        "--scale {scale} exceeds the {} rack limit ({} racks per paper cluster)",
                        u16::MAX,
                        paper.racks
                    ));
                }
                let spec = spec_of(workload, seed);
                let mut builder = SimulationBuilder::new()
                    .algorithm(algo)
                    .workload(spec)
                    .topology(paper.scaled(scale));
                if faults {
                    builder = builder.faults(risa_sim::FaultSpec::canonical());
                }
                if let Some(every) = checkpoint_every {
                    builder = builder.checkpoint_every(every);
                }
                builder.try_build().map_err(|e| e.to_string())?
            };
            // One resolved-config line on stderr, printed once the run is
            // built: whether it injects faults. It also marks the end of
            // setup — `benchmark/run.py` times `setup_s` up to it.
            eprintln!(
                "resolved: faults={}",
                if sim.world().fault_report().is_some() {
                    "on"
                } else {
                    "off"
                }
            );
            let report = match checkpoint {
                Some(path) => {
                    let mut written = 0u32;
                    let report = sim.run_checkpointed(|cp| {
                        write_checkpoint(&path, cp)?;
                        written += 1;
                        Ok::<_, String>(())
                    })?;
                    eprintln!("wrote {written} checkpoint(s) to {path}");
                    report
                }
                None => sim.run(),
            };
            emit(&report, json)
        }
        Command::Bench { racks, vms } => bench(&racks, vms),
        Command::Experiment { id, seed, jobs } => match jobs {
            Some(n) => risa_sim::with_jobs(n, || experiment(&id, seed)),
            None => experiment(&id, seed),
        },
        Command::Generate {
            workload,
            seed,
            out,
        } => generate(workload, seed, out.as_deref()),
    }
}

fn spec_of(workload: WorkloadArg, seed: u64) -> WorkloadSpec {
    match workload {
        WorkloadArg::Synthetic { n } => WorkloadSpec::Synthetic(SyntheticConfig::small(n, seed)),
        WorkloadArg::Azure(subset) => WorkloadSpec::azure(subset, seed),
        WorkloadArg::TraceCsv { path } => {
            let name = std::path::Path::new(&path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "trace".into());
            WorkloadSpec::TraceCsv { name, path }
        }
    }
}

/// Write one checkpoint atomically: serialize to a sibling temp file,
/// then rename over the target so an interrupted write never leaves a
/// truncated (unresumable) checkpoint behind.
fn write_checkpoint(path: &str, cp: &Checkpoint) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, cp.to_json())
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("cannot write checkpoint {path}: {e}"))
}

fn emit(report: &RunReport, json: bool) -> Result<(), String> {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let mut t = Table::new(
        format!("{} on {}", report.algorithm, report.workload),
        &["metric", "value"],
    )
    .align(&[Align::Left, Align::Right]);
    t.row_display(&["VMs", &report.total_vms.to_string()]);
    t.row_display(&["admitted", &report.admitted.to_string()]);
    t.row_display(&[
        "dropped (compute/network)",
        &format!(
            "{} ({}/{})",
            report.dropped, report.dropped_compute, report.dropped_network
        ),
    ]);
    t.row_display(&[
        "inter-rack assignments",
        &format!(
            "{} ({:.1}%)",
            report.inter_rack_assignments,
            report.inter_rack_percent()
        ),
    ]);
    t.row_display(&[
        "utilization cpu/ram/sto",
        &format!(
            "{:.1}% / {:.1}% / {:.1}%",
            report.cpu_utilization * 100.0,
            report.ram_utilization * 100.0,
            report.storage_utilization * 100.0
        ),
    ]);
    t.row_display(&[
        "network util intra/inter",
        &format!(
            "{:.1}% / {:.2}%",
            report.intra_net_utilization * 100.0,
            report.inter_net_utilization * 100.0
        ),
    ]);
    t.row_display(&[
        "optical power",
        &format!("{:.2} kW", report.optical_power_w / 1000.0),
    ]);
    t.row_display(&[
        "mean CPU-RAM latency",
        &format!("{:.0} ns", report.mean_cpu_ram_latency_ns),
    ]);
    t.row_display(&[
        "scheduler time / ops per VM",
        &format!(
            "{:.2} ms / {:.0}",
            report.sched_seconds * 1e3,
            report.work.ops_per_call()
        ),
    ]);
    if let Some(f) = &report.faults {
        t.row_display(&[
            "rack failures / link flaps",
            &format!(
                "{} / {} trunk + {} xcvr",
                f.rack_failures, f.trunk_link_downs, f.xcvr_downs
            ),
        ]);
        t.row_display(&[
            "evacuated (replaced/dropped/departed)",
            &format!(
                "{} ({}/{}/{})",
                f.evacuated, f.evac_replaced, f.dropped_churn, f.evac_departed
            ),
        ]);
        t.row_display(&[
            "mean evac latency / recovery",
            &format!("{:.1} / {:.1} s", f.mean_evac_latency, f.mean_recovery_time),
        ]);
        t.row_display(&[
            "mean stranded units / bw",
            &format!(
                "{:.1} / {:.1} Mb/s",
                f.mean_stranded_units, f.mean_stranded_mbps
            ),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn info() -> Result<(), String> {
    let cfg = TopologyConfig::paper();
    let net = NetworkConfig::paper();
    println!("{}", host_info());
    let mut t = Table::new(
        "Paper configuration (Tables 1 and 2, §3.1/§5.2)",
        &["parameter", "value"],
    )
    .align(&[Align::Left, Align::Right]);
    t.row_display(&["racks", &cfg.racks.to_string()]);
    t.row_display(&[
        "boxes per rack (cpu/ram/sto)",
        &format!(
            "{}/{}/{}",
            cfg.box_mix.cpu, cfg.box_mix.ram, cfg.box_mix.storage
        ),
    ]);
    t.row_display(&["bricks per box", &cfg.bricks_per_box.to_string()]);
    t.row_display(&["units per brick", &cfg.units_per_brick.to_string()]);
    t.row_display(&[
        "unit sizes",
        &format!(
            "{} cores / {} GB / {} GB",
            cfg.units.cpu_cores_per_unit, cfg.units.ram_gb_per_unit, cfg.units.storage_gb_per_unit
        ),
    ]);
    t.row_display(&["link rate", &format!("{} Gb/s", net.link_mbps / 1000)]);
    t.row_display(&[
        "flow rates cpu-ram / ram-sto",
        &format!(
            "{} / {} Gb/s/unit",
            net.cpu_ram_mbps_per_unit / 1000,
            net.ram_sto_mbps_per_unit / 1000
        ),
    ]);
    t.row_display(&[
        "switch ports box/rack/inter",
        &format!(
            "{}/{}/{}",
            net.box_switch_ports, net.rack_switch_ports, net.inter_rack_switch_ports
        ),
    ]);
    println!("{t}");
    Ok(())
}

/// Time `vms` schedule/release cycles per (cluster size × algorithm) cell
/// on the shared [`ScheduleCycle`] treadmill and report schedule
/// operations per second — the Figure 11/12 scaling story at
/// beyond-paper cluster sizes. With the placement index, throughput
/// stays near-flat as racks grow; the seed's linear scans degraded. The
/// cells run one after another on the calling thread, so no sibling
/// contends a cell's per-op number.
#[expect(
    clippy::disallowed_methods,
    reason = "bench timings are wall-clock by definition and reach no RunReport"
)]
fn bench(racks: &[u16], vms: u32) -> Result<(), String> {
    println!("{}", host_info());
    let mut t = Table::new(
        format!("Scheduling throughput vs cluster size ({vms} schedule/release cycles)"),
        &["racks", "algorithm", "sched ops/s", "µs/op"],
    )
    .align(&[Align::Right, Align::Left, Align::Right, Align::Right]);
    for &n in racks {
        for algo in Algorithm::ALL {
            let mut cycle = ScheduleCycle::new(n, algo);
            let t0 = Instant::now();
            for _ in 0..vms {
                cycle.step();
            }
            let ops = f64::from(vms) / t0.elapsed().as_secs_f64().max(1e-9);
            t.row(&[
                n.to_string(),
                algo.to_string(),
                format!("{ops:.0}"),
                format!("{:.2}", 1e6 / ops),
            ]);
        }
    }
    println!("{t}");
    Ok(())
}

fn experiment(id: &str, seed: Option<u64>) -> Result<(), String> {
    let run_one = |id: &str, seed: Option<u64>| -> Result<(), String> {
        let rep = match id {
            "fig5" => experiments::fig5(seed.unwrap_or(42)),
            "fig6" => experiments::fig6(seed.unwrap_or(2023)),
            "fig7" => experiments::fig7(seed.unwrap_or(2023)),
            "fig8" => experiments::fig8(seed.unwrap_or(2023)),
            "fig9" => experiments::fig9(seed.unwrap_or(2023)),
            "fig10" => experiments::fig10(seed.unwrap_or(2023)),
            "fig11" => experiments::fig11(seed.unwrap_or(42)),
            "fig12" => experiments::fig12(seed.unwrap_or(2023)),
            "ablation" => {
                println!(
                    "{}",
                    experiments::ablation_trunk_width(seed.unwrap_or(7), &[1, 2, 4, 8])
                );
                println!(
                    "{}",
                    experiments::ablation_alpha(seed.unwrap_or(7), &[0.5, 0.7, 0.9, 1.0])
                );
                println!(
                    "{}",
                    experiments::ablation_lifetimes(seed.unwrap_or(7), 1200)
                );
                println!(
                    "{}",
                    experiments::fig5_seed_sweep(&[1, 2, 3, 4, 5, 6, 7, 8], 1200)
                );
                return Ok(());
            }
            other => return Err(format!("unknown experiment '{other}'")),
        };
        println!("{rep}");
        Ok(())
    };
    if id == "all" {
        for id in [
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation",
        ] {
            run_one(id, seed)?;
        }
        Ok(())
    } else {
        run_one(id, seed)
    }
}

/// Write the trace as CSV — to `out` (a `.csv` path, checked by the
/// parser) or to stdout — through the shard cursor, a shard of rows at a
/// time: the output costs one shard of memory whatever its length.
fn generate(workload: WorkloadArg, seed: u64, out: Option<&str>) -> Result<(), String> {
    let source = spec_of(workload, seed)
        .shard_source()
        .map_err(|e| e.to_string())?;
    let name = out.unwrap_or("stdout");
    let cannot_write = |e: std::io::Error| format!("cannot write {name}: {e}");
    let mut sink: Box<dyn std::io::Write> = match out {
        Some(path) => Box::new(std::fs::File::create(path).map_err(cannot_write)?),
        None => Box::new(std::io::stdout().lock()),
    };
    let mut rows = format!("{}\n", csv::HEADER);
    let mut written = 0u32;
    for vm in StreamingShards::new(source) {
        csv::write_row(&mut rows, &vm);
        written += 1;
        if written.is_multiple_of(SHARD_SIZE) {
            sink.write_all(rows.as_bytes()).map_err(cannot_write)?;
            rows.clear();
        }
    }
    sink.write_all(rows.as_bytes())
        .and_then(|()| sink.flush())
        .map_err(cannot_write)?;
    if let Some(path) = out {
        eprintln!("wrote {written} VMs to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_runs() {
        assert!(execute(Command::Info).is_ok());
    }

    #[test]
    fn run_small_synthetic() {
        let cmd = Command::Run {
            algo: Algorithm::Risa,
            workload: WorkloadArg::Synthetic { n: 50 },
            seed: 1,
            scale: 1,
            faults: false,
            json: false,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
        };
        assert!(execute(cmd).is_ok());
    }

    #[test]
    fn run_emits_json() {
        let cmd = Command::Run {
            algo: Algorithm::Nulb,
            workload: WorkloadArg::Synthetic { n: 20 },
            seed: 1,
            scale: 1,
            faults: false,
            json: true,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
        };
        assert!(execute(cmd).is_ok());
    }

    /// `generate --out <file>.csv` writes the library's CSV rendering of
    /// the workload, which the trace reader loads back as that workload.
    #[test]
    fn generate_out_round_trips() {
        let dir = std::env::temp_dir().join(format!("risa-cli-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let workload = WorkloadArg::Synthetic { n: 5000 };
        let path = dir.join("t.csv");
        execute(Command::Generate {
            workload: workload.clone(),
            seed: 9,
            out: Some(path.to_string_lossy().to_string()),
        })
        .unwrap();
        let expect = spec_of(workload, 9).materialize();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            csv::to_csv(&expect)
        );
        let read = WorkloadSpec::TraceCsv {
            name: "synthetic".into(),
            path: path.to_string_lossy().to_string(),
        };
        assert_eq!(read.materialize(), expect);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn run_scaled_cluster() {
        let cmd = Command::Run {
            algo: Algorithm::Risa,
            workload: WorkloadArg::Synthetic { n: 40 },
            seed: 2,
            scale: 10,
            faults: false,
            json: false,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
        };
        assert!(execute(cmd).is_ok());
    }

    /// `run --faults` injects the canonical scenario and the text report
    /// grows the resilience rows (JSON mode grows the `faults` block —
    /// covered by `risa-sim`'s serde tests).
    #[test]
    fn run_with_faults() {
        let cmd = Command::Run {
            algo: Algorithm::Risa,
            workload: WorkloadArg::Synthetic { n: 400 },
            seed: 3,
            scale: 1,
            faults: true,
            json: false,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
        };
        assert!(execute(cmd).is_ok());
    }

    #[test]
    fn bench_smoke() {
        assert!(execute(Command::Bench {
            racks: vec![12, 24],
            vms: 200,
        })
        .is_ok());
    }

    /// `run --checkpoint/--checkpoint-every` leaves a resumable snapshot
    /// behind, and `run --resume` replays it to completion using only the
    /// embedded recipe (no workload/seed/fel flags on the resume side).
    #[test]
    fn run_checkpoint_then_resume() {
        let dir = std::env::temp_dir().join("risa-cli-checkpoint");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt").to_string_lossy().to_string();
        execute(Command::Run {
            algo: Algorithm::Risa,
            workload: WorkloadArg::Synthetic { n: 400 },
            seed: 3,
            scale: 1,
            faults: false,
            json: true,
            checkpoint: Some(path.clone()),
            checkpoint_every: Some(2000.0),
            resume: None,
        })
        .unwrap();
        // The temp file must have been renamed away, not left behind.
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        execute(Command::Run {
            algo: Algorithm::Risa,
            workload: WorkloadArg::Synthetic { n: 50 },
            seed: 1,
            scale: 1,
            faults: false,
            json: true,
            checkpoint: None,
            checkpoint_every: None,
            resume: Some(path.clone()),
        })
        .unwrap();
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn resume_missing_or_corrupt_checkpoint_fails() {
        let cmd = |resume: String| Command::Run {
            algo: Algorithm::Risa,
            workload: WorkloadArg::Synthetic { n: 50 },
            seed: 1,
            scale: 1,
            faults: false,
            json: false,
            checkpoint: None,
            checkpoint_every: None,
            resume: Some(resume),
        };
        assert!(execute(cmd("/nonexistent/run.ckpt".into()))
            .unwrap_err()
            .contains("cannot read checkpoint"));
        let dir = std::env::temp_dir().join("risa-cli-checkpoint-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.ckpt").to_string_lossy().to_string();
        std::fs::write(&path, "{not a checkpoint").unwrap();
        assert!(execute(cmd(path.clone()))
            .unwrap_err()
            .contains("bad checkpoint"));
        std::fs::remove_file(path).unwrap();
    }

    /// `run --workload <file>.csv` loads the trace file and serves it
    /// through the same shard cursor as the generator workloads.
    #[test]
    fn run_csv_trace_workload() {
        let dir = std::env::temp_dir().join("risa-cli-csv");
        std::fs::create_dir_all(&dir).unwrap();
        let csv =
            risa_workload::csv::to_csv(&spec_of(WorkloadArg::Synthetic { n: 60 }, 4).materialize());
        let path = dir.join("mini.csv").to_string_lossy().to_string();
        std::fs::write(&path, csv).unwrap();
        execute(Command::Run {
            algo: Algorithm::Risa,
            workload: WorkloadArg::TraceCsv { path: path.clone() },
            seed: 1,
            scale: 1,
            faults: false,
            json: true,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
        })
        .unwrap();
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn unknown_experiment_fails() {
        assert!(experiment("fig99", None).is_err());
    }
}
