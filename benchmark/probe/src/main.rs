//! `risa-probe` — per-layer numbers for one benchmark workload, taken
//! from outside the program: it times calls into each crate's public
//! functions and records spans. See `../README.md` for how each number
//! relates to the real `risa-cli run` loop.
//!
//! ```text
//! risa-probe --name scale_admit --algo RISA --workload synthetic \
//!            --n 300000 --scale 40 --seed 42 --trace-out trace.json
//! ```
//!
//! The run options are those of `risa-cli run` that the benchmark uses.
//! The thread pool is sized by `RISA_THREADS`, which `../run.py` sets to
//! the `--jobs` value its `risa-cli` children get.

mod replay;
mod spans;

use replay::Recorded;
use risa::sched::Algorithm;
use risa::sim::{FaultSpec, RunReport, SimConfig, SimulationBuilder, WorkloadSpec};
use risa::topology::TopologyConfig;
use risa::workload::csv;
use spans::Tracer;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;

/// VMs in the side sample that times the trace input path the workload
/// itself does not use (generation for a CSV workload and the reverse).
const SIDE_SAMPLE_VMS: u32 = 65_536;

/// Repetitions averaged into `sim.report_us` (one takes ~0.1 ms).
const REPORT_REPS: u32 = 32;

struct Args {
    name: String,
    algo: Algorithm,
    /// `synthetic` or a path ending in `.csv`.
    workload: String,
    n: u32,
    seed: u64,
    scale: u16,
    faults: bool,
    trace_out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        name: String::new(),
        algo: Algorithm::Risa,
        workload: "synthetic".into(),
        n: 2500,
        seed: 42,
        scale: 1,
        faults: false,
        trace_out: String::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--faults" {
            args.faults = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} expects a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--name" => args.name = value,
            "--algo" => args.algo = value.parse().map_err(|e: String| bad(&e))?,
            "--workload" => args.workload = value,
            "--n" => args.n = value.parse().map_err(|e| bad(&e))?,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            "--trace-out" => args.trace_out = value,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.name.is_empty() || args.trace_out.is_empty() {
        return Err("--name and --trace-out are required".into());
    }
    Ok(args)
}

/// The workload as `risa-cli run --workload` resolves it.
fn spec_of(args: &Args) -> WorkloadSpec {
    if args.workload.ends_with(".csv") {
        let name = std::path::Path::new(&args.workload)
            .file_stem()
            .map_or("trace".into(), |s| s.to_string_lossy().into_owned());
        WorkloadSpec::TraceCsv {
            name,
            path: args.workload.clone(),
        }
    } else {
        WorkloadSpec::synthetic(args.n, args.seed)
    }
}

/// Nanoseconds per item, for a span of `ns` over `items`.
fn per(ns: u64, items: u64) -> f64 {
    ns as f64 / items.max(1) as f64
}

/// Why the shadow replay's outcome differs from the real run's report,
/// if it does.
fn shadow_mismatch(rec: &Recorded, report: &RunReport) -> Option<String> {
    let shadow = (
        rec.admits.len() as u32,
        rec.dropped_compute,
        rec.dropped_network,
        rec.inter_rack,
        rec.work,
    );
    let real = (
        report.admitted,
        report.dropped_compute,
        report.dropped_network,
        report.inter_rack_assignments,
        report.work,
    );
    (shadow != real)
        .then(|| format!("shadow replay {shadow:?} differs from the run's report {real:?}"))
}

fn run(args: &Args) -> Result<String, String> {
    let cfg = SimConfig {
        topology: TopologyConfig::paper().scaled(args.scale),
        ..SimConfig::paper()
    };
    let spec = spec_of(args);
    let is_csv = matches!(spec, WorkloadSpec::TraceCsv { .. });
    let mut tr = Tracer::new();
    let root = tr.open(None, "probe");

    let span = tr.open(Some(root), "workload.materialize");
    let trace = spec.materialize();
    let vms = trace.len() as u64;
    let load_ns = per(tr.close(span, vms), vms);

    // The input path this workload does not use, on a fixed-size sample,
    // so that both workload-layer timings exist on every workload.
    let side_ns = if is_csv {
        let span = tr.open(Some(root), "workload.generate_sample");
        let sample = WorkloadSpec::synthetic(SIDE_SAMPLE_VMS, args.seed).materialize();
        per(tr.close(span, sample.len() as u64), sample.len() as u64)
    } else {
        let head = &trace.vms()[..trace.len().min(SIDE_SAMPLE_VMS as usize)];
        let text = csv::to_csv(&risa::workload::Workload::from_vms("sample", head.to_vec()));
        let span = tr.open(Some(root), "workload.csv_parse_sample");
        let parsed = csv::from_csv("sample", &text).map_err(|e| e.to_string())?;
        per(tr.close(span, parsed.len() as u64), parsed.len() as u64)
    };
    let (gen_ns, csv_ns) = if is_csv {
        (side_ns, load_ns)
    } else {
        (load_ns, side_ns)
    };

    let span = tr.open(Some(root), "sim.build");
    let mut builder = SimulationBuilder::new()
        .algorithm(args.algo)
        .workload(spec)
        .topology(cfg.topology);
    if args.faults {
        builder = builder.faults(FaultSpec::canonical());
    }
    let mut sim = builder.try_build().map_err(|e| e.to_string())?;
    let build_s = tr.close(span, 1) as f64 / 1e9;

    let span = tr.open(Some(root), "sim.run");
    let report = sim.run();
    let events = u64::from(report.total_vms) + u64::from(report.admitted);
    let run_ns = tr.close(span, events);
    let run_s = run_ns as f64 / 1e9;

    let span = tr.open(Some(root), "sim.report");
    for _ in 0..REPORT_REPS {
        let text = serde_json::to_string_pretty(&sim.report()).map_err(|e| e.to_string())?;
        black_box(text);
    }
    let report_us = per(tr.close(span, REPORT_REPS.into()), REPORT_REPS.into()) / 1e3;
    drop(sim);

    let rec = replay::shadow_replay(&mut tr, root, &trace, args.algo, &cfg);
    drop(trace);
    // With faults on, evacuations re-place VMs the shadow replay never
    // moves, so only a faults-off run must agree with it.
    let checked = !args.faults;
    if checked {
        if let Some(why) = shadow_mismatch(&rec, &report) {
            return Err(why);
        }
    }

    let layers = tr.open(Some(root), "layers.replay");
    let (des_ns, peak_fel) = replay::replay_des(&mut tr, layers, &rec);
    let place_ns = replay::replay_topology(&mut tr, layers, &rec, &cfg);
    let (grant_ns, sample_ns, samples) = replay::replay_network(&mut tr, layers, &rec, &cfg);
    let metrics_ns = replay::replay_metrics(&mut tr, layers, &rec, &cfg);
    let energy_ns = replay::replay_photonics(&mut tr, layers, &rec, &cfg);
    tr.close(layers, rec.ops.len() as u64);
    tr.close(root, events);

    let admits = rec.admits.len() as u64;
    let calls = report.work.calls;
    let sample_ns_per_call = per(sample_ns, samples);
    // Topology and network grants happen inside schedule and release, so
    // they are not subtracted a second time.
    let isolated_s = (rec.schedule_ns + rec.release_ns + des_ns + metrics_ns + energy_ns) as f64
        / 1e9
        + sample_ns_per_call * events as f64 / 1e9;
    let metrics = [
        ("workload.gen_ns_per_vm", gen_ns),
        ("workload.csv_parse_ns_per_vm", csv_ns),
        ("workload.vms", vms as f64),
        ("sim.build_s", build_s),
        ("sim.run_s", run_s),
        ("sim.events", events as f64),
        ("sim.host_ns_per_event", per(run_ns, events)),
        (
            "sim.nonsched_ns_per_event",
            (run_s - report.sched_seconds) * 1e9 / events.max(1) as f64,
        ),
        ("sim.glue_s", run_s - isolated_s),
        ("sim.report_us", report_us),
        ("des.queue_ns_per_event", per(des_ns, events)),
        ("des.peak_fel", peak_fel as f64),
        ("sched.schedule_ns_per_call", per(rec.schedule_ns, vms)),
        ("sched.release_ns_per_call", per(rec.release_ns, admits)),
        ("sched.calls", calls as f64),
        (
            "sched.reported_us_per_call",
            report.sched_seconds * 1e6 / calls.max(1) as f64,
        ),
        (
            "sched.admit_ratio",
            f64::from(report.admitted) / vms.max(1) as f64,
        ),
        (
            "sched.inter_rack_ratio",
            f64::from(report.inter_rack_assignments) / f64::from(report.admitted.max(1)),
        ),
        (
            "sched.racks_scanned_per_call",
            per(report.work.racks_scanned, calls),
        ),
        (
            "sched.boxes_scanned_per_call",
            per(report.work.boxes_scanned, calls),
        ),
        (
            "sched.links_scanned_per_call",
            per(report.work.links_scanned, calls),
        ),
        ("topology.place_ns_per_vm", per(place_ns, admits)),
        ("network.grant_ns_per_vm", per(grant_ns, admits)),
        ("network.sample_ns_per_call", sample_ns_per_call),
        ("metrics.sample_ns_per_event", per(metrics_ns, events)),
        ("photonics.energy_ns_per_flow", per(energy_ns, 2 * admits)),
    ];

    std::fs::write(&args.trace_out, tr.to_json(&args.name))
        .map_err(|e| format!("cannot write {}: {e}", args.trace_out))?;

    let mut out = String::from("{\"metrics\":{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(out, "{sep}\"{name}\":{value:?}").expect("writing to a String cannot fail");
    }
    write!(
        out,
        "}},\"shadow_checked\":{checked},\"report\":{}}}",
        serde_json::to_string(&report).map_err(|e| e.to_string())?
    )
    .expect("writing to a String cannot fail");
    Ok(out)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("risa-probe: {e}");
            ExitCode::FAILURE
        }
    }
}
