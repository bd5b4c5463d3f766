//! Hand-rolled argument parsing (no CLI dependency; the grammar is tiny).

use risa_sched::Algorithm;
use risa_workload::AzureSubset;

/// Top-level usage text.
pub const USAGE: &str = "\
usage: risa-cli <command> [options]

commands:
  info                       print the paper's configuration tables and host info
  run                        run one simulation and print (or emit JSON) its report
      --algo <NULB|NALB|RISA|RISA-BF>      (default RISA)
      --workload <synthetic|azure-3000|azure-5000|azure-7500|<file>.csv>
                             (default synthetic; a path ending in .csv is
                             a trace file in the risa CSV schema, loaded
                             whole before the run)
      --n <count>            synthetic VM count (default 2500; refused
                             with any other workload)
      --seed <u64>           (default 42)
      --scale <mult>         run on a mult x paper cluster (default 1)
      --checkpoint <path>    with --checkpoint-every: write the latest
                             checkpoint (JSON, versioned) to <path> at
                             each cadence; a resumed run replays into the
                             uninterrupted run's exact bytes
      --checkpoint-every <units>  simulated-time cadence for --checkpoint
      --resume <path>        resume a run from a checkpoint file: rebuild
                             it from the configuration embedded there
                             (workload/algo/seed/scale flags are rejected
                             — nothing is re-read from the environment),
                             replay it to the recorded event count, and
                             refuse it if its inputs have changed
      --faults               inject the canonical failure/repair scenario
                             (rack failures with evacuation, trunk and
                             transceiver flaps) and report resilience
                             metrics; deterministic — same bytes at any
                             thread count. Without the flag the
                             RISA_FAULTS env var applies (1 = canonical,
                             any other integer = that scenario seed)
      --json                 emit the RunReport as JSON
      --jobs <n>             thread-pool size for parallel sections
  experiment <id>            regenerate a paper artifact
      <id> ∈ fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 ablation all
      --seed <u64>           (default 42 for fig5/fig11, 2023 otherwise)
      --jobs <n>             threads for the experiment matrix (default: all cores)
  bench                      scheduling-throughput sweep over cluster sizes
      --racks <a,b,c>        rack counts to sweep (default 12,48,192,768)
      --vms <count>          schedule/release cycles per point (default 2000)
      --jobs <n>             threads timing cells concurrently (1 = uncontended)
      --json                 also run the DES and generation suites and
                             write BENCH_des.json / BENCH_scale.json /
                             BENCH_gen.json machine-readable snapshots
      --des-vms <count>      VMs in the --json DES run (default 100000)
      --gen-vms <count>      VMs generated by the --json gen suite (default 1000000)
      --out <dir>            directory for the --json snapshots (default .)
  generate                   write a workload trace in the risa CSV schema,
                             which run --workload reads back, a 4096-row
                             shard at a time
      --workload <...>       as for run
      --n <count> --seed <u64>
      --out <file>.csv       output file (default: stdout)

--jobs (or the RISA_THREADS env var; the flag wins) sizes the global
thread pool. Simulation reports are identical at any thread count;
only wall-clock timings (bench's ops/s, fig11/fig12 times) vary.
";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `info`
    Info,
    /// `run`
    Run {
        /// Scheduling algorithm.
        algo: Algorithm,
        /// Workload selector.
        workload: WorkloadArg,
        /// Seed.
        seed: u64,
        /// Cluster-size multiplier over the paper topology.
        scale: u16,
        /// Inject the canonical fault scenario (`false` = `RISA_FAULTS`
        /// env var, else faults off).
        faults: bool,
        /// Emit JSON instead of the text report.
        json: bool,
        /// Thread-pool size (`None` = `RISA_THREADS` or all cores).
        jobs: Option<usize>,
        /// Write the latest checkpoint to this path at each
        /// `--checkpoint-every` cadence.
        checkpoint: Option<String>,
        /// Simulated-time cadence for `--checkpoint`.
        checkpoint_every: Option<f64>,
        /// Resume from a checkpoint file instead of building a fresh run.
        resume: Option<String>,
    },
    /// `bench`
    Bench {
        /// Rack counts to sweep.
        racks: Vec<u16>,
        /// Schedule/release cycles measured per point.
        vms: u32,
        /// Thread-pool size (`None` = `RISA_THREADS` or all cores).
        jobs: Option<usize>,
        /// Also write the machine-readable `BENCH_*.json` snapshots.
        json: bool,
        /// VMs in the `--json` DES throughput run.
        des_vms: u32,
        /// VMs generated by the `--json` generation suite.
        gen_vms: u32,
        /// Snapshot output directory (default `.`).
        out: String,
    },
    /// `experiment <id>`
    Experiment {
        /// Artifact id (fig5…fig12, ablation, all).
        id: String,
        /// Seed, if overridden.
        seed: Option<u64>,
        /// Thread-pool size (`None` = `RISA_THREADS` or all cores).
        jobs: Option<usize>,
    },
    /// `generate`
    Generate {
        /// Workload selector.
        workload: WorkloadArg,
        /// Seed.
        seed: u64,
        /// Output path, a `.csv` file (None = stdout).
        out: Option<String>,
    },
}

/// Workload selection shared by `run` and `generate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadArg {
    /// §5.1 synthetic with `n` VMs.
    Synthetic {
        /// VM count.
        n: u32,
    },
    /// An Azure-like slice.
    Azure(AzureSubset),
    /// A CSV trace file on disk (`--workload <path>.csv`).
    TraceCsv {
        /// Path to the file.
        path: String,
    },
}

/// Whether `path` names a CSV file: by its extension, in any case. The
/// one rule for what `--workload` reads and what `generate --out` writes.
pub fn is_csv_path(path: &str) -> bool {
    path.to_ascii_lowercase().ends_with(".csv")
}

/// `--workload` with its `--n`, if one was given: only a synthetic
/// workload has a VM count to set, so `--n` with any other is an error
/// rather than silently ignored.
fn parse_workload(s: &str, n: Option<u32>) -> Result<WorkloadArg, String> {
    let w = if is_csv_path(s) {
        WorkloadArg::TraceCsv {
            path: s.to_string(),
        }
    } else {
        match s.to_ascii_lowercase().as_str() {
            "synthetic" => WorkloadArg::Synthetic {
                n: n.unwrap_or(2500),
            },
            "azure-3000" => WorkloadArg::Azure(AzureSubset::N3000),
            "azure-5000" => WorkloadArg::Azure(AzureSubset::N5000),
            "azure-7500" => WorkloadArg::Azure(AzureSubset::N7500),
            other => return Err(format!("unknown workload '{other}'")),
        }
    };
    if n.is_some() && !matches!(w, WorkloadArg::Synthetic { .. }) {
        return Err(format!(
            "--n sets the synthetic VM count; --workload {s} has its own and \
             cannot be combined with it"
        ));
    }
    Ok(w)
}

/// Leftover positionals plus parsed `(key, value)` option pairs.
type SplitArgs = (Vec<String>, Vec<(String, String)>);

/// Pull `--key value` style options out of `argv`, returning leftover
/// positionals. `flags` lists boolean options that take no value,
/// `values` the options that take one; any other `--key` is an error.
fn split_options(argv: &[String], flags: &[&str], values: &[&str]) -> Result<SplitArgs, String> {
    let mut positionals = Vec::new();
    let mut options = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(key) = a.strip_prefix("--") {
            if flags.contains(&key) {
                options.push((key.to_string(), "true".to_string()));
                i += 1;
            } else if !values.contains(&key) {
                return Err(format!("unknown option '--{key}'"));
            } else {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} expects a value"))?;
                options.push((key.to_string(), value.clone()));
                i += 2;
            }
        } else {
            positionals.push(a.clone());
            i += 1;
        }
    }
    Ok((positionals, options))
}

fn opt<'a>(options: &'a [(String, String)], key: &str) -> Option<&'a str> {
    options
        .iter()
        .rev()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn opt_u64(options: &[(String, String)], key: &str, default: u64) -> Result<u64, String> {
    match opt(options, key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number '{v}'")),
    }
}

/// As [`opt_u64`] but range-checked into a narrower integer type, so
/// oversized values error instead of silently truncating; `None` when the
/// option is absent.
fn opt_int<T: TryFrom<u64>>(options: &[(String, String)], key: &str) -> Result<Option<T>, String> {
    opt(options, key)
        .map(|v| {
            v.parse::<u64>()
                .ok()
                .and_then(|n| T::try_from(n).ok())
                .ok_or_else(|| format!("--{key}: number out of range '{v}'"))
        })
        .transpose()
}

/// `--jobs`: an optional thread-pool size, at least 1.
fn opt_jobs(options: &[(String, String)]) -> Result<Option<usize>, String> {
    match opt(options, "jobs") {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("--jobs: need a positive thread count, got '{v}'")),
        },
    }
}

/// Parse an argument vector (excluding the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some(cmd) = argv.first() else {
        return Err("missing command".into());
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "info" => {
            if !rest.is_empty() {
                return Err("info takes no arguments".into());
            }
            Ok(Command::Info)
        }
        "run" => {
            let (pos, options) = split_options(
                rest,
                &["json", "faults"],
                &[
                    "algo",
                    "workload",
                    "n",
                    "seed",
                    "scale",
                    "checkpoint",
                    "checkpoint-every",
                    "resume",
                    "jobs",
                ],
            )?;
            if !pos.is_empty() {
                return Err(format!("unexpected argument '{}'", pos[0]));
            }
            let n = opt_int::<u32>(&options, "n")?;
            let scale = opt_int::<u16>(&options, "scale")?.unwrap_or(1);
            if scale == 0 {
                return Err("--scale must be at least 1".into());
            }
            let checkpoint = opt(&options, "checkpoint").map(str::to_string);
            let checkpoint_every = match opt(&options, "checkpoint-every") {
                None => None,
                Some(v) => match v.parse::<f64>() {
                    Ok(t) if t > 0.0 && t.is_finite() => Some(t),
                    _ => {
                        return Err(format!(
                            "--checkpoint-every: need a positive time-unit cadence, got '{v}'"
                        ))
                    }
                },
            };
            let resume = opt(&options, "resume").map(str::to_string);
            if resume.is_some() {
                // The run configuration is embedded in the checkpoint;
                // accepting config flags here would silently ignore them.
                for key in ["algo", "workload", "n", "seed", "scale"] {
                    if opt(&options, key).is_some() {
                        return Err(format!(
                            "--resume replays the checkpoint's embedded configuration; \
                             --{key} cannot be combined with it"
                        ));
                    }
                }
                if opt(&options, "faults").is_some() {
                    return Err("--resume replays the checkpoint's embedded configuration; \
                         --faults cannot be combined with it"
                        .into());
                }
                if checkpoint_every.is_some() {
                    return Err(
                        "--checkpoint-every is embedded in the checkpoint; a resumed run \
                         keeps the original cadence"
                            .into(),
                    );
                }
            } else {
                if checkpoint.is_some() != checkpoint_every.is_some() {
                    return Err("--checkpoint and --checkpoint-every must be used together".into());
                }
            }
            Ok(Command::Run {
                algo: opt(&options, "algo").unwrap_or("RISA").parse()?,
                workload: parse_workload(opt(&options, "workload").unwrap_or("synthetic"), n)?,
                seed: opt_u64(&options, "seed", 42)?,
                scale,
                faults: opt(&options, "faults").is_some(),
                json: opt(&options, "json").is_some(),
                jobs: opt_jobs(&options)?,
                checkpoint,
                checkpoint_every,
                resume,
            })
        }
        "bench" => {
            let (pos, options) = split_options(
                rest,
                &["json"],
                &["racks", "vms", "jobs", "des-vms", "gen-vms", "out"],
            )?;
            if !pos.is_empty() {
                return Err(format!("unexpected argument '{}'", pos[0]));
            }
            let racks = match opt(&options, "racks") {
                None => vec![12, 48, 192, 768],
                Some(list) => list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<u16>()
                            .map_err(|_| format!("--racks: bad rack count '{s}'"))
                    })
                    .collect::<Result<Vec<u16>, String>>()?,
            };
            if racks.is_empty() || racks.contains(&0) {
                return Err("--racks needs positive rack counts".into());
            }
            Ok(Command::Bench {
                racks,
                vms: opt_int::<u32>(&options, "vms")?.unwrap_or(2000),
                jobs: opt_jobs(&options)?,
                json: opt(&options, "json").is_some(),
                des_vms: opt_int::<u32>(&options, "des-vms")?.unwrap_or(100_000),
                gen_vms: opt_int::<u32>(&options, "gen-vms")?.unwrap_or(1_000_000),
                out: opt(&options, "out").unwrap_or(".").to_string(),
            })
        }
        "experiment" => {
            let (pos, options) = split_options(rest, &[], &["seed", "jobs"])?;
            let id = pos.first().ok_or("experiment needs an id")?.clone();
            const KNOWN: [&str; 10] = [
                "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation",
                "all",
            ];
            if !KNOWN.contains(&id.as_str()) {
                return Err(format!("unknown experiment '{id}'"));
            }
            let seed = match opt(&options, "seed") {
                None => None,
                Some(v) => Some(v.parse().map_err(|_| format!("--seed: bad number '{v}'"))?),
            };
            Ok(Command::Experiment {
                id,
                seed,
                jobs: opt_jobs(&options)?,
            })
        }
        "generate" => {
            let (pos, options) = split_options(rest, &[], &["workload", "n", "seed", "out"])?;
            if !pos.is_empty() {
                return Err(format!("unexpected argument '{}'", pos[0]));
            }
            let n = opt_int::<u32>(&options, "n")?;
            let out = opt(&options, "out").map(str::to_string);
            if let Some(path) = out.as_deref().filter(|path| !is_csv_path(path)) {
                return Err(format!(
                    "--out must name a .csv file (the trace format run --workload reads), \
                     got '{path}'"
                ));
            }
            Ok(Command::Generate {
                workload: parse_workload(opt(&options, "workload").unwrap_or("synthetic"), n)?,
                seed: opt_u64(&options, "seed", 42)?,
                out,
            })
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_info() {
        assert_eq!(parse(&v(&["info"])).unwrap(), Command::Info);
        assert!(parse(&v(&["info", "x"])).is_err());
    }

    #[test]
    fn parses_run_defaults() {
        let c = parse(&v(&["run"])).unwrap();
        assert_eq!(
            c,
            Command::Run {
                algo: Algorithm::Risa,
                workload: WorkloadArg::Synthetic { n: 2500 },
                seed: 42,
                scale: 1,
                faults: false,
                json: false,
                jobs: None,
                checkpoint: None,
                checkpoint_every: None,
                resume: None,
            }
        );
    }

    #[test]
    fn parses_run_full() {
        let c = parse(&v(&[
            "run",
            "--algo",
            "nalb",
            "--workload",
            "azure-5000",
            "--seed",
            "7",
            "--scale",
            "10",
            "--faults",
            "--json",
            "--jobs",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Run {
                algo: Algorithm::Nalb,
                workload: WorkloadArg::Azure(AzureSubset::N5000),
                seed: 7,
                scale: 10,
                faults: true,
                json: true,
                jobs: Some(4),
                checkpoint: None,
                checkpoint_every: None,
                resume: None,
            }
        );
        assert!(parse(&v(&["run", "--scale", "0"])).is_err());
        // The option that chose how a trace file is read is gone with the
        // second read (spelled in halves so a grep for it stays empty).
        let gone = concat!("--arr", "ivals");
        assert_eq!(
            parse(&v(&["run", gone, "streaming"])).unwrap_err(),
            format!("unknown option '{gone}'")
        );
        assert!(parse(&v(&["run", "--jobs", "0"])).is_err());
        assert!(parse(&v(&["run", "--jobs", "lots"])).is_err());
        // Out-of-range values error instead of silently truncating.
        assert!(parse(&v(&["run", "--scale", "65536"])).is_err());
        assert!(parse(&v(&["run", "--n", "4294967296"])).is_err());
        assert!(parse(&v(&["bench", "--vms", "4294967296"])).is_err());
        // --n sizes only a synthetic workload; with any other it is refused.
        assert!(parse(&v(&["run", "--workload", "azure-3000", "--n", "5"])).is_err());
        assert!(parse(&v(&["run", "--workload", "t.csv", "--n", "5"])).is_err());
    }

    #[test]
    fn parses_bench() {
        let c = parse(&v(&["bench"])).unwrap();
        assert_eq!(
            c,
            Command::Bench {
                racks: vec![12, 48, 192, 768],
                vms: 2000,
                jobs: None,
                json: false,
                des_vms: 100_000,
                gen_vms: 1_000_000,
                out: ".".into(),
            }
        );
        let c = parse(&v(&[
            "bench",
            "--racks",
            "18,36",
            "--vms",
            "500",
            "--jobs",
            "1",
            "--json",
            "--des-vms",
            "5000",
            "--gen-vms",
            "20000",
            "--out",
            "snaps",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Bench {
                racks: vec![18, 36],
                vms: 500,
                jobs: Some(1),
                json: true,
                des_vms: 5000,
                gen_vms: 20_000,
                out: "snaps".into(),
            }
        );
        assert!(parse(&v(&["bench", "--racks", "12,x"])).is_err());
        assert!(parse(&v(&["bench", "--racks", "0"])).is_err());
        assert!(parse(&v(&["bench", "--des-vms", "4294967296"])).is_err());
    }

    #[test]
    fn parses_experiment() {
        let c = parse(&v(&["experiment", "fig9", "--seed", "1"])).unwrap();
        assert_eq!(
            c,
            Command::Experiment {
                id: "fig9".into(),
                seed: Some(1),
                jobs: None,
            }
        );
        assert!(parse(&v(&["experiment", "fig99"])).is_err());
        assert!(parse(&v(&["experiment"])).is_err());
    }

    /// `generate` writes CSV only, to a `.csv` file or to stdout — by the
    /// rule `run --workload` reads a file by — and `replay`, the reader of
    /// the JSON it once wrote, is gone with it.
    #[test]
    fn parses_generate_and_replay() {
        let c = parse(&v(&[
            "generate",
            "--workload",
            "synthetic",
            "--n",
            "100",
            "--out",
            "t.CSV",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Generate {
                workload: WorkloadArg::Synthetic { n: 100 },
                seed: 42,
                out: Some("t.CSV".into()),
            }
        );
        let c = parse(&v(&["generate"])).unwrap();
        assert_eq!(
            c,
            Command::Generate {
                workload: WorkloadArg::Synthetic { n: 2500 },
                seed: 42,
                out: None,
            }
        );
        for out in ["t.json", "t", "t.csv.gz"] {
            let err = parse(&v(&["generate", "--out", out])).unwrap_err();
            assert!(err.starts_with("--out must name a .csv file"), "{err}");
        }
        assert_eq!(
            parse(&v(&["generate", "--jobs", "8"])).unwrap_err(),
            "unknown option '--jobs'"
        );
        assert!(parse(&v(&["generate", "--workload", "azure-3000", "--n", "5"])).is_err());
        assert!(parse(&v(&["generate", "--workload", "t.csv", "--n", "5"])).is_err());
        assert_eq!(
            parse(&v(&["replay", "--trace", "t.json"])).unwrap_err(),
            "unknown command 'replay'"
        );
    }

    #[test]
    fn parses_checkpoint_and_resume() {
        let c = parse(&v(&[
            "run",
            "--checkpoint",
            "cp.json",
            "--checkpoint-every",
            "5000",
        ]))
        .unwrap();
        match c {
            Command::Run {
                checkpoint,
                checkpoint_every,
                resume,
                ..
            } => {
                assert_eq!(checkpoint.as_deref(), Some("cp.json"));
                assert_eq!(checkpoint_every, Some(5000.0));
                assert_eq!(resume, None);
            }
            _ => panic!(),
        }
        let c = parse(&v(&["run", "--resume", "cp.json", "--json"])).unwrap();
        match c {
            Command::Run { resume, json, .. } => {
                assert_eq!(resume.as_deref(), Some("cp.json"));
                assert!(json);
            }
            _ => panic!(),
        }
        // The flag pair is all-or-nothing, cadence must be positive, and
        // --resume rejects configuration flags (the checkpoint embeds
        // the run configuration).
        assert!(parse(&v(&["run", "--checkpoint", "cp.json"])).is_err());
        assert!(parse(&v(&["run", "--checkpoint-every", "5000"])).is_err());
        assert!(parse(&v(&["run", "--checkpoint", "c", "--checkpoint-every", "0"])).is_err());
        assert!(parse(&v(&[
            "run",
            "--checkpoint",
            "c",
            "--checkpoint-every",
            "inf"
        ]))
        .is_err());
        assert!(parse(&v(&["run", "--resume", "c", "--seed", "7"])).is_err());
        assert!(parse(&v(&["run", "--resume", "c", "--workload", "azure-3000"])).is_err());
        assert!(parse(&v(&["run", "--resume", "c", "--scale", "2"])).is_err());
        assert!(parse(&v(&["run", "--resume", "c", "--faults"])).is_err());
        assert!(parse(&v(&["run", "--resume", "c", "--checkpoint-every", "10"])).is_err());
        // --jobs and --checkpoint still combine with --resume.
        assert!(parse(&v(&[
            "run",
            "--resume",
            "c",
            "--jobs",
            "2",
            "--checkpoint",
            "d"
        ]))
        .is_ok());
    }

    #[test]
    fn parses_csv_trace_workload() {
        let c = parse(&v(&["run", "--workload", "trace.CSV"])).unwrap();
        match c {
            Command::Run { workload, .. } => assert_eq!(
                workload,
                WorkloadArg::TraceCsv {
                    path: "trace.CSV".into()
                }
            ),
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&v(&[])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
        assert_eq!(parse(&v(&["lint"])).unwrap_err(), "unknown command 'lint'");
        assert!(parse(&v(&["run", "--algo"])).is_err());
        assert!(parse(&v(&["run", "--seed", "NaN"])).is_err());
        assert!(parse(&v(&["run", "--workload", "gcp"])).is_err());
        assert!(parse(&v(&["run", "stray"])).is_err());
        // Options no command defines are named, not ignored.
        for argv in [
            &["run", "--fel", "heap"][..],
            &["run", "--exec", "sequential"],
            &["bench", "--fel", "heap"],
        ] {
            let err = parse(&v(argv)).unwrap_err();
            assert_eq!(err, format!("unknown option '{}'", argv[1]));
        }
    }

    #[test]
    fn last_option_wins() {
        let c = parse(&v(&["run", "--seed", "1", "--seed", "2"])).unwrap();
        match c {
            Command::Run { seed, .. } => assert_eq!(seed, 2),
            _ => panic!(),
        }
    }
}
