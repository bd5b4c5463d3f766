//! `risa-cli` — drive the RISA reproduction from the command line.
//!
//! ```text
//! risa-cli info                                   # Tables 1/2 + host
//! risa-cli run --algo RISA --workload azure-3000  # one simulation
//! risa-cli experiment fig5 [--seed 42]            # regenerate a figure
//! risa-cli experiment all --jobs 8                # every figure, 8 threads
//! risa-cli bench --racks 12,768 --jobs 1          # throughput sweep, uncontended
//! risa-cli generate --n 100000 --out trace.csv    # a trace, as CSV ...
//! risa-cli run --workload trace.csv --faults      # ... which `run` reads
//! ```
//!
//! `experiment` and `bench` fan out over the `rayon` thread pool; `--jobs`
//! (or `RISA_THREADS`) sizes it, and results are byte-identical at any
//! thread count. Entry points: `args::parse` → `commands::execute`.

mod args;
mod benchjson;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::execute(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
