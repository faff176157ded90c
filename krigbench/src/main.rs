//! `krigbench` — the krigeval benchmark.
//!
//! ```text
//! cargo run --release --manifest-path krigbench/Cargo.toml -- \
//!     --workload table1-noise --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `table1-noise`, `cnn-frontier`, `serve-dse` (see the
//! README). With `--trace 0` the run measures the end-to-end metrics;
//! with `--trace 1` it makes one traced pass and reports the per-layer
//! metrics. The last line of standard output is the JSON result; the
//! exit code is nonzero when any correctness check failed.

mod campaign;
mod cnn_frontier;
mod layers;
mod serve_dse;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Where traced runs write their spans and artifacts.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("krigbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "table1-noise" => campaign::run(&args),
        "cnn-frontier" => cnn_frontier::run(&args),
        "serve-dse" => serve_dse::run(&args),
        other => {
            eprintln!(
                "krigbench: unknown workload {other:?} (table1-noise, cnn-frontier, serve-dse)"
            );
            return ExitCode::from(2);
        }
    };
    report.print();
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
