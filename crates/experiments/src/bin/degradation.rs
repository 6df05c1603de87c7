//! Graceful-degradation sweep: trace-cache hit rate and fetch IPC
//! under increasing fault-injection intensity.
//!
//! Usage: `cargo run -p tpc-experiments --release --bin degradation --
//! [--warmup N] [--measure N] [--seed N] [--jobs N] [--quick]
//! [--checkpoint PATH]`
//!
//! With `--checkpoint`, completed cells stream to a result-store file
//! (keyed by each cell's content fingerprint) and an interrupted sweep
//! resumes from it, producing byte-identical output; cells recorded by
//! a sweep with other parameters are simply not found. Exit codes:
//! 0 = all cells ran, 1 = one or more cells failed (reported in the
//! table), 2 = usage or checkpoint error.

use std::path::PathBuf;
use tpc_experiments::{degradation, CellBudget, RunParams};
use tpc_workloads::Benchmark;

fn main() {
    let mut plain = Vec::new();
    let mut checkpoint: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--checkpoint" {
            match args.next() {
                Some(p) => checkpoint = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--checkpoint expects a path");
                    std::process::exit(2);
                }
            }
        } else {
            plain.push(arg);
        }
    }
    let params = RunParams::from_args(plain.into_iter()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    eprintln!(
        "degradation: sweeping {} intensities x 8 benchmarks ({params:?})",
        degradation::INTENSITIES.len()
    );
    let rows = degradation::run(
        &Benchmark::ALL,
        params,
        CellBudget::default(),
        checkpoint.as_deref(),
    )
    .unwrap_or_else(|e| {
        eprintln!("degradation: checkpoint error: {e}");
        std::process::exit(2);
    });
    print!("{}", degradation::render(&rows));
    let failures = rows.iter().filter(|r| r.result.is_err()).count();
    if failures > 0 {
        eprintln!("degradation: {failures} cell(s) failed (see table)");
        std::process::exit(1);
    }
}
