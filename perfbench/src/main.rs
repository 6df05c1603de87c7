//! Command-line entry point; see the library docs for usage.

use perfbench::report::{result_line, Host};
use perfbench::{workload, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(simulate) = args.setup_child {
        return match workload::setup_child(&args, simulate) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if !args.daemon.is_file() {
        eprintln!(
            "perfbench: daemon executable {} not found",
            args.daemon.display()
        );
        return ExitCode::from(2);
    }
    let host = Host::probe();
    println!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"warmup\": {}, \"measure\": {}, \"instances\": {}, \"nproc\": {}, \"cpu\": \"{}\", \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"fingerprint\": \"{:016x}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.window.warmup,
        args.window.measure,
        args.instances,
        host.nproc,
        tpc_service::json::escape(&host.cpu),
        tpc_service::json::escape(&host.rustc),
        tpc_service::json::escape(&host.commit),
        host.fingerprint()
    );
    let mut run = workload::run(&args);
    for (name, _) in args.table() {
        let value = run.metrics.get(name);
        run.gate.expect(value.is_some_and(f64::is_finite), || {
            format!("metric {name} is missing or not finite ({value:?})")
        });
    }
    if !args.trace {
        for config in ["precon", "combined"] {
            if let Some(v) = run.metrics.get(&format!("speedup.{config}")) {
                run.notes.push(paper_band(config, v));
            }
        }
    }
    for note in &run.notes {
        println!("{note}");
    }
    for message in run.gate.messages() {
        eprintln!("perfbench: FAILED {message}");
    }
    println!(
        "{}",
        result_line(
            run.gate.attempted(),
            run.gate.failed(),
            &run.metrics,
            args.table()
        )
    );
    if run.gate.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The measured speedup beside the paper's reported range.
fn paper_band(config: &str, speedup: f64) -> String {
    let band = match config {
        "precon" => "paper: +3-10% (Fig. 6), +2-8% (Fig. 8)",
        _ => "paper: +12-20%, 14% on average (Fig. 8)",
    };
    format!(
        "speedup.{config} = {:+.1}% ({band}); the model is not validated against real \
         hardware: it runs synthetic SPECint95 profiles (DESIGN.md section 2)",
        (speedup - 1.0) * 100.0
    )
}
