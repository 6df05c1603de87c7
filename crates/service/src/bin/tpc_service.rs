//! The sweep daemon.
//!
//! ```text
//! tpc_service --socket PATH [--cache PATH] [--workers N] [--allow-chaos]
//! ```
//!
//! Binds a Unix domain socket and serves the line-delimited JSON
//! sweep protocol (see `tpc_service::server`) until a client sends
//! `{"op":"shutdown"}`. With `--cache`, completed cells are memoized
//! in a content-addressed file that survives restarts — and SIGKILL,
//! thanks to torn-line tolerance. `--allow-chaos` accepts requests
//! carrying chaos plans (injected cache-write failures); leave it off
//! outside test harnesses.

use std::path::PathBuf;
use std::process::ExitCode;
use tpc_service::{serve, ServerOptions};

fn usage() -> ExitCode {
    eprintln!("usage: tpc_service --socket PATH [--cache PATH] [--workers N] [--allow-chaos]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    // A panicking cell (e.g. an invalid configuration) is contained
    // and reported in the sweep's error manifest; a full default-hook
    // backtrace per contained panic would drown the log, so log one
    // line instead.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("tpc_service: contained panic: {info}");
    }));
    let mut args = std::env::args().skip(1);
    let mut socket: Option<PathBuf> = None;
    let mut cache: Option<PathBuf> = None;
    let mut workers = 0usize;
    let mut allow_chaos = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => match args.next() {
                Some(p) => socket = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--cache" => match args.next() {
                Some(p) => cache = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--workers" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => workers = n,
                None => return usage(),
            },
            "--allow-chaos" => allow_chaos = true,
            _ => return usage(),
        }
    }
    let Some(socket) = socket else {
        return usage();
    };
    let opts = ServerOptions {
        socket,
        cache,
        workers,
        allow_chaos,
        exit_on_shutdown: true,
    };
    match serve(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tpc_service: {e}");
            ExitCode::FAILURE
        }
    }
}
