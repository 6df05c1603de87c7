//! The Unix-domain-socket daemon.
//!
//! Protocol: line-delimited JSON over a `SOCK_STREAM` Unix socket.
//! The client sends one request object per line; the server answers
//! with one or more newline-terminated JSON lines. Ops:
//!
//! | request | response |
//! |---|---|
//! | `{"op":"ping"}` | `{"ok":true,"op":"ping"}` |
//! | `{"op":"cache_stats"}` | `{"ok":true,"op":"cache_stats","entries":..,"hits":..,"misses":..,"insert_failures":..}` |
//! | `{"op":"shutdown"}` | `{"ok":true,"op":"shutdown"}`, then the daemon exits |
//! | `{"op":"sweep",...}` | `{"ok":true,"op":"accepted",...}`, a stream of `event` lines, then a final `done` line |
//!
//! Malformed or rejected requests get `{"ok":false,"error":"..."}`;
//! the connection stays usable. A sweep runs through
//! [`tpc_experiments::run_cells`]: cells found in the result cache are
//! answered first, then every miss runs once on the worker pool under
//! panic containment and the request's cycle watchdog. Event lines
//! (cached cells in grid order, then fresh cells in completion order
//! — every line carries its cell `index`):
//!
//! ```text
//! {"event":"cell","index":3,"cached":false,"ms":12.5,"words":[...]}
//! {"event":"cell_error","index":6,"kind":"timeout","message":"..."}
//! {"event":"done","ok":7,"failed":1,"cached":2,"cache_write_failures":0,
//!  "digest":123...,"manifest":[{"index":6,"kind":"timeout","message":"..."}]}
//! ```
//!
//! Connections are served **sequentially** (parallelism lives inside
//! a sweep, across the worker pool — not across clients); a second
//! client queues in the listen backlog until the first disconnects.
//!
//! The `manifest` array lists every failed cell; `digest` is the
//! order-sensitive FNV digest of the completed cells' stats words
//! ([`crate::client::digest_results`]) for cheap bit-identity checks
//! against a reference run. There are no retries: cells are
//! deterministic and the watchdog counts cycles, so a failed cell
//! would fail identically again. Chaos injection in a request is
//! refused unless the daemon was started with `--allow-chaos`.

use crate::client::digest_results;
use crate::json::{escape, Json};
use crate::spec::SweepRequest;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Mutex;
use tpc_experiments::{run_cells, CellRun, ResultCache, RunOptions};
use tpc_processor::SimStats;

/// Daemon configuration (mirrors the `tpc_service` CLI).
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Socket path to bind (a stale socket file is replaced).
    pub socket: PathBuf,
    /// Result-cache file; `None` keeps memoization in memory only.
    pub cache: Option<PathBuf>,
    /// Worker threads per sweep (0 = all available cores).
    pub workers: usize,
    /// Accept requests carrying chaos plans (test harnesses only).
    pub allow_chaos: bool,
    /// Return from [`serve`] after a `shutdown` op (the binary always
    /// sets this; in-process tests may serve several shutdowns).
    pub exit_on_shutdown: bool,
}

impl ServerOptions {
    /// Defaults: in-memory cache, auto worker count, chaos refused.
    pub fn new(socket: PathBuf) -> ServerOptions {
        ServerOptions {
            socket,
            cache: None,
            workers: 0,
            allow_chaos: false,
            exit_on_shutdown: true,
        }
    }
}

/// Serializes stats words as a JSON array fragment.
fn words_json(stats: &SimStats) -> String {
    let words: Vec<String> = stats.to_words().iter().map(u64::to_string).collect();
    format!("[{}]", words.join(","))
}

/// A line writer shared between the connection handler and the
/// sweep's worker threads. Write errors are latched, not
/// propagated: a client that disconnects mid-sweep must not kill the
/// sweep (its cells still land in the cache for the re-submit).
struct EventWriter {
    inner: Mutex<(UnixStream, bool)>,
}

impl EventWriter {
    fn new(stream: UnixStream) -> EventWriter {
        EventWriter {
            inner: Mutex::new((stream, false)),
        }
    }

    fn line(&self, s: &str) {
        let mut guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let (stream, dead) = &mut *guard;
        if *dead {
            return;
        }
        if stream
            .write_all(s.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .is_err()
        {
            *dead = true;
        }
    }
}

fn event_line(index: usize, run: &CellRun) -> String {
    match &run.result {
        Ok(stats) => format!(
            "{{\"event\":\"cell\",\"index\":{index},\"cached\":{},\"ms\":{:.3},\"words\":{}}}",
            run.cached,
            run.ms,
            words_json(stats)
        ),
        Err(error) => format!(
            "{{\"event\":\"cell_error\",\"index\":{index},\"kind\":\"{}\",\"message\":\"{}\"}}",
            error.kind(),
            escape(&error.to_string())
        ),
    }
}

fn done_line(runs: &[CellRun], cache_write_failures: u64) -> String {
    let manifest: Vec<String> = runs
        .iter()
        .enumerate()
        .filter_map(|(index, run)| {
            let error = run.result.as_ref().err()?;
            Some(format!(
                "{{\"index\":{index},\"kind\":\"{}\",\"message\":\"{}\"}}",
                error.kind(),
                escape(&error.to_string())
            ))
        })
        .collect();
    let ok = runs.iter().filter(|r| r.result.is_ok()).count();
    let cached = runs.iter().filter(|r| r.cached).count();
    let digest = digest_results(runs.iter().map(|r| r.result.as_ref().ok()));
    format!(
        "{{\"event\":\"done\",\"ok\":{ok},\"failed\":{},\"cached\":{cached},\
         \"cache_write_failures\":{cache_write_failures},\"digest\":{digest},\
         \"manifest\":[{}]}}",
        runs.len() - ok,
        manifest.join(",")
    )
}

fn handle_sweep(
    req: &SweepRequest,
    opts: &ServerOptions,
    cache: &ResultCache,
    writer: &EventWriter,
) {
    writer.line(&format!(
        "{{\"ok\":true,\"op\":\"accepted\",\"cells\":{}}}",
        req.cells.len()
    ));
    let jobs = if opts.workers == 0 {
        tpc_experiments::available_cores()
    } else {
        opts.workers
    };
    let mut cells = req.sweep_cells();
    // Injected write failures: those cells bypass the cache entirely.
    for &i in &req.chaos.fail_cache_writes {
        if let Some(cell) = cells.get_mut(i) {
            cell.key = None;
        }
    }
    let failures_before = cache.stats().insert_failures;
    let on_done = |index: usize, run: &CellRun| writer.line(&event_line(index, run));
    let run_opts = RunOptions {
        budget: req.budget,
        store: (!req.no_cache).then_some(cache),
        on_done: Some(&on_done),
        ..RunOptions::new(jobs)
    };
    let runs = run_cells(&cells, req.run_params(), &run_opts);
    let injected = req
        .chaos
        .fail_cache_writes
        .iter()
        .filter(|&&i| !req.no_cache && runs.get(i).is_some_and(|r| r.result.is_ok()));
    let write_failures = cache.stats().insert_failures - failures_before + injected.count() as u64;
    writer.line(&done_line(&runs, write_failures));
}

/// Handles one client connection; returns `true` when the client
/// requested daemon shutdown.
fn handle_connection(stream: UnixStream, opts: &ServerOptions, cache: &ResultCache) -> bool {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return false,
    };
    let writer = EventWriter::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let parsed = match Json::parse(&line) {
            Ok(v) => v,
            Err(e) => {
                writer.line(&format!(
                    "{{\"ok\":false,\"error\":\"bad json: {}\"}}",
                    escape(&e)
                ));
                continue;
            }
        };
        match parsed.get("op").and_then(Json::as_str) {
            Some("ping") => writer.line("{\"ok\":true,\"op\":\"ping\"}"),
            Some("cache_stats") => {
                let s = cache.stats();
                writer.line(&format!(
                    "{{\"ok\":true,\"op\":\"cache_stats\",\"entries\":{},\"hits\":{},\
                     \"misses\":{},\"insert_failures\":{}}}",
                    s.entries, s.hits, s.misses, s.insert_failures
                ));
            }
            Some("shutdown") => {
                writer.line("{\"ok\":true,\"op\":\"shutdown\"}");
                return true;
            }
            Some("sweep") => match SweepRequest::from_json(&parsed) {
                Ok(req) => {
                    if !req.chaos.is_empty() && !opts.allow_chaos {
                        writer.line(
                            "{\"ok\":false,\"error\":\"chaos plan refused: \
                             daemon started without --allow-chaos\"}",
                        );
                    } else {
                        handle_sweep(&req, opts, cache, &writer);
                    }
                }
                Err(e) => writer.line(&format!(
                    "{{\"ok\":false,\"error\":\"bad sweep: {}\"}}",
                    escape(&e)
                )),
            },
            Some(other) => writer.line(&format!(
                "{{\"ok\":false,\"error\":\"unknown op {}\"}}",
                escape(&format!("{other:?}"))
            )),
            None => writer.line("{\"ok\":false,\"error\":\"missing op\"}"),
        }
    }
    false
}

/// Binds the socket and serves connections until a `shutdown` op
/// (when [`ServerOptions::exit_on_shutdown`]) or an accept error.
///
/// A pre-existing socket file is probed first: if a daemon still
/// answers on it, binding fails with [`io::ErrorKind::AddrInUse`];
/// a dead leftover (SIGKILL'd daemon) is silently replaced — exactly
/// the restart path the chaos harness exercises.
///
/// # Errors
///
/// Socket binding/acceptance failures. An unusable cache file is
/// *not* an error: the daemon logs a warning to stderr and serves
/// from memory.
pub fn serve(opts: &ServerOptions) -> io::Result<()> {
    if opts.socket.exists() {
        if UnixStream::connect(&opts.socket).is_ok() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("a daemon is already listening on {:?}", opts.socket),
            ));
        }
        std::fs::remove_file(&opts.socket)?;
    }
    let cache = match &opts.cache {
        None => ResultCache::in_memory(),
        Some(path) => {
            let (cache, warning) = ResultCache::open_or_memory(path);
            if let Some(w) = warning {
                eprintln!("tpc-service: {w}");
            }
            cache
        }
    };
    let listener = UnixListener::bind(&opts.socket)?;
    for stream in listener.incoming() {
        let stream = stream?;
        if handle_connection(stream, opts, &cache) && opts.exit_on_shutdown {
            break;
        }
    }
    let _ = std::fs::remove_file(&opts.socket);
    Ok(())
}
