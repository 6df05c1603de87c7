//! Self-chaos gate for the sweep daemon.
//!
//! ```text
//! chaos_service [--quick]
//! ```
//!
//! Spawns real `tpc_service` daemons (sibling binary, or
//! `TPC_SERVICE_BIN`) and attacks them the way the world would:
//!
//! 1. **Clean sweep** — daemon results must be bit-identical to a
//!    serial in-process [`run_cells`] reference (digest over every
//!    stats word).
//! 2. **Hang probe** — the grid again under a starved cycle budget
//!    (`budget_cpi:0,budget_floor:50`) with the cache bypassed: every
//!    cell must trip the watchdog and land in the error manifest
//!    while the sweep completes.
//! 3. **Memoized resubmit** — the clean sweep again: every cell
//!    served from cache, digest unchanged.
//! 4. **Chaos sweep** — the grid plus a `baseline:63` cell, which
//!    panics on the trace cache's geometry assertion (it must land in
//!    the error manifest while the rest complete), and an injected
//!    cache-write failure (result still correct).
//! 5. **Daemon SIGKILL mid-sweep** — kill -9 the daemon after two
//!    cells complete, tear the cache file's tail, restart on the same
//!    socket and cache, resubmit: the finished cells replay from
//!    cache and the merged digest still matches the reference.
//! 6. **Broken cache path** — a daemon whose `--cache` points at a
//!    directory degrades to in-memory and still answers correctly;
//!    the same daemon (started without `--allow-chaos`) must refuse a
//!    chaos-carrying request.
//!
//! Exit status 0 only if every check passes — wired into
//! `scripts/verify.sh` as the service smoke gate.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tpc_experiments::{run_cells, CellBudget, RunOptions, RunParams};
use tpc_processor::SimStats;
use tpc_service::{digest_results, CellSpec, Client, ConfigSpec, SweepRequest};
use tpc_workloads::Benchmark;

struct Harness {
    failures: u32,
    checks: u32,
}

impl Harness {
    fn check(&mut self, name: &str, ok: bool, detail: &str) {
        self.checks += 1;
        if ok {
            println!("PASS {name}");
        } else {
            self.failures += 1;
            println!("FAIL {name}: {detail}");
        }
    }
}

fn daemon_bin() -> PathBuf {
    if let Ok(p) = std::env::var("TPC_SERVICE_BIN") {
        return PathBuf::from(p);
    }
    let mut p = std::env::current_exe().expect("current_exe");
    p.set_file_name("tpc_service");
    p
}

fn spawn_daemon(socket: &Path, cache: Option<&Path>, workers: usize, allow_chaos: bool) -> Child {
    let mut cmd = Command::new(daemon_bin());
    cmd.arg("--socket").arg(socket);
    if let Some(cache) = cache {
        cmd.arg("--cache").arg(cache);
    }
    cmd.arg("--workers").arg(workers.to_string());
    if allow_chaos {
        cmd.arg("--allow-chaos");
    }
    cmd.stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn tpc_service daemon")
}

/// Shuts the daemon down over the client's own connection (the
/// daemon serves connections sequentially, so a fresh connection
/// would queue behind this one) and waits for the process to exit.
fn stop_daemon(mut child: Child, mut client: Client) {
    let _ = client.shutdown();
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return,
            Ok(None) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
        }
    }
}

fn connect(socket: &Path) -> Client {
    Client::connect_retry(socket, Duration::from_secs(10)).expect("daemon did not come up")
}

/// The grid both the reference and the daemon run.
fn grid(quick: bool) -> Vec<CellSpec> {
    let benchmarks = if quick {
        &[Benchmark::Compress, Benchmark::Gcc][..]
    } else {
        &[
            Benchmark::Compress,
            Benchmark::Gcc,
            Benchmark::Go,
            Benchmark::Vortex,
        ][..]
    };
    let configs = [
        ConfigSpec::parse("baseline:64").unwrap(),
        ConfigSpec::parse("combined:64:32").unwrap(),
    ];
    benchmarks
        .iter()
        .flat_map(|&b| configs.iter().map(move |&c| CellSpec::new(b, c)))
        .collect()
}

/// Serial, in-process reference results for `req`, without the daemon
/// or its cache.
fn serial_reference(req: &SweepRequest) -> Vec<SimStats> {
    run_cells(&req.sweep_cells(), req.run_params(), &RunOptions::new(1))
        .into_iter()
        .map(|run| run.result.expect("reference cell succeeds"))
        .collect()
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let params = if quick {
        RunParams {
            warmup: 4_000,
            measure: 8_000,
            seed: 1,
            jobs: 1,
        }
    } else {
        RunParams {
            warmup: 40_000,
            measure: 80_000,
            seed: 1,
            jobs: 1,
        }
    };
    let dir = std::env::temp_dir().join(format!("tpc-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut h = Harness {
        failures: 0,
        checks: 0,
    };

    let specs = grid(quick);
    let n = specs.len();
    println!(
        "chaos_service: {} cells, warmup {}, measure {}",
        n, params.warmup, params.measure
    );
    let request =
        |cells: Vec<CellSpec>| SweepRequest::new(params.warmup, params.measure, params.seed, cells);
    let reference = serial_reference(&request(specs.clone()));
    let ref_digest = digest_results(reference.iter().map(Some));

    // --- Scenarios 1-4: one daemon, persistent cache, chaos allowed.
    let socket = dir.join("main.sock");
    let cache = dir.join("cache.jsonl");
    let daemon = spawn_daemon(&socket, Some(&cache), 3, true);
    let mut client = connect(&socket);
    h.check("ping", client.ping().is_ok(), "daemon unreachable");

    // 1. Clean sweep: bit-identical to the serial reference.
    match client.sweep(&request(specs.clone())) {
        Ok(report) => {
            h.check(
                "clean sweep matches serial reference",
                report.digest == ref_digest && report.ok_count() == n,
                &format!(
                    "digest {} vs reference {ref_digest}, ok {}/{n}",
                    report.digest,
                    report.ok_count()
                ),
            );
            h.check(
                "clean sweep ran fresh",
                report.cached_count() == 0,
                &format!("cached {}", report.cached_count()),
            );
        }
        Err(e) => h.check(
            "clean sweep matches serial reference",
            false,
            &e.to_string(),
        ),
    }

    // 2. Hang probe: a starved watchdog budget, cache bypassed so
    // every cell reaches a worker. Each must time out structurally.
    let mut starved = request(specs.clone());
    starved.budget = CellBudget {
        cycles_per_instruction: 0,
        floor: 50,
    };
    starved.no_cache = true;
    match client.sweep(&starved) {
        Ok(report) => h.check(
            "hang probe: every starved cell trips the watchdog",
            report.ok_count() == 0
                && report.manifest.len() == n
                && report.manifest.iter().all(|e| e.kind == "timeout"),
            &format!("ok {}, manifest {:?}", report.ok_count(), report.manifest),
        ),
        Err(e) => h.check(
            "hang probe: every starved cell trips the watchdog",
            false,
            &e.to_string(),
        ),
    }

    // 3. Resubmit: every cell replays from the cache, digest unchanged.
    match client.sweep(&request(specs.clone())) {
        Ok(report) => h.check(
            "resubmit is fully memoized and identical",
            report.digest == ref_digest && report.cached_count() == n,
            &format!(
                "digest {} vs {ref_digest}, cached {}/{n}",
                report.digest,
                report.cached_count()
            ),
        ),
        Err(e) => h.check(
            "resubmit is fully memoized and identical",
            false,
            &e.to_string(),
        ),
    }

    // 4. Chaos sweep: a permanently panicking cell and a cache-write
    // failure — the other results still bit-identical, the failure
    // degraded into the manifest.
    let mut chaos_specs = specs.clone();
    chaos_specs.push(CellSpec::new(
        Benchmark::Compress,
        ConfigSpec::parse("baseline:63").unwrap(),
    ));
    let mut req = request(chaos_specs);
    // The injected write failure makes cell 0 bypass the cache, so it
    // runs fresh even though scenario 1 memoized it.
    req.chaos.fail_cache_writes.push(0);
    match client.sweep(&req) {
        Ok(report) => {
            let cells_match = (0..n).all(|i| report.stats[i].as_ref() == Some(&reference[i]));
            h.check(
                "chaos sweep: surviving cells bit-identical",
                cells_match,
                "a cell diverged from the serial reference",
            );
            let manifest_ok = report.stats[n].is_none()
                && report.manifest.len() == 1
                && report.manifest[0].index == n
                && report.manifest[0].kind == "panic";
            h.check(
                "chaos sweep: panicking cell degraded into manifest",
                manifest_ok,
                &format!("manifest {:?}", report.manifest),
            );
            h.check(
                "chaos sweep: injected cache-write failure observed",
                report.cache_write_failures == 1 && !report.cached[0],
                &format!(
                    "cache_write_failures {}, cell 0 cached {}",
                    report.cache_write_failures, report.cached[0]
                ),
            );
        }
        Err(e) => h.check(
            "chaos sweep: surviving cells bit-identical",
            false,
            &e.to_string(),
        ),
    }
    stop_daemon(daemon, client);

    // --- Scenario 5: SIGKILL the daemon mid-sweep, tear the cache,
    // restart, resubmit — completed cells replay, merged digest
    // matches.
    let socket = dir.join("kill.sock");
    let cache = dir.join("kill-cache.jsonl");
    let daemon = spawn_daemon(&socket, Some(&cache), 1, false);
    let mut client = connect(&socket);
    client
        .submit(&request(specs.clone()))
        .expect("submit before kill");
    let mut seen = 0;
    while seen < 2 {
        let line = client.next_line().expect("event before kill");
        if line.contains("\"event\":\"cell\"") {
            seen += 1;
        }
    }
    let mut daemon = daemon;
    daemon.kill().expect("SIGKILL daemon");
    let _ = daemon.wait();
    h.check(
        "daemon SIGKILL severs the stream",
        client.next_line().is_err() || {
            // Drain whatever was already buffered; the stream must
            // end without a `done` line.
            let mut done = false;
            while let Ok(line) = client.next_line() {
                done |= line.contains("\"event\":\"done\"");
            }
            !done
        },
        "sweep claimed completion after SIGKILL",
    );
    // Tear the cache tail the way a crash mid-append would.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&cache)
            .expect("open cache for tearing");
        f.write_all(b"{\"fp\":123,\"words\":[9,9,9").expect("tear");
    }
    let daemon2 = spawn_daemon(&socket, Some(&cache), 1, false);
    let mut client = connect(&socket);
    match client.sweep(&request(specs.clone())) {
        Ok(report) => {
            h.check(
                "post-SIGKILL resubmit merges bit-identically",
                report.digest == ref_digest && report.ok_count() == n,
                &format!("digest {} vs {ref_digest}", report.digest),
            );
            h.check(
                "post-SIGKILL resubmit replays finished cells from cache",
                report.cached_count() >= 2,
                &format!("cached {}/{n}", report.cached_count()),
            );
        }
        Err(e) => h.check(
            "post-SIGKILL resubmit merges bit-identically",
            false,
            &e.to_string(),
        ),
    }
    stop_daemon(daemon2, client);

    // --- Scenario 6: broken cache path (a directory) + chaos refusal.
    let socket = dir.join("degraded.sock");
    let daemon = spawn_daemon(&socket, Some(&dir), 2, false);
    let mut client = connect(&socket);
    match client.sweep(&request(specs.clone())) {
        Ok(report) => h.check(
            "daemon with unusable cache path still answers correctly",
            report.digest == ref_digest,
            &format!("digest {} vs {ref_digest}", report.digest),
        ),
        Err(e) => h.check(
            "daemon with unusable cache path still answers correctly",
            false,
            &e.to_string(),
        ),
    }
    let mut refused = request(specs.clone());
    refused.chaos.fail_cache_writes.push(0);
    let err = client.sweep(&refused);
    h.check(
        "chaos plan refused without --allow-chaos",
        err.is_err() && format!("{}", err.unwrap_err()).contains("allow-chaos"),
        "daemon accepted chaos without the flag",
    );
    stop_daemon(daemon, client);

    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "chaos_service: {} checks, {} failures",
        h.checks, h.failures
    );
    if h.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
