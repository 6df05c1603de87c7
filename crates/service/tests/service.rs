//! Integration tests: the daemon end-to-end over a real Unix socket
//! (served from a test thread), against serial in-process references.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use tpc_experiments::{run_cells, CellBudget, RunOptions};
use tpc_service::{
    digest_results, serve, CellSpec, Client, ConfigSpec, ServerOptions, SweepRequest,
};
use tpc_workloads::Benchmark;

const WARMUP: u64 = 1_000;
const MEASURE: u64 = 2_000;

fn cell(benchmark: Benchmark, config: &str) -> CellSpec {
    CellSpec::new(benchmark, ConfigSpec::parse(config).unwrap())
}

fn small_grid() -> Vec<CellSpec> {
    vec![
        cell(Benchmark::Compress, "baseline:64"),
        cell(Benchmark::Compress, "combined:64:32"),
        cell(Benchmark::Li, "precon:64:32"),
    ]
}

fn request(cells: Vec<CellSpec>) -> SweepRequest {
    SweepRequest::new(WARMUP, MEASURE, 1, cells)
}

fn serial_reference(req: &SweepRequest) -> Vec<tpc_processor::SimStats> {
    run_cells(&req.sweep_cells(), req.run_params(), &RunOptions::new(1))
        .into_iter()
        .map(|run| run.result.expect("reference cell succeeds"))
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "tpc-service-test-{}-{c}-{name}",
        std::process::id()
    ))
}

/// Serves on a background thread; returns a connected client and the
/// server thread.
fn start_test_daemon(allow_chaos: bool) -> (Client, PathBuf, std::thread::JoinHandle<()>) {
    let socket = temp_path("sock");
    let opts = ServerOptions {
        socket: socket.clone(),
        cache: None,
        workers: 2,
        allow_chaos,
        exit_on_shutdown: true,
    };
    let handle = std::thread::spawn(move || {
        serve(&opts).expect("serve");
    });
    let client = Client::connect_retry(&socket, Duration::from_secs(10)).unwrap();
    (client, socket, handle)
}

fn stop(mut client: Client, handle: std::thread::JoinHandle<()>) {
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn socket_end_to_end_sweep_ping_and_shutdown() {
    let (mut client, socket, handle) = start_test_daemon(false);
    client.ping().unwrap();
    let stats = client.cache_stats().unwrap();
    assert_eq!(stats.entries, 0);

    let req = request(small_grid());
    let reference = serial_reference(&req);
    let report = client.sweep(&req).unwrap();
    assert_eq!(report.ok_count(), 3);
    assert_eq!(report.digest, digest_results(reference.iter().map(Some)));
    for (got, expected) in report.stats.iter().zip(&reference) {
        assert_eq!(got.as_ref().unwrap(), expected);
    }
    assert_eq!(report.attempts, [1, 1, 1], "each cell ran exactly once");
    assert_eq!((report.retries, report.workers_killed), (0, 0));

    // The daemon memoized the sweep (in-memory cache).
    let report = client.sweep(&req).unwrap();
    assert_eq!(report.cached_count(), 3);
    assert_eq!(report.attempts, [0, 0, 0]);
    assert!(client.cache_stats().unwrap().entries >= 3);

    stop(client, handle);
    assert!(!socket.exists(), "socket removed on shutdown");
}

#[test]
fn overlapping_sweep_only_pays_for_new_cells() {
    let (mut client, _, handle) = start_test_daemon(false);
    let req = request(small_grid());
    let first = client.sweep(&req).unwrap();
    let mut bigger = req.clone();
    bigger.cells.push(cell(Benchmark::Go, "baseline:64"));
    let second = client.sweep(&bigger).unwrap();
    assert_eq!(second.cached, [true, true, true, false]);
    assert_eq!(second.stats[..3], first.stats[..]);
    assert_eq!(
        second.stats[3].as_ref(),
        serial_reference(&bigger).get(3),
        "the new cell matches a serial run"
    );
    stop(client, handle);
}

#[test]
fn socket_sweep_streams_manifest_for_panicking_cell() {
    let (mut client, _, handle) = start_test_daemon(false);
    let mut req = request(small_grid());
    // 63 trace-cache entries trip the trace cache's geometry assertion.
    req.cells[0] = cell(Benchmark::Compress, "baseline:63");
    let report = client.sweep(&req).unwrap();
    assert_eq!(report.ok_count(), 2, "other cells unaffected");
    assert_eq!(report.manifest.len(), 1);
    assert_eq!(report.manifest[0].index, 0);
    assert_eq!(report.manifest[0].kind, "panic");
    assert!(report.manifest[0].message.contains("entries"));
    stop(client, handle);
}

#[test]
fn starved_budget_times_out_every_cell_without_hanging() {
    let (mut client, _, handle) = start_test_daemon(false);
    let mut req = request(small_grid());
    req.budget = CellBudget {
        cycles_per_instruction: 0,
        floor: 50,
    };
    let report = client.sweep(&req).unwrap();
    assert_eq!(report.ok_count(), 0);
    assert_eq!(report.manifest.len(), 3);
    assert!(report.manifest.iter().all(|e| e.kind == "timeout"));
    // Failures are never memoized: the default budget then succeeds.
    let report = client.sweep(&request(small_grid())).unwrap();
    assert_eq!((report.ok_count(), report.cached_count()), (3, 0));
    stop(client, handle);
}

#[test]
fn injected_cache_write_failure_keeps_results_correct() {
    let (mut client, _, handle) = start_test_daemon(true);
    let clean = request(small_grid());
    let reference = serial_reference(&clean);
    let mut req = clean.clone();
    req.chaos.fail_cache_writes = vec![0];
    let report = client.sweep(&req).unwrap();
    assert_eq!(report.cache_write_failures, 1);
    assert_eq!(report.stats[0].as_ref(), Some(&reference[0]));
    // The failed write means cell 0 re-runs next sweep.
    let again = client.sweep(&clean).unwrap();
    assert_eq!(again.cached, [false, true, true]);
    assert_eq!(again.cache_write_failures, 0);
    stop(client, handle);
}

#[test]
fn chaos_plans_are_refused_without_the_flag() {
    let (mut client, _, handle) = start_test_daemon(false);
    let mut req = request(small_grid());
    req.chaos.fail_cache_writes.push(0);
    let err = client.sweep(&req).unwrap_err();
    assert!(err.to_string().contains("allow-chaos"), "{err}");
    // The connection survives the refusal.
    client.ping().unwrap();
    stop(client, handle);
}

#[test]
fn malformed_requests_get_errors_not_disconnects() {
    let (mut client, _, handle) = start_test_daemon(false);
    for bad in [
        "not json at all",
        "{\"op\":\"warp\"}",
        "{\"no_op\":true}",
        "{\"op\":\"sweep\",\"cells\":[]}",
        "{\"op\":\"sweep\",\"cells\":[{\"benchmark\":\"nope\",\"config\":\"baseline:64\"}]}",
        "{\"op\":\"sweep\",\"cells\":[{\"benchmark\":\"gcc\",\"config\":\"baseline:4294967360\"}]}",
    ] {
        client.send_line(bad).unwrap();
        let line = client.next_line().unwrap();
        assert!(line.contains("\"ok\":false"), "{bad} -> {line}");
    }
    client.ping().unwrap();
    stop(client, handle);
}
