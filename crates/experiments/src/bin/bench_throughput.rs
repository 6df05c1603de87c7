//! Simulator throughput benchmark: the repo's perf-trajectory data
//! point.
//!
//! Two measurements, written to `BENCH_sim.json` (std-only JSON, no
//! serde):
//!
//! 1. **Per-config throughput** — wall time and simulated
//!    instructions per second for each standard configuration on one
//!    benchmark, run serially. This tracks the per-cycle hot path
//!    (the zero-copy trace storage work shows up here).
//! 2. **Sweep speedup** — wall time for a 4-benchmark × 2-config grid
//!    with `--jobs 1` versus `--jobs 4`, plus a bit-identity check
//!    between the two runs. This tracks the parallel sweep executor.
//!
//! Usage: `bench_throughput [--quick] [--warmup N] [--measure N]
//! [--seed N]`. `--quick` shrinks the windows for CI smoke runs.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use tpc_experiments::{
    available_cores, exact_jobs, par_map, run_cells, simulate, RunOptions, RunParams, SweepCell,
};
use tpc_processor::SimConfig;
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// The standard configurations tracked over time.
fn standard_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("baseline_256", SimConfig::baseline(256)),
        ("precon_128_128", SimConfig::with_precon(128, 128)),
        (
            "combined",
            SimConfig::with_precon(128, 128).with_preprocess(),
        ),
    ]
}

/// Benchmarks used for the parallel-sweep speedup measurement.
const SWEEP_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Compress,
    Benchmark::Gcc,
    Benchmark::Go,
    Benchmark::Vortex,
];

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let params = RunParams::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("bench_throughput: {e}");
        std::process::exit(2);
    });
    let simulated = params.warmup + params.measure;

    // 1. Per-config hot-path throughput (serial, one benchmark).
    let mut config_entries = Vec::new();
    for (name, config) in standard_configs() {
        let t = Instant::now();
        let stats = simulate(Benchmark::Gcc, config, params);
        let secs = t.elapsed().as_secs_f64();
        let ips = simulated as f64 / secs.max(1e-9);
        println!(
            "{name:16} gcc  {:>8.1} ms  {:>12.0} sim instr/s  (IPC {:.2})",
            secs * 1e3,
            ips,
            stats.ipc()
        );
        let mut e = String::new();
        write!(
            e,
            "    {{\"config\": \"{name}\", \"benchmark\": \"gcc\", \"frontend\": \"synthetic\", \
             \"wall_ms\": {}, \"sim_instr_per_sec\": {}, \"ipc\": {}}}",
            json_f(secs * 1e3),
            json_f(ips),
            json_f(stats.ipc())
        )
        .expect("fmt::Write to a String is infallible");
        config_entries.push(e);
    }

    // 2. Parallel sweep speedup: the same grid at jobs=1 and jobs=4,
    // with a per-cell timing breakdown. Programs are generated once
    // and shared so both runs simulate bit-identical cells.
    let grid_configs = [SimConfig::baseline(256), SimConfig::with_precon(128, 128)];
    let programs = par_map(&SWEEP_BENCHMARKS, 1, |&b| {
        Arc::new(WorkloadBuilder::new(b).seed(params.seed).build())
    });
    let sweep_cells: Vec<SweepCell> = programs
        .iter()
        .flat_map(|p| {
            grid_configs
                .iter()
                .map(|c| SweepCell::new(Arc::clone(p), c.clone()))
        })
        .collect();
    // `exact_jobs` bypasses the default core clamp: oversubscription
    // is part of what this benchmark measures, so the jobs=4 run uses
    // four workers even on a smaller box (and reports it honestly
    // below).
    let run_grid = |jobs: u64| {
        let p = RunParams { jobs, ..params };
        let t = Instant::now();
        let runs = run_cells(&sweep_cells, p, &RunOptions::new(exact_jobs(jobs)));
        let wall = t.elapsed().as_secs_f64();
        let (stats, cell_ms): (Vec<_>, Vec<f64>) =
            runs.into_iter().map(|run| (run.result, run.ms)).unzip();
        (wall, stats, cell_ms)
    };
    let (serial_secs, serial_stats, serial_cell_ms) = run_grid(1);
    let (parallel_secs, parallel_stats, parallel_cell_ms) = run_grid(4);
    let identical = serial_stats == parallel_stats && serial_stats.iter().all(Result::is_ok);
    let speedup_wall = serial_secs / parallel_secs.max(1e-9);
    let cells = sweep_cells.len();
    let cores = available_cores();
    // With more workers than cores, threads time-slice one another:
    // total CPU work rises (scheduling overhead) and the speedup is
    // bounded by the core count — on one core, speedup ≤ 1 is the
    // *expected* result, not a sweep-executor defect. The flag and
    // the per-cell times make that diagnosis from the JSON alone.
    let oversubscribed = 4 > cores;
    // Wall-clock speedup flatters an oversubscribed box (scheduler
    // noise in the jobs=1 run can make 1.05x out of nothing). The
    // honest figure divides the *useful work* — the sum of per-cell
    // busy ms measured on a serial run — by the parallel wall time:
    // it reaches ~N on N idle cores and stays ~1 when there is only
    // one core to share, whatever the thread count.
    let busy_ms_jobs1: f64 = serial_cell_ms.iter().sum();
    let busy_ms_jobs4: f64 = parallel_cell_ms.iter().sum();
    let speedup_busy = busy_ms_jobs1 / (parallel_secs * 1e3).max(1e-9);
    println!(
        "sweep {cells} cells: jobs=1 {:.1} ms, jobs=4 {:.1} ms, wall speedup {:.2}x, \
         busy-based speedup {:.2}x, identical: {identical}",
        serial_secs * 1e3,
        parallel_secs * 1e3,
        speedup_wall,
        speedup_busy,
    );
    // The "expected" note explains a measured speedup <= 1; next to
    // a real speedup it would contradict the figure above it.
    let note = match (oversubscribed, speedup_wall <= 1.0) {
        (true, true) => "; oversubscribed — speedup <= 1 expected",
        (true, false) => "; oversubscribed",
        (false, _) => "",
    };
    println!(
        "  per-cell busy ms: jobs=1 sum {:.1}, jobs=4 sum {:.1} ({} cores{note})",
        busy_ms_jobs1, busy_ms_jobs4, cores,
    );
    if !identical {
        eprintln!(
            "bench_throughput: a cell failed or the parallel sweep diverged from serial results"
        );
        std::process::exit(1);
    }

    let cell_list = |ms: &[f64]| ms.iter().map(|&m| json_f(m)).collect::<Vec<_>>().join(", ");
    let json = format!(
        "{{\n  \"warmup\": {},\n  \"measure\": {},\n  \"seed\": {},\n  \"cores\": {cores},\n  \
         \"configs\": [\n{}\n  ],\n  \"sweep\": {{\"cells\": {cells}, \"cores\": {cores}, \
         \"jobs1_wall_ms\": {}, \"jobs4_wall_ms\": {}, \"speedup_wall\": {}, \
         \"busy_ms_jobs1\": {}, \"busy_ms_jobs4\": {}, \"speedup_busy\": {}, \
         \"identical\": {identical}, \"oversubscribed\": {oversubscribed},\n    \
         \"cell_ms_jobs1\": [{}],\n    \"cell_ms_jobs4\": [{}]}}\n}}\n",
        params.warmup,
        params.measure,
        params.seed,
        config_entries.join(",\n"),
        json_f(serial_secs * 1e3),
        json_f(parallel_secs * 1e3),
        json_f(speedup_wall),
        json_f(busy_ms_jobs1),
        json_f(busy_ms_jobs4),
        json_f(speedup_busy),
        cell_list(&serial_cell_ms),
        cell_list(&parallel_cell_ms),
    );
    std::fs::write("BENCH_sim.json", &json).unwrap_or_else(|e| {
        eprintln!("bench_throughput: cannot write BENCH_sim.json: {e}");
        std::process::exit(1);
    });
    println!("wrote BENCH_sim.json");
}
