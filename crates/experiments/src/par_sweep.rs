//! Parallel fan-out of sweep cells across cores.
//!
//! Every evaluation artifact (Figures 5/6/8, Tables 1–3, the
//! ablations) is a benchmark × configuration grid of mutually
//! independent simulations. This module runs such grids on scoped
//! worker threads (`std::thread::scope` — no external dependencies),
//! with two invariants:
//!
//! * **determinism** — each cell's simulation is self-contained and
//!   seeded, and results are collected in input order, so a sweep's
//!   output is byte-identical whatever the thread count (including
//!   `jobs = 1`, which runs inline);
//! * **sharing, not copying** — a benchmark's generated [`Program`]
//!   is built once and shared across all of its cells via [`Arc`].
//!
//! Workers pull cell indices from a shared atomic counter, so uneven
//! cell costs (a 1024-entry unified store vs a 64-entry baseline)
//! load-balance naturally.
//!
//! [`run_cells`] is the one way to run a grid: every figure, the
//! resumable degradation sweep, `bench_throughput` and the
//! `tpc-service` daemon call it, differing only in their
//! [`RunOptions`] (worker count, watchdog, result store, completion
//! callback).

use crate::runner::RunParams;
use crate::store::ResultCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tpc_isa::Program;
use tpc_processor::{BudgetExceeded, SimConfig, SimStats, Simulator};
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// Why one sweep cell failed. A failing cell never takes the sweep
/// down with it: [`par_try_map`] contains panics to the cell that
/// raised them and the rest of the grid completes normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The cell's computation panicked (e.g. an invalid
    /// configuration tripping a constructor assertion).
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The per-cell cycle watchdog fired before the instruction
    /// target was reached (a wedged or pathologically slow
    /// configuration).
    Timeout {
        /// Absolute cycles simulated when the watchdog fired.
        cycles: u64,
        /// Instructions retired by then.
        retired: u64,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panic { message } => write!(f, "cell panicked: {message}"),
            CellError::Timeout { cycles, retired } => write!(
                f,
                "cell timed out: {cycles} cycles with only {retired} instructions retired"
            ),
        }
    }
}

impl CellError {
    /// Short machine-readable kind tag (`panic` / `timeout`), used
    /// by error manifests.
    pub fn kind(&self) -> &'static str {
        match self {
            CellError::Panic { .. } => "panic",
            CellError::Timeout { .. } => "timeout",
        }
    }
}

impl std::error::Error for CellError {}

impl From<BudgetExceeded> for CellError {
    fn from(e: BudgetExceeded) -> Self {
        CellError::Timeout {
            cycles: e.cycles,
            retired: e.retired,
        }
    }
}

/// Renders a caught panic payload (almost always a `&str` or
/// `String`) for a [`CellError::Panic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cores available to this process (1 when undetectable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a `--jobs` request to a worker count: `0` means "one per
/// available core", and explicit requests are **clamped to the
/// available cores** — `--jobs 4` on a 1-core box runs one worker
/// instead of oversubscribing by default (time-slicing threads only
/// adds scheduling overhead; results are identical either way). Use
/// [`exact_jobs`] to deliberately oversubscribe, e.g. to measure it.
pub fn effective_jobs(requested: u64) -> usize {
    let cores = available_cores();
    if requested == 0 {
        cores
    } else {
        (requested as usize).min(cores).max(1)
    }
}

/// Resolves a jobs request without the core clamp: the explicit
/// override for callers that *want* more workers than cores
/// (`bench_throughput` measures oversubscription on purpose). `0`
/// still means "one per available core".
pub fn exact_jobs(requested: u64) -> usize {
    if requested == 0 {
        available_cores()
    } else {
        requested as usize
    }
}

/// Runs `f` with panic containment: a panic becomes that cell's
/// [`CellError::Panic`] instead of unwinding into the caller.
fn contain_cell<R>(f: impl FnOnce() -> Result<R, CellError>) -> Result<R, CellError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(CellError::Panic {
            message: panic_message(payload),
        })
    })
}

/// Fallible map over `items` on up to `jobs` worker threads, with
/// panic containment: a panic inside `f` is caught and reported as
/// that item's [`CellError::Panic`] while every other item completes
/// and returns its own result.
///
/// Results are returned in input order regardless of completion
/// order. `jobs <= 1` (or a single item) runs inline on the calling
/// thread — no spawn, identical results.
pub fn par_try_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<Result<R, CellError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, CellError> + Sync,
{
    let call = |item: &T| -> Result<R, CellError> { contain_cell(|| f(item)) };
    let jobs = jobs.min(items.len());
    if jobs <= 1 {
        return items.iter().map(call).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<Result<R, CellError>>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        // bound: i < items.len() checked above
                        produced.push((i, call(&items[i])));
                    }
                    produced
                })
            })
            .collect();
        // `call` contains panics, so a worker cannot die mid-item;
        // a join error is therefore unreachable, but it degrades to
        // structured per-item errors rather than killing the sweep.
        for worker in workers {
            if let Ok(produced) = worker.join() {
                for (i, r) in produced {
                    // bound: i came from the shared counter, capped at items.len()
                    results[i] = Some(r);
                }
            }
        }
    });
    results
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|| {
                Err(CellError::Panic {
                    message: "worker thread died before reporting its results".into(),
                })
            })
        })
        .collect()
}

/// Maps `f` over `items` on up to `jobs` worker threads.
///
/// Results are returned in input order regardless of completion
/// order. `jobs <= 1` (or a single item) runs inline on the calling
/// thread — no spawn, identical results.
///
/// # Panics
///
/// Propagates a panic from `f` (the sweep is aborted). Use
/// [`par_try_map`] to contain failures to the cell that raised them.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_try_map(items, jobs, |item| Ok(f(item)))
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        })
        .collect()
}

/// One cell of a sweep: a shared program under one configuration.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The generated workload, shared across every cell that
    /// simulates it.
    pub program: Arc<Program>,
    /// The configuration to simulate it under.
    pub config: SimConfig,
    /// The cell's [`cell_fingerprint`](crate::store::cell_fingerprint)
    /// in the sweep's result store; `None` keeps the cell out of the
    /// store (never looked up, never memoized).
    pub key: Option<u64>,
}

impl SweepCell {
    /// Creates a cell outside any result store.
    pub fn new(program: Arc<Program>, config: SimConfig) -> Self {
        SweepCell {
            program,
            config,
            key: None,
        }
    }
}

/// Per-cell cycle watchdog budget: a cell may spend at most
/// `instructions × cycles_per_instruction` cycles (with an absolute
/// `floor` so short runs aren't starved). Twenty cycles per
/// instruction is ~40× the worst IPC any working configuration
/// exhibits, so only genuinely wedged cells trip it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellBudget {
    /// Cycle allowance per requested instruction.
    pub cycles_per_instruction: u64,
    /// Minimum total allowance.
    pub floor: u64,
}

impl Default for CellBudget {
    fn default() -> Self {
        CellBudget {
            cycles_per_instruction: 20,
            floor: 1_000_000,
        }
    }
}

impl CellBudget {
    /// The absolute cycle cap for a run of `instructions`.
    pub fn max_cycles(&self, instructions: u64) -> u64 {
        instructions
            .saturating_mul(self.cycles_per_instruction)
            .max(self.floor)
    }
}

/// A per-cell completion callback: grid index and outcome.
type OnDone<'a> = &'a (dyn Fn(usize, &CellRun) + Sync);

/// How [`run_cells`] runs a sweep.
#[derive(Clone, Copy)]
pub struct RunOptions<'a> {
    /// Worker threads, already resolved (see [`effective_jobs`] and
    /// [`exact_jobs`]).
    pub jobs: usize,
    /// Per-cell cycle watchdog.
    pub budget: CellBudget,
    /// Result store: keyed cells are looked up first, and each fresh
    /// result is inserted as soon as its worker finishes.
    pub store: Option<&'a ResultCache>,
    /// Called once per cell with its grid index as it resolves —
    /// store hits first, in grid order, then fresh cells in
    /// completion order, from the worker that ran them.
    pub on_done: Option<OnDone<'a>>,
}

impl RunOptions<'_> {
    /// `jobs` workers, the default watchdog, no store, no callback.
    pub fn new(jobs: usize) -> Self {
        RunOptions {
            jobs,
            budget: CellBudget::default(),
            store: None,
            on_done: None,
        }
    }
}

/// How one cell of a [`run_cells`] sweep ended.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    /// The measured statistics, or why the cell failed.
    pub result: Result<SimStats, CellError>,
    /// Wall milliseconds the cell's worker spent simulating it (0
    /// when it came from the store).
    pub ms: f64,
    /// Served from the result store.
    pub cached: bool,
}

/// Runs every cell with `params`' warm-up/measure window and returns
/// each cell's outcome in cell order — the one sweep entry point.
///
/// Keyed cells found in `opts.store` are answered first without
/// simulating. The misses run on `opts.jobs` workers (`params.jobs`
/// is not consulted), each under panic containment
/// ([`CellError::Panic`]) and `opts.budget`'s cycle watchdog
/// ([`CellError::Timeout`]); a failing cell never affects the others.
/// Each fresh result is inserted into the store the moment it
/// finishes, so an interrupted sweep loses at most its in-flight
/// cells; a failed insert is counted in the store's
/// [`insert_failures`](crate::store::CacheStats::insert_failures) and
/// the result is still returned.
///
/// Simulations are deterministic and the store holds exact integer
/// counters, so the results are bit-identical whatever the thread
/// count and whichever cells came from the store.
pub fn run_cells(cells: &[SweepCell], params: RunParams, opts: &RunOptions<'_>) -> Vec<CellRun> {
    let notify = |i: usize, run: &CellRun| {
        if let Some(f) = opts.on_done {
            f(i, run);
        }
    };
    let stored = |cell: &SweepCell| opts.store.zip(cell.key);
    let mut runs: Vec<Option<CellRun>> = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let (store, key) = stored(cell)?;
            let run = CellRun {
                result: Ok(store.lookup(key)?),
                ms: 0.0,
                cached: true,
            };
            notify(i, &run);
            Some(run)
        })
        .collect();
    let misses: Vec<usize> = runs
        .iter()
        .enumerate()
        .filter_map(|(i, run)| run.is_none().then_some(i))
        .collect();
    let max_cycles = opts.budget.max_cycles(params.warmup + params.measure);
    let fresh = par_try_map(&misses, opts.jobs, |&i| {
        // bound: misses holds indices of cells
        let cell = &cells[i];
        let t = Instant::now();
        let result = contain_cell(|| {
            let mut sim = Simulator::new(&cell.program, cell.config.clone());
            sim.run_budgeted(params.warmup, max_cycles)?;
            sim.reset_stats();
            Ok(sim.run_budgeted(params.measure, max_cycles)?)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let (Ok(stats), Some((store, key))) = (&result, stored(cell)) {
            // A failed insert is counted by the store; the result
            // stands.
            let _ = store.insert(key, stats);
        }
        let run = CellRun {
            result,
            ms,
            cached: false,
        };
        notify(i, &run);
        Ok(run)
    });
    for (i, run) in misses.into_iter().zip(fresh) {
        // bound: misses holds indices of cells
        runs[i] = Some(run.unwrap_or_else(|error| CellRun {
            result: Err(error),
            ms: 0.0,
            cached: false,
        }));
    }
    runs.into_iter().flatten().collect()
}

/// The statistics of a sweep whose cells must all succeed.
///
/// # Panics
///
/// On the first failed cell, with its error — the experiments'
/// contract for configurations known to be valid.
pub(crate) fn expect_stats(runs: Vec<CellRun>) -> Vec<SimStats> {
    runs.into_iter()
        .map(|run| match run.result {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        })
        .collect()
}

/// Generates each benchmark's program once (itself in parallel) and
/// crosses it with every configuration: the full grid, benchmark-
/// major. `result[b][c]` is benchmark `b` under configuration `c`.
pub fn sweep_grid(
    benchmarks: &[Benchmark],
    configs: &[SimConfig],
    params: RunParams,
) -> Vec<Vec<SimStats>> {
    let jobs = effective_jobs(params.jobs);
    let programs: Vec<Arc<Program>> = par_map(benchmarks, jobs, |&b| {
        Arc::new(WorkloadBuilder::new(b).seed(params.seed).build())
    });
    let cells: Vec<SweepCell> = programs
        .iter()
        .flat_map(|p| {
            configs
                .iter()
                .map(|c| SweepCell::new(Arc::clone(p), c.clone()))
        })
        .collect();
    let stats = expect_stats(run_cells(
        &cells,
        params,
        &RunOptions::new(effective_jobs(params.jobs)),
    ));
    stats
        .chunks(configs.len().max(1))
        .map(<[SimStats]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..40).collect();
        // Skew per-item cost so completion order differs from input
        // order.
        let f = |&x: &u64| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * x
        };
        let serial = par_map(&items, 1, f);
        let parallel = par_map(&items, 4, f);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[13], 169);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[5u32], 8, |&x| x + 1), vec![6]);
    }

    #[test]
    fn effective_jobs_zero_is_auto() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(0), available_cores());
    }

    #[test]
    fn effective_jobs_clamps_to_cores_but_exact_does_not() {
        let cores = available_cores();
        // An explicit request never exceeds the machine...
        assert_eq!(effective_jobs(3), 3.min(cores));
        assert_eq!(effective_jobs(u64::MAX), cores);
        assert_eq!(effective_jobs(1), 1);
        // ...unless the caller opts into oversubscription.
        assert_eq!(exact_jobs(cores as u64 * 4), cores * 4);
        assert_eq!(exact_jobs(0), cores);
    }

    #[test]
    fn grid_shape_is_benchmark_major() {
        let params = RunParams {
            warmup: 2_000,
            measure: 4_000,
            ..RunParams::quick()
        };
        let configs = [SimConfig::baseline(64), SimConfig::with_precon(64, 32)];
        let grid = sweep_grid(&[Benchmark::Compress, Benchmark::Li], &configs, params);
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(|per_bench| per_bench.len() == 2));
        assert!(grid[0][0].retired_instructions >= 4_000);
    }

    #[test]
    fn cells_share_one_program_per_benchmark() {
        let program = Arc::new(WorkloadBuilder::new(Benchmark::Compress).seed(1).build());
        let cells = [
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(64)),
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(128)),
        ];
        assert!(Arc::ptr_eq(&cells[0].program, &cells[1].program));
    }

    #[test]
    fn par_try_map_contains_panics_to_the_failing_item() {
        let items: Vec<u64> = (0..12).collect();
        for jobs in [1, 4] {
            let results = par_try_map(&items, jobs, |&x| {
                if x == 5 {
                    panic!("boom at {x}");
                }
                Ok(x * 2)
            });
            assert_eq!(results.len(), 12);
            for (i, r) in results.iter().enumerate() {
                if i == 5 {
                    assert_eq!(
                        *r,
                        Err(CellError::Panic {
                            message: "boom at 5".into()
                        })
                    );
                } else {
                    assert_eq!(*r, Ok(i as u64 * 2));
                }
            }
        }
    }

    fn small_params(jobs: u64) -> RunParams {
        RunParams {
            warmup: 2_000,
            measure: 4_000,
            jobs,
            ..RunParams::quick()
        }
    }

    fn stats_of(runs: &[CellRun]) -> Vec<SimStats> {
        runs.iter()
            .map(|r| r.result.clone().expect("cell succeeds"))
            .collect()
    }

    #[test]
    fn panicking_cell_reports_error_and_spares_the_rest() {
        // SimConfig::baseline(63): the trace cache asserts its
        // geometry (63 entries don't divide into ways), so this cell
        // panics inside the worker. The acceptance bar: the sweep
        // completes, that cell reports CellError::Panic, every other
        // cell's result is correct.
        let program = Arc::new(WorkloadBuilder::new(Benchmark::Compress).seed(1).build());
        let cells = [
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(64)),
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(63)),
            SweepCell::new(Arc::clone(&program), SimConfig::with_precon(64, 32)),
        ];
        let params = small_params(2);
        let runs = run_cells(&cells, params, &RunOptions::new(2));
        assert!(runs[0].result.is_ok());
        match &runs[1].result {
            Err(e @ CellError::Panic { message }) => {
                assert!(message.contains("entries"), "message: {message}");
                assert_eq!(e.kind(), "panic");
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
        assert!(runs[2].result.is_ok());
        // The surviving cells match a sweep without the failing one.
        let clean = run_cells(&cells[..1], params, &RunOptions::new(1));
        assert_eq!(runs[0].result, clean[0].result);
    }

    #[test]
    fn wedged_cell_trips_the_watchdog() {
        let program = Arc::new(WorkloadBuilder::new(Benchmark::Gcc).seed(1).build());
        let cells = [
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(64)),
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(128)),
        ];
        let params = RunParams {
            warmup: 10_000,
            measure: 100_000,
            jobs: 2,
            ..RunParams::quick()
        };
        // A budget far below any real configuration's need: both
        // cells must time out, structurally, without hanging.
        let starved = RunOptions {
            budget: CellBudget {
                cycles_per_instruction: 0,
                floor: 50,
            },
            ..RunOptions::new(2)
        };
        for run in run_cells(&cells, params, &starved) {
            match run.result {
                Err(e @ CellError::Timeout { cycles, retired }) => {
                    assert!(cycles >= 50);
                    assert!(retired < 110_000);
                    assert_eq!(e.kind(), "timeout");
                }
                other => panic!("expected timeout, got {other:?}"),
            }
        }
        // And the default budget completes.
        let fine = run_cells(&cells, params, &RunOptions::new(2));
        assert!(fine.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn run_cells_matches_a_direct_run() {
        let program = Arc::new(WorkloadBuilder::new(Benchmark::Li).seed(1).build());
        let configs = [SimConfig::baseline(64), SimConfig::with_precon(64, 64)];
        let cells: Vec<SweepCell> = configs
            .iter()
            .map(|c| SweepCell::new(Arc::clone(&program), c.clone()))
            .collect();
        let params = small_params(0);
        let runs = run_cells(&cells, params, &RunOptions::new(2));
        for (run, config) in runs.iter().zip(&configs) {
            let mut sim = Simulator::new(&program, config.clone());
            let direct = sim.run_with_warmup(params.warmup, params.measure);
            assert_eq!(run.result.as_ref(), Ok(&direct), "watchdog changes nothing");
            assert!(!run.cached);
        }
    }

    #[test]
    fn store_answers_hits_first_and_memoizes_misses() {
        let program = Arc::new(WorkloadBuilder::new(Benchmark::Compress).seed(1).build());
        let params = small_params(0);
        let keyed = |config: SimConfig| SweepCell {
            key: Some(crate::store::cell_fingerprint("compress", &config, &params)),
            ..SweepCell::new(Arc::clone(&program), config)
        };
        let cells = [
            keyed(SimConfig::baseline(64)),
            keyed(SimConfig::with_precon(64, 32)),
            SweepCell::new(Arc::clone(&program), SimConfig::baseline(128)),
        ];
        let store = ResultCache::in_memory();
        let seen = std::sync::Mutex::new(Vec::new());
        let record = |i: usize, run: &CellRun| seen.lock().unwrap().push((i, run.cached));
        let opts = RunOptions {
            store: Some(&store),
            on_done: Some(&record),
            ..RunOptions::new(2)
        };
        // Only the second cell is memoized up front.
        let reference = stats_of(&run_cells(&cells, params, &RunOptions::new(1)));
        store.insert(cells[1].key.unwrap(), &reference[1]).unwrap();
        let runs = run_cells(&cells, params, &opts);
        assert_eq!(
            stats_of(&runs),
            reference,
            "bit-identical with or without the store"
        );
        let cached: Vec<bool> = runs.iter().map(|r| r.cached).collect();
        assert_eq!(cached, [false, true, false]);
        let seen = std::mem::take(&mut *seen.lock().unwrap());
        assert_eq!(seen.len(), 3, "one callback per cell");
        assert_eq!(seen[0], (1, true), "the store hit is answered first");
        // The keyed miss was memoized; the unkeyed cell was not.
        assert_eq!(store.stats().entries, 2);
        let again = run_cells(&cells, params, &opts);
        let cached: Vec<bool> = again.iter().map(|r| r.cached).collect();
        assert_eq!(cached, [true, true, false]);
        assert_eq!(stats_of(&again), reference);
    }
}
