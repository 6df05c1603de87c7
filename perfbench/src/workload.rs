//! The three workloads' measurement loops and the traced run.

use crate::cells::{
    build_inputs, program_seed, round_order, run_cell, CellRun, Config, Input, Window,
};
use crate::gate::Gate;
use crate::host::HostSpeed;
use crate::replay::{replay, Replay};
use crate::report::{geomean, median, peak_rss_mib, quantile, Metrics};
use crate::service::{Daemon, ScratchDir, Sweep};
use crate::spans::Tracer;
use crate::{Args, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;
use tpc_processor::{SimStats, Simulator};
use tpc_service::{CacheStats, CellSpec, ResultCache, SweepRequest};
use tpc_workloads::Benchmark;

/// Set-ups timed per run, each in its own process (the median is
/// reported).
const SETUP_REPS: usize = 15;
/// Of those, the set-up processes that then simulate and report their
/// peak resident set.
const RSS_REPS: usize = 3;
/// Memoized grid lookups timed per sim run, at least: enough that the
/// printed 99th percentile has twenty samples beyond it.
const MEMO_SWEEPS: usize = 2_000;
/// Cached grid resubmissions per daemon in the service workload.
const WARM_SWEEPS_PER_DAEMON: usize = 300;
/// Cached grid resubmissions between two host-speed slices (a slice
/// evicts the daemon's and client's cached state, so slicing after
/// every resubmission would make each one start cold).
const WARM_PER_SLICE: usize = 3;
/// Cached grid resubmissions per daemon checked but not timed: the
/// first few after the cold sweeps run up to twice as long while the
/// daemon and client settle.
const WARM_UNTIMED: usize = 10;
/// Daemon restarts over the populated cache per session: the first
/// is checked with a full resubmission, the rest only pinged.
const RESTARTS_PER_SESSION: usize = 5;
/// Cached grid resubmissions in the traced service session.
const TRACED_WARM_SWEEPS: usize = 5;

/// One row per input: its result under each configuration.
type Grid<T> = Vec<[Option<T>; 4]>;

fn empty_grid<T>(rows: usize) -> Grid<T> {
    (0..rows).map(|_| [None, None, None, None]).collect()
}

/// Everything a run produced besides the metrics.
#[derive(Debug, Default)]
pub struct Run {
    /// Metric values.
    pub metrics: Metrics,
    /// The correctness gate.
    pub gate: Gate,
    /// Lines printed before the result.
    pub notes: Vec<String>,
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    if args.trace {
        traced(args, &mut run);
    } else if args.workload == Workload::ServiceSweep {
        measure_service(args, &mut run);
    } else {
        measure_sim(args, &mut run);
    }
    run
}

fn cell_name(input: &Input, config: Config) -> String {
    format!("{}#{}:{}", input.benchmark, input.seed, config.name())
}

fn cell_id(input: usize, config: Config) -> u32 {
    u32::try_from(input * 4 + config.index()).unwrap_or(u32::MAX)
}

/// `speedup.*` (geometric mean over the grid's programs of IPC over
/// `baseline_256`) and `tc_miss_pki.precon` (per benchmark, the median
/// over its programs, then the mean over benchmarks: a few generated
/// programs of a small-footprint benchmark miss several times more
/// often than the rest, and a plain mean would follow them).
fn exact_metrics(inputs: &[Input], results: &Grid<SimStats>, m: &mut Metrics) {
    for config in [Config::Precon, Config::Combined] {
        let ratios: Vec<f64> = results
            .iter()
            .filter_map(|row| {
                let base = row[Config::Baseline.index()].as_ref()?;
                Some(row[config.index()].as_ref()?.ipc() / base.ipc())
            })
            .collect();
        m.set(format!("speedup.{}", config.name()), geomean(&ratios));
    }
    let mut per_benchmark: BTreeMap<Benchmark, Vec<f64>> = BTreeMap::new();
    for (input, row) in inputs.iter().zip(results) {
        if let Some(stats) = &row[Config::Precon.index()] {
            per_benchmark
                .entry(input.benchmark)
                .or_default()
                .push(stats.tc_misses_per_kilo());
        }
    }
    let medians: Vec<f64> = per_benchmark.values().map(|v| median(v)).collect();
    m.set(
        "tc_miss_pki.precon",
        medians.iter().sum::<f64>() / medians.len() as f64,
    );
}

/// Million simulated instructions per host second.
fn mips(instructions: u64, ns: f64) -> f64 {
    instructions as f64 * 1e3 / ns
}

/// The set-up child's work: one set-up (program generation plus every
/// cell's `Simulator::new`) timed as the process's first work, then,
/// if `simulate`, the first input simulated under every configuration,
/// untimed. Returns `setup <seconds> <VmHWM MiB> <host speed>`, the
/// speed from two host-speed slices run just before the set-up and two
/// just after it: the child may run on another core than the
/// benchmark, so it measures the host itself.
///
/// Each sample runs in a fresh process, so it is a set-up as a user's
/// process runs it, from an empty heap; and the peak resident set then
/// holds only the programs and the simulators, not the benchmark's own
/// state. The allocator policy `run.py` sets keeps the samples in one
/// mode: under glibc's moving thresholds the same set-up took 0.04 s in
/// some processes and 0.2-0.3 s in others.
///
/// # Errors
///
/// The first invariant violation of the simulated cells.
pub fn setup_child(args: &Args, simulate: bool) -> Result<String, String> {
    let mut off = Tracer::new(false);
    let mut speed = HostSpeed::new(1);
    speed.slice();
    let start = Instant::now();
    let inputs = build_inputs(
        &args.workload.benchmarks(),
        args.instances,
        args.seed,
        &mut off,
    );
    for input in &inputs {
        for config in Config::ALL {
            black_box(Simulator::new(
                &input.program,
                config.spec().to_sim_config(),
            ));
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    speed.slice();
    speed.slice();
    if let Some(first) = inputs.first().filter(|_| simulate) {
        for config in Config::ALL {
            run_cell(&first.program, config, args.window, &mut off, 0)?;
        }
    }
    let rss = peak_rss_mib(None).ok_or("no VmHWM in /proc/self/status")?;
    Ok(format!("setup {seconds:?} {rss:?} {:?}", speed.median()))
}

/// Runs one set-up child and parses its line: (seconds, MiB, host
/// speed).
fn setup_in_child(args: &Args, simulate: bool) -> Result<(f64, f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up child: {e}"))?;
    let number = |n: u64| n.to_string();
    let output = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--trace", "0"])
        .args(["--seed", &number(args.seed), "--seconds", "0"])
        .args(["--warmup", &number(args.window.warmup)])
        .args(["--measure", &number(args.window.measure)])
        .args(["--instances", &number(args.instances)])
        .args(["--setup-child", if simulate { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup "))
        .and_then(|rest| {
            let mut fields = rest.split(' ').map(str::parse::<f64>);
            Some((
                fields.next()?.ok()?,
                fields.next()?.ok()?,
                fields.next()?.ok()?,
            ))
        });
    match parsed {
        Some(sample) if output.status.success() => Ok(sample),
        _ => Err(format!(
            "set-up child failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

/// Times `SETUP_REPS` set-ups, each in a fresh child process (see
/// [`setup_child`]), and sets `setup_s` (each sample scaled by the
/// host speed its child measured) and `peak_rss_mib` (over the first
/// `RSS_REPS`, which simulate) from their medians; returns the inputs
/// for the parent's own cells.
fn timed_setup(args: &Args, m: &mut Metrics, gate: &mut Gate) -> Vec<Input> {
    let (mut seconds, mut rss) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        let simulate = rep < RSS_REPS;
        gate.check(setup_in_child(args, simulate).map(|(s, mib, speed)| {
            seconds.push(s * speed);
            if simulate {
                rss.push(mib);
            }
        }));
    }
    m.set("setup_s", median(&seconds));
    m.set("peak_rss_mib", median(&rss));
    build_inputs(
        &args.workload.benchmarks(),
        args.instances,
        args.seed,
        &mut Tracer::new(false),
    )
}

/// The grid memoized in the service's `ResultCache` under each cell's
/// service fingerprint.
struct Memo<'a> {
    cache: ResultCache,
    inputs: &'a [Input],
    expected: Grid<SimStats>,
    window: Window,
}

impl<'a> Memo<'a> {
    fn new(
        inputs: &'a [Input],
        expected: Grid<SimStats>,
        window: Window,
        gate: &mut Gate,
    ) -> Memo<'a> {
        let memo = Memo {
            cache: ResultCache::in_memory(),
            inputs,
            expected,
            window,
        };
        for (input, row) in inputs.iter().zip(&memo.expected) {
            for config in Config::ALL {
                if let Some(stats) = &row[config.index()] {
                    let inserted = memo.cache.insert(memo.fingerprint(input, config), stats);
                    gate.check(inserted.map_err(|e| e.to_string()));
                }
            }
        }
        memo
    }

    fn fingerprint(&self, input: &Input, config: Config) -> u64 {
        input
            .cell(config)
            .fingerprint(self.window.warmup, self.window.measure, input.seed)
    }

    /// Looks every cell up once, checking each against its simulated
    /// result; returns the milliseconds taken.
    fn sweep(&self, gate: &mut Gate) -> f64 {
        let start = Instant::now();
        let mut same = true;
        for (input, row) in self.inputs.iter().zip(&self.expected) {
            for config in Config::ALL {
                same &= self.cache.lookup(self.fingerprint(input, config)).as_ref()
                    == row[config.index()].as_ref();
            }
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        gate.expect(same, || {
            "memoized grid differs from the simulated one".to_string()
        });
        ms
    }
}

/// The sim workloads: whole rounds of the grid, each cell on this one
/// thread, until `--seconds` have passed. From the second round on,
/// the grid is also memoized with the service's `ResultCache` and
/// looked up again after every cell, so the lookups sample the same
/// stretch of host time as the cells. Every time is scaled by the host
/// speed around when it was taken (see [`crate::host`]); each cell's
/// median scaled time over the rounds enters the metrics.
fn measure_sim(args: &Args, run: &mut Run) {
    let Run {
        metrics: m,
        gate,
        notes,
    } = run;
    let mut speed = HostSpeed::new(1);
    let inputs = timed_setup(args, m, gate);
    let mut off = Tracer::new(false);
    let mut cold: Grid<SimStats> = empty_grid(inputs.len());
    let mut cell_ns: Grid<Vec<(f64, usize)>> = empty_grid(inputs.len());
    let per_cell = MEMO_SWEEPS.div_ceil(3 * inputs.len() * Config::ALL.len());
    let mut memo: Option<Memo> = None;
    let mut warm_ms = Vec::new();
    let (mut rounds, mut literal_fails) = (0, 0);
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        for (i, config) in round_order(inputs.len(), rounds) {
            let input = &inputs[i];
            let cell = run_cell(
                &input.program,
                config,
                args.window,
                &mut off,
                cell_id(i, config),
            );
            speed.tick();
            match cell {
                Ok(cell) => {
                    gate.same_as_before(&cell_name(input, config), &cell.raw);
                    literal_fails += u64::from(cell.literal_check_fails);
                    cell_ns[i][config.index()]
                        .get_or_insert_with(Vec::new)
                        .push((cell.total_ns as f64, speed.latest()));
                    cold[i][config.index()].get_or_insert(cell.raw);
                }
                Err(e) => gate.check(Err(e)),
            }
            if let Some(memo) = &memo {
                for _ in 0..per_cell {
                    warm_ms.push((memo.sweep(gate), speed.latest()));
                }
            }
        }
        rounds += 1;
        if memo.is_none() {
            memo = Some(Memo::new(&inputs, cold.clone(), args.window, gate));
        }
    }
    if let Some(memo) = &memo {
        while warm_ms.len() < MEMO_SWEEPS {
            warm_ms.push((memo.sweep(gate), speed.latest()));
            speed.tick();
        }
    }

    let mut unscaled = Vec::new();
    let (mut pass_ns, mut raw_pass_ns) = (0.0, 0.0);
    for config in Config::ALL {
        let c = config.index();
        let times = || cell_ns.iter().filter_map(|row| row[c].as_deref());
        let ns: f64 = times().map(|t| median(&speed.scale(t))).sum();
        let raw_ns: f64 = times().map(|t| median(&raw(t))).sum();
        let simulated: u64 = cold
            .iter()
            .filter_map(|row| row[c].as_ref())
            .map(|s| args.window.warmup + s.retired_instructions)
            .sum();
        pass_ns += ns;
        raw_pass_ns += raw_ns;
        let name = format!("sim_mips.{}", config.name());
        unscaled.push(format!("{name}={:.6}", mips(simulated, raw_ns)));
        m.set(name, mips(simulated, ns));
    }
    m.set("cold_sweep_s", pass_ns * 1e-9);
    unscaled.push(format!("cold_sweep_s={:.6}", raw_pass_ns * 1e-9));
    exact_metrics(&inputs, &cold, m);
    let warm_ms = speed.scale(&warm_ms);
    m.set("warm_sweep_ms.p50", median(&warm_ms));
    m.set("warm_sweep_ms.p90", quantile(&warm_ms, 0.9));
    notes.push(tail_note(&warm_ms));
    notes.push(format!(
        "samples rounds={rounds} cells_per_round={} memo_sweeps={} setup_processes={SETUP_REPS}",
        inputs.len() * 4,
        warm_ms.len()
    ));
    notes.push(host_note(&speed, &unscaled));
    notes.push(literal_check_note(
        literal_fails,
        rounds as u64 * inputs.len() as u64 * 4,
    ));
}

/// The host times of `(time, slice)` pairs, unscaled.
fn raw(times: &[(f64, usize)]) -> Vec<f64> {
    times.iter().map(|&(time, _)| time).collect()
}

/// The host speed the run saw, and figures before scaling by it.
fn host_note(speed: &HostSpeed, unscaled: &[String]) -> String {
    let s = speed.samples();
    format!(
        "host speed vs nominal: median {:.3} over {} slices (p10 {:.3}, p90 {:.3}); every time \
         is scaled by the median of the slices around it; unscaled: {}",
        speed.median(),
        s.len(),
        quantile(s, 0.1),
        quantile(s, 0.9),
        unscaled.join(" ")
    )
}

/// The warm-sweep sample count and 99th percentile. The percentile is
/// printed, not reported as a metric: across repeated runs on the
/// 2-vCPU VM its spread was 0.2–0.4 of its median, set by host stalls
/// of a few milliseconds, while the 90th percentile's stayed under 0.1.
fn tail_note(warm_ms: &[f64]) -> String {
    format!(
        "warm sweeps: {} samples, p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms (host-speed scaled)",
        warm_ms.len(),
        median(warm_ms),
        quantile(warm_ms, 0.9),
        quantile(warm_ms, 0.99)
    )
}

/// Reports how often `Simulator::check_invariants`, called as is after
/// the measure run, flags the in-flight traces `reset_stats` leaves
/// behind (see `cells::check_after_reset`).
fn literal_check_note(fails: u64, cells: u64) -> String {
    format!(
        "check_invariants after reset_stats: {fails} of {cells} cells report retired > fetched \
         (traces in flight at the reset retire in the window); the laws are checked over \
         warm-up plus window instead"
    )
}

/// Daemon worker threads: one per core.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The service requests: one per program instance (a request carries
/// one seed), each over every benchmark and configuration, so their
/// concatenated results line up with `build_inputs`.
fn requests(args: &Args, instances: u64) -> Vec<SweepRequest> {
    let cells: Vec<CellSpec> = args
        .workload
        .benchmarks()
        .into_iter()
        .flat_map(|b| Config::ALL.map(|c| CellSpec::new(b, c.spec())))
        .collect();
    (0..instances)
        .map(|instance| {
            let seed = program_seed(args.seed, instance);
            SweepRequest::new(args.window.warmup, args.window.measure, seed, cells.clone())
        })
        .collect()
}

/// What one daemon session measured (unscaled host times).
#[derive(Debug)]
struct Session {
    spawn_s: f64,
    /// The cold sweep of each request.
    cold: Vec<Sweep>,
    /// The host-speed slice right after the cold sweeps.
    cold_slice: usize,
    /// Cached grid resubmissions: (milliseconds, host-speed slice).
    warm_ms: Vec<(f64, usize)>,
    peak_rss_mib: f64,
    cache: CacheStats,
    /// Restarts over the populated cache: (seconds, host-speed slice).
    restart_s: Vec<(f64, usize)>,
}

/// One daemon life cycle over a fresh cache: spawn, every request
/// cold, `WARM_UNTIMED` and then `warm_sweeps` timed cached
/// resubmissions of the whole grid (every request once),
/// `cache_stats`, shutdown; then a restart over the
/// populated cache, every request once more, shutdown; then
/// `RESTARTS_PER_SESSION - 1` more restarts, each pinged and shut
/// down. A host-speed slice runs between the timed operations.
fn session(
    args: &Args,
    dir: &Path,
    reqs: &[SweepRequest],
    warm_sweeps: usize,
    speed: &mut HostSpeed,
    tracer: &mut Tracer,
    gate: &mut Gate,
) -> io::Result<Session> {
    speed.slice();
    let (mut daemon, spawn_s) = Daemon::spawn(&args.daemon, dir, workers(), tracer)?;
    speed.slice();
    let mut cold = Vec::with_capacity(reqs.len());
    for req in reqs {
        let sweep = daemon.sweep(req, tracer)?;
        speed.slice();
        let n = req.cells.len();
        gate.expect(sweep.digest_matches(), || {
            "cold sweep: daemon digest != local digest".into()
        });
        gate.expect(
            sweep.failed_cells == 0 && sweep.report.ok_count() == n,
            || {
                format!(
                    "cold sweep: {} of {n} cells completed",
                    sweep.report.ok_count()
                )
            },
        );
        gate.expect(sweep.report.cached_count() == 0, || {
            "cold sweep served cached cells".into()
        });
        cold.push(sweep);
    }
    let cold_slice = speed.latest();
    let same_as_cold = |sweep: &Sweep, cold: &Sweep| {
        sweep.digest_matches()
            && sweep.report.cached_count() == sweep.report.stats.len()
            && sweep.report.stats == cold.report.stats
    };
    let mut warm_ms = Vec::with_capacity(warm_sweeps);
    for sweep in 0..WARM_UNTIMED + warm_sweeps {
        let mut ms = 0.0;
        for (req, cold) in reqs.iter().zip(&cold) {
            let warm = daemon.sweep(req, tracer)?;
            ms += warm.seconds * 1e3;
            gate.expect(same_as_cold(&warm, cold), || {
                "cached sweep differs from the cold one".into()
            });
        }
        if sweep % WARM_PER_SLICE == 0 {
            speed.slice();
        }
        if sweep >= WARM_UNTIMED {
            warm_ms.push((ms, speed.latest()));
        }
    }
    let cache = daemon.cache_stats(tracer)?;
    let peak = daemon.peak_rss_mib().unwrap_or(f64::NAN);
    daemon.shutdown(tracer)?;

    let (mut daemon, seconds) = Daemon::spawn(&args.daemon, dir, workers(), tracer)?;
    speed.slice();
    let mut restart_s = vec![(seconds, speed.latest())];
    for (req, cold) in reqs.iter().zip(&cold) {
        let after = daemon.sweep(req, tracer)?;
        gate.expect(same_as_cold(&after, cold), || {
            "sweep after restart differs from the cold one".into()
        });
    }
    let reloaded = daemon.cache_stats(tracer)?;
    let cells: usize = reqs.iter().map(|r| r.cells.len()).sum();
    gate.expect(
        reloaded.entries as usize == cells && reloaded.insert_failures == 0,
        || {
            format!(
                "restarted cache holds {} of {cells} cells",
                reloaded.entries
            )
        },
    );
    daemon.shutdown(tracer)?;
    for _ in 1..RESTARTS_PER_SESSION {
        let (daemon, seconds) = Daemon::spawn(&args.daemon, dir, workers(), tracer)?;
        speed.slice();
        restart_s.push((seconds, speed.latest()));
        daemon.shutdown(tracer)?;
    }
    Ok(Session {
        spawn_s,
        cold,
        cold_slice,
        warm_ms,
        peak_rss_mib: peak,
        cache,
        restart_s,
    })
}

/// Checks one cell per configuration of the service's results against
/// a direct `Simulator` run of the same cell.
fn check_against_direct(args: &Args, inputs: &[Input], results: &Grid<SimStats>, gate: &mut Gate) {
    let mut off = Tracer::new(false);
    for config in Config::ALL {
        let i = (args.seed as usize + config.index()) % inputs.len();
        let direct = run_cell(
            &inputs[i].program,
            config,
            args.window,
            &mut off,
            cell_id(i, config),
        );
        let outcome = match (direct, &results[i][config.index()]) {
            (Ok(direct), Some(served)) if direct.raw == *served => Ok(()),
            (Ok(_), _) => Err(format!(
                "service result for {} differs from a direct run",
                cell_name(&inputs[i], config)
            )),
            (Err(e), _) => Err(e),
        };
        gate.check(outcome);
    }
}

/// The cold results of a session as a grid in `build_inputs` order.
fn session_grid(cold: &[Sweep]) -> Grid<SimStats> {
    cold.iter()
        .flat_map(|sweep| sweep.report.stats.chunks(4))
        .map(|row| std::array::from_fn(|c| row.get(c).cloned().flatten()))
        .collect()
}

/// The service workload: repeated daemon sessions until `--seconds`
/// have passed. Every time is scaled by the host speed around when it
/// was taken (see [`crate::host`]); each cell's median daemon-reported
/// time over the sessions enters `sim_mips.*`.
fn measure_service(args: &Args, run: &mut Run) {
    let Run {
        metrics: m,
        gate,
        notes,
    } = run;
    let mut off = Tracer::new(false);
    let inputs = build_inputs(
        &args.workload.benchmarks(),
        args.instances,
        args.seed,
        &mut off,
    );
    let reqs = requests(args, args.instances);
    let mut speed = HostSpeed::new(workers());
    let (mut cold_s, mut warm_ms, mut restart_s, mut rss) = (vec![], vec![], vec![], vec![]);
    let mut cell_ms: Grid<Vec<(f64, usize)>> = empty_grid(inputs.len());
    let mut results: Option<Grid<SimStats>> = None;
    let start = Instant::now();
    for rep in 0.. {
        let dir = ScratchDir::new(
            &args.out.join("tmp"),
            &format!("{}-{rep}", std::process::id()),
        );
        let outcome = dir.and_then(|dir| {
            session(
                args,
                dir.path(),
                &reqs,
                WARM_SWEEPS_PER_DAEMON,
                &mut speed,
                &mut off,
                gate,
            )
        });
        let s = match outcome {
            Ok(s) => s,
            Err(e) => {
                gate.check(Err(format!("service session {rep}: {e}")));
                break;
            }
        };
        let cold_sum = s.cold.iter().map(|sweep| sweep.seconds).sum::<f64>();
        cold_s.push((cold_sum, s.cold_slice));
        warm_ms.push(s.warm_ms);
        restart_s.extend(s.restart_s);
        rss.push(s.peak_rss_mib);
        let ms = s.cold.iter().flat_map(|sweep| sweep.cell_ms.chunks(4));
        let grid = session_grid(&s.cold);
        for ((input, row), (times, row_ms)) in
            inputs.iter().zip(&grid).zip(cell_ms.iter_mut().zip(ms))
        {
            for config in Config::ALL {
                let c = config.index();
                if let (Some(stats), Some(&ms)) = (&row[c], row_ms.get(c)) {
                    gate.same_as_before(&format!("service:{}", cell_name(input, config)), stats);
                    times[c]
                        .get_or_insert_with(Vec::new)
                        .push((ms, s.cold_slice));
                }
            }
        }
        results.get_or_insert(grid);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let results = results.unwrap_or_else(|| empty_grid(inputs.len()));
    check_against_direct(args, &inputs, &results, gate);
    let mut unscaled = Vec::new();
    for config in Config::ALL {
        let c = config.index();
        let simulated: u64 = results
            .iter()
            .filter_map(|row| row[c].as_ref())
            .map(|s| args.window.warmup + s.retired_instructions)
            .sum();
        let times = || cell_ms.iter().filter_map(|row| row[c].as_deref());
        let ms: f64 = times().map(|t| median(&speed.scale(t))).sum();
        let raw_ms: f64 = times().map(|t| median(&raw(t))).sum();
        let name = format!("sim_mips.{}", config.name());
        unscaled.push(format!("{name}={:.6}", mips(simulated, raw_ms * 1e6)));
        m.set(name, mips(simulated, ms * 1e6));
    }
    exact_metrics(&inputs, &results, m);
    m.set("cold_sweep_s", median(&speed.scale(&cold_s)));
    unscaled.push(format!("cold_sweep_s={:.6}", median(&raw(&cold_s))));
    // Per-session percentiles, then their median over the sessions: a
    // host stall of a few seconds then moves one session, not the run.
    let warm_ms: Vec<Vec<f64>> = warm_ms.iter().map(|w| speed.scale(w)).collect();
    let per_session = |q: f64| warm_ms.iter().map(|w| quantile(w, q)).collect::<Vec<_>>();
    m.set("warm_sweep_ms.p50", median(&per_session(0.5)));
    m.set("warm_sweep_ms.p90", median(&per_session(0.9)));
    let warm_ms = warm_ms.concat();
    notes.push(tail_note(&warm_ms));
    m.set("setup_s", median(&speed.scale(&restart_s)));
    m.set("peak_rss_mib", median(&rss));
    notes.push(format!(
        "samples daemon_sessions={} cold_sweeps={} warm_sweeps={} restarts={} cells_per_sweep={}",
        cold_s.len(),
        cold_s.len() * reqs.len(),
        warm_ms.len(),
        restart_s.len(),
        reqs.first().map_or(0, |r| r.cells.len())
    ));
    notes.push(host_note(&speed, &unscaled));
}

/// One pass over the whole grid that runs every cell twice, once with
/// `tracer` recording and once without, alternating which goes first.
/// Returns the traced cells and the summed host nanoseconds of the
/// traced and the untraced runs.
fn paired_pass(
    inputs: &[Input],
    window: Window,
    tracer: &mut Tracer,
    gate: &mut Gate,
) -> (Grid<CellRun>, u64, u64) {
    let mut runs = empty_grid(inputs.len());
    let (mut traced_ns, mut untraced_ns) = (0, 0);
    for (k, (i, config)) in round_order(inputs.len(), 0).into_iter().enumerate() {
        let id = cell_id(i, config);
        for traced in [k % 2 == 0, k % 2 != 0] {
            tracer.set_enabled(traced);
            match run_cell(&inputs[i].program, config, window, tracer, id) {
                Ok(cell) => {
                    gate.same_as_before(&cell_name(&inputs[i], config), &cell.raw);
                    if traced {
                        traced_ns += cell.total_ns;
                        runs[i][config.index()] = Some(cell);
                    } else {
                        untraced_ns += cell.total_ns;
                    }
                }
                Err(e) => gate.check(Err(e)),
            }
        }
    }
    tracer.set_enabled(true);
    (runs, traced_ns, untraced_ns)
}

/// Sums `f` over the cells of `configs`.
fn sum(runs: &Grid<CellRun>, configs: &[Config], f: impl Fn(&CellRun) -> u64) -> u64 {
    runs.iter()
        .flat_map(|row| configs.iter().filter_map(|c| row[c.index()].as_ref()))
        .map(f)
        .sum()
}

/// Counters from the cells' window-scoped statistics.
fn counter_metrics(runs: &Grid<CellRun>, m: &mut Metrics) {
    let all = &Config::ALL;
    let engines = &[Config::Precon, Config::Combined, Config::Unified];
    let mut set = |name: &str, value: u64| m.set(name, value as f64);
    set("store.fetches", sum(runs, all, |r| r.window.store.fetches));
    set("store.tc_hits", sum(runs, all, |r| r.window.store.tc_hits));
    set(
        "store.precon_hits",
        sum(runs, all, |r| r.window.store.precon_hits),
    );
    set("store.misses", sum(runs, all, |r| r.window.store.misses));
    set(
        "store.precon_fills",
        sum(runs, all, |r| r.window.store.precon_fills),
    );
    set(
        "store.precon_rejected",
        sum(runs, all, |r| r.window.store.precon_rejected),
    );
    set(
        "engine.traces_built",
        sum(runs, engines, |r| r.window.engine.traces_built),
    );
    set(
        "engine.traces_already_cached",
        sum(runs, engines, |r| r.window.engine.traces_already_cached),
    );
    set(
        "engine.lines_fetched",
        sum(runs, engines, |r| r.window.engine.lines_fetched),
    );
    set(
        "engine.regions_started",
        sum(runs, engines, |r| r.window.engine.regions_started),
    );
    set(
        "engine.regions_completed",
        sum(runs, engines, |r| r.window.engine.regions_completed),
    );
    set(
        "engine.regions_caught_up",
        sum(runs, engines, |r| r.window.engine.regions_caught_up),
    );
    set(
        "engine.regions_fetch_bound",
        sum(runs, engines, |r| r.window.engine.regions_fetch_bound),
    );
    set(
        "engine.regions_buffer_bound",
        sum(runs, engines, |r| r.window.engine.regions_buffer_bound),
    );
    set(
        "icache.demand_accesses",
        sum(runs, all, |r| r.window.icache.demand_accesses),
    );
    set(
        "icache.demand_misses",
        sum(runs, all, |r| r.window.icache.demand_misses),
    );
    set(
        "icache.precon_accesses",
        sum(runs, all, |r| r.window.icache.precon_accesses),
    );
    set(
        "icache.precon_misses",
        sum(runs, all, |r| r.window.icache.precon_misses),
    );
    set("dcache.misses", sum(runs, all, |r| r.window.dcache.misses));
    set(
        "frontend.dispatched",
        sum(runs, all, |r| r.window.frontend.dispatched),
    );
    set(
        "frontend.slow_build",
        sum(runs, all, |r| r.window.frontend.slow_build),
    );
    set(
        "frontend.mispredict_stall",
        sum(runs, all, |r| r.window.frontend.mispredict_stall),
    );
    set(
        "frontend.backpressure",
        sum(runs, all, |r| r.window.frontend.backpressure),
    );
    set(
        "ntp.mispredicts",
        sum(runs, &[Config::Baseline], |r| r.window.ntp_mispredicts),
    );
    set("cells.measured", sum(runs, all, |_| 1));
    set(
        "instructions.measured",
        sum(runs, all, |r| r.window.retired_instructions),
    );
    set("preprocess.calls", preprocess_calls(runs));
    for config in Config::ALL {
        let cycles = sum(runs, &[config], |r| r.window.cycles);
        let ns = sum(runs, &[config], |r| r.measure_ns);
        m.set(format!("sim.cycles.{}", config.name()), cycles as f64);
        m.set(
            format!("sim.ns_per_cycle.{}", config.name()),
            ns as f64 / cycles as f64,
        );
    }
    let built = sum(runs, engines, |r| r.window.engine.traces_built);
    let used = sum(runs, engines, |r| r.window.precon_buffer_hits);
    m.set("engine.useful_ratio", used as f64 / built as f64);
    let fetches = sum(runs, &[Config::Baseline], |r| r.window.trace_fetches);
    let mispredicts = sum(runs, &[Config::Baseline], |r| r.window.ntp_mispredicts);
    m.set("ntp.accuracy", 1.0 - mispredicts as f64 / fetches as f64);
    let ns_per_instr = |c: Config| {
        sum(runs, &[c], |r| r.measure_ns) as f64
            / sum(runs, &[c], |r| r.window.retired_instructions) as f64
    };
    m.set(
        "engine.host_share.precon",
        1.0 - ns_per_instr(Config::Baseline) / ns_per_instr(Config::Precon),
    );
}

/// `tpc_core::preprocess` calls in the combined cells' windows: one
/// per completed slow-path build plus one per engine-built trace that
/// was not already cached.
fn preprocess_calls(runs: &Grid<CellRun>) -> u64 {
    sum(runs, &[Config::Combined], |r| {
        let e = &r.window.engine;
        r.window.trace_cache_misses + e.traces_built - e.traces_already_cached
    })
}

/// Per-call costs from the replays, scaled by the cells' exact call
/// counts; the rest of each cell's measured time is the residual.
fn replay_metrics(runs: &Grid<CellRun>, r: &Replay, m: &mut Metrics) {
    let per = |ns: u64, calls: u64| ns as f64 / calls as f64;
    let stream = per(r.stream_ns, r.stream_instructions);
    let ntp = per(r.ntp_ns, r.stream_traces);
    let store = per(r.store_ns, r.stream_traces);
    let pre = per(r.preprocess_ns, r.preprocess_calls);
    m.set("stream.ns_per_instr", stream);
    m.set("stream.traces", r.stream_traces as f64);
    m.set("ntp.ns_per_trace", ntp);
    m.set("store.ns_per_fetch", store);
    m.set("preprocess.ns_per_call", pre);
    let calls = preprocess_calls(runs) as f64;
    let combined_ns = sum(runs, &[Config::Combined], |r| r.measure_ns) as f64;
    m.set("preprocess.share.combined", calls * pre / combined_ns);
    let covered: f64 = Config::ALL
        .iter()
        .map(|&c| {
            let instructions = sum(runs, &[c], |r| r.window.retired_instructions) as f64;
            let fetches = sum(runs, &[c], |r| r.window.trace_fetches) as f64;
            let preprocessing = if c == Config::Combined {
                calls * pre
            } else {
                0.0
            };
            stream * instructions + (ntp + store) * fetches + preprocessing
        })
        .sum();
    let measured = sum(runs, &Config::ALL, |r| r.measure_ns) as f64;
    m.set("processor.residual_share", 1.0 - covered / measured);
}

/// The per-layer run: set-up, a pass over the grid with every cell run
/// both traced and untraced, baseline replays of every input, and one
/// traced daemon session (over the grid's first instance on the sim
/// workloads).
fn traced(args: &Args, run: &mut Run) {
    let Run {
        metrics: m,
        gate,
        notes,
    } = run;
    let mut tracer = Tracer::new(true);
    let span = tracer.begin("setup", None);
    let start = Instant::now();
    let inputs = build_inputs(
        &args.workload.benchmarks(),
        args.instances,
        args.seed,
        &mut tracer,
    );
    m.set("workloads.build_ms", start.elapsed().as_secs_f64() * 1e3);
    tracer.end(span);

    let span = tracer.begin("grid", None);
    let (runs, traced_ns, untraced_ns) = paired_pass(&inputs, args.window, &mut tracer, gate);
    tracer.end(span);
    m.set(
        "trace.overhead_share",
        traced_ns as f64 / untraced_ns as f64 - 1.0,
    );
    counter_metrics(&runs, m);
    let literal_fails = runs
        .iter()
        .flatten()
        .flatten()
        .filter(|r| r.literal_check_fails)
        .count();
    notes.push(literal_check_note(
        literal_fails as u64,
        (inputs.len() * 4) as u64,
    ));

    let span = tracer.begin("replays", None);
    let mut replayed = Replay::default();
    for (i, input) in inputs.iter().enumerate() {
        let cell = cell_id(i, Config::Baseline);
        replayed.add(&replay(
            &input.program,
            args.window,
            &mut tracer,
            gate,
            cell,
        ));
    }
    tracer.end(span);
    replay_metrics(&runs, &replayed, m);

    let instances = if args.workload == Workload::ServiceSweep {
        args.instances
    } else {
        1
    };
    let reqs = requests(args, instances);
    let span = tracer.begin("service", None);
    let dir = ScratchDir::new(
        &args.out.join("tmp"),
        &format!("{}-traced", std::process::id()),
    );
    let outcome = dir.and_then(|dir| {
        let mut speed = HostSpeed::new(workers());
        session(
            args,
            dir.path(),
            &reqs,
            TRACED_WARM_SWEEPS,
            &mut speed,
            &mut tracer,
            gate,
        )
    });
    tracer.end(span);
    match outcome {
        Ok(s) => {
            let served = session_grid(&s.cold);
            let benchmarks = args.workload.benchmarks();
            let first = build_inputs(&benchmarks, instances, args.seed, &mut Tracer::new(false));
            check_against_direct(args, &first, &served, gate);
            let cold = s.cold.iter();
            let cell_ms: Vec<f64> = cold
                .clone()
                .flat_map(|w| w.cell_ms.iter().copied())
                .filter(|v| v.is_finite())
                .collect();
            let cells = cell_ms.len() as f64;
            let cell_bytes: u64 = cold.clone().map(|w| w.cell_bytes).sum();
            m.set("service.spawn_ms", s.spawn_s * 1e3);
            m.set("service.cache_load_ms", median(&raw(&s.restart_s)) * 1e3);
            m.set("service.cell_ms.p50", median(&cell_ms));
            m.set("service.cell_ms.p90", quantile(&cell_ms, 0.9));
            m.set("service.bytes_per_cell", cell_bytes as f64 / cells);
            m.set("cache.hits", s.cache.hits as f64);
            m.set("cache.misses", s.cache.misses as f64);
            m.set("cache.entries", s.cache.entries as f64);
            m.set("cache.insert_failures", s.cache.insert_failures as f64);
            m.set(
                "service.retries",
                cold.clone().map(|w| w.report.retries).sum::<u64>() as f64,
            );
            m.set(
                "service.failed_cells",
                cold.map(|w| w.failed_cells).sum::<u64>() as f64,
            );
        }
        Err(e) => gate.check(Err(format!("traced service session: {e}"))),
    }

    let totals = tracer.totals();
    let self_ms = |names: &[&str]| {
        names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.self_ns)
            .sum::<u64>() as f64
            / 1e6
    };
    m.set("trace.self_ms.simulator_new", self_ms(&["Simulator::new"]));
    m.set("trace.self_ms.run_warmup", self_ms(&["run.warmup"]));
    m.set("trace.self_ms.run_measure", self_ms(&["run.measure"]));
    m.set(
        "trace.self_ms.replays",
        self_ms(&[
            "replay.stream",
            "replay.ntp",
            "replay.store",
            "replay.preprocess",
        ]),
    );
    m.set("trace.self_ms.daemon_spawn", self_ms(&["daemon.spawn"]));
    m.set("trace.self_ms.sweep", self_ms(&["sweep"]));
    m.set("trace.self_ms.cells", self_ms(&["cell"]));
    m.set("trace.spans", tracer.spans().len() as f64);
    for (name, t) in &totals {
        notes.push(format!(
            "span {name} count={} total_ms={:.3} self_ms={:.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    notes.push(format!(
        "tracing overhead: every cell run traced and untraced: {:.3} s vs {:.3} s",
        traced_ns as f64 * 1e-9,
        untraced_ns as f64 * 1e-9
    ));
    let path = args.out.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let written =
        std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, tracer.to_json()));
    gate.check(written.map_err(|e| format!("writing {}: {e}", path.display())));
    notes.push(format!("spans written to {}", path.display()));
}
