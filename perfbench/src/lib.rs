//! # perfbench — the repository benchmark
//!
//! Measures the simulator and its sweep service end to end, and each
//! layer on the user path, from outside the program: every number
//! comes from timing calls into the workspace crates' public
//! functions.
//!
//! ```text
//! perfbench --workload sim-large|sim-small|service-sweep --seed N
//!           --seconds S --trace 0|1 [--daemon PATH] [--out DIR]
//!           [--warmup N] [--measure N] [--instances N]
//! ```
//!
//! `--trace 0` prints the [`END_TO_END`] metrics; `--trace 1` runs
//! the separate traced pass and prints the [`PER_LAYER`] metrics.
//! The last line of standard output is the JSON result; earlier lines
//! carry provenance, sample counts, the paper's reference bands and
//! span totals. Any failed check makes the exit code nonzero.
//!
//! Every workload reports every end-to-end metric:
//!
//! | metric | sim-large, sim-small | service-sweep |
//! |---|---|---|
//! | `sim_mips.<config>` | simulated instructions (warm-up + window) per host second of that configuration's cells, each cell's median over the rounds | the same from the daemon-reported cell times, median over sessions |
//! | `speedup.*`, `tc_miss_pki.precon` | exact, from the grid's results | exact, from the cold grid |
//! | `cold_sweep_s` | one pass over the grid: the cells' median times summed | submit to `done` for the cold grid, median over sessions |
//! | `warm_sweep_ms.p50/p90` | lookup of the whole grid in the service's `ResultCache`, memoized in process | resubmission of the fully cached grid to the daemon; each session's percentile, median over sessions |
//! | `setup_s` | program generation plus every cell's `Simulator::new` in a fresh process, scaled by the host speed that process measured around it, median of 15 | daemon restart over the populated cache until the first `ping` reply, median over every restart (five per session) |
//! | `peak_rss_mib` | `VmHWM` of three of those set-up processes, which then simulate the first input under every configuration, median | `VmHWM` of the daemon, median over sessions |
//!
//! Host times are scaled to a nominal host speed (see [`host`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod gate;
pub mod host;
pub mod replay;
pub mod report;
pub mod service;
pub mod spans;
pub mod workload;

use cells::Window;
use std::path::PathBuf;
use tpc_workloads::Benchmark;

/// End-to-end metrics: (name, unit). Every workload reports all of
/// them; `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: [(&str, &str); 12] = [
    ("sim_mips.baseline", "Minstr/s"),
    ("sim_mips.precon", "Minstr/s"),
    ("sim_mips.combined", "Minstr/s"),
    ("sim_mips.unified", "Minstr/s"),
    ("speedup.precon", "ratio"),
    ("speedup.combined", "ratio"),
    ("tc_miss_pki.precon", "miss/kinstr"),
    ("cold_sweep_s", "s"),
    ("warm_sweep_ms.p50", "ms"),
    ("warm_sweep_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 66] = [
    ("workloads.build_ms", "ms"),
    ("stream.ns_per_instr", "ns"),
    ("stream.traces", "count"),
    ("ntp.ns_per_trace", "ns"),
    ("ntp.mispredicts", "count"),
    ("ntp.accuracy", "ratio"),
    ("store.ns_per_fetch", "ns"),
    ("store.fetches", "count"),
    ("store.tc_hits", "count"),
    ("store.precon_hits", "count"),
    ("store.misses", "count"),
    ("store.precon_fills", "count"),
    ("store.precon_rejected", "count"),
    ("preprocess.calls", "count"),
    ("preprocess.ns_per_call", "ns"),
    ("preprocess.share.combined", "ratio"),
    ("engine.traces_built", "count"),
    ("engine.traces_already_cached", "count"),
    ("engine.lines_fetched", "count"),
    ("engine.regions_started", "count"),
    ("engine.regions_completed", "count"),
    ("engine.regions_caught_up", "count"),
    ("engine.regions_fetch_bound", "count"),
    ("engine.regions_buffer_bound", "count"),
    ("engine.useful_ratio", "ratio"),
    ("engine.host_share.precon", "ratio"),
    ("icache.demand_accesses", "count"),
    ("icache.demand_misses", "count"),
    ("icache.precon_accesses", "count"),
    ("icache.precon_misses", "count"),
    ("dcache.misses", "count"),
    ("sim.cycles.baseline", "count"),
    ("sim.cycles.precon", "count"),
    ("sim.cycles.combined", "count"),
    ("sim.cycles.unified", "count"),
    ("sim.ns_per_cycle.baseline", "ns"),
    ("sim.ns_per_cycle.precon", "ns"),
    ("sim.ns_per_cycle.combined", "ns"),
    ("sim.ns_per_cycle.unified", "ns"),
    ("frontend.dispatched", "count"),
    ("frontend.slow_build", "count"),
    ("frontend.mispredict_stall", "count"),
    ("frontend.backpressure", "count"),
    ("processor.residual_share", "ratio"),
    ("service.spawn_ms", "ms"),
    ("service.cache_load_ms", "ms"),
    ("service.cell_ms.p50", "ms"),
    ("service.cell_ms.p90", "ms"),
    ("service.bytes_per_cell", "B"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.entries", "count"),
    ("cache.insert_failures", "count"),
    ("service.retries", "count"),
    ("service.failed_cells", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("trace.self_ms.simulator_new", "ms"),
    ("trace.self_ms.run_warmup", "ms"),
    ("trace.self_ms.run_measure", "ms"),
    ("trace.self_ms.replays", "ms"),
    ("trace.self_ms.daemon_spawn", "ms"),
    ("trace.self_ms.sweep", "ms"),
    ("trace.self_ms.cells", "ms"),
    ("cells.measured", "count"),
    ("instructions.measured", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// gcc, go, perl, vortex: trace working sets that overflow the
    /// trace cache, so the slow path, I-cache, engine and
    /// preprocessing carry the host time.
    SimLarge,
    /// compress, ijpeg: working sets that fit, so the hit path
    /// dominates and preprocessing is nearly idle.
    SimSmall,
    /// The whole grid through a spawned daemon: cold, cached, and
    /// after a restart.
    ServiceSweep,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sim-large" => Some(Workload::SimLarge),
            "sim-small" => Some(Workload::SimSmall),
            "service-sweep" => Some(Workload::ServiceSweep),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimLarge => "sim-large",
            Workload::SimSmall => "sim-small",
            Workload::ServiceSweep => "service-sweep",
        }
    }

    /// The benchmarks simulated.
    pub fn benchmarks(self) -> Vec<Benchmark> {
        match self {
            Workload::SimLarge => Benchmark::large_working_set().to_vec(),
            Workload::SimSmall => vec![Benchmark::Compress, Benchmark::Ijpeg],
            Workload::ServiceSweep => Benchmark::ALL.to_vec(),
        }
    }

    /// Programs generated per benchmark. Generated programs differ in
    /// cost and miss rate from seed to seed; averaging several per
    /// run keeps a run's figures close to the profile's.
    pub fn default_instances(self) -> u64 {
        match self {
            Workload::SimLarge => 4,
            Workload::SimSmall => 32,
            Workload::ServiceSweep => 1,
        }
    }

    /// The default simulation window.
    pub fn default_window(self) -> Window {
        match self {
            Workload::SimLarge => Window {
                warmup: 50_000,
                measure: 100_000,
            },
            Workload::SimSmall | Workload::ServiceSweep => Window {
                warmup: 20_000,
                measure: 40_000,
            },
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// The `tpc_service` executable.
    pub daemon: PathBuf,
    /// Directory for span files and daemon scratch directories.
    pub out: PathBuf,
    /// Simulation window.
    pub window: Window,
    /// Programs per benchmark.
    pub instances: u64,
    /// `--setup-child 0|1`: run one timed set-up, then simulate when
    /// the value is 1, and exit (see [`workload::setup_child`]). The
    /// benchmark starts itself this way.
    pub setup_child: Option<bool>,
}

impl Args {
    /// Parses the command line (without the program name).
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = args.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut daemon, mut out) = (None, PathBuf::from(".perfbench"));
        let (mut warmup, mut measure, mut instances) = (None, None, None);
        let mut setup_child = None;
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} expects a value"))?;
            let number = || -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()? as f64),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                    })
                }
                "--daemon" => daemon = Some(PathBuf::from(&value)),
                "--out" => out = PathBuf::from(&value),
                "--warmup" => warmup = Some(number()?),
                "--measure" => measure = Some(number()?),
                "--instances" => instances = Some(number()?.max(1)),
                "--setup-child" => setup_child = Some(number()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let default = workload.default_window();
        let daemon = match daemon {
            Some(d) => d,
            None => std::env::current_exe()
                .map_err(|e| format!("cannot locate the daemon: {e}"))?
                .with_file_name("tpc_service"),
        };
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            daemon,
            out,
            window: Window {
                warmup: warmup.unwrap_or(default.warmup),
                measure: measure.unwrap_or(default.measure),
            },
            instances: instances.unwrap_or_else(|| workload.default_instances()),
            setup_child,
        })
    }

    /// The metric table this run reports.
    pub fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }
}
