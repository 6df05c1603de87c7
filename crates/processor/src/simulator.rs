//! The full-processor simulator: frontend, backend, preconstruction.

use crate::backend::{Backend, BackendConfig, TraceTiming};
use crate::stream::{DynTrace, TraceStream};
use std::collections::VecDeque;
use tpc_core::storage::{SplitStore, StoreCounters, TraceStore, UnifiedConfig, UnifiedStore};
use tpc_core::{
    preprocess, EngineConfig, EngineFault, EngineStats, FaultKind, FaultPlan, FaultState,
    FaultStats, PreconEngine,
};
use tpc_exec::{Executor, Frontend};
use tpc_isa::{Addr, OpClass, Program};
use tpc_mem::{AccessKind, DataCacheStats, IcacheStats, InstrCache, InstrCacheConfig};
use tpc_predict::{Bimodal, NextTracePredictor, NtpConfig, ReturnAddressStack};

/// How trace storage is organized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// The paper's organization: separate trace cache and
    /// preconstruction buffers (sized by `trace_cache_entries` and
    /// `engine.buffer_entries`).
    #[default]
    Split,
    /// The dynamically partitioned unified store the paper suggests
    /// as future work (`trace_cache_entries` + `engine.buffer_entries`
    /// pooled into one 4-way array).
    Unified {
        /// Ways (of 4) initially assigned to preconstruction.
        initial_pb_ways: u8,
        /// Re-partition epoch in fetches (0 = fixed).
        epoch_fetches: u64,
    },
}

/// Full simulator configuration. Defaults are the paper's Section 4
/// machine with a 256-entry trace cache and preconstruction enabled.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Trace cache entries (2-way set-associative).
    pub trace_cache_entries: u32,
    /// Trace storage organization.
    pub storage: StorageKind,
    /// Preconstruction engine configuration (including buffer size).
    pub engine: EngineConfig,
    /// Preprocess traces at fill time (extended pipeline model).
    pub preprocess: bool,
    /// Instruction cache configuration.
    pub icache: InstrCacheConfig,
    /// Next-trace predictor configuration.
    pub ntp: NtpConfig,
    /// Bimodal predictor entries.
    pub bimodal_entries: usize,
    /// Return-address-stack depth.
    pub ras_depth: usize,
    /// Backend configuration.
    pub backend: BackendConfig,
    /// Frontend redirect penalty after a resolved misprediction.
    pub mispredict_penalty: u64,
    /// Record a bounded log of pipeline events (dispatches, slow
    /// builds, stalls, retires) readable via [`Simulator::events`].
    pub record_events: bool,
    /// Record every retired instruction's `(pc, taken)` pair,
    /// readable via [`Simulator::take_retirement`]. Used by the
    /// differential oracle to compare the simulator's retirement
    /// stream against the reference interpreter.
    pub record_retirement: bool,
    /// Deterministic fault-injection plan perturbing the
    /// preconstruction mechanisms (`None` disables injection). Faults
    /// may move performance counters but never the retirement stream
    /// — the differential oracle checks this for arbitrary plans.
    pub faults: Option<FaultPlan>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            trace_cache_entries: 256,
            storage: StorageKind::Split,
            engine: EngineConfig::default(),
            preprocess: false,
            icache: InstrCacheConfig::default(),
            ntp: NtpConfig::default(),
            bimodal_entries: 4096,
            ras_depth: 64,
            backend: BackendConfig::default(),
            mispredict_penalty: 5,
            record_events: false,
            record_retirement: false,
            faults: None,
        }
    }
}

impl SimConfig {
    /// The no-preconstruction baseline with `tc_entries` trace-cache
    /// entries.
    pub fn baseline(tc_entries: u32) -> Self {
        SimConfig {
            trace_cache_entries: tc_entries,
            engine: EngineConfig::disabled(),
            ..SimConfig::default()
        }
    }

    /// A preconstruction configuration: `tc_entries` trace cache plus
    /// `pb_entries` preconstruction buffer.
    pub fn with_precon(tc_entries: u32, pb_entries: u32) -> Self {
        SimConfig {
            trace_cache_entries: tc_entries,
            engine: EngineConfig {
                enabled: pb_entries > 0,
                buffer_entries: pb_entries,
                ..EngineConfig::default()
            },
            ..SimConfig::default()
        }
    }

    /// Enables trace preprocessing (both on the fill path and in the
    /// preconstruction engine).
    pub fn with_preprocess(mut self) -> Self {
        self.preprocess = true;
        self.engine.preprocess = true;
        self
    }

    /// Attaches a deterministic fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Pools the trace cache and preconstruction buffer into one
    /// dynamically partitioned 4-way store (paper Section 5.1's
    /// future-work design; see `tpc_core::storage::UnifiedStore`).
    pub fn unified(total_entries: u32, initial_pb_ways: u8, epoch_fetches: u64) -> Self {
        SimConfig {
            trace_cache_entries: total_entries,
            storage: StorageKind::Unified {
                initial_pb_ways,
                epoch_fetches,
            },
            engine: EngineConfig {
                enabled: true,
                buffer_entries: 0,
                ..EngineConfig::default()
            },
            ..SimConfig::default()
        }
    }
}

/// Counters and component statistics captured by
/// [`Simulator::stats`].
///
/// Every field is an exact integer counter, so two runs can be
/// compared for bit-identity with `==` (the parallel sweep executor's
/// determinism tests rely on this).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired.
    pub retired_instructions: u64,
    /// Traces retired.
    pub retired_traces: u64,
    /// Trace fetch requests (one per dispatched trace).
    pub trace_fetches: u64,
    /// Fetches satisfied by the trace cache.
    pub trace_cache_hits: u64,
    /// Fetches satisfied by the preconstruction buffers (copied into
    /// the trace cache on use).
    pub precon_buffer_hits: u64,
    /// Fetches that missed both structures and took the slow path.
    pub trace_cache_misses: u64,
    /// Instructions supplied by the slow path (the I-cache).
    pub slow_path_instructions: u64,
    /// Slow-path instructions supplied from lines that missed in the
    /// I-cache.
    pub slow_path_miss_instructions: u64,
    /// I-cache lines fetched by the slow path.
    pub slow_path_lines: u64,
    /// Next-trace-predictor mispredictions (including cold misses).
    pub ntp_mispredicts: u64,
    /// Slow-path stalls charged for bimodal/RAS/indirect
    /// mispredictions during trace building.
    pub slow_path_predict_stalls: u64,
    /// Trace-cache misses whose trace the engine had built at some
    /// point but lost again (diagnostic; requires
    /// `EngineConfig::track_built_keys`).
    pub misses_previously_built: u64,
    /// Instruction-cache counters.
    pub icache: IcacheStats,
    /// Preconstruction-engine counters.
    pub engine: EngineStats,
    /// Trace-storage counters (trace cache + preconstruction side).
    pub store: StoreCounters,
    /// Frontend cycle attribution.
    pub frontend: FrontendBreakdown,
    /// Data-cache counters.
    pub dcache: DataCacheStats,
    /// Fault-injection counters (all zero when no plan is attached).
    pub faults: FaultStats,
}

impl SimStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_instructions as f64 / self.cycles as f64
        }
    }

    /// Trace-cache misses per 1000 retired instructions (the paper's
    /// Figure 5 metric).
    pub fn tc_misses_per_kilo(&self) -> f64 {
        per_kilo(self.trace_cache_misses, self.retired_instructions)
    }

    /// Instructions supplied by the I-cache per 1000 instructions
    /// (Table 1).
    pub fn icache_supplied_per_kilo(&self) -> f64 {
        per_kilo(self.slow_path_instructions, self.retired_instructions)
    }

    /// I-cache misses (demand + preconstruction) per 1000
    /// instructions (Table 2).
    pub fn icache_misses_per_kilo(&self) -> f64 {
        per_kilo(self.icache.total_misses(), self.retired_instructions)
    }

    /// Instructions supplied from I-cache misses per 1000
    /// instructions (Table 3).
    pub fn miss_supplied_per_kilo(&self) -> f64 {
        per_kilo(self.slow_path_miss_instructions, self.retired_instructions)
    }

    /// Speedup of `self` over `base` on equal instruction counts.
    pub fn speedup_over(&self, base: &SimStats) -> f64 {
        self.ipc() / base.ipc()
    }

    /// Trace-cache hit fraction of all trace fetches, in 1/1000ths.
    pub fn tc_hit_permille(&self) -> u64 {
        ((self.trace_cache_hits + self.precon_buffer_hits) * 1000)
            .checked_div(self.trace_fetches)
            .unwrap_or(0)
    }

    /// Number of `u64` words in the [`SimStats::to_words`] encoding.
    pub const WORDS: usize = 62;

    /// Encodes every counter as a fixed-order `u64` vector — the
    /// sweep checkpoint format. All fields are exact integers, so
    /// `from_words(&to_words())` round-trips bit-identically with no
    /// serialization dependency.
    pub fn to_words(&self) -> Vec<u64> {
        let mut w = Vec::with_capacity(Self::WORDS);
        w.extend([
            self.cycles,
            self.retired_instructions,
            self.retired_traces,
            self.trace_fetches,
            self.trace_cache_hits,
            self.precon_buffer_hits,
            self.trace_cache_misses,
            self.slow_path_instructions,
            self.slow_path_miss_instructions,
            self.slow_path_lines,
            self.ntp_mispredicts,
            self.slow_path_predict_stalls,
            self.misses_previously_built,
        ]);
        w.extend([
            self.icache.demand_accesses,
            self.icache.demand_misses,
            self.icache.precon_accesses,
            self.icache.precon_misses,
            self.icache.demand_hits_on_precon_lines,
        ]);
        w.extend([
            self.engine.regions_started,
            self.engine.regions_completed,
            self.engine.regions_caught_up,
            self.engine.regions_fetch_bound,
            self.engine.regions_buffer_bound,
            self.engine.traces_built,
            self.engine.traces_already_cached,
            self.engine.successors_dropped,
            self.engine.lines_fetched,
            self.engine.start_points_observed,
        ]);
        w.extend([
            self.store.fetches,
            self.store.tc_hits,
            self.store.precon_hits,
            self.store.misses,
            self.store.precon_fills,
            self.store.precon_rejected,
        ]);
        w.extend([
            self.frontend.dispatched,
            self.frontend.slow_build,
            self.frontend.mispredict_stall,
            self.frontend.backpressure,
        ]);
        w.extend([
            self.dcache.loads,
            self.dcache.stores,
            self.dcache.misses,
            self.dcache.writebacks,
        ]);
        w.extend([self.faults.injected, self.faults.landed]);
        w.extend(self.faults.injected_by_kind);
        w.extend(self.faults.landed_by_kind);
        debug_assert_eq!(w.len(), Self::WORDS);
        w
    }

    /// Decodes a [`SimStats::to_words`] vector; `None` on length
    /// mismatch (a truncated or foreign checkpoint line).
    pub fn from_words(words: &[u64]) -> Option<SimStats> {
        if words.len() != Self::WORDS {
            return None;
        }
        let mut it = words.iter().copied();
        let mut next = || it.next().expect("length checked");
        let mut s = SimStats {
            cycles: next(),
            retired_instructions: next(),
            retired_traces: next(),
            trace_fetches: next(),
            trace_cache_hits: next(),
            precon_buffer_hits: next(),
            trace_cache_misses: next(),
            slow_path_instructions: next(),
            slow_path_miss_instructions: next(),
            slow_path_lines: next(),
            ntp_mispredicts: next(),
            slow_path_predict_stalls: next(),
            misses_previously_built: next(),
            ..SimStats::default()
        };
        s.icache.demand_accesses = next();
        s.icache.demand_misses = next();
        s.icache.precon_accesses = next();
        s.icache.precon_misses = next();
        s.icache.demand_hits_on_precon_lines = next();
        s.engine.regions_started = next();
        s.engine.regions_completed = next();
        s.engine.regions_caught_up = next();
        s.engine.regions_fetch_bound = next();
        s.engine.regions_buffer_bound = next();
        s.engine.traces_built = next();
        s.engine.traces_already_cached = next();
        s.engine.successors_dropped = next();
        s.engine.lines_fetched = next();
        s.engine.start_points_observed = next();
        s.store.fetches = next();
        s.store.tc_hits = next();
        s.store.precon_hits = next();
        s.store.misses = next();
        s.store.precon_fills = next();
        s.store.precon_rejected = next();
        s.frontend.dispatched = next();
        s.frontend.slow_build = next();
        s.frontend.mispredict_stall = next();
        s.frontend.backpressure = next();
        s.dcache.loads = next();
        s.dcache.stores = next();
        s.dcache.misses = next();
        s.dcache.writebacks = next();
        s.faults.injected = next();
        s.faults.landed = next();
        for k in 0..tpc_core::NUM_FAULT_KINDS {
            s.faults.injected_by_kind[k] = next();
        }
        for k in 0..tpc_core::NUM_FAULT_KINDS {
            s.faults.landed_by_kind[k] = next();
        }
        Some(s)
    }
}

/// Error from [`Simulator::run_budgeted`]: the cycle watchdog fired
/// before the instruction target was reached (a wedged or
/// pathologically slow configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Absolute cycle count when the watchdog fired.
    pub cycles: u64,
    /// Instructions retired by then (cumulative).
    pub retired: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle budget exceeded: {} cycles simulated, {} instructions retired",
            self.cycles, self.retired
        )
    }
}

impl std::error::Error for BudgetExceeded {}

fn per_kilo(count: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / instructions as f64
    }
}

/// Per-cycle frontend activity accounting: what the fetch stage was
/// doing each cycle. Summing the fields reproduces the cycle count,
/// so the breakdown attributes *all* time (the classic CPI-stack
/// view of why IPC is lost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendBreakdown {
    /// Cycles a trace was supplied (trace cache, buffers, or a
    /// completed slow-path build dispatching).
    pub dispatched: u64,
    /// Cycles spent inside slow-path builds (I-cache fetch, miss
    /// latency, prediction-repair stalls).
    pub slow_build: u64,
    /// Cycles the frontend waited out a next-trace-predictor
    /// misprediction (previous trace's branches resolving plus the
    /// redirect penalty).
    pub mispredict_stall: u64,
    /// Cycles no processing element was free to accept a dispatch.
    pub backpressure: u64,
}

impl FrontendBreakdown {
    /// Total cycles accounted.
    pub fn total(&self) -> u64 {
        self.dispatched + self.slow_build + self.mispredict_stall + self.backpressure
    }

    /// Each component as a fraction of the total, in 1/1000ths:
    /// (dispatched, slow build, mispredict, backpressure).
    pub fn permille(&self) -> (u64, u64, u64, u64) {
        let t = self.total().max(1);
        (
            self.dispatched * 1000 / t,
            self.slow_build * 1000 / t,
            self.mispredict_stall * 1000 / t,
            self.backpressure * 1000 / t,
        )
    }
}

/// A slow-path trace build in progress.
#[derive(Debug)]
struct SlowBuild {
    dt: DynTrace,
    /// Remaining (line base, instructions in this trace on the line).
    lines: VecDeque<(Addr, u32)>,
    /// Cycle the current line fetch completes.
    busy_until: u64,
    /// Extra stall cycles charged at the end (prediction repairs).
    tail_stall: u64,
}

/// Where a dispatched trace was supplied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SupplySource {
    /// Trace-cache hit.
    TraceCache,
    /// Preconstruction-side hit (promoted on use).
    PreconBuffer,
    /// Built by the slow path.
    SlowPath,
}

/// One recorded pipeline event (see [`SimConfig::record_events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A trace was dispatched to a processing element.
    Dispatch {
        /// Cycle of dispatch.
        cycle: u64,
        /// Trace start address.
        start: Addr,
        /// Instructions in the trace.
        len: u8,
        /// Processing element.
        pe: u8,
        /// Supplier.
        source: SupplySource,
    },
    /// A slow-path build started (trace-cache miss).
    SlowBuildBegin {
        /// Cycle the build started.
        cycle: u64,
        /// Start address of the missing trace.
        start: Addr,
    },
    /// The frontend began waiting out a trace-level misprediction.
    MispredictStall {
        /// Cycle the stall began.
        cycle: u64,
        /// Cycle fetch resumes.
        until: u64,
    },
    /// The oldest trace retired.
    Retire {
        /// Cycle of retirement.
        cycle: u64,
        /// Trace start address.
        start: Addr,
    },
}

impl SimEvent {
    /// The event's cycle.
    pub fn cycle(&self) -> u64 {
        match *self {
            SimEvent::Dispatch { cycle, .. }
            | SimEvent::SlowBuildBegin { cycle, .. }
            | SimEvent::MispredictStall { cycle, .. }
            | SimEvent::Retire { cycle, .. } => cycle,
        }
    }
}

/// What the fetch stage did in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrontendActivity {
    Dispatched,
    SlowBuild,
    MispredictStall,
    Backpressure,
}

/// One retired instruction as recorded by the retirement log (see
/// [`SimConfig::record_retirement`]): the architectural identity the
/// differential oracle compares — which instruction retired, and for
/// branches, which way it went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredInstr {
    /// Instruction address.
    pub pc: Addr,
    /// Branch outcome (`false` for non-branches).
    pub taken: bool,
}

/// A dispatched trace awaiting retirement.
#[derive(Debug)]
struct Inflight {
    timing: TraceTiming,
    /// (branch pc, outcome) pairs for bimodal training at retire.
    branches: Vec<(Addr, bool)>,
    /// Instruction addresses, for the engine's retire observation.
    pcs: Vec<Addr>,
    /// Per-instruction retirement records (empty unless
    /// [`SimConfig::record_retirement`]).
    recorded: Vec<RetiredInstr>,
}

/// The simulator, generic over the instruction [`Frontend`]
/// (statically dispatched). Create with [`Simulator::new`] for the
/// synthetic executor frontend or [`Simulator::with_frontend`] for
/// any other, drive with [`Simulator::run`], read results with
/// [`Simulator::stats`].
#[derive(Debug)]
pub struct Simulator<F: Frontend> {
    config: SimConfig,
    stream: TraceStream<F>,
    store: Box<dyn TraceStore>,
    engine: PreconEngine,
    ntp: NextTracePredictor,
    bimodal: Bimodal,
    ras: ReturnAddressStack,
    icache: InstrCache,
    backend: Backend,
    inflight: VecDeque<Inflight>,
    slow_build: Option<SlowBuild>,
    /// The next trace to fetch, once predicted/stalled.
    pending: Option<DynTrace>,
    /// NTP consulted for `pending` already.
    pending_predicted: bool,
    /// Earliest cycle the frontend may fetch again.
    stall_until: u64,
    /// Resolution cycle of the most recently dispatched trace.
    prev_resolve: u64,
    cycle: u64,
    last_retire_cycle: u64,
    seq: u64,
    /// Fault-injection runtime state (`None` when no plan attached).
    faults: Option<FaultState>,
    stats: SimStats,
    events: Vec<SimEvent>,
    /// Retired-instruction log (empty unless
    /// [`SimConfig::record_retirement`]).
    retirement: Vec<RetiredInstr>,
    /// Pending supply source for the next dispatch's event record.
    pending_source: SupplySource,
    /// Traces fetched before the last [`Simulator::reset_stats`] but
    /// not yet retired then: they retire inside the window without a
    /// fetch in it, so the retired ≤ fetched law allows for them.
    carried_traces: u64,
}

impl<'a> Simulator<Executor<'a>> {
    /// Creates a simulator over `program`, executed by the
    /// architectural [`Executor`] (the `"synthetic"` frontend).
    pub fn new(program: &'a Program, config: SimConfig) -> Self {
        Simulator::with_frontend(Executor::new(program), config)
    }
}

impl<F: Frontend> Simulator<F> {
    /// Creates a simulator over any freshly instantiated
    /// [`Frontend`].
    pub fn with_frontend(frontend: F, config: SimConfig) -> Self {
        let store: Box<dyn TraceStore> = match config.storage {
            StorageKind::Split => Box::new(SplitStore::new(
                config.trace_cache_entries,
                if config.engine.enabled {
                    config.engine.buffer_entries
                } else {
                    0
                },
            )),
            StorageKind::Unified {
                initial_pb_ways,
                epoch_fetches,
            } => Box::new(UnifiedStore::new(UnifiedConfig {
                entries: config.trace_cache_entries + config.engine.buffer_entries,
                initial_pb_ways,
                epoch_fetches,
            })),
        };
        Simulator {
            stream: TraceStream::over(frontend),
            store,
            engine: PreconEngine::new(config.engine),
            ntp: NextTracePredictor::new(config.ntp),
            bimodal: Bimodal::new(config.bimodal_entries),
            ras: ReturnAddressStack::new(config.ras_depth),
            icache: InstrCache::new(config.icache),
            backend: Backend::new(config.backend),
            inflight: VecDeque::new(),
            slow_build: None,
            pending: None,
            pending_predicted: false,
            stall_until: 0,
            prev_resolve: 0,
            cycle: 0,
            last_retire_cycle: 0,
            seq: 0,
            faults: config.faults.map(FaultState::new),
            stats: SimStats::default(),
            events: Vec::new(),
            retirement: Vec::new(),
            pending_source: SupplySource::TraceCache,
            carried_traces: 0,
            config,
        }
    }

    /// The frontend-kind identifier (see
    /// [`Frontend::id`](tpc_exec::Frontend::id)).
    pub fn frontend_id(&self) -> &'static str {
        self.stream.frontend_id()
    }

    /// The recorded pipeline events (empty unless
    /// [`SimConfig::record_events`] is set). Bounded to the most
    /// recent million events.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    fn record(&mut self, event: SimEvent) {
        if self.config.record_events {
            if self.events.len() >= 1_000_000 {
                self.events.drain(..500_000);
            }
            self.events.push(event);
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The retired-instruction log accumulated so far (empty unless
    /// [`SimConfig::record_retirement`] is set).
    pub fn retirement_log(&self) -> &[RetiredInstr] {
        &self.retirement
    }

    /// Drains and returns the retired-instruction log, leaving it
    /// empty. The differential runner calls this between chunks so
    /// long runs compare in bounded memory.
    pub fn take_retirement(&mut self) -> Vec<RetiredInstr> {
        std::mem::take(&mut self.retirement)
    }

    /// Checks the simulator-wide conservation invariants the
    /// differential oracle enforces after every chunk: the fetch
    /// conservation law, retirement accounting, and the storage and
    /// engine structural invariants (occupancy ≤ capacity, start
    /// stack within its 16+4 bound).
    pub fn check_invariants(&self) -> Result<(), String> {
        let s = &self.stats;
        if s.trace_fetches != s.trace_cache_hits + s.precon_buffer_hits + s.trace_cache_misses {
            return Err(format!(
                "fetch conservation violated: {} fetches != {} tc hits + {} pb hits + {} misses",
                s.trace_fetches, s.trace_cache_hits, s.precon_buffer_hits, s.trace_cache_misses
            ));
        }
        if s.retired_traces > s.trace_fetches + self.carried_traces {
            return Err(format!(
                "retired {} traces but only fetched {} (+{} in flight at the last reset)",
                s.retired_traces, s.trace_fetches, self.carried_traces
            ));
        }
        self.store.check_invariants()?;
        self.engine.check_invariants()?;
        Ok(())
    }

    /// Read access to the preconstruction engine (buffer occupancy,
    /// detailed counters).
    pub fn engine(&self) -> &PreconEngine {
        &self.engine
    }

    /// Drains the engine's activity log (empty unless
    /// [`tpc_core::EngineConfig::record_activity`] is set). The
    /// conformance checker calls this between chunks and validates
    /// every start-point push and emitted trace against the static
    /// enumeration.
    pub fn take_engine_activity(&mut self) -> Vec<tpc_core::EngineActivity> {
        self.engine.take_activity()
    }

    /// Read access to the trace storage (split or unified).
    pub fn store(&self) -> &dyn TraceStore {
        &*self.store
    }

    /// Runs until at least `instructions` have retired; returns a
    /// snapshot of the statistics.
    pub fn run(&mut self, instructions: u64) -> SimStats {
        let target = self.stats.retired_instructions + instructions;
        while self.stats.retired_instructions < target {
            self.step();
        }
        self.stats()
    }

    /// Runs `warmup` instructions, resets all statistics, then runs
    /// and measures `measure` instructions — the standard way to
    /// exclude cold-start transients.
    pub fn run_with_warmup(&mut self, warmup: u64, measure: u64) -> SimStats {
        self.run(warmup);
        self.reset_stats();
        self.run(measure)
    }

    /// Like [`Simulator::run`], but gives up once the *absolute*
    /// cycle count (across all prior `run`/`run_budgeted` calls on
    /// this simulator) exceeds `max_cycles` — the sweep executor's
    /// per-cell watchdog against wedged or pathologically slow
    /// configurations.
    pub fn run_budgeted(
        &mut self,
        instructions: u64,
        max_cycles: u64,
    ) -> Result<SimStats, BudgetExceeded> {
        let target = self.stats.retired_instructions + instructions;
        while self.stats.retired_instructions < target {
            if self.cycle >= max_cycles {
                return Err(BudgetExceeded {
                    cycles: self.cycle,
                    retired: self.stats.retired_instructions,
                });
            }
            self.step();
        }
        Ok(self.stats())
    }

    /// Snapshot of the current statistics.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.icache = *self.icache.stats();
        s.engine = *self.engine.stats();
        s.store = self.store.counters();
        s.dcache = *self.backend.dcache_stats();
        if let Some(fs) = &self.faults {
            s.faults = *fs.stats();
        }
        s
    }

    /// Zeroes all counters (contents of caches and predictors are
    /// preserved).
    pub fn reset_stats(&mut self) {
        self.carried_traces = self.inflight.len() as u64 + u64::from(self.slow_build.is_some());
        self.stats = SimStats::default();
        self.icache.reset_stats();
        self.store.reset_counters();
        // Engine and dcache stats are cumulative; snapshot-subtract.
        // For simplicity the engine's counters keep accumulating: the
        // quantities derived from them (Figure 5, Tables 1–3) are all
        // measured through the simulator's own counters, which do
        // reset.
        self.stats.cycles = 0;
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        self.stats.cycles += 1;
        self.apply_faults();
        self.retire_stage();
        let activity = self.fetch_stage();
        let fb = &mut self.stats.frontend;
        match activity {
            FrontendActivity::Dispatched => fb.dispatched += 1,
            FrontendActivity::SlowBuild => fb.slow_build += 1,
            FrontendActivity::MispredictStall => fb.mispredict_stall += 1,
            FrontendActivity::Backpressure => fb.backpressure += 1,
        }
        let slow_busy = activity == FrontendActivity::SlowBuild;
        self.engine.tick(
            self.cycle,
            !slow_busy,
            self.stream.code(),
            &mut self.icache,
            &self.bimodal,
            &mut *self.store,
        );
    }

    /// Draws and injects this cycle's scheduled faults (no-op without
    /// a plan). Runs at the top of the cycle, before retire and
    /// fetch, so a perturbation is visible to everything downstream
    /// in the same cycle. Every target is preconstruction *hint*
    /// state — bimodal counters, prefetch fills, constructors,
    /// preconstruction-buffer entries, the start stack — so injection
    /// can move timing and hit rates but never the retirement stream.
    fn apply_faults(&mut self) {
        let events = match self.faults.as_mut() {
            Some(fs) => fs.draw(),
            None => return,
        };
        for ev in events {
            let landed = match ev.kind {
                FaultKind::FlipBimodalBit => {
                    // narrow: masked to 1 bit before the cast
                    self.bimodal.flip_bit(ev.a as usize, (ev.b & 1) as u8);
                    true
                }
                FaultKind::DropPrefetchFill => self
                    .engine
                    .apply_fault(EngineFault::DropPrefetchFill { salt: ev.a }),
                FaultKind::DelayPrefetchFill => {
                    self.engine.apply_fault(EngineFault::DelayPrefetchFill {
                        salt: ev.a,
                        extra: 1 + ev.b % 16,
                    })
                }
                FaultKind::StallConstructor => {
                    self.engine.apply_fault(EngineFault::StallConstructor {
                        salt: ev.a,
                        cycles: (1 + ev.b % 8) as u32, // narrow: value in 1..=8
                    })
                }
                FaultKind::KillConstructor => self
                    .engine
                    .apply_fault(EngineFault::KillConstructor { salt: ev.a }),
                FaultKind::InvalidatePreconEntry => self.store.fault_invalidate_precon(ev.a),
                FaultKind::CorruptPreconEntry => self.store.fault_corrupt_precon(ev.a),
                FaultKind::SpuriousStackPop => self.engine.apply_fault(EngineFault::PopStartPoint),
                FaultKind::SpuriousStackSquash => self
                    .engine
                    .apply_fault(EngineFault::SquashStartStack { salt: ev.a }),
            };
            self.faults
                .as_mut()
                .expect("drawn from above")
                .note(ev.kind, landed);
        }
    }

    /// Retires at most one trace per cycle, in order.
    fn retire_stage(&mut self) {
        let Some(front) = self.inflight.front() else {
            return;
        };
        let retire_at = front.timing.complete.max(self.last_retire_cycle + 1);
        if self.cycle < retire_at {
            return;
        }
        let done = self.inflight.pop_front().expect("checked front");
        self.record(SimEvent::Retire {
            cycle: self.cycle,
            start: done.pcs.first().copied().unwrap_or(Addr::ZERO),
        });
        self.last_retire_cycle = self.cycle;
        self.backend.release_pe(done.timing.pe, self.cycle);
        for (pc, taken) in &done.branches {
            self.bimodal.update(*pc, *taken);
        }
        for pc in &done.pcs {
            self.engine.observe_retire(*pc);
        }
        self.retirement.extend_from_slice(&done.recorded);
        self.stats.retired_instructions += done.pcs.len() as u64;
        self.stats.retired_traces += 1;
    }

    /// Runs the frontend for one cycle; returns what it did.
    fn fetch_stage(&mut self) -> FrontendActivity {
        // A slow-path build in progress owns the I-cache.
        if self.slow_build.is_some() {
            self.advance_slow_build();
            return FrontendActivity::SlowBuild;
        }
        if self.cycle < self.stall_until {
            return FrontendActivity::MispredictStall;
        }
        // Backpressure: all PEs busy.
        if self.inflight.len() >= self.backend.config().pe_count
            || !self.backend.pe_available(self.cycle)
        {
            return FrontendActivity::Backpressure;
        }
        // Next trace on the correct path.
        if self.pending.is_none() {
            self.pending = Some(self.stream.next_trace());
            self.pending_predicted = false;
        }
        let key = self.pending.as_ref().expect("set above").trace.key();

        // Next-trace prediction: a mispredicted (or unpredicted)
        // trace can only be fetched after the previous trace's
        // branches resolve and the frontend redirects.
        if !self.pending_predicted {
            self.pending_predicted = true;
            let predicted = self.ntp.predict() == Some(key);
            let end = self.pending.as_ref().expect("set above").trace.end();
            self.ntp.observe(key, end);
            if !predicted {
                self.stats.ntp_mispredicts += 1;
                let resume = (self.prev_resolve + self.config.mispredict_penalty).max(self.cycle);
                if resume > self.cycle {
                    self.stall_until = resume;
                    self.record(SimEvent::MispredictStall {
                        cycle: self.cycle,
                        until: resume,
                    });
                    return FrontendActivity::MispredictStall;
                }
            }
        }

        self.stats.trace_fetches += 1;
        // Probe the trace cache and the preconstruction side in
        // parallel (paper Section 3.1); a preconstruction hit is
        // promoted into the trace cache by the store.
        let fetched = self.store.fetch(key);
        if fetched.hit {
            if fetched.from_precon {
                self.stats.precon_buffer_hits += 1;
                self.pending_source = SupplySource::PreconBuffer;
            } else {
                self.stats.trace_cache_hits += 1;
                self.pending_source = SupplySource::TraceCache;
            }
            let mut dt = self.pending.take().expect("set above");
            if let Some(info) = fetched.preprocess {
                dt.trace.set_preprocess_arc(info);
            }
            self.dispatch(dt);
            return FrontendActivity::Dispatched;
        }

        // Miss: build the trace through the slow path.
        self.stats.trace_cache_misses += 1;
        if self.engine.was_ever_built(key) {
            self.stats.misses_previously_built += 1;
        }
        let dt = self.pending.take().expect("set above");
        self.record(SimEvent::SlowBuildBegin {
            cycle: self.cycle,
            start: dt.trace.start(),
        });
        self.pending_source = SupplySource::SlowPath;
        self.begin_slow_build(dt);
        FrontendActivity::SlowBuild
    }

    /// Starts a slow-path build: enumerate the I-cache lines the
    /// trace's instructions live on and the prediction-repair stalls
    /// the build will incur.
    fn begin_slow_build(&mut self, dt: DynTrace) {
        let mut lines: VecDeque<(Addr, u32)> = VecDeque::new();
        for ti in dt.trace.instrs() {
            let base = InstrCache::line_base(ti.pc);
            match lines.back_mut() {
                Some((b, n)) if *b == base => *n += 1,
                _ => lines.push_back((base, 1)),
            }
        }
        // Prediction repairs while following the path: every bimodal
        // miss, RAS mismatch, and indirect jump costs a redirect.
        let mut tail_stall = 0;
        let mut outcome_iter = dt.branch_outcomes.iter();
        for ti in dt.trace.instrs() {
            match ti.op.class() {
                OpClass::Branch => {
                    let taken = *outcome_iter.next().expect("outcomes parallel branches");
                    if self.bimodal.predict(ti.pc) != taken {
                        tail_stall += self.config.mispredict_penalty;
                        self.stats.slow_path_predict_stalls += 1;
                    }
                }
                OpClass::IndirectJump => {
                    tail_stall += self.config.mispredict_penalty;
                    self.stats.slow_path_predict_stalls += 1;
                }
                OpClass::Return => {
                    // RAS checked (and popped) against the actual
                    // successor recorded in the trace.
                    let predicted = self.ras.pop();
                    if predicted != dt.trace.successor() {
                        tail_stall += self.config.mispredict_penalty;
                        self.stats.slow_path_predict_stalls += 1;
                    }
                }
                OpClass::Call => self.ras.push(ti.pc.next()),
                _ => {}
            }
        }
        self.stats.slow_path_instructions += dt.trace.len() as u64;
        self.slow_build = Some(SlowBuild {
            dt,
            lines,
            busy_until: self.cycle,
            tail_stall,
        });
    }

    /// One cycle of slow-path progress.
    fn advance_slow_build(&mut self) {
        let build = self.slow_build.as_mut().expect("called while building");
        if self.cycle < build.busy_until {
            return;
        }
        if let Some((base, count)) = build.lines.pop_front() {
            let res = self.icache.fetch(base, AccessKind::Demand);
            self.stats.slow_path_lines += 1;
            if !res.hit {
                self.stats.slow_path_miss_instructions += count as u64;
            }
            build.busy_until = self.cycle + res.latency as u64;
            return;
        }
        if build.tail_stall > 0 {
            build.busy_until = self.cycle + build.tail_stall;
            build.tail_stall = 0;
            return;
        }
        // Build complete: preprocess (extended pipeline), fill the
        // trace cache, dispatch.
        let mut build = self.slow_build.take().expect("present");
        if self.config.preprocess {
            let info = preprocess::preprocess(&build.dt.trace);
            build.dt.trace.set_preprocess(info);
        }
        self.store.fill_demand(build.dt.trace.clone());
        self.dispatch(build.dt);
    }

    /// Dispatches a trace to the backend and the preconstruction
    /// engine's dispatch observer.
    fn dispatch(&mut self, dt: DynTrace) {
        // RAS maintenance for trace-cache-supplied traces (slow-path
        // builds already popped their returns during the build).
        for ti in dt.trace.instrs() {
            match ti.op.class() {
                OpClass::Call => self.ras.push(ti.pc.next()),
                OpClass::Return => {
                    let _ = self.ras.pop();
                }
                _ => {}
            }
            self.seq += 1;
            self.engine.observe_dispatch(ti.pc, &ti.op, self.seq);
        }
        let timing = self
            .backend
            .dispatch(&dt, self.cycle, self.config.preprocess);
        self.record(SimEvent::Dispatch {
            cycle: self.cycle,
            start: dt.trace.start(),
            len: dt.trace.len() as u8, // narrow: trace len capped at 16 slots
            pe: timing.pe as u8,       // narrow: PE index < pe_count (4)
            source: self.pending_source,
        });
        self.prev_resolve = timing.last_resolve;
        let mut outcome_iter = dt.branch_outcomes.iter();
        let branches: Vec<(Addr, bool)> = dt
            .trace
            .instrs()
            .iter()
            .filter(|ti| ti.op.class() == OpClass::Branch)
            .map(|ti| (ti.pc, *outcome_iter.next().expect("parallel outcomes")))
            .collect();
        let pcs = dt.trace.instrs().iter().map(|ti| ti.pc).collect();
        let recorded = if self.config.record_retirement {
            let mut outcome_iter = dt.branch_outcomes.iter();
            dt.trace
                .instrs()
                .iter()
                .map(|ti| RetiredInstr {
                    pc: ti.pc,
                    taken: if ti.op.class() == OpClass::Branch {
                        *outcome_iter.next().expect("parallel outcomes")
                    } else {
                        false
                    },
                })
                .collect()
        } else {
            Vec::new()
        };
        self.inflight.push_back(Inflight {
            timing,
            branches,
            pcs,
            recorded,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpc_workloads::{Benchmark, WorkloadBuilder};

    fn run(config: SimConfig, benchmark: Benchmark, n: u64) -> SimStats {
        let p = WorkloadBuilder::new(benchmark).seed(1).build();
        let mut sim = Simulator::new(&p, config);
        sim.run(n)
    }

    #[test]
    fn simulation_makes_forward_progress() {
        let s = run(SimConfig::default(), Benchmark::Compress, 20_000);
        assert!(s.retired_instructions >= 20_000);
        assert!(s.cycles > 0);
        assert!(s.ipc() > 0.2, "ipc {}", s.ipc());
        assert!(s.ipc() <= 8.0, "ipc bounded by issue width");
    }

    #[test]
    fn instruction_conservation() {
        // Every retired instruction was supplied exactly once, by
        // the trace cache, buffers, or slow path.
        let s = run(SimConfig::default(), Benchmark::Li, 30_000);
        assert_eq!(
            s.trace_fetches,
            s.trace_cache_hits + s.precon_buffer_hits + s.trace_cache_misses
        );
        assert!(s.retired_traces <= s.trace_fetches);
    }

    #[test]
    fn invariants_hold_across_reset_stats() {
        // gcc under precon:64:32 at 4k + 8k: traces in flight at the
        // reset retire in the window, so the window retires more
        // traces than it fetches. The retired <= fetched law counts
        // them as carried over instead of reporting a violation.
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::with_precon(64, 32));
        sim.run(4_000);
        sim.reset_stats();
        let s = sim.run(8_000);
        assert!(
            s.retired_traces > s.trace_fetches,
            "this cell must exercise the carried-over case"
        );
        assert_eq!(sim.check_invariants(), Ok(()));
    }

    #[test]
    fn small_benchmark_trace_cache_converges() {
        // compress fits in a 256-entry trace cache: after warm-up the
        // miss rate must be near zero.
        let p = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::baseline(256));
        let s = sim.run_with_warmup(100_000, 100_000);
        assert!(
            s.tc_misses_per_kilo() < 5.0,
            "compress misses/kilo {}",
            s.tc_misses_per_kilo()
        );
    }

    #[test]
    fn large_benchmark_stresses_small_trace_cache() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::baseline(64));
        let s = sim.run_with_warmup(50_000, 100_000);
        assert!(
            s.tc_misses_per_kilo() > 10.0,
            "gcc misses/kilo {}",
            s.tc_misses_per_kilo()
        );
    }

    #[test]
    fn preconstruction_reduces_trace_cache_misses() {
        let p = WorkloadBuilder::new(Benchmark::Vortex).seed(1).build();
        let mut base = Simulator::new(&p, SimConfig::baseline(128));
        let sb = base.run_with_warmup(50_000, 150_000);
        let mut precon = Simulator::new(&p, SimConfig::with_precon(128, 128));
        let sp = precon.run_with_warmup(50_000, 150_000);
        assert!(
            sp.tc_misses_per_kilo() < sb.tc_misses_per_kilo(),
            "precon {} vs base {}",
            sp.tc_misses_per_kilo(),
            sb.tc_misses_per_kilo()
        );
        assert!(sp.precon_buffer_hits > 0);
    }

    #[test]
    fn preprocessing_improves_ipc() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
        let mut plain = Simulator::new(&p, SimConfig::baseline(256));
        let s1 = plain.run_with_warmup(50_000, 100_000);
        let mut pre = Simulator::new(&p, SimConfig::baseline(256).with_preprocess());
        let s2 = pre.run_with_warmup(50_000, 100_000);
        assert!(
            s2.ipc() > s1.ipc(),
            "preprocess {} vs plain {}",
            s2.ipc(),
            s1.ipc()
        );
    }

    #[test]
    fn stats_reset_cleans_counters() {
        let p = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::default());
        sim.run(10_000);
        sim.reset_stats();
        let s = sim.stats();
        assert_eq!(s.retired_instructions, 0);
        assert_eq!(s.trace_fetches, 0);
    }

    #[test]
    fn determinism_across_runs() {
        let p = WorkloadBuilder::new(Benchmark::M88ksim).seed(2).build();
        let a = Simulator::new(&p, SimConfig::default()).run(30_000);
        let b = Simulator::new(&p, SimConfig::default()).run(30_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.trace_cache_misses, b.trace_cache_misses);
        assert_eq!(a.retired_instructions, b.retired_instructions);
    }

    #[test]
    fn frontend_breakdown_accounts_every_cycle() {
        let s = run(SimConfig::with_precon(128, 128), Benchmark::Gcc, 40_000);
        assert_eq!(
            s.frontend.total(),
            s.cycles,
            "every cycle is attributed to exactly one activity"
        );
        assert!(s.frontend.dispatched > 0);
        assert!(s.frontend.slow_build > 0, "gcc misses take the slow path");
    }

    #[test]
    fn small_benchmark_is_dispatch_dominated() {
        let p = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::baseline(256));
        let s = sim.run_with_warmup(60_000, 60_000);
        let (dispatched, slow, _, _) = s.frontend.permille();
        assert!(
            dispatched > 400,
            "compress mostly dispatches ({dispatched}‰)"
        );
        assert!(slow < 100, "almost no slow-path time ({slow}‰)");
    }

    #[test]
    fn unified_storage_mode_works_end_to_end() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::unified(256, 1, 4096));
        let s = sim.run_with_warmup(40_000, 80_000);
        assert_eq!(
            s.trace_fetches,
            s.trace_cache_hits + s.precon_buffer_hits + s.trace_cache_misses
        );
        assert!(
            s.precon_buffer_hits > 0,
            "unified precon ways supply traces"
        );
        // And it must beat the same capacity with no preconstruction.
        let mut base = Simulator::new(&p, SimConfig::baseline(256));
        let sb = base.run_with_warmup(40_000, 80_000);
        assert!(
            s.tc_misses_per_kilo() < sb.tc_misses_per_kilo(),
            "unified {:.1} vs baseline {:.1}",
            s.tc_misses_per_kilo(),
            sb.tc_misses_per_kilo()
        );
    }

    #[test]
    fn event_log_captures_pipeline_activity() {
        let p = WorkloadBuilder::new(Benchmark::Li).seed(1).build();
        let mut cfg = SimConfig::with_precon(64, 64);
        cfg.record_events = true;
        let mut sim = Simulator::new(&p, cfg);
        sim.run(20_000);
        let events = sim.events();
        assert!(!events.is_empty());
        let dispatches = events
            .iter()
            .filter(|e| matches!(e, SimEvent::Dispatch { .. }))
            .count();
        let retires = events
            .iter()
            .filter(|e| matches!(e, SimEvent::Retire { .. }))
            .count();
        assert!(dispatches > 0 && retires > 0);
        assert!(
            dispatches >= retires,
            "a trace retires only after dispatching"
        );
        // Events are in non-decreasing cycle order.
        for w in events.windows(2) {
            assert!(w[0].cycle() <= w[1].cycle());
        }
        // All three supply sources appear on this config.
        let sources: std::collections::HashSet<_> = events
            .iter()
            .filter_map(|e| match e {
                SimEvent::Dispatch { source, .. } => Some(*source),
                _ => None,
            })
            .collect();
        assert!(sources.contains(&SupplySource::SlowPath));
        assert!(sources.contains(&SupplySource::TraceCache));
    }

    #[test]
    fn events_off_by_default() {
        let p = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::default());
        sim.run(5_000);
        assert!(sim.events().is_empty());
    }

    #[test]
    fn disabled_engine_never_fetches() {
        let s = run(SimConfig::baseline(128), Benchmark::Gcc, 30_000);
        assert_eq!(s.icache.precon_accesses, 0);
        assert_eq!(s.precon_buffer_hits, 0);
    }

    #[test]
    fn fault_injection_fires_and_lands() {
        let cfg = SimConfig::with_precon(128, 128).with_faults(FaultPlan::all(0xBEEF, 50));
        let s = run(cfg, Benchmark::Gcc, 40_000);
        assert!(s.faults.injected > 0, "plan with 50‰ per kind injects");
        assert!(s.faults.landed > 0, "some faults hit live state");
        assert!(s.faults.landed <= s.faults.injected);
        assert!(s.retired_instructions >= 40_000, "still makes progress");
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let p = WorkloadBuilder::new(Benchmark::Vortex).seed(3).build();
        let cfg = SimConfig::with_precon(128, 128).with_faults(FaultPlan::all(77, 30));
        let a = Simulator::new(&p, cfg.clone()).run(30_000);
        let b = Simulator::new(&p, cfg).run(30_000);
        assert_eq!(a, b, "same plan, same schedule, bit-identical stats");
        assert!(a.faults.injected > 0);
    }

    #[test]
    fn faults_move_stats_but_not_retirement() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(5).build();
        let mut clean_cfg = SimConfig::with_precon(128, 128);
        clean_cfg.record_retirement = true;
        let mut faulty_cfg = clean_cfg.clone().with_faults(FaultPlan::all(99, 100));
        faulty_cfg.record_retirement = true;
        let mut clean = Simulator::new(&p, clean_cfg);
        let mut faulty = Simulator::new(&p, faulty_cfg);
        let sc = clean.run(30_000);
        let sf = faulty.run(30_000);
        assert!(sf.faults.landed > 0, "faults demonstrably fired");
        // Same retired instruction *stream*...
        let rc = clean.take_retirement();
        let rf = faulty.take_retirement();
        assert_eq!(rc.len().min(30_500), rc.len(), "sanity");
        let n = rc.len().min(rf.len());
        assert_eq!(rc[..n], rf[..n], "retirement stream unchanged");
        // ...while performance counters moved.
        let mut sf_zeroed = sf.clone();
        sf_zeroed.faults = FaultStats::default();
        assert_ne!(sc, sf_zeroed, "non-fault counters perturbed");
    }

    #[test]
    fn stats_words_round_trip() {
        let cfg = SimConfig::with_precon(64, 64).with_faults(FaultPlan::all(1, 20));
        let s = run(cfg, Benchmark::Li, 20_000);
        let words = s.to_words();
        assert_eq!(words.len(), SimStats::WORDS);
        let back = SimStats::from_words(&words).expect("well-formed");
        assert_eq!(s, back, "codec is lossless");
        assert!(SimStats::from_words(&words[..10]).is_none());
    }

    #[test]
    fn run_budgeted_completes_within_generous_budget() {
        let p = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::default());
        let s = sim
            .run_budgeted(10_000, 10_000_000)
            .expect("ample budget completes");
        assert!(s.retired_instructions >= 10_000);
    }

    #[test]
    fn run_budgeted_times_out_on_tiny_budget() {
        let p = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
        let mut sim = Simulator::new(&p, SimConfig::default());
        let err = sim
            .run_budgeted(1_000_000, 100)
            .expect_err("100 cycles cannot retire a million instructions");
        assert!(err.cycles >= 100);
        assert!(err.retired < 1_000_000);
        assert!(err.to_string().contains("cycle budget exceeded"));
    }
}
