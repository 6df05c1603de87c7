//! Layer replays. The trace stream, next-trace predictor, trace store
//! and preprocessor are driven through their public functions over
//! the exact input sequence the simulator feeds them in a
//! `baseline_256` cell; the replay is timed over the measure window
//! and its counts are checked against the cell's `SimStats`.
//!
//! In `baseline_256` the engine is off, so the store sees only the
//! processor's fetch probes and the fill unit's demand fills, and the
//! predictor sees one `predict`+`observe` per fetched trace: both
//! sequences follow from the trace stream alone.

use crate::cells::{elapsed_ns, Config, Window};
use crate::gate::Gate;
use crate::spans::Tracer;
use std::hint::black_box;
use std::time::Instant;
use tpc_core::{preprocess, SplitStore, Trace, TraceStore};
use tpc_isa::Program;
use tpc_predict::NextTracePredictor;
use tpc_processor::{SimStats, Simulator, TraceStream};

/// Host time and counts one replay measured over the window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Replay {
    /// Traces the stream produced in the window.
    pub stream_traces: u64,
    /// Instructions in those traces.
    pub stream_instructions: u64,
    /// `TraceStream::next_trace` time.
    pub stream_ns: u64,
    /// `NextTracePredictor::predict` + `observe` time.
    pub ntp_ns: u64,
    /// Replayed next-trace mispredictions.
    pub ntp_mispredicts: u64,
    /// `SplitStore::fetch` + `fill_demand` time.
    pub store_ns: u64,
    /// `tpc_core::preprocess` calls replayed.
    pub preprocess_calls: u64,
    /// Their time.
    pub preprocess_ns: u64,
}

impl Replay {
    /// Sums two replays.
    pub fn add(&mut self, other: &Replay) {
        self.stream_traces += other.stream_traces;
        self.stream_instructions += other.stream_instructions;
        self.stream_ns += other.stream_ns;
        self.ntp_ns += other.ntp_ns;
        self.ntp_mispredicts += other.ntp_mispredicts;
        self.store_ns += other.store_ns;
        self.preprocess_calls += other.preprocess_calls;
        self.preprocess_ns += other.preprocess_ns;
    }
}

/// Steps until a cycle in which a trace was fetched, so no later
/// trace has been drawn from the stream or predicted yet.
fn step_to_fetch(sim: &mut Simulator<tpc_exec::Executor<'_>>) {
    let fetched = sim.stats().trace_fetches;
    while sim.stats().trace_fetches == fetched {
        sim.step();
    }
}

/// Runs `baseline_256` with both window edges moved to the next
/// fetch; returns the fetches before the window and the window's
/// statistics.
fn aligned_baseline(program: &Program, window: Window) -> (u64, SimStats) {
    let mut sim = Simulator::new(program, Config::Baseline.spec().to_sim_config());
    sim.run(window.warmup);
    step_to_fetch(&mut sim);
    let before = sim.stats().trace_fetches;
    sim.reset_stats();
    sim.run(window.measure);
    step_to_fetch(&mut sim);
    (before, sim.stats())
}

/// Replays every layer for one program and checks the replayed
/// counts against the aligned baseline run: NTP mispredictions, store
/// hits and misses (every store counter), and the stream's trace
/// count against `trace_fetches`. Each check is one gate operation.
pub fn replay(
    program: &Program,
    window: Window,
    tracer: &mut Tracer,
    gate: &mut Gate,
    cell: u32,
) -> Replay {
    let id = Some(cell);
    let span = tracer.begin("replay.baseline_run", id);
    let (before, stats) = aligned_baseline(program, window);
    tracer.end(span);
    let in_window = stats.trace_fetches;

    let span = tracer.begin("replay.stream", id);
    let mut stream = TraceStream::new(program);
    let mut traces: Vec<Trace> = (0..before).map(|_| stream.next_trace().trace).collect();
    let start = Instant::now();
    for _ in 0..in_window {
        traces.push(black_box(stream.next_trace()).trace);
    }
    let stream_ns = elapsed_ns(start);
    tracer.end(span);
    let (warm, measured) = traces.split_at(traces.len() - in_window as usize);
    let stream_instructions = measured.iter().map(|t| t.len() as u64).sum();

    let span = tracer.begin("replay.ntp", id);
    let mut ntp = NextTracePredictor::new(Config::Baseline.spec().to_sim_config().ntp);
    for t in warm {
        ntp.observe(t.key(), t.end());
    }
    let mut ntp_mispredicts = 0;
    let start = Instant::now();
    for t in measured {
        if black_box(ntp.predict()) != Some(t.key()) {
            ntp_mispredicts += 1;
        }
        ntp.observe(t.key(), t.end());
    }
    let ntp_ns = elapsed_ns(start);
    tracer.end(span);

    let span = tracer.begin("replay.store", id);
    let config = Config::Baseline.spec().to_sim_config();
    let mut store = SplitStore::new(config.trace_cache_entries, 0);
    for t in warm {
        if !store.fetch(t.key()).hit {
            store.fill_demand(t.clone());
        }
    }
    store.reset_counters();
    let start = Instant::now();
    for t in measured {
        if !black_box(store.fetch(t.key())).hit {
            store.fill_demand(t.clone());
        }
    }
    let store_ns = elapsed_ns(start);
    tracer.end(span);
    let counters = store.counters();

    let span = tracer.begin("replay.preprocess", id);
    let start = Instant::now();
    for t in measured {
        black_box(preprocess(black_box(t)));
    }
    let preprocess_ns = elapsed_ns(start);
    tracer.end(span);

    gate.expect(ntp_mispredicts == stats.ntp_mispredicts, || {
        format!(
            "cell {cell}: replayed NTP mispredicts {ntp_mispredicts} != SimStats {}",
            stats.ntp_mispredicts
        )
    });
    gate.expect(
        counters == stats.store
            && counters.tc_hits == stats.trace_cache_hits
            && counters.misses == stats.trace_cache_misses,
        || {
            format!(
                "cell {cell}: replayed store {counters:?} != SimStats {:?}",
                stats.store
            )
        },
    );
    gate.expect(
        in_window == stats.trace_fetches && counters.fetches == stats.trace_fetches,
        || {
            format!(
                "cell {cell}: stream replayed {in_window} traces, store saw {}, SimStats fetched {}",
                counters.fetches, stats.trace_fetches
            )
        },
    );
    Replay {
        stream_traces: in_window,
        stream_instructions,
        stream_ns,
        ntp_ns,
        ntp_mispredicts,
        store_ns,
        preprocess_calls: measured.len() as u64,
        preprocess_ns,
    }
}
