//! Heap audit of the per-trace path. After warm-up:
//!
//! * producing a trace with `TraceStream::next_trace` makes exactly
//!   one allocation, the trace's shared instruction snapshot;
//! * preprocessing a trace, computing its raw dependences, and
//!   dispatching it to the backend — annotated or not — make none;
//! * a trace constructor forking at a weakly-biased branch makes none,
//!   and resuming the fork copies the saved state (completing a trace
//!   makes the snapshot, as above);
//! * `NextTracePredictor::observe` makes none.
//!
//! Every per-trace table is an inline array bounded by the
//! 16-instruction trace length, so a regression to `Vec` shows up here
//! as a nonzero count.
//!
//! The test binary installs a counting allocator; only allocations
//! made by the test's own thread are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use tpc_core::constructor::{Step, TraceConstructor};
use tpc_core::preprocess::{preprocess, trace_deps, PreprocessInfo};
use tpc_core::EngineConfig;
use tpc_isa::Addr;
use tpc_mem::PrefetchCache;
use tpc_predict::{Bimodal, NextTracePredictor, NtpConfig};
use tpc_processor::backend::{Backend, BackendConfig};
use tpc_processor::{DynTrace, TraceStream};
use tpc_workloads::{Benchmark, WorkloadBuilder};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the wrapper only bumps a thread-local counter, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Dispatches every trace from `cycle` on, releasing its processing
/// element at its completion so the next dispatch finds one free.
fn dispatch_all(backend: &mut Backend, cycle: &mut u64, traces: &[DynTrace]) {
    for dt in traces {
        let timing = backend.dispatch(dt, *cycle);
        *cycle = timing.complete + 1;
        backend.release_pe(timing.pe, *cycle);
        black_box(&timing);
    }
}

/// `traces` with each trace carrying `annotate(&trace)`.
fn annotated(
    traces: &[DynTrace],
    annotate: fn(&tpc_core::Trace) -> PreprocessInfo,
) -> Vec<DynTrace> {
    let mut out = traces.to_vec();
    for dt in &mut out {
        let info = annotate(&dt.trace);
        dt.trace.set_annotation(Arc::new(info));
    }
    out
}

#[test]
fn preprocess_and_dispatch_do_not_allocate() {
    let program = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
    let mut stream = TraceStream::new(&program);
    let plain: Vec<DynTrace> = (0..2_000).map(|_| stream.next_trace()).collect();
    let identity = annotated(&plain, PreprocessInfo::identity);
    let preprocessed = annotated(&plain, preprocess);
    // Touch every data-cache line once so the audited passes measure
    // the steady state.
    let mut backend = Backend::new(BackendConfig::default());
    let mut cycle = 0;
    dispatch_all(&mut backend, &mut cycle, &plain);

    let n = allocations_in(|| {
        for dt in &plain {
            black_box(preprocess(black_box(&dt.trace)));
            black_box(trace_deps(black_box(&dt.trace)));
            black_box(PreprocessInfo::identity(black_box(&dt.trace)));
        }
    });
    assert_eq!(n, 0, "preprocess/trace_deps/identity allocated {n} times");
    let n = allocations_in(|| dispatch_all(&mut backend, &mut cycle, &plain));
    assert_eq!(n, 0, "unannotated dispatch allocated {n} times");
    let n = allocations_in(|| dispatch_all(&mut backend, &mut cycle, &identity));
    assert_eq!(n, 0, "identity-annotated dispatch allocated {n} times");
    let n = allocations_in(|| dispatch_all(&mut backend, &mut cycle, &preprocessed));
    assert_eq!(n, 0, "preprocessed dispatch allocated {n} times");
}

#[test]
fn trace_stream_allocates_one_snapshot_per_trace() {
    for benchmark in [Benchmark::Gcc, Benchmark::Compress] {
        let program = WorkloadBuilder::new(benchmark).seed(1).build();
        let mut stream = TraceStream::new(&program);
        for _ in 0..20_000 {
            black_box(stream.next_trace());
        }
        let traces = 2_000;
        let n = allocations_in(|| {
            for _ in 0..traces {
                black_box(stream.next_trace());
            }
        });
        assert_eq!(
            n, traces,
            "{benchmark:?}: {n} allocations for {traces} traces"
        );
    }
}

#[test]
fn next_trace_predictor_observe_does_not_allocate() {
    let program = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
    let mut stream = TraceStream::new(&program);
    let traces: Vec<_> = (0..6_000).map(|_| stream.next_trace().trace).collect();
    let (warm, measured) = traces.split_at(2_000);
    let mut ntp = NextTracePredictor::new(NtpConfig::default());
    for t in warm {
        ntp.observe(t.key(), t.end());
    }
    let mut correct = 0u64;
    let n = allocations_in(|| {
        for t in measured {
            correct += u64::from(ntp.observe(black_box(t.key()), t.end()));
        }
    });
    assert_eq!(n, 0, "observe allocated {n} times");
    assert!(correct > 0, "the replay exercises correct predictions");
}

/// Drives one constructor from each of the first 200 function
/// entries of gcc with every branch weakly biased (an untrained
/// bimodal table), so every branch forks. Steps that advance — forks
/// included — must not allocate; a completed trace allocates exactly
/// its snapshot.
#[test]
fn constructor_forks_do_not_allocate() {
    let program = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
    let words = (program.len() as u32).div_ceil(16) * 16;
    let mut prefetch = PrefetchCache::new(words);
    for line in (0..words).step_by(16) {
        assert!(prefetch.insert_line(Addr::new(line)));
    }
    let bimodal = Bimodal::new(4096);
    let mut ctor = TraceConstructor::new(EngineConfig::default().decision_depth);
    let (mut forks, mut traces) = (0u64, 0u64);
    for f in program.functions().iter().take(200) {
        ctor.start(f.entry);
        for _ in 0..10_000 {
            let pending = ctor.pending_decisions();
            let mut step = Step::Idle;
            let n = allocations_in(|| step = ctor.step(&program, &prefetch, &bimodal));
            match step {
                Step::Advanced => {
                    assert_eq!(n, 0, "an advancing step allocated {n} times");
                    forks += (ctor.pending_decisions() > pending) as u64;
                }
                Step::TraceDone(t) => {
                    assert_eq!(n, 1, "a completed trace allocated {n} times");
                    traces += 1;
                    drop(t);
                    // Restoring a fork is a copy; the one allocation
                    // allowed is the snapshot of an alternative that
                    // completes on its re-run branch and is discarded.
                    let mut resumed = false;
                    let n = allocations_in(|| resumed = ctor.backtrack(&program));
                    assert!(n <= 1, "backtracking allocated {n} times");
                    if !resumed {
                        break;
                    }
                }
                Step::Idle => break,
                Step::NeedLine(a) => panic!("every line is resident, yet {a} is missing"),
            }
        }
        ctor.abort();
    }
    assert!(
        forks > 100 && traces > 200,
        "{forks} forks, {traces} traces"
    );
}
