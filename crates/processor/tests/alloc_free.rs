//! Heap audit of the per-trace path: preprocessing a trace, computing
//! its raw dependences and dispatching it to the backend must not
//! allocate. Every per-trace table is an inline array bounded by the
//! 16-instruction trace length, so a regression to `Vec` shows up here
//! as a nonzero count.
//!
//! The test binary installs a counting allocator; only allocations
//! made by the test's own thread are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use tpc_core::preprocess::{preprocess, trace_deps};
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
fn dispatch_all(backend: &mut Backend, cycle: &mut u64, traces: &[DynTrace], preprocessed: bool) {
    for dt in traces {
        let timing = backend.dispatch(dt, *cycle, preprocessed);
        *cycle = timing.complete + 1;
        backend.release_pe(timing.pe, *cycle);
        black_box(&timing);
    }
}

#[test]
fn preprocess_and_dispatch_do_not_allocate() {
    let program = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
    let mut stream = TraceStream::new(&program);
    let plain: Vec<DynTrace> = (0..2_000).map(|_| stream.next_trace()).collect();
    let mut annotated = plain.clone();
    for dt in &mut annotated {
        let info = preprocess(&dt.trace);
        dt.trace.set_preprocess(info);
    }
    // Touch every data-cache line once so the audited passes measure
    // the steady state.
    let mut backend = Backend::new(BackendConfig::default());
    let mut cycle = 0;
    dispatch_all(&mut backend, &mut cycle, &plain, false);

    let n = allocations_in(|| {
        for dt in &plain {
            black_box(preprocess(black_box(&dt.trace)));
            black_box(trace_deps(black_box(&dt.trace)));
        }
    });
    assert_eq!(n, 0, "preprocess/trace_deps allocated {n} times");
    let n = allocations_in(|| dispatch_all(&mut backend, &mut cycle, &plain, false));
    assert_eq!(n, 0, "plain dispatch allocated {n} times");
    let n = allocations_in(|| dispatch_all(&mut backend, &mut cycle, &annotated, true));
    assert_eq!(n, 0, "preprocessed dispatch allocated {n} times");
}
