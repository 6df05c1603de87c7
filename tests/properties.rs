//! Property-style tests over randomly generated workloads: the
//! system-level invariants must hold for *every* seed, not just the
//! calibrated profiles' defaults.
//!
//! Cases come from the shared seeded case runner in `common` (no
//! `proptest` dependency), so these are part of the default
//! `cargo test` run. Each property samples a fixed number of
//! (benchmark, seed, shape) cases deterministically; a failure prints
//! the case index and seed plus the (benchmark, seed) pair.

mod common;

use trace_preconstruction::core::MAX_TRACE_LEN;
use trace_preconstruction::exec::Executor;
use trace_preconstruction::isa::model::XorShift64;
use trace_preconstruction::isa::OpClass;
use trace_preconstruction::processor::{SimConfig, Simulator, TraceStream};
use trace_preconstruction::workloads::{Benchmark, WorkloadBuilder};

const CASES: u32 = 12;

const SMALL_BENCHMARKS: [Benchmark; 3] = [Benchmark::Compress, Benchmark::Ijpeg, Benchmark::Li];

/// Draws `CASES` deterministic (benchmark, seed) cases and hands each
/// one (plus the case's PRNG for extra shape parameters) to `check`.
fn for_each_case(stream_seed: u64, mut check: impl FnMut(Benchmark, u64, &mut XorShift64)) {
    common::for_each_case(stream_seed, CASES, |rng| {
        let benchmark = SMALL_BENCHMARKS[rng.next_below(SMALL_BENCHMARKS.len() as u32) as usize];
        let seed = rng.next_below(1_000) as u64;
        check(benchmark, seed, rng);
    });
}

/// Generated programs always validate and execute indefinitely.
#[test]
fn any_seed_builds_and_runs() {
    for_each_case(0xA11_5EED, |benchmark, seed, _| {
        let program = WorkloadBuilder::new(benchmark).seed(seed).build();
        assert!(program.len() > 10, "{benchmark:?}/{seed}");
        let mut ex = Executor::new(&program);
        for _ in 0..20_000 {
            let d = ex.next().expect("endless stream");
            assert!(
                program.fetch(d.pc).is_some(),
                "{benchmark:?}/{seed}: pc stays inside the code"
            );
        }
    });
}

/// Traces partition the dynamic stream: no instruction is lost or
/// duplicated, traces respect the length cap, and consecutive traces
/// chain through their successors.
#[test]
fn traces_partition_stream() {
    for_each_case(0x7AC3_5EED, |benchmark, seed, _| {
        let program = WorkloadBuilder::new(benchmark).seed(seed).build();
        let mut stream = TraceStream::new(&program);
        let mut covered = 0u64;
        let mut prev_succ: Option<trace_preconstruction::isa::Addr> = None;
        for _ in 0..400 {
            let dt = stream.next_trace();
            assert!(
                !dt.is_empty() && dt.len() <= MAX_TRACE_LEN,
                "{benchmark:?}/{seed}"
            );
            if let Some(succ) = prev_succ {
                assert_eq!(
                    succ,
                    dt.trace.start(),
                    "{benchmark:?}/{seed}: alignment chain"
                );
            }
            prev_succ = dt.trace.successor();
            covered += dt.len() as u64;
            // Branch-outcome metadata is exactly parallel.
            let branches = dt
                .trace
                .instrs()
                .iter()
                .filter(|ti| ti.op.class() == OpClass::Branch)
                .count();
            assert_eq!(branches, dt.branch_outcomes.len(), "{benchmark:?}/{seed}");
        }
        assert_eq!(covered, stream.retired(), "{benchmark:?}/{seed}");
    });
}

/// The simulator's conservation law holds under random seeds and
/// random cache shapes.
#[test]
fn fetch_conservation() {
    for_each_case(0xC0_4535, |benchmark, seed, rng| {
        let tc_pow = rng.next_in(6, 8);
        let pb = [0u32, 32, 128][rng.next_below(3) as usize];
        let program = WorkloadBuilder::new(benchmark).seed(seed).build();
        let mut sim = Simulator::new(&program, SimConfig::with_precon(1 << tc_pow, pb));
        let s = sim.run(15_000);
        let case = format!("{benchmark:?}/{seed} tc={} pb={pb}", 1 << tc_pow);
        assert_eq!(
            s.trace_fetches,
            s.trace_cache_hits + s.precon_buffer_hits + s.trace_cache_misses,
            "{case}"
        );
        assert!(s.ipc() > 0.05 && s.ipc() <= 8.0, "{case}: ipc {}", s.ipc());
        if pb == 0 {
            assert_eq!(s.precon_buffer_hits, 0, "{case}");
        }
        sim.check_invariants()
            .unwrap_or_else(|e| panic!("{case}: {e}"));
    });
}
