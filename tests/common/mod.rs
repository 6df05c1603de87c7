//! The case runner shared by the randomised suites under `tests/`.
//!
//! Every property draws its inputs from the in-tree
//! [`XorShift64`], so the suites build offline and run in the
//! default `cargo test`. A suite runs a fixed number of cases; each
//! case gets its own generator, seeded from the suite's stream, so a
//! failing case is replayed by handing `XorShift64::new(seed)` to the
//! property body with the seed the failure prints. There is no
//! shrinking.

use std::panic::{self, AssertUnwindSafe};
use trace_preconstruction::isa::model::XorShift64;

/// Runs `check` on `cases` deterministic cases drawn from
/// `stream_seed`. When a case panics, its index and seed go to
/// stderr before the panic propagates.
pub fn for_each_case(stream_seed: u64, cases: u32, mut check: impl FnMut(&mut XorShift64)) {
    let mut stream = XorShift64::new(stream_seed);
    for case in 0..cases {
        let seed = stream.next_u64();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| check(&mut XorShift64::new(seed))));
        if let Err(payload) = outcome {
            eprintln!(
                "case {case} of {cases} failed (stream seed {stream_seed:#x}, case seed {seed:#x})"
            );
            panic::resume_unwind(payload);
        }
    }
}
