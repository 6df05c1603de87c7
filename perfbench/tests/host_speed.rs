//! The host-speed kernel must not feel the working set of the
//! operation measured before it, or a simulator that grew its working
//! set would slow the kernel and hide its own slowdown in the factor.
//!
//! Timing-dependent, so ignored by default; run on a quiet host with
//! `cargo test --release --test host_speed -- --ignored --nocapture`.

use perfbench::host::HostSpeed;
use perfbench::report::median;
use std::hint::black_box;

/// Random read-modify-writes over `table`, standing in for a measured
/// operation with that working set.
fn touch(table: &mut [u64], state: &mut u64) {
    let mask = table.len() - 1;
    for _ in 0..2_000_000 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let i = (*state as usize) & mask;
        table[i] = table[i].wrapping_add(*state);
    }
}

#[test]
#[ignore = "timing-dependent: run on a quiet host"]
fn a_large_working_set_before_a_slice_does_not_slow_it() {
    let mut small = vec![1u64; 1 << 15]; // 256 KiB
    let mut large = vec![1u64; 1 << 22]; // 32 MiB
    let mut speed = HostSpeed::new(1);
    let (mut after_small, mut after_large) = (Vec::new(), Vec::new());
    let mut state = 0x1234_5678;
    for _ in 0..300 {
        touch(&mut small, &mut state);
        after_small.push(speed.slice());
        touch(&mut large, &mut state);
        after_large.push(speed.slice());
    }
    black_box((&small, &large));
    let ratio = median(&after_large) / median(&after_small);
    println!("slice speed after 32 MiB / after 256 KiB: {ratio:.4}");
    assert!(
        ratio > 0.97,
        "the kernel felt the preceding working set: {ratio:.4}"
    );
}
