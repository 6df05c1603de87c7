//! Host-speed normalization.
//!
//! On a shared virtual machine the same work can take twice as long
//! from one minute to the next (measured on a 2-vCPU VM: a simulation
//! loop swung between 1.4 and 2.8 Minstr/s within 90 s while steal
//! time stayed under 1 %). A fixed reference kernel, independent of
//! the repository's code, runs in short slices between the measured
//! operations throughout a run; every time the run reports is scaled
//! by [`HostSpeed::scale`] with the median speed of the slices around
//! it, relative to [`NOMINAL_STEPS_PER_S`]. Reported times are
//! therefore host seconds at the kernel's nominal speed: a faster
//! simulator still reads faster, a slower host does not.
//!
//! The kernel is a tiny interpreter over a fixed random program:
//! branchy, cache-resident work, like the simulator's own loop. Over
//! five 30 s sim-small runs on the 2-vCPU VM, dividing by its speed
//! cut the spread of `sim_mips.*` from 0.24–0.29 unscaled to
//! 0.07–0.12; a memory-bound kernel over an 8 MiB table cut it only
//! to 0.12–0.17. The correction is partial where the simulator follows
//! the host more or less steeply than the kernel: between two sets of
//! ten runs whose kernel medians were 1.40 and 0.87, sim-small's
//! unscaled `sim_mips.baseline` moved 1.88x and its scaled one 1.19x,
//! while the daemon's cells on service-sweep tracked the kernel
//! exactly (1.53x unscaled, 1.00x scaled).
//!
//! Each timed pass follows an untimed one, so it starts from the same
//! cache state whatever the measured operation before it evicted: a
//! simulator with a larger working set does not slow the kernel and
//! so cannot hide its own slowdown in the scaling
//! (`tests/host_speed.rs` checks this).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Interpreter steps per second that count as nominal host speed
/// (about the fast phases of the 2-vCPU Xeon VM the benchmark was
/// calibrated on).
pub const NOMINAL_STEPS_PER_S: f64 = 400e6;
/// Slices on each side that [`HostSpeed::scale`] takes the local
/// speed from.
const LOCAL_SLICES: usize = 8;
/// Interpreter steps per pass: about 2.5 ms at nominal speed.
const STEPS: u64 = 1_000_000;
/// Instructions of the interpreted program (64 KiB).
const CODE_LEN: usize = 1 << 14;
/// Least host time between two slices that [`HostSpeed::tick`] runs.
const TICK: Duration = Duration::from_millis(50);

/// One xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One thread's share of the kernel: its program and register state.
#[derive(Debug)]
struct Lane {
    code: Vec<u32>,
    state: u64,
}

impl Lane {
    fn new(lane: u64) -> Lane {
        let mut x = 0x2545_F491_4F6C_DD1D;
        Lane {
            code: (0..CODE_LEN).map(|_| (next(&mut x) >> 20) as u32).collect(),
            state: 0x9E37_79B9_7F4A_7C15 ^ lane,
        }
    }

    /// Runs one slice: an untimed pass, then a timed one; returns the
    /// timed pass's host seconds.
    fn run(&mut self) -> f64 {
        self.pass();
        let start = Instant::now();
        self.pass();
        start.elapsed().as_secs_f64().max(1e-9)
    }

    /// Interprets [`STEPS`] instructions. Each one names an operation
    /// and two of eight registers; the register values are random, so
    /// the dispatch and the conditional jumps mispredict often.
    fn pass(&mut self) {
        let mask = self.code.len() - 1;
        let mut r = [self.state, 1, 2, 3, 4, 5, 6, 7u64];
        let mut pc = 0usize;
        for _ in 0..STEPS {
            let insn = self.code[pc];
            let a = (insn >> 3 & 7) as usize;
            let b = (insn >> 6 & 7) as usize;
            pc = (pc + 1) & mask;
            match insn & 7 {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] ^= r[b].rotate_left(13),
                2 => r[a] = r[a].wrapping_mul(r[b] | 1),
                3 => {
                    next(&mut r[a]);
                }
                4 => {
                    if r[a] & 1 == 0 {
                        pc = (insn >> 9) as usize & mask;
                    }
                }
                5 => r[a] = r[a].wrapping_sub(r[b] >> 3),
                6 => {
                    if r[a] > r[b] {
                        r.swap(a, b);
                    }
                }
                _ => r[a] ^= u64::from(self.code[(r[b] as usize) & mask]),
            }
        }
        self.state = black_box(r.iter().fold(0, |acc, v| acc ^ v)) | 1;
    }
}

/// The reference kernel, run on as many threads as the measured work
/// keeps busy, and the speeds it measured.
#[derive(Debug)]
pub struct HostSpeed {
    lanes: Vec<Lane>,
    samples: Vec<f64>,
    last: Instant,
}

impl HostSpeed {
    /// A kernel over `threads` threads (at least one), with one slice
    /// run. The sim workloads simulate on one thread; the daemon
    /// simulates on every core, and a contended core slows it without
    /// slowing a single-threaded kernel that the scheduler keeps on
    /// the other one.
    pub fn new(threads: usize) -> HostSpeed {
        let mut speed = HostSpeed {
            lanes: (0..threads.max(1) as u64).map(Lane::new).collect(),
            samples: Vec::new(),
            last: Instant::now(),
        };
        speed.slice();
        speed
    }

    /// Runs one slice on every thread at once; returns the mean host
    /// speed they measured (1.0 = nominal, 0.5 = the host currently
    /// runs at half speed).
    pub fn slice(&mut self) -> f64 {
        let seconds: Vec<f64> = match self.lanes.split_first_mut() {
            Some((first, [])) => vec![first.run()],
            Some((first, rest)) => std::thread::scope(|scope| {
                let handles: Vec<_> = rest
                    .iter_mut()
                    .map(|lane| scope.spawn(|| lane.run()))
                    .collect();
                let mut seconds = vec![first.run()];
                for handle in handles {
                    seconds.push(handle.join().expect("kernel threads do not panic"));
                }
                seconds
            }),
            None => Vec::new(),
        };
        let speed = seconds
            .iter()
            .map(|s| STEPS as f64 / s / NOMINAL_STEPS_PER_S)
            .sum::<f64>()
            / seconds.len() as f64;
        self.samples.push(speed);
        self.last = Instant::now();
        speed
    }

    /// Runs a slice if `TICK` has passed since the last one; called
    /// after every measured operation, it samples the host about every
    /// `TICK` however short the operations are.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= TICK {
            self.slice();
        }
    }

    /// The median slice speed so far (1.0 = nominal, 0.5 = the host
    /// ran at half speed), for reports; times are scaled by the local
    /// speed instead (see [`HostSpeed::scale`]).
    pub fn median(&self) -> f64 {
        crate::report::median(&self.samples)
    }

    /// Index of the latest slice, to pass to [`HostSpeed::scale`].
    pub fn latest(&self) -> usize {
        self.samples.len().saturating_sub(1)
    }

    /// Scales host times by the host speed around when each was taken:
    /// `(time, latest())` pairs become times scaled by the median of
    /// the slices within `LOCAL_SLICES` of that slice (about 0.4 s
    /// either side at one slice per `TICK`), so a slow stretch of a
    /// few seconds scales the times taken in it, not the whole run.
    pub fn scale(&self, times: &[(f64, usize)]) -> Vec<f64> {
        times
            .iter()
            .map(|&(time, at)| {
                let lo = at.saturating_sub(LOCAL_SLICES);
                let hi = (at + LOCAL_SLICES + 1).min(self.samples.len());
                time * crate::report::median(&self.samples[lo..hi])
            })
            .collect()
    }

    /// Every speed measured so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}
