//! Component properties: the instruction encoding, the executor's
//! ALU, the set-associative cache, the predictors, the trace builder
//! and the backend scheduler each agree with an independent reference
//! model, or keep their stated invariants, on random inputs.
//!
//! Inputs come from the shared seeded case runner in `common`: 256 cases
//! per property, 128 for the two backend properties. Each property
//! also tallies the situations it exists to exercise (an eviction, a
//! stack overflow, every trace-stop reason, a saturated memory port)
//! and fails if its generator never reached them, so a property
//! cannot pass vacuously.

mod common;

use common::for_each_case;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use trace_preconstruction::core::preprocess::{latency::op_latency, trace_deps, PerInstr};
use trace_preconstruction::core::{
    preprocess, PushResult, Resolution, TraceBuilder, TraceStop, ALIGN_QUANTUM, MAX_TRACE_LEN,
};
use trace_preconstruction::exec::Executor;
use trace_preconstruction::isa::encode::{decode, encode};
use trace_preconstruction::isa::model::XorShift64;
use trace_preconstruction::isa::{Addr, BranchCond, Op, OpClass, ProgramBuilder, Reg};
use trace_preconstruction::mem::{CacheGeometry, SetAssocCache};
use trace_preconstruction::predict::{
    Bias, Bimodal, NextTracePredictor, NtpConfig, ReturnAddressStack, TraceEnd, TraceKey,
};
use trace_preconstruction::processor::backend::{Backend, BackendConfig};
use trace_preconstruction::processor::DynTrace;

/// Cases per property (the classic property-testing default).
const CASES: u32 = 256;
/// Cases per backend property: each one schedules a whole trace.
const BACKEND_CASES: u32 = 128;

/// A value uniform in `[lo, hi]`.
fn int_in(rng: &mut XorShift64, lo: i32, hi: i32) -> i32 {
    let span = (i64::from(hi) - i64::from(lo) + 1) as u32;
    (i64::from(lo) + i64::from(rng.next_below(span))) as i32
}

/// A length uniform in `[lo, hi)`.
fn len_in(rng: &mut XorShift64, lo: usize, hi: usize) -> usize {
    lo + rng.next_below((hi - lo) as u32) as usize
}

fn coin(rng: &mut XorShift64) -> bool {
    rng.chance(1, 2)
}

// ---------------------------------------------------------------- isa

/// Opcode names of [`Op`], in the generator's order.
const OP_KINDS: [&str; 14] = [
    "add", "xor", "shl", "addi", "li", "load", "store", "branch", "jump", "call", "ret", "jr",
    "halt", "nop",
];

/// One op drawn from the full encodable range of every field.
fn arb_op(rng: &mut XorShift64) -> (usize, Op) {
    let reg = |rng: &mut XorShift64| Reg::new(rng.next_below(32) as u8);
    let kind = rng.next_below(OP_KINDS.len() as u32) as usize;
    let op = match kind {
        0 => Op::Add {
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
        1 => Op::Xor {
            rd: reg(rng),
            rs1: reg(rng),
            rs2: reg(rng),
        },
        2 => Op::Shl {
            rd: reg(rng),
            rs1: reg(rng),
            shamt: rng.next_below(32) as u8,
        },
        3 => Op::AddImm {
            rd: reg(rng),
            rs1: reg(rng),
            imm: int_in(rng, -32768, 32767),
        },
        4 => Op::LoadImm {
            rd: reg(rng),
            imm: int_in(rng, -(1 << 20), (1 << 20) - 1),
        },
        5 => Op::Load {
            rd: reg(rng),
            base: reg(rng),
            offset: int_in(rng, -32768, 32767),
        },
        6 => Op::Store {
            src: reg(rng),
            base: reg(rng),
            offset: int_in(rng, -32768, 32767),
        },
        7 => Op::Branch {
            cond: BranchCond::ALL[rng.next_below(4) as usize],
            rs1: reg(rng),
            rs2: reg(rng),
            target: Addr::new(rng.next_below(65536)),
        },
        8 => Op::Jump {
            target: Addr::new(rng.next_below(1 << 26)),
        },
        9 => Op::Call {
            target: Addr::new(rng.next_below(1 << 26)),
        },
        10 => Op::Return,
        11 => Op::IndirectJump { rs1: reg(rng) },
        12 => Op::Halt,
        _ => Op::Nop,
    };
    (kind, op)
}

/// Every op in the encodable range survives `encode` then `decode`.
#[test]
fn encode_decode_roundtrip() {
    let mut kinds_seen = [false; OP_KINDS.len()];
    for_each_case(0x15A_C0DE, CASES, |rng| {
        let (kind, op) = arb_op(rng);
        kinds_seen[kind] = true;
        let word = encode(&op).unwrap_or_else(|e| panic!("{op:?} is in range: {e:?}"));
        assert_eq!(decode(word).expect("valid word"), op, "word {word:#010x}");
    });
    for (kind, seen) in OP_KINDS.iter().zip(kinds_seen) {
        assert!(seen, "no `{kind}` op was generated");
    }
}

// --------------------------------------------------------------- exec

/// ALU opcodes the executor property draws from.
const ALU_KINDS: usize = 11;

/// One ALU op over registers r0–r15, and its kind index.
fn alu_op(rng: &mut XorShift64) -> (usize, Op) {
    let reg = |rng: &mut XorShift64| Reg::new(rng.next_below(16) as u8);
    let (rd, rs1, rs2) = (reg(rng), reg(rng), reg(rng));
    let kind = rng.next_below(ALU_KINDS as u32) as usize;
    let op = match kind {
        0 => Op::Add { rd, rs1, rs2 },
        1 => Op::Sub { rd, rs1, rs2 },
        2 => Op::And { rd, rs1, rs2 },
        3 => Op::Or { rd, rs1, rs2 },
        4 => Op::Xor { rd, rs1, rs2 },
        5 => Op::Shl {
            rd,
            rs1,
            shamt: rng.next_below(32) as u8,
        },
        6 => Op::Shr {
            rd,
            rs1,
            shamt: rng.next_below(32) as u8,
        },
        7 => Op::AddImm {
            rd,
            rs1,
            imm: int_in(rng, -1000, 999),
        },
        8 => Op::LoadImm {
            rd,
            imm: int_in(rng, -1000, 999),
        },
        9 => Op::Mul { rd, rs1, rs2 },
        _ => Op::Div { rd, rs1, rs2 },
    };
    (kind, op)
}

/// What the reference run saw besides the final registers.
#[derive(Default)]
struct AluEvents {
    divisions_by_zero: u32,
    writes_to_r0: u32,
}

/// Independent interpretation of the same semantics.
fn reference(ops: &[Op], events: &mut AluEvents) -> [i64; 32] {
    let mut regs = [0i64; 32];
    for op in ops {
        let r = |reg: Reg| regs[reg.index()];
        let (rd, v) = match *op {
            Op::Add { rd, rs1, rs2 } => (rd, r(rs1).wrapping_add(r(rs2))),
            Op::Sub { rd, rs1, rs2 } => (rd, r(rs1).wrapping_sub(r(rs2))),
            Op::And { rd, rs1, rs2 } => (rd, r(rs1) & r(rs2)),
            Op::Or { rd, rs1, rs2 } => (rd, r(rs1) | r(rs2)),
            Op::Xor { rd, rs1, rs2 } => (rd, r(rs1) ^ r(rs2)),
            Op::Shl { rd, rs1, shamt } => (rd, (r(rs1) as u64).wrapping_shl(shamt.into()) as i64),
            Op::Shr { rd, rs1, shamt } => (rd, ((r(rs1) as u64) >> shamt) as i64),
            Op::AddImm { rd, rs1, imm } => (rd, r(rs1).wrapping_add(imm.into())),
            Op::LoadImm { rd, imm } => (rd, imm.into()),
            Op::Mul { rd, rs1, rs2 } => (rd, r(rs1).wrapping_mul(r(rs2))),
            Op::Div { rd, rs2, .. } if r(rs2) == 0 => {
                events.divisions_by_zero += 1;
                (rd, 0)
            }
            Op::Div { rd, rs1, rs2 } => (rd, r(rs1).wrapping_div(r(rs2))),
            other => unreachable!("not an ALU op: {other:?}"),
        };
        if rd == Reg::ZERO {
            events.writes_to_r0 += 1;
        } else {
            regs[rd.index()] = v;
        }
    }
    regs
}

/// The executor's ALU agrees with the reference interpreter on random
/// straight-line programs. Register values are read back through
/// store effective addresses (the executor folds them into its 1 MiB
/// data footprint).
#[test]
fn alu_semantics_match_reference() {
    const MASK: u64 = (1 << 20) - 1;
    let mut kinds_seen = [false; ALU_KINDS];
    let mut events = AluEvents::default();
    for_each_case(0xA1_5E3A, CASES, |rng| {
        let ops: Vec<Op> = (0..len_in(rng, 1, 60))
            .map(|_| {
                let (kind, op) = alu_op(rng);
                kinds_seen[kind] = true;
                op
            })
            .collect();
        let mut b = ProgramBuilder::new();
        for &op in &ops {
            b.push(op);
        }
        for i in 0..16u8 {
            b.push(Op::Store {
                src: Reg::ZERO,
                base: Reg::new(i),
                offset: 0,
            });
        }
        b.push(Op::Halt);
        let p = b.build().expect("valid straight-line program");
        let expected = reference(&ops, &mut events);

        let mut ex = Executor::new(&p);
        for _ in 0..ops.len() {
            ex.next();
        }
        for (i, &want) in expected.iter().take(16).enumerate() {
            let d = ex.next().expect("store");
            assert_eq!(
                d.mem_addr,
                Some((want as u64) & MASK),
                "register r{i} value mismatch after {ops:?}"
            );
        }
    });
    assert!(kinds_seen.iter().all(|&k| k), "every ALU op generated");
    assert!(events.divisions_by_zero > 0, "a division by zero");
    assert!(events.writes_to_r0 > 0, "a write to the zero register");
}

// ---------------------------------------------------------------- mem

/// Straightforward reference: one MRU-ordered list per set.
struct RefCache {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
}

impl RefCache {
    fn new(sets: u32, ways: u32) -> Self {
        RefCache {
            sets: (0..sets).map(|_| VecDeque::new()).collect(),
            ways: ways as usize,
        }
    }

    fn set(&mut self, key: u64) -> &mut VecDeque<u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[(key % n) as usize]
    }

    /// Moves `key` to the MRU position if present.
    fn touch(&mut self, key: u64) -> bool {
        let list = self.set(key);
        match list.iter().position(|&k| k == key) {
            Some(pos) => {
                list.remove(pos);
                list.push_front(key);
                true
            }
            None => false,
        }
    }

    fn probe(&mut self, key: u64) -> bool {
        self.set(key).contains(&key)
    }

    fn fill(&mut self, key: u64) -> Option<u64> {
        if self.touch(key) {
            return None;
        }
        let ways = self.ways;
        let list = self.set(key);
        list.push_front(key);
        if list.len() > ways {
            list.pop_back()
        } else {
            None
        }
    }

    fn invalidate(&mut self, key: u64) -> bool {
        let list = self.set(key);
        match list.iter().position(|&k| k == key) {
            Some(pos) => {
                list.remove(pos);
                true
            }
            None => false,
        }
    }
}

/// `SetAssocCache` agrees with per-set LRU lists on arbitrary
/// access/probe/fill/invalidate sequences over 1–8 sets of 1–4 ways.
#[test]
fn set_assoc_matches_reference() {
    let (mut hits, mut evictions, mut invalidations) = (0u32, 0u32, 0u32);
    for_each_case(0xCAC4E, CASES, |rng| {
        let sets = 1 << rng.next_below(4);
        let ways = rng.next_in(1, 4);
        let mut dut = SetAssocCache::new(CacheGeometry::new(sets, ways));
        let mut reference = RefCache::new(sets, ways);
        let ops = len_in(rng, 0, 300);
        for i in 0..ops {
            let k = u64::from(rng.next_below(64));
            let case = format!("op #{i} key {k}, {sets} sets x {ways} ways");
            match rng.next_below(4) {
                0 => {
                    let hit = reference.touch(k);
                    hits += u32::from(hit);
                    assert_eq!(dut.access(k), hit, "access {case}");
                }
                1 => assert_eq!(dut.probe(k), reference.probe(k), "probe {case}"),
                2 => {
                    let victim = reference.fill(k);
                    evictions += u32::from(victim.is_some());
                    assert_eq!(dut.fill(k), victim, "fill {case}");
                }
                _ => {
                    let present = reference.invalidate(k);
                    invalidations += u32::from(present);
                    assert_eq!(dut.invalidate(k), present, "invalidate {case}");
                }
            }
        }
        let ref_occ: usize = reference.sets.iter().map(VecDeque::len).sum();
        assert_eq!(dut.occupancy(), ref_occ);
    });
    assert!(hits > 0, "an access hit");
    assert!(evictions > 0, "a fill evicted a way");
    assert!(invalidations > 0, "an invalidation removed a line");
}

// ------------------------------------------------------------ predict

/// Reference 2-bit saturating counter.
fn ref_update(c: u8, taken: bool) -> u8 {
    if taken {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
}

/// The bimodal predictor behaves exactly like an array of 2-bit
/// saturating counters under arbitrary update sequences.
#[test]
fn bimodal_matches_reference() {
    let mut states_seen = [false; 4];
    for_each_case(0xB1_3D, CASES, |rng| {
        let entries = 16usize;
        let mut dut = Bimodal::new(entries);
        let mut reference = vec![1u8; entries];
        for _ in 0..len_in(rng, 0, 300) {
            let pc = rng.next_below(32);
            let taken = coin(rng);
            let idx = pc as usize % entries;
            let addr = Addr::new(pc);
            states_seen[reference[idx] as usize] = true;
            assert_eq!(dut.predict(addr), reference[idx] >= 2, "pc {pc}");
            assert_eq!(dut.counter(addr), reference[idx], "pc {pc}");
            let expected_bias = match reference[idx] {
                0 => Bias::StronglyNotTaken,
                3 => Bias::StronglyTaken,
                _ => Bias::Weak,
            };
            assert_eq!(dut.bias(addr), expected_bias, "pc {pc}");
            dut.update(addr, taken);
            reference[idx] = ref_update(reference[idx], taken);
        }
    });
    assert_eq!(states_seen, [true; 4], "every counter state reached");
}

/// The RAS behaves as a bounded stack that drops its oldest entry on
/// overflow and predicts nothing on underflow.
#[test]
fn ras_matches_reference() {
    let (mut overflows, mut underflows) = (0u32, 0u32);
    for_each_case(0x4A5, CASES, |rng| {
        let cap = len_in(rng, 1, 16);
        let mut dut = ReturnAddressStack::new(cap);
        let mut reference: Vec<u32> = Vec::new();
        for _ in 0..len_in(rng, 0, 200) {
            let is_push = coin(rng);
            let v = rng.next_below(1000);
            if is_push {
                dut.push(Addr::new(v));
                if reference.len() == cap {
                    overflows += 1;
                    reference.remove(0);
                }
                reference.push(v);
            } else {
                underflows += u32::from(reference.is_empty());
                assert_eq!(dut.pop().map(|a| a.word()), reference.pop(), "cap {cap}");
            }
            assert_eq!(dut.depth(), reference.len(), "cap {cap}");
            assert_eq!(
                dut.top().map(|a| a.word()),
                reference.last().copied(),
                "cap {cap}"
            );
        }
    });
    assert!(overflows > 0, "a push overflowed the stack");
    assert!(underflows > 0, "a pop found the stack empty");
}

/// A repeating sequence of 2–9 distinct traces is fully predicted
/// after six warm-up laps, whatever the traces' start addresses.
#[test]
fn ntp_learns_any_cycle() {
    let mut lengths_seen = BTreeSet::new();
    for_each_case(0x7_C1C1E, CASES, |rng| {
        let want = len_in(rng, 2, 10);
        let mut starts = BTreeSet::new();
        let mut keys = Vec::new();
        while keys.len() < want {
            let s = rng.next_below(10_000);
            if starts.insert(s) {
                keys.push(TraceKey {
                    start: Addr::new(s * 16),
                    branch_count: 0,
                    outcomes: 0,
                });
            }
        }
        lengths_seen.insert(want);
        let mut p = NextTracePredictor::new(NtpConfig::default());
        for _ in 0..6 {
            for &k in &keys {
                p.observe(k, TraceEnd::Fallthrough);
            }
        }
        let mut correct = 0;
        for &k in &keys {
            if p.predict() == Some(k) {
                correct += 1;
            }
            p.observe(k, TraceEnd::Fallthrough);
        }
        assert_eq!(correct, keys.len(), "cycle {keys:?} not fully learned");
    });
    assert_eq!(
        lengths_seen,
        (2..10).collect::<BTreeSet<_>>(),
        "every cycle length from 2 to 9 generated"
    );
}

// --------------------------------------------------------------- core

/// A generator-friendly instruction menu: ops placed along the
/// followed path, with branch direction and backwardness encoded.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Alu,
    Load,
    Store,
    FwdBranch { taken: bool },
    BackBranch { taken: bool },
    Jump,
    Call,
    Return,
    Indirect,
    Halt,
}

/// 1–39 shapes. A quarter of the cases draw only non-terminating,
/// forward-flowing shapes, so traces that fill to [`MAX_TRACE_LEN`]
/// are common rather than a rarity.
fn builder_shapes(rng: &mut XorShift64) -> Vec<Shape> {
    let straight = rng.chance(1, 4);
    let len = len_in(rng, 1, 40);
    (0..len)
        .map(|_| {
            // Weights 4:2:1:1:2:1 over the forward-flowing shapes,
            // then 2:1:1:1 over backward branches and terminators.
            let pick = rng.next_below(if straight { 11 } else { 16 });
            match pick {
                0..=3 => Shape::Alu,
                4..=5 => Shape::Load,
                6 => Shape::Store,
                7 => Shape::Jump,
                8..=9 => Shape::FwdBranch { taken: coin(rng) },
                10 => Shape::Call,
                11..=12 => Shape::BackBranch { taken: coin(rng) },
                13 => Shape::Return,
                14 => Shape::Indirect,
                _ => Shape::Halt,
            }
        })
        .collect()
}

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// The trace builder's selection rules hold for arbitrary
/// instruction and outcome sequences: length cap, identity, branch
/// outcomes, each stop reason's post-condition and the alignment
/// bound past the last backward branch.
#[test]
fn builder_invariants() {
    let mut stops_seen = BTreeSet::new();
    let mut incomplete = 0u32;
    for_each_case(0xB0_11D, CASES, |rng| {
        let shapes = builder_shapes(rng);
        let start = Addr::new(1000);
        let mut b = TraceBuilder::new(start);
        let mut pc = start;
        let mut pushed = 0usize;
        let mut branch_outcomes: Vec<bool> = Vec::new();
        let mut last_backward: Option<usize> = None;

        let mut completed = None;
        for shape in &shapes {
            let branch = |taken: bool, target: Addr| {
                let next_pc = if taken { target } else { pc.next() };
                (
                    Op::Branch {
                        cond: BranchCond::Ne,
                        rs1: r(1),
                        rs2: r(2),
                        target,
                    },
                    Resolution::Branch { taken, next_pc },
                )
            };
            let (op, resolution) = match *shape {
                Shape::Alu => (
                    Op::AddImm {
                        rd: r(1),
                        rs1: r(2),
                        imm: 1,
                    },
                    Resolution::None,
                ),
                Shape::Load => (
                    Op::Load {
                        rd: r(1),
                        base: r(2),
                        offset: 0,
                    },
                    Resolution::None,
                ),
                Shape::Store => (
                    Op::Store {
                        src: r(1),
                        base: r(2),
                        offset: 0,
                    },
                    Resolution::None,
                ),
                Shape::FwdBranch { taken } => branch(taken, pc + 10),
                Shape::BackBranch { taken } => {
                    branch(taken, Addr::new(pc.word().saturating_sub(5)))
                }
                Shape::Jump => (Op::Jump { target: pc + 7 }, Resolution::None),
                Shape::Call => (Op::Call { target: pc + 9 }, Resolution::None),
                Shape::Return => (Op::Return, Resolution::Target(pc + 3)),
                Shape::Indirect => (Op::IndirectJump { rs1: r(4) }, Resolution::None),
                Shape::Halt => (Op::Halt, Resolution::None),
            };
            if let Resolution::Branch { taken, .. } = resolution {
                branch_outcomes.push(taken);
                if op.is_backward_branch(pc) {
                    last_backward = Some(pushed);
                }
            }
            pushed += 1;
            match b.push(pc, op, resolution) {
                PushResult::Continue(next) => pc = next,
                PushResult::Complete(t) => {
                    completed = Some(t);
                    break;
                }
            }
        }

        let Some(t) = completed else {
            // No completion: the builder must still be within bounds.
            incomplete += 1;
            assert!(pushed < MAX_TRACE_LEN, "{shapes:?}");
            return;
        };
        let case = format!("{shapes:?} -> {:?}", t.stop());
        stops_seen.insert(format!("{:?}", t.stop()));
        // Length and identity invariants.
        assert!(!t.is_empty() && t.len() <= MAX_TRACE_LEN, "{case}");
        assert_eq!(t.len(), pushed, "{case}");
        assert_eq!(t.start(), start, "{case}");
        assert_eq!(
            t.key().branch_count as usize,
            branch_outcomes.len(),
            "{case}"
        );
        for (i, &taken) in branch_outcomes.iter().enumerate() {
            assert_eq!(t.branch_outcome(i as u8), Some(taken), "{case}");
        }
        // Stop-rule post-conditions.
        let last = t.instrs().last().expect("non-empty").op.class();
        match t.stop() {
            TraceStop::Full => assert_eq!(t.len(), MAX_TRACE_LEN, "{case}"),
            TraceStop::Return => assert_eq!(last, OpClass::Return, "{case}"),
            TraceStop::IndirectJump => assert_eq!(last, OpClass::IndirectJump, "{case}"),
            TraceStop::Halt => assert_eq!(last, OpClass::Halt, "{case}"),
            TraceStop::Alignment => {
                let p = last_backward.expect("alignment needs a backward branch");
                let past = t.len() - 1 - p;
                assert!(
                    past > 0 && past.is_multiple_of(ALIGN_QUANTUM),
                    "{case}: ends a positive multiple of {ALIGN_QUANTUM} past the \
                     backward branch, got {past}"
                );
            }
        }
        // Alignment bound: never more than ALIGN_QUANTUM instructions
        // past the most recent backward branch.
        if let Some(p) = last_backward {
            assert!(t.len() - 1 - p <= ALIGN_QUANTUM, "{case}");
        }
    });
    let every_stop: BTreeSet<String> = ["Full", "Return", "IndirectJump", "Halt", "Alignment"]
        .into_iter()
        .map(String::from)
        .collect();
    assert_eq!(stops_seen, every_stop, "every TraceStop reason reached");
    assert!(incomplete > 0, "a shape list that never completed a trace");
}

// ---------------------------------------------------------- processor

/// 1–14 ops over registers r0–r11.
fn backend_ops(rng: &mut XorShift64) -> Vec<Op> {
    let reg = |rng: &mut XorShift64| Reg::new(rng.next_below(12) as u8);
    (0..len_in(rng, 1, 15))
        .map(|_| {
            let (rd, rs1, rs2) = (reg(rng), reg(rng), reg(rng));
            let offset = rng.next_below(512) as i32;
            match rng.next_below(5) {
                0 => Op::Add { rd, rs1, rs2 },
                1 => Op::AddImm { rd, rs1, imm: 1 },
                2 => Op::Mul { rd, rs1, rs2 },
                3 => Op::Load {
                    rd,
                    base: rs1,
                    offset,
                },
                _ => Op::Store {
                    src: rd,
                    base: rs1,
                    offset,
                },
            }
        })
        .collect()
}

/// The ops as one trace closed by a `ret`, each memory op on its own
/// 64-byte line.
fn build_dyn_trace(ops: &[Op]) -> DynTrace {
    let mut b = TraceBuilder::new(Addr::new(0));
    for (pc, &op) in (0..).map(Addr::new).zip(ops) {
        let pushed = b.push(pc, op, Resolution::None);
        assert!(matches!(pushed, PushResult::Continue(_)), "{ops:?}");
    }
    let end = Addr::new(ops.len() as u32);
    let PushResult::Complete(trace) = b.push(end, Op::Return, Resolution::None) else {
        panic!("a ret ends the trace");
    };
    let mem_addrs = trace
        .instrs()
        .iter()
        .enumerate()
        .map(|(i, ti)| is_mem(ti.op.class()).then_some(0x1000 + i as u64 * 64))
        .collect();
    DynTrace {
        trace,
        mem_addrs,
        branch_outcomes: PerInstr::new(),
    }
}

fn is_mem(class: OpClass) -> bool {
    matches!(class, OpClass::Load | OpClass::Store)
}

/// For any single trace: nothing issues before the cycle after
/// dispatch, latencies and intra-trace dependences hold, and neither
/// the per-PE issue width nor the per-PE memory ports are exceeded.
#[test]
fn schedule_respects_machine_constraints() {
    let config = BackendConfig::default();
    let mut port_contention = 0u32;
    for_each_case(0x5C4ED, BACKEND_CASES, |rng| {
        let ops = backend_ops(rng);
        let dispatch = u64::from(rng.next_below(1000));
        let mut be = Backend::new(config);
        let dt = build_dyn_trace(&ops);
        let t = be.dispatch(&dt, dispatch);
        let instrs = dt.trace.instrs();
        let n = instrs.len();
        let case = format!("{ops:?} dispatched at {dispatch}");
        assert_eq!(t.exec_start.len(), n, "{case}");
        assert_eq!(t.exec_done.len(), n, "{case}");

        let deps = trace_deps(&dt.trace);
        let mut ready = vec![dispatch + 1; n];
        for i in 0..n {
            // Nothing executes before the cycle after dispatch.
            assert!(t.exec_start[i] > dispatch, "{case}: instr {i} too early");
            // Latency lower bound (loads add cache latency on top).
            let lat = u64::from(op_latency(instrs[i].op.class()));
            assert!(t.exec_done[i] + 1 >= t.exec_start[i] + lat, "{case}");
            // Same-PE bypass: consumers start after producers finish.
            for &j in &deps[i] {
                let j = j as usize;
                assert!(
                    t.exec_start[i] > t.exec_done[j],
                    "{case}: instr {i} started at {} but dep {j} finished at {}",
                    t.exec_start[i],
                    t.exec_done[j]
                );
                ready[i] = ready[i].max(t.exec_done[j] + 1);
            }
        }
        // Issue width and memory ports, per cycle.
        let mut issued: BTreeMap<u64, u32> = BTreeMap::new();
        let mut mem_issued: BTreeMap<u64, (u32, bool, bool)> = BTreeMap::new();
        for (i, ti) in instrs.iter().enumerate() {
            *issued.entry(t.exec_start[i]).or_default() += 1;
            let class = ti.op.class();
            if is_mem(class) {
                let slot = mem_issued.entry(t.exec_start[i]).or_default();
                slot.0 += 1;
                slot.1 |= class == OpClass::Load;
                slot.2 |= class == OpClass::Store;
            }
        }
        for (&c, &count) in &issued {
            assert!(
                count <= u32::from(config.issue_per_pe),
                "{case}: {count} instructions issued in cycle {c}"
            );
        }
        for (&c, &(count, _, _)) in &mem_issued {
            assert!(
                count <= u32::from(config.mem_ports_per_pe),
                "{case}: {count} memory ops issued in cycle {c}"
            );
        }
        // Contention: a load and a store fill a cycle's ports while
        // a third memory op, ready by then, waits for a later cycle.
        let saturated = |c: u64| {
            mem_issued.get(&c).is_some_and(|&(count, load, store)| {
                count == u32::from(config.mem_ports_per_pe) && load && store
            })
        };
        if (0..n)
            .any(|i| is_mem(instrs[i].op.class()) && (ready[i]..t.exec_start[i]).any(&saturated))
        {
            port_contention += 1;
        }
        // The aggregate completion matches the per-instruction data.
        assert_eq!(
            t.complete,
            t.exec_done.iter().copied().max().unwrap_or(dispatch),
            "{case}"
        );
    });
    assert!(
        port_contention > 0,
        "a load/store pair saturated the memory ports ahead of a waiting memory op"
    );
}

/// Dependence chains serialize under preprocessing too: the
/// preprocessed schedule may reorder issue priority but never breaks
/// dataflow.
#[test]
fn preprocessing_never_breaks_dataflow() {
    let mut reordered = 0u32;
    for_each_case(0xDA7AF, BACKEND_CASES, |rng| {
        let ops = backend_ops(rng);
        let mut dt = build_dyn_trace(&ops);
        let info = preprocess(&dt.trace);
        reordered += u32::from(info.schedule.windows(2).any(|w| w[0] > w[1]));
        dt.trace.set_annotation(std::sync::Arc::new(info.clone()));
        let mut be = Backend::new(BackendConfig::default());
        let t = be.dispatch(&dt, 0);
        for (i, d) in info.deps.iter().enumerate() {
            for &j in d {
                assert!(
                    t.exec_start[i] > t.exec_done[j as usize],
                    "{ops:?}: preprocessed dep {j}->{i} violated"
                );
            }
        }
    });
    assert!(reordered > 0, "a preprocessed schedule that reorders issue");
}
