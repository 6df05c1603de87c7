//! Trace preprocessing (paper Section 6, mechanism 2).
//!
//! The trace cache decouples a *preprocessing pipeline* from the
//! processor core: traces can be rewritten at fill time into
//! functionally equivalent but faster-executing forms. Three
//! optimizations from Friendly/Patel/Patt (MICRO 1998) and
//! Jacobson/Smith (HPCA 1999) are modelled:
//!
//! 1. **Constant propagation** — immediates flow through the trace;
//!    an instruction whose inputs are all known at fill time needs no
//!    operands at runtime (its result is pre-computed), removing its
//!    input dependences.
//! 2. **Combined shift-add ALU** — the paper's new ALU "adds two
//!    register operands, each of which can be shifted left by a small
//!    immediate amount, and a third immediate operand". A simple ALU
//!    consumer is *collapsed* with its simple producer: it executes
//!    in one cycle using the producer's sources directly, removing
//!    one level of serialization.
//! 3. **Instruction scheduling** — a list schedule over the
//!    (post-transformation) dependence graph provides the issue
//!    priority used by the 2-wide processing elements.
//!
//! The result is a [`PreprocessInfo`] attached to the trace; the
//! backend timing model consumes its dependence lists and schedule.
//! Trace *semantics* are untouched — only dependence structure and
//! issue order change, which is exactly the paper's claim that
//! "instructions within a trace need not be identical to the static
//! program, just functionally equivalent".
//!
//! Preprocessing runs when a trace enters the trace-cache role: on a
//! demand fill from the slow path, or when a preconstructed trace is
//! promoted out of the preconstruction side on its first use (see
//! [`crate::storage`]). Preconstructed traces that are never used are
//! never preprocessed, and a store re-admitting a trace key reuses the
//! info it computed before. The info is a pure function of the trace
//! and costs no cycles, so where it is computed cannot change timing.
//! With preprocessing off, stores attach [`PreprocessInfo::identity`]
//! instead, so the backend reads one kind of annotation either way.
//!
//! Every table here has one entry per trace instruction and lives in
//! an [`InlineVec`], so [`preprocess`] and [`trace_deps`] allocate
//! nothing.

use crate::inline_vec::InlineVec;
use crate::trace::{Trace, MAX_TRACE_LEN};
use tpc_isa::Op;
#[cfg(test)]
use tpc_isa::OpClass;

/// A table with one entry per instruction of a trace.
pub type PerInstr<T> = InlineVec<T, MAX_TRACE_LEN>;

/// One instruction's intra-trace dependences: indices of earlier
/// instructions in the same trace, in the order they were found.
/// They are distinct and smaller than the instruction's own index, so
/// [`MAX_TRACE_LEN`] bounds them.
pub type DepList = InlineVec<u8, MAX_TRACE_LEN>;

/// R10000-like execution latencies, shared by the backend timing
/// model and the preprocessing scheduler.
pub mod latency {
    use tpc_isa::OpClass;

    /// Execution latency of an operation class, in cycles.
    pub fn op_latency(class: OpClass) -> u32 {
        match class {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 3,
            OpClass::IntDiv => 20,
            // Address generation; the cache adds its hit/miss latency.
            OpClass::Load => 1,
            OpClass::Store => 1,
            OpClass::Branch
            | OpClass::Jump
            | OpClass::Call
            | OpClass::Return
            | OpClass::IndirectJump
            | OpClass::Halt
            | OpClass::Nop => 1,
        }
    }
}

/// Fill-time rewrite annotations for one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreprocessInfo {
    /// Post-transformation intra-trace dependences: `deps[i]` lists
    /// the trace indices instruction `i` must wait for.
    pub deps: PerInstr<DepList>,
    /// `true` for instructions whose result was computed at fill
    /// time (constant propagation): they have no input dependences.
    pub const_folded: PerInstr<bool>,
    /// `collapsed_into[i] = Some(j)` when instruction `i` executes on
    /// the combined ALU fused with its producer `j` (so `i` depends
    /// on `j`'s inputs instead of on `j`).
    pub collapsed: PerInstr<Option<u8>>,
    /// Issue priority: instruction indices, highest priority first
    /// (critical-path list schedule).
    pub schedule: PerInstr<u8>,
    /// Per instruction, the registers it reads that no earlier
    /// instruction in the trace writes (bit `r` = register `r`): the
    /// operands it takes from earlier traces. Preprocessing leaves
    /// them unchanged.
    pub external_srcs: PerInstr<u32>,
}

// `external_srcs` keeps one bit per register.
const _: () = assert!(tpc_isa::NUM_REGS <= 32);

impl PreprocessInfo {
    /// Number of instructions the info covers.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether the info covers an empty trace (never for built traces).
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// How many instructions were constant-folded.
    pub fn folded_count(&self) -> usize {
        self.const_folded.iter().filter(|&&f| f).count()
    }

    /// How many instructions were collapsed onto the combined ALU.
    pub fn collapsed_count(&self) -> usize {
        self.collapsed.iter().filter(|c| c.is_some()).count()
    }

    /// The identity annotation: raw dependences ([`trace_deps`]),
    /// program-order issue, nothing folded or collapsed. A trace
    /// dispatched with it times exactly as one that never went
    /// through preprocessing.
    pub fn identity(trace: &Trace) -> Self {
        let n = trace.len();
        PreprocessInfo {
            deps: trace_deps(trace),
            const_folded: PerInstr::filled(false, n),
            collapsed: PerInstr::filled(None, n),
            schedule: (0..n as u8).collect(), // n <= MAX_TRACE_LEN
            external_srcs: external_sources(trace),
        }
    }
}

/// Per instruction, the source registers no earlier instruction in
/// the trace writes (see [`PreprocessInfo::external_srcs`]).
fn external_sources(trace: &Trace) -> PerInstr<u32> {
    let mut written = 0u32;
    let mut external = PerInstr::new();
    for ti in trace.instrs() {
        let reads = ti.op.sources().iter().fold(0, |m, r| m | 1 << r.index());
        external.push(reads & !written);
        if let Some(rd) = ti.op.dest() {
            written |= 1 << rd.index();
        }
    }
    external
}

/// Raw intra-trace register dependences, with no preprocessing:
/// `deps[i]` holds the index of the last earlier writer of each of
/// `i`'s source registers. (Memory dependences within a trace are
/// enforced by the ARB in the modelled machine and are not part of
/// the scheduling dependence graph, as in the paper.)
pub fn trace_deps(trace: &Trace) -> PerInstr<DepList> {
    let mut last_writer: [Option<u8>; tpc_isa::NUM_REGS] = [None; tpc_isa::NUM_REGS];
    let mut deps = PerInstr::new();
    for (i, ti) in trace.instrs().iter().enumerate() {
        let mut d = DepList::new();
        for src in ti.op.sources().iter() {
            if let Some(w) = last_writer[src.index()] {
                if !d.contains(&w) {
                    d.push(w);
                }
            }
        }
        deps.push(d);
        if let Some(rd) = ti.op.dest() {
            last_writer[rd.index()] = Some(i as u8); // i < MAX_TRACE_LEN
        }
    }
    deps
}

/// Whether an op is "simple" enough for the combined shift-add ALU
/// to replicate as the producer half of a collapsed pair.
fn is_simple_producer(op: &Op) -> bool {
    matches!(
        op,
        Op::Add { .. }
            | Op::Sub { .. }
            | Op::AddImm { .. }
            | Op::LoadImm { .. }
            | Op::Shl { shamt: 0..=3, .. }
    )
}

/// Whether an op can be the consumer half of a collapsed pair.
fn is_simple_consumer(op: &Op) -> bool {
    matches!(
        op,
        Op::Add { .. }
            | Op::Sub { .. }
            | Op::AddImm { .. }
            | Op::And { .. }
            | Op::Or { .. }
            | Op::Xor { .. }
    )
}

/// Runs the full preprocessing pipeline over a trace.
pub fn preprocess(trace: &Trace) -> PreprocessInfo {
    let n = trace.len();
    let instrs = trace.instrs();

    // ---- constant propagation ------------------------------------
    // Known-at-fill-time register values. A write by an instruction
    // with any unknown input kills the register.
    let mut known: [Option<i64>; tpc_isa::NUM_REGS] = [None; tpc_isa::NUM_REGS];
    let mut const_folded = PerInstr::filled(false, n);
    for (i, ti) in instrs.iter().enumerate() {
        let op = &ti.op;
        let val = |r: tpc_isa::Reg| -> Option<i64> {
            if r.is_zero() {
                Some(0)
            } else {
                known[r.index()]
            }
        };
        let computed: Option<i64> = (|| match *op {
            Op::LoadImm { imm, .. } => Some(imm as i64),
            Op::Add { rs1, rs2, .. } => Some(val(rs1)?.wrapping_add(val(rs2)?)),
            Op::Sub { rs1, rs2, .. } => Some(val(rs1)?.wrapping_sub(val(rs2)?)),
            Op::And { rs1, rs2, .. } => Some(val(rs1)? & val(rs2)?),
            Op::Or { rs1, rs2, .. } => Some(val(rs1)? | val(rs2)?),
            Op::Xor { rs1, rs2, .. } => Some(val(rs1)? ^ val(rs2)?),
            Op::Shl { rs1, shamt, .. } => {
                Some((val(rs1)? as u64).wrapping_shl(shamt as u32) as i64)
            }
            Op::Shr { rs1, shamt, .. } => Some(((val(rs1)? as u64) >> shamt as u32) as i64),
            Op::AddImm { rs1, imm, .. } => Some(val(rs1)?.wrapping_add(imm as i64)),
            Op::Mul { rs1, rs2, .. } => Some(val(rs1)?.wrapping_mul(val(rs2)?)),
            // The call's return address is a fill-time constant.
            Op::Call { .. } => Some(ti.pc.next().word() as i64),
            _ => None,
        })();
        match (op.dest(), computed) {
            (Some(rd), Some(v)) => {
                known[rd.index()] = Some(v);
                // Pure immediates carry no dependences to begin with;
                // only count a fold when it removed real inputs.
                if !matches!(op, Op::LoadImm { .. }) {
                    const_folded[i] = true;
                }
            }
            (Some(rd), None) => known[rd.index()] = None,
            _ => {}
        }
    }

    // ---- dependence graph with folding applied --------------------
    let mut deps = trace_deps(trace);
    for (d, &folded) in deps.iter_mut().zip(const_folded.iter()) {
        if folded {
            *d = DepList::new();
        }
    }

    // ---- combined-ALU collapsing ----------------------------------
    let mut collapsed = PerInstr::filled(None, n);
    for i in 0..n {
        if const_folded[i] || !is_simple_consumer(&instrs[i].op) {
            continue;
        }
        // Collapse with the producer on i's critical input if that
        // producer is simple and itself not collapsed or folded.
        let candidate = deps[i].iter().copied().find(|&j| {
            let j = j as usize;
            is_simple_producer(&instrs[j].op) && collapsed[j].is_none() && !const_folded[j]
        });
        if let Some(j) = candidate {
            collapsed[i] = Some(j);
            // i now waits on j's inputs, not on j.
            let producer_deps = deps[j as usize];
            let nd = &mut deps[i];
            nd.retain(|&d| d != j);
            for &jd in &producer_deps {
                if !nd.contains(&jd) {
                    nd.push(jd);
                }
            }
        }
    }

    // ---- list schedule --------------------------------------------
    // Priority = critical-path height over the final dependence
    // graph. Ties broken by program order, which makes the order
    // total (so an unstable sort is deterministic). Dependences point
    // strictly backwards, so walking the trace in reverse finalizes
    // every consumer's height before its producers read it.
    let mut height = [0u32; MAX_TRACE_LEN];
    let mut tail = [0u32; MAX_TRACE_LEN];
    for i in (0..n).rev() {
        height[i] = latency::op_latency(instrs[i].op.class()) + tail[i];
        for &j in &deps[i] {
            let j = j as usize;
            tail[j] = tail[j].max(height[i]);
        }
    }
    let mut schedule: PerInstr<u8> = (0..n as u8).collect(); // n <= MAX_TRACE_LEN
    schedule.sort_unstable_by(|&a, &b| height[b as usize].cmp(&height[a as usize]).then(a.cmp(&b)));

    PreprocessInfo {
        deps,
        const_folded,
        collapsed,
        schedule,
        external_srcs: external_sources(trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{PushResult, Resolution, TraceBuilder};
    use tpc_isa::{Addr, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// Builds a trace from a list of ops at sequential addresses
    /// starting at 0, terminated by `ret`.
    fn mk_trace(ops: &[Op]) -> Trace {
        let mut b = TraceBuilder::new(Addr::new(0));
        for (i, &op) in ops.iter().enumerate() {
            match b.push(Addr::new(i as u32), op, Resolution::None) {
                PushResult::Continue(_) => {}
                PushResult::Complete(t) => return t,
            }
        }
        match b.push(Addr::new(ops.len() as u32), Op::Return, Resolution::None) {
            PushResult::Complete(t) => t,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn raw_deps_find_last_writer() {
        let t = mk_trace(&[
            Op::LoadImm { rd: r(1), imm: 5 }, // 0
            Op::AddImm {
                rd: r(1),
                rs1: r(1),
                imm: 1,
            }, // 1: dep 0
            Op::Add {
                rd: r(2),
                rs1: r(1),
                rs2: r(1),
            }, // 2: dep 1 (latest writer)
        ]);
        let deps = trace_deps(&t);
        assert!(deps[0].is_empty());
        assert_eq!(deps[1][..], [0]);
        assert_eq!(deps[2][..], [1]);
    }

    #[test]
    fn external_sources_are_reads_before_any_in_trace_write() {
        let t = mk_trace(&[
            Op::Add {
                rd: r(1),
                rs1: r(1),
                rs2: r(3),
            }, // 0: r1, r3 from earlier traces
            Op::Add {
                rd: r(2),
                rs1: r(1),
                rs2: r(3),
            }, // 1: r1 written by 0, r3 still external
        ]);
        let bit = |reg: Reg| 1u32 << reg.index();
        let expected = [bit(r(1)) | bit(r(3)), bit(r(3)), bit(tpc_isa::LINK)];
        assert_eq!(PreprocessInfo::identity(&t).external_srcs[..], expected);
        assert_eq!(
            preprocess(&t).external_srcs[..],
            expected,
            "unchanged by preprocessing"
        );
    }

    #[test]
    fn constant_propagation_removes_dependences() {
        let t = mk_trace(&[
            Op::LoadImm { rd: r(1), imm: 5 },
            Op::AddImm {
                rd: r(2),
                rs1: r(1),
                imm: 3,
            }, // 5+3 known
            Op::Add {
                rd: r(3),
                rs1: r(2),
                rs2: r(1),
            }, // known too
        ]);
        let info = preprocess(&t);
        assert!(info.const_folded[1]);
        assert!(info.const_folded[2]);
        assert!(info.deps[1].is_empty());
        assert!(info.deps[2].is_empty());
        assert_eq!(info.folded_count(), 2);
    }

    #[test]
    fn load_breaks_constant_chain() {
        let t = mk_trace(&[
            Op::LoadImm {
                rd: r(1),
                imm: 0x40,
            },
            Op::Load {
                rd: r(2),
                base: r(1),
                offset: 0,
            }, // runtime value
            Op::AddImm {
                rd: r(3),
                rs1: r(2),
                imm: 1,
            }, // not foldable
        ]);
        let info = preprocess(&t);
        assert!(!info.const_folded[2]);
        assert_eq!(info.deps[2][..], [1]);
    }

    #[test]
    fn collapsing_fuses_dependent_alu_pair() {
        let t = mk_trace(&[
            Op::Load {
                rd: r(1),
                base: r(9),
                offset: 0,
            }, // 0: runtime
            Op::AddImm {
                rd: r(2),
                rs1: r(1),
                imm: 4,
            }, // 1: dep 0, simple producer
            Op::Add {
                rd: r(3),
                rs1: r(2),
                rs2: r(8),
            }, // 2: dep 1 → collapse with 1
        ]);
        let info = preprocess(&t);
        assert_eq!(info.collapsed[2], Some(1));
        // 2 now depends on 1's inputs (the load), not on 1.
        assert_eq!(info.deps[2][..], [0]);
        assert_eq!(info.collapsed_count(), 1);
    }

    #[test]
    fn collapsing_does_not_chain() {
        let t = mk_trace(&[
            Op::Load {
                rd: r(1),
                base: r(9),
                offset: 0,
            },
            Op::AddImm {
                rd: r(2),
                rs1: r(1),
                imm: 4,
            }, // 1 collapses? it's a consumer of a load (not simple producer) → no
            Op::AddImm {
                rd: r(3),
                rs1: r(2),
                imm: 4,
            }, // 2 collapses with 1
            Op::AddImm {
                rd: r(4),
                rs1: r(3),
                imm: 4,
            }, // 3 cannot collapse with 2 (2 already collapsed)
        ]);
        let info = preprocess(&t);
        assert_eq!(info.collapsed[1], None, "load is not a simple producer");
        assert_eq!(info.collapsed[2], Some(1));
        assert_eq!(info.collapsed[3], None, "no chained collapsing");
    }

    #[test]
    fn schedule_puts_critical_path_first() {
        let t = mk_trace(&[
            Op::Load {
                rd: r(1),
                base: r(9),
                offset: 0,
            }, // 0 feeds a chain
            Op::LoadImm { rd: r(5), imm: 1 }, // 1 independent
            Op::Mul {
                rd: r(2),
                rs1: r(1),
                rs2: r(1),
            }, // 2 long chain
            Op::Add {
                rd: r(3),
                rs1: r(2),
                rs2: r(2),
            }, // 3 chain end
        ]);
        let info = preprocess(&t);
        // Instruction 0 heads the longest chain → first in schedule.
        assert_eq!(info.schedule[0], 0);
        // The independent immediate load sits late.
        let pos_imm = info.schedule.iter().position(|&i| i == 1).unwrap();
        assert!(pos_imm >= 2);
    }

    #[test]
    fn schedule_is_a_permutation() {
        let t = mk_trace(&[
            Op::LoadImm { rd: r(1), imm: 5 },
            Op::Add {
                rd: r(2),
                rs1: r(1),
                rs2: r(1),
            },
            Op::Load {
                rd: r(3),
                base: r(2),
                offset: 0,
            },
        ]);
        let info = preprocess(&t);
        let mut s = info.schedule;
        s.sort_unstable();
        let expect: Vec<u8> = (0..t.len() as u8).collect();
        assert_eq!(s[..], expect[..]);
    }

    #[test]
    fn latencies_match_operation_classes() {
        use latency::op_latency;
        assert_eq!(op_latency(OpClass::IntAlu), 1);
        assert_eq!(op_latency(OpClass::IntMul), 3);
        assert!(op_latency(OpClass::IntDiv) > op_latency(OpClass::IntMul));
    }

    /// Builds a trace ending in a conditional branch (taken back to
    /// 0) followed by `ret`, so preprocessing sees real control flow.
    fn mk_trace_with_branch(ops: &[Op], branch: Op) -> Trace {
        let mut b = TraceBuilder::new(Addr::new(0));
        for (i, &op) in ops.iter().enumerate() {
            match b.push(Addr::new(i as u32), op, Resolution::None) {
                PushResult::Continue(_) => {}
                PushResult::Complete(t) => return t,
            }
        }
        match b.push(
            Addr::new(ops.len() as u32),
            branch,
            Resolution::Branch {
                taken: true,
                next_pc: Addr::new(0),
            },
        ) {
            PushResult::Continue(_) => {}
            PushResult::Complete(t) => return t,
        }
        match b.push(Addr::new(0), Op::Return, Resolution::None) {
            PushResult::Complete(t) => t,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn branch_sources_create_dependences() {
        // A conditional branch consumes its comparison registers like
        // any other instruction; its dependence on the last writer is
        // what serializes resolution behind the compare.
        let t = mk_trace_with_branch(
            &[Op::Load {
                rd: r(1),
                base: r(9),
                offset: 0,
            }],
            Op::Branch {
                cond: tpc_isa::BranchCond::Ne,
                rs1: r(1),
                rs2: Reg::ZERO,
                target: Addr::new(0),
            },
        );
        let info = preprocess(&t);
        assert_eq!(info.deps[1][..], [0]);
    }

    #[test]
    fn control_ops_are_never_folded_or_collapsed() {
        // Preprocessing rewrites dependence structure only: control
        // instructions keep their identity (the CFG the analyzer
        // builds from the static code must stay valid for the
        // preprocessed trace), so branches and returns are neither
        // constant-folded away nor fused onto the combined ALU.
        let t = mk_trace_with_branch(
            &[Op::LoadImm { rd: r(1), imm: 1 }],
            Op::Branch {
                cond: tpc_isa::BranchCond::Eq,
                rs1: r(1),
                rs2: r(1),
                target: Addr::new(0),
            },
        );
        let info = preprocess(&t);
        assert!(t.instrs().iter().any(|ti| ti.op.class().is_control()));
        for (i, ti) in t.instrs().iter().enumerate() {
            if ti.op.class().is_control() {
                assert!(!info.const_folded[i], "control op {i} folded");
                assert_eq!(info.collapsed[i], None, "control op {i} collapsed");
            }
        }
    }

    #[test]
    fn dependence_graph_is_a_dag_in_trace_order() {
        // Every dependence and every collapse target points strictly
        // backwards — the invariant that makes the trace's dependence
        // graph acyclic and lets the analyzer treat trace order as a
        // topological order.
        let t = mk_trace(&[
            Op::LoadImm { rd: r(1), imm: 7 },
            Op::Load {
                rd: r(2),
                base: r(1),
                offset: 0,
            },
            Op::AddImm {
                rd: r(3),
                rs1: r(2),
                imm: 4,
            },
            Op::Add {
                rd: r(4),
                rs1: r(3),
                rs2: r(2),
            },
            Op::Store {
                src: r(4),
                base: r(1),
                offset: 8,
            },
        ]);
        let info = preprocess(&t);
        for (i, d) in info.deps.iter().enumerate() {
            for &j in d {
                assert!((j as usize) < i, "dep {j} of {i} not earlier");
            }
            if let Some(j) = info.collapsed[i] {
                assert!((j as usize) < i, "collapse target {j} of {i} not earlier");
            }
        }
        assert_eq!(info.len(), t.len());
        assert!(!info.is_empty());
    }

    #[test]
    fn call_return_address_is_a_constant() {
        let t = mk_trace(&[
            Op::Call {
                target: Addr::new(2),
            }, // 0: writes LINK = 1
            // (the builder follows the call; instruction at addr 2)
            Op::AddImm {
                rd: r(4),
                rs1: Reg::LINK,
                imm: 0,
            }, // 1 at addr 2: foldable
        ]);
        let info = preprocess(&t);
        assert!(info.const_folded[1]);
    }
}
