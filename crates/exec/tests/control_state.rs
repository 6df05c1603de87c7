//! The executor keeps branch and indirect-jump state in dense tables
//! filled on first execution. This suite replays the executor's
//! stream against a reference that keeps one `OutcomeState` (or
//! target stream) per static control instruction in an ordered map,
//! created from the program's model on first sight — the executor's
//! state before the dense tables — and requires identical outcomes.

use std::collections::BTreeMap;
use tpc_exec::Executor;
use tpc_isa::model::{IndirectModel, OutcomeModel, OutcomeState, XorShift64};
use tpc_isa::{Addr, BranchCond, Op, Program, ProgramBuilder, Reg};
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// Runs `instructions` instructions of `program` and checks every
/// branch direction and indirect-jump target against the reference.
/// Returns (branches, indirect jumps) checked.
fn check_against_reference(program: &Program, instructions: usize) -> (u64, u64) {
    let mut branch_states: BTreeMap<u32, OutcomeState> = BTreeMap::new();
    let mut target_streams: BTreeMap<u32, XorShift64> = BTreeMap::new();
    let (mut branches, mut indirects) = (0, 0);
    for d in Executor::new(program).take(instructions) {
        match d.op {
            Op::Branch { .. } => {
                let model = program.branch_model(d.pc).expect("validated");
                let state = branch_states
                    .entry(d.pc.word())
                    .or_insert_with(|| OutcomeState::new(model));
                assert_eq!(d.taken, state.next_outcome(model), "branch at {}", d.pc);
                branches += 1;
            }
            Op::IndirectJump { .. } => {
                let model = program.indirect_model(d.pc).expect("validated");
                let rng = target_streams
                    .entry(d.pc.word())
                    .or_insert_with(|| XorShift64::new(model.seed()));
                assert_eq!(d.next_pc, model.select(rng), "indirect jump at {}", d.pc);
                indirects += 1;
            }
            _ => {}
        }
    }
    (branches, indirects)
}

#[test]
fn dense_state_matches_per_branch_reference_on_every_benchmark() {
    let mut all_indirects = 0;
    for benchmark in Benchmark::ALL {
        let program = WorkloadBuilder::new(benchmark).seed(1).build();
        let (branches, indirects) = check_against_reference(&program, 200_000);
        assert!(branches > 10_000, "{benchmark:?}: {branches} branches");
        all_indirects += indirects;
    }
    assert!(all_indirects > 1_000, "{all_indirects} indirect jumps");
}

/// A short program that halts every pass: a loop branch, a pattern
/// branch and an indirect jump, so their state must carry across each
/// restart.
#[test]
fn dense_state_persists_across_halt_restart() {
    let r = Reg::new;
    let mut b = ProgramBuilder::new();
    b.push(Op::LoadImm { rd: r(1), imm: 3 });
    let top = b.here();
    b.push_branch(
        Op::Branch {
            cond: BranchCond::Ne,
            rs1: r(2),
            rs2: Reg::ZERO,
            target: Addr::new(top.word() + 2),
        },
        OutcomeModel::Pattern {
            bits: 0b1101,
            len: 5,
        },
    );
    b.push(Op::Nop);
    b.push_branch(
        Op::Branch {
            cond: BranchCond::Ne,
            rs1: r(1),
            rs2: Reg::ZERO,
            target: top,
        },
        OutcomeModel::Loop { trip: 3 },
    );
    let jump = b.here();
    b.push_indirect(
        Op::IndirectJump { rs1: r(4) },
        IndirectModel::weighted(
            vec![Addr::new(jump.word() + 1), Addr::new(jump.word() + 2)],
            vec![3, 1],
            11,
        ),
    );
    b.push(Op::Halt);
    b.push(Op::Halt);
    let program = b.build().expect("valid program");

    let mut ex = Executor::new(&program);
    for _ in 0..50_000 {
        ex.next();
    }
    assert!(ex.completions() > 1_000, "{} restarts", ex.completions());
    let (branches, indirects) = check_against_reference(&program, 50_000);
    assert!(branches > 10_000 && indirects > 1_000);
}
