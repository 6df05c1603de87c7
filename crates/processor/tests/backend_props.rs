//! Property tests over the backend scheduler: every computed
//! schedule must respect the machine's structural and dataflow
//! constraints, for arbitrary traces.
#![cfg(feature = "proptest-tests")]

use proptest::prelude::*;
use tpc_core::preprocess::{latency::op_latency, trace_deps};
use tpc_core::{PushResult, Resolution, TraceBuilder};
use tpc_isa::{Addr, Op, OpClass, Reg};
use tpc_processor::backend::{Backend, BackendConfig};
use tpc_processor::DynTrace;

#[derive(Debug, Clone, Copy)]
enum OpShape {
    Alu(u8, u8, u8),
    AddImm(u8, u8),
    Mul(u8, u8, u8),
    Load(u8, u8, u16),
    Store(u8, u8, u16),
}

fn reg_idx() -> impl Strategy<Value = u8> {
    0u8..12
}

fn shapes() -> impl Strategy<Value = Vec<OpShape>> {
    prop::collection::vec(
        prop_oneof![
            (reg_idx(), reg_idx(), reg_idx()).prop_map(|(a, b, c)| OpShape::Alu(a, b, c)),
            (reg_idx(), reg_idx()).prop_map(|(a, b)| OpShape::AddImm(a, b)),
            (reg_idx(), reg_idx(), reg_idx()).prop_map(|(a, b, c)| OpShape::Mul(a, b, c)),
            (reg_idx(), reg_idx(), 0u16..512).prop_map(|(a, b, o)| OpShape::Load(a, b, o)),
            (reg_idx(), reg_idx(), 0u16..512).prop_map(|(a, b, o)| OpShape::Store(a, b, o)),
        ],
        1..15,
    )
}

fn build_dyn_trace(shapes: &[OpShape]) -> DynTrace {
    let r = Reg::new;
    let mut b = TraceBuilder::new(Addr::new(0));
    let mut trace = None;
    for (i, &s) in shapes.iter().enumerate() {
        let op = match s {
            OpShape::Alu(a, x, y) => Op::Add {
                rd: r(a),
                rs1: r(x),
                rs2: r(y),
            },
            OpShape::AddImm(a, x) => Op::AddImm {
                rd: r(a),
                rs1: r(x),
                imm: 1,
            },
            OpShape::Mul(a, x, y) => Op::Mul {
                rd: r(a),
                rs1: r(x),
                rs2: r(y),
            },
            OpShape::Load(a, x, o) => Op::Load {
                rd: r(a),
                base: r(x),
                offset: o as i32,
            },
            OpShape::Store(a, x, o) => Op::Store {
                src: r(a),
                base: r(x),
                offset: o as i32,
            },
        };
        match b.push(Addr::new(i as u32), op, Resolution::None) {
            PushResult::Continue(_) => {}
            PushResult::Complete(t) => {
                trace = Some(t);
                break;
            }
        }
    }
    let trace = trace.unwrap_or_else(|| {
        match b.push(Addr::new(shapes.len() as u32), Op::Return, Resolution::None) {
            PushResult::Complete(t) => t,
            other => panic!("{other:?}"),
        }
    });
    let mem_addrs = trace
        .instrs()
        .iter()
        .enumerate()
        .map(|(i, ti)| {
            matches!(ti.op.class(), OpClass::Load | OpClass::Store)
                .then_some(0x1000 + i as u64 * 64)
        })
        .collect();
    DynTrace {
        trace,
        mem_addrs,
        branch_outcomes: tpc_core::preprocess::PerInstr::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any single trace: issue-after-dispatch, latency and
    /// intra-trace dependence constraints hold, and per-cycle issue
    /// width is never exceeded.
    #[test]
    fn schedule_respects_machine_constraints(shapes in shapes(), dispatch in 0u64..1000) {
        let config = BackendConfig::default();
        let mut be = Backend::new(config);
        let dt = build_dyn_trace(&shapes);
        let t = be.dispatch(&dt, dispatch);
        let n = dt.trace.len();
        prop_assert_eq!(t.exec_start.len(), n);
        prop_assert_eq!(t.exec_done.len(), n);

        let deps = trace_deps(&dt.trace);
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            // Nothing executes before the cycle after dispatch.
            prop_assert!(t.exec_start[i] > dispatch, "instr {i} too early");
            // Latency lower bound (loads add cache latency on top).
            let lat = op_latency(dt.trace.instrs()[i].op.class()) as u64;
            prop_assert!(t.exec_done[i] >= t.exec_start[i] + lat - 1);
            // Same-PE bypass: consumers start after producers finish.
            for &j in &deps[i] {
                prop_assert!(
                    t.exec_start[i] > t.exec_done[j as usize],
                    "instr {i} started at {} but dep {j} finished at {}",
                    t.exec_start[i],
                    t.exec_done[j as usize]
                );
            }
        }
        // Issue width: at most `issue_per_pe` starts per cycle.
        let mut per_cycle = std::collections::HashMap::new();
        for &c in &t.exec_start {
            *per_cycle.entry(c).or_insert(0u32) += 1;
        }
        for (&c, &count) in &per_cycle {
            prop_assert!(
                count <= config.issue_per_pe as u32,
                "{count} instructions issued in cycle {c}"
            );
        }
        // Memory ports: at most mem_ports_per_pe memory ops per cycle.
        let mut mem_per_cycle = std::collections::HashMap::new();
        for (i, ti) in dt.trace.instrs().iter().enumerate() {
            if matches!(ti.op.class(), OpClass::Load | OpClass::Store) {
                *mem_per_cycle.entry(t.exec_start[i]).or_insert(0u32) += 1;
            }
        }
        for (&c, &count) in &mem_per_cycle {
            prop_assert!(
                count <= config.mem_ports_per_pe as u32,
                "{count} memory ops issued in cycle {c}"
            );
        }
        // The aggregate completion matches the per-instruction data.
        prop_assert_eq!(t.complete, t.exec_done.iter().copied().max().unwrap_or(dispatch));
    }

    /// Dependence chains serialize even under preprocessing (the
    /// schedule may reorder issue priority but never break dataflow).
    #[test]
    fn preprocessing_never_breaks_dataflow(shapes in shapes()) {
        let mut dt = build_dyn_trace(&shapes);
        let info = tpc_core::preprocess::preprocess(&dt.trace);
        dt.trace.set_annotation(std::sync::Arc::new(info.clone()));
        let mut be = Backend::new(BackendConfig::default());
        let t = be.dispatch(&dt, 0);
        for (i, d) in info.deps.iter().enumerate() {
            for &j in d {
                prop_assert!(
                    t.exec_start[i] > t.exec_done[j as usize],
                    "preprocessed dep {j}→{i} violated"
                );
            }
        }
    }
}
