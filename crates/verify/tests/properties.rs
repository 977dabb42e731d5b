//! Property tests: the compiler's own components never produce
//! artifacts the verifier rejects.
//!
//! * Any dataflow-correct block, packed by the VLIW packer under any
//!   policy and resource model, passes `PacketLegality` and
//!   `RegisterDataflow` with zero errors.
//! * Any plan set the optimizer enumerates, under any solver, passes
//!   `PlanLegality` (including the Equation-1 cost recount).

use gcd2_cgraph::{Activation, Graph, OpKind, TShape};
use gcd2_globalopt::{enumerate_plans, gcd2_select, local_optimal, pbqp_select};
use gcd2_hvx::{Block, Insn, Lane, PackedBlock, Program, ResourceModel, SReg, VPair, VReg};
use gcd2_kernels::CostModel;
use gcd2_verify::{verify_program, Context, PlanView, Verifier};
use gcd2_vliw::{Packer, SoftDepPolicy};
use proptest::prelude::*;

fn v(i: u8) -> VReg {
    VReg::new(i)
}
fn r(i: u8) -> SReg {
    SReg::new(i)
}

/// A block whose register dataflow is correct by construction: scalar
/// bases r0..r3 and vectors v8..v11 are live-in and never redefined
/// (except in-place address bumps), fresh values land in v0..v3 and the
/// pair (v6, v7), and every operand is drawn from what is defined or
/// live-in at that point.
fn arb_block() -> impl Strategy<Value = Block> {
    (
        proptest::collection::vec((0u8..7, 0u8..4, 0u8..4, 0u8..4), 3..24),
        1u64..12,
    )
        .prop_map(|(steps, trip)| {
            let mut b = Block::with_trip_count("generated", trip);
            let mut defined: Vec<VReg> = Vec::new();
            let mut pair_defined = false;
            let live_in = [v(8), v(9), v(10), v(11)];
            let pick = |defined: &[VReg], i: u8| -> VReg {
                let pool: Vec<VReg> = defined
                    .iter()
                    .copied()
                    .chain(live_in.iter().copied())
                    .collect();
                pool[i as usize % pool.len()]
            };
            for (op, a, bx, c) in steps {
                match op {
                    0 => {
                        let dst = v(a % 4);
                        b.push(Insn::VLoad {
                            dst,
                            base: r(bx),
                            offset: 128 * c as i64,
                        });
                        if !defined.contains(&dst) {
                            defined.push(dst);
                        }
                    }
                    1 => {
                        let dst = v(a % 4);
                        let lhs = pick(&defined, bx);
                        let rhs = pick(&defined, c);
                        b.push(Insn::Vadd {
                            lane: Lane::H,
                            dst,
                            a: lhs,
                            b: rhs,
                        });
                        if !defined.contains(&dst) {
                            defined.push(dst);
                        }
                    }
                    2 => {
                        let src = pick(&defined, a);
                        b.push(Insn::Vmpy {
                            dst: VPair::new(6),
                            src,
                            weights: r(bx),
                            acc: pair_defined && c % 2 == 0,
                        });
                        pair_defined = true;
                        for half in [v(6), v(7)] {
                            if !defined.contains(&half) {
                                defined.push(half);
                            }
                        }
                    }
                    3 if pair_defined => {
                        let dst = v(a % 4);
                        b.push(Insn::VasrHB {
                            dst,
                            src: VPair::new(6),
                            shift: c % 8,
                        });
                        if !defined.contains(&dst) {
                            defined.push(dst);
                        }
                    }
                    4 => {
                        let src = pick(&defined, a);
                        b.push(Insn::VStore {
                            src,
                            base: r(bx),
                            offset: 128 * c as i64,
                        });
                    }
                    5 => {
                        // In-place address bump of a live-in base.
                        b.push(Insn::AddI {
                            dst: r(a),
                            a: r(a),
                            imm: 128,
                        });
                    }
                    _ => {
                        let src = pick(&defined, a);
                        b.push(Insn::Vmax {
                            lane: Lane::B,
                            dst: v(bx % 4),
                            a: src,
                            b: src,
                        });
                        if !defined.contains(&v(bx % 4)) {
                            defined.push(v(bx % 4));
                        }
                    }
                }
            }
            b
        })
}

/// A random small DAG, in the spirit of the end-to-end fuzz suite.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (proptest::collection::vec(0u8..6, 2..8), 16usize..48).prop_map(|(ops, ch)| {
        let mut g = Graph::new();
        let mut cur = g.input("x", TShape::nchw(1, ch, 14, 14));
        for (i, kind) in ops.into_iter().enumerate() {
            cur = match kind {
                0 => g.add(
                    OpKind::Conv2d {
                        out_channels: ch,
                        kernel: (3, 3),
                        stride: (1, 1),
                        padding: (1, 1),
                    },
                    &[cur],
                    format!("conv{i}"),
                ),
                1 => g.add(
                    OpKind::Conv2d {
                        out_channels: ch,
                        kernel: (1, 1),
                        stride: (1, 1),
                        padding: (0, 0),
                    },
                    &[cur],
                    format!("pw{i}"),
                ),
                2 => g.add(
                    OpKind::DepthwiseConv2d {
                        kernel: (3, 3),
                        stride: (1, 1),
                        padding: (1, 1),
                    },
                    &[cur],
                    format!("dw{i}"),
                ),
                3 => g.add(OpKind::Act(Activation::Relu), &[cur], format!("act{i}")),
                4 => g.add(OpKind::Act(Activation::HardSwish), &[cur], format!("hs{i}")),
                _ => g.add(OpKind::Add, &[cur, cur], format!("add{i}")),
            };
        }
        g
    })
}

fn models() -> [ResourceModel; 2] {
    [ResourceModel::hexagon698(), ResourceModel::hexagon680()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The packer's output is always packet-legal and dataflow-sound,
    /// on both DSP generations and under every soft-dependency policy.
    #[test]
    fn packer_output_always_verifies(block in arb_block()) {
        for model in models() {
            for policy in [SoftDepPolicy::Sda, SoftDepPolicy::SoftToHard, SoftDepPolicy::SoftToNone] {
                let packed = Packer::new()
                    .with_model(model.clone())
                    .with_policy(policy)
                    .pack_block(&block);
                let program = Program { blocks: vec![packed] };
                let report = verify_program(&program, &model);
                prop_assert_eq!(
                    report.error_count(), 0,
                    "packer output rejected under {:?}:\n{}", model, report
                );
            }
        }
    }

    /// Sequential (one insn per packet) scheduling verifies too — it is
    /// the baseline every ablation compares against.
    #[test]
    fn sequential_schedule_always_verifies(block in arb_block()) {
        for model in models() {
            let program = Program { blocks: vec![PackedBlock::sequential(&block)] };
            let report = verify_program(&program, &model);
            prop_assert_eq!(report.error_count(), 0, "{}", report);
        }
    }

    /// Every solver's assignment over every enumerated plan set is
    /// Table II-legal and claims the cost Equation 1 re-derives.
    #[test]
    fn solver_output_always_passes_plan_legality(g in arb_graph()) {
        for model in models() {
            let cost = CostModel::with_packer(Packer::new().with_model(model.clone()));
            let plans = enumerate_plans(&g, &cost);
            let assignments = [
                gcd2_select(&g, &plans, 13),
                local_optimal(&g, &plans),
                pbqp_select(&g, &plans).0,
            ];
            for assignment in &assignments {
                let cx = Context::new()
                    .with_graph(&g)
                    .with_plans(PlanView::Candidates(&plans))
                    .with_assignment(assignment);
                let report = Verifier::with_default_passes().run(&cx);
                prop_assert_eq!(
                    report.error_count(), 0,
                    "solver assignment rejected under {:?}:\n{}", model, report
                );
            }
        }
    }
}
