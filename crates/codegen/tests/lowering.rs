//! Lowering consistency tests: per-operator attribution, plan-kind
//! dispatch (including the vtmpy depthwise path), and agreement between
//! the optimizer's objective and the lowered program across packing
//! modes.

use gcd2_cgraph::{Activation, Graph, OpKind, TShape};
use gcd2_codegen::{lower, LowerOptions, PackMode};
use gcd2_globalopt::{enumerate_plans, gcd2_select, PlanKind};
use gcd2_kernels::CostModel;

fn depthwise_net() -> Graph {
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 32, 28, 28));
    let dw = g.add(
        OpKind::DepthwiseConv2d {
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[x],
        "dw3x3",
    );
    let r = g.add(OpKind::Act(Activation::Relu), &[dw], "relu");
    g.add(
        OpKind::Conv2d {
            out_channels: 32,
            kernel: (1, 1),
            stride: (1, 1),
            padding: (0, 0),
        },
        &[r],
        "pw",
    );
    g
}

#[test]
fn vtmpy_plan_lowers_to_vtmpy_blocks() {
    let g = depthwise_net();
    let model = CostModel::new();
    let plans = enumerate_plans(&g, &model);
    let assignment = gcd2_select(&g, &plans, 13);
    // The 3-wide depthwise op should get the dedicated vtmpy plan.
    let dw = g.nodes().iter().find(|n| n.name == "dw3x3").unwrap();
    let plan = &plans.of(dw.id)[assignment.choice[dw.id.0]];
    assert_eq!(plan.kind, PlanKind::DepthwiseVtmpy, "selected {plan}");
    // And the lowered program must contain vtmpy instructions.
    let lowered = lower(&g, &plans, &assignment, &LowerOptions::gcd2());
    let has_vtmpy = lowered.program.blocks.iter().any(|b| {
        b.packets.iter().any(|p| {
            p.insns()
                .iter()
                .any(|i| matches!(i, gcd2_hvx::Insn::Vtmpy { .. }))
        })
    });
    assert!(has_vtmpy, "no vtmpy in the lowered program");
}

#[test]
fn reports_account_for_all_program_cycles() {
    let g = depthwise_net();
    let model = CostModel::new();
    let plans = enumerate_plans(&g, &model);
    let assignment = gcd2_select(&g, &plans, 13);
    let lowered = lower(&g, &plans, &assignment, &LowerOptions::gcd2());
    let attributed: u64 = lowered
        .reports
        .iter()
        .map(|r| r.kernel_cycles + r.transform_cycles)
        .sum();
    let total = lowered.cycles();
    // Everything except rounding in the dispatch-overhead block must be
    // attributed to an operator.
    let diff = (attributed as f64 - total as f64).abs() / total as f64;
    assert!(diff < 0.02, "attributed {attributed} vs program {total}");
}

#[test]
fn packing_modes_order_consistently() {
    let g = depthwise_net();
    let model = CostModel::new();
    let plans = enumerate_plans(&g, &model);
    let assignment = gcd2_select(&g, &plans, 13);
    let cycles = |mode: PackMode| {
        lower(
            &g,
            &plans,
            &assignment,
            &LowerOptions {
                pack: mode,
                ..LowerOptions::gcd2()
            },
        )
        .cycles()
    };
    let sda = cycles(PackMode::Sda);
    let seq = cycles(PackMode::Sequential);
    let s2h = cycles(PackMode::SoftToHard);
    assert!(sda <= s2h, "sda {sda} vs s2h {s2h}");
    assert!(s2h < seq, "s2h {s2h} vs sequential {seq}");
}

#[test]
fn every_report_names_a_real_operator() {
    let g = depthwise_net();
    let model = CostModel::new();
    let plans = enumerate_plans(&g, &model);
    let assignment = gcd2_select(&g, &plans, 13);
    let lowered = lower(&g, &plans, &assignment, &LowerOptions::gcd2());
    assert_eq!(lowered.reports.len(), g.op_count());
    for r in &lowered.reports {
        assert!(g.nodes().iter().any(|n| n.id == r.node && n.name == r.name));
        assert_eq!(r.plan, plans.of(r.node)[assignment.choice[r.node.0]]);
        assert!(!r.plan.to_string().is_empty());
    }
}
