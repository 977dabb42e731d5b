//! Mutation tests: start from a real, verifier-clean compilation and
//! corrupt one artifact at a time. Each corruption must be caught by the
//! pass that owns that invariant — and only surface after the mutation.

use gcd2::Compiler;
use gcd2_cgraph::{Graph, NodeId, OpKind, TShape};
use gcd2_hvx::{Insn, Lane, PackedBlock, Packet, SReg, VReg};
use gcd2_verify::{Report, Severity};

fn v(i: u8) -> VReg {
    VReg::new(i)
}
fn r(i: u8) -> SReg {
    SReg::new(i)
}

fn small_net() -> Graph {
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 32, 14, 14));
    let c1 = g.add(
        OpKind::Conv2d {
            out_channels: 32,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[x],
        "conv1",
    );
    let c2 = g.add(
        OpKind::Conv2d {
            out_channels: 32,
            kernel: (1, 1),
            stride: (1, 1),
            padding: (0, 0),
        },
        &[c1],
        "conv2",
    );
    let _a = g.add(OpKind::Add, &[c2, c1], "residual");
    g
}

fn errors_of<'a>(report: &'a Report, pass: &str) -> Vec<&'a gcd2_verify::Diagnostic> {
    report
        .of_pass(pass)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

#[test]
fn baseline_compilation_is_clean() {
    let compiled = Compiler::new().compile(&small_net());
    let report = compiled.verify();
    assert_eq!(report.error_count(), 0, "{report}");
}

#[test]
fn hard_dependency_packed_together_is_caught() {
    let mut compiled = Compiler::new().compile(&small_net());
    // A vrmpy and a consumer of its result forced into one packet — a
    // hard RAW the SDA packer would never emit.
    compiled.lowered.program.blocks.push(PackedBlock {
        packets: vec![Packet::from_insns(vec![
            Insn::Vrmpy {
                dst: v(0),
                src: v(2),
                weights: r(0),
                acc: false,
            },
            Insn::Vadd {
                lane: Lane::W,
                dst: v(4),
                a: v(0),
                b: v(3),
            },
        ])]
        .into(),
        trip_count: 1,
        label: "mutated".into(),
    });
    let report = compiled.verify();
    let hits = errors_of(&report, "PacketLegality");
    assert!(
        hits.iter().any(|d| d.message.contains("hard dependency")),
        "expected PacketLegality to flag the packed hard dependency:\n{report}"
    );
}

#[test]
fn overfilled_multiply_slot_is_caught() {
    let mut compiled = Compiler::new().compile(&small_net());
    // Two vector-multiply instructions share a packet: from_insns only
    // asserts the slot count, so the mutation builds without complaint.
    compiled.lowered.program.blocks.push(PackedBlock {
        packets: vec![Packet::from_insns(vec![
            Insn::Vrmpy {
                dst: v(0),
                src: v(2),
                weights: r(0),
                acc: false,
            },
            Insn::Vrmpy {
                dst: v(1),
                src: v(3),
                weights: r(1),
                acc: false,
            },
        ])]
        .into(),
        trip_count: 1,
        label: "mutated".into(),
    });
    let report = compiled.verify();
    let hits = errors_of(&report, "PacketLegality");
    assert!(
        hits.iter().any(|d| d.message.contains("vector-multiply")),
        "expected PacketLegality to flag the overfilled multiply unit:\n{report}"
    );
}

#[test]
fn definition_reordered_after_use_is_caught() {
    let mut compiled = Compiler::new().compile(&small_net());
    // The load that should precede the add got scheduled after it in a
    // straight-line block.
    compiled.lowered.program.blocks.push(PackedBlock {
        packets: vec![
            Packet::from_insns(vec![Insn::Vadd {
                lane: Lane::H,
                dst: v(2),
                a: v(0),
                b: v(1),
            }]),
            Packet::from_insns(vec![Insn::VLoad {
                dst: v(0),
                base: r(0),
                offset: 0,
            }]),
        ]
        .into(),
        trip_count: 1,
        label: "mutated".into(),
    });
    let report = compiled.verify();
    let hits = errors_of(&report, "RegisterDataflow");
    assert!(
        hits.iter()
            .any(|d| d.message.contains("before its first definition")),
        "expected RegisterDataflow to flag the reordered definition:\n{report}"
    );
}

#[test]
fn dangling_graph_input_is_caught() {
    let mut compiled = Compiler::new().compile(&small_net());
    let mut nodes = compiled.graph.nodes().to_vec();
    let last = nodes.len() - 1;
    nodes[last].inputs[0] = NodeId(nodes.len() + 7);
    compiled.graph = Graph::from_nodes_unchecked(nodes);
    let report = compiled.verify();
    let hits = errors_of(&report, "GraphInvariants");
    assert!(
        hits.iter().any(|d| d.message.contains("does not exist")),
        "expected GraphInvariants to flag the dangling input:\n{report}"
    );
}

#[test]
fn corrupted_recorded_shape_is_caught() {
    let mut compiled = Compiler::new().compile(&small_net());
    let mut nodes = compiled.graph.nodes().to_vec();
    let victim = nodes
        .iter()
        .position(|n| !matches!(n.kind, OpKind::Input | OpKind::Constant))
        .expect("an operator node");
    nodes[victim].shape = TShape::nchw(1, 3, 2, 2);
    compiled.graph = Graph::from_nodes_unchecked(nodes);
    let report = compiled.verify();
    let hits = errors_of(&report, "GraphInvariants");
    assert!(
        hits.iter().any(|d| d.message.contains("inputs imply")),
        "expected GraphInvariants to flag the corrupted shape:\n{report}"
    );
}

#[test]
fn inflated_assignment_cost_is_caught() {
    let mut compiled = Compiler::new().compile(&small_net());
    compiled.assignment.cost += 1;
    let report = compiled.verify();
    let hits = errors_of(&report, "PlanLegality");
    assert!(
        hits.iter().any(|d| d.message.contains("Agg_Cost")),
        "expected PlanLegality to flag the inflated aggregate cost:\n{report}"
    );
}

#[test]
fn illegal_instruction_layout_pairing_is_caught() {
    use gcd2_globalopt::PlanKind;
    use gcd2_kernels::SimdInstr;
    use gcd2_tensor::Layout;

    let mut compiled = Compiler::new().compile(&small_net());
    let victim = compiled
        .chosen
        .iter()
        .position(|p| matches!(p.kind, PlanKind::Gemm(_)))
        .expect("a gemm plan");
    // vrmpy consumes 4-column data; claim it runs on 1-column.
    compiled.chosen[victim].kind = PlanKind::Gemm(SimdInstr::Vrmpy);
    compiled.chosen[victim].layout = Layout::Col1;
    let report = compiled.verify();
    let hits = errors_of(&report, "PlanLegality");
    assert!(
        !hits.is_empty(),
        "expected PlanLegality to flag the instruction/layout mismatch:\n{report}"
    );
}
