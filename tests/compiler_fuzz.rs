//! End-to-end compiler fuzz: random small DAGs (branches, residuals,
//! mixed operators) compiled under every selection strategy and packing
//! mode must produce legal, internally consistent artifacts with the
//! expected quality ordering.

use gcd2_repro::cgraph::{Activation, Graph, NodeId, OpKind, TShape};
use gcd2_repro::compiler::{Compiler, Packing, Selection};
use gcd2_repro::hvx::ResourceModel;
use proptest::prelude::*;

/// A random DAG: a trunk of operators with occasional residual edges
/// back to earlier same-shaped nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec((0u8..6, any::<bool>()), 2..10),
        16usize..48,
    )
        .prop_map(|(ops, ch)| {
            let mut g = Graph::new();
            let mut cur = g.input("x", TShape::nchw(1, ch, 14, 14));
            let mut same_shape: Vec<NodeId> = Vec::new();
            for (i, (kind, residual)) in ops.into_iter().enumerate() {
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
                    _ => {
                        if residual && !same_shape.is_empty() {
                            let other = same_shape[same_shape.len() / 2];
                            g.add(OpKind::Add, &[cur, other], format!("add{i}"))
                        } else {
                            g.add(OpKind::Add, &[cur, cur], format!("self_add{i}"))
                        }
                    }
                };
                same_shape.push(cur);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Selection-quality ordering survives arbitrary graph shapes.
    #[test]
    fn selection_ordering_on_random_graphs(g in arb_graph()) {
        let gcd2 = Compiler::new().with_selection(Selection::Gcd2 { max_ops: 13 }).compile(&g);
        let local = Compiler::new().with_selection(Selection::LocalOptimal).compile(&g);
        let pbqp = Compiler::new().with_selection(Selection::Pbqp).compile(&g);
        prop_assert!(gcd2.assignment.cost <= local.assignment.cost);
        prop_assert!(pbqp.assignment.cost <= local.assignment.cost);
        prop_assert!(gcd2.cycles() > 0);
    }

    /// Every packing mode produces a legal program; SDA never loses to
    /// soft_to_hard or sequential.
    #[test]
    fn packing_legality_on_random_graphs(g in arb_graph()) {
        let model = ResourceModel::default();
        let mut cycles = Vec::new();
        for mode in [Packing::Sda, Packing::SoftToHard, Packing::SoftToNone, Packing::Sequential] {
            let compiled = Compiler::new().with_packing(mode).compile(&g);
            for block in &compiled.lowered.program.blocks {
                prop_assert!(block.is_legal(&model), "illegal block {}", block.label);
            }
            cycles.push(compiled.cycles());
        }
        let (sda, s2h, _s2n, seq) = (cycles[0], cycles[1], cycles[2], cycles[3]);
        prop_assert!(sda <= s2h, "sda {sda} vs s2h {s2h}");
        prop_assert!(sda < seq, "sda {sda} vs sequential {seq}");
    }

    /// Compilation metrics are always finite and self-consistent.
    #[test]
    fn metrics_are_consistent(g in arb_graph()) {
        let compiled = Compiler::new().compile(&g);
        let stats = compiled.stats();
        prop_assert!(stats.insns <= 4 * stats.packets);
        prop_assert!(stats.stall_cycles <= stats.cycles);
        prop_assert!(compiled.utilization() > 0.0 && compiled.utilization() <= 1.0);
        prop_assert!(compiled.power_w().is_finite() && compiled.power_w() > 0.0);
        let attributed: u64 = compiled
            .lowered
            .reports
            .iter()
            .map(|r| r.kernel_cycles + r.transform_cycles)
            .sum();
        let diff = (attributed as f64 - compiled.cycles() as f64).abs();
        let rel = diff / compiled.cycles() as f64;
        prop_assert!(rel < 0.02, "attribution off by {}", rel);
    }
}

/// Satellite of the robustness layer: no malformed serialized graph
/// text may panic the compiler. Every corpus entry must come back as a
/// structured [`gcd2::Gcd2Error`], whether it dies in the parser, in
/// shape inference, or at admission.
mod malformed_text {
    use gcd2_repro::cgraph::from_text;
    use gcd2_repro::compiler::{Compiler, Gcd2Error};

    const CORPUS: &[(&str, &str)] = &[
        ("empty text", ""),
        ("truncated input line", "input x"),
        ("truncated op line", "input x [1x8x8x8]\nop y"),
        ("missing arrow", "input x [1x8x8x8]\nop y add x, x"),
        ("garbage tokens", "\u{0}\u{1}\u{7f} ???"),
        ("unrecognized line", "flip x over"),
        ("unknown mnemonic", "input x [1x4x4x4]\nop y warp <- x"),
        (
            "unknown activation",
            "input x [1x4x4x4]\nop y act tanh <- x",
        ),
        ("duplicate input name", "input x [4]\ninput x [8]"),
        (
            "duplicate op name",
            "input x [1x4x4x4]\nop y add <- x, x\nop y add <- x, x",
        ),
        ("dangling reference", "op y add <- ghost, ghost"),
        ("bad shape brackets", "input x 1x4x4x4"),
        ("bad shape dims", "input x [1xx4]"),
        ("unparseable dim", "input x [99999999999999999999999]"),
        (
            "tensor over admission limit",
            "input x [4294967295x4294967295]",
        ),
        (
            "zero stride conv",
            "input x [1x8x8x8]\nop c conv2d out=8 k=3x3 s=0x0 p=1x1 <- x",
        ),
        (
            "kernel larger than input",
            "input x [1x8x4x4]\nop c conv2d out=8 k=9x9 s=1x1 p=0x0 <- x",
        ),
        (
            "conv on rank-2 input",
            "input x [8x8]\nop c conv2d out=8 k=3x3 s=1x1 p=1x1 <- x",
        ),
        (
            "element-changing reshape",
            "input x [1x8x4x4]\nop r reshape to=[1x8x4x5] <- x",
        ),
        (
            "non-broadcastable add",
            "input a [1x8x4x4]\ninput b [1x7x4x4]\nop y add <- a, b",
        ),
        (
            "upsample factor overflow",
            "input x [1x8x4x4]\nop u upsample f=18446744073709551615 <- x",
        ),
        ("zero dimension", "input x [1x0x4x4]\nop y add <- x, x"),
    ];

    #[test]
    fn no_malformed_text_panics_the_compiler() {
        let compiler = Compiler::new();
        for (what, text) in CORPUS {
            let result = compiler.try_compile_text(text);
            assert!(
                result.is_err(),
                "corpus entry '{what}' unexpectedly compiled"
            );
        }
    }

    #[test]
    fn parser_failures_surface_as_parse_errors_with_line_numbers() {
        let compiler = Compiler::new();
        match compiler.try_compile_text("input x [1x4x4x4]\nop y warp <- x") {
            Err(Gcd2Error::Parse(e)) => assert_eq!(e.line, 2, "wrong line: {e}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
        // from_text alone must agree with the compiler entry point.
        assert!(from_text("op y add <- ghost, ghost").is_err());
    }

    #[test]
    fn admission_failures_surface_as_admission_errors() {
        let compiler = Compiler::new();
        match compiler.try_compile_text("") {
            Err(Gcd2Error::Admission(_)) => {}
            other => panic!("expected an admission error, got {other:?}"),
        }
        match compiler.try_compile_text("input x [4294967295x4294967295]") {
            Err(Gcd2Error::Admission(_)) => {}
            other => panic!("expected an admission error, got {other:?}"),
        }
    }
}
