//! Epilogue maps: an inference plan folds every step that is a function
//! of one matmul-backed GEMM's value alone into that GEMM's
//! requantisation, as one 16-entry byte map (DESIGN.md §4d, *Epilogue
//! maps*). These tests hold a synthetic net that has every legal fold
//! and every refusal to the interpreter on every kernel tier, and pin the
//! folds of the catalog models the benchmark runs.

use gcd2::{execute_reference, ActLayout, Compiler, InferencePlan, Verdict};
use gcd2_cgraph::{Graph, NodeId, OpKind, TShape};
use gcd2_kernels::{pin_isa, KernelIsa};
use gcd2_models::ModelId;

fn conv(out_channels: usize, k: usize) -> OpKind {
    OpKind::Conv2d {
        out_channels,
        kernel: (k, k),
        stride: (1, 1),
        padding: (k / 2, k / 2),
    }
}

/// What folds: an `Add` with its constant second then a `Sigmoid` (a
/// chain of two, `c1`), an `Add` with its constant first (`c2`),
/// `Add(x, x)` (`c3`), `Add`, `Pow`, `Gelu` (a chain of three, `c4`) and
/// a bias `Add` and `Gelu` that end at the model output (`fc`). What does
/// not: a `Gelu` of a GEMM value that a second step reads (`c5`), a
/// `Sigmoid` of a direct conv (`c6`, eight channels), a `Gelu` of a
/// depthwise conv (`d7`) and of a ConvTranspose whose scatter leaves
/// three quarters of its value zero (`up`).
fn fold_net() -> Graph {
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 8, 12, 12));
    let image = TShape::nchw(1, 32, 12, 12);
    let c1 = g.add(conv(32, 3), &[x], "c1");
    let k1 = g.constant("k1", image.clone());
    let a1 = g.add(OpKind::Add, &[c1, k1], "a1");
    let s1 = g.add(OpKind::Sigmoid, &[a1], "s1");
    let c2 = g.add(conv(32, 1), &[s1], "c2");
    let k2 = g.constant("k2", image.clone());
    let a2 = g.add(OpKind::Add, &[k2, c2], "a2");
    let c3 = g.add(conv(32, 1), &[a2], "c3");
    let d3 = g.add(OpKind::Add, &[c3, c3], "d3");
    let c4 = g.add(conv(32, 3), &[d3], "c4");
    let k4 = g.constant("k4", image);
    let a4 = g.add(OpKind::Add, &[c4, k4], "a4");
    let p4 = g.add(OpKind::Pow, &[a4], "p4");
    let g4 = g.add(OpKind::Gelu, &[p4], "g4");
    let c5 = g.add(conv(32, 1), &[g4], "c5");
    let h5 = g.add(OpKind::Gelu, &[c5], "h5");
    let r5 = g.add(OpKind::Add, &[h5, c5], "r5");
    let c6 = g.add(conv(8, 3), &[r5], "c6");
    let s6 = g.add(OpKind::Sigmoid, &[c6], "s6");
    let d7 = g.add(
        OpKind::DepthwiseConv2d {
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[s6],
        "d7",
    );
    let g7 = g.add(OpKind::Gelu, &[d7], "g7");
    let up = g.add(
        OpKind::ConvTranspose2d {
            out_channels: 16,
            kernel: (2, 2),
            stride: (2, 2),
        },
        &[g7],
        "up",
    );
    let gu = g.add(OpKind::Gelu, &[up], "gu");
    let gap = g.add(OpKind::GlobalAvgPool, &[gu], "gap");
    let flat = g.add(
        OpKind::Reshape {
            shape: TShape::new(vec![1, 16]),
        },
        &[gap],
        "flat",
    );
    let fc = g.add(OpKind::MatMul { n: 16 }, &[flat], "fc");
    let kf = g.constant("kf", TShape::new(vec![1, 16]));
    let af = g.add(OpKind::Add, &[fc, kf], "af");
    g.add(OpKind::Gelu, &[af], "gf");
    g
}

/// The node named `name`.
fn node(graph: &Graph, name: &str) -> NodeId {
    match graph.nodes().iter().find(|n| n.name == name) {
        Some(n) => n.id,
        None => panic!("no node {name}"),
    }
}

/// Each GEMM's epilogue, by name.
fn epilogues<'p>(plan: &'p InferencePlan, graph: &Graph, gemms: &[&str]) -> Vec<Vec<&'p str>> {
    gemms
        .iter()
        .map(|name| plan.epilogue(node(graph, name)))
        .collect()
}

fn inputs(len: usize) -> Vec<Vec<u8>> {
    (0..3)
        .map(|s| {
            (0..len)
                .map(|i| ((i * 7 + s * 5 + i / 13) % 16) as u8)
                .collect()
        })
        .collect()
}

/// Nine steps fold and four constants go unread, on every tier the host
/// supports, the scalar oracle included (each building its own plan,
/// whose panels are that tier's form); every plan analyzes clean and answers
/// the interpreter's bytes.
#[test]
fn the_synthetic_net_folds_what_is_legal_bit_identically_on_every_tier() {
    let compiled = Compiler::new().compile(&fold_net());
    let graph = &compiled.graph;
    let gemms = ["c1", "c2", "c3", "c4", "c5", "c6", "d7", "up", "fc"];
    let want: Vec<Vec<&str>> = vec![
        vec!["Add", "Sigmoid"],
        vec!["Add"],
        vec!["Add"],
        vec!["Add", "Pow", "Gelu"],
        vec![],
        vec![],
        vec![],
        vec![],
        vec!["Add", "Gelu"],
    ];
    let check = |tier: &str| {
        let plan = compiled.inference_plan(0x5EED);
        assert_eq!(plan.folded_steps(), (9, 4), "{tier}");
        assert_eq!(epilogues(&plan, graph, &gemms), want, "{tier}");
        assert_eq!(
            compiled.analyze_plan(&plan).verdict(),
            Verdict::Clean,
            "{tier}"
        );
        for x in inputs(plan.input_len()) {
            let reference = execute_reference(&compiled, &x, 0x5EED);
            assert_eq!(plan.execute(&x), reference, "{tier}");
        }
    };
    for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.supported()) {
        let _pin = pin_isa(isa);
        check(isa.name());
    }
}

/// A conv whose value is held as rows and a `Sigmoid` that reads planes
/// have a conversion between them: the `Sigmoid` runs on its own. Under
/// the selection's labels, which convert nothing there, it folds; both
/// plans answer the interpreter's bytes.
#[test]
fn a_layout_conversion_between_the_steps_refuses_the_fold() {
    use ActLayout::{Chw, Rows};
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 8, 12, 12));
    let c = g.add(conv(32, 3), &[x], "c");
    let s = g.add(OpKind::Sigmoid, &[c], "s");
    g.add(OpKind::Upsample { factor: 2 }, &[s], "up");
    let compiled = Compiler::new().compile(&g);
    let selected = compiled.inference_plan(3);
    let converted = InferencePlan::try_build_labelled(
        &compiled,
        3,
        &[(Chw, Chw), (Chw, Rows), (Chw, Chw), (Chw, Chw)],
    )
    .expect("labels the steps admit");
    assert_eq!(selected.folded_steps(), (1, 0));
    assert_eq!(converted.folded_steps(), (0, 0));
    for x in inputs(selected.input_len()) {
        let reference = execute_reference(&compiled, &x, 3);
        assert_eq!(selected.execute(&x), reference);
        assert_eq!(converted.execute(&x), reference);
    }
}

/// The folds of the catalog models the benchmark runs warm, and their
/// plan checksums (seed `0xC0DE`, what `gcd2c` builds): tinybert folds
/// its 37 bias `Add`s, 6 `Pow`s and 7 `Gelu`s (`transformer.rs`: one
/// bias per dense layer, one `Pow` per attention, one `Gelu` per FFN and
/// the pooler's) and leaves its 37 bias constants unread; resnet-50
/// folds nothing, so its checksum is the one every earlier format had;
/// mobilenet-v3 and efficientnet-b0 fold each squeeze-excite `Sigmoid`
/// into the gate's expand conv.
#[test]
fn the_catalog_folds_are_pinned() {
    let cases = [
        (ModelId::TinyBert, (50, 37), 0xd9d5_5223_f2a2_9d24_u64),
        (ModelId::ResNet50, (0, 0), 0x6241_cf52_6ebe_7984),
        (ModelId::MobileNetV3, (8, 0), 0x7d3c_36c7_fbbf_da5c),
        (ModelId::EfficientNetB0, (16, 0), 0xb2c5_0bd3_a199_4798),
    ];
    for (model, folds, checksum) in cases {
        let compiled = Compiler::new().compile(&model.build());
        let plan = compiled.inference_plan(0xC0DE);
        assert_eq!(plan.folded_steps(), folds, "{model}");
        assert_eq!(plan.checksum(), checksum, "{model}: {:#x}", plan.checksum());
        let mut by_kind: Vec<(&str, usize)> = Vec::new();
        for gemm in compiled.graph.nodes() {
            let epilogue = plan.epilogue(gemm.id);
            if model != ModelId::TinyBert && !epilogue.is_empty() {
                assert_eq!(epilogue, ["Sigmoid"], "{model} {}", gemm.name);
                assert!(gemm.name.ends_with(".se.expand"), "{model} {}", gemm.name);
            }
            for op in epilogue {
                match by_kind.iter_mut().find(|(k, _)| *k == op) {
                    Some((_, n)) => *n += 1,
                    None => by_kind.push((op, 1)),
                }
            }
        }
        if model == ModelId::TinyBert {
            assert_eq!(by_kind, [("Add", 37), ("Pow", 6), ("Gelu", 7)]);
        }
    }
}

/// tinybert's folds and its group kernels (every `Softmax` and
/// `LayerNorm` step) in a whole plan, built and run on every tier the
/// host supports: 50 steps fold, 37 constants go unread, and the plan
/// answers the interpreter's bytes.
#[test]
fn tinybert_folds_and_answers_the_interpreter_on_every_tier() {
    let compiled = Compiler::new().compile(&ModelId::TinyBert.build());
    let mut want = None;
    for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.supported()) {
        let _pin = pin_isa(isa);
        let plan = compiled.inference_plan(0xC0DE);
        assert_eq!(plan.folded_steps(), (50, 37), "{isa}");
        let x = &inputs(plan.input_len())[0];
        let want = want.get_or_insert_with(|| execute_reference(&compiled, x, 0xC0DE));
        assert!(plan.execute(x) == *want, "{isa}");
    }
}
