//! Cross-crate integration tests: the paper's headline claims, asserted
//! end to end through the facade crate.

use gcd2_repro::baselines::Framework;
use gcd2_repro::compiler::{Compiler, Packing, Selection};
use gcd2_repro::kernels::KernelIsa;
use gcd2_repro::models::ModelId;

/// Every kernel tier this host can run, the scalar oracle first.
fn tiers() -> impl Iterator<Item = KernelIsa> {
    KernelIsa::ALL.into_iter().filter(|isa| isa.supported())
}

/// Table IV: GCD2 beats both production frameworks on every supported
/// model.
#[test]
fn gcd2_beats_tflite_and_snpe_everywhere() {
    for id in [ModelId::MobileNetV3, ModelId::ResNet50, ModelId::WdsrB] {
        let g = id.build();
        let gcd2 = Compiler::new().compile(&g);
        let t = Framework::Tflite.run(&g).expect("supported").stats.cycles;
        let s = Framework::Snpe.run(&g).expect("supported").stats.cycles;
        assert!(
            gcd2.cycles() < t,
            "{id}: GCD2 {} vs TFLite {t}",
            gcd2.cycles()
        );
        assert!(
            gcd2.cycles() < s,
            "{id}: GCD2 {} vs SNPE {s}",
            gcd2.cycles()
        );
    }
}

/// Table IV: WDSR-b (wildly varied feature-map shapes) shows the largest
/// speedup over TFLite of the CNN suite — the paper's 6.0x headline.
#[test]
fn wdsr_shows_the_largest_tflite_speedup() {
    let speedup = |id: ModelId| {
        let g = id.build();
        let gcd2 = Compiler::new().compile(&g).cycles() as f64;
        Framework::Tflite.run(&g).expect("supported").stats.cycles as f64 / gcd2
    };
    let wdsr = speedup(ModelId::WdsrB);
    assert!(wdsr > speedup(ModelId::ResNet50), "wdsr {wdsr}");
    assert!(wdsr > speedup(ModelId::CycleGan));
    assert!(
        wdsr > 2.0,
        "WDSR speedup should be the suite's largest: {wdsr}"
    );
}

/// Table IV: the transformers run only under GCD2 ("for the first
/// time"), because TFLite/SNPE lack Pow and the MatMul variants.
#[test]
fn transformers_run_for_the_first_time() {
    for id in [ModelId::TinyBert, ModelId::Conformer] {
        let g = id.build();
        assert!(
            Framework::Tflite.run(&g).is_none(),
            "{id} must be unsupported by TFLite"
        );
        assert!(
            Framework::Snpe.run(&g).is_none(),
            "{id} must be unsupported by SNPE"
        );
        let compiled = Compiler::new().compile(&g);
        assert!(
            compiled.cycles() > 0,
            "{id} must compile and run under GCD2"
        );
    }
    // And SNPE cannot ingest EfficientDet's 800+-operator graph.
    let effdet = ModelId::EfficientDetD0.build();
    assert!(Framework::Snpe.run(&effdet).is_none());
    assert!(Framework::Tflite.run(&effdet).is_some());
}

/// Figure 11's ordering holds end to end on a full model.
#[test]
fn packing_policies_are_ordered_end_to_end() {
    let g = ModelId::EfficientNetB0.build();
    let sda = Compiler::new().compile(&g).cycles();
    let s2h = Compiler::new()
        .with_packing(Packing::SoftToHard)
        .compile(&g)
        .cycles();
    let s2n = Compiler::new()
        .with_packing(Packing::SoftToNone)
        .compile(&g)
        .cycles();
    let seq = Compiler::new()
        .with_packing(Packing::Sequential)
        .compile(&g)
        .cycles();
    assert!(sda <= s2h, "SDA {sda} vs soft_to_hard {s2h}");
    assert!(sda <= s2n, "SDA {sda} vs soft_to_none {s2n}");
    assert!(seq > s2h, "sequential must be worst: {seq} vs {s2h}");
}

/// Figure 10's ordering: local <= GCD2(13) <= global optimum costs on a
/// prefix of ResNet-50, and GCD2(13) is within a few percent of global.
#[test]
fn selection_quality_ordering() {
    use gcd2_repro::globalopt::{enumerate_plans, exhaustive, gcd2_select, local_optimal};
    use gcd2_repro::kernels::CostModel;

    let resnet = ModelId::ResNet50.build();
    // First 10 operators (prefix preserves node ids).
    let mut g = gcd2_repro::cgraph::Graph::new();
    let mut ops = 0;
    for node in resnet.nodes() {
        match node.kind {
            gcd2_repro::cgraph::OpKind::Input => {
                g.input(node.name.clone(), node.shape.clone());
            }
            _ => {
                if ops >= 10 {
                    break;
                }
                g.add(node.kind.clone(), &node.inputs, node.name.clone());
                ops += 1;
            }
        }
    }
    let model = CostModel::new();
    let plans = enumerate_plans(&g, &model);
    let local = local_optimal(&g, &plans);
    let g13 = gcd2_select(&g, &plans, 13);
    let scope: Vec<_> = g
        .nodes()
        .iter()
        .filter(|n| !matches!(n.kind, gcd2_repro::cgraph::OpKind::Input))
        .map(|n| n.id)
        .collect();
    let global = exhaustive(&g, &plans, &scope);
    assert!(g13.cost <= local.cost);
    assert!(global.cost <= g13.cost);
    assert!(
        g13.cost as f64 <= global.cost as f64 * 1.05,
        "GCD2(13) {} within 5% of global {}",
        g13.cost,
        global.cost
    );
}

/// The compiled artifact exposes coherent measurements.
#[test]
fn compiled_model_metrics_are_coherent() {
    let g = ModelId::MobileNetV3.build();
    let m = Compiler::new().compile(&g);
    let stats = m.stats();
    assert!(stats.insns <= 4 * stats.packets, "slot accounting");
    assert!(stats.stall_cycles < stats.cycles);
    assert!((m.fps() * m.latency_ms() - 1e3).abs() < 1e-6);
    assert!(m.power_w() > 0.5 && m.power_w() < 5.0);
}

/// Uniform-instruction compilation (the TFLite-style baseline) is never
/// better than GCD2's global selection.
#[test]
fn uniform_selection_never_wins() {
    use gcd2_repro::kernels::SimdInstr;
    let g = ModelId::WdsrB.build();
    let gcd2 = Compiler::new().compile(&g).cycles();
    for instr in SimdInstr::ALL {
        let uniform = Compiler::new()
            .with_selection(Selection::Uniform(instr))
            .compile(&g)
            .cycles();
        assert!(gcd2 <= uniform, "{instr}: {uniform} vs {gcd2}");
    }
}

/// Compilation is a pure function of the graph: for every catalog
/// model, a second compile on the same compiler (its cost cache now
/// warm) produces the same plan assignment and the same cycle count,
/// and the program passes the static verifier.
#[test]
fn every_catalog_model_compiles_identically_twice() {
    for id in ModelId::ALL {
        let graph = id.build();
        let compiler = Compiler::new();
        let cold = compiler.compile(&graph);
        let warm = compiler.compile(&graph);
        assert_eq!(cold.cycles(), warm.cycles(), "{id}: cycles diverge");
        assert_eq!(
            cold.assignment.choice, warm.assignment.choice,
            "{id}: plan assignment diverges"
        );
        assert_eq!(
            cold.assignment.cost, warm.assignment.cost,
            "{id}: assignment cost diverges"
        );
        let report = cold.verify();
        assert_eq!(
            report.error_count(),
            0,
            "{id}: verifier rejected the compiled program:\n{report}"
        );
    }
}

/// The packing memo a compiler shares between its cost model and its
/// lowering is a pure cache of the packer: on every catalog model, under
/// the default PBQP assignment and under GCD2(13)'s, every block it holds
/// re-packs to the same packets with the memo-less reference form of
/// Algorithm 1, and every block of the lowered program is one of those
/// very schedules (lowering packed through the shared memo).
#[test]
fn shared_pack_memo_hands_out_reference_schedules() {
    use gcd2_repro::hvx::ResourceModel;
    use gcd2_repro::vliw::{pack_insns_ref, ScoreParams, SoftDepPolicy};
    use std::sync::Arc;
    for id in ModelId::ALL {
        let graph = id.build();
        for selection in [Selection::Pbqp, Selection::Gcd2 { max_ops: 13 }] {
            let compiler = Compiler::new().with_selection(selection);
            let compiled = compiler.compile(&graph);
            let entries = compiler.pack_memo().entries();
            assert!(!entries.is_empty(), "{id} {selection:?}");
            for (insns, packets) in &entries {
                let reference = pack_insns_ref(
                    insns,
                    &ResourceModel::default(),
                    SoftDepPolicy::Sda,
                    ScoreParams::default(),
                );
                assert_eq!(**packets, reference[..], "{id} {selection:?}");
            }
            // The last block is the dispatch-overhead filler, never packed.
            let blocks = &compiled.lowered.program.blocks;
            for block in &blocks[..blocks.len() - 1] {
                assert!(
                    entries
                        .iter()
                        .any(|(_, packets)| Arc::ptr_eq(packets, &block.packets)),
                    "{id} {selection:?}: block '{}' was not packed through the shared memo",
                    block.label
                );
            }
        }
    }
}

/// A catalog graph rebuilt over a smaller `h × w` input, every shape
/// re-inferred. Only for the fully convolutional models whose reference
/// run stages gigabytes at catalog size; a pixel-shuffle `Reshape` is
/// re-targeted to its operand's new size.
fn rescaled(graph: &gcd2_repro::cgraph::Graph, h: usize, w: usize) -> gcd2_repro::cgraph::Graph {
    use gcd2_repro::cgraph::{Graph, OpKind, TShape};
    let mut g = Graph::new();
    for node in graph.nodes() {
        let kind = match &node.kind {
            OpKind::Input => {
                g.input(&node.name, TShape::nchw(1, node.shape.channels(), h, w));
                continue;
            }
            OpKind::Reshape { shape } => {
                let from = &g.node(node.inputs[0]).shape;
                let up = shape.dim(2) / graph.node(node.inputs[0]).shape.dim(2);
                OpKind::Reshape {
                    shape: TShape::nchw(1, shape.channels(), from.dim(2) * up, from.dim(3) * up),
                }
            }
            kind => kind.clone(),
        };
        g.add(kind, &node.inputs, &node.name);
    }
    g
}

/// The layout selection changes where bytes sit, never what they are:
/// for every catalog model, the plan whose layouts the selector chose,
/// the plan that pins every label to `Chw`, and the interpreter agree
/// byte for byte — single-shot and as a batch of four run in turn over
/// one arena (single shot is batch size 1 of the same differential) —
/// with both plans built and run on every tier the host supports. The
/// four models whose interpreter run stages gigabytes at catalog size
/// run shape-scaled.
#[test]
fn chosen_layouts_equal_all_chw_equal_the_interpreter() {
    use gcd2_repro::cgraph::OpKind;
    use gcd2_repro::compiler::{execute_reference, ExecOptions, InferencePlan};
    use gcd2_repro::kernels::pin_isa;
    const SEED: u64 = 0x1A70;
    for id in ModelId::ALL {
        let graph = match id {
            ModelId::Fst | ModelId::CycleGan => rescaled(&id.build(), 64, 64),
            ModelId::WdsrB => rescaled(&id.build(), 60, 80),
            ModelId::PixOr => rescaled(&id.build(), 96, 64),
            _ => id.build(),
        };
        let compiled = Compiler::new().compile(&graph);
        let len = compiled
            .graph
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OpKind::Input))
            .map_or(0, |n| n.shape.elems());
        let inputs: Vec<Vec<u8>> = (0..4)
            .map(|b| {
                (0..len)
                    .map(|i| ((i * 11 + 5 * (b + 1)) % 16) as u8)
                    .collect()
            })
            .collect();
        let want: Vec<Vec<u8>> = inputs
            .iter()
            .map(|x| execute_reference(&compiled, x, SEED))
            .collect();
        for tier in tiers() {
            let _pin = pin_isa(tier);
            let chosen = compiled.inference_plan(SEED);
            let all_chw = InferencePlan::try_build_all_chw(&compiled, SEED).expect("all-chw plan");
            assert_eq!(all_chw.rows_values(), 0, "{id}");
            let (cost, reference_cost) = chosen.layout_cost();
            assert_eq!(
                all_chw.layout_cost(),
                (reference_cost, reference_cost),
                "{id}"
            );
            assert!(cost.bytes <= reference_cost.bytes, "{id}: planned worse");
            // Equal labels are equal plans: nothing more to compare.
            let same_plan = chosen.checksum() == all_chw.checksum();
            assert_eq!(same_plan, chosen.rows_values() == 0, "{id}");
            for plan in [&chosen, &all_chw].into_iter().take(2 - same_plan as usize) {
                let opts = ExecOptions::default();
                let mut one = Vec::new();
                plan.try_execute_into(&inputs[0], &mut plan.new_arena(), &mut one, &opts)
                    .unwrap_or_else(|e| panic!("{id}: {e}"));
                assert!(one == want[0], "{id}: single-shot, {tier}");
                let mut arena = plan.new_arena();
                for (i, (x, want)) in inputs.iter().zip(&want).enumerate() {
                    plan.try_execute_into(x, &mut arena, &mut one, &opts)
                        .unwrap_or_else(|e| panic!("{id}: {e}"));
                    assert!(one == *want, "{id}: batch input {i}, {tier}");
                }
            }
        }
    }
}

/// The mobile nets stay channels-last end to end: every depthwise step
/// of mobilenet-v3 and efficientnet-b0 reads rows and leaves rows, and
/// no operand of either plan is converted on the way into its step —
/// in the plan every tier the host supports builds.
#[test]
fn mobile_net_depthwise_steps_run_in_rows_with_no_conversion() {
    use gcd2_repro::compiler::ActLayout::Rows;
    use gcd2_repro::kernels::pin_isa;
    use gcd2_repro::verify::InferPlanView;
    for id in [ModelId::MobileNetV3, ModelId::EfficientNetB0] {
        let compiled = Compiler::new().compile(&id.build());
        for tier in tiers() {
            let _pin = pin_isa(tier);
            let plan = compiled.inference_plan(1);
            let depthwise: Vec<_> = (0..plan.step_count())
                .map(|i| plan.step(i))
                .filter(|s| s.op.starts_with("DWConv2d"))
                .collect();
            assert!(depthwise.len() >= 15, "{id}: {} steps", depthwise.len());
            for s in depthwise {
                assert_eq!(
                    (s.in_layout, s.out_layout),
                    (Rows, Rows),
                    "{id} {tier}: {}",
                    s.name
                );
            }
            assert_eq!(plan.layout_cost().0.conversions, 0, "{id} {tier}");
        }
    }
}

/// Exhaustive, on one graph small enough to enumerate — conv →
/// depthwise → squeeze-excite (gap, two 1×1, sigmoid, gate) → conv →
/// residual add → max-pool: over **every** assignment of admissible
/// `(in, out)` pairs, the selection's is the argmin of its own cost,
/// and every one of them, built and run on every tier the host
/// supports, executes to the interpreter's bytes.
#[test]
fn every_admissible_layout_assignment_executes_identically_and_the_selection_is_the_cheapest() {
    use gcd2_repro::cgraph::{Graph, OpKind, TShape};
    use gcd2_repro::compiler::{execute_reference, ExecOptions, InferencePlan};
    use gcd2_repro::kernels::pin_isa;
    const SEED: u64 = 0x5E1EC7;
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 6, 9, 8));
    let conv = |out_channels, k, p| OpKind::Conv2d {
        out_channels,
        kernel: (k, k),
        stride: (1, 1),
        padding: (p, p),
    };
    let c1 = g.add(conv(20, 3, 1), &[x], "c1");
    let dw = g.add(
        OpKind::DepthwiseConv2d {
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[c1],
        "dw",
    );
    let gap = g.add(OpKind::GlobalAvgPool, &[dw], "se.gap");
    let reduce = g.add(conv(8, 1, 0), &[gap], "se.reduce");
    let expand = g.add(conv(20, 1, 0), &[reduce], "se.expand");
    let gate = g.add(OpKind::Sigmoid, &[expand], "se.sigmoid");
    let scaled = g.add(OpKind::Mul, &[dw, gate], "se.scale");
    let c2 = g.add(conv(20, 1, 0), &[scaled], "c2");
    let sum = g.add(OpKind::Add, &[c2, c1], "res");
    g.add(
        OpKind::MaxPool {
            kernel: (3, 2),
            stride: (2, 2),
        },
        &[sum],
        "pool",
    );
    let compiled = Compiler::new().compile(&g);
    let chosen = compiled.inference_plan(SEED);
    chosen.verify_integrity().expect("the selection's own plan");
    let input: Vec<u8> = (0..chosen.input_len())
        .map(|i| ((i * 11 + 5) % 16) as u8)
        .collect();
    let want = execute_reference(&compiled, &input, SEED);
    let options = chosen.layout_options();
    assert!(
        options.iter().filter(|o| o.len() > 1).count() >= 9,
        "the graph lost its choices: {options:?}"
    );

    let (mut cheapest, mut assignments) = (u64::MAX, 0usize);
    let mut pick = vec![0usize; options.len()];
    loop {
        let labels: Vec<_> = pick.iter().zip(&options).map(|(&p, o)| o[p]).collect();
        for tier in tiers() {
            let _pin = pin_isa(tier);
            let plan =
                InferencePlan::try_build_labelled(&compiled, SEED, &labels).expect("admitted");
            cheapest = cheapest.min(plan.layout_cost().0.bytes);
            let mut got = Vec::new();
            plan.try_execute_into(
                &input,
                &mut plan.new_arena(),
                &mut got,
                &ExecOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{labels:?}: {e}"));
            assert!(got == want, "{labels:?}, {tier}");
        }
        assignments += 1;
        // The next assignment, odometer-wise; done when it wraps.
        let Some(digit) = (0..pick.len()).find(|&i| pick[i] + 1 < options[i].len()) else {
            break;
        };
        pick[digit] += 1;
        pick[..digit].fill(0);
    }
    assert_eq!(assignments, options.iter().map(Vec::len).product::<usize>());
    let (cost, all_chw) = chosen.layout_cost();
    assert_eq!(cost.bytes, cheapest, "of {assignments} assignments");
    assert!(cost.bytes < all_chw.bytes, "{cost:?} vs {all_chw:?}");
}

/// `pbqp_select` is a builder over the lifted `solve` now; its
/// assignments are the ones it made before the lift — total cost and a
/// [`Checksum64`](gcd2_repro::artifact::Checksum64) of every choice, per
/// catalog model, recorded at the parent commit (and re-recorded, from
/// the same choices, when the workspace's hash stopped being FNV-1a).
#[test]
fn pbqp_select_assignments_are_unchanged_by_the_lift() {
    use gcd2_repro::globalopt::{enumerate_plans, pbqp_select};
    use gcd2_repro::kernels::CostModel;
    let pinned: [(&str, u64, u64); 10] = [
        ("MobileNet-V3", 31327205, 0xdf8049589e608136),
        ("EfficientNet-b0", 51318097, 0xbd7de52c363ecd8b),
        ("ResNet-50", 336188287, 0xb59fb9a662dd8861),
        ("FST", 10862710156, 0xa1e3240b552cfae8),
        ("CycleGAN", 13072952424, 0x78124765284d7049),
        ("WDSR-b", 795686913, 0x7585039acf00bc42),
        ("EfficientDet-d0", 239791016, 0xbad3f1f25cd1b874),
        ("PixOr", 929715654, 0x172ce7a08cfdc022),
        ("TinyBERT", 83330053, 0x2e9bd5420b6b735a),
        ("Conformer", 483338230, 0x3c2ad96774e0b0fe),
    ];
    for (id, (name, cost, hash)) in ModelId::ALL.into_iter().zip(pinned) {
        assert_eq!(id.to_string(), name);
        let g = id.build();
        let (a, _) = pbqp_select(&g, &enumerate_plans(&g, &CostModel::new()));
        let mut choices = gcd2_repro::artifact::Checksum64::new();
        for &c in &a.choice {
            choices.u64(c as u64);
        }
        assert_eq!((a.cost, choices.finish()), (cost, hash), "{id}");
    }
}

/// The default selector is PBQP: on every catalog model its objective is
/// never above the paper's GCD2(13), and its reductions take no RN step
/// on nine of the ten — which certifies those assignments optimal for
/// Equation 1. EfficientDet-d0 needs RN steps; `pbqp::certify` proves
/// its answer optimal off the compile path (the `ext_selection` bench).
#[test]
fn default_selection_is_never_above_gcd2_and_certified_on_nine_models() {
    for id in ModelId::ALL {
        let g = id.build();
        let (pbqp, report) = Compiler::new()
            .try_compile_timed(&g)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let (_, _, gcd2) = Compiler::new()
            .with_selection(Selection::Gcd2 { max_ops: 13 })
            .select(&g);
        assert!(pbqp.assignment.cost <= gcd2.cost, "{id}");
        assert!(report.degrade.is_empty(), "{id}");
        if id == ModelId::EfficientDetD0 {
            assert!(report.rn_steps.is_some_and(|n| n > 0), "{id}");
        } else {
            assert_eq!(report.rn_steps, Some(0), "{id}");
        }
    }
}

/// The four catalog models whose DSP assignment the default selector
/// moves off GCD2(13)'s still run on the simulated DSP byte for byte
/// equal to the interpreter. Slow outside a release build:
/// `cargo test --release --test end_to_end -- --ignored`.
#[test]
#[ignore]
fn moved_assignments_execute_on_dsp_bit_identically() {
    use gcd2_repro::cgraph::OpKind;
    use gcd2_repro::compiler::{execute_on_dsp, execute_reference};
    const SEED: u64 = 0xD5B;
    for id in [
        ModelId::MobileNetV3,
        ModelId::EfficientNetB0,
        ModelId::ResNet50,
        ModelId::EfficientDetD0,
    ] {
        let g = id.build();
        let compiled = Compiler::new().compile(&g);
        let (_, _, gcd2) = Compiler::new()
            .with_selection(Selection::Gcd2 { max_ops: 13 })
            .select(&g);
        assert_ne!(
            compiled.assignment.choice, gcd2.choice,
            "{id}: nothing moved"
        );
        let len = compiled
            .graph
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OpKind::Input))
            .map_or(0, |n| n.shape.elems());
        let input: Vec<u8> = (0..len).map(|i| ((i * 7 + 3) % 16) as u8).collect();
        let (dsp, macs) = execute_on_dsp(&compiled, &input, SEED);
        assert!(macs > 0, "{id}");
        assert!(dsp == execute_reference(&compiled, &input, SEED), "{id}");
    }
}
