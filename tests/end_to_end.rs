//! Cross-crate integration tests: the paper's headline claims, asserted
//! end to end through the facade crate.

use gcd2_repro::baselines::Framework;
use gcd2_repro::compiler::{Compiler, Packing, Selection};
use gcd2_repro::models::ModelId;

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

#[test]
fn pack_memo_does_not_change_output() {
    // The structural packing memo is a pure cache: disabling it (the
    // seed-equivalent slow path) must not change the compiled program.
    for id in [ModelId::WdsrB, ModelId::MobileNetV3] {
        let graph = id.build();
        let with_memo = Compiler::new().compile(&graph);
        let without = Compiler::new().with_pack_memo(false).compile(&graph);
        assert_eq!(with_memo.cycles(), without.cycles(), "{id}");
        assert_eq!(
            with_memo.assignment.choice, without.assignment.choice,
            "{id}"
        );
    }
}
