//! The whole model catalog compiles verifier-clean: every model, lowered
//! through the default pipeline, produces zero diagnostics of error
//! severity (the lowering itself also verifies, since tests build with
//! debug assertions — this suite re-checks through the public API and
//! covers the older DSP generation and ablated pipelines too).

use gcd2::{Compiler, Packing, Selection};
use gcd2_hvx::ResourceModel;
use gcd2_models::ModelId;

#[test]
fn every_catalog_model_verifies_clean() {
    for id in ModelId::ALL {
        let compiled = Compiler::new().compile(&id.build());
        let report = compiled.verify();
        assert_eq!(
            report.error_count(),
            0,
            "{id:?} failed verification:\n{report}"
        );
    }
}

#[test]
fn catalog_verifies_clean_on_hexagon680() {
    for id in ModelId::ALL {
        let compiled = Compiler::new()
            .with_resource_model(ResourceModel::hexagon680())
            .compile(&id.build());
        let report = compiled.verify();
        assert_eq!(
            report.error_count(),
            0,
            "{id:?} failed on hexagon680:\n{report}"
        );
    }
}

#[test]
fn ablated_pipelines_verify_clean() {
    // One representative model through the ablation knobs the evaluation
    // harness sweeps; each still has to produce sound artifacts.
    let graph = ModelId::MobileNetV3.build();
    let configs: Vec<Compiler> = vec![
        Compiler::new().with_selection(Selection::LocalOptimal),
        Compiler::new().with_selection(Selection::Gcd2 { max_ops: 13 }),
        Compiler::new().with_packing(Packing::SoftToHard),
        Compiler::new().with_packing(Packing::Sequential),
        Compiler::new().with_lut_ops(false),
        Compiler::no_opt(),
    ];
    for (i, compiler) in configs.iter().enumerate() {
        let compiled = compiler.compile(&graph);
        let report = compiled.verify();
        assert_eq!(
            report.error_count(),
            0,
            "config {i} failed verification:\n{report}"
        );
    }
}
