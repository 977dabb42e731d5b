//! Figure 13: total power consumption and energy efficiency
//! (inference frames per Watt) of TFLite-GPU, TFLite-DSP, SNPE-DSP, and
//! GCD2-DSP on four representative models.

use gcd2_baselines::{DeviceModel, Framework};
use gcd2_bench::{paper_compiler, row};
use gcd2_hvx::EnergyModel;
use gcd2_models::ModelId;

fn main() {
    println!("# Figure 13: power (W) and energy efficiency (frames/Watt)\n");
    row(&[
        "Model".into(),
        "TFLite-GPU W".into(),
        "TFLite-DSP W".into(),
        "SNPE-DSP W".into(),
        "GCD2-DSP W".into(),
        "TFLite-GPU FPW".into(),
        "TFLite-DSP FPW".into(),
        "SNPE-DSP FPW".into(),
        "GCD2-DSP FPW".into(),
    ]);
    let gpu = DeviceModel::mobile_gpu();
    let em = EnergyModel::default();
    for id in [
        ModelId::EfficientNetB0,
        ModelId::ResNet50,
        ModelId::PixOr,
        ModelId::CycleGan,
    ] {
        let g = id.build();
        let gcd2 = paper_compiler().compile(&g);
        let t = Framework::Tflite.run(&g).expect("supported");
        let s = Framework::Snpe.run(&g).expect("supported");
        let fpw = |stats: &gcd2_hvx::ExecStats| 1.0 / (em.energy_pj(stats) * 1e-12);
        let gpu_fps = 1e3 / gpu.latency_ms(&g);
        row(&[
            id.to_string(),
            format!("{:.2}", gpu.power_w),
            format!("{:.2}", em.power_w(&t.stats)),
            format!("{:.2}", em.power_w(&s.stats)),
            format!("{:.2}", gcd2.power_w()),
            format!("{:.1}", gpu_fps / gpu.power_w),
            format!("{:.1}", fpw(&t.stats)),
            format!("{:.1}", fpw(&s.stats)),
            format!("{:.1}", gcd2.frames_per_watt()),
        ]);
    }
    println!("\nPaper: GCD2-DSP draws slightly more power than the other DSP stacks (better utilization) but wins energy efficiency by ~1.7x over TFLite-DSP, ~1.5x over SNPE-DSP, and 2.9x over TFLite-GPU.");
}
