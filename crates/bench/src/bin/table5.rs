//! Table V: inference speed and energy efficiency of the GCD2 mobile-DSP
//! solution vs EdgeTPU and Jetson Xavier on ResNet-50.

use gcd2_baselines::table5_accelerators;
use gcd2_bench::{paper_compiler, row};
use gcd2_models::ModelId;

fn main() {
    println!("# Table V: ResNet-50 FPS / Power / FPW across platforms\n");
    row(&[
        "Platform".into(),
        "Device".into(),
        "FPS".into(),
        "Power (W)".into(),
        "FPW".into(),
    ]);
    for acc in table5_accelerators() {
        row(&[
            acc.platform.into(),
            acc.device.into(),
            format!("{:.1}", acc.fps),
            format!("{:.1}", acc.power_w),
            format!("{:.1}", acc.fpw()),
        ]);
    }
    let compiled = paper_compiler().compile(&ModelId::ResNet50.build());
    row(&[
        "GCD2 (this work)".into(),
        "DSP (int8)".into(),
        format!("{:.1}", compiled.fps()),
        format!("{:.1}", compiled.power_w()),
        format!("{:.1}", compiled.frames_per_watt()),
    ]);
    println!(
        "\nPaper: GCD2 141 FPS @ 2.6 W = 54.2 FPW — 6.1x EdgeTPU's and 1.48x Jetson-int8's energy efficiency."
    );
}
