//! Table IV: overall latency comparison — TFLite vs SNPE vs GCD2 on all
//! ten models, with speedups and the geometric mean.

use gcd2_baselines::Framework;
use gcd2_bench::{geomean, ms_cell, paper_compiler, row};
use gcd2_models::ModelId;
use std::time::Instant;

fn main() {
    println!("# Table IV: end-to-end DSP latency, TFLite / SNPE / GCD2\n");
    row(&[
        "Model".into(),
        "#MACs".into(),
        "#Params".into(),
        "#Ops".into(),
        "TFLite (ms)".into(),
        "SNPE (ms)".into(),
        "GCD2 (ms)".into(),
        "OverT".into(),
        "OverS".into(),
        "Compile (s)".into(),
    ]);
    let mut over_t = Vec::new();
    let mut over_s = Vec::new();
    for id in ModelId::ALL {
        let g = id.build();
        let t0 = Instant::now();
        let compiled = paper_compiler().compile(&g);
        let compile_s = t0.elapsed().as_secs_f64();
        let gcd2_ms = compiled.latency_ms();
        let tflite = Framework::Tflite.run(&g).map(|r| r.latency_ms());
        let snpe = Framework::Snpe.run(&g).map(|r| r.latency_ms());
        if let Some(t) = tflite {
            over_t.push(t / gcd2_ms);
        }
        if let Some(s) = snpe {
            over_s.push(s / gcd2_ms);
        }
        row(&[
            id.to_string(),
            format!("{:.2}G", g.total_macs() as f64 / 1e9),
            format!("{:.1}M", g.total_params() as f64 / 1e6),
            g.op_count().to_string(),
            ms_cell(tflite),
            ms_cell(snpe),
            format!("{gcd2_ms:.1}"),
            tflite
                .map(|t| format!("{:.1}", t / gcd2_ms))
                .unwrap_or_else(|| "-".into()),
            snpe.map(|s| format!("{:.1}", s / gcd2_ms))
                .unwrap_or_else(|| "-".into()),
            format!("{compile_s:.1}"),
        ]);
    }
    println!(
        "\nGeomean speedup over TFLite: {:.2}x (paper: 2.8x)",
        geomean(&over_t)
    );
    println!(
        "Geomean speedup over SNPE:   {:.2}x (paper: 2.1x)",
        geomean(&over_s)
    );
    println!(
        "TinyBERT and Conformer run only under GCD2 (first mobile-DSP execution, as in the paper)."
    );
}
