//! The paper's headline claims, asserted in one place. Each test names
//! the claim as the paper states it and checks the reproduced shape
//! (fast models only; the full sweep lives in `gcd2-bench`).

use gcd2_repro::baselines::{compile_kernel, table5_accelerators, Framework, KernelCompiler};
use gcd2_repro::bench::{geomean, paper_compiler};
use gcd2_repro::cgraph::GemmDims;
use gcd2_repro::kernels::{CostModel, SimdInstr, UnrollConfig};
use gcd2_repro::models::ModelId;

/// "GCD2 outperforms two product-level state-of-the-art end-to-end DNN
/// execution frameworks ... achieving 2.8x and 2.1x speedup (in
/// geometric mean)".
#[test]
fn headline_geomean_speedups() {
    let subset = [
        ModelId::MobileNetV3,
        ModelId::ResNet50,
        ModelId::WdsrB,
        ModelId::PixOr,
    ];
    let mut over_t = Vec::new();
    let mut over_s = Vec::new();
    for id in subset {
        let g = id.build();
        let gcd2 = paper_compiler().compile(&g).cycles() as f64;
        over_t.push(Framework::Tflite.run(&g).unwrap().stats.cycles as f64 / gcd2);
        over_s.push(Framework::Snpe.run(&g).unwrap().stats.cycles as f64 / gcd2);
    }
    let gt = geomean(&over_t);
    let gs = geomean(&over_s);
    assert!(gt > 1.5, "geomean over TFLite {gt:.2} (paper: 2.8)");
    assert!(gs > 1.3, "geomean over SNPE {gs:.2} (paper: 2.1)");
    assert!(gt > gs, "TFLite gap exceeds SNPE gap, as in Table IV");
}

/// "the instruction vmpy (and the corresponding 1-column layout)
/// provides better execution efficiency if the operands have a certain
/// length. However, for other cases, this instruction causes padding
/// overheads" — Table II's crossover structure.
#[test]
fn table2_crossovers() {
    let m = CostModel::new();
    let best = |s: usize| {
        SimdInstr::ALL
            .into_iter()
            .min_by_key(|&i| m.gemm_cycles(&GemmDims::new(s, s, s), i, UnrollConfig::new(2, 2)))
            .unwrap()
    };
    assert_eq!(best(32), SimdInstr::Vrmpy);
    assert_eq!(best(64), SimdInstr::Vmpa);
    assert_eq!(best(128), SimdInstr::Vmpy);
}

/// "our approach is able to deliver significantly higher performance"
/// than RAKE (Table III), and the full system beats Halide/TVM/RAKE on
/// kernels (Figure 7).
#[test]
fn kernel_compilers_lose_to_gcd2() {
    for gemm in [
        GemmDims::new(112 * 112, 147, 64),
        GemmDims::new(56 * 56, 576, 64),
        GemmDims::new(28 * 28, 1152, 128),
    ] {
        let gcd2 = compile_kernel(KernelCompiler::Gcd2, &gemm).cycles;
        for c in [
            KernelCompiler::Halide,
            KernelCompiler::Tvm,
            KernelCompiler::Rake,
        ] {
            let other = compile_kernel(c, &gemm).cycles;
            assert!(gcd2 < other, "{:?} beat GCD2 on {gemm}", c.name());
        }
    }
}

/// "GCD2 is also unique in supporting real-time execution of certain
/// DNNs": EfficientDet-d0 runs under 33 ms (30 FPS) where the framework
/// baseline does not reach it on the paper's hardware.
#[test]
fn efficientdet_is_real_time() {
    let g = ModelId::EfficientDetD0.build();
    let compiled = paper_compiler().compile(&g);
    assert!(
        compiled.latency_ms() < 33.0,
        "EfficientDet-d0 at {:.1} ms is not real-time",
        compiled.latency_ms()
    );
}

/// "its implementation enables two major DNNs to execute on a mobile
/// DSP for the first time."
#[test]
fn first_time_models_compile_only_under_gcd2() {
    for id in [ModelId::TinyBert, ModelId::Conformer] {
        let g = id.build();
        assert!(Framework::Tflite.run(&g).is_none());
        assert!(Framework::Snpe.run(&g).is_none());
        assert!(paper_compiler().compile(&g).cycles() > 0);
    }
}

/// Table V: "achieves 6.1x and 1.48x better energy efficiency (FPW)
/// ... over EdgeTPU and Jetson Xavier" — our simulated GCD2 row must
/// beat both on frames per Watt.
#[test]
fn best_energy_efficiency_among_accelerators() {
    let compiled = paper_compiler().compile(&ModelId::ResNet50.build());
    let ours = compiled.frames_per_watt();
    for acc in table5_accelerators() {
        assert!(
            ours > acc.fpw(),
            "GCD2 {ours:.1} FPW vs {} {:.1}",
            acc.platform,
            acc.fpw()
        );
    }
    // And the absolute row lands near the paper's 141 FPS / 2.6 W / 54.2.
    assert!(
        (compiled.fps() - 141.0).abs() < 20.0,
        "fps {:.1}",
        compiled.fps()
    );
    assert!(
        (compiled.power_w() - 2.6).abs() < 0.5,
        "power {:.2}",
        compiled.power_w()
    );
}

/// Section V-B: "GCD2 achieves up to 1.51 TOPS for an individual layer"
/// of the 3.7 TOPS practical peak — our end-to-end ResNet throughput
/// must land in the same order of magnitude, below peak.
#[test]
fn achieved_tops_in_band() {
    let compiled = paper_compiler().compile(&ModelId::ResNet50.build());
    let tops = compiled.tops();
    assert!((0.5..3.7).contains(&tops), "achieved {tops:.2} TOPS");
}
