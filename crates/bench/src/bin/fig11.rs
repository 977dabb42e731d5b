//! Figure 11: VLIW scheduling analysis — full SDA vs the soft_to_hard
//! and soft_to_none ablations on five representative models (baseline:
//! soft_to_hard).

use gcd2::Packing;
use gcd2_bench::{paper_compiler, representative_models, row};
use gcd2_cgraph::GemmDims;
use gcd2_kernels::{timing_blocks, SimdInstr, UnrollConfig};
use gcd2_vliw::{pack_topdown, Packer};

fn main() {
    println!("# Figure 11: SDA vs soft_to_hard vs soft_to_none (speedup over soft_to_hard)\n");
    row(&[
        "Model".into(),
        "soft_to_hard".into(),
        "soft_to_none".into(),
        "SDA (GCD2)".into(),
        "stall cyc s2n/SDA".into(),
    ]);
    for id in representative_models() {
        let g = id.build();
        let s2h = paper_compiler()
            .with_packing(Packing::SoftToHard)
            .compile(&g);
        let s2n = paper_compiler()
            .with_packing(Packing::SoftToNone)
            .compile(&g);
        let sda = paper_compiler().compile(&g);
        let base = s2h.cycles() as f64;
        row(&[
            id.to_string(),
            "1.00".into(),
            format!("{:.3}", base / s2n.cycles() as f64),
            format!("{:.3}", base / sda.cycles() as f64),
            format!("{}/{}", s2n.stats().stall_cycles, sda.stats().stall_cycles),
        ]);
        assert!(
            sda.cycles() <= s2h.cycles(),
            "SDA must not lose to soft_to_hard"
        );
    }
    println!("\nPaper: SDA reaches up to 2.1x over soft_to_hard and 1.4x over soft_to_none (better packing density than s2h, fewer runtime stalls than s2n).");

    // Related-work comparison (Section VI): bottom-up SDA vs the
    // top-down Coffman-Graham-style scheduler of Six et al., on
    // representative kernel bodies.
    println!("\n## Bottom-up SDA vs top-down list scheduling (kernel bodies)\n");
    row(&[
        "kernel body".into(),
        "SDA cyc/iter".into(),
        "top-down cyc/iter".into(),
        "ratio".into(),
    ]);
    for (label, gemm, instr) in [
        (
            "conv 3x3 (vmpy)",
            GemmDims::new(784, 1152, 128),
            SimdInstr::Vmpy,
        ),
        (
            "conv 1x1 (vmpa)",
            GemmDims::new(3136, 64, 64),
            SimdInstr::Vmpa,
        ),
        ("fc (vrmpy)", GemmDims::new(1, 2048, 1000), SimdInstr::Vrmpy),
    ] {
        let body = &timing_blocks(&gemm, instr, UnrollConfig::new(4, 2))[2];
        let sda = Packer::new().pack_block(body).body_cycles();
        let td = pack_topdown(body).body_cycles();
        row(&[
            label.into(),
            sda.to_string(),
            td.to_string(),
            format!("{:.3}", sda as f64 / td as f64),
        ]);
    }
}
