//! Figure 9: performance breakdown — incremental speedup of the three
//! optimization stages (instruction/layout selection, SDA VLIW packing,
//! other optimizations) over the no-optimization baseline, plus
//! utilization and bandwidth per rung.

use gcd2::{Compiler, Packing};
use gcd2_bench::{paper_compiler, representative_models, row};

fn main() {
    println!("# Figure 9: optimization breakdown (speedup over no-opt)\n");
    row(&[
        "Model".into(),
        "+instr/layout".into(),
        "+VLIW".into(),
        "+other (full)".into(),
        "util% no-opt/full".into(),
        "bw% no-opt/full".into(),
    ]);
    for id in representative_models() {
        let g = id.build();
        // Rung 0: uniform kernels in framework interchange format,
        // sequential issue, no lookup ops.
        let none = Compiler::no_opt().compile(&g);
        // Rung 1: + global instruction/layout selection (formats planned
        // end-to-end, no per-op interchange conversions).
        let layout = paper_compiler()
            .with_packing(Packing::Sequential)
            .with_lut_ops(false)
            .compile(&g);
        // Rung 2: + SDA VLIW packing.
        let vliw = paper_compiler().with_lut_ops(false).compile(&g);
        // Rung 3: + other optimizations (division -> lookup) = full GCD2.
        let full = paper_compiler().compile(&g);
        let base = none.cycles() as f64;
        row(&[
            id.to_string(),
            format!("{:.2}", base / layout.cycles() as f64),
            format!("{:.2}", base / vliw.cycles() as f64),
            format!("{:.2}", base / full.cycles() as f64),
            format!(
                "{:.0}/{:.0}",
                100.0 * none.utilization() / full.utilization(),
                100.0
            ),
            format!(
                "{:.0}/{:.0}",
                100.0 * none.bytes_per_cycle() / full.bytes_per_cycle(),
                100.0
            ),
        ]);
        // Sanity guard: the Uniform baseline must never beat full GCD2.
        assert!(full.cycles() <= none.cycles());
    }
    println!("\nPaper: instruction/layout selection contributes 1.4-2.9x, VLIW scheduling another 1.2-2.0x, other optimizations 1.1-1.4x.");
}
