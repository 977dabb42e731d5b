//! End-to-end pipeline on a real workload: compile ResNet-50 with every
//! selection/packing configuration and compare against the simulated
//! production frameworks — a miniature of the paper's evaluation.
//!
//! ```sh
//! cargo run --release --example resnet50_pipeline
//! ```

use gcd2::{Compiler, Packing, Selection};
use gcd2_baselines::Framework;
use gcd2_models::ModelId;

fn main() {
    let graph = ModelId::ResNet50.build();
    println!(
        "ResNet-50: {} operators, {:.2} GMACs, {:.1} M params\n",
        graph.op_count(),
        graph.total_macs() as f64 / 1e9,
        graph.total_params() as f64 / 1e6
    );

    // The full GCD2 pipeline.
    let gcd2 = Compiler::new().compile(&graph);
    println!(
        "GCD2 (full)            : {:>8.2} ms   {:.2} TOPS",
        gcd2.latency_ms(),
        gcd2.tops()
    );

    // Ablations.
    for (name, compiler) in [
        (
            "local-optimal layouts",
            Compiler::new().with_selection(Selection::LocalOptimal),
        ),
        (
            "soft_to_hard packing ",
            Compiler::new().with_packing(Packing::SoftToHard),
        ),
        (
            "sequential (no VLIW) ",
            Compiler::new().with_packing(Packing::Sequential),
        ),
        ("no optimizations     ", Compiler::no_opt()),
    ] {
        let m = compiler.compile(&graph);
        println!(
            "{name}  : {:>8.2} ms   ({:.2}x slower than GCD2)",
            m.latency_ms(),
            m.cycles() as f64 / gcd2.cycles() as f64
        );
    }

    // Production frameworks on the same simulated DSP.
    println!();
    for (name, fw) in [("TFLite", Framework::Tflite), ("SNPE  ", Framework::Snpe)] {
        match fw.run(&graph) {
            Some(run) => println!(
                "{name} (simulated)     : {:>8.2} ms   ({:.2}x slower than GCD2)",
                run.latency_ms(),
                run.stats.cycles as f64 / gcd2.cycles() as f64
            ),
            None => println!("{name} (simulated)     : unsupported"),
        }
    }

    // Where do GCD2's cycles go?
    let transforms = gcd2.lowered.transform_cycles();
    println!(
        "\nLayout transformations: {:.2}% of GCD2 cycles (global planning keeps them rare)",
        100.0 * transforms as f64 / gcd2.cycles() as f64
    );
    let mut by_plan: std::collections::BTreeMap<String, u64> = Default::default();
    for r in &gcd2.lowered.reports {
        let plan = r.plan.to_string();
        let key = plan.split(' ').next().unwrap_or("?").to_string();
        *by_plan.entry(key).or_default() += r.kernel_cycles;
    }
    println!("Cycles by chosen plan:");
    for (plan, cycles) in by_plan {
        println!("  {plan:<24} {cycles:>12} cyc");
    }
}
