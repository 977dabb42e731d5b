//! Figure 10: layout-optimization analysis on ResNet-50 prefix chains —
//! speedup over the local-optimal baseline (left) and search time
//! (right) for Local / Global exhaustive / GCD2(13) / GCD2(17).

use gcd2_bench::{prefix_graph, row};
use gcd2_globalopt::{enumerate_plans, exhaustive, gcd2_select, local_optimal, pbqp_select};
use gcd2_kernels::CostModel;
use gcd2_models::ModelId;
use std::time::Instant;

fn main() {
    println!("# Figure 10: global layout selection — quality and search time\n");
    row(&[
        "#ops".into(),
        "local cost".into(),
        "global speedup".into(),
        "GCD2(13) speedup".into(),
        "GCD2(17) speedup".into(),
        "PBQP speedup".into(),
        "t_global (s)".into(),
        "t_GCD2(13) (s)".into(),
        "t_GCD2(17) (s)".into(),
    ]);
    let resnet = ModelId::ResNet50.build();
    for ops in [5usize, 10, 15, 20, 25] {
        let g = prefix_graph(&resnet, ops);
        let model = CostModel::new();
        let plans = enumerate_plans(&g, &model);
        let local = local_optimal(&g, &plans);

        // Exhaustive global search gets intractable quickly; cap its
        // scope like the paper caps its wall-clock (80+ hours at 25 ops).
        let (global_cell, tg_cell) = if ops <= 25 {
            let scope: Vec<_> = g
                .nodes()
                .iter()
                .filter(|n| {
                    !matches!(
                        n.kind,
                        gcd2_cgraph::OpKind::Input | gcd2_cgraph::OpKind::Constant
                    )
                })
                .map(|n| n.id)
                .collect();
            let t0 = Instant::now();
            let global = exhaustive(&g, &plans, &scope);
            let tg = t0.elapsed().as_secs_f64();
            (
                format!("{:.2}", local.cost as f64 / global.cost as f64),
                format!("{tg:.3}"),
            )
        } else {
            ("(skipped)".into(), ">hours".into())
        };

        let (pbqp, _) = pbqp_select(&g, &plans);
        let t0 = Instant::now();
        let g13 = gcd2_select(&g, &plans, 13);
        let t13 = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let g17 = gcd2_select(&g, &plans, 17);
        let t17 = t0.elapsed().as_secs_f64();

        row(&[
            ops.to_string(),
            local.cost.to_string(),
            global_cell,
            format!("{:.2}", local.cost as f64 / g13.cost as f64),
            format!("{:.2}", local.cost as f64 / g17.cost as f64),
            format!("{:.2}", local.cost as f64 / pbqp.cost as f64),
            tg_cell,
            format!("{t13:.3}"),
            format!("{t17:.3}"),
        ]);
    }
    println!("\nPaper: GCD2 brings 1.55-1.7x over local (global optimal 1.56-1.72x); GCD2(13) search < 2 s, GCD2(17) < 1 min, global > 80 h at 25 ops.");
    println!(
        "Note: our exhaustive search carries a branch-and-bound suffix lower bound, so it stays"
    );
    println!("tractable at sizes where the paper's plain enumeration needed 80+ hours.");
}
