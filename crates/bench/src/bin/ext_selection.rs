//! Extension: Figure 10 at model scale. For every catalog model, the
//! Equation 1 objective and the simulated cycles of GCD2(13), GCD2(17)
//! and the PBQP reductions (the compiler's default selector), the RN
//! steps those reductions took, and what `pbqp::certify` proves about
//! their answer: the branch-and-bound states it expanded, the gap
//! between the answer and the proven lower bound, and whether the search
//! completed. The last column is the RN steps of the host runtime's
//! activation-layout instance, solved by the same reductions.

use gcd2::{Compiler, Selection};
use gcd2_bench::row;
use gcd2_globalopt::pbqp::{certify, pbqp_instance};
use gcd2_models::ModelId;
use std::time::Instant;

/// The most branch-and-bound states `certify` may expand per model.
const MAX_STATES: usize = 1 << 20;

fn main() {
    println!("# Extension: selection at model scale — GCD2(13) / GCD2(17) / PBQP, certified\n");
    row(&[
        "Model".into(),
        "GCD2(13) obj".into(),
        "GCD2(17) obj".into(),
        "PBQP obj".into(),
        "GCD2(13) cycles".into(),
        "GCD2(17) cycles".into(),
        "PBQP cycles".into(),
        "PBQP vs GCD2(13)".into(),
        "rn_steps".into(),
        "states".into(),
        "gap".into(),
        "complete".into(),
        "host rn_steps".into(),
        "t_certify (s)".into(),
    ]);
    for id in ModelId::ALL {
        let g = id.build();
        let compile = |selection| Compiler::new().with_selection(selection).compile_timed(&g);
        let (g13, _) = compile(Selection::Gcd2 { max_ops: 13 });
        let (g17, _) = compile(Selection::Gcd2 { max_ops: 17 });
        let (pbqp, report) = compile(Selection::Pbqp);
        let rn_steps = report.rn_steps.map_or("-".into(), |n| n.to_string());

        let (graph, plans, _) = Compiler::new().with_selection(Selection::Pbqp).select(&g);
        let (costs, edges) = pbqp_instance(&graph, &plans);
        let t0 = Instant::now();
        let cert = certify(costs, edges, MAX_STATES);
        let t_certify = t0.elapsed().as_secs_f64();
        let gap = pbqp.assignment.cost - cert.lower_bound;
        let host_rn_steps = pbqp.inference_plan(0).layout_rn_steps();

        row(&[
            id.to_string(),
            g13.assignment.cost.to_string(),
            g17.assignment.cost.to_string(),
            pbqp.assignment.cost.to_string(),
            g13.cycles().to_string(),
            g17.cycles().to_string(),
            pbqp.cycles().to_string(),
            format!(
                "{:+.2} %",
                100.0 * (pbqp.cycles() as f64 / g13.cycles() as f64 - 1.0)
            ),
            rn_steps,
            cert.states.to_string(),
            gap.to_string(),
            if cert.complete { "yes" } else { "no" }.into(),
            host_rn_steps.to_string(),
            format!("{t_certify:.3}"),
        ]);
    }
    println!(
        "\nobj is Equation 1's objective (kernel cycles + layout transforms) of each assignment;
cycles are the simulated DSP cycles of the lowered program. gap = PBQP obj minus the
lower bound `certify` proved (branch-and-bound over the RN choices, at most {MAX_STATES}
states): gap 0 with complete = yes means the default selector's assignment is optimal."
    );
}
