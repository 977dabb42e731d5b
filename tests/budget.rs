//! Compile-budget acceptance tests: the degradation ladder is
//! deterministic, an intentionally tiny budget
//! still yields a verifier-clean plan through the greedy floor, and
//! every catalog model compiles with GCD2(13) under the default budget
//! without degrading.

use gcd2_repro::cgraph::{Activation, Graph, OpKind, TShape};
use gcd2_repro::compiler::{CompileBudget, Compiler, Selection};
use gcd2_repro::globalopt::local_optimal;
use gcd2_repro::models::ModelId;

/// A conv trunk with residual adds — enough structure that GCD2(17)
/// forms multi-operator partitions worth refining.
fn test_net() -> Graph {
    let mut g = Graph::new();
    let mut prev = g.input("x", TShape::nchw(1, 48, 14, 14));
    let mut residual = prev;
    for i in 0..12 {
        prev = g.add(
            OpKind::Conv2d {
                out_channels: 48,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[prev],
            format!("conv{i}"),
        );
        prev = g.add(OpKind::Act(Activation::Relu), &[prev], format!("relu{i}"));
        if i % 3 == 2 {
            prev = g.add(OpKind::Add, &[prev, residual], format!("res{i}"));
            residual = prev;
        }
    }
    g
}

#[test]
fn budgeted_compiles_repeat_exactly() {
    let g = test_net();
    for budget in [
        CompileBudget::default(),
        CompileBudget::with_max_states(40),
        CompileBudget::with_max_states(1),
    ] {
        let fingerprint = || {
            let (compiled, report) = Compiler::new()
                .with_selection(Selection::Gcd2 { max_ops: 17 })
                .with_budget(budget)
                .try_compile_timed(&g)
                .expect("budgeted compile succeeds");
            let degrade: Vec<String> = report.degrade.iter().map(|e| e.to_string()).collect();
            (
                compiled.assignment.choice.clone(),
                compiled.cycles(),
                degrade,
            )
        };
        assert_eq!(
            fingerprint(),
            fingerprint(),
            "budget {budget:?} does not repeat"
        );
    }
}

#[test]
fn tiny_budget_degrades_but_stays_verifier_clean() {
    let g = test_net();
    let compiler = Compiler::new()
        .with_selection(Selection::Gcd2 { max_ops: 17 })
        .with_budget(CompileBudget::with_max_states(2));
    let (compiled, report) = compiler
        .try_compile_timed(&g)
        .expect("degraded compile succeeds");
    assert!(
        !report.degrade.is_empty(),
        "a 2-state cap must force degradation"
    );
    // The fallback never does worse than the greedy local optimum.
    let (rewritten, plans, _) = compiler.select(&g);
    let local = local_optimal(&rewritten, &plans);
    assert!(
        compiled.assignment.cost <= local.cost,
        "degraded cost {} exceeds local-optimal {}",
        compiled.assignment.cost,
        local.cost
    );
    let verdict = compiled.verify();
    assert_eq!(
        verdict.error_count(),
        0,
        "degraded plan must verify clean:\n{verdict}"
    );
}

#[test]
fn zero_deadline_falls_to_greedy_and_still_compiles() {
    let g = test_net();
    let compiler = Compiler::new()
        .with_selection(Selection::Gcd2 { max_ops: 17 })
        .with_budget(CompileBudget::with_deadline(std::time::Duration::ZERO));
    let (compiled, report) = compiler
        .try_compile_timed(&g)
        .expect("deadline-exhausted compile still succeeds");
    assert!(
        !report.degrade.is_empty(),
        "an already-passed deadline must degrade"
    );
    assert!(compiled.cycles() > 0);
    assert_eq!(compiled.verify().error_count(), 0);
}

#[test]
fn every_catalog_model_compiles_under_the_default_budget() {
    for id in ModelId::ALL {
        let g = id.build();
        // Pinned to the paper's selector: the budget governs the GCD2
        // ladder only, and the default (PBQP) never degrades.
        let (compiled, report) = Compiler::new()
            .with_selection(Selection::Gcd2 { max_ops: 13 })
            .try_compile_timed(&g)
            .unwrap_or_else(|e| panic!("{id} failed to compile: {e}"));
        assert!(compiled.cycles() > 0, "{id} produced an empty program");
        assert!(
            report.degrade.is_empty(),
            "{id} degraded under the default budget: {:?}",
            report.degrade
        );
    }
}
