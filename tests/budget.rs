//! GCD2 state-cap acceptance tests: a capped compile repeats exactly,
//! the greedy floor a capped GCD2 compile lands on (the local-optimal
//! assignment, pinned by `gcd2-globalopt`'s unit tests) compiles
//! verifier-clean, and every catalog model compiles with GCD2(13) and
//! GCD2(17) under the default cap without degrading.

use gcd2_repro::cgraph::{Activation, Graph, OpKind, TShape};
use gcd2_repro::compiler::{Compiler, Selection};
use gcd2_repro::globalopt::gcd2_select_budgeted;
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
    let fingerprint = || {
        let (compiled, report) = Compiler::new()
            .with_selection(Selection::Gcd2 { max_ops: 17 })
            .try_compile_timed(&g)
            .expect("capped compile succeeds");
        let degrade: Vec<String> = report.degrade.iter().map(|e| e.to_string()).collect();
        (
            compiled.assignment.choice.clone(),
            compiled.cycles(),
            degrade,
        )
    };
    assert_eq!(fingerprint(), fingerprint());
}

/// GCD2 over its state cap selects exactly the local-optimal
/// assignment, so the local-optimal compile is the degraded compile.
#[test]
fn the_greedy_floor_compiles_verifier_clean() {
    let g = test_net();
    let (rewritten, plans, _) = Compiler::new()
        .with_selection(Selection::Gcd2 { max_ops: 17 })
        .select(&g);
    let (floor, event) = gcd2_select_budgeted(&rewritten, &plans, 17, 2);
    assert_eq!(event.map(|e| e.max_ops), Some(17));
    let compiled = Compiler::new()
        .with_selection(Selection::LocalOptimal)
        .try_compile(&g)
        .expect("greedy compile succeeds");
    assert_eq!(compiled.assignment, floor);
    let verdict = compiled.verify();
    assert_eq!(
        verdict.error_count(),
        0,
        "greedy plan must verify clean:\n{verdict}"
    );
}

#[test]
fn every_catalog_model_compiles_under_the_default_budget() {
    for id in ModelId::ALL {
        let g = id.build();
        // Pinned to the paper's selector: the state cap governs GCD2
        // only, and the default (PBQP) never degrades.
        for max_ops in [13, 17] {
            let (compiled, report) = Compiler::new()
                .with_selection(Selection::Gcd2 { max_ops })
                .try_compile_timed(&g)
                .unwrap_or_else(|e| panic!("{id} failed to compile under GCD2({max_ops}): {e}"));
            assert!(compiled.cycles() > 0, "{id} produced an empty program");
            assert!(
                report.degrade.is_empty(),
                "{id} degraded under GCD2({max_ops}): {:?}",
                report.degrade
            );
        }
    }
}
