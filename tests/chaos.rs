//! Chaos suite: the compiler's one panic guard under an injected fault.
//!
//! Compilation is a pure function of its graph and runs on the calling
//! thread, with one `catch_unwind` around parsing, admission and the
//! pipeline. The `cost.eval` fault point fires deep in the pipeline,
//! inside the cost memo's compute closure and outside its lock, so it
//! tests that guard:
//!
//! 1. a panic there, once or sticky, through either entry point, is a
//!    [`Gcd2Error::Internal`] and never an escaped panic;
//! 2. the same `Compiler` then recompiles to exactly what a fresh one
//!    does, so the memo kept no half-written entry;
//! 3. a delay changes nothing.
//!
//! Run with `cargo test --features fault-injection --test chaos`; the
//! suite is absent from the default (uninstrumented) build.

#![cfg(feature = "fault-injection")]

use gcd2_repro::cgraph::{to_text, Activation, Graph, OpKind, TShape};
use gcd2_repro::compiler::{CompiledModel, Compiler, Gcd2Error};
use gcd2_repro::faults::{arm, FaultKind, FaultPlan};

/// A small conv net with a residual edge: enough distinct kernels that
/// `cost.eval` fires many times in one compile.
fn chaos_net() -> Graph {
    let mut g = Graph::new();
    let mut prev = g.input("x", TShape::nchw(1, 32, 14, 14));
    let residual = prev;
    for i in 0..6 {
        prev = g.add(
            OpKind::Conv2d {
                out_channels: 32,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[prev],
            format!("conv{i}"),
        );
        prev = g.add(OpKind::Act(Activation::Relu), &[prev], format!("relu{i}"));
    }
    prev = g.add(OpKind::Add, &[prev, residual], "res");
    g.add(OpKind::GlobalAvgPool, &[prev], "gap");
    g
}

type Fingerprint = (Vec<usize>, u64, u64);

fn fingerprint(m: &CompiledModel) -> Fingerprint {
    (m.assignment.choice.clone(), m.cycles(), m.stats().insns)
}

/// Compiles `chaos_net` with `plan` armed, through `try_compile_text`
/// when `text` is set and `try_compile` otherwise. Every compile here
/// arms a plan, empty or not: the registry is process-global, and
/// holding its gate keeps another test's faults out.
fn compile_under(
    plan: FaultPlan,
    compiler: &Compiler,
    text: bool,
) -> Result<Fingerprint, Gcd2Error> {
    let g = chaos_net();
    let _armed = arm(plan);
    if text {
        compiler
            .try_compile_text(&to_text(&g))
            .map(|(m, _)| fingerprint(&m))
    } else {
        compiler.try_compile(&g).map(|m| fingerprint(&m))
    }
}

fn panics() -> [(&'static str, FaultPlan); 2] {
    [
        (
            "once",
            FaultPlan::new().once("cost.eval", FaultKind::Panic, 3),
        ),
        (
            "sticky",
            FaultPlan::new().sticky("cost.eval", FaultKind::Panic, 1),
        ),
    ]
}

#[test]
fn a_cost_eval_panic_is_an_internal_error_through_both_entry_points() {
    for text in [false, true] {
        for (name, plan) in panics() {
            match compile_under(plan, &Compiler::new(), text) {
                Err(Gcd2Error::Internal { message }) => assert!(
                    message.contains("injected fault at cost.eval"),
                    "{name}, text {text}: {message}"
                ),
                Err(e) => panic!("{name}, text {text}: not an Internal error: {e}"),
                Ok(_) => panic!("{name}, text {text}: the injected panic was swallowed"),
            }
        }
    }
}

#[test]
fn the_compiler_that_caught_a_panic_recompiles_like_a_fresh_one() {
    let fresh = compile_under(FaultPlan::new(), &Compiler::new(), false).expect("compiles");
    for text in [false, true] {
        for (name, plan) in panics() {
            let compiler = Compiler::new();
            assert!(compile_under(plan, &compiler, text).is_err(), "{name}");
            let again = compile_under(FaultPlan::new(), &compiler, text)
                .unwrap_or_else(|e| panic!("{name}, text {text}: recompile failed: {e}"));
            assert_eq!(again, fresh, "{name}, text {text}");
        }
    }
}

#[test]
fn a_cost_eval_delay_changes_nothing() {
    let fresh = compile_under(FaultPlan::new(), &Compiler::new(), false).expect("compiles");
    for text in [false, true] {
        let delay = FaultPlan::new().sticky("cost.eval", FaultKind::Delay { millis: 1 }, 1);
        let delayed = compile_under(delay, &Compiler::new(), text).expect("a delay still compiles");
        assert_eq!(delayed, fresh, "text {text}");
    }
}
