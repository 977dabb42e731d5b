//! Mutation testing of the static plan analyzer: seed one defect into a
//! compiled, checksum-restamped plan and assert the analyzer pinpoints
//! it with the right diagnostic code. The integrity checksum is
//! re-stamped by the mutation helpers, so these defects are invisible
//! to the runtime's hash gate — only the analyzer can catch them.

use gcd2_repro::analyze::{LintCode, Verdict};
use gcd2_repro::cgraph::{NodeId, OpKind};
use gcd2_repro::compiler::infer::PlanMutation;
use gcd2_repro::compiler::{CompiledModel, Compiler, InferencePlan};
use gcd2_repro::models::ModelId;

const SEED: u64 = 0xC0DE;

fn compiled_model() -> CompiledModel {
    // MobileNet-V3: the smallest catalog model that still exercises
    // slot reuse, in-place pass-through aliasing, and dozens of GEMMs.
    Compiler::new().compile(&ModelId::MobileNetV3.build())
}

fn plan_of(compiled: &CompiledModel) -> InferencePlan {
    compiled
        .try_inference_plan(SEED)
        .expect("pristine plan builds clean")
}

/// Applies one mutation and returns the analyzer's findings.
fn analyze_mutated(
    compiled: &CompiledModel,
    mutation: PlanMutation,
) -> gcd2_repro::analyze::Analysis {
    let mut plan = plan_of(compiled);
    assert!(
        plan.mutate_for_test(mutation),
        "{mutation:?} found no site in the plan"
    );
    // The mutated plan still passes the runtime integrity gate: the
    // helper re-stamped the checksum. Detection is on the analyzer.
    plan.verify_integrity()
        .expect("mutation helpers restamp the checksum");
    compiled.analyze_plan(&plan)
}

#[test]
fn pristine_plan_is_clean() {
    let compiled = compiled_model();
    let analysis = compiled.analyze_plan(&plan_of(&compiled));
    assert_eq!(analysis.verdict(), Verdict::Clean, "{analysis}");
    assert!(analysis.is_clean(), "{:?}", analysis.diagnostics);
}

#[test]
fn swapped_slot_assignments_are_flagged() {
    let compiled = compiled_model();
    let analysis = analyze_mutated(&compiled, PlanMutation::SwapSlots);
    assert_eq!(analysis.verdict(), Verdict::Unsound);
    assert!(
        !analysis.of_code(LintCode::OperandSlotMismatch).is_empty(),
        "swapping two live slot assignments must desynchronize a \
         consumer from its producer:\n{analysis}"
    );
}

#[test]
fn shrunk_slot_size_is_flagged() {
    let compiled = compiled_model();
    let analysis = analyze_mutated(&compiled, PlanMutation::ShrinkSlot);
    assert_eq!(analysis.verdict(), Verdict::Unsound);
    assert!(
        !analysis.of_code(LintCode::SlotUndersized).is_empty(),
        "a slot_sizes entry below its high-water write must be \
         flagged:\n{analysis}"
    );
}

#[test]
fn bumped_requant_shift_is_flagged() {
    let compiled = compiled_model();
    let analysis = analyze_mutated(&compiled, PlanMutation::BumpShift);
    assert_eq!(analysis.verdict(), Verdict::Unsound);
    assert!(
        !analysis.of_code(LintCode::ShiftPolicy).is_empty(),
        "an off-by-one folded shift must disagree with the recomputed \
         depth-k policy:\n{analysis}"
    );
}

#[test]
fn forged_epilogue_map_is_flagged() {
    let compiled = compiled_model();
    let analysis = analyze_mutated(&compiled, PlanMutation::ForgeMap);
    assert_eq!(analysis.verdict(), Verdict::Unsound);
    assert!(
        !analysis.of_code(LintCode::MapPolicy).is_empty(),
        "a GEMM's epilogue map must be the composition of the steps \
         folded into it, recomputed by the analyzer:\n{analysis}"
    );
}

/// A weight byte the kernel multiplies, changed with its digest
/// re-stamped, moves the accumulator interval of exactly its GEMM: the
/// analyzer's column sums come from the panel's own bytes — the quad
/// panel of a matmul GEMM, the row-major bytes of a depthwise conv —
/// not from the digest that vouches for them.
#[test]
fn flipped_weight_byte_moves_its_gemms_accumulator_interval() {
    let compiled = compiled_model();
    let pristine = compiled.analyze_plan(&plan_of(&compiled));
    for matmul in [true, false] {
        let analysis = analyze_mutated(&compiled, PlanMutation::FlipWeight { matmul });
        let moved: Vec<_> = pristine
            .ranges
            .gemms()
            .iter()
            .zip(analysis.ranges.gemms())
            .filter(|(was, now)| was.acc != now.acc)
            .collect();
        assert_eq!(moved.len(), 1, "matmul {matmul}: {moved:?}");
        let (was, now) = moved[0];
        assert!(
            now.acc.hi > was.acc.hi,
            "matmul {matmul}: {was:?} -> {now:?}"
        );
        let depthwise = matches!(
            compiled.graph.node(NodeId(now.step)).kind,
            OpKind::DepthwiseConv2d { .. }
        );
        assert_eq!(depthwise, !matmul, "{}", now.name);
    }
}

#[test]
fn every_mutation_is_caught_with_zero_false_negatives() {
    let compiled = compiled_model();
    for mutation in [
        PlanMutation::SwapSlots,
        PlanMutation::ShrinkSlot,
        PlanMutation::BumpShift,
        PlanMutation::ForgeMap,
    ] {
        let analysis = analyze_mutated(&compiled, mutation);
        assert_eq!(
            analysis.verdict(),
            Verdict::Unsound,
            "{mutation:?} slipped past the analyzer"
        );
    }
}
