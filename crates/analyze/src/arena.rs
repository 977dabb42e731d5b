//! `ArenaSoundness`: independent liveness reconstruction over the slot
//! arena of a compiled inference plan.
//!
//! The plan builder assigns every step an arena slot with a free-list
//! allocator and lets value-preserving steps run in place when their
//! input dies with them. This pass **re-derives liveness from the graph
//! edges alone** — use counts, definition points, last reads — and then
//! replays the schedule against the plan's recorded slot assignment,
//! proving:
//!
//! * every slot index is in bounds (`A201`);
//! * every operand read finds the producing step's value *resident* in
//!   the slot it reads — defined before use, not yet overwritten, and
//!   still live (`A202`);
//! * every operand slot equals the producer's recorded output slot
//!   (`A203`);
//! * no write lands on a slot whose current occupant is still live
//!   (`A204`);
//! * in-place execution (output slot ∈ input slots) happens only for
//!   pass-through steps with a single operand whose value dies at this
//!   step and whose length matches — the only overlap the executor's
//!   buffer-detaching loop tolerates — and a folded step, which runs
//!   nothing, holds its value in the slot of the value it maps, which
//!   dies with it and is as long (`A205`);
//! * only a constant whose readers are all folded steps goes without a
//!   slot (`NO_SLOT`), and only they read it there (`A201`);
//! * `slot_sizes` dominates every write (`A206`);
//! * the declared model output location/length match the final step
//!   (`A207`).
//!
//! Soundness argument: if the replay finishes with no findings, then at
//! every step each operand's value occupies its recorded slot untouched
//! since production (A202–A204), no two simultaneously-live values ever
//! share a slot (a violation would surface as A204 at the second write
//! or A202 at the survivor's next read), and the arena's buffers are
//! large enough for every write (A206). The pass accepts *any* sound
//! assignment, not just the one allocator the builder happens to use.

use crate::{Diagnostic, LintCode};
use gcd2_cgraph::Graph;
use gcd2_verify::{InferPlanView, InferStep, Severity, StepRole, NO_SLOT};

/// Runs the replay over `steps` — the plan's steps, collected once by
/// the caller, so the replay never asks the view to derive a GEMM's
/// facts — pushing findings into `diags`.
pub(crate) fn check(
    graph: &Graph,
    plan: &dyn InferPlanView,
    steps: &[InferStep],
    diags: &mut Vec<Diagnostic>,
) {
    let n = steps.len();
    if graph.len() != n {
        // The range pass already reports the structural mismatch.
        return;
    }
    if n == 0 {
        return;
    }
    let slot_sizes = plan.slot_sizes();
    let slot_count = slot_sizes.len();

    // Liveness from the graph alone: how many reads each value still
    // has ahead. The model output gets one extra use so it stays live
    // through the end of the schedule, mirroring the executor handing
    // the final buffer to the caller.
    let mut uses = vec![0usize; n];
    for node in graph.nodes() {
        for &input in &node.inputs {
            if input.0 < n {
                uses[input.0] += 1;
            }
        }
    }
    uses[n - 1] += 1;

    // Which step's value currently resides in each slot.
    let mut occupant: Vec<Option<usize>> = vec![None; slot_count];
    // The recorded producer slot of each step, for operand cross-checks.
    let mut out_slot_of = vec![usize::MAX; n];

    let mut error = |code: LintCode, step: usize, detail: String| {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code,
            step: Some(step),
            detail,
        });
    };

    let folded = |i: usize| matches!(steps[i].role, StepRole::Folded);
    // Whether every reader of each value is a folded step (the model
    // output's reader, the caller, is not).
    let mut read_folded = vec![true; n];
    read_folded[n - 1] = false;
    for node in graph.nodes() {
        for input in node.inputs.iter().filter(|p| p.0 < n) {
            read_folded[input.0] &= folded(node.id.0);
        }
    }

    for node in graph.nodes() {
        let i = node.id.0;
        let step = &steps[i];

        if step.in_slots.len() != node.inputs.len() {
            error(
                LintCode::OperandSlotMismatch,
                i,
                format!(
                    "step reads {} operand slot(s) but the graph node has {} input(s)",
                    step.in_slots.len(),
                    node.inputs.len()
                ),
            );
        }

        // Reads: every operand value must be resident where the step
        // looks for it.
        for (j, &input) in node.inputs.iter().enumerate() {
            let p = input.0;
            if p >= i {
                // Dangling/forward edge: a GraphInvariants finding.
                continue;
            }
            let Some(&in_slot) = step.in_slots.get(j) else {
                continue;
            };
            if in_slot == NO_SLOT && out_slot_of[p] == NO_SLOT && folded(i) {
                // A folded step's constant, which has no slot.
                continue;
            }
            if in_slot >= slot_count {
                error(
                    LintCode::SlotOutOfBounds,
                    i,
                    format!("operand {j} reads slot {in_slot}, arena has {slot_count} slot(s)"),
                );
                continue;
            }
            if in_slot != out_slot_of[p] {
                error(
                    LintCode::OperandSlotMismatch,
                    i,
                    format!(
                        "operand {j} reads slot {in_slot}, but producing step {p} \
                         ('{}') wrote slot {}",
                        steps[p].name, out_slot_of[p]
                    ),
                );
                continue;
            }
            if occupant[in_slot] != Some(p) {
                let holder = match occupant[in_slot] {
                    Some(q) => format!("the value of step {q} ('{}')", steps[q].name),
                    None => "no value".to_string(),
                };
                error(
                    LintCode::UseBeforeDef,
                    i,
                    format!(
                        "operand {j} expects the value of step {p} ('{}') in slot \
                         {in_slot}, which holds {holder}",
                        steps[p].name
                    ),
                );
            }
        }

        // In-place execution legality. The executor detaches the output
        // buffer before running a step, so any input/output slot overlap
        // outside the aliased-passthrough special case reads an empty
        // buffer.
        let overlaps = step.in_slots.contains(&step.out_slot);
        if folded(i) {
            // The one value the step maps (its other operands are
            // slotless constants) is where its value lives, and it dies
            // here.
            let mapped: Vec<usize> = node
                .inputs
                .iter()
                .zip(&step.in_slots)
                .filter(|&(p, &slot)| p.0 < i && slot != NO_SLOT)
                .map(|(p, _)| p.0)
                .collect();
            let dies = mapped.first().is_some_and(|&p| {
                mapped.iter().all(|&q| q == p)
                    && uses[p] == mapped.len()
                    && steps[p].out_len == step.out_len
                    && out_slot_of[p] == step.out_slot
            });
            if !dies {
                error(
                    LintCode::IllegalAlias,
                    i,
                    format!(
                        "folded step holds its value in slot {}, which is not the slot of \
                         one value that dies with it at its length",
                        step.out_slot
                    ),
                );
            }
        } else if overlaps {
            let single = step.in_slots.len() == 1;
            let passthrough = matches!(step.role, StepRole::Passthrough);
            let last_use = node
                .inputs
                .first()
                .is_some_and(|&p| p.0 < i && uses[p.0] == 1);
            let size_ok = node
                .inputs
                .first()
                .is_some_and(|&p| p.0 < i && steps[p.0].out_len == step.out_len);
            if !(passthrough && single && last_use && size_ok) {
                error(
                    LintCode::IllegalAlias,
                    i,
                    format!(
                        "step runs in place in slot {} but is not a single-input, \
                         last-use, size-matched pass-through (role {:?}, {} input(s))",
                        step.out_slot,
                        step.role,
                        step.in_slots.len()
                    ),
                );
            }
        }

        // Reads are done: consume one use per operand occurrence.
        for &input in &node.inputs {
            if input.0 < i && uses[input.0] > 0 {
                uses[input.0] -= 1;
            }
        }

        // A constant only folded steps read has no slot and writes none.
        if step.out_slot == NO_SLOT && matches!(step.role, StepRole::Constant) && read_folded[i] {
            out_slot_of[i] = NO_SLOT;
            continue;
        }
        // Write: the destination must exist, be big enough, and hold no
        // still-live value.
        if step.out_slot >= slot_count {
            error(
                LintCode::SlotOutOfBounds,
                i,
                format!(
                    "writes slot {}, arena has {slot_count} slot(s)",
                    step.out_slot
                ),
            );
            continue;
        }
        if slot_sizes[step.out_slot] < step.out_len {
            error(
                LintCode::SlotUndersized,
                i,
                format!(
                    "writes {} element(s) into slot {} sized {}",
                    step.out_len, step.out_slot, slot_sizes[step.out_slot]
                ),
            );
        }
        if let Some(q) = occupant[step.out_slot] {
            if uses[q] > 0 {
                error(
                    LintCode::LiveClobber,
                    i,
                    format!(
                        "overwrites slot {} while the value of step {q} ('{}') is \
                         still live ({} read(s) remain)",
                        step.out_slot, steps[q].name, uses[q]
                    ),
                );
            }
        }
        occupant[step.out_slot] = Some(i);
        out_slot_of[i] = step.out_slot;
    }

    // The declared output location must be where the final value lives.
    let last = &steps[n - 1];
    if plan.output_slot() != last.out_slot || plan.output_len() != last.out_len {
        error(
            LintCode::OutputMismatch,
            n - 1,
            format!(
                "plan declares output slot {} / len {}, final step wrote slot {} / \
                 len {}",
                plan.output_slot(),
                plan.output_len(),
                last.out_slot,
                last.out_len
            ),
        );
    }

    // With a single Input step its length must match the declared model
    // input length (multi-input graphs share one feed buffer and are
    // exempt from this structural check).
    let input_steps: Vec<&InferStep> = steps
        .iter()
        .filter(|s| matches!(s.role, StepRole::Input))
        .collect();
    if let [only] = input_steps.as_slice() {
        if only.out_len != plan.input_len() {
            error(
                LintCode::OutputMismatch,
                only.index,
                format!(
                    "input step materializes {} element(s), plan declares input_len {}",
                    only.out_len,
                    plan.input_len()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockPlan;
    use gcd2_cgraph::{Activation, OpKind, TShape};
    use gcd2_verify::{GemmFacts, StepRole, NO_SLOT};

    fn codes(diags: &[Diagnostic]) -> Vec<LintCode> {
        diags.iter().map(|d| d.code).collect()
    }

    fn gemm_role() -> StepRole {
        StepRole::Gemm(GemmFacts {
            m: 4,
            k: 4,
            n: 3,
            shift: 1,
            policy_shift: 1,
            map: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
            zero_fill: false,
            col_pos_max: 8,
            col_neg_min: -8,
        })
    }

    /// input → relu (aliased in place, last use) → matmul: the canonical
    /// clean schedule.
    fn clean_chain() -> (Graph, MockPlan) {
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![4, 4]));
        let r = g.add(OpKind::Act(Activation::Relu), &[x], "relu");
        g.add(OpKind::MatMul { n: 3 }, &[r], "fc");

        let mut plan = MockPlan::new(15);
        plan.push("x", &[], 0, 16, StepRole::Input);
        plan.push("relu", &[0], 0, 16, StepRole::Passthrough);
        plan.push("fc", &[0], 1, 12, gemm_role());
        (g, plan)
    }

    #[test]
    fn clean_chain_has_no_findings() {
        let (g, plan) = clean_chain();
        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn live_clobber_then_stale_read_are_flagged() {
        // x feeds both gelu and the add, so gelu writing over x's slot
        // clobbers a live value; the add then reads a stale slot.
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![8]));
        let e = g.add(OpKind::Gelu, &[x], "gelu");
        g.add(OpKind::Add, &[x, e], "add");

        let mut plan = MockPlan::new(15);
        plan.push("x", &[], 0, 8, StepRole::Input);
        plan.push("gelu", &[0], 0, 8, StepRole::Compute); // in-place: illegal
        plan.push("add", &[0, 0], 1, 8, StepRole::Compute);

        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        let cs = codes(&diags);
        assert!(cs.contains(&LintCode::IllegalAlias), "{diags:?}");
        assert!(cs.contains(&LintCode::LiveClobber), "{diags:?}");
        assert!(cs.contains(&LintCode::UseBeforeDef), "{diags:?}");
    }

    #[test]
    fn passthrough_alias_requires_last_use() {
        // relu aliases x's slot although the add still needs x.
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![8]));
        let r = g.add(OpKind::Act(Activation::Relu), &[x], "relu");
        g.add(OpKind::Add, &[x, r], "add");

        let mut plan = MockPlan::new(15);
        plan.push("x", &[], 0, 8, StepRole::Input);
        plan.push("relu", &[0], 0, 8, StepRole::Passthrough);
        plan.push("add", &[0, 0], 1, 8, StepRole::Compute);

        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        assert!(codes(&diags).contains(&LintCode::IllegalAlias), "{diags:?}");
    }

    /// fc → bias add (folded, constant unread) → gelu (folded): the
    /// folded steps hold their value in the GEMM's slot, the constant
    /// has none.
    fn folded_chain() -> (Graph, MockPlan) {
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![4, 4]));
        let fc = g.add(OpKind::MatMul { n: 3 }, &[x], "fc");
        let k = g.constant("k", TShape::new(vec![4, 3]));
        let add = g.add(OpKind::Add, &[fc, k], "add");
        g.add(OpKind::Gelu, &[add], "gelu");

        let mut plan = MockPlan::new(15);
        plan.push("x", &[], 0, 16, StepRole::Input);
        plan.push("fc", &[0], 1, 12, gemm_role());
        plan.steps.push(InferStep {
            index: 2,
            name: "k".to_string(),
            op: "Constant".to_string(),
            in_slots: Vec::new(),
            out_slot: NO_SLOT,
            out_len: 12,
            in_layout: Default::default(),
            out_layout: Default::default(),
            role: StepRole::Constant,
        });
        plan.push("add", &[1, NO_SLOT], 1, 12, StepRole::Folded);
        plan.push("gelu", &[1], 1, 12, StepRole::Folded);
        (g, plan)
    }

    #[test]
    fn folded_steps_live_in_their_gemms_slot_and_unread_constants_in_none() {
        let (g, plan) = folded_chain();
        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");

        // A folded step anywhere but in the slot of the value it maps
        // holds nothing.
        let (g, mut plan) = folded_chain();
        plan.slot_sizes.push(12);
        plan.steps[4].out_slot = 2;
        plan.output_slot_override = Some(2);
        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        assert!(codes(&diags).contains(&LintCode::IllegalAlias), "{diags:?}");

        // A step that runs cannot read a constant that has no slot.
        let (g, mut plan) = folded_chain();
        plan.steps[3].role = StepRole::Compute;
        plan.steps[3].out_slot = 2;
        plan.slot_sizes.push(12);
        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        assert!(
            codes(&diags).contains(&LintCode::SlotOutOfBounds),
            "{diags:?}"
        );
    }

    #[test]
    fn operand_slot_mismatch_is_flagged() {
        let (g, mut plan) = clean_chain();
        // The gemm looks for its operand in a slot its producer never
        // wrote.
        plan.slot_sizes.push(16);
        plan.steps[2].in_slots[0] = 2;
        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        assert!(
            codes(&diags).contains(&LintCode::OperandSlotMismatch),
            "{diags:?}"
        );
    }

    #[test]
    fn undersized_slot_and_oob_are_flagged() {
        let (g, mut plan) = clean_chain();
        plan.slot_sizes[1] = 11; // gemm writes 12
        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        assert!(
            codes(&diags).contains(&LintCode::SlotUndersized),
            "{diags:?}"
        );

        let (g, mut plan) = clean_chain();
        plan.steps[2].out_slot = 9; // beyond the arena
        plan.output_slot_override = Some(9);
        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        assert!(
            codes(&diags).contains(&LintCode::SlotOutOfBounds),
            "{diags:?}"
        );
    }

    #[test]
    fn output_declaration_must_match_schedule() {
        let (g, mut plan) = clean_chain();
        plan.output_slot_override = Some(0);
        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        assert!(
            codes(&diags).contains(&LintCode::OutputMismatch),
            "{diags:?}"
        );

        let (g, mut plan) = clean_chain();
        plan.input_len = 17;
        let mut diags = Vec::new();
        check(&g, &plan, &plan.steps, &mut diags);
        assert!(
            codes(&diags).contains(&LintCode::OutputMismatch),
            "{diags:?}"
        );
    }
}
