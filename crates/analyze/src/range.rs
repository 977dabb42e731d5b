//! `AccumulatorRange`: interval abstract interpretation over the
//! quantized dataflow of a compiled inference plan.
//!
//! The interpreter walks the graph in schedule order (step index ==
//! dense node id) and propagates a per-tensor value [`Interval`] through
//! a transfer function derived from each operator's exact host
//! semantics (`gcd2-kernels::hostops` and the GEMM epilogue). For every
//! GEMM it derives a **partial-sum-safe** accumulator interval from the
//! per-column weight aggregates of [`GemmFacts`]:
//!
//! ```text
//! acc ∈ [ a_hi · col_neg_min ,  a_hi · col_pos_max ]
//! ```
//!
//! With activations `a_i ∈ [0, a_hi]`, any subset `S` of a column's
//! products satisfies `Σ_{i∈S} a_i·w_i ≤ Σ_i max(0, a_hi·w_i) =
//! a_hi·col_pos_max` (and symmetrically for the lower bound), so the
//! interval covers every *intermediate* accumulator state for any
//! summation order, and zero-padded or truncated convolution windows
//! (which drop summands) for free. That is the property a SIMD kernel
//! needs to pick a narrower accumulator: not just the final dot product
//! but every partial sum must fit the width. The proven interval
//! replaces the coarse worst-case `k·act_max·wgt_max` bound of the
//! runtime's fold-time check with a per-step provable one, exported as a
//! [`RangeReport`].

use crate::interval::Interval;
use crate::{Diagnostic, LintCode};
use gcd2_cgraph::{Activation, Graph, OpKind};
use gcd2_verify::{GemmFacts, InferPlanView, InferStep, Severity, StepRole};

/// Proven value facts for one GEMM step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmRange {
    /// Schedule position (== graph node id).
    pub step: usize,
    /// Node name, for human-readable reports.
    pub name: String,
    /// Reduction depth.
    pub k: usize,
    /// Folded requantization shift.
    pub shift: u8,
    /// Partial-sum-safe accumulator interval (see module docs).
    pub acc: Interval,
    /// Interval of the requantized, clamped output values.
    pub out: Interval,
    /// Narrowest signed accumulator width (8/16/32/64 bits) that holds
    /// every partial sum of this GEMM.
    pub safe_acc_bits: u8,
    /// The epilogue map the step stores ([`GemmFacts::map`]).
    pub map: [u8; 16],
    /// The map the analyzer derives for it: each requantised value `v`
    /// pushed as `Interval::point(v)` through the transfer functions of
    /// the steps folded into the GEMM, in order — the identity when none
    /// are. It shares no code with the kernels that built `map`.
    pub policy_map: [u8; 16],
}

/// The analyzer's exported range facts: one output-value interval per
/// step and one [`GemmRange`] per GEMM, in schedule order.
#[derive(Debug, Clone, Default)]
pub struct RangeReport {
    values: Vec<Interval>,
    gemms: Vec<GemmRange>,
}

impl RangeReport {
    /// Proven output-value interval of step `step`.
    pub fn value_of(&self, step: usize) -> Option<Interval> {
        self.values.get(step).copied()
    }

    /// Per-GEMM facts, in schedule order.
    pub fn gemms(&self) -> &[GemmRange] {
        &self.gemms
    }

    /// The GEMM facts of one step, when that step is a GEMM.
    pub fn gemm_for_step(&self, step: usize) -> Option<&GemmRange> {
        self.gemms.iter().find(|g| g.step == step)
    }

    /// Widest safe accumulator width any GEMM of the plan needs
    /// (8 when the plan has no GEMMs).
    pub fn max_acc_bits(&self) -> u8 {
        self.gemms
            .iter()
            .map(|g| g.safe_acc_bits)
            .max()
            .unwrap_or(8)
    }

    /// Whether every GEMM accumulator provably fits i32.
    pub fn all_fit_i32(&self) -> bool {
        self.gemms.iter().all(|g| g.acc.fits_i32())
    }
}

/// Runs the interpreter over `steps` (the plan's steps, collected once
/// by the caller), pushing findings into `diags` and returning the
/// range facts (best-effort even when findings exist).
pub(crate) fn interpret(
    graph: &Graph,
    plan: &dyn InferPlanView,
    steps: &[InferStep],
    diags: &mut Vec<Diagnostic>,
) -> RangeReport {
    let am = i64::from(plan.act_max());
    let act = Interval::new(0, am);
    let byte = Interval::new(0, 255);
    let n = steps.len();
    if graph.len() != n {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: LintCode::RoleMismatch,
            step: None,
            detail: format!("plan has {n} steps but the graph has {} nodes", graph.len()),
        });
        return RangeReport::default();
    }

    let mut values = vec![byte; n];
    let mut out_lens = vec![0usize; n];
    let mut gemms: Vec<GemmRange> = Vec::new();
    // Reads of each value, the model output's one more; and for each
    // value that is a GEMM's bytes through its folded steps so far, that
    // GEMM and what each requantised value `0..=act_max` has become.
    let mut readers = vec![0usize; n];
    for node in graph.nodes() {
        for input in node.inputs.iter().filter(|p| p.0 < n) {
            readers[input.0] += 1;
        }
    }
    readers[n - 1] += 1;
    let mut chains: Vec<Option<(usize, Vec<Interval>)>> = vec![None; n];
    let mut zero_fill = vec![false; n];

    for node in graph.nodes() {
        let i = node.id.0;
        let step = &steps[i];
        out_lens[i] = step.out_len;

        // Operand intervals/lengths. Dangling or forward references are
        // GraphInvariants findings; fall back to ⊤ = [0, 255] here so
        // the interpretation stays sound without double-reporting.
        let input = |j: usize| -> (Interval, usize) {
            match node.inputs.get(j) {
                Some(id) if id.0 < i => (values[id.0], out_lens[id.0]),
                _ => (byte, usize::MAX),
            }
        };
        let (a, a_len) = input(0);
        let (b_raw, b_len) = input(1);
        // Add/Mul/Div zero-extend a shorter second operand.
        let b = if b_len < a_len {
            b_raw.hull(Interval::point(0))
        } else {
            b_raw
        };

        // A corrupted schedule can relabel a step; aliasing legality and
        // the GEMM proofs both key off the role, so cross-check it
        // against the graph operator before trusting it.
        let role_ok = match &step.role {
            StepRole::Gemm(_) => node.kind.is_gemm_like(),
            StepRole::Passthrough => matches!(
                node.kind,
                OpKind::Act(Activation::Relu | Activation::Relu6)
                    | OpKind::Reshape { .. }
                    | OpKind::Transpose
            ),
            StepRole::Input => matches!(node.kind, OpKind::Input),
            StepRole::Constant => matches!(node.kind, OpKind::Constant),
            StepRole::Compute => {
                !node.kind.is_gemm_like() && !matches!(node.kind, OpKind::Input | OpKind::Constant)
            }
            StepRole::Folded => foldable(&node.kind),
        };
        if !role_ok {
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: LintCode::RoleMismatch,
                step: Some(i),
                detail: format!(
                    "graph operator {} is scheduled as a {:?} step",
                    node.kind,
                    role_tag(&step.role)
                ),
            });
        }

        match &step.role {
            StepRole::Gemm(f) => {
                let lanes = (0..=am).map(Interval::point).collect();
                chains[i] = Some((i, lanes));
                zero_fill[i] = f.zero_fill;
            }
            StepRole::Folded if role_ok => match fold_lanes(graph, node, &readers, &chains, am) {
                Ok(chain) => chains[i] = Some(chain),
                Err(why) => diags.push(Diagnostic {
                    severity: Severity::Error,
                    code: LintCode::IllegalFold,
                    step: Some(i),
                    detail: why,
                }),
            },
            _ => {}
        }

        let mut out = match &node.kind {
            OpKind::Input => act,
            OpKind::Constant => Interval::point(0),
            kind if kind.is_gemm_like() => match &step.role {
                StepRole::Gemm(f) => gemm_transfer(i, &step.name, f, a, am, diags, &mut gemms),
                // Role mismatch already reported; ⊤ keeps successors sound.
                _ => byte,
            },
            kind if foldable(kind) => elementwise(kind, a, b, am),
            // out = a · act_max / max(Σ_group a, 1) ∈ [0, act_max]; an
            // all-zero input renormalizes to all zeros.
            OpKind::Softmax => {
                if a.hi == 0 {
                    Interval::point(0)
                } else {
                    Interval::new(0, am)
                }
            }
            // out = clamp(a − mean + mid, 0, act_max) with mean ∈ [a.lo, a.hi].
            OpKind::LayerNorm => {
                let mid = (am + 1) / 2;
                Interval::new(
                    (a.lo - a.hi + mid).clamp(0, am),
                    (a.hi - a.lo + mid).clamp(0, am),
                )
            }
            // Max/mean of a window, copies, and concatenation never
            // leave the hull of the input values.
            kind if kind.preserves_value_range() => {
                if node.inputs.len() >= 2 {
                    a.hull(b_raw)
                } else {
                    a
                }
            }
            // Unreachable with today's vocabulary; ⊤ stays sound.
            _ => byte,
        };

        // Self-check: the runtime keeps every stored activation inside
        // [0, act_max]. An escaping interval means the transfer
        // functions and the kernels have drifted apart.
        if !out.within(act) {
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: LintCode::IntervalEscape,
                step: Some(i),
                detail: format!("derived value interval {out} escapes the activation range {act}"),
            });
            out = out.clamp(0, am);
        }
        values[i] = out;
    }

    check_maps(&chains, &zero_fill, &mut gemms, diags);
    RangeReport { values, gemms }
}

/// The operators a plan may fold into a GEMM's requantisation: the
/// position-blind steps whose other operands can be constants.
fn foldable(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Add
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Pow
            | OpKind::Gelu
            | OpKind::Sigmoid
            | OpKind::Act(Activation::HardSwish)
    )
}

/// The transfer function of a [`foldable`] operator over operand
/// intervals `a` and `b` (`b` unused by the unary ones), from each
/// operator's exact host semantics; ⊤ for any other operator.
fn elementwise(kind: &OpKind, a: Interval, b: Interval, am: i64) -> Interval {
    match kind {
        // out = (a + b) / 2, elementwise.
        OpKind::Add => Interval::new((a.lo + b.lo) / 2, (a.hi + b.hi) / 2),
        // out = min((a · b) >> 4, act_max); monotone on [0, 255]².
        OpKind::Mul => Interval::new(((a.lo * b.lo) >> 4).min(am), ((a.hi * b.hi) >> 4).min(am)),
        // out = a / (b + 1).
        OpKind::Div => Interval::new(a.lo / (b.hi + 1), a.hi / (b.lo + 1)),
        // out = min((a²) >> 4, act_max); the exponent is implicit.
        OpKind::Pow => Interval::new(((a.lo * a.lo) >> 4).min(am), ((a.hi * a.hi) >> 4).min(am)),
        // The monotone byte-LUT stand-in: out = a/2 + a/4.
        OpKind::Act(Activation::HardSwish) | OpKind::Sigmoid | OpKind::Gelu => {
            a.map_monotone(|v| v / 2 + v / 4)
        }
        _ => Interval::new(0, 255),
    }
}

/// The chain a folded step extends: its operands must be one value — a
/// GEMM's, or one folded into a GEMM — which it is the only reader of,
/// and constants (zeros). Returns the GEMM and each requantised value
/// pushed through this step's transfer function too, or why the fold
/// is illegal.
fn fold_lanes(
    graph: &Graph,
    node: &gcd2_cgraph::Node,
    readers: &[usize],
    chains: &[Option<(usize, Vec<Interval>)>],
    am: i64,
) -> Result<(usize, Vec<Interval>), String> {
    let i = node.id.0;
    let constant = |p: usize| matches!(graph.node(gcd2_cgraph::NodeId(p)).kind, OpKind::Constant);
    let mut mapped = node
        .inputs
        .iter()
        .map(|p| p.0)
        .filter(|&p| p < i && !constant(p));
    let from = mapped
        .next()
        .ok_or_else(|| "a folded step maps no value".to_string())?;
    if mapped.any(|p| p != from) || node.inputs.iter().any(|p| p.0 >= i) {
        return Err("a folded step reads a second value".to_string());
    }
    let Some((gemm, lanes)) = &chains[from] else {
        return Err(format!(
            "a folded step maps step {from}, which is no GEMM's value"
        ));
    };
    let reads = node.inputs.iter().filter(|p| p.0 == from).count();
    if readers[from] != reads {
        return Err(format!(
            "a folded step maps step {from}, which has another reader"
        ));
    }
    let zero = Interval::point(0);
    let lane = |j: usize, v: usize| match node.inputs.get(j) {
        Some(p) if p.0 == from => lanes[v],
        _ => zero,
    };
    let folded = (0..lanes.len())
        .map(|v| elementwise(&node.kind, lane(0, v), lane(1, v), am))
        .collect();
    Ok((*gemm, folded))
}

/// Holds each GEMM's stored map to the one its chain derives: every lane
/// of the chain's last step (the GEMM's own lanes, the identity, when
/// nothing folded) must be one value, and it must be the stored entry. A
/// GEMM whose scatter leaves zeros (`zero_fill`, by step) the map does
/// not reach must map 0 to 0. Records `policy_map` on each
/// [`GemmRange`].
fn check_maps(
    chains: &[Option<(usize, Vec<Interval>)>],
    zero_fill: &[bool],
    gemms: &mut [GemmRange],
    diags: &mut Vec<Diagnostic>,
) {
    for g in gemms.iter_mut() {
        let Some((_, lanes)) = chains
            .iter()
            .rev()
            .flatten()
            .find(|(root, _)| *root == g.step)
        else {
            continue;
        };
        let mut policy = [0u8; 16];
        let mut exact = lanes.len() == policy.len();
        for (entry, lane) in policy.iter_mut().zip(lanes) {
            exact &= lane.lo == lane.hi && (0..16).contains(&lane.lo);
            *entry = lane.lo.clamp(0, 15) as u8;
        }
        g.policy_map = policy;
        let zeros_escape = zero_fill[g.step] && policy[0] != 0;
        if !exact || g.map != policy || zeros_escape {
            diags.push(Diagnostic {
                severity: Severity::Error,
                code: LintCode::MapPolicy,
                step: Some(g.step),
                detail: format!(
                    "epilogue map {:?} disagrees with the map its folded steps compose, {:?}{}",
                    g.map,
                    policy,
                    if zeros_escape {
                        " (and the scatter leaves zeros it does not map)"
                    } else {
                        ""
                    }
                ),
            });
        }
    }
}

fn role_tag(role: &StepRole) -> &'static str {
    match role {
        StepRole::Input => "Input",
        StepRole::Constant => "Constant",
        StepRole::Gemm(_) => "Gemm",
        StepRole::Passthrough => "Passthrough",
        StepRole::Compute => "Compute",
        StepRole::Folded => "Folded",
    }
}

/// The GEMM transfer function: derives the partial-sum-safe accumulator
/// interval, proves it against i32, checks the folded shift against the
/// depth-k policy, and pushes the [`GemmRange`] record.
fn gemm_transfer(
    step: usize,
    name: &str,
    f: &GemmFacts,
    a: Interval,
    am: i64,
    diags: &mut Vec<Diagnostic>,
    gemms: &mut Vec<GemmRange>,
) -> Interval {
    let acc = Interval::new(
        a.hi.saturating_mul(f.col_neg_min),
        a.hi.saturating_mul(f.col_pos_max),
    );
    let safe_acc_bits = acc.min_signed_bits();
    if !acc.fits_i32() {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: LintCode::AccOverflow,
            step: Some(step),
            detail: format!(
                "accumulator interval {acc} (k={}) needs {safe_acc_bits} bits, \
                 exceeding the i32 accumulator",
                f.k
            ),
        });
    }
    if f.shift >= 32 {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: LintCode::ShiftRange,
            step: Some(step),
            detail: format!("requantization shift {} is out of range (>= 32)", f.shift),
        });
    }
    if f.shift != f.policy_shift {
        diags.push(Diagnostic {
            severity: Severity::Error,
            code: LintCode::ShiftPolicy,
            step: Some(step),
            detail: format!(
                "folded shift {} disagrees with the depth-k policy shift {} for k={}",
                f.shift, f.policy_shift, f.k
            ),
        });
    }
    // Epilogue: min(clamp(acc >> shift, 0, 255), act_max), monotone in acc.
    let shift = u32::from(f.shift).min(63);
    let requant = |v: i64| ((v >> shift).clamp(0, 255)).min(am);
    let mut out = Interval::new(requant(acc.lo), requant(acc.hi));
    if f.zero_fill {
        out = out.hull(Interval::point(0));
    }
    gemms.push(GemmRange {
        step,
        name: name.to_string(),
        k: f.k,
        shift: f.shift,
        acc,
        out,
        safe_acc_bits,
        map: f.map,
        policy_map: f.map,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockPlan;
    use gcd2_cgraph::TShape;
    use gcd2_verify::StepRole;

    const AM: u8 = 15;
    const IDENTITY: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

    fn facts(k: usize, shift: u8, pos: i64, neg: i64) -> GemmFacts {
        GemmFacts {
            m: 4,
            k,
            n: 3,
            shift,
            policy_shift: shift,
            map: IDENTITY,
            zero_fill: false,
            col_pos_max: pos,
            col_neg_min: neg,
        }
    }

    #[test]
    fn gemm_interval_is_partial_sum_safe_and_width_tight() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![4, 4]));
        g.add(OpKind::MatMul { n: 3 }, &[x], "fc");

        let mut plan = MockPlan::new(AM);
        plan.push("x", &[], 0, 16, StepRole::Input);
        plan.push("fc", &[0], 1, 12, StepRole::Gemm(facts(4, 1, 8, -8)));

        let mut diags = Vec::new();
        let report = interpret(&g, &plan, &plan.steps, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        let fc = report.gemm_for_step(1).unwrap();
        // acc ∈ [15·(−8), 15·8] = [−120, 120]: fits i8, covers any
        // partial sum of any column.
        assert_eq!(fc.acc, Interval::new(-120, 120));
        assert_eq!(fc.safe_acc_bits, 8);
        assert_eq!(report.max_acc_bits(), 8);
        assert!(report.all_fit_i32());
        // Requantized output: clamp(120 >> 1, 0, 255).min(15) = 15.
        assert_eq!(fc.out, Interval::new(0, 15));
        assert_eq!(report.value_of(1).unwrap(), Interval::new(0, 15));
    }

    #[test]
    fn overflow_shift_range_and_policy_are_flagged() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![4, 4]));
        g.add(OpKind::MatMul { n: 3 }, &[x], "fc");

        let mut plan = MockPlan::new(AM);
        plan.push("x", &[], 0, 16, StepRole::Input);
        let mut f = facts(4, 40, 200_000_000, -1);
        f.policy_shift = 5; // stored shift 40 disagrees and is out of range
        plan.push("fc", &[0], 1, 12, StepRole::Gemm(f));

        let mut diags = Vec::new();
        let report = interpret(&g, &plan, &plan.steps, &mut diags);
        let codes: Vec<LintCode> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&LintCode::AccOverflow), "{diags:?}");
        assert!(codes.contains(&LintCode::ShiftRange), "{diags:?}");
        assert!(codes.contains(&LintCode::ShiftPolicy), "{diags:?}");
        assert_eq!(report.gemm_for_step(1).unwrap().safe_acc_bits, 64);
        assert!(!report.all_fit_i32());
    }

    /// fc → bias add → Gelu, both folded into fc, and the map the GEMM
    /// stores: the analyzer's own composition must equal it, the fold
    /// must map a GEMM's value, and that value must have no other
    /// reader.
    #[test]
    fn folded_chains_are_held_to_the_analyzers_map() {
        let chain = |map: [u8; 16], second_reader: bool| {
            let mut g = Graph::new();
            let x = g.input("x", TShape::new(vec![4, 4]));
            let fc = g.add(OpKind::MatMul { n: 3 }, &[x], "fc");
            let k = g.constant("k", TShape::new(vec![4, 3]));
            let add = g.add(OpKind::Add, &[fc, k], "add");
            let gelu = g.add(OpKind::Gelu, &[add], "gelu");
            let mut plan = MockPlan::new(AM);
            plan.push("x", &[], 0, 16, StepRole::Input);
            let mut f = facts(4, 1, 8, -8);
            f.map = map;
            plan.push("fc", &[0], 1, 12, StepRole::Gemm(f));
            plan.push("k", &[], 2, 12, StepRole::Constant);
            plan.push("add", &[1, 2], 1, 12, StepRole::Folded);
            plan.push("gelu", &[1], 1, 12, StepRole::Folded);
            if second_reader {
                g.add(OpKind::Add, &[gelu, fc], "late");
                plan.push("late", &[1, 1], 3, 12, StepRole::Compute);
            }
            let mut diags = Vec::new();
            let report = interpret(&g, &plan, &plan.steps, &mut diags);
            (diags, report)
        };
        // avg(v, 0), then u/2 + u/4.
        let composed: [u8; 16] = std::array::from_fn(|v| {
            let u = v as u8 / 2;
            u / 2 + u / 4
        });
        let (diags, report) = chain(composed, false);
        assert!(diags.is_empty(), "{diags:?}");
        let fc = report.gemm_for_step(1).unwrap();
        assert_eq!((fc.map, fc.policy_map), (composed, composed));

        let mut forged = composed;
        forged[15] ^= 1;
        let (diags, report) = chain(forged, false);
        let codes: Vec<LintCode> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, [LintCode::MapPolicy], "{diags:?}");
        assert_eq!(report.gemm_for_step(1).unwrap().policy_map, composed);

        // fc's value read again later: the bias add may not fold.
        let (diags, _) = chain(composed, true);
        assert!(
            diags
                .iter()
                .any(|d| d.code == LintCode::IllegalFold && d.step == Some(3)),
            "{diags:?}"
        );
    }

    #[test]
    fn role_mismatch_is_flagged() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![4, 4]));
        g.add(OpKind::MatMul { n: 3 }, &[x], "fc");

        let mut plan = MockPlan::new(AM);
        plan.push("x", &[], 0, 16, StepRole::Input);
        // A GEMM-like node scheduled as a plain compute step.
        plan.push("fc", &[0], 1, 12, StepRole::Compute);

        let mut diags = Vec::new();
        let _ = interpret(&g, &plan, &plan.steps, &mut diags);
        assert!(
            diags.iter().any(|d| d.code == LintCode::RoleMismatch),
            "{diags:?}"
        );
    }

    /// Empirical soundness: run the real host kernels over every input
    /// pair in the activation range and check the outputs land inside
    /// the derived intervals.
    #[test]
    fn binary_transfers_cover_host_kernels() {
        type BinKernel = fn(&[u8], &[u8], &mut [u8]);
        let shape = TShape::new(vec![1]);
        let cases: [(OpKind, BinKernel); 3] = [
            (OpKind::Add, |a, b, out| {
                gcd2_kernels::hostops::add_avg_into(a, b, out)
            }),
            (OpKind::Mul, |a, b, out| {
                gcd2_kernels::hostops::mul_shift4_into(a, b, AM, out)
            }),
            (OpKind::Div, |a, b, out| {
                gcd2_kernels::hostops::div_lut_into(a, b, out)
            }),
        ];
        for (kind, kernel) in cases {
            let mut g = Graph::new();
            let x = g.input("x", shape.clone());
            let y = g.input("y", shape.clone());
            g.add(kind.clone(), &[x, y], "op");

            let mut plan = MockPlan::new(AM);
            plan.push("x", &[], 0, 1, StepRole::Input);
            plan.push("y", &[], 1, 1, StepRole::Input);
            plan.push("op", &[0, 1], 2, 1, StepRole::Compute);

            let mut diags = Vec::new();
            let report = interpret(&g, &plan, &plan.steps, &mut diags);
            assert!(diags.is_empty(), "{kind}: {diags:?}");
            let iv = report.value_of(2).unwrap();
            let mut out = [0u8; 1];
            for a in 0..=AM {
                for b in 0..=AM {
                    kernel(&[a], &[b], &mut out);
                    assert!(
                        iv.contains(i64::from(out[0])),
                        "{kind}: {a} ∘ {b} = {} outside {iv}",
                        out[0]
                    );
                }
            }
        }
    }

    /// Same empirical check for the grouped/unary kernels on a spread of
    /// activation patterns.
    #[test]
    fn unary_transfers_cover_host_kernels() {
        let patterns: [[u8; 4]; 5] = [
            [0, 0, 0, 0],
            [15, 15, 15, 15],
            [0, 15, 3, 7],
            [1, 1, 2, 14],
            [9, 0, 0, 4],
        ];
        type UnaryKernel = fn(&[u8], &mut [u8]);
        let cases: [(OpKind, UnaryKernel); 4] = [
            (OpKind::Gelu, |x, out| {
                gcd2_kernels::hostops::monotone_lut_into(x, out)
            }),
            (OpKind::Pow, |x, out| {
                gcd2_kernels::hostops::pow_sq_into(x, AM, out)
            }),
            (OpKind::Softmax, |x, out| {
                gcd2_kernels::hostops::softmax_into(x, 4, AM, out)
            }),
            (OpKind::LayerNorm, |x, out| {
                gcd2_kernels::hostops::layernorm_into(x, 4, AM, out)
            }),
        ];
        for (kind, kernel) in cases {
            let mut g = Graph::new();
            let x = g.input("x", TShape::new(vec![4]));
            g.add(kind.clone(), &[x], "op");

            let mut plan = MockPlan::new(AM);
            plan.push("x", &[], 0, 4, StepRole::Input);
            plan.push("op", &[0], 1, 4, StepRole::Compute);

            let mut diags = Vec::new();
            let report = interpret(&g, &plan, &plan.steps, &mut diags);
            assert!(diags.is_empty(), "{kind}: {diags:?}");
            let iv = report.value_of(1).unwrap();
            let mut out = [0u8; 4];
            for p in &patterns {
                kernel(p, &mut out);
                for &v in out.iter() {
                    assert!(
                        iv.contains(i64::from(v)),
                        "{kind}: {p:?} → {v} outside {iv}"
                    );
                }
            }
        }
    }

    #[test]
    fn hull_ops_and_zero_fill_widen_soundly() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 2, 4, 4));
        let p = g.add(
            OpKind::MaxPool {
                kernel: (2, 2),
                stride: (2, 2),
            },
            &[x],
            "pool",
        );
        g.add(OpKind::Concat, &[p, p], "cat");

        let mut plan = MockPlan::new(AM);
        plan.push("x", &[], 0, 32, StepRole::Input);
        plan.push("pool", &[0], 1, 8, StepRole::Compute);
        plan.push("cat", &[1, 1], 2, 16, StepRole::Compute);

        let mut diags = Vec::new();
        let report = interpret(&g, &plan, &plan.steps, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(report.value_of(1).unwrap(), Interval::new(0, 15));
        assert_eq!(report.value_of(2).unwrap(), Interval::new(0, 15));

        // A zero-filling GEMM scatter must include 0 in its output range.
        let mut diags = Vec::new();
        let mut gemms = Vec::new();
        let mut f = facts(4, 0, 2, 0);
        f.zero_fill = true;
        // With col_neg_min = 0 the requantized interval would start at
        // min(acc.lo >> 0, …) = 0 anyway; force a positive floor via a
        // positive input interval to see zero_fill matter.
        let out = gemm_transfer(1, "g", &f, Interval::new(3, 15), 15, &mut diags, &mut gemms);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(out.lo, 0, "zero-filled scatter must admit 0");
    }
}
