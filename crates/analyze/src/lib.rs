//! # gcd2-analyze — abstract interpretation over compiled inference plans
//!
//! Static analysis for the inference runtime's compiled plans: where
//! `gcd2-verify` checks the *lowering* artifacts (packets, registers,
//! execution plans), this crate proves properties of the *runtime*
//! artifact — the step schedule, slot arena, and folded requantization
//! parameters of an `InferencePlan` — before a single byte executes.
//!
//! Two analyses, one driver:
//!
//! * [`range`] — an interval abstract interpreter over the quantized
//!   dataflow. Propagates per-tensor value ranges through transfer
//!   functions matching the kernels' exact semantics and proves, per
//!   GEMM, that every partial accumulator sum fits the i32 accumulator,
//!   recording the tightest safe width in a [`RangeReport`] that future
//!   SIMD kernels can consult.
//! * [`arena`] — a liveness-replay soundness pass over the slot arena:
//!   recomputes live intervals from the graph edges and proves that no
//!   two simultaneously-live tensors share a slot, in-place aliasing is
//!   legal, every read is def-before-use, and `slot_sizes` dominate
//!   every write.
//!
//! Both are exposed two ways: as the structured [`analyze_plan`] driver
//! returning [`Diagnostic`]s with stable [`LintCode`]s, and as
//! [`AccumulatorRange`]/[`ArenaSoundness`] implementations of the
//! `gcd2-verify` [`Pass`] trait (consuming
//! [`PlanView::Inference`](gcd2_verify::PlanView)), so plan analysis
//! slots into the same pipeline as the four lowering passes.
//!
//! The crate deliberately depends only on `gcd2-cgraph` and
//! `gcd2-verify`: it sees plans through the flattened
//! [`InferPlanView`](gcd2_verify::InferPlanView) projection, never the
//! concrete runtime types.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arena;
pub mod interval;
pub mod range;

pub use interval::Interval;
pub use range::{GemmRange, RangeReport};

use gcd2_cgraph::Graph;
use gcd2_verify::{Context, InferPlanView, InferStep, Pass, PlanView, Report};
use std::fmt;

pub use gcd2_verify::Severity;

/// Stable diagnostic codes of the plan analyzer. `A1xx` come from the
/// range interpreter, `A2xx` from the arena soundness replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// A GEMM's proven accumulator interval exceeds the i32 range.
    AccOverflow,
    /// A folded requantization shift is out of the kernel's range.
    ShiftRange,
    /// A folded shift disagrees with the depth-k requantization policy.
    ShiftPolicy,
    /// A step's role contradicts the graph operator it implements.
    RoleMismatch,
    /// A derived value interval escapes the activation range (the
    /// transfer functions and the kernels have drifted apart).
    IntervalEscape,
    /// A GEMM's stored epilogue map is not the composition of the steps
    /// folded into it.
    MapPolicy,
    /// A step is folded into a GEMM's requantisation although it maps
    /// no GEMM's value alone, or that value has another reader.
    IllegalFold,
    /// A slot index is outside the arena.
    SlotOutOfBounds,
    /// An operand read finds its value not resident (never defined,
    /// already freed, or overwritten).
    UseBeforeDef,
    /// An operand slot disagrees with the producing step's output slot.
    OperandSlotMismatch,
    /// A write lands on a slot whose occupant is still live.
    LiveClobber,
    /// Illegal in-place execution (not a single-input, last-use,
    /// size-matched pass-through).
    IllegalAlias,
    /// `slot_sizes` does not cover a step's write.
    SlotUndersized,
    /// The declared model input/output location or length disagrees
    /// with the schedule.
    OutputMismatch,
}

impl LintCode {
    /// The stable code string (`A101`…`A207`).
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::AccOverflow => "A101",
            LintCode::ShiftRange => "A102",
            LintCode::ShiftPolicy => "A103",
            LintCode::RoleMismatch => "A104",
            LintCode::IntervalEscape => "A105",
            LintCode::MapPolicy => "A106",
            LintCode::IllegalFold => "A107",
            LintCode::SlotOutOfBounds => "A201",
            LintCode::UseBeforeDef => "A202",
            LintCode::OperandSlotMismatch => "A203",
            LintCode::LiveClobber => "A204",
            LintCode::IllegalAlias => "A205",
            LintCode::SlotUndersized => "A206",
            LintCode::OutputMismatch => "A207",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analyzer finding, anchored to a schedule step when it has one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// Stable machine-checkable code.
    pub code: LintCode,
    /// Schedule step the finding anchors to (`None` for plan-level
    /// findings).
    pub step: Option<usize>,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.step {
            Some(s) => write!(
                f,
                "{}[{}] step {s}: {}",
                self.severity, self.code, self.detail
            ),
            None => write!(f, "{}[{}] plan: {}", self.severity, self.code, self.detail),
        }
    }
}

/// The analyzer's overall judgement of one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No error-severity findings: overflow-freedom and arena soundness
    /// are proven.
    Clean,
    /// At least one broken invariant: executing the plan may read stale
    /// buffers, clobber live values, or overflow an accumulator.
    Unsound,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Clean => f.write_str("clean"),
            Verdict::Unsound => f.write_str("UNSOUND"),
        }
    }
}

/// Everything one analyzer run produced: the findings and the proven
/// range facts.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// All findings, in schedule order per pass (range first, arena
    /// second) — deterministic for one plan regardless of thread count.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-step value intervals and per-GEMM accumulator proofs.
    pub ranges: RangeReport,
}

impl Analysis {
    /// The overall judgement: [`Verdict::Unsound`] iff any finding has
    /// error severity.
    pub fn verdict(&self) -> Verdict {
        if self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
        {
            Verdict::Unsound
        } else {
            Verdict::Clean
        }
    }

    /// True when the run produced no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The findings carrying one specific code.
    pub fn of_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(
                f,
                "analysis clean: {} gemm(s), max accumulator width {} bit(s)",
                self.ranges.gemms().len(),
                self.ranges.max_acc_bits()
            );
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(f, "verdict: {}", self.verdict())
    }
}

/// The plan's steps, each asked of the view once: a GEMM step's facts
/// are derived from its weights as it is asked.
fn steps_of(plan: &dyn InferPlanView) -> Vec<InferStep> {
    (0..plan.step_count()).map(|i| plan.step(i)).collect()
}

/// The lint driver: runs the interval interpreter and the arena replay
/// over one plan and aggregates their findings. The two share one
/// collection of the plan's steps, so each GEMM's weights are read
/// once per analysis.
pub fn analyze_plan(graph: &Graph, plan: &dyn InferPlanView) -> Analysis {
    let steps = steps_of(plan);
    let mut diagnostics = Vec::new();
    let ranges = range::interpret(graph, plan, &steps, &mut diagnostics);
    arena::check(graph, plan, &steps, &mut diagnostics);
    Analysis {
        diagnostics,
        ranges,
    }
}

/// [`Pass`] adapter for the interval/overflow analysis.
#[derive(Debug, Default)]
pub struct AccumulatorRange;

/// [`Pass`] adapter for the arena soundness replay. Each adapter
/// collects the view's steps itself; [`analyze_plan`] runs both
/// analyses over one collection.
#[derive(Debug, Default)]
pub struct ArenaSoundness;

fn forward(diags: Vec<Diagnostic>, pass: &'static str, report: &mut Report) {
    for d in diags {
        report.push(gcd2_verify::Diagnostic {
            severity: d.severity,
            pass,
            location: match d.step {
                Some(s) => format!("step {s}"),
                None => "plan".to_string(),
            },
            message: format!("{}: {}", d.code, d.detail),
        });
    }
}

impl Pass for AccumulatorRange {
    fn name(&self) -> &'static str {
        "AccumulatorRange"
    }

    fn run(&self, cx: &Context<'_>, report: &mut Report) {
        let (Some(graph), Some(PlanView::Inference(plan))) = (cx.graph, cx.plans) else {
            return;
        };
        let mut diags = Vec::new();
        let _ = range::interpret(graph, plan, &steps_of(plan), &mut diags);
        forward(diags, self.name(), report);
    }
}

impl Pass for ArenaSoundness {
    fn name(&self) -> &'static str {
        "ArenaSoundness"
    }

    fn run(&self, cx: &Context<'_>, report: &mut Report) {
        let (Some(graph), Some(PlanView::Inference(plan))) = (cx.graph, cx.plans) else {
            return;
        };
        let mut diags = Vec::new();
        arena::check(graph, plan, &steps_of(plan), &mut diags);
        forward(diags, self.name(), report);
    }
}

/// Test scaffolding: a hand-buildable [`InferPlanView`] so the analyses
/// can be exercised without the concrete runtime.
#[cfg(test)]
pub(crate) mod testutil {
    use gcd2_verify::{InferPlanView, InferStep, StepRole};

    #[derive(Debug, Default)]
    pub struct MockPlan {
        pub steps: Vec<InferStep>,
        pub slot_sizes: Vec<usize>,
        pub input_len: usize,
        pub act_max: u8,
        pub output_slot_override: Option<usize>,
        pub output_len_override: Option<usize>,
    }

    impl MockPlan {
        pub fn new(act_max: u8) -> Self {
            MockPlan {
                act_max,
                ..Default::default()
            }
        }

        /// Appends a step, growing `slot_sizes` to cover the write.
        pub fn push(
            &mut self,
            name: &str,
            in_slots: &[usize],
            out_slot: usize,
            out_len: usize,
            role: StepRole,
        ) {
            if self.slot_sizes.len() <= out_slot {
                self.slot_sizes.resize(out_slot + 1, 0);
            }
            self.slot_sizes[out_slot] = self.slot_sizes[out_slot].max(out_len);
            if matches!(role, StepRole::Input) {
                self.input_len = out_len;
            }
            self.steps.push(InferStep {
                index: self.steps.len(),
                name: name.to_string(),
                op: name.to_string(),
                in_slots: in_slots.to_vec(),
                out_slot,
                out_len,
                in_layout: Default::default(),
                out_layout: Default::default(),
                role,
            });
        }
    }

    impl InferPlanView for MockPlan {
        fn step_count(&self) -> usize {
            self.steps.len()
        }
        fn step(&self, index: usize) -> InferStep {
            self.steps[index].clone()
        }
        fn slot_sizes(&self) -> Vec<usize> {
            self.slot_sizes.clone()
        }
        fn input_len(&self) -> usize {
            self.input_len
        }
        fn output_len(&self) -> usize {
            self.output_len_override
                .unwrap_or_else(|| self.steps.last().map(|s| s.out_len).unwrap_or(0))
        }
        fn output_slot(&self) -> usize {
            self.output_slot_override
                .unwrap_or_else(|| self.steps.last().map(|s| s.out_slot).unwrap_or(0))
        }
        fn act_max(&self) -> u8 {
            self.act_max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_verify::Verifier;

    #[test]
    fn lint_codes_are_stable_and_distinct() {
        let codes = [
            LintCode::AccOverflow,
            LintCode::ShiftRange,
            LintCode::ShiftPolicy,
            LintCode::RoleMismatch,
            LintCode::IntervalEscape,
            LintCode::MapPolicy,
            LintCode::IllegalFold,
            LintCode::SlotOutOfBounds,
            LintCode::UseBeforeDef,
            LintCode::OperandSlotMismatch,
            LintCode::LiveClobber,
            LintCode::IllegalAlias,
            LintCode::SlotUndersized,
            LintCode::OutputMismatch,
        ];
        let strings: std::collections::HashSet<&str> = codes.iter().map(|c| c.as_str()).collect();
        assert_eq!(strings.len(), codes.len());
        assert_eq!(LintCode::AccOverflow.as_str(), "A101");
        assert_eq!(LintCode::OutputMismatch.as_str(), "A207");
    }

    #[test]
    fn diagnostic_renders_with_code_and_step() {
        let d = Diagnostic {
            severity: Severity::Error,
            code: LintCode::LiveClobber,
            step: Some(12),
            detail: "overwrites slot 3".to_string(),
        };
        assert_eq!(d.to_string(), "error[A204] step 12: overwrites slot 3");
    }

    #[test]
    fn passes_register_behind_verify_trait() {
        let v = Verifier::new()
            .register(AccumulatorRange)
            .register(ArenaSoundness);
        assert_eq!(v.pass_names(), vec!["AccumulatorRange", "ArenaSoundness"]);
        // Without a graph + inference view the passes are inert.
        let report = v.run(&Context::new());
        assert!(report.is_clean());
    }

    #[test]
    fn verdict_tracks_error_severity() {
        let mut a = Analysis::default();
        assert_eq!(a.verdict(), Verdict::Clean);
        assert!(a.is_clean());
        a.diagnostics.push(Diagnostic {
            severity: Severity::Warning,
            code: LintCode::OutputMismatch,
            step: None,
            detail: "advisory".to_string(),
        });
        assert_eq!(a.verdict(), Verdict::Clean);
        assert!(!a.is_clean());
        a.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            code: LintCode::AccOverflow,
            step: Some(0),
            detail: "boom".to_string(),
        });
        assert_eq!(a.verdict(), Verdict::Unsound);
        assert_eq!(a.of_code(LintCode::AccOverflow).len(), 1);
    }
}
