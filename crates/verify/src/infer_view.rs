//! A structural view of compiled inference plans for plan-level passes.
//!
//! The inference runtime lives *above* this crate (`gcd2::infer`), so
//! the verifier cannot name `InferencePlan` directly without a
//! dependency cycle. Instead the runtime implements [`InferPlanView`] —
//! a flattened, plain-data projection of the plan's step schedule, slot
//! arena, and per-GEMM quantization facts — and hands it to passes
//! through [`crate::PlanView::Inference`]. Analysis crates
//! (`gcd2-analyze`) consume the same view, keeping the dependency graph
//! acyclic: `core → analyze → verify`.
//!
//! The view is deliberately *derived data only*: per-GEMM weight-column
//! sums and the policy shift are recomputed from the plan's materialized
//! weights and dimensions on every call, never copied from the fields
//! under scrutiny, so a corrupted stored field cannot vouch for itself.

use std::fmt;

/// The slot of a value no running step writes or reads.
pub const NO_SLOT: usize = usize::MAX;

/// Role of one step in the schedule, as far as plan-level static
/// analysis is concerned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepRole {
    /// Materializes the model input into its slot (clamped into the
    /// activation range).
    Input,
    /// Materializes a constant (zero) tensor.
    Constant,
    /// A staged GEMM with materialized weights.
    Gemm(GemmFacts),
    /// Value-preserving step (ReLU/Reshape/Transpose) that may alias its
    /// input slot in place when the input dies with it.
    Passthrough,
    /// A unary step folded into a GEMM's requantisation: it runs
    /// nothing, its value is the bytes the GEMM's epilogue map wrote,
    /// and it holds them in the slot of the value it maps. Its operands
    /// are that value and constants; a constant only folded steps read
    /// has no slot ([`NO_SLOT`]).
    Folded,
    /// Any other compute step (elementwise, pooling, normalization…).
    Compute,
}

/// Static facts about one GEMM step, derived from its materialized
/// weights and resolved dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmFacts {
    /// Activation rows.
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// The requantization shift folded into the step at build time.
    pub shift: u8,
    /// The shift the runtime's depth-`k` requantization policy
    /// prescribes, recomputed from `k` (not copied from the stored
    /// step): a corrupted stored shift shows up as
    /// `shift != policy_shift`.
    pub policy_shift: u8,
    /// The epilogue map folded into the step at build time: requantised
    /// value `v` becomes `map[v]` (the identity when nothing folded).
    /// The analyzer recomputes it from the folded steps' operators.
    pub map: [u8; 16],
    /// Whether the output scatter leaves positions unwritten, i.e. the
    /// output tensor contains zeros beyond the GEMM result
    /// (ConvTranspose-style upsampling scatter).
    pub zero_fill: bool,
    /// `max_j Σ_i max(w_ij, 0)` — the largest per-column sum of positive
    /// weights. Multiplied by the activation ceiling this bounds every
    /// partial accumulator sum from above, for any summation order or
    /// zero-padded subset of rows.
    pub col_pos_max: i64,
    /// `min_j Σ_i min(w_ij, 0)` — the most negative per-column sum of
    /// negative weights; the matching lower partial-sum bound.
    pub col_neg_min: i64,
}

/// How the host runtime holds one activation value in its slot — the
/// label the plan's layout selection gives every step's operands and
/// result (DESIGN.md §4f).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ActLayout {
    /// The interpreter's flat tensor bytes; for an image, channel-major
    /// planes (`c × hw`).
    #[default]
    Chw,
    /// Pixel-major rows (`hw × c`): what a conv GEMM reads and writes.
    /// Only ever the label of a value that is one `c × h × w` image.
    Rows,
}

impl fmt::Display for ActLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ActLayout::Chw => "chw",
            ActLayout::Rows => "rows",
        })
    }
}

/// One step of the schedule, flattened to plain data. The step index
/// equals the graph node id (plan schedules are one step per node, in
/// dense id order), so passes can walk the graph and the plan in
/// lockstep.
#[derive(Debug, Clone)]
pub struct InferStep {
    /// Schedule position == dense graph node id.
    pub index: usize,
    /// The node's name.
    pub name: String,
    /// The operator description.
    pub op: String,
    /// Arena slot of each operand, in graph-input order.
    pub in_slots: Vec<usize>,
    /// Arena slot the result is written to; [`NO_SLOT`] for a constant
    /// that only folded steps read, and for those steps' operand slot
    /// of it.
    pub out_slot: usize,
    /// Result element count.
    pub out_len: usize,
    /// The layout the step reads its operands in (an operand held in
    /// the other one is converted on the way in).
    pub in_layout: ActLayout,
    /// The layout the step leaves its result in.
    pub out_layout: ActLayout,
    /// What the step computes.
    pub role: StepRole,
}

/// The projection of a compiled inference plan that plan-level passes
/// inspect through [`crate::PlanView::Inference`].
pub trait InferPlanView: fmt::Debug {
    /// Number of schedule steps (one per graph node).
    fn step_count(&self) -> usize;
    /// The flattened view of step `index` (< [`Self::step_count`]).
    fn step(&self, index: usize) -> InferStep;
    /// High-water byte size of every arena slot.
    fn slot_sizes(&self) -> Vec<usize>;
    /// Expected model-input element count.
    fn input_len(&self) -> usize;
    /// Model-output element count.
    fn output_len(&self) -> usize;
    /// Arena slot holding the model output after execution.
    fn output_slot(&self) -> usize;
    /// Ceiling of the quantized activation range (the runtime's
    /// `ACT_MAX`); every stored activation value is in `0..=act_max`.
    fn act_max(&self) -> u8;
}
