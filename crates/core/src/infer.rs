//! The compiled inference runtime: execute a model many times, fast.
//!
//! [`crate::runtime`] interprets the graph node by node — it re-derives
//! weights, re-allocates every tensor in a `HashMap`, and rebuilds GEMM
//! operand matrices on every call. That is the right shape for a
//! bit-exactness oracle, and exactly the wrong shape for throughput.
//!
//! An [`InferencePlan`] is compiled **once** per [`CompiledModel`]:
//!
//! * the topological op schedule is frozen into a flat step list;
//! * every step's operands and result get an activation layout —
//!   channel-major planes or the pixel-major rows a conv GEMM reads and
//!   writes — chosen for the whole schedule at once by the compiler's
//!   own PBQP solver over a bytes-moved cost (`crate::layout`), so a
//!   pointwise conv fed by a conv stages nothing, a conv feeding one
//!   scatters nothing, and a depthwise conv, a pool or a squeeze-excite
//!   gate between them runs its pixel-major form;
//! * every weight matrix is derived at build time, its rows in the
//!   order the step's staging produces (so the per-edge layout
//!   transforms the interpreter performs per call are resolved once,
//!   here), and installed a 64-row k-tile at a time straight into the
//!   one form its step reads ([`gcd2_kernels::WeightPanel`]: the quad
//!   panel every tier's GEMM reads, the row-major bytes for a direct
//!   kernel) — a step keeps no other copy, a GEMM step only multiplies,
//!   and a plan built on one tier runs on every tier. Those panels,
//!   as they lie, are the artifact's weights image ([`WeightsLayout`]),
//!   which a loaded plan's steps borrow in place;
//! * the requantization shift of each GEMM (a pure function of its
//!   reduction depth) is folded into the step;
//! * activations live in a dense arena of reusable **slots** assigned by
//!   a liveness scan — no hashing, no steady-state allocation, and
//!   pass-through ops (ReLU/Reshape/Transpose) alias their input slot
//!   in place when it dies with them.
//!
//! Execution then streams the steps through the cache-blocked int8 GEMM
//! ([`gcd2_kernels::tiled`]) and the shared scalar host ops
//! ([`gcd2_kernels::hostops`]), staging im2col into a reused buffer.
//! Results are **bit-identical** to [`crate::runtime::execute_reference`]
//! for the same seed — both paths share one source of operator
//! semantics — and independent of what an arena ran before: a batch is
//! its inputs run in turn over one reused arena
//! ([`InferencePlan::try_execute_into`]), which is how the serving
//! gateway runs one.
//!
//! # Fault tolerance (DESIGN.md §6d)
//!
//! Every execution entry point is a fallible `try_` form returning a
//! structured [`InferError`] instead of panicking (plus
//! [`InferencePlan::execute`], the one panicking convenience): inputs
//! are shape-checked, arenas are stamped with the plan's integrity
//! checksum and rejected across plans, per-step deadlines abandon
//! overlong runs, and a panic inside a run is caught into
//! [`InferError::Internal`], so each call is its own isolation unit.
//! The plan itself carries a [`gcd2_artifact::Checksum64`] over its
//! step schedule and its weights image digest, computed at build time —
//! each panel folded in as soon as it is packed — and re-verifiable via
//! [`InferencePlan::verify_integrity`] — which also re-digests every
//! panel as it lies, checks its padding, and re-derives the layout
//! assignment, and compares — before any execution the caller wants
//! checked (the gateway runs it once, at admission). All of them
//! stream the schedule through one executor, `InferencePlan::run_one`:
//! one item, on the calling thread, a straight loop over the steps.

use gcd2_artifact::{Checksum64, RunDigest};
use gcd2_cgraph::{Activation, Graph, Node, NodeId, OpKind, TShape};
use gcd2_kernels::{
    conv2d_direct_chw_into, dwconv_direct_into, dwconv_rows_into, gemm_kernel_summary, hostops,
    im2col_rm_into, im2col_rows_into, im2col_rows_view, transpose_clamp_into,
    try_matmul_panel_into, weight_row_into, ByteMap, GemmA, GemmScratch, Im2colScratch, KernelIsa,
    LineBuf, PanelKind, TilePlan, WeightPanel, KTILE_ROWS,
};
use gcd2_verify::{ActLayout, NO_SLOT};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::error::{panic_message, InferError};
use crate::layout::{self, LayoutCost};
use crate::runtime::{gemm_shift, ACT_MAX, WGT_MAX};
use crate::CompiledModel;

/// The geometry of a convolution over one `c × h × w` feature map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvGeom {
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
    pub(crate) kernel: (usize, usize),
    pub(crate) stride: (usize, usize),
    pub(crate) padding: (usize, usize),
}

impl ConvGeom {
    /// A `kernel` window at `stride` over the NCHW map `shape`, padded
    /// by `padding` on every side.
    fn over(
        shape: &TShape,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> ConvGeom {
        ConvGeom {
            c: shape.channels(),
            h: shape.dim(2),
            w: shape.dim(3),
            kernel,
            stride,
            padding,
        }
    }

    /// The nine dimensions in the order the plan checksum folds them.
    fn dims(&self) -> [usize; 9] {
        let (kernel, stride, padding) = (self.kernel, self.stride, self.padding);
        [
            self.c, self.h, self.w, kernel.0, kernel.1, stride.0, stride.1, padding.0, padding.1,
        ]
    }

    /// Output pixels, `out_h · out_w`.
    fn out_pixels(&self) -> usize {
        let out_h = (self.h + 2 * self.padding.0 - self.kernel.0) / self.stride.0 + 1;
        let out_w = (self.w + 2 * self.padding.1 - self.kernel.1) / self.stride.1 + 1;
        out_h * out_w
    }
}

/// What a GEMM step's activation matrix is of its operand; the layout
/// the step reads the operand in ([`Step::in_layout`]) picks the form
/// that stages it.
#[derive(Debug, Clone)]
pub(crate) enum GemmPrep {
    /// The input tensor already is the row-major `m × k` matrix
    /// (MatMul/BatchMatMul) — consumed zero-copy.
    Direct,
    /// Implicit im2col of a feature map: from CHW planes through the
    /// tile transpose ([`im2col_rm_into`]), from pixel-major rows by
    /// plain copies ([`im2col_rows_into`], which orders the reduction
    /// `(dy, dx, ch)` — see [`GemmStep::weights`]) or, at stride 1, as a
    /// view of the padded rows the GEMM reads ([`im2col_rows_view`]).
    Im2col(ConvGeom),
    /// Depthwise convolution, executed as a direct sliding-window loop —
    /// bit-identical to the block-diagonal per-channel im2col + `k × 1`
    /// GEMM lowering, without the staging traffic. One `kh·kw` filter
    /// serves every channel, so over pixel-major rows it is a 2-D filter
    /// of an `h × (w·c)` byte image ([`dwconv_rows_into`]).
    Depthwise(ConvGeom),
    /// A pointwise conv (and a transposed convolution, modeled as a 1×1
    /// conv at input resolution): `a[r][ch] = x[ch·m + r]` — a transpose
    /// of CHW planes; pixel-major rows *are* the matrix, consumed
    /// zero-copy like [`GemmPrep::Direct`].
    Transposed { c: usize, m: usize },
}

/// How the `m × n` GEMM result scatters into the output tensor (the
/// plan-time image of the interpreter's `gemm_output_to_tensor`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scatter {
    /// `out[ch·spatial + o] = result[o][ch]` for `o < min(m, spatial)`;
    /// untouched positions stay zero (ConvTranspose upsampling). A step
    /// whose [`Step::out_layout`] is rows keeps the result as it is —
    /// the multiply writes the slot.
    Chw { spatial: usize },
    /// Rows are already channel-major (depthwise, n = 1).
    DwRows,
    /// Row-major copy.
    RowMajor,
}

/// One precompiled GEMM: staged operands, resident weights, folded
/// requantization shift.
#[derive(Debug, Clone)]
pub(crate) struct GemmStep {
    pub(crate) prep: GemmPrep,
    /// The step's only copy of its `k × n` weights, in the form the
    /// step reads: for a matmul-backed step the quad panel (see
    /// [`gcd2_kernels::WeightPanel`]), what its GEMM reads on every
    /// dispatch whatever the tier; for a direct kernel the row-major
    /// bytes. Owned by a built plan, a region of the artifact image in a
    /// loaded one. The integrity digest, the artifact and the analyzer
    /// all read it as it lies ([`WeightPanel::as_bytes`],
    /// [`WeightPanel::column_sign_sums`]). Row `kr` is the
    /// interpreter's row [`GemmStep::interpreter_row`]: an im2col that
    /// reads rows has its reduction ordered `(dy, dx, ch)`, and the
    /// weights are synthesised and packed in that order.
    pub(crate) panel: WeightPanel,
    pub(crate) m: usize,
    pub(crate) k: usize,
    pub(crate) n: usize,
    pub(crate) shift: u8,
    pub(crate) scatter: Scatter,
    /// The steps folded into this GEMM, composed: what each requantised
    /// byte becomes ([`InferencePlan::schedule`] derives it; the
    /// identity when nothing folded).
    pub(crate) map: ByteMap,
}

/// Below this output-channel count an im2col conv runs the direct
/// sliding-window kernel instead of staging + GEMM + scatter: the
/// staging matrix is `c·kh·kw / n` times larger than the output, and no
/// GEMM column strip can engage that narrow anyway. `gcd2-kernels`'
/// `tiled::tests::catalog_shapes` restates this rule to pin the
/// blocking of every catalog GEMM; change the two together.
const DIRECT_CONV_MAX_N: usize = 16;

impl GemmStep {
    /// A step over `(m, k, n)`, its weights still to come — a build
    /// synthesises them once the schedule's layouts are chosen
    /// ([`InferencePlan::install_weights`]), a load borrows them from
    /// the artifact image.
    pub(crate) fn new(
        prep: GemmPrep,
        (m, k, n): (usize, usize, usize),
        shift: u8,
        scatter: Scatter,
    ) -> GemmStep {
        GemmStep {
            prep,
            panel: WeightPanel::default(),
            m,
            k,
            n,
            shift,
            scatter,
            map: ByteMap::IDENTITY,
        }
    }

    /// The interpreter's reduction index `(ch, dy, dx)` of weight row
    /// `kr` when the step reads its operand in `in_layout`: an im2col
    /// from rows orders its columns `(dy, dx, ch)`, every other staging
    /// keeps the interpreter's order.
    pub(crate) fn interpreter_row(&self, in_layout: ActLayout, kr: usize) -> usize {
        match (&self.prep, in_layout) {
            (GemmPrep::Im2col(geom), ActLayout::Rows) => {
                (kr % geom.c) * geom.kernel.0 * geom.kernel.1 + kr / geom.c
            }
            _ => kr,
        }
    }

    /// The form its kernel reads the step's weights in: the quad panel
    /// every tier's GEMM reads for a matmul-backed step, row-major for a
    /// direct kernel — fixed by the step, never by the tier.
    pub(crate) fn panel_kind(&self) -> PanelKind {
        if self.runs_matmul() {
            PanelKind::Quads
        } else {
            PanelKind::Rows
        }
    }

    /// An empty panel of the step's shape in [`GemmStep::panel_kind`].
    fn empty_panel(&self) -> WeightPanel {
        match self.panel_kind() {
            PanelKind::Quads => WeightPanel::for_gemm(self.k, self.n),
            PanelKind::Rows => WeightPanel::row_major(self.k, self.n),
        }
    }

    /// Whether this step takes the direct-conv path
    /// ([`gcd2_kernels::conv2d_direct_chw_into`], bit-identical to the
    /// staged path). Consulted by the executor and the report, which
    /// must agree on which steps reach the GEMM band kernels. Requires
    /// the plain CHW scatter covering exactly the GEMM rows
    /// (ConvTranspose upsampling scatters have `m < spatial` and stay
    /// on the staged path).
    pub(crate) fn runs_direct_conv(&self) -> bool {
        matches!(self.prep, GemmPrep::Im2col(_))
            && self.n < DIRECT_CONV_MAX_N
            && matches!(self.scatter, Scatter::Chw { spatial } if spatial == self.m)
    }

    /// Whether this step reaches the GEMM dispatcher: depthwise and
    /// narrow-head convs run direct kernels instead, so they have no
    /// tile plan to report.
    pub(crate) fn runs_matmul(&self) -> bool {
        !matches!(self.prep, GemmPrep::Depthwise(_)) && !self.runs_direct_conv()
    }

    /// Whether the multiply's `m × n` result is every byte of the step's
    /// `out_len`-byte value: no position a scatter leaves zero (a
    /// ConvTranspose's, a batch dimension's tail), which an epilogue map
    /// would not reach.
    fn writes_every_byte(&self, out_len: usize) -> bool {
        self.m * self.n == out_len
            && !matches!(self.scatter, Scatter::Chw { spatial } if spatial != self.m)
    }
}

/// The computation a step performs (dims resolved at build time).
#[derive(Debug, Clone)]
pub(crate) enum StepKind {
    Input,
    Constant,
    Gemm(Box<GemmStep>),
    Add,
    Mul,
    Div,
    Pow,
    /// ReLU/Reshape/Transpose: value is unchanged (aliased in place when
    /// the input dies with this step).
    Passthrough,
    MonotoneLut,
    Softmax {
        group: usize,
    },
    LayerNorm {
        group: usize,
    },
    Pool {
        c: usize,
        h: usize,
        w: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        is_max: bool,
    },
    GlobalAvgPool {
        c: usize,
        hw: usize,
    },
    Upsample {
        c: usize,
        h: usize,
        w: usize,
        factor: usize,
    },
    Concat,
}

#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) node: NodeId,
    pub(crate) name: String,
    pub(crate) op: String,
    pub(crate) kind: StepKind,
    pub(crate) in_slots: Vec<usize>,
    pub(crate) out_slot: usize,
    pub(crate) out_len: usize,
    /// The step that produces each operand, in graph-input order: the
    /// dataflow the layout labels are chosen over, which `in_slots`
    /// only implies while the slot assignment is sound.
    pub(crate) inputs: Vec<usize>,
    /// `(channels, pixels)` when the step's value is one `c × h × w`
    /// image — the only kind of value that has a pixel-major form.
    /// Like `inputs` a fact of the graph ([`Step::graph_facts`]).
    pub(crate) image: Option<(usize, usize)>,
    /// The layout the step reads its operands in. An operand its
    /// producer left in the other one is converted on the way in, by
    /// one transpose into arena scratch (`InferencePlan::run_one`).
    pub(crate) in_layout: ActLayout,
    /// The layout the step leaves its value in. Both labels are
    /// [`layout::select`]'s, a function of the schedule.
    pub(crate) out_layout: ActLayout,
    /// Set when the step runs nothing of its own ([`Fold`]); derived by
    /// [`InferencePlan::schedule`] like the labels.
    pub(crate) fold: Option<Fold>,
}

/// How a step that runs nothing of its own is held (DESIGN.md §4d,
/// *Epilogue maps*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fold {
    /// A function of GEMM step `gemm`'s value alone, computed by that
    /// step's [`GemmStep::map`]: its value is the bytes the GEMM wrote,
    /// in the GEMM's slot.
    Epilogue { gemm: usize },
    /// A `Constant` that only folded steps read: it has no slot
    /// ([`NO_SLOT`]) and nothing fills one.
    Unread,
}

impl Step {
    /// [`Step::inputs`] and [`Step::image`] of the step that executes
    /// `node` into `out_len` bytes.
    fn graph_facts(node: &Node, out_len: usize) -> (Vec<usize>, Option<(usize, usize)>) {
        let shape = &node.shape;
        let image = (shape.rank() == 4 && shape.dim(0) == 1 && shape.elems() == out_len)
            .then(|| (shape.channels(), shape.spatial()));
        (node.inputs.iter().map(|i| i.0).collect(), image)
    }
}

/// A compiled execution schedule over a dense activation-slot arena.
/// Built once via [`CompiledModel::inference_plan`]; executed many times.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    pub(crate) steps: Vec<Step>,
    pub(crate) slot_sizes: Vec<usize>,
    pub(crate) input_len: usize,
    pub(crate) output_len: usize,
    pub(crate) output_slot: usize,
    pub(crate) seed: u64,
    pub(crate) weight_bytes: usize,
    pub(crate) gemm_macs: u64,
    /// [`Checksum64`] over the step schedule and
    /// [`InferencePlan::weights_digest`], computed once at build;
    /// [`InferencePlan::verify_integrity`] re-derives and compares it.
    pub(crate) checksum: u64,
    /// [`gcd2_artifact::checksum64`] of the weights image
    /// ([`WeightsLayout`]): of the panels as they lie, taken as a build
    /// packed them, or the container's WEIGHTS section checksum of the
    /// artifact a load borrowed them from — the same value, so a load
    /// hashes each weight byte once.
    pub(crate) weights_digest: u64,
    /// Where the build's weight work went: `synthesise`, `pack`, `hash`.
    /// Empty on a plan an artifact load reconstructed.
    pub(crate) build_stages: Vec<(&'static str, Duration)>,
}

/// Closes one stage of a `(name, wall clock)` ledger: everything since
/// `since` is `name`'s, and the next stage starts now.
pub(crate) fn lap(
    stages: &mut Vec<(&'static str, Duration)>,
    since: &mut Instant,
    name: &'static str,
) {
    let now = Instant::now();
    stages.push((name, now - *since));
    *since = now;
}

/// Reusable per-worker execution buffers: the activation slots plus the
/// GEMM staging/output/accumulator scratch. Steady-state execution
/// allocates nothing.
///
/// An arena is **stamped** with the checksum of the plan that first uses
/// it; executing it against a different plan is an
/// [`InferError::ArenaMismatch`] instead of silent misbehavior over
/// wrong-sized slots.
#[derive(Debug, Default)]
pub struct InferArena {
    /// Line-aligned, because a GEMM reads a slot that holds rows as its
    /// `a` operand, zero-copy.
    slots: Vec<LineBuf>,
    /// The current step's operands that their producers left in another
    /// layout than the step reads, converted — one buffer per operand.
    adapted: Vec<LineBuf>,
    stage: GemmStage,
    stamp: Option<u64>,
}

/// The buffers one GEMM dispatch streams through: the staged
/// activation matrix, im2col's padded copy of the input, the GEMM
/// output when it still has to be scattered into CHW planes, and the
/// kernels' accumulator scratch.
#[derive(Debug, Default)]
struct GemmStage {
    a: LineBuf,
    im2col: Im2colScratch,
    out: LineBuf,
    scratch: GemmScratch,
}

/// Per-execution options for the fallible entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Abandon the run at the next step boundary once this much wall
    /// clock has elapsed since the entry point was called, returning
    /// [`InferError::DeadlineExceeded`]. The gateway applies it to each
    /// request on its own.
    pub deadline: Option<Duration>,
}

/// Wall-clock timing of one timed plan execution, mirroring
/// [`crate::CompileReport`] for the runtime side.
#[derive(Debug, Clone, Default)]
pub struct InferReport {
    /// GEMM operand staging (im2col gather, transposes).
    pub prep: Duration,
    /// Cache-blocked GEMM + output scatter.
    pub gemm: Duration,
    /// All non-GEMM steps (elementwise, pooling, normalization, shape).
    pub elementwise: Duration,
    /// End-to-end wall clock.
    pub total: Duration,
    /// Per-operator wall clock, in schedule order (see
    /// [`OpTiming::folded_into`] for the steps that run nothing).
    pub per_op: Vec<OpTiming>,
    /// The kernel tier this run's GEMMs were dispatched on (`"scalar"`,
    /// `"avx2"`, `"avx512vnni"` or `"amx-int8"`; empty when
    /// the run had no GEMM step). One run resolves one tier;
    /// [`GemmKernelInfo::isa`] says whose multiply instructions ran
    /// each shape on it.
    pub kernel_isa: &'static str,
    /// Kernel choice and (auto)tuned tile sizes for every matmul-backed
    /// GEMM step, in schedule order. Depthwise steps and convs too
    /// narrow for the dispatcher never reach it and are in
    /// [`InferReport::direct_kernels`] instead.
    pub gemm_kernels: Vec<GemmKernelInfo>,
    /// The steps that run a direct kernel — depthwise convs, convs too
    /// narrow for the GEMM dispatcher, and pools — in schedule order.
    /// Every GEMM step is in exactly one of this and
    /// [`InferReport::gemm_kernels`].
    pub direct_kernels: Vec<DirectKernelInfo>,
}

/// How one depthwise, direct conv or pooling step was executed in a
/// timed run; its name, operator and wall clock are its entry in
/// [`InferReport::per_op`].
#[derive(Debug, Clone)]
pub struct DirectKernelInfo {
    /// The graph node this step executes.
    pub node: NodeId,
    /// Multiply-accumulates: `m·k` of a depthwise step, `m·k·n` of a
    /// conv too narrow for the GEMM dispatcher that runs as a direct
    /// kernel; 0 for a pool.
    pub macs: u64,
    /// The layouts the plan chose for the step's operand and result,
    /// which pick the kernel's form: `(Rows, Rows)` is the pixel-major
    /// one.
    pub layouts: (ActLayout, ActLayout),
}

/// How one GEMM step was executed in a timed run: its shape and the
/// blocking the dispatcher derived for it
/// ([`gcd2_kernels::tile_plan`], a pure function of the shape and the
/// tier).
#[derive(Debug, Clone)]
pub struct GemmKernelInfo {
    /// The graph node this GEMM executes.
    pub node: NodeId,
    /// The node's name.
    pub name: String,
    /// GEMM rows (output pixels / tokens).
    pub m: usize,
    /// Reduction depth.
    pub k: usize,
    /// GEMM columns (output channels).
    pub n: usize,
    /// The tier whose multiply instructions ran this shape — a pure
    /// function of the dispatching tier and `(m, k, n)`: the run's tier,
    /// except that fewer than 16 rows run on the VNNI strips of the AMX
    /// tier and fewer than 8 columns on the oracle of the AVX2 tier.
    pub isa: KernelIsa,
    /// Row-block tile the kernel ran with.
    pub mb: usize,
    /// Reduction-block tile the kernel ran with.
    pub kb: usize,
    /// When the AMX tile grid ran this shape, the depth of one tile
    /// step: 64, or a reduction shorter than one tile rounded up to a
    /// whole quad, which the tiles run at instead of multiplying 64-deep
    /// zero padding.
    pub tile_depth: Option<usize>,
    /// True when the rule chose a blocking other than
    /// [`TilePlan::DEFAULT`] for this shape on this tier (the name is
    /// the benchmark's `kernels.tuned_gemms`; nothing is timed).
    pub tuned: bool,
    /// The layouts the plan chose for this step's operand and result:
    /// `(Rows, Rows)` stages nothing (a pointwise conv) or by plain
    /// copies, and multiplies straight into the output slot.
    pub layouts: (ActLayout, ActLayout),
    /// Wall clock of the step's staging: layout conversion of its
    /// operand, the im2col gather or transpose, a view's padded map —
    /// the step's share of [`InferReport::prep`].
    pub stage: Duration,
    /// What the multiply read as its `m × k` activations.
    pub operand: OperandForm,
}

/// The form a GEMM step's activations reached the multiply in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandForm {
    /// A row-major matrix the step did not gather: its operand as it
    /// lies, or transposed out of CHW planes.
    Matrix,
    /// A stride-1 conv's im2col view, read in place from the padded map
    /// by the AMX tile grid ([`gcd2_kernels::GemmA::View`]).
    View,
    /// An im2col matrix gathered in full: staged before the dispatch, or
    /// a view the tier materialised.
    Im2col,
}

impl OperandForm {
    /// Stable lowercase name, as `gcd2c --infer` prints it.
    pub fn name(self) -> &'static str {
        match self {
            OperandForm::Matrix => "matrix",
            OperandForm::View => "view",
            OperandForm::Im2col => "im2col",
        }
    }
}

/// One operator's share of a timed execution.
#[derive(Debug, Clone)]
pub struct OpTiming {
    /// The graph node this step executes.
    pub node: NodeId,
    /// The node's name.
    pub name: String,
    /// The operator description.
    pub op: String,
    /// Wall-clock time of the step.
    pub duration: Duration,
    /// For a non-GEMM step — one whose time counts toward
    /// [`InferReport::elementwise`] — the bytes it wrote (its output
    /// length), so a byte kernel's speed reads as a rate; `None` for a
    /// GEMM step, whose work is its MACs.
    pub elementwise_bytes: Option<usize>,
    /// For a step folded into a GEMM's requantisation, that GEMM's node:
    /// the step ran as its epilogue map, so it has no time of its own
    /// (`duration` is zero). A constant only folded steps read runs
    /// nothing and has no entry.
    pub folded_into: Option<NodeId>,
}

/// Rejects GEMMs whose worst-case accumulator over the quantization
/// ranges `act ∈ [0, act_max]`, `wgt ∈ [wgt_min, wgt_max]` escapes the
/// i32 kernel accumulator in *either* direction. The positive bound is
/// `k · act_max · max(wgt_max, 0)` against `i32::MAX`; the negative
/// bound `k · act_max · min(wgt_min, 0)` against `i32::MIN` — the two
/// are not symmetric for asymmetric weight ranges, so checking only the
/// max side (as this function historically did) misses pure-underflow
/// configurations.
fn check_acc_bounds(
    node: NodeId,
    k: usize,
    act_max: u8,
    wgt_min: i8,
    wgt_max: i8,
) -> Result<(), InferError> {
    let act = act_max as i64;
    let max_acc = k as i64 * act * wgt_max.max(0) as i64;
    if max_acc > i32::MAX as i64 {
        return Err(InferError::QuantOverflow {
            node: node.0,
            k,
            max_acc,
        });
    }
    let min_acc = k as i64 * act * wgt_min.min(0) as i64;
    if min_acc < i32::MIN as i64 {
        return Err(InferError::QuantOverflow {
            node: node.0,
            k,
            max_acc: min_acc,
        });
    }
    Ok(())
}

/// Rejects GEMMs whose worst-case accumulator magnitude over the
/// production quantization ranges (`[0, ACT_MAX]` activations,
/// `[-WGT_MAX, WGT_MAX]` weights) escapes `i32` (the kernel accumulator
/// width); otherwise returns the folded requantization shift for depth
/// `k`.
fn check_quant_range(node: NodeId, k: usize) -> Result<u8, InferError> {
    check_acc_bounds(node, k, ACT_MAX, -WGT_MAX, WGT_MAX)?;
    Ok(gemm_shift(k))
}

/// Folds one step's computation — variant tag, resolved dimensions, and
/// for GEMMs the weight bytes — into the plan checksum.
fn hash_step_kind(h: &mut Checksum64, kind: &StepKind) {
    match kind {
        StepKind::Input => h.u64(0),
        StepKind::Constant => h.u64(1),
        StepKind::Gemm(g) => {
            h.u64(2);
            h.u64(g.m as u64);
            h.u64(g.k as u64);
            h.u64(g.n as u64);
            h.u64(g.shift as u64);
            match &g.prep {
                GemmPrep::Direct => h.u64(0),
                GemmPrep::Im2col(geom) | GemmPrep::Depthwise(geom) => {
                    h.u64(if matches!(g.prep, GemmPrep::Im2col(_)) {
                        1
                    } else {
                        2
                    });
                    for dim in geom.dims() {
                        h.u64(dim as u64);
                    }
                }
                GemmPrep::Transposed { c, m } => {
                    h.u64(3);
                    h.u64(*c as u64);
                    h.u64(*m as u64);
                }
            }
            match g.scatter {
                Scatter::Chw { spatial } => {
                    h.u64(0);
                    h.u64(spatial as u64);
                }
                Scatter::DwRows => h.u64(1),
                Scatter::RowMajor => h.u64(2),
            }
            // The weights are the image digest the plan folds in last.
            // A plan without folds hashes as before epilogue maps were.
            if !g.map.is_identity() {
                h.u64(15);
                h.bytes(&g.map.entries());
            }
        }
        StepKind::Add => h.u64(3),
        StepKind::Mul => h.u64(4),
        StepKind::Div => h.u64(5),
        StepKind::Pow => h.u64(6),
        StepKind::Passthrough => h.u64(7),
        StepKind::MonotoneLut => h.u64(8),
        StepKind::Softmax { group } => {
            h.u64(9);
            h.u64(*group as u64);
        }
        StepKind::LayerNorm { group } => {
            h.u64(10);
            h.u64(*group as u64);
        }
        StepKind::Pool {
            c,
            h: ph,
            w,
            kernel,
            stride,
            is_max,
        } => {
            h.u64(11);
            h.u64(*c as u64);
            h.u64(*ph as u64);
            h.u64(*w as u64);
            h.u64(kernel.0 as u64);
            h.u64(kernel.1 as u64);
            h.u64(stride.0 as u64);
            h.u64(stride.1 as u64);
            h.u64(*is_max as u64);
        }
        StepKind::GlobalAvgPool { c, hw } => {
            h.u64(12);
            h.u64(*c as u64);
            h.u64(*hw as u64);
        }
        StepKind::Upsample {
            c,
            h: uh,
            w,
            factor,
        } => {
            h.u64(13);
            h.u64(*c as u64);
            h.u64(*uh as u64);
            h.u64(*w as u64);
            h.u64(*factor as u64);
        }
        StepKind::Concat => h.u64(14),
    }
}

/// Folds into each matmul-backed GEMM every step that is a function of
/// that GEMM's value alone, composing its [`GemmStep::map`]
/// ([`epilogue_of`] has the rule), then marks [`Fold::Unread`] each
/// constant whose readers have all folded. `readers` counts the reads
/// of each value, the model output's one more. A legality rule, not a
/// cost decision: whatever folds runs as one table lookup per byte the
/// GEMM writes anyway (DESIGN.md §4d, *Epilogue maps*).
fn fold_epilogues(steps: &mut [Step], readers: &[usize]) {
    for index in 0..steps.len() {
        let Some((gemm, map)) = epilogue_of(steps, readers, index) else {
            continue;
        };
        steps[index].fold = Some(Fold::Epilogue { gemm });
        if let StepKind::Gemm(g) = &mut steps[gemm].kind {
            g.map = map;
        }
    }
    let mut read = vec![false; steps.len()];
    for step in steps.iter().filter(|s| s.fold.is_none()) {
        for &p in &step.inputs {
            read[p] = true;
        }
    }
    for (index, step) in steps.iter_mut().enumerate() {
        if matches!(step.kind, StepKind::Constant) && readers[index] > 0 && !read[index] {
            step.fold = Some(Fold::Unread);
        }
    }
}

/// The GEMM step `steps[index]` folds into, and that GEMM's map with the
/// step composed onto it, when the step is a function of the GEMM's
/// value alone:
/// - it is an `Add`, `Mul`, `Div`, `Pow` or `MonotoneLut` (Gelu,
///   Sigmoid, HardSwish) whose operands are one value — a matmul-backed
///   GEMM's, or one already folded into such a GEMM — and `Constant`s,
///   which are zeros, all as long as the step's value;
/// - that value has no other reader;
/// - it is not converted on the way in, and keeps its label — a
///   constant's zeros are zeros in either layout;
/// - the GEMM writes every byte of its value, so no zero a scatter
///   leaves escapes the map.
///
/// The map is the step's own `hostops` kernel run over the 16 bytes the
/// GEMM's map gives so far — the arithmetic the step would run, so the
/// fold is exact by construction.
fn epilogue_of(steps: &[Step], readers: &[usize], index: usize) -> Option<(usize, ByteMap)> {
    let step = &steps[index];
    let constant = |p: usize| matches!(steps[p].kind, StepKind::Constant);
    let from = *step.inputs.iter().find(|&&p| !constant(p))?;
    let gemm = match (&steps[from].kind, steps[from].fold) {
        (StepKind::Gemm(g), None) if g.runs_matmul() => from,
        (_, Some(Fold::Epilogue { gemm })) => gemm,
        _ => return None,
    };
    let StepKind::Gemm(g) = &steps[gemm].kind else {
        return None;
    };
    let reads = step.inputs.iter().filter(|&&p| p == from).count();
    let operands = step
        .inputs
        .iter()
        .all(|&p| (p == from || constant(p)) && steps[p].out_len == step.out_len);
    // Zeros are zeros in either layout; the mapped value is not.
    let mapped = &steps[from];
    let unconverted = layout::two_forms(mapped).is_none()
        || (mapped.out_layout == step.in_layout && mapped.out_layout == step.out_layout);
    if readers[from] != reads
        || !operands
        || !unconverted
        || !g.writes_every_byte(steps[gemm].out_len)
    {
        return None;
    }
    let lanes = g.map.entries();
    let zeros = [0u8; 16];
    let arg = |p: usize| if p == from { &lanes[..] } else { &zeros[..] };
    let mut out = [0u8; 16];
    match (&step.kind, step.inputs.as_slice()) {
        (StepKind::Add, &[a, b]) => hostops::add_avg_into(arg(a), arg(b), &mut out),
        (StepKind::Mul, &[a, b]) => hostops::mul_shift4_into(arg(a), arg(b), ACT_MAX, &mut out),
        (StepKind::Div, &[a, b]) => hostops::div_lut_into(arg(a), arg(b), &mut out),
        (StepKind::Pow, &[a]) => hostops::pow_sq_into(arg(a), ACT_MAX, &mut out),
        (StepKind::MonotoneLut, &[a]) => hostops::monotone_lut_into(arg(a), &mut out),
        _ => return None,
    }
    Some((gemm, ByteMap::new(out)?))
}

/// Gives every step its operand slots and its result slot, its folds
/// decided: a liveness scan over `uses` (the reads of each value, the
/// model output's one more) that reuses dead slots and runs a
/// pass-through step in place when its input dies with it. A folded
/// step's value is the bytes its GEMM wrote, so it takes the slot of the
/// value it maps; an unread constant takes none ([`NO_SLOT`]). Returns
/// the slots' sizes.
fn assign_slots(steps: &mut [Step], mut uses: Vec<usize>) -> Vec<usize> {
    let mut slot_sizes: Vec<usize> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    for index in 0..steps.len() {
        let step = &steps[index];
        let in_slots: Vec<usize> = step.inputs.iter().map(|&p| steps[p].out_slot).collect();
        let out_slot = match step.fold {
            Some(Fold::Unread) => NO_SLOT,
            Some(Fold::Epilogue { .. }) => in_slots[mapped_operand(steps, step)],
            None if matches!(step.kind, StepKind::Passthrough)
                && step.inputs.first().is_some_and(|&p| uses[p] == 1) =>
            {
                in_slots[0]
            }
            None => free.pop().unwrap_or_else(|| {
                slot_sizes.push(0);
                slot_sizes.len() - 1
            }),
        };
        if out_slot != NO_SLOT {
            slot_sizes[out_slot] = slot_sizes[out_slot].max(step.out_len);
        }
        for &p in &step.inputs {
            uses[p] -= 1;
            let slot = steps[p].out_slot;
            if uses[p] == 0 && slot != out_slot && slot != NO_SLOT {
                free.push(slot);
            }
        }
        steps[index].in_slots = in_slots;
        steps[index].out_slot = out_slot;
    }
    slot_sizes
}

/// Which operand of the folded `step` is the value it maps: the one that
/// is not a constant.
fn mapped_operand(steps: &[Step], step: &Step) -> usize {
    step.inputs
        .iter()
        .position(|&p| !matches!(steps[p].kind, StepKind::Constant))
        .unwrap_or(0)
}

/// The weights image: every GEMM step's panel exactly as its kernel
/// reads it ([`WeightPanel::as_bytes`]), in schedule order, each at a
/// multiple of [`PANEL_ALIGN`] bytes, behind a header
///
/// ```text
/// count u64 LE
/// count × { kind u64 (0 row-major, 1 quads), k u64, n u64, at u64 }
/// ```
///
/// zero-padded to the first panel; every gap up to the next panel, and
/// the tail after the last one up to a multiple of [`PANEL_ALIGN`], is
/// zeros. An artifact's WEIGHTS section is this image, and the plan
/// checksum folds in its [`gcd2_artifact::checksum64`]: a build digests
/// its panels as they lie without building the image, a load reads the
/// digest off the container, which took it while verifying the section.
/// Every field is a function of the schedule, so a loader derives the
/// layout and holds the stored header to it.
#[derive(Debug)]
pub(crate) struct WeightsLayout {
    /// The encoded header, without its padding.
    pub(crate) header: Vec<u8>,
    /// Each GEMM step's panel and where it starts in the image.
    pub(crate) panels: Vec<PanelEntry>,
    /// Bytes of the image.
    pub(crate) len: usize,
}

/// One panel of a [`WeightsLayout`].
#[derive(Debug)]
pub(crate) struct PanelEntry {
    pub(crate) kind: PanelKind,
    pub(crate) k: usize,
    pub(crate) n: usize,
    /// Byte offset in the image: a multiple of [`PANEL_ALIGN`].
    pub(crate) at: usize,
}

/// Where every panel of a weights image starts: a cache line, so a
/// panel borrowed from an image that starts on one is as aligned as an
/// owned one.
pub(crate) const PANEL_ALIGN: usize = 64;

/// The header code of a panel's form.
pub(crate) fn kind_code(kind: PanelKind) -> u64 {
    match kind {
        PanelKind::Rows => 0,
        PanelKind::Quads => 1,
    }
}

impl WeightsLayout {
    /// The layout of panels of these forms and shapes, in order.
    pub(crate) fn of(shapes: impl ExactSizeIterator<Item = (PanelKind, usize, usize)>) -> Self {
        let mut header = Vec::with_capacity(8 + 32 * shapes.len());
        header.extend_from_slice(&(shapes.len() as u64).to_le_bytes());
        let mut at = (8 + 32 * shapes.len()).next_multiple_of(PANEL_ALIGN);
        let mut panels = Vec::with_capacity(shapes.len());
        for (kind, k, n) in shapes {
            for v in [kind_code(kind), k as u64, n as u64, at as u64] {
                header.extend_from_slice(&v.to_le_bytes());
            }
            panels.push(PanelEntry { kind, k, n, at });
            at += kind.bytes(k, n).next_multiple_of(PANEL_ALIGN);
        }
        WeightsLayout {
            header,
            panels,
            len: at,
        }
    }
}

/// A [`WeightsLayout`]'s image digest taken a panel at a time: the
/// header and each panel with its zero padding absorbed as one
/// [`RunDigest`] run, in whole-line chunks, so the image is never built.
struct ImageDigest(RunDigest);

impl ImageDigest {
    /// The digest of `layout`'s header, awaiting its panels.
    fn new(layout: &WeightsLayout) -> ImageDigest {
        let mut digest = ImageDigest(RunDigest::new());
        digest.panel(&layout.header);
        digest
    }

    /// Absorbs the next panel's bytes and their padding.
    fn panel(&mut self, bytes: &[u8]) {
        let whole = bytes.len() / PANEL_ALIGN * PANEL_ALIGN;
        self.0.bytes(&bytes[..whole]);
        if whole < bytes.len() {
            let mut line = [0u8; PANEL_ALIGN];
            line[..bytes.len() - whole].copy_from_slice(&bytes[whole..]);
            self.0.bytes(&line);
        }
    }

    /// [`gcd2_artifact::checksum64`] of the image absorbed.
    fn finish(&self) -> u64 {
        let mut h = Checksum64::new();
        h.u64(self.0.finish());
        h.finish()
    }
}

/// Where [`InferencePlan::install_weights`] spent its time.
#[derive(Debug, Default)]
struct InstallLedger {
    /// Synthesising the weights, a k-tile at a time.
    source: Duration,
    /// Folding each complete panel into the weights image digest.
    digest: Duration,
    /// Packing tiles into the panels, their allocation included.
    pack: Duration,
}

impl InferencePlan {
    /// Compiles the execution plan: schedule, slots, weights, shifts.
    /// Weights are derived from `seed` exactly as the interpreter derives
    /// them, so outputs match [`crate::runtime::execute_reference`] for
    /// the same seed.
    ///
    /// # Panics
    /// Panics if the graph is empty or a GEMM's quantization range
    /// overflows `i32` (see [`InferencePlan::try_build`]).
    pub fn build(compiled: &CompiledModel, seed: u64) -> InferencePlan {
        match InferencePlan::try_build(compiled, seed) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`InferencePlan::build`] with validated construction: an empty
    /// graph or an overflow-prone GEMM comes back as an [`InferError`].
    ///
    /// # Errors
    /// Returns [`InferError::QuantOverflow`] if any GEMM's worst-case
    /// accumulator exceeds `i32`, or [`InferError::Internal`] for an
    /// empty graph.
    pub fn try_build(compiled: &CompiledModel, seed: u64) -> Result<InferencePlan, InferError> {
        InferencePlan::build_with(compiled, seed, layout::select)
    }

    /// [`InferencePlan::try_build`] with every layout label pinned to
    /// `Chw` — the plan of a runtime that selects nothing, which is also
    /// what the selection falls back to when it finds nothing to save.
    /// The differential suites execute it as the reference the selected
    /// plan must match byte for byte. Its labels are not the
    /// selection's, so [`InferencePlan::verify_integrity`] refuses it
    /// wherever the selection would have chosen otherwise.
    ///
    /// # Errors
    /// See [`InferencePlan::try_build`].
    #[doc(hidden)]
    pub fn try_build_all_chw(
        compiled: &CompiledModel,
        seed: u64,
    ) -> Result<InferencePlan, InferError> {
        InferencePlan::build_with(compiled, seed, |steps| {
            vec![(ActLayout::Chw, ActLayout::Chw); steps.len()]
        })
    }

    /// [`InferencePlan::try_build`] with the labels given, one
    /// `(in, out)` pair per step, each from that step's
    /// [`InferencePlan::layout_options`]: how the exhaustive suite
    /// executes every assignment the selection chose among.
    ///
    /// # Errors
    /// See [`InferencePlan::try_build`]; [`InferError::Internal`] when a
    /// label is not one its step admits.
    #[doc(hidden)]
    pub fn try_build_labelled(
        compiled: &CompiledModel,
        seed: u64,
        labels: &[(ActLayout, ActLayout)],
    ) -> Result<InferencePlan, InferError> {
        let plan = InferencePlan::build_with(compiled, seed, |_| labels.to_vec())?;
        let options = plan.layout_options();
        let admitted = labels.len() == options.len()
            && labels.iter().zip(&options).all(|(l, o)| o.contains(l));
        if !admitted {
            return Err(InferError::Internal {
                message: "a layout label its step does not admit".to_string(),
            });
        }
        Ok(plan)
    }

    /// The `(in, out)` layout pairs each step admits — the options the
    /// selection chose among.
    #[doc(hidden)]
    pub fn layout_options(&self) -> Vec<Vec<(ActLayout, ActLayout)>> {
        (0..self.steps.len())
            .map(|index| layout::admits(&self.steps, index))
            .collect()
    }

    /// The build under all three: the schedule `select` labels, then
    /// the interpreter's weights — derived from `seed` as it derives
    /// them, in the row order each step's staging produces — then the
    /// checksum over both. Row `kr` of a step's `k × n` matrix is the
    /// run of `n` indices from `interpreter_row(kr) · n`, which
    /// [`gcd2_kernels::weight_row_into`] writes in place: the bytes
    /// `runtime::weight` gives, one run at a time.
    fn build_with(
        compiled: &CompiledModel,
        seed: u64,
        select: impl FnOnce(&[Step]) -> Vec<(ActLayout, ActLayout)>,
    ) -> Result<InferencePlan, InferError> {
        let mut plan = InferencePlan::schedule(&compiled.graph, seed, select)?;
        let ledger = plan.install_weights();
        let hashed = Instant::now();
        plan.checksum = plan.integrity_checksum();
        plan.build_stages = vec![
            ("synthesise", ledger.source),
            ("pack", ledger.pack),
            ("hash", ledger.digest + hashed.elapsed()),
        ];

        // Debug builds run the static plan analyzer (gcd2-analyze) over
        // every freshly built plan, so an allocator or shift-folding
        // defect surfaces here as a structured error instead of as wrong
        // numerics at execution time. Release builds skip the pass; the
        // CLI's `--analyze` mode and the test suites cover them.
        #[cfg(debug_assertions)]
        {
            let analysis = gcd2_analyze::analyze_plan(&compiled.graph, &plan);
            if analysis.verdict() == gcd2_analyze::Verdict::Unsound {
                return Err(InferError::Unsound {
                    detail: analysis.to_string(),
                });
            }
        }

        Ok(plan)
    }

    /// The schedule of `graph`: one step per node, the slot arena, each
    /// GEMM's folded shift and the layout labels `select` gives the whole
    /// — everything of a plan but its weights, and a function of the
    /// arguments alone. A build and an artifact load both start here and
    /// differ only in where [`InferencePlan::install_weights`] gets the
    /// bytes, so a file never says what a kernel reads.
    ///
    /// # Errors
    /// [`InferError::QuantOverflow`] if a GEMM's worst-case accumulator
    /// exceeds `i32`, [`InferError::Internal`] for an empty graph.
    pub(crate) fn schedule(
        graph: &Graph,
        seed: u64,
        select: impl FnOnce(&[Step]) -> Vec<(ActLayout, ActLayout)>,
    ) -> Result<InferencePlan, InferError> {
        let nodes = graph.nodes();
        if nodes.is_empty() {
            return Err(InferError::Internal {
                message: "cannot plan an empty graph".to_string(),
            });
        }
        // How many reads each value has; the model output one more, so
        // it is never freed.
        let mut readers = vec![0usize; nodes.len()];
        for node in nodes {
            for &i in &node.inputs {
                readers[i.0] += 1;
            }
        }
        readers[nodes.len() - 1] += 1;

        let mut steps: Vec<Step> = Vec::with_capacity(nodes.len());
        let mut input_len = 0usize;
        let mut weight_bytes = 0usize;
        let mut gemm_macs = 0u64;

        for node in nodes {
            debug_assert_eq!(steps.len(), node.id.0, "graph ids must be dense");
            let in_len = |i: usize| steps[node.inputs[i].0].out_len;
            let in_shape = || &graph.node(node.inputs[0]).shape;
            let (kind, out_len) = match &node.kind {
                OpKind::Input => {
                    input_len = node.shape.elems();
                    (StepKind::Input, node.shape.elems())
                }
                OpKind::Constant => (StepKind::Constant, node.shape.elems()),
                OpKind::Conv2d {
                    out_channels,
                    kernel,
                    stride,
                    padding,
                } => {
                    let geom = ConvGeom::over(in_shape(), *kernel, *stride, *padding);
                    let (m, c) = (geom.out_pixels(), geom.c);
                    let (k, n) = (c * kernel.0 * kernel.1, *out_channels);
                    weight_bytes += k * n;
                    gemm_macs += (m * k * n) as u64;
                    // A pointwise convolution's im2col is exactly the
                    // CHW → spatial-major transpose; stage it directly.
                    let prep = if *kernel == (1, 1) && *stride == (1, 1) && *padding == (0, 0) {
                        GemmPrep::Transposed { c, m }
                    } else {
                        GemmPrep::Im2col(geom)
                    };
                    let g = GemmStep::new(
                        prep,
                        (m, k, n),
                        check_quant_range(node.id, k)?,
                        Scatter::Chw {
                            spatial: node.shape.spatial(),
                        },
                    );
                    (StepKind::Gemm(Box::new(g)), node.shape.elems())
                }
                OpKind::DepthwiseConv2d {
                    kernel,
                    stride,
                    padding,
                } => {
                    let geom = ConvGeom::over(in_shape(), *kernel, *stride, *padding);
                    let (m, k) = (geom.c * geom.out_pixels(), kernel.0 * kernel.1);
                    // One shared filter column per node, as in the
                    // interpreter's lowering.
                    weight_bytes += k;
                    gemm_macs += (m * k) as u64;
                    let g = GemmStep::new(
                        GemmPrep::Depthwise(geom),
                        (m, k, 1),
                        check_quant_range(node.id, k)?,
                        Scatter::DwRows,
                    );
                    (StepKind::Gemm(Box::new(g)), node.shape.elems().min(m))
                }
                OpKind::MatMul { n } | OpKind::BatchMatMul { n } => {
                    let s = in_shape();
                    // Shape inference admits matmul inputs of rank >= 1
                    // only, so a last dim always exists.
                    let k = s.0.last().copied().unwrap_or(1);
                    let m = s.elems() / k;
                    weight_bytes += k * n;
                    gemm_macs += (m * k * n) as u64;
                    let g = GemmStep::new(
                        GemmPrep::Direct,
                        (m, k, *n),
                        check_quant_range(node.id, k)?,
                        Scatter::RowMajor,
                    );
                    (StepKind::Gemm(Box::new(g)), m * n)
                }
                OpKind::ConvTranspose2d { out_channels, .. } => {
                    let s = in_shape();
                    let (c, m) = (s.channels(), s.spatial());
                    let n = *out_channels;
                    weight_bytes += c * n;
                    gemm_macs += (m * c * n) as u64;
                    let g = GemmStep::new(
                        GemmPrep::Transposed { c, m },
                        (m, c, n),
                        check_quant_range(node.id, c)?,
                        Scatter::Chw {
                            spatial: node.shape.spatial(),
                        },
                    );
                    (StepKind::Gemm(Box::new(g)), node.shape.elems())
                }
                OpKind::Add => (StepKind::Add, in_len(0)),
                OpKind::Mul => (StepKind::Mul, in_len(0)),
                OpKind::Div => (StepKind::Div, in_len(0)),
                OpKind::Pow => (StepKind::Pow, in_len(0)),
                OpKind::Act(Activation::Relu)
                | OpKind::Act(Activation::Relu6)
                | OpKind::Reshape { .. }
                | OpKind::Transpose => (StepKind::Passthrough, in_len(0)),
                OpKind::Act(Activation::HardSwish) | OpKind::Sigmoid | OpKind::Gelu => {
                    (StepKind::MonotoneLut, in_len(0))
                }
                OpKind::Softmax => (
                    StepKind::Softmax {
                        group: node.shape.0.last().copied().unwrap_or(1),
                    },
                    in_len(0),
                ),
                OpKind::LayerNorm => (
                    StepKind::LayerNorm {
                        group: node.shape.0.last().copied().unwrap_or(1),
                    },
                    in_len(0),
                ),
                OpKind::MaxPool { kernel, stride } | OpKind::AvgPool { kernel, stride } => {
                    let s = in_shape();
                    let (c, h, w) = (s.channels(), s.dim(2), s.dim(3));
                    let out_h = (h - kernel.0) / stride.0 + 1;
                    let out_w = (w - kernel.1) / stride.1 + 1;
                    (
                        StepKind::Pool {
                            c,
                            h,
                            w,
                            kernel: *kernel,
                            stride: *stride,
                            is_max: matches!(node.kind, OpKind::MaxPool { .. }),
                        },
                        c * out_h * out_w,
                    )
                }
                OpKind::GlobalAvgPool => {
                    let s = in_shape();
                    (
                        StepKind::GlobalAvgPool {
                            c: s.channels(),
                            hw: s.spatial(),
                        },
                        s.channels(),
                    )
                }
                OpKind::Upsample { factor } => {
                    let s = in_shape();
                    let (c, h, w) = (s.channels(), s.dim(2), s.dim(3));
                    (
                        StepKind::Upsample {
                            c,
                            h,
                            w,
                            factor: *factor,
                        },
                        c * h * factor * w * factor,
                    )
                }
                OpKind::Concat => (StepKind::Concat, in_len(0) + in_len(1)),
            };

            let (inputs, image) = Step::graph_facts(node, out_len);
            steps.push(Step {
                node: node.id,
                name: node.name.clone(),
                op: node.kind.to_string(),
                kind,
                in_slots: Vec::new(),
                out_slot: NO_SLOT,
                out_len,
                inputs,
                image,
                in_layout: ActLayout::Chw,
                out_layout: ActLayout::Chw,
                fold: None,
            });
        }

        // The layouts, for the whole schedule at once; then what folds
        // into a GEMM's requantisation, which needs them; then the slots,
        // which need both.
        let labels = select(&steps);
        for (step, (in_layout, out_layout)) in steps.iter_mut().zip(labels) {
            (step.in_layout, step.out_layout) = (in_layout, out_layout);
        }
        fold_epilogues(&mut steps, &readers);
        let slot_sizes = assign_slots(&mut steps, readers);

        // One step per node and the graph is non-empty.
        let (output_len, output_slot) = steps.last().map_or((0, 0), |s| (s.out_len, s.out_slot));
        Ok(InferencePlan {
            steps,
            slot_sizes,
            input_len,
            output_len,
            output_slot,
            seed,
            weight_bytes,
            gemm_macs,
            checksum: 0, // over the weights too: stamped once they are in
            weights_digest: 0,
            build_stages: Vec::new(),
        })
    }

    /// Gives every GEMM step, in schedule order, its `k × n` matrix as
    /// the interpreter derives it from the plan's seed — its rows in the
    /// order the step's in-label stages them
    /// ([`GemmStep::interpreter_row`]; row `kr` is the run of `n` indices
    /// from `interpreter_row(kr) · n`, which
    /// [`gcd2_kernels::weight_row_into`] writes in place) — synthesised
    /// one [`KTILE_ROWS`]-row k-tile at a time into one reused buffer and
    /// packed into the step's panel while it is hot, with no full-size
    /// intermediate. Each panel is folded into the weights image digest
    /// as soon as it is complete, while it is still in cache.
    fn install_weights(&mut self) -> InstallLedger {
        let mut ledger = InstallLedger::default();
        let mut digest = ImageDigest::new(&self.weights_layout());
        let mut buf: Vec<i8> = Vec::new();
        for step in &mut self.steps {
            let StepKind::Gemm(g) = &mut step.kind else {
                continue;
            };
            let t0 = Instant::now();
            let mut panel = g.empty_panel();
            ledger.pack += t0.elapsed();
            let n = g.n;
            for kr0 in (0..g.k).step_by(KTILE_ROWS) {
                let rows = kr0..(kr0 + KTILE_ROWS).min(g.k);
                let len = rows.len() * n;
                if buf.len() < len {
                    buf.resize(len, 0);
                }
                let t0 = Instant::now();
                for (kr, run) in rows.zip(buf[..len].chunks_exact_mut(n.max(1))) {
                    let start = g.interpreter_row(step.in_layout, kr) * n;
                    weight_row_into(self.seed, step.node.0 as u64, start as u64, run);
                }
                let t1 = Instant::now();
                panel.push_ktile(&buf[..len]);
                ledger.source += t1 - t0;
                ledger.pack += t1.elapsed();
            }
            let t0 = Instant::now();
            digest.panel(panel.as_bytes());
            ledger.digest += t0.elapsed();
            g.panel = panel;
        }
        self.weights_digest = digest.finish();
        ledger
    }

    /// The [`WeightsLayout`] of the plan's GEMM steps: a function of the
    /// schedule alone.
    pub(crate) fn weights_layout(&self) -> WeightsLayout {
        let gemms: Vec<&GemmStep> = self.gemm_steps().collect();
        WeightsLayout::of(gemms.iter().map(|g| (g.panel_kind(), g.k, g.n)))
    }

    /// The GEMM steps, in schedule order.
    pub(crate) fn gemm_steps(&self) -> impl Iterator<Item = &GemmStep> {
        self.steps.iter().filter_map(|s| match &s.kind {
            StepKind::Gemm(g) => Some(g.as_ref()),
            _ => None,
        })
    }

    /// The weights image digest of the panels as they lie now.
    fn panels_digest(&self) -> u64 {
        let mut digest = ImageDigest::new(&self.weights_layout());
        for g in self.gemm_steps() {
            digest.panel(g.panel.as_bytes());
        }
        digest.finish()
    }

    /// Re-derives the checksum over the step schedule (ids, slots, op
    /// strings, per-kind parameters) and the weights image digest the
    /// plan holds. Equal to [`InferencePlan::checksum`] unless the plan
    /// has been corrupted since build.
    pub(crate) fn integrity_checksum(&self) -> u64 {
        self.integrity_checksum_over(self.weights_digest)
    }

    /// [`InferencePlan::integrity_checksum`] with `weights_digest` for
    /// the weights.
    fn integrity_checksum_over(&self, weights_digest: u64) -> u64 {
        let mut h = Checksum64::new();
        h.u64(self.seed);
        h.u64(self.input_len as u64);
        h.u64(self.output_len as u64);
        h.u64(self.output_slot as u64);
        h.u64(self.slot_sizes.len() as u64);
        for &s in &self.slot_sizes {
            h.u64(s as u64);
        }
        for step in &self.steps {
            h.u64(step.node.0 as u64);
            h.bytes(step.op.as_bytes());
            h.u64(step.in_slots.len() as u64);
            for &s in &step.in_slots {
                h.u64(s as u64);
            }
            h.u64(step.out_slot as u64);
            h.u64(step.out_len as u64);
            for &p in &step.inputs {
                h.u64(p as u64);
            }
            let (c, hw) = step.image.unwrap_or((0, 0));
            h.u64(c as u64);
            h.u64(hw as u64);
            h.u64(step.in_layout as u64);
            h.u64(step.out_layout as u64);
            hash_step_kind(&mut h, &step.kind);
            match step.fold {
                None => {}
                Some(Fold::Epilogue { gemm }) => {
                    h.u64(16);
                    h.u64(gemm as u64);
                }
                Some(Fold::Unread) => h.u64(17),
            }
        }
        h.u64(weights_digest);
        h.finish()
    }

    /// The integrity checksum computed when the plan was built; arenas
    /// are stamped with it at checkout.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Where the build's weight work went, in order: `synthesise` (the
    /// seeded weights), `pack` (their resident panels), `hash` (the
    /// integrity checksum). Empty on a plan loaded from an
    /// artifact, whose ledger is [`crate::LoadedArtifact::stages`].
    pub fn build_stages(&self) -> &[(&'static str, Duration)] {
        &self.build_stages
    }

    /// Re-hashes the plan's schedule and weights digest and compares
    /// against the build-time checksum, then re-derives what the
    /// checksum can only vouch for as held in memory: the layout labels,
    /// which must be the ones `layout::select` gives this schedule (a
    /// corrupted and re-stamped plan cannot choose its own), every quad
    /// panel's padding, which must be what packing leaves, and the
    /// weights image digest of the panels as they lie now, which must be
    /// the one the checksum folds in. This guards a live plan against
    /// in-memory corruption; an artifact load needs none of it to trust
    /// a file — it derives the labels, checks the padding of what it
    /// borrows, and takes the digest from the container.
    ///
    /// # Errors
    /// Returns [`InferError::IntegrityViolation`] if the plan no longer
    /// hashes to its build-time checksum, or — with the offending step's
    /// index folded into `got` — if a step's labels are not the derived
    /// ones or its panel's padding is not clean, or — with the checksum
    /// over the digest the panels now give as `got` — if any panel no
    /// longer holds the weights it was built or loaded with.
    pub fn verify_integrity(&self) -> Result<(), InferError> {
        let got = self.integrity_checksum();
        if got != self.checksum {
            return Err(InferError::IntegrityViolation {
                expected: self.checksum,
                got,
            });
        }
        let labels = layout::select(&self.steps);
        for (index, (step, label)) in self.steps.iter().zip(labels).enumerate() {
            let held = match &step.kind {
                StepKind::Gemm(g) => g.panel.padding_is_clean(),
                _ => true,
            };
            if (step.in_layout, step.out_layout) != label || !held {
                let mut h = Checksum64::new();
                h.u64(got);
                h.u64(index as u64);
                return Err(InferError::IntegrityViolation {
                    expected: self.checksum,
                    got: h.finish(),
                });
            }
        }
        let held = self.panels_digest();
        if held != self.weights_digest {
            return Err(InferError::IntegrityViolation {
                expected: self.checksum,
                got: self.integrity_checksum_over(held),
            });
        }
        Ok(())
    }

    /// How many RN (heuristic) steps the PBQP reductions take on this
    /// plan's layout-selection instance; 0 means its labels are optimal
    /// in bytes moved.
    pub fn layout_rn_steps(&self) -> usize {
        layout::rn_steps(&self.steps)
    }

    /// What the plan's layout labels cost, in the selection's own unit
    /// (bytes written by staging, scatters and operand conversions per
    /// inference, and how many operands are still converted), beside
    /// what labelling every step `Chw` would: the prediction DESIGN.md
    /// §4f holds against measured stage times.
    pub fn layout_cost(&self) -> (LayoutCost, LayoutCost) {
        let labels: Vec<_> = self
            .steps
            .iter()
            .map(|s| (s.in_layout, s.out_layout))
            .collect();
        let all_chw = vec![(ActLayout::Chw, ActLayout::Chw); labels.len()];
        (
            layout::cost(&self.steps, &labels),
            layout::cost(&self.steps, &all_chw),
        )
    }

    /// How many of the plan's values are held as pixel-major rows. A
    /// value with one form — a `c × 1` image, say — is the same bytes
    /// under either label and counts under neither.
    pub fn rows_values(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.out_layout == ActLayout::Rows && layout::two_forms(s).is_some())
            .count()
    }

    /// How many of the plan's values have two forms at all: images of
    /// more than one channel and more than one pixel.
    pub fn two_form_values(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| layout::two_forms(s).is_some())
            .count()
    }

    /// The steps folded into GEMM step `gemm`'s requantisation, by
    /// operator, in schedule order — its epilogue; empty when nothing
    /// folded into it (DESIGN.md §4d, *Epilogue maps*).
    pub fn epilogue(&self, gemm: NodeId) -> Vec<&str> {
        self.steps
            .iter()
            .filter(|s| s.fold == Some(Fold::Epilogue { gemm: gemm.0 }))
            .map(|s| s.op.as_str())
            .collect()
    }

    /// How many steps run as part of a GEMM's requantisation, and how
    /// many constants only they read — which run nothing and hold no
    /// slot.
    pub fn folded_steps(&self) -> (usize, usize) {
        let count = |f: fn(&Fold) -> bool| {
            self.steps
                .iter()
                .filter(|s| s.fold.as_ref().is_some_and(f))
                .count()
        };
        (
            count(|f| matches!(f, Fold::Epilogue { .. })),
            count(|f| *f == Fold::Unread),
        )
    }

    /// Bytes of weights the plan keeps resident, as `(panels,
    /// row_major)`: each GEMM step holds one form, the quad panel of a
    /// matmul-backed step (padded to whole strips and k-tiles) or the
    /// row-major bytes of a direct kernel. The same on every tier: about
    /// [`Self::weight_bytes`] in total, plus the panels' padding.
    pub fn resident_weight_bytes(&self) -> (usize, usize) {
        let mut split = (0, 0);
        for step in &self.steps {
            if let StepKind::Gemm(g) = &step.kind {
                match g.panel.as_rows() {
                    Some(rows) => split.1 += rows.len(),
                    None => split.0 += g.panel.bytes(),
                }
            }
        }
        split
    }

    /// Step count (one per graph node).
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Activation slots in the arena (≤ node count thanks to liveness
    /// reuse).
    pub fn slot_count(&self) -> usize {
        self.slot_sizes.len()
    }

    /// Peak activation arena footprint in bytes (sum of slot high-water
    /// sizes).
    pub fn activation_bytes(&self) -> usize {
        self.slot_sizes.iter().sum()
    }

    /// Bytes of the plan's weight matrices, `Σ k · n` — what the
    /// artifact stores; what the plan keeps in memory is
    /// [`Self::resident_weight_bytes`].
    pub fn weight_bytes(&self) -> usize {
        self.weight_bytes
    }

    /// Multiply-accumulates executed per inference by the GEMM steps.
    pub fn gemm_macs(&self) -> u64 {
        self.gemm_macs
    }

    /// Expected input element count.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Output element count.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// The weight seed the plan was built for.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Allocates a fresh arena sized to this plan's slot high-water
    /// marks, stamped with this plan's checksum.
    pub fn new_arena(&self) -> InferArena {
        let mut arena = InferArena::default();
        let adopted = self.adopt_arena(&mut arena);
        debug_assert!(adopted.is_ok(), "an unstamped arena is always adoptable");
        arena
    }

    /// Claims `arena` for this plan: a fresh (unstamped) arena is sized
    /// and stamped; an arena stamped by a *different* plan is rejected.
    fn adopt_arena(&self, arena: &mut InferArena) -> Result<(), InferError> {
        match arena.stamp {
            Some(stamp) if stamp == self.checksum => Ok(()),
            Some(stamp) => Err(InferError::ArenaMismatch {
                plan: self.checksum,
                arena: stamp,
            }),
            None => {
                let sized = |len: usize| {
                    let mut buf = LineBuf::default();
                    buf.bytes_mut(len);
                    buf
                };
                arena.slots = self.slot_sizes.iter().map(|&s| sized(s)).collect();
                let operands = self.steps.iter().map(|s| s.in_slots.len()).max();
                arena.adapted = vec![LineBuf::default(); operands.unwrap_or(0)];
                arena.stamp = Some(self.checksum);
                Ok(())
            }
        }
    }

    /// One inference with a throwaway arena: the one panicking
    /// convenience, for callers that own a known-good plan and input.
    ///
    /// # Panics
    /// Panics on any [`InferError`] condition (wrong input length,
    /// failed dispatch); see [`InferencePlan::try_execute`].
    pub fn execute(&self, input: &[u8]) -> Vec<u8> {
        match self.try_execute(input) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// One inference with a throwaway arena, defaulted [`ExecOptions`].
    ///
    /// # Errors
    /// Returns the [`InferError`] describing why the execution was
    /// refused or abandoned; panics inside the runtime are caught and
    /// surface as [`InferError::Internal`].
    pub fn try_execute(&self, input: &[u8]) -> Result<Vec<u8>, InferError> {
        guard_panics(|| {
            let mut arena = self.new_arena();
            self.run_one(
                input,
                &mut arena,
                None,
                &ExecOptions::default(),
                Instant::now(),
            )?;
            Ok(arena.slots[self.output_slot].bytes().to_vec())
        })
    }

    /// One inference reusing `arena` under `opts`; the output tensor is
    /// written into `output` (left untouched on error).
    ///
    /// # Errors
    /// See [`InferencePlan::try_execute`]; additionally rejects arenas
    /// checked out from a different plan with
    /// [`InferError::ArenaMismatch`].
    pub fn try_execute_into(
        &self,
        input: &[u8],
        arena: &mut InferArena,
        output: &mut Vec<u8>,
        opts: &ExecOptions,
    ) -> Result<(), InferError> {
        guard_panics(|| {
            self.run_one(input, arena, None, opts, Instant::now())?;
            output.clear();
            output.extend_from_slice(arena.slots[self.output_slot].bytes());
            Ok(())
        })
    }

    /// One inference under `opts` with per-stage and per-operator
    /// wall-clock timings.
    ///
    /// # Errors
    /// See [`InferencePlan::try_execute_into`].
    pub fn try_execute_timed(
        &self,
        input: &[u8],
        arena: &mut InferArena,
        opts: &ExecOptions,
    ) -> Result<(Vec<u8>, InferReport), InferError> {
        guard_panics(|| {
            let mut report = InferReport::default();
            let t0 = Instant::now();
            self.run_one(input, arena, Some(&mut report), opts, t0)?;
            report.total = t0.elapsed();
            Ok((arena.slots[self.output_slot].bytes().to_vec(), report))
        })
    }

    /// The one executor: validates, then streams the schedule for one
    /// item over `arena` on the calling thread, abandoning it at the
    /// first step boundary more than [`ExecOptions::deadline`] past
    /// `started`. Not panic-guarded itself: every public entry point
    /// wraps it in [`guard_panics`].
    fn run_one(
        &self,
        input: &[u8],
        arena: &mut InferArena,
        mut report: Option<&mut InferReport>,
        opts: &ExecOptions,
        started: Instant,
    ) -> Result<(), InferError> {
        if input.len() != self.input_len {
            return Err(InferError::InputShape {
                expected: self.input_len,
                got: input.len(),
            });
        }
        self.adopt_arena(arena)?;
        for step in &self.steps {
            if let Some(deadline) = opts.deadline {
                let elapsed = started.elapsed();
                if elapsed > deadline {
                    return Err(InferError::DeadlineExceeded { elapsed, deadline });
                }
            }
            // A folded step's value is already in its slot, written by
            // its GEMM's epilogue; an unread constant has no slot.
            if let Some(fold) = step.fold {
                if let (Some(r), Fold::Epilogue { gemm }) = (report.as_deref_mut(), fold) {
                    r.per_op.push(OpTiming {
                        node: step.node,
                        name: step.name.clone(),
                        op: step.op.clone(),
                        duration: Duration::ZERO,
                        elementwise_bytes: None,
                        folded_into: Some(self.steps[gemm].node),
                    });
                }
                continue;
            }
            let t0 = report.is_some().then(Instant::now);
            let InferArena { slots, adapted, .. } = &mut *arena;
            // The one layout adapter: an operand its producer left in
            // another layout than this step reads is transposed into
            // the arena's scratch, whichever the direction. The time is
            // the step's own — its `prep` when it is a GEMM.
            let mut converted = false;
            for (j, &slot) in step.in_slots.iter().enumerate() {
                let Some((c, hw)) = self.conversion(step, j) else {
                    continue;
                };
                converted = true;
                let (rows, cols) = match step.in_layout {
                    ActLayout::Rows => (c, hw),
                    ActLayout::Chw => (hw, c),
                };
                let dst = adapted[j].bytes_mut(c * hw);
                transpose_clamp_into(slots[slot].bytes(), rows, cols, u8::MAX, dst, rows);
            }
            let mut prep = t0.map(|t| t.elapsed()).unwrap_or_default();
            let (mut operand, mut grid_rows) = (OperandForm::Matrix, 0);
            match &step.kind {
                // Aliased in place: the value already sits in its slot.
                StepKind::Passthrough
                    if step.in_slots.first() == Some(&step.out_slot) && !converted => {}
                StepKind::Gemm(g) if g.runs_matmul() => {
                    let run = GemmRun {
                        step,
                        g,
                        converted,
                        timed: t0.is_some(),
                    };
                    let done = run.dispatch(arena)?;
                    prep += done.staging;
                    (operand, grid_rows) = (done.operand, done.grid_rows);
                }
                _ => {
                    // Detach the output buffer so input slots stay
                    // readable.
                    let mut out = std::mem::take(&mut slots[step.out_slot]);
                    let arg = |j: usize| match self.conversion(step, j) {
                        Some(_) => adapted[j].bytes(),
                        None => slots[step.in_slots[j]].bytes(),
                    };
                    // An image held as rows against a flat second
                    // operand: the zero extension is positional.
                    let short = step.in_layout == ActLayout::Rows
                        && layout::short_operand(&self.steps, step, 1);
                    run_step(step, short, input, arg, out.bytes_mut(step.out_len));
                    slots[step.out_slot] = out;
                }
            }
            if let (Some(r), Some(t0)) = (report.as_deref_mut(), t0) {
                let d = t0.elapsed();
                if let StepKind::Gemm(g) = &step.kind {
                    r.prep += prep;
                    r.gemm += d.saturating_sub(prep);
                    // Direct kernels never reach the GEMM dispatcher —
                    // no tile plan to report.
                    if g.runs_matmul() {
                        let (isa, tiles, tile_depth) = gemm_kernel_summary(grid_rows, g.k, g.n);
                        r.kernel_isa = gcd2_kernels::active_isa().name();
                        r.gemm_kernels.push(GemmKernelInfo {
                            node: step.node,
                            name: step.name.clone(),
                            m: g.m,
                            k: g.k,
                            n: g.n,
                            isa,
                            mb: tiles.mb,
                            kb: tiles.kb,
                            tile_depth,
                            tuned: tiles != TilePlan::DEFAULT,
                            layouts: (step.in_layout, step.out_layout),
                            stage: prep,
                            operand,
                        });
                    }
                } else {
                    r.elementwise += d;
                }
                let direct_macs = match &step.kind {
                    StepKind::Gemm(g) if matches!(g.prep, GemmPrep::Depthwise(_)) => {
                        Some(g.m as u64 * g.k as u64)
                    }
                    StepKind::Gemm(g) if g.runs_direct_conv() => {
                        Some(g.m as u64 * g.k as u64 * g.n as u64)
                    }
                    StepKind::Pool { .. } => Some(0),
                    _ => None,
                };
                if let Some(macs) = direct_macs {
                    r.direct_kernels.push(DirectKernelInfo {
                        node: step.node,
                        macs,
                        layouts: (step.in_layout, step.out_layout),
                    });
                }
                r.per_op.push(OpTiming {
                    node: step.node,
                    name: step.name.clone(),
                    op: step.op.clone(),
                    duration: d,
                    elementwise_bytes: (!matches!(step.kind, StepKind::Gemm(_)))
                        .then_some(step.out_len),
                    folded_into: None,
                });
            }
        }
        Ok(())
    }

    /// Whether operand `j` of `step` has to be converted on the way in,
    /// and the `(channels, pixels)` of the image if so: its producer
    /// labelled the value otherwise than `step` reads it, and the two
    /// layouts are different bytes.
    fn conversion(&self, step: &Step, j: usize) -> Option<(usize, usize)> {
        let producer = self.steps.get(*step.inputs.get(j)?)?;
        layout::two_forms(producer).filter(|_| producer.out_layout != step.in_layout)
    }

    /// Test helper: perturbs weight `(0, 0)` of the first GEMM step, in
    /// whichever form the step holds it, so integrity checking has real
    /// corruption to catch. Test instrumentation only.
    #[doc(hidden)]
    pub fn chaos_corrupt_weights(&mut self) {
        for step in &mut self.steps {
            if let StepKind::Gemm(g) = &mut step.kind {
                g.panel.corrupt_for_test(0, 1);
                return;
            }
        }
    }

    /// Test helper: perturbs the step schedule (one `out_len`) so
    /// integrity checking has real tampering to catch, and a run that
    /// skips the check panics in its last step. Test instrumentation
    /// only.
    #[doc(hidden)]
    pub fn chaos_corrupt_schedule(&mut self) {
        if let Some(step) = self.steps.last_mut() {
            step.out_len = step.out_len.wrapping_add(1);
        }
    }

    /// Mutation-suite helper: applies one seeded corruption from
    /// [`PlanMutation`] and **re-stamps the integrity checksum**, so the
    /// stamp cannot vouch for the plan and the static analyzer must
    /// catch the defect on its own. Returns whether the mutation found a
    /// site to apply to. Test instrumentation only.
    #[doc(hidden)]
    pub fn mutate_for_test(&mut self, mutation: PlanMutation) -> bool {
        let applied = match mutation {
            PlanMutation::SwapSlots => {
                // Two steps with distinct output slots, each of whose
                // values is still read later: swapping their slot
                // assignments leaves every consumer reading the wrong
                // buffer.
                let consumed_later = |i: usize| {
                    let slot = self.steps[i].out_slot;
                    slot != NO_SLOT
                        && self.steps[i + 1..]
                            .iter()
                            .any(|s| s.in_slots.contains(&slot))
                };
                let candidates: Vec<usize> = (0..self.steps.len())
                    .filter(|&i| consumed_later(i))
                    .collect();
                let pair = candidates.iter().enumerate().find_map(|(ci, &i)| {
                    candidates[ci + 1..]
                        .iter()
                        .find(|&&j| self.steps[j].out_slot != self.steps[i].out_slot)
                        .map(|&j| (i, j))
                });
                match pair {
                    Some((i, j)) => {
                        let a = self.steps[i].out_slot;
                        let b = self.steps[j].out_slot;
                        self.steps[i].out_slot = b;
                        self.steps[j].out_slot = a;
                        true
                    }
                    None => false,
                }
            }
            PlanMutation::ShrinkSlot => {
                // The largest slot entry is, by construction, the
                // high-water mark of some step's write; shrinking it by
                // one element undersizes that write.
                match self
                    .slot_sizes
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &size)| size)
                {
                    Some((slot, &size)) if size > 0 => {
                        self.slot_sizes[slot] = size - 1;
                        true
                    }
                    _ => false,
                }
            }
            PlanMutation::BumpShift => {
                // Off-by-one the first GEMM's folded requantization
                // shift: outputs halve, and the shift no longer matches
                // the depth-k policy.
                self.steps
                    .iter_mut()
                    .find_map(|s| match &mut s.kind {
                        StepKind::Gemm(g) => {
                            g.shift = g.shift.wrapping_add(1);
                            Some(())
                        }
                        _ => None,
                    })
                    .is_some()
            }
            PlanMutation::ForgeMap => {
                // Another value for the top activation byte in the first
                // matmul GEMM's epilogue map: the GEMM's bytes change, and
                // the map is no longer its folded steps' composition.
                self.steps
                    .iter_mut()
                    .find_map(|s| match &mut s.kind {
                        StepKind::Gemm(g) if g.runs_matmul() => {
                            let mut entries = g.map.entries();
                            entries[ACT_MAX as usize] ^= 1;
                            g.map = ByteMap::new(entries)?;
                            Some(())
                        }
                        _ => None,
                    })
                    .is_some()
            }
            PlanMutation::FlipWeight { matmul } => {
                // Row 0 of the column with the largest positive sum
                // becomes 127, so that sum (and the accumulator bound)
                // grows; the weights digest is re-taken from what the
                // panels now hold, so the integrity check accepts it.
                let flipped = self
                    .steps
                    .iter_mut()
                    .find_map(|s| match &mut s.kind {
                        StepKind::Gemm(g) if g.runs_matmul() == matmul => {
                            let sums = g.panel.column_sign_sums();
                            let col = (0..sums.len()).max_by_key(|&j| sums[j].0)?;
                            g.panel.set_weight_for_test(0, col, 127);
                            Some(())
                        }
                        _ => None,
                    })
                    .is_some();
                self.weights_digest = self.panels_digest();
                flipped
            }
            PlanMutation::FlipLayout { step, out } => {
                // Relabel one side of one step: the step (or whoever
                // reads its value) now runs another form than the
                // selection chose — over weights still in the chosen
                // form's order, or after a conversion nobody planned.
                self.steps.get_mut(step).is_some_and(|s| {
                    let label = if out {
                        &mut s.out_layout
                    } else {
                        &mut s.in_layout
                    };
                    *label = match *label {
                        ActLayout::Chw => ActLayout::Rows,
                        ActLayout::Rows => ActLayout::Chw,
                    };
                    true
                })
            }
        };
        if applied {
            self.checksum = self.integrity_checksum();
        }
        applied
    }
}

/// Seeded plan corruptions for the analyzer mutation suite: each targets
/// one invariant the static analyzer claims to prove, so the suite can
/// assert the corresponding diagnostic code fires.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMutation {
    /// Swap the output slots of two steps whose values are both read
    /// later (arena soundness: operand/producer slot agreement).
    SwapSlots,
    /// Shrink the largest `slot_sizes` entry below its high-water write
    /// (arena soundness: slot sizes dominate writes).
    ShrinkSlot,
    /// Off-by-one the first GEMM's folded requantization shift (range
    /// analysis: folded shifts match the depth-k policy).
    BumpShift,
    /// Change one entry of the first matmul GEMM's epilogue map (range
    /// analysis: a stored map is the composition of the steps folded
    /// into the GEMM, recomputed from the analyzer's own transfer
    /// functions).
    ForgeMap,
    /// Set one weight of the first GEMM whose kernel reads the quad
    /// panel (`matmul`) or the row-major bytes (a depthwise or narrow
    /// direct conv) to 127, re-stamping the weights digest (range
    /// analysis: the column sums come from the bytes the kernel reads,
    /// not from the digest that vouches for them).
    FlipWeight { matmul: bool },
    /// Flip the layout label step `step` reads its operands in, or
    /// (`out`) leaves its value in. Not an analyzer finding — the arena
    /// is as sound as before — but the labels are no longer the ones
    /// the schedule derives, which `verify_integrity` checks on its own,
    /// re-stamped checksum or not (an artifact of such a plan does not
    /// load: the loader derives the labels, and they hash otherwise).
    FlipLayout { step: usize, out: bool },
}

/// Derives the [`gcd2_verify::GemmFacts`] of one staged GEMM. The
/// policy shift and the per-column weight aggregates are recomputed
/// from the reduction depth and from the bytes the kernel multiplies —
/// the panel summed in its own form ([`WeightPanel::column_sign_sums`]),
/// never copied from the fields under scrutiny — so a corrupted stored
/// shift or weight shows up as a disagreement.
fn gemm_view_facts(g: &GemmStep) -> gcd2_verify::GemmFacts {
    let sums = g.panel.column_sign_sums();
    gcd2_verify::GemmFacts {
        m: g.m,
        k: g.k,
        n: g.n,
        shift: g.shift,
        policy_shift: gemm_shift(g.k),
        map: g.map.entries(),
        // Only the CHW scatter can leave output positions unwritten
        // (zero), when the GEMM produces fewer rows than the spatial
        // extent (ConvTranspose-style upsampling).
        zero_fill: matches!(g.scatter, Scatter::Chw { spatial } if g.m < spatial),
        col_pos_max: sums.iter().map(|s| s.0).max().unwrap_or(0),
        col_neg_min: sums.iter().map(|s| s.1).min().unwrap_or(0),
    }
}

/// The flattened projection `gcd2-analyze` consumes (see
/// `gcd2_verify::infer_view`): plain data per step plus derived GEMM
/// facts, keeping the analyzer decoupled from the runtime types.
impl gcd2_verify::InferPlanView for InferencePlan {
    fn step_count(&self) -> usize {
        self.steps.len()
    }

    fn step(&self, index: usize) -> gcd2_verify::InferStep {
        let s = &self.steps[index];
        let role = match &s.kind {
            _ if matches!(s.fold, Some(Fold::Epilogue { .. })) => gcd2_verify::StepRole::Folded,
            StepKind::Input => gcd2_verify::StepRole::Input,
            StepKind::Constant => gcd2_verify::StepRole::Constant,
            StepKind::Gemm(g) => gcd2_verify::StepRole::Gemm(gemm_view_facts(g)),
            StepKind::Passthrough => gcd2_verify::StepRole::Passthrough,
            _ => gcd2_verify::StepRole::Compute,
        };
        gcd2_verify::InferStep {
            index,
            name: s.name.clone(),
            op: s.op.clone(),
            in_slots: s.in_slots.clone(),
            out_slot: s.out_slot,
            out_len: s.out_len,
            in_layout: s.in_layout,
            out_layout: s.out_layout,
            role,
        }
    }

    fn slot_sizes(&self) -> Vec<usize> {
        self.slot_sizes.clone()
    }

    fn input_len(&self) -> usize {
        self.input_len
    }

    fn output_len(&self) -> usize {
        self.output_len
    }

    fn output_slot(&self) -> usize {
        self.output_slot
    }

    fn act_max(&self) -> u8 {
        ACT_MAX
    }
}

/// Runs `f` with panics caught and surfaced as [`InferError::Internal`].
pub(crate) fn guard_panics<T>(f: impl FnOnce() -> Result<T, InferError>) -> Result<T, InferError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(InferError::Internal {
            message: panic_message(p.as_ref()),
        })
    })
}

/// How [`GemmRun::dispatch`] ran its GEMM.
struct Dispatched {
    /// Staging wall clock, when timed.
    staging: Duration,
    /// What form its activations took.
    operand: OperandForm,
    /// The rows its blocking was derived for: `m`, or a view's virtual
    /// rows when the tile grid read it in place.
    grid_rows: usize,
}

/// A matmul-backed GEMM step as one run executes it.
struct GemmRun<'p> {
    step: &'p Step,
    g: &'p GemmStep,
    /// The operand sits converted in the arena's `adapted[0]`.
    converted: bool,
    timed: bool,
}

impl GemmRun<'_> {
    /// Stages the operand into the `m × k` matrix — or reads it where
    /// it lies, when it already is one or a stride-1 conv's im2col view
    /// of its padded rows — runs the GEMM over it from the step's
    /// resident panel, and leaves the result in the output slot:
    /// written there by the multiply itself when the slot holds rows,
    /// else transposed out of the stage.
    fn dispatch(&self, arena: &mut InferArena) -> Result<Dispatched, InferError> {
        let t0 = self.timed.then(Instant::now);
        let (step, g) = (self.step, self.g);
        let (m, k, n) = (g.m, g.k, g.n);
        let InferArena {
            slots,
            adapted,
            stage,
            ..
        } = arena;
        // Detached so the multiply can write the slot while it reads
        // another of the same arena.
        let mut out = std::mem::take(&mut slots[step.out_slot]);
        let x = if self.converted {
            adapted[0].bytes()
        } else {
            slots[step.in_slots[0]].bytes()
        };
        let rows_in = step.in_layout == ActLayout::Rows;
        let a = match &g.prep {
            // The operand already is the row-major `m × k` matrix — a
            // MatMul's input, a pointwise conv's rows — consumed
            // zero-copy.
            GemmPrep::Direct => GemmA::Matrix(x),
            GemmPrep::Transposed { .. } if rows_in => GemmA::Matrix(x),
            // CHW is the row-major `c × m` matrix; the GEMM wants its
            // transpose.
            GemmPrep::Transposed { c, m: pixels } => {
                let staged = stage.a.bytes_mut(m * k);
                transpose_clamp_into(x, *c, *pixels, u8::MAX, staged, *c);
                GemmA::Matrix(staged)
            }
            // A stride-1 conv over rows: the padded map is the matrix,
            // addressed in place where the tier can, else materialised
            // by the dispatch.
            GemmPrep::Im2col(geom) if rows_in && geom.stride == (1, 1) => {
                GemmA::View(im2col_rows_view(
                    x,
                    geom.c,
                    geom.h,
                    geom.w,
                    geom.kernel,
                    geom.padding,
                    &mut stage.im2col,
                ))
            }
            GemmPrep::Im2col(geom) => {
                // No clear(): staging fully overwrites the buffer, and
                // zero-filling a multi-GB staging matrix per call is a
                // measurable memset tax on the megapixel models.
                let staged = stage.a.bytes_mut(m * k);
                let form = if rows_in {
                    im2col_rows_into
                } else {
                    im2col_rm_into
                };
                form(
                    x,
                    geom.c,
                    geom.h,
                    geom.w,
                    geom.kernel,
                    geom.stride,
                    geom.padding,
                    &mut stage.im2col,
                    staged,
                );
                GemmA::Matrix(staged)
            }
            GemmPrep::Depthwise(_) => {
                unreachable!("depthwise runs its direct kernel, never a GEMM")
            }
        };
        let (operand, grid_rows) = match a {
            GemmA::View(view) if a.read_in_place() => (OperandForm::View, view.tile_rows()),
            _ if matches!(g.prep, GemmPrep::Im2col(_)) => (OperandForm::Im2col, m),
            _ => (OperandForm::Matrix, m),
        };
        let prep = t0.map(|t| t.elapsed()).unwrap_or_default();
        // The multiply's rows are the slot's bytes: a MatMul's result,
        // a conv's when its value is labelled rows. Requantisation
        // clamps to the activation ceiling and runs the steps folded into
        // the GEMM, so they are finished.
        let scatter = match g.scatter {
            Scatter::Chw { spatial } if step.out_layout == ActLayout::Chw => Some(spatial),
            _ => None,
        };
        let product = match scatter {
            Some(_) => stage.out.bytes_mut(m * n),
            None => &mut out.bytes_mut(step.out_len.max(m * n))[..m * n],
        };
        let dispatched = try_matmul_panel_into(
            a,
            m,
            k,
            &g.panel,
            (g.shift, ACT_MAX, g.map),
            &mut stage.scratch,
            product,
        )
        .map_err(|e| InferError::Dispatch {
            node: step.node.0,
            message: e.to_string(),
        });
        let dst = out.bytes_mut(step.out_len);
        match scatter {
            // A refused dispatch left nothing to scatter.
            Some(_) if dispatched.is_err() => {}
            Some(spatial) => {
                // Only a scatter that leaves positions unwritten needs
                // them zeroed first: ConvTranspose upsampling
                // (`m < spatial`), or a graph whose batch dimension
                // makes the tensor longer than one image.
                if m < spatial || n * spatial < step.out_len {
                    dst.fill(0);
                }
                transpose_clamp_into(stage.out.bytes(), m.min(spatial), n, ACT_MAX, dst, spatial);
            }
            // A tensor longer than the one image the GEMM computes (a
            // graph with a batch dimension) ends in zeros.
            None => dst[(m * n).min(step.out_len)..].fill(0),
        }
        slots[step.out_slot] = out;
        dispatched.map(|()| Dispatched {
            staging: prep,
            operand,
            grid_rows,
        })
    }
}

/// Executes one step — anything but a matmul-backed GEMM (see
/// [`GemmRun`]) — into `out`, the step's `out_len` bytes, reading
/// operand `j` as `arg(j)`, in the form the step's layout labels name.
/// `short`: the step is a binary over an image held as rows whose second
/// operand is flat bytes ([`layout::short_operand`]).
fn run_step<'a>(
    step: &Step,
    short: bool,
    input: &[u8],
    arg: impl Fn(usize) -> &'a [u8],
    out: &mut [u8],
) {
    match &step.kind {
        StepKind::Input => {
            for (d, &x) in out.iter_mut().zip(input) {
                *d = x.min(ACT_MAX);
            }
        }
        StepKind::Constant => out.fill(0),
        StepKind::Gemm(g) => match &g.prep {
            GemmPrep::Im2col(geom) if g.runs_direct_conv() => conv2d_direct_chw_into(
                arg(0),
                geom.c,
                geom.h,
                geom.w,
                geom.kernel,
                geom.stride,
                geom.padding,
                // A direct kernel's step holds its weights row-major.
                g.panel.as_rows().unwrap_or_default(),
                g.n,
                g.shift,
                ACT_MAX,
                out,
            ),
            GemmPrep::Depthwise(geom) => {
                let form = match step.in_layout {
                    ActLayout::Chw => dwconv_direct_into,
                    ActLayout::Rows => dwconv_rows_into,
                };
                form(
                    arg(0),
                    geom.c,
                    geom.h,
                    geom.w,
                    geom.kernel,
                    geom.stride,
                    geom.padding,
                    g.panel.as_rows().unwrap_or_default(),
                    g.shift,
                    ACT_MAX,
                    out,
                )
            }
            _ => unreachable!("matmul-backed GEMM steps run in GemmRun::dispatch"),
        },
        StepKind::Add if short => hostops::add_avg_rows_into(arg(0), arg(1), channels(step), out),
        StepKind::Mul if short => {
            hostops::mul_shift4_rows_into(arg(0), arg(1), channels(step), ACT_MAX, out)
        }
        StepKind::Div if short => hostops::div_lut_rows_into(arg(0), arg(1), channels(step), out),
        StepKind::Add => hostops::add_avg_into(arg(0), arg(1), out),
        StepKind::Mul => hostops::mul_shift4_into(arg(0), arg(1), ACT_MAX, out),
        StepKind::Div => hostops::div_lut_into(arg(0), arg(1), out),
        StepKind::Pow => hostops::pow_sq_into(arg(0), ACT_MAX, out),
        StepKind::Passthrough => out.copy_from_slice(arg(0)),
        StepKind::MonotoneLut => hostops::monotone_lut_into(arg(0), out),
        StepKind::Softmax { group } => hostops::softmax_into(arg(0), *group, ACT_MAX, out),
        StepKind::LayerNorm { group } => hostops::layernorm_into(arg(0), *group, ACT_MAX, out),
        StepKind::Pool {
            c,
            h,
            w,
            kernel,
            stride,
            is_max,
        } => {
            let form = match step.in_layout {
                ActLayout::Chw => hostops::pool_into,
                ActLayout::Rows => hostops::pool_rows_into,
            };
            form(arg(0), *c, *h, *w, *kernel, *stride, *is_max, out)
        }
        StepKind::GlobalAvgPool { c, hw } => match step.in_layout {
            ActLayout::Chw => hostops::global_avg_pool_into(arg(0), *c, *hw, out),
            ActLayout::Rows => hostops::global_avg_pool_rows_into(arg(0), *c, *hw, out),
        },
        StepKind::Upsample { c, h, w, factor } => {
            hostops::upsample_nn_into(arg(0), *c, *h, *w, *factor, out)
        }
        StepKind::Concat => hostops::concat_into(arg(0), arg(1), out),
    }
}

/// Channels of the image `step` computes (1 when it is not one).
fn channels(step: &Step) -> usize {
    step.image.map_or(1, |(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{execute_reference, weight};
    use crate::Compiler;
    use gcd2_cgraph::Graph;

    /// Every kernel tier this host can run, the scalar oracle first.
    fn tiers() -> impl Iterator<Item = KernelIsa> {
        KernelIsa::ALL.into_iter().filter(|isa| isa.supported())
    }

    /// A graph touching every step kind the plan supports.
    fn kitchen_sink() -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 4, 12, 12));
        let conv = g.add(
            OpKind::Conv2d {
                out_channels: 6,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[x],
            "conv",
        );
        let dw = g.add(
            OpKind::DepthwiseConv2d {
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[conv],
            "dw",
        );
        let act = g.add(OpKind::Act(Activation::HardSwish), &[dw], "hswish");
        let up = g.add(OpKind::Upsample { factor: 2 }, &[act], "up");
        let pool = g.add(
            OpKind::MaxPool {
                kernel: (2, 2),
                stride: (2, 2),
            },
            &[up],
            "pool",
        );
        let sum = g.add(OpKind::Add, &[pool, dw], "residual");
        let div = g.add(OpKind::Div, &[sum, dw], "div");
        let sq = g.add(OpKind::Pow, &[div], "sq");
        let cat = g.add(OpKind::Concat, &[sq, dw], "cat");
        let gap = g.add(OpKind::GlobalAvgPool, &[cat], "gap");
        let flat = g.add(
            OpKind::Reshape {
                shape: TShape::new(vec![1, 12]),
            },
            &[gap],
            "flat",
        );
        let fc = g.add(OpKind::MatMul { n: 8 }, &[flat], "fc");
        let ln = g.add(OpKind::LayerNorm, &[fc], "ln");
        g.add(OpKind::Softmax, &[ln], "softmax");
        g
    }

    /// The plan build's row generator writes `runtime::weight`'s bytes
    /// on every tier the host supports (`pin_isa`, the scalar pin
    /// included). Runs of 0..=67 and 4099 weights from each start hit
    /// every remainder of the plain form's four lanes and the AVX-512
    /// kernel's first 32-weight passes, and 95–97 and 127–129 straddle
    /// its third and fourth; the starts straddle 2³² and 2⁴⁰, and
    /// `u64::MAX − 40` wraps the index inside one pass. The node ids and
    /// seeds take their extremes. Each run is held to a prefix of the
    /// oracle's longest. The test bites on the rewrites the generator
    /// rests on (mutants of `gcd2_kernels::synth`):
    /// - the fold without its `>> 16` step (`(y as u32) % 5`) fails on
    ///   the scalar tier at seed 0, node 0, start 0, length 2, element 1;
    /// - lanes started at `start + 1` fail on the scalar tier at seed 0,
    ///   node 0, start 0, length 1, element 0;
    /// - the AVX-512 kernel's divisor `13107` for `13108` fails at seed
    ///   0, node 0, start 0, length 32, element 5;
    /// - its lanes advanced by `4·C₂` a pass for `32·C₂` fail at seed
    ///   0, node 0, start 0, length 64, element 33.
    #[test]
    fn row_generator_is_the_oracle_at_every_tier() {
        let check = |form: &str| {
            for seed in [0, 0xC0DE, u64::MAX] {
                for node in [0, 1, 389, u32::MAX as usize] {
                    for start in [0, 1, (1 << 32) - 3, (1 << 40) + 7, u64::MAX - 40] {
                        let oracle: Vec<i8> = (0..4099)
                            .map(|j| weight(seed, NodeId(node), (start as usize).wrapping_add(j)))
                            .collect();
                        let lengths = (0..=67).chain((95..=97).chain(127..=129)).chain([4099]);
                        for len in lengths {
                            let mut run = vec![9i8; len];
                            weight_row_into(seed, node as u64, start, &mut run);
                            if let Some(j) = (0..len).find(|&j| run[j] != oracle[j]) {
                                panic!(
                                    "{form}: seed {seed:#x}, node {node}, start {start:#x}, \
                                     length {len}, element {j}: {} != {}",
                                    run[j], oracle[j]
                                );
                            }
                        }
                    }
                }
            }
        };
        for isa in tiers() {
            let _pin = gcd2_kernels::pin_isa(isa);
            assert_eq!(gcd2_kernels::active_isa(), isa);
            check(isa.name());
        }
    }

    /// One inference under `opts` through a fresh caller-owned arena.
    fn run_into(plan: &InferencePlan, x: &[u8], opts: &ExecOptions) -> Result<Vec<u8>, InferError> {
        run_over(plan, &mut plan.new_arena(), x, opts)
    }

    /// `x` run over `arena`: its output, or why not.
    fn run_over(
        plan: &InferencePlan,
        arena: &mut InferArena,
        x: &[u8],
        opts: &ExecOptions,
    ) -> Result<Vec<u8>, InferError> {
        let mut out = Vec::new();
        plan.try_execute_into(x, arena, &mut out, opts)
            .map(|()| out)
    }

    /// A graph whose GEMMs cover every staging form and scatter: a wide
    /// 3×3 conv (im2col), a 7×7
    /// stride-2 conv (im2col over both column phases), a pointwise conv
    /// (transpose) on whole 16×16 tiles (144 pixels) and one on ragged
    /// tiles (36 pixels), a stride-2 3×3 and a stride-2 1×1 conv (im2col
    /// with one phase and every other row, three pixels a row), a
    /// transposed conv whose scatter leaves three quarters of the output
    /// zero (`m` 9 < `spatial` 36), and an FC (direct, row-major).
    fn staging_net() -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 4, 12, 12));
        let conv = |out_channels, k, s, p| OpKind::Conv2d {
            out_channels,
            kernel: (k, k),
            stride: (s, s),
            padding: (p, p),
        };
        let wide = g.add(conv(32, 3, 1, 1), &[x], "wide");
        let point = g.add(conv(16, 1, 1, 0), &[wide], "point");
        let pool = g.add(
            OpKind::MaxPool {
                kernel: (2, 2),
                stride: (2, 2),
            },
            &[point],
            "pool",
        );
        let stem = g.add(conv(16, 7, 2, 3), &[x], "stem");
        let joined = g.add(OpKind::Add, &[pool, stem], "joined");
        let ragged = g.add(conv(24, 1, 1, 0), &[joined], "ragged");
        let down3 = g.add(conv(24, 3, 2, 1), &[ragged], "down3");
        let down1 = g.add(conv(24, 1, 2, 0), &[ragged], "down1");
        let merged = g.add(OpKind::Add, &[down3, down1], "merged");
        let up = g.add(
            OpKind::ConvTranspose2d {
                out_channels: 16,
                kernel: (2, 2),
                stride: (2, 2),
            },
            &[merged],
            "up",
        );
        let gap = g.add(OpKind::GlobalAvgPool, &[up], "gap");
        let flat = g.add(
            OpKind::Reshape {
                shape: TShape::new(vec![1, 16]),
            },
            &[gap],
            "flat",
        );
        g.add(OpKind::MatMul { n: 8 }, &[flat], "fc");
        g
    }

    /// Two residual bottlenecks, the second strided, then GAP and an FC:
    /// every step from the stem's result to the pooling admits rows.
    fn bottleneck_net() -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 4, 12, 12));
        let conv = |out_channels, k, s, p| OpKind::Conv2d {
            out_channels,
            kernel: (k, k),
            stride: (s, s),
            padding: (p, p),
        };
        let stem = g.add(conv(32, 3, 1, 1), &[x], "stem");
        let c1 = g.add(conv(16, 1, 1, 0), &[stem], "b0.conv1");
        let c2 = g.add(conv(16, 3, 1, 1), &[c1], "b0.conv2");
        let c3 = g.add(conv(32, 1, 1, 0), &[c2], "b0.conv3");
        let sum = g.add(OpKind::Add, &[c3, stem], "b0.add");
        let act = g.add(OpKind::Act(Activation::Relu), &[sum], "b0.relu");
        let d1 = g.add(conv(16, 1, 1, 0), &[act], "b1.conv1");
        let d2 = g.add(conv(16, 3, 2, 1), &[d1], "b1.conv2");
        let d3 = g.add(conv(48, 1, 1, 0), &[d2], "b1.conv3");
        let short = g.add(conv(48, 1, 2, 0), &[act], "b1.downsample");
        let sum = g.add(OpKind::Add, &[d3, short], "b1.add");
        let gap = g.add(OpKind::GlobalAvgPool, &[sum], "gap");
        let flat = g.add(
            OpKind::Reshape {
                shape: TShape::new(vec![1, 48]),
            },
            &[gap],
            "flat",
        );
        g.add(OpKind::MatMul { n: 8 }, &[flat], "fc");
        g
    }

    #[test]
    fn the_selection_keeps_rows_between_conv_gemms() {
        use gcd2_verify::InferPlanView;
        use ActLayout::{Chw, Rows};
        let compiled = Compiler::new().compile(&bottleneck_net());
        let plan = compiled.inference_plan(21);
        let labels: Vec<(String, ActLayout, ActLayout)> = (0..plan.step_count())
            .map(|i| plan.step(i))
            .map(|s| (s.name, s.in_layout, s.out_layout))
            .collect();
        for (name, i, o) in &labels {
            let want = match name.as_str() {
                // The input is planes, so the stem reads planes; the
                // pooling reads rows and its `c × 1` result is planes.
                "x" | "flat" | "fc" => (Chw, Chw),
                "stem" => (Chw, Rows),
                "gap" => (Rows, Chw),
                _ => (Rows, Rows),
            };
            assert_eq!((*i, *o), want, "{name}");
        }
        // Nothing is converted, and what is left to move is the three
        // im2col matrices: the cost is integers of the dimensions, the
        // same on every host.
        let (chosen, all_chw) = plan.layout_cost();
        assert_eq!((chosen.conversions, all_chw.conversions), (0, 0));
        assert_eq!((chosen.bytes, all_chw.bytes), (39312, 76176));
        assert_eq!(plan.rows_values(), 11);
        plan.verify_integrity().expect("the selection's own labels");

        // Same bytes as the plan that selects nothing and as the
        // interpreter — single-shot, in turn over one reused arena — with
        // both plans built and run on every tier.
        let inputs: Vec<Vec<u8>> = (0..4)
            .map(|s| (0..4 * 144).map(|i| ((i * 7 + s * 5) % 16) as u8).collect())
            .collect();
        let want: Vec<Vec<u8>> = inputs
            .iter()
            .map(|x| execute_reference(&compiled, x, 21))
            .collect();
        let opts = ExecOptions::default();
        for tier in tiers() {
            let _pin = gcd2_kernels::pin_isa(tier);
            let plan = compiled.inference_plan(21);
            let reference = InferencePlan::try_build_all_chw(&compiled, 21).expect("all-chw");
            assert_eq!(reference.rows_values(), 0);
            assert_eq!(reference.layout_cost().0, all_chw);
            let mut arena = plan.new_arena();
            for (x, want) in inputs.iter().zip(&want) {
                assert_eq!(run_into(&plan, x, &opts).as_ref(), Ok(want), "{tier}");
                assert_eq!(run_into(&reference, x, &opts).as_ref(), Ok(want), "{tier}");
                let reused = run_over(&plan, &mut arena, x, &opts);
                assert_eq!(
                    reused.as_ref(),
                    Ok(want),
                    "{tier}: an input runs as it would alone"
                );
            }
        }
    }

    #[test]
    fn a_flipped_layout_label_fails_integrity_even_restamped() {
        let compiled = Compiler::new().compile(&bottleneck_net());
        // A value's label (`b0.conv2`'s result, step 3), the label an
        // im2col reads in — its weights stay `(dy, dx, ch)` — and a rows
        // label on a step that only has a CHW form (the input).
        for (step, out) in [(3, true), (3, false), (0, true)] {
            let mut plan = compiled.inference_plan(21);
            assert!(plan.mutate_for_test(PlanMutation::FlipLayout { step, out }));
            assert_eq!(plan.checksum, plan.integrity_checksum(), "re-stamped");
            assert!(
                matches!(
                    plan.verify_integrity(),
                    Err(InferError::IntegrityViolation { .. })
                ),
                "step {step} out={out}"
            );
        }
        let mut plan = compiled.inference_plan(21);
        assert!(!plan.mutate_for_test(PlanMutation::FlipLayout {
            step: 99,
            out: true
        }));
        // The reference plan that pins `Chw` is refused for the same
        // reason: its labels are not the selection's.
        let pinned = InferencePlan::try_build_all_chw(&compiled, 21).expect("all-chw");
        assert!(pinned.verify_integrity().is_err());
    }

    #[test]
    fn plan_matches_interpreter_bit_for_bit() {
        let g = kitchen_sink();
        let compiled = Compiler::new().compile(&g);
        let plan = compiled.inference_plan(0xBEEF);
        let input: Vec<u8> = (0..4 * 144).map(|i| (i * 5 % 16) as u8).collect();
        assert_eq!(
            plan.execute(&input),
            execute_reference(&compiled, &input, 0xBEEF)
        );
    }

    #[test]
    fn arena_reuse_is_clean_across_inputs() {
        let g = kitchen_sink();
        let compiled = Compiler::new().compile(&g);
        let plan = compiled.inference_plan(7);
        let mut arena = plan.new_arena();
        let inputs: Vec<Vec<u8>> = (0..4)
            .map(|s| {
                (0..4 * 144)
                    .map(|i| ((i * 3 + s * 11) % 16) as u8)
                    .collect()
            })
            .collect();
        for input in &inputs {
            let mut reused = Vec::new();
            plan.try_execute_into(input, &mut arena, &mut reused, &ExecOptions::default())
                .expect("reused arena executes");
            assert_eq!(reused, plan.execute(input), "dirty arena changed output");
            assert_eq!(reused, execute_reference(&compiled, input, 7));
        }
    }

    #[test]
    fn reused_arena_is_bit_identical_to_single_shot() {
        let inputs: Vec<Vec<u8>> = (0..5)
            .map(|s| (0..4 * 144).map(|i| ((i * 7 + s * 3) % 16) as u8).collect())
            .collect();
        // A batch is its inputs run in turn over one arena: at every
        // batch size — with a wrong-length input (it fails alone, the
        // others stay bit-identical), past a deadline — and on every
        // tier, the plan built there, each input gets the same bytes or
        // the same error variant over a fresh arena and over the reused
        // one. The second net runs all three staging forms and both
        // scatters.
        let nets = [kitchen_sink(), staging_net()];
        for compiled in nets.iter().map(|g| Compiler::new().compile(g)) {
            let oracle: Vec<Vec<u8>> = inputs
                .iter()
                .map(|x| execute_reference(&compiled, x, 3))
                .collect();
            let defaults = ExecOptions::default();
            let expired = ExecOptions {
                deadline: Some(Duration::ZERO),
            };
            for tier in tiers() {
                let _pin = gcd2_kernels::pin_isa(tier);
                let plan = compiled.inference_plan(3);
                for b in [1, 2, 5] {
                    let scenarios = [(defaults, Some(b - 1)), (defaults, None), (expired, None)];
                    for (opts, bad) in scenarios {
                        let mut batch = inputs[..b].to_vec();
                        if let Some(i) = bad {
                            batch[i].truncate(3);
                        }
                        let mut arena = plan.new_arena();
                        let paths: [Vec<_>; 2] = [
                            batch.iter().map(|x| run_into(&plan, x, &opts)).collect(),
                            batch
                                .iter()
                                .map(|x| run_over(&plan, &mut arena, x, &opts))
                                .collect(),
                        ];
                        assert!(paths.iter().all(|results| results.len() == b));
                        for (i, want) in oracle[..b].iter().enumerate() {
                            for r in paths.iter().map(|results| &results[i]) {
                                match r {
                                    Err(InferError::InputShape { .. }) => assert_eq!(bad, Some(i)),
                                    // A zero deadline can tie a coarse clock
                                    // tick; a run that completes is correct.
                                    Err(InferError::DeadlineExceeded { .. }) => {
                                        assert!(opts.deadline.is_some())
                                    }
                                    _ => assert!(bad != Some(i) && r.as_ref() == Ok(want), "{r:?}"),
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slots_are_reused_and_sized() {
        let g = kitchen_sink();
        let compiled = Compiler::new().compile(&g);
        let plan = compiled.inference_plan(0);
        assert!(
            plan.slot_count() < plan.steps(),
            "liveness must reuse slots: {} slots for {} steps",
            plan.slot_count(),
            plan.steps()
        );
        assert!(plan.activation_bytes() > 0);
        assert!(plan.weight_bytes() > 0);
        assert!(plan.gemm_macs() > 0);
    }

    #[test]
    fn quant_range_check_bounds_the_accumulator() {
        // Any practical depth passes; a depth whose worst-case
        // accumulator k·ACT_MAX·WGT_MAX exceeds i32 is rejected.
        assert!(check_quant_range(NodeId(0), 1 << 20).is_ok());
        let k = (i32::MAX as usize) / (ACT_MAX as usize * WGT_MAX as usize) + 1;
        match check_quant_range(NodeId(3), k) {
            Err(InferError::QuantOverflow {
                node: 3,
                k: got,
                max_acc,
            }) => {
                assert_eq!(got, k);
                assert!(max_acc > i32::MAX as i64);
            }
            other => panic!("expected QuantOverflow, got {other:?}"),
        }
    }

    #[test]
    fn acc_bound_check_catches_pure_underflow() {
        // Regression: the check historically compared only the positive
        // bound against i32::MAX, so an asymmetric weight range whose
        // worst case is *negative* — weights in [-4, 0] never produce a
        // positive accumulator at all — sailed through and could wrap
        // the i32 accumulator from below. The depth below drives
        // k·ACT_MAX·(-4) past i32::MIN while k·ACT_MAX·0 stays 0.
        let k = (-(i32::MIN as i64) as usize) / (ACT_MAX as usize * 4) + 1;
        assert!(
            check_acc_bounds(NodeId(0), k, ACT_MAX, -4, 4).is_err(),
            "symmetric range overflows both sides"
        );
        match check_acc_bounds(NodeId(5), k, ACT_MAX, -4, 0) {
            Err(InferError::QuantOverflow {
                node: 5,
                k: got,
                max_acc,
            }) => {
                assert_eq!(got, k);
                assert!(
                    max_acc < i32::MIN as i64,
                    "the reported worst case is the negative bound, got {max_acc}"
                );
            }
            other => panic!("expected underflow rejection, got {other:?}"),
        }
        // Sanity: the same depth with the mirror-image range [0, 4]
        // still overflows (positive side), and a benign depth passes.
        assert!(check_acc_bounds(NodeId(0), k, ACT_MAX, 0, 4).is_err());
        assert!(check_acc_bounds(NodeId(0), 1 << 20, ACT_MAX, -4, 0).is_ok());
    }

    #[test]
    fn plan_view_projection_is_faithful() {
        use gcd2_verify::{InferPlanView, StepRole};
        let g = kitchen_sink();
        let compiled = Compiler::new().compile(&g);
        let plan = compiled.inference_plan(9);
        let view: &dyn InferPlanView = &plan;
        assert_eq!(view.step_count(), plan.steps());
        assert_eq!(view.input_len(), plan.input_len());
        assert_eq!(view.output_len(), plan.output_len());
        assert_eq!(view.act_max(), ACT_MAX);
        let mut gemms = 0;
        for i in 0..view.step_count() {
            let s = view.step(i);
            assert_eq!(s.index, i);
            assert_eq!(
                (s.in_layout, s.out_layout),
                (plan.steps[i].in_layout, plan.steps[i].out_layout)
            );
            if let StepRole::Gemm(f) = s.role {
                gemms += 1;
                // The view recomputes the policy shift from k rather
                // than echoing the stored shift; on a clean plan they
                // agree.
                assert_eq!(f.shift, f.policy_shift);
                assert_eq!(f.policy_shift, gemm_shift(f.k));
                // Column aggregates are bounded by the weight range.
                assert!(f.col_pos_max <= (f.k as i64) * WGT_MAX as i64);
                assert!(f.col_neg_min >= -(f.k as i64) * WGT_MAX as i64);
            }
        }
        assert!(gemms >= 3, "kitchen sink stages conv, dw, fc: {gemms}");
    }

    #[test]
    fn mutations_apply_and_restamp_checksum() {
        let g = kitchen_sink();
        let compiled = Compiler::new().compile(&g);
        for m in [
            PlanMutation::SwapSlots,
            PlanMutation::ShrinkSlot,
            PlanMutation::BumpShift,
            PlanMutation::ForgeMap,
            PlanMutation::FlipWeight { matmul: true },
            PlanMutation::FlipWeight { matmul: false },
            PlanMutation::FlipLayout { step: 1, out: true },
        ] {
            let mut plan = compiled.inference_plan(3);
            let pristine = plan.checksum;
            assert!(plan.mutate_for_test(m), "{m:?} found no site");
            assert_ne!(plan.checksum, pristine, "{m:?} must alter the plan");
            // The stamp is re-computed after corruption: the runtime's
            // integrity gate cannot catch these — only the analyzer.
            assert_eq!(plan.checksum, plan.integrity_checksum(), "{m:?}");
        }
    }

    #[test]
    fn try_execute_rejects_wrong_input_shape() {
        let g = kitchen_sink();
        let compiled = Compiler::new().compile(&g);
        let plan = compiled.inference_plan(1);
        let err = plan.try_execute(&[0u8; 3]).unwrap_err();
        assert_eq!(
            err,
            InferError::InputShape {
                expected: plan.input_len(),
                got: 3
            }
        );
        // Over one reused arena it fails that input alone: the arena
        // runs the next input as if nothing had happened.
        let good: Vec<u8> = (0..4 * 144).map(|i| (i % 16) as u8).collect();
        let batch = [good.clone(), vec![1, 2, 3], good.clone()];
        let mut arena = plan.new_arena();
        let opts = ExecOptions::default();
        let results: Vec<_> = batch
            .iter()
            .map(|x| run_over(&plan, &mut arena, x, &opts))
            .collect();
        assert_eq!(results[0], Ok(plan.execute(&good)));
        assert!(matches!(results[1], Err(InferError::InputShape { .. })));
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn arenas_are_stamped_and_rejected_across_plans() {
        let g = kitchen_sink();
        let compiled = Compiler::new().compile(&g);
        let plan_a = compiled.inference_plan(1);
        let plan_b = compiled.inference_plan(2);
        assert_ne!(plan_a.checksum(), plan_b.checksum(), "seeds differ");
        let input: Vec<u8> = (0..4 * 144).map(|i| (i % 16) as u8).collect();
        let mut arena = plan_a.new_arena();
        let mut out = Vec::new();
        plan_a
            .try_execute_into(&input, &mut arena, &mut out, &ExecOptions::default())
            .expect("matching arena executes");
        let err = plan_b
            .try_execute_into(&input, &mut arena, &mut out, &ExecOptions::default())
            .unwrap_err();
        assert_eq!(
            err,
            InferError::ArenaMismatch {
                plan: plan_b.checksum(),
                arena: plan_a.checksum(),
            }
        );
        // A default (unstamped) arena is adopted and sized on first use.
        let mut fresh = InferArena::default();
        plan_b
            .try_execute_into(&input, &mut fresh, &mut out, &ExecOptions::default())
            .expect("unstamped arena is adopted");
        assert_eq!(out, plan_b.execute(&input));
    }

    #[test]
    fn integrity_checksum_is_stable_and_verifiable() {
        let g = kitchen_sink();
        let compiled = Compiler::new().compile(&g);
        let plan = compiled.inference_plan(0xBEEF);
        let again = compiled.inference_plan(0xBEEF);
        assert_eq!(plan.checksum(), again.checksum(), "build is deterministic");
        plan.verify_integrity().expect("untampered plan verifies");
        let input: Vec<u8> = (0..4 * 144).map(|i| (i % 16) as u8).collect();
        assert_eq!(
            run_into(&plan, &input, &ExecOptions::default()).expect("verified plan runs"),
            plan.execute(&input),
        );
    }

    /// `g`'s weights with `mask` xored into byte `at` of the row-major
    /// matrix, where its panel holds that weight — the plan's weights
    /// digest left as it was.
    fn flip_weight(g: &mut GemmStep, at: usize, mask: u8) {
        let byte = g.panel.weight_offset_for_test(at / g.n, at % g.n);
        assert!(g.panel.corrupt_for_test(byte, mask));
    }

    /// One weight byte, wherever it sits — the first, a middle and the
    /// last GEMM of the plan; the first byte, a 32-byte stripe boundary
    /// and the last byte of each — fails the plan's own check, the
    /// re-hash of a load that re-encoded it, and the section checksum of
    /// an artifact it was flipped in.
    #[test]
    fn a_flipped_weight_byte_anywhere_fails_integrity_and_load() {
        use crate::artifact::{decode, encode, SEC_WEIGHTS};
        use crate::Gcd2Error;
        use gcd2_artifact::{Artifact, ArtifactError};

        let compiled = Compiler::new().compile(&kitchen_sink());
        let pristine = compiled.inference_plan(0xBEEF);
        let bytes = encode(&compiled, &pristine, "sink").expect("encode");
        // Where the payloads and the WEIGHTS section start in `bytes`.
        let (payloads_at, weights_at) = {
            let art = Artifact::decode(&bytes).expect("container");
            let at = |section: &[u8]| section.as_ptr() as usize - bytes.as_ptr() as usize;
            (
                at(art.sections[0].bytes),
                at(art.section(SEC_WEIGHTS).expect("weights section")),
            )
        };
        let payloads = payloads_at..bytes.len() - 8;
        let gemm_steps: Vec<usize> = (0..pristine.steps.len())
            .filter(|&i| matches!(pristine.steps[i].kind, StepKind::Gemm(_)))
            .collect();
        assert_eq!(gemm_steps.len(), 3, "conv, depthwise, fc");
        // Where each panel starts in the section: the weights image.
        let layout = pristine.weights_layout();
        for (&index, entry) in gemm_steps.iter().zip(&layout.panels) {
            let StepKind::Gemm(g) = &pristine.steps[index].kind else {
                unreachable!("filtered above");
            };
            let len = g.k * g.n;
            for at in [0, 32.min(len - 1), len - 1] {
                let mut plan = pristine.clone();
                if let StepKind::Gemm(g) = &mut plan.steps[index].kind {
                    flip_weight(g, at, 1);
                }
                assert!(
                    matches!(
                        plan.verify_integrity(),
                        Err(InferError::IntegrityViolation { expected, got })
                            if expected == pristine.checksum() && got != expected
                    ),
                    "step {index}, byte {at}"
                );
                let reencoded = encode(&compiled, &plan, "sink").expect("encode");
                assert!(
                    matches!(
                        decode(&reencoded),
                        Err(Gcd2Error::Artifact(ArtifactError::IntegrityMismatch { .. }))
                    ),
                    "step {index}, byte {at}: re-encoded"
                );
                // The same flip made in the pristine artifact's bytes: it
                // lands on that weight, under a table that still holds
                // the pristine section checksum.
                let mut flipped = bytes.clone();
                flipped
                    [weights_at + entry.at + g.panel.weight_offset_for_test(at / g.n, at % g.n)] ^=
                    1;
                assert_eq!(
                    flipped[payloads.clone()],
                    reencoded[payloads.clone()],
                    "step {index}, byte {at}: the flip is that weight"
                );
                assert!(
                    matches!(
                        decode(&flipped),
                        Err(Gcd2Error::Artifact(ArtifactError::SectionChecksum {
                            section: SEC_WEIGHTS,
                            ..
                        }))
                    ),
                    "step {index}, byte {at}: flipped in place"
                );
            }
        }
    }

    /// Every byte a step holds is covered by `verify_integrity`: on every
    /// tier the host supports (the scalar pin included), a flip of any one
    /// byte of any GEMM step's panel — weight or padding, the quads of
    /// the FC's ragged 12-row k-tile and 8-column strip, which every tier
    /// reads — and of the row-major
    /// bytes of the direct conv and the depthwise step is refused, with
    /// the checksum, which folds in the weights digest, unmoved.
    #[test]
    fn every_flipped_byte_of_every_form_fails_integrity() {
        let compiled = Compiler::new().compile(&kitchen_sink());
        let check = |tier: &str| {
            let mut plan = compiled.inference_plan(0xBEEF);
            plan.verify_integrity().expect("pristine");
            let gemm_steps: Vec<usize> = (0..plan.steps.len())
                .filter(|&i| matches!(plan.steps[i].kind, StepKind::Gemm(_)))
                .collect();
            for index in gemm_steps {
                let bytes = match &plan.steps[index].kind {
                    StepKind::Gemm(g) => g.panel.bytes(),
                    _ => unreachable!("filtered above"),
                };
                for byte in 0..bytes {
                    for mask in [1u8, 0x80] {
                        let flip = |plan: &mut InferencePlan| match &mut plan.steps[index].kind {
                            StepKind::Gemm(g) => g.panel.corrupt_for_test(byte, mask),
                            _ => false,
                        };
                        assert!(flip(&mut plan));
                        assert_eq!(plan.checksum, plan.integrity_checksum());
                        assert!(
                            matches!(
                                plan.verify_integrity(),
                                Err(InferError::IntegrityViolation { .. })
                            ),
                            "{tier}: step {index}, byte {byte} ^ {mask:#x}"
                        );
                        flip(&mut plan);
                    }
                }
            }
            plan.verify_integrity().expect("restored");
        };
        for isa in tiers() {
            let _pin = gcd2_kernels::pin_isa(isa);
            check(isa.name());
        }
    }

    /// The panel is what executes and what integrity covers: the top
    /// bit of weight `(0, 0)` flipped in it changes the answer of an
    /// unverified run and is refused by a verified one.
    #[test]
    fn a_flipped_panel_byte_changes_the_answer_and_fails_integrity() {
        // A conv straight to the output, so weight (0, 0) — the byte the
        // corruption flips — reaches an output byte unfiltered.
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 4, 12, 12));
        g.add(
            OpKind::Conv2d {
                out_channels: 32,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[x],
            "conv",
        );
        let mut plan = Compiler::new().compile(&g).inference_plan(11);
        let input = vec![15u8; 4 * 144];
        let pristine = plan.execute(&input);
        let Some(StepKind::Gemm(conv)) = plan.steps.last_mut().map(|s| &mut s.kind) else {
            panic!("the conv is the last step");
        };
        flip_weight(conv, 0, 0x80);
        assert_eq!(plan.checksum(), plan.integrity_checksum(), "digest intact");
        assert!(matches!(
            plan.verify_integrity(),
            Err(InferError::IntegrityViolation { expected, got })
                if expected == plan.checksum() && got != expected
        ));
        assert_ne!(
            plan.execute(&input),
            pristine,
            "the GEMM reads the resident panel"
        );
    }

    #[test]
    fn deadline_zero_is_exceeded_structurally() {
        let g = kitchen_sink();
        let compiled = Compiler::new().compile(&g);
        let plan = compiled.inference_plan(5);
        let input: Vec<u8> = (0..4 * 144).map(|i| (i % 16) as u8).collect();
        // A zero deadline cannot cover even one step boundary check on
        // any clock; the run is abandoned structurally, not by panic.
        let opts = ExecOptions {
            deadline: Some(Duration::ZERO),
        };
        match run_into(&plan, &input, &opts) {
            Err(InferError::DeadlineExceeded { elapsed, deadline }) => {
                assert_eq!(deadline, Duration::ZERO);
                assert!(elapsed >= deadline);
            }
            // Duration::ZERO elapsed can tie the deadline on a coarse
            // clock tick; a completed run must then be correct.
            Ok(out) => assert_eq!(out, plan.execute(&input)),
            Err(e) => panic!("unexpected error: {e}"),
        }
        // An abandoned run leaves its arena stamped and usable: the
        // next run over it, without a deadline, is correct.
        let mut arena = plan.new_arena();
        for _ in 0..3 {
            match run_over(&plan, &mut arena, &input, &opts) {
                Err(InferError::DeadlineExceeded { deadline, .. }) => assert!(deadline.is_zero()),
                r => assert_eq!(r, Ok(plan.execute(&input))),
            }
        }
        assert_eq!(arena.stamp, Some(plan.checksum()));
        assert_eq!(
            run_over(&plan, &mut arena, &input, &ExecOptions::default()),
            Ok(plan.execute(&input)),
            "the arena outlives an abandoned run"
        );
    }

    /// Every GEMM step of a timed run is reported once: a wide conv in
    /// `gemm_kernels`; a conv too narrow for the dispatcher, a depthwise
    /// conv and a pool in `direct_kernels`, with their multiply-
    /// accumulates (`m·k·n`, `m·k`, none).
    #[test]
    fn every_gemm_step_is_reported_once_with_its_macs() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 4, 12, 12));
        let conv = |out_channels| OpKind::Conv2d {
            out_channels,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        };
        let wide = g.add(conv(32), &[x], "wide");
        let narrow = g.add(conv(6), &[wide], "narrow");
        let dw = g.add(
            OpKind::DepthwiseConv2d {
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[narrow],
            "dw",
        );
        g.add(
            OpKind::MaxPool {
                kernel: (2, 2),
                stride: (2, 2),
            },
            &[dw],
            "pool",
        );
        let plan = Compiler::new().compile(&g).inference_plan(3);
        let input: Vec<u8> = (0..4 * 144).map(|i| (i % 16) as u8).collect();
        let (_, report) = plan
            .try_execute_timed(&input, &mut plan.new_arena(), &ExecOptions::default())
            .expect("timed run");
        let name = |node: NodeId| {
            plan.steps
                .iter()
                .find(|s| s.node == node)
                .map(|s| &s.name[..])
        };
        let gemms: Vec<_> = report
            .gemm_kernels
            .iter()
            .map(|k| (k.name.as_str(), k.m * k.k * k.n))
            .collect();
        assert_eq!(gemms, [("wide", 144 * 36 * 32)]);
        let direct: Vec<_> = report
            .direct_kernels
            .iter()
            .map(|k| (name(k.node), k.macs))
            .collect();
        assert_eq!(
            direct,
            [
                (Some("narrow"), 144 * 288 * 6),
                (Some("dw"), 6 * 144 * 9),
                (Some("pool"), 0)
            ]
        );
    }

    #[test]
    fn timed_execution_reports_stages() {
        let g = kitchen_sink();
        let compiled = Compiler::new().compile(&g);
        let plan = compiled.inference_plan(3);
        let input: Vec<u8> = (0..4 * 144).map(|i| (i % 16) as u8).collect();
        let mut arena = plan.new_arena();
        let (out, report) = plan
            .try_execute_timed(&input, &mut arena, &ExecOptions::default())
            .expect("timed run");
        assert_eq!(out, execute_reference(&compiled, &input, 3));
        assert_eq!(report.per_op.len(), plan.steps());
        assert!(report.total >= report.gemm);
        assert!(report.per_op.iter().any(|t| t.op.starts_with("Conv2d")));
    }

    /// The tier whose multiply instructions run an `m`-row, `n`-column
    /// GEMM dispatched on `tier`, restated from the kernels' rule: the
    /// AMX tile grid needs 16 rows, the AVX2 strips 8 columns.
    fn multiplier(tier: KernelIsa, m: usize, n: usize) -> KernelIsa {
        match tier {
            KernelIsa::AmxInt8 if m < 16 => KernelIsa::Avx512Vnni,
            KernelIsa::Avx2 if n < 8 => KernelIsa::Scalar,
            tier => tier,
        }
    }

    #[test]
    fn skinny_fc_stays_on_the_active_tier_with_its_resident_panel() {
        // A wide conv, then one-row FC heads of 12, 5 and 8 columns: with
        // a resident panel even a one-row GEMM runs where the conv runs
        // — 12 and 5 columns on the VNNI strips' narrow kernel on an
        // AVX-512 tier, 12 on the AVX2 strips' padded strip — except
        // that the AVX2 tier hands 5 columns to the scalar oracle, which
        // reads the same quad panel.
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 4, 12, 12));
        let conv = g.add(
            OpKind::Conv2d {
                out_channels: 32,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[x],
            "conv",
        );
        let gap = g.add(OpKind::GlobalAvgPool, &[conv], "gap");
        let flat = g.add(
            OpKind::Reshape {
                shape: TShape::new(vec![1, 32]),
            },
            &[gap],
            "flat",
        );
        let fc12 = g.add(OpKind::MatMul { n: 12 }, &[flat], "fc12");
        let fc5 = g.add(OpKind::MatMul { n: 5 }, &[fc12], "fc5");
        g.add(OpKind::MatMul { n: 8 }, &[fc5], "fc");
        let compiled = Compiler::new().compile(&g);
        let input: Vec<u8> = (0..4 * 144).map(|i| (i % 16) as u8).collect();
        let want = execute_reference(&compiled, &input, 9);
        for tier in tiers() {
            let _pin = gcd2_kernels::pin_isa(tier);
            let plan = compiled.inference_plan(9);
            let (out, report) = plan
                .try_execute_timed(&input, &mut plan.new_arena(), &ExecOptions::default())
                .expect("timed run");
            assert_eq!(out, want, "{tier}");
            assert_eq!(report.kernel_isa, tier.name());
            let shapes: Vec<_> = report.gemm_kernels.iter().map(|g| (g.m, g.n)).collect();
            assert_eq!(shapes, [(144, 32), (1, 12), (1, 5), (1, 8)], "{tier}");
            for g in &report.gemm_kernels {
                assert_eq!(g.isa, multiplier(tier, g.m, g.n), "{tier} {}", g.name);
            }
        }
    }

    /// A plan filled on the detected tier runs under every tier the host
    /// supports (`pin_isa`, the scalar pin included) from its one copy of
    /// the weights and answers the interpreter's bytes: every GEMM's
    /// panel is the quad panel every tier reads.
    #[test]
    fn a_plan_runs_on_every_tier_from_its_one_copy() {
        let compiled = Compiler::new().compile(&staging_net());
        let plan = compiled.inference_plan(5);
        let input: Vec<u8> = (0..4 * 144).map(|i| (i * 7 % 16) as u8).collect();
        let want = execute_reference(&compiled, &input, 5);
        let gemms = plan
            .steps
            .iter()
            .filter(|step| matches!(&step.kind, StepKind::Gemm(g) if g.runs_matmul()))
            .count();
        assert_eq!(gemms, 8);
        for tier in tiers() {
            let _pin = gcd2_kernels::pin_isa(tier);
            let (out, report) = plan
                .try_execute_timed(&input, &mut plan.new_arena(), &ExecOptions::default())
                .expect("every tier reads the plan's panels");
            assert_eq!(out, want, "{tier}");
            assert_eq!(report.gemm_kernels.len(), gemms, "{tier}");
        }
    }

    /// resnet-50's 13 stride-1 3×3 convs — every `.conv2` but the
    /// strided first of stages 1–3 — hand their GEMM an im2col view of
    /// the padded rows: the AMX tile grid reads it in place (`a=view`,
    /// its blocking derived for the view's virtual rows), every other
    /// tier gathers it (`a=im2col`, as the strided convs and the CHW
    /// stem always are), and the answer is the same bytes on every tier.
    #[test]
    fn stride_1_convs_hand_the_gemm_a_view() {
        use gcd2_models::ModelId;
        let compiled = Compiler::new().compile(&ModelId::ResNet50.build());
        let mut answers = Vec::new();
        for tier in tiers() {
            let _pin = gcd2_kernels::pin_isa(tier);
            let plan = compiled.inference_plan(7);
            let input: Vec<u8> = (0..plan.input_len()).map(|i| (i * 7 % 16) as u8).collect();
            let (out, report) = plan
                .try_execute_timed(&input, &mut plan.new_arena(), &ExecOptions::default())
                .expect("timed run");
            answers.push(out);
            let named = |form: OperandForm| -> Vec<&str> {
                report
                    .gemm_kernels
                    .iter()
                    .filter(|g| g.operand == form)
                    .map(|g| g.name.as_str())
                    .collect()
            };
            let (views, gathered) = (named(OperandForm::View), named(OperandForm::Im2col));
            let stride_1 = |name: &&str| {
                name.ends_with(".conv2") && (name.starts_with("s0.") || !name.contains(".b0."))
            };
            let amx = tier == KernelIsa::AmxInt8;
            assert_eq!(views.len(), if amx { 13 } else { 0 }, "{tier}: {views:?}");
            assert!(views.iter().all(stride_1), "{tier}: {views:?}");
            assert_eq!(
                gathered.len(),
                if amx { 7 } else { 20 },
                "{tier}: {gathered:?}"
            );
            assert_eq!(
                gathered.iter().filter(|name| stride_1(name)).count(),
                if amx { 0 } else { 13 },
                "{tier}: {gathered:?}"
            );
        }
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "every tier's bytes"
        );
    }

    /// The three models the cold start loads keep one copy of their
    /// weights: every GEMM step holds exactly one form, the packed
    /// panels' padding keeps the total within 10 % of the weights, a run
    /// completes — and a plan built under a scalar pin holds the same
    /// panels byte for byte, with the same resident bytes.
    #[test]
    fn the_cold_start_models_keep_one_copy_of_their_weights() {
        use gcd2_models::ModelId;
        for model in [ModelId::MobileNetV3, ModelId::ResNet50, ModelId::TinyBert] {
            let compiled = Compiler::new().compile(&model.build());
            let one_form = |plan: &InferencePlan| {
                plan.steps.iter().all(|step| match &step.kind {
                    StepKind::Gemm(g) => g.panel.padding_is_clean(),
                    _ => true,
                })
            };
            let plan = compiled.inference_plan(7);
            assert!(one_form(&plan), "{model}");
            let (panels, row_major) = plan.resident_weight_bytes();
            assert!(panels + row_major >= plan.weight_bytes(), "{model}");
            assert!(
                (panels + row_major) as f64 <= 1.1 * plan.weight_bytes() as f64,
                "{model}: {panels} + {row_major} of {}",
                plan.weight_bytes()
            );
            let input = vec![3u8; plan.input_len()];
            let (_, report) = plan
                .try_execute_timed(&input, &mut plan.new_arena(), &ExecOptions::default())
                .expect("timed run");
            assert!(!report.gemm_kernels.is_empty());
            let _pin = gcd2_kernels::pin_isa(KernelIsa::Scalar);
            let pinned = compiled.inference_plan(7);
            assert!(one_form(&pinned), "{model} pinned");
            assert_eq!(
                pinned.resident_weight_bytes(),
                (panels, row_major),
                "{model} pinned"
            );
            let gemm_panels = |plan: &InferencePlan| -> Vec<WeightPanel> {
                plan.steps
                    .iter()
                    .filter_map(|step| match &step.kind {
                        StepKind::Gemm(g) => Some(g.panel.clone()),
                        _ => None,
                    })
                    .collect()
            };
            assert!(
                gemm_panels(&pinned) == gemm_panels(&plan),
                "{model}: the scalar pin's panels are the detected tier's"
            );
        }
    }
}
