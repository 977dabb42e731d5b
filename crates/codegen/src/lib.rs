//! # gcd2-codegen — lowering plan assignments to DSP programs
//!
//! The back half of the paper's Figure 6 workflow: given a computational
//! graph and the execution-plan assignment chosen by the global
//! optimizer, emit the complete instruction-stream [`Program`] — kernel
//! blocks per operator, layout-transformation blocks on every edge whose
//! endpoint layouts disagree — then schedule every block with a VLIW
//! packer. The result carries per-operator reports so the evaluation
//! harness can attribute cycles the way the paper's figures do.

use gcd2_cgraph::{Graph, Node, NodeId, OpKind};
use gcd2_globalopt::{
    matrix_view, op_ew_kind, op_extra_passes, Assignment, ExecutionPlan, PlanKind, PlanSet,
};
use gcd2_hvx::{Block, ExecStats, PackedBlock, Program, SReg};
use gcd2_kernels::{
    adaptive_unroll, depthwise_vtmpy_blocks, elementwise_blocks, im2col_overhead_cycles,
    timing_blocks, EwKind,
};
use gcd2_tensor::transform_block;
use gcd2_vliw::{CacheStats, PackMemo, Packer, SoftDepPolicy};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why [`try_lower`] failed.
#[derive(Debug, Clone)]
pub enum LowerError {
    /// The assignment's choice vector does not cover the graph.
    AssignmentMismatch {
        /// Nodes in the graph.
        graph_nodes: usize,
        /// Entries in the assignment.
        choices: usize,
    },
    /// The in-lowering verifier rejected the emitted program.
    Verify {
        /// Error-level diagnostics found.
        errors: usize,
        /// The rendered verifier report.
        report: String,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::AssignmentMismatch {
                graph_nodes,
                choices,
            } => write!(
                f,
                "assignment must cover the graph ({graph_nodes} nodes, {choices} choices)"
            ),
            LowerError::Verify { errors, report } => write!(
                f,
                "verifier rejected the lowered program ({errors} errors):\n{report}"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// How blocks are scheduled into packets.
#[derive(Debug, Clone, Default)]
pub enum PackMode {
    /// SDA packing (Algorithm 1).
    #[default]
    Sda,
    /// The `soft_to_hard` ablation (what LLVM-backed baselines do).
    SoftToHard,
    /// The `soft_to_none` ablation.
    SoftToNone,
    /// No packing at all: one instruction per packet.
    Sequential,
}

impl PackMode {
    /// The packer's soft-dependency policy (`None`: no packing).
    pub fn policy(&self) -> Option<SoftDepPolicy> {
        match self {
            PackMode::Sda => Some(SoftDepPolicy::Sda),
            PackMode::SoftToHard => Some(SoftDepPolicy::SoftToHard),
            PackMode::SoftToNone => Some(SoftDepPolicy::SoftToNone),
            PackMode::Sequential => None,
        }
    }
}

/// Lowering configuration.
#[derive(Debug, Clone)]
pub struct LowerOptions {
    /// Scheduling policy.
    pub pack: PackMode,
    /// Enable the division/nonlinearity lookup-table replacement
    /// ("other optimizations" of Figure 9). Must match the flag used
    /// when enumerating plans.
    pub lut_ops: bool,
    /// Packet resource model of the target DSP generation.
    pub resource: gcd2_hvx::ResourceModel,
    /// Run the [`gcd2_verify`] passes over the inputs and the emitted
    /// program, panicking on any error-level diagnostic. Defaults to on
    /// in debug builds (including tests) and off in release builds.
    pub verify: bool,
    /// The structural packing memo the blocks are packed through
    /// (identical blocks pack once). A fresh one by default; a caller
    /// may pass a memo another packer of the same configuration (policy
    /// and resource model) filled, and must not pass any other.
    pub pack_memo: Arc<PackMemo>,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            pack: PackMode::default(),
            lut_ops: false,
            resource: gcd2_hvx::ResourceModel::default(),
            verify: cfg!(debug_assertions),
            pack_memo: Arc::default(),
        }
    }
}

impl LowerOptions {
    /// The full GCD2 configuration: SDA packing + lookup optimizations
    /// on the default (Hexagon-698-class) resource model.
    pub fn gcd2() -> Self {
        LowerOptions {
            pack: PackMode::Sda,
            lut_ops: true,
            ..LowerOptions::default()
        }
    }
}

/// Per-operator lowering report.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// The graph node.
    pub node: NodeId,
    /// Operator name.
    pub name: String,
    /// The chosen plan; its `Display` renders it for humans
    /// (`vmpy/1-column`, ...).
    pub plan: ExecutionPlan,
    /// Cycles spent in this operator's kernels (excluding transforms).
    pub kernel_cycles: u64,
    /// Cycles spent transforming this operator's inputs.
    pub transform_cycles: u64,
}

/// A fully lowered and scheduled model.
#[derive(Debug, Clone)]
pub struct LoweredModel {
    /// The scheduled program (kernels + transforms, in topological order).
    pub program: Program,
    /// Per-operator attribution.
    pub reports: Vec<OpReport>,
    /// Time the packer spent computing schedules: this lowering's share
    /// of its memo's [`PackMemo::miss_time`] (a hit is a lookup, counted
    /// in the lowering wall clock only).
    pub pack_cpu: Duration,
    /// Wall-clock time of the in-lowering verification pass (zero when
    /// verification is disabled).
    pub verify_cpu: Duration,
    /// Hit/miss counters of this lowering's lookups in its packing memo
    /// (zeros when the pack mode is `Sequential`).
    pub pack_memo: CacheStats,
}

impl LoweredModel {
    /// Whole-model execution statistics (static costing; see
    /// [`gcd2_hvx::Program::stats`]).
    pub fn stats(&self) -> ExecStats {
        self.program.stats()
    }

    /// End-to-end cycles.
    pub fn cycles(&self) -> u64 {
        self.program.cycles()
    }

    /// Static packet count (the Figure 7 right-hand metric).
    pub fn static_packets(&self) -> u64 {
        self.program.static_packets()
    }

    /// Total cycles spent in layout transformations.
    pub fn transform_cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.transform_cycles).sum()
    }
}

/// Packs `block` with the lowering's packer, or in program order when
/// the pack mode is `Sequential` (`packer` is `None`).
fn pack(packer: Option<&Packer>, block: &Block) -> PackedBlock {
    match packer {
        Some(p) => p.pack_block(block),
        None => PackedBlock::sequential(block),
    }
}

/// Emits a block approximating the implicit-im2col address-generation
/// overhead of non-1×1 convolutions.
fn im2col_block(cycles: u64) -> Option<Block> {
    if cycles == 0 {
        return None;
    }
    // A load+bump body costs ~6 cycles per trip sequentially; size the
    // trip count to charge roughly `cycles`.
    let mut b = Block::with_trip_count("im2col address generation", cycles.div_ceil(6).max(1));
    b.push(gcd2_hvx::Insn::VLoad {
        dst: gcd2_hvx::VReg::new(0),
        base: SReg::new(0),
        offset: 0,
    });
    b.push(gcd2_hvx::Insn::AddI {
        dst: SReg::new(0),
        a: SReg::new(0),
        imm: 128,
    });
    Some(b)
}

/// Lowers one operator node: its input-edge layout transforms followed
/// by its kernel blocks, all packed. The caller assembles the per-node
/// block lists in topological order.
fn lower_node(
    graph: &Graph,
    plans: &PlanSet,
    assignment: &Assignment,
    options: &LowerOptions,
    packer: Option<&Packer>,
    node: &Node,
) -> (Vec<PackedBlock>, OpReport) {
    let plan = &plans.of(node.id)[assignment.choice[node.id.0]];
    let mut blocks: Vec<PackedBlock> = Vec::new();
    let mut transform_cycles = 0u64;

    // Edge transforms: convert each input that is in the wrong layout.
    for &pred in graph.preds(node.id) {
        let from = plans.of(pred)[assignment.choice[pred.0]].layout;
        if from == plan.layout {
            continue;
        }
        let (rows, cols) = matrix_view(&graph.node(pred).shape);
        let tb = transform_block(rows, cols, from, plan.layout, SReg::new(0), SReg::new(1));
        if !tb.is_empty() {
            let packed = pack(packer, &tb);
            transform_cycles += packed.body_cycles() * packed.trip_count;
            blocks.push(packed);
        }
    }

    // The operator's own kernels.
    let mut kernel_blocks: Vec<Block> = Vec::new();
    if node.kind.is_gemm_like() && !matches!(plan.kind, PlanKind::Passthrough) {
        match plan.kind {
            PlanKind::Gemm(instr) => {
                let Some(gemm) = graph.gemm_dims(node.id) else {
                    unreachable!(
                        "plan enumeration only assigns GEMM plans to nodes with a GEMM view \
                         (node {} has none)",
                        node.id
                    );
                };
                let kernel = match node.kind {
                    OpKind::Conv2d { kernel, .. } | OpKind::DepthwiseConv2d { kernel, .. } => {
                        kernel
                    }
                    OpKind::ConvTranspose2d { kernel, .. } => kernel,
                    _ => (1, 1),
                };
                if let Some(b) = im2col_block(im2col_overhead_cycles(&gemm, kernel)) {
                    kernel_blocks.push(b);
                }
                kernel_blocks.extend(timing_blocks(&gemm, instr, adaptive_unroll(&gemm, instr)));
            }
            PlanKind::DepthwiseVtmpy => {
                let kh = match node.kind {
                    OpKind::DepthwiseConv2d { kernel, .. } => kernel.0,
                    _ => 3,
                };
                kernel_blocks.extend(depthwise_vtmpy_blocks(node.shape.elems(), kh));
            }
            PlanKind::Passthrough => {
                unreachable!("passthrough plans are routed to the elementwise path above")
            }
        }
        // Fused non-ReLU activations add a nonlinearity pass:
        // lookup-based when the optimization is on, scalar otherwise.
        if let Some(gcd2_cgraph::Activation::HardSwish) = node.fused_activation {
            let ew = if options.lut_ops {
                EwKind::LutUnary
            } else {
                EwKind::ScalarUnary
            };
            kernel_blocks.extend(elementwise_blocks(ew, node.shape.elems()));
        }
    } else {
        let elems = node.shape.elems();
        let ew = if node.kind.is_layout_transform() {
            EwKind::Copy
        } else {
            op_ew_kind(&node.kind, options.lut_ops)
        };
        // Spatial operators pay a layout-dependent gather factor
        // (see gcd2_globalopt::spatial_layout_factor).
        let factor = gcd2_globalopt::spatial_layout_factor(&node.kind, plan.layout);
        for mut b in elementwise_blocks(ew, elems) {
            b.trip_count = (b.trip_count as f64 * factor).ceil() as u64;
            kernel_blocks.push(b);
        }
        for pass in op_extra_passes(&node.kind, options.lut_ops) {
            kernel_blocks.extend(elementwise_blocks(pass, elems));
        }
    }

    let mut kernel_cycles = 0u64;
    for b in &kernel_blocks {
        let packed = pack(packer, b);
        kernel_cycles += packed.body_cycles() * packed.trip_count;
        blocks.push(packed);
    }
    // The kernel dispatch overhead the cost model charges.
    kernel_cycles += gcd2_kernels::KERNEL_DISPATCH_CYCLES;

    let report = OpReport {
        node: node.id,
        name: node.name.clone(),
        plan: *plan,
        kernel_cycles,
        transform_cycles,
    };
    (blocks, report)
}

/// Lowers `graph` under `assignment` into a scheduled [`LoweredModel`].
///
/// Operators are lowered and packed in topological order on the calling
/// thread. The verifier (when enabled) runs once, over the fully
/// assembled program.
///
/// # Panics
/// Panics if the assignment does not cover the graph, lowering an
/// operator fails persistently, or the verifier rejects the program.
/// [`try_lower`] is the non-panicking form.
pub fn lower(
    graph: &Graph,
    plans: &PlanSet,
    assignment: &Assignment,
    options: &LowerOptions,
) -> LoweredModel {
    match try_lower(graph, plans, assignment, options) {
        Ok(model) => model,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`lower`]: returns a [`LowerError`] instead of
/// panicking on bad input or verifier rejection.
pub fn try_lower(
    graph: &Graph,
    plans: &PlanSet,
    assignment: &Assignment,
    options: &LowerOptions,
) -> Result<LoweredModel, LowerError> {
    if assignment.choice.len() != graph.len() {
        return Err(LowerError::AssignmentMismatch {
            graph_nodes: graph.len(),
            choices: assignment.choice.len(),
        });
    }
    // One configured packer, with its structural memo, serves every
    // operator.
    let packer = options.pack.policy().map(|policy| {
        Packer::new()
            .with_model(options.resource.clone())
            .with_policy(policy)
            .with_memo(options.pack_memo.clone())
    });
    let memo_before = (options.pack_memo.stats(), options.pack_memo.miss_time());
    let op_nodes = graph
        .nodes()
        .iter()
        .filter(|n| !matches!(n.kind, OpKind::Input | OpKind::Constant));
    let mut program = Program::new();
    let mut reports = Vec::new();
    for node in op_nodes {
        let (blocks, report) = lower_node(graph, plans, assignment, options, packer.as_ref(), node);
        for b in blocks {
            program.push(b);
        }
        reports.push(report);
    }

    // Account dispatch overheads as idle cycles in a synthetic block so
    // program.stats() matches the per-op reports.
    let dispatch_total: u64 = reports.len() as u64 * gcd2_kernels::KERNEL_DISPATCH_CYCLES;
    let mut overhead = Block::with_trip_count("kernel dispatch overhead", dispatch_total / 3);
    overhead.push(gcd2_hvx::Insn::Nop);
    program.push(PackedBlock::sequential(&overhead));

    let mut verify_cpu = Duration::ZERO;
    if options.verify {
        let t0 = Instant::now();
        let report = gcd2_verify::verify_all(graph, plans, assignment, &program, &options.resource);
        verify_cpu = t0.elapsed();
        if report.error_count() != 0 {
            return Err(LowerError::Verify {
                errors: report.error_count(),
                report: report.to_string(),
            });
        }
    }

    Ok(LoweredModel {
        program,
        reports,
        pack_cpu: options.pack_memo.miss_time().saturating_sub(memo_before.1),
        verify_cpu,
        pack_memo: options.pack_memo.stats().since(memo_before.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_cgraph::TShape;
    use gcd2_globalopt::{enumerate_plans, gcd2_select, local_optimal};
    use gcd2_kernels::CostModel;

    fn small_net() -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 48, 14, 14));
        let c1 = g.add(
            OpKind::Conv2d {
                out_channels: 48,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[x],
            "conv1",
        );
        let c2 = g.add(
            OpKind::Conv2d {
                out_channels: 48,
                kernel: (1, 1),
                stride: (1, 1),
                padding: (0, 0),
            },
            &[c1],
            "conv2",
        );
        let a = g.add(OpKind::Add, &[c2, c1], "residual");
        let _s = g.add(OpKind::Softmax, &[a], "softmax");
        g
    }

    #[test]
    fn lowering_produces_program_and_reports() {
        let g = small_net();
        let model = CostModel::new();
        let plans = enumerate_plans(&g, &model);
        let assignment = gcd2_select(&g, &plans, 13);
        let lowered = lower(&g, &plans, &assignment, &LowerOptions::gcd2());
        assert_eq!(lowered.reports.len(), g.op_count());
        assert!(lowered.cycles() > 0);
        assert!(lowered.stats().insns > 0);
    }

    #[test]
    fn lowered_cycles_track_assignment_cost() {
        // The lowered program and the optimizer's objective are built
        // from the same kernels; they must agree within tolerance.
        let g = small_net();
        let model = CostModel::new();
        let plans = enumerate_plans(&g, &model);
        let assignment = gcd2_select(&g, &plans, 13);
        let lowered = lower(&g, &plans, &assignment, &LowerOptions::gcd2());
        let lo = assignment.cost as f64 * 0.5;
        let hi = assignment.cost as f64 * 2.0;
        let got = lowered.cycles() as f64;
        assert!(
            got > lo && got < hi,
            "lowered {got} vs objective {}",
            assignment.cost
        );
    }

    #[test]
    fn better_assignments_lower_faster_programs() {
        let g = small_net();
        let model = CostModel::new();
        let plans = enumerate_plans(&g, &model);
        let local = local_optimal(&g, &plans);
        let global = gcd2_select(&g, &plans, 13);
        let l_low = lower(&g, &plans, &local, &LowerOptions::gcd2());
        let g_low = lower(&g, &plans, &global, &LowerOptions::gcd2());
        assert!(g_low.cycles() <= l_low.cycles());
    }

    #[test]
    fn sequential_packing_is_slower() {
        let g = small_net();
        let model = CostModel::new();
        let plans = enumerate_plans(&g, &model);
        let assignment = gcd2_select(&g, &plans, 13);
        let sda = lower(&g, &plans, &assignment, &LowerOptions::gcd2());
        let seq = lower(
            &g,
            &plans,
            &assignment,
            &LowerOptions {
                pack: PackMode::Sequential,
                ..LowerOptions::gcd2()
            },
        );
        assert!(seq.cycles() > sda.cycles());
        assert!(seq.static_packets() >= sda.static_packets());
    }

    #[test]
    fn soft_to_hard_packs_more_packets() {
        let g = small_net();
        let model = CostModel::new();
        let plans = enumerate_plans(&g, &model);
        let assignment = gcd2_select(&g, &plans, 13);
        let sda = lower(&g, &plans, &assignment, &LowerOptions::gcd2());
        let s2h = lower(
            &g,
            &plans,
            &assignment,
            &LowerOptions {
                pack: PackMode::SoftToHard,
                ..LowerOptions::gcd2()
            },
        );
        assert!(s2h.static_packets() >= sda.static_packets());
        assert!(s2h.cycles() >= sda.cycles());
    }

    #[test]
    fn lut_ops_speed_up_softmax_heavy_nets() {
        let g = small_net();
        let model = CostModel::new();
        let plans = enumerate_plans(&g, &model);
        let assignment = gcd2_select(&g, &plans, 13);
        let with_lut = lower(&g, &plans, &assignment, &LowerOptions::gcd2());
        let without = lower(
            &g,
            &plans,
            &assignment,
            &LowerOptions {
                lut_ops: false,
                ..LowerOptions::gcd2()
            },
        );
        assert!(without.cycles() > with_lut.cycles());
    }
}
