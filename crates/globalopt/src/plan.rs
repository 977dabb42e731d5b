//! Execution plans and the global cost objective (paper Equation 1).
//!
//! An *execution plan* `ep_i(O)` for an operator fixes the SIMD
//! instruction (for GEMM-like operators) or the pass-through layout (for
//! everything else), and with it the operator's required input layout,
//! produced output layout, and cycle cost. The total cost of a plan
//! assignment over a computational graph is
//!
//! ```text
//! Agg_Cost(G) = Σ_v Cost(ep_v) + Σ_(i,j)∈E TC(ep_i, ep_j)
//! ```
//!
//! where `TC` is the layout-transformation cost on each edge (zero when
//! the producer's output layout already matches the consumer's input
//! layout).

use gcd2_cgraph::{Graph, NodeId, OpKind, TShape};
use gcd2_kernels::{im2col_overhead_cycles, CostModel, EwKind, SimdInstr};
use gcd2_tensor::{transform_cycles, Layout};
use std::fmt;

/// The kernel family an execution plan lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// A GEMM kernel built around one of the widening multiplies.
    Gemm(SimdInstr),
    /// The dedicated depthwise 3-tap `vtmpy` kernel.
    DepthwiseVtmpy,
    /// A layout-oblivious streaming kernel (elementwise, pooling, ...).
    Passthrough,
}

/// One execution plan for one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionPlan {
    /// The kernel family (and SIMD instruction) this plan lowers to.
    pub kind: PlanKind,
    /// The layout this plan consumes *and* produces (kernels preserve
    /// their layout family; see `gcd2-kernels`).
    pub layout: Layout,
    /// `Cost(ep)` in cycles, assuming inputs are already in `layout`.
    pub cost: u64,
}

impl ExecutionPlan {
    /// The SIMD multiply instruction, for GEMM plans.
    pub fn instr(&self) -> Option<SimdInstr> {
        match self.kind {
            PlanKind::Gemm(i) => Some(i),
            _ => None,
        }
    }
}

impl fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            PlanKind::Gemm(i) => write!(f, "{i}/{} ({} cyc)", self.layout, self.cost),
            PlanKind::DepthwiseVtmpy => write!(f, "vtmpy/{} ({} cyc)", self.layout, self.cost),
            PlanKind::Passthrough => {
                write!(f, "passthrough/{} ({} cyc)", self.layout, self.cost)
            }
        }
    }
}

/// The candidate plans of every node in a graph (indexed by `NodeId`).
#[derive(Debug, Clone)]
pub struct PlanSet {
    plans: Vec<Vec<ExecutionPlan>>,
}

impl PlanSet {
    /// Plans of one node.
    pub fn of(&self, id: NodeId) -> &[ExecutionPlan] {
        &self.plans[id.0]
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// The matrix view of a tensor for layout/transform purposes: feature
/// maps are `spatial × channels`, 2-D activations are used directly,
/// anything else collapses to `elems/last × last`.
pub fn matrix_view(shape: &TShape) -> (usize, usize) {
    match shape.rank() {
        4 => (shape.spatial(), shape.channels().max(1)),
        2 => (shape.dim(0), shape.dim(1)),
        _ => {
            let last = shape.0.last().copied().unwrap_or(1).max(1);
            ((shape.elems() / last).max(1), last)
        }
    }
}

/// The compute layouts a pass-through operator can live in.
const PASS_LAYOUTS: [Layout; 3] = [Layout::Col1, Layout::Col2, Layout::Col4];

/// Enumerates the candidate execution plans of every node ("local
/// analysis of possible implementations and associated layouts",
/// Section IV-A), with the division/nonlinearity lookup-table
/// optimization enabled.
pub fn enumerate_plans(graph: &Graph, model: &CostModel) -> PlanSet {
    try_enumerate_plans(graph, model, true)
}

/// Plan enumeration, choosing between the lookup-table and the naïve
/// scalar lowering of divisions and nonlinearities (`lut_ops` is the
/// "other optimizations" toggle of the Figure 9 ablation). Nodes are
/// costed in order on the calling thread.
pub fn try_enumerate_plans(graph: &Graph, model: &CostModel, lut_ops: bool) -> PlanSet {
    let plans = graph
        .nodes()
        .iter()
        .map(|node| plans_of_node(graph, node, model, lut_ops))
        .collect();
    PlanSet { plans }
}

/// The candidate execution plans of one node.
fn plans_of_node(
    graph: &Graph,
    node: &gcd2_cgraph::Node,
    model: &CostModel,
    lut_ops: bool,
) -> Vec<ExecutionPlan> {
    {
        let elems = node.shape.elems();
        let node_plans: Vec<ExecutionPlan> = match &node.kind {
            // Sources produce framework-interchange (row-major) data.
            OpKind::Input | OpKind::Constant => {
                vec![ExecutionPlan {
                    kind: PlanKind::Passthrough,
                    layout: Layout::RowMajor,
                    cost: 0,
                }]
            }
            // A gemm-like node without a producer (possible only through
            // unchecked graph construction) has no GEMM view; it falls
            // through to the passthrough arm below instead of panicking.
            kind if kind.is_gemm_like() && graph.gemm_dims(node.id).is_some() => {
                let Some(gemm) = graph.gemm_dims(node.id) else {
                    return Vec::new();
                };
                let kernel = match kind {
                    OpKind::Conv2d { kernel, .. } | OpKind::DepthwiseConv2d { kernel, .. } => {
                        *kernel
                    }
                    OpKind::ConvTranspose2d { kernel, .. } => *kernel,
                    _ => (1, 1),
                };
                // A fused non-ReLU activation still computes its
                // nonlinearity: free through the lookup path, a scalar
                // pass without it.
                let fused_act = fused_activation_cost(model, node, lut_ops);
                let mut node_plans: Vec<ExecutionPlan> = SimdInstr::ALL
                    .into_iter()
                    .map(|instr| ExecutionPlan {
                        kind: PlanKind::Gemm(instr),
                        layout: instr.layout(),
                        cost: model.gemm_cycles_adaptive(&gemm, instr)
                            + im2col_overhead_cycles(&gemm, kernel)
                            + fused_act,
                    })
                    .collect();
                // Depthwise convolutions with 3-wide kernels additionally
                // admit the dedicated vtmpy sliding-multiply kernel
                // ("other instructions like vtmpy can also be used",
                // Section III). It streams spatially, i.e. 1-column.
                if let OpKind::DepthwiseConv2d {
                    kernel: (kh, 3), ..
                } = kind
                {
                    node_plans.push(ExecutionPlan {
                        kind: PlanKind::DepthwiseVtmpy,
                        layout: Layout::Col1,
                        cost: model.dw_vtmpy_cycles(node.shape.elems(), *kh) + fused_act,
                    });
                }
                node_plans
            }
            // Layout-transformation operators: cheap data movement in any
            // layout (their real effect is on the edges around them).
            OpKind::Reshape { .. } | OpKind::Transpose => PASS_LAYOUTS
                .into_iter()
                .map(|layout| ExecutionPlan {
                    kind: PlanKind::Passthrough,
                    layout,
                    cost: model.ew_cycles(EwKind::Copy, elems),
                })
                .collect(),
            kind => {
                let ew = op_ew_kind(kind, lut_ops);
                let base = ew_cost(model, ew, elems, kind, lut_ops);
                PASS_LAYOUTS
                    .into_iter()
                    .map(|layout| ExecutionPlan {
                        kind: PlanKind::Passthrough,
                        layout,
                        cost: (base as f64 * spatial_layout_factor(kind, layout)) as u64,
                    })
                    .collect()
            }
        };
        node_plans
    }
}

/// Relative cost of a *spatial* operator (pooling, upsampling) in each
/// layout. Spatial windows move whole pixels: the 4-column layout keeps
/// a pixel's channels adjacent (the reason channel-interleaved internal
/// formats exist), while the 1-column layout spreads them one panel
/// apart and forces gathers. Non-spatial elementwise operators stream
/// bytes and are layout-neutral (factor 1).
pub fn spatial_layout_factor(kind: &OpKind, layout: Layout) -> f64 {
    let spatial = matches!(
        kind,
        OpKind::MaxPool { .. }
            | OpKind::AvgPool { .. }
            | OpKind::GlobalAvgPool
            | OpKind::Upsample { .. }
    );
    if !spatial {
        return 1.0;
    }
    match layout {
        Layout::Col4 => 1.0,
        Layout::Col2 => 1.25,
        Layout::Col1 => 1.6,
        Layout::RowMajor => 1.0,
    }
}

/// Cycles a fused activation adds to its producing kernel: ReLU-style
/// clamps ride the requantization shift for free; hard-swish needs a
/// lookup pass (cheap) or a scalar approximation pass (expensive, the
/// "other optimizations" ablation).
pub fn fused_activation_cost(model: &CostModel, node: &gcd2_cgraph::Node, lut_ops: bool) -> u64 {
    match node.fused_activation {
        Some(gcd2_cgraph::Activation::HardSwish) => {
            let elems = node.shape.elems();
            if lut_ops {
                model.ew_cycles(EwKind::LutUnary, elems)
            } else {
                model.ew_cycles(EwKind::ScalarUnary, elems)
            }
        }
        _ => 0,
    }
}

/// The non-GEMM kernel implementing an operator. With `lut_ops` off,
/// divisions and transcendental nonlinearities fall back to the scalar
/// divider path — the configuration the "other optimizations" ablation
/// disables.
pub fn op_ew_kind(kind: &OpKind, lut_ops: bool) -> EwKind {
    match kind {
        OpKind::Add | OpKind::Concat => EwKind::Add,
        OpKind::Mul => EwKind::Mul,
        OpKind::Div => {
            if lut_ops {
                EwKind::DivLut
            } else {
                EwKind::DivScalar
            }
        }
        OpKind::Pow | OpKind::Sigmoid | OpKind::Gelu => {
            if lut_ops {
                EwKind::LutUnary
            } else {
                EwKind::ScalarUnary
            }
        }
        OpKind::Act(gcd2_cgraph::Activation::HardSwish) => {
            if lut_ops {
                EwKind::LutUnary
            } else {
                EwKind::ScalarUnary
            }
        }
        OpKind::Act(_) => EwKind::Relu,
        OpKind::MaxPool { kernel, .. } | OpKind::AvgPool { kernel, .. } => EwKind::MaxPoolWin {
            window: kernel.0 * kernel.1,
        },
        OpKind::GlobalAvgPool | OpKind::Softmax | OpKind::LayerNorm => EwKind::Reduce,
        OpKind::Upsample { .. } => EwKind::Copy,
        _ => EwKind::Copy,
    }
}

/// Extra whole-tensor passes an operator makes beyond its primary
/// kernel (softmax/layer-norm normalize and divide).
pub fn op_extra_passes(kind: &OpKind, lut_ops: bool) -> Vec<EwKind> {
    match kind {
        OpKind::Softmax | OpKind::LayerNorm => {
            if lut_ops {
                vec![EwKind::LutUnary, EwKind::DivLut]
            } else {
                vec![EwKind::ScalarUnary, EwKind::DivScalar]
            }
        }
        _ => Vec::new(),
    }
}

fn ew_cost(model: &CostModel, ew: EwKind, elems: usize, kind: &OpKind, lut_ops: bool) -> u64 {
    let mut cost = model.ew_cycles(ew, elems);
    for pass in op_extra_passes(kind, lut_ops) {
        cost += model.ew_cycles(pass, elems);
    }
    cost
}

/// A plan choice per node, plus the resulting aggregate cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Plan index per node (into [`PlanSet::of`]).
    pub choice: Vec<usize>,
    /// `Agg_Cost(G)` of this assignment, in cycles.
    pub cost: u64,
}

/// The transformation cost `TC(ep_i, ep_j)` on edge `(prod, cons)` under
/// the given plan layouts.
pub fn edge_tc(graph: &Graph, prod: NodeId, from: Layout, to: Layout) -> u64 {
    let (rows, cols) = matrix_view(&graph.node(prod).shape);
    transform_cycles(rows, cols, from, to)
}

/// Evaluates `Agg_Cost(G)` (Equation 1) for a full assignment.
///
/// # Panics
/// Panics if `choice` does not cover every node or indexes a missing
/// plan.
pub fn assignment_cost(graph: &Graph, plans: &PlanSet, choice: &[usize]) -> u64 {
    assert_eq!(
        choice.len(),
        graph.len(),
        "assignment must cover every node"
    );
    let mut total = 0u64;
    for node in graph.nodes() {
        total += plans.of(node.id)[choice[node.id.0]].cost;
    }
    for (prod, cons) in graph.edges() {
        let from = plans.of(prod)[choice[prod.0]].layout;
        let to = plans.of(cons)[choice[cons.0]].layout;
        total += edge_tc(graph, prod, from, to);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_cgraph::TShape;

    fn conv_chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut prev = g.input("x", TShape::nchw(1, 32, 28, 28));
        for i in 0..n {
            prev = g.add(
                OpKind::Conv2d {
                    out_channels: 32,
                    kernel: (1, 1),
                    stride: (1, 1),
                    padding: (0, 0),
                },
                &[prev],
                format!("conv{i}"),
            );
        }
        g
    }

    #[test]
    fn gemm_nodes_get_three_plans() {
        let g = conv_chain(2);
        let plans = enumerate_plans(&g, &CostModel::new());
        assert_eq!(plans.of(NodeId(0)).len(), 1, "input: one row-major plan");
        assert_eq!(plans.of(NodeId(1)).len(), 3);
        let layouts: Vec<Layout> = plans.of(NodeId(1)).iter().map(|p| p.layout).collect();
        assert_eq!(layouts, vec![Layout::Col1, Layout::Col2, Layout::Col4]);
    }

    #[test]
    fn matched_layouts_cost_no_tc() {
        let g = conv_chain(2);
        let plans = enumerate_plans(&g, &CostModel::new());
        // Same instruction on both convs: only the input edge pays TC.
        let same = assignment_cost(&g, &plans, &[0, 1, 1]);
        let mixed = assignment_cost(&g, &plans, &[0, 1, 2]);
        let plan_cost_same: u64 = plans.of(NodeId(1))[1].cost + plans.of(NodeId(2))[1].cost;
        let plan_cost_mixed: u64 = plans.of(NodeId(1))[1].cost + plans.of(NodeId(2))[2].cost;
        // TC(conv1 -> conv2) is zero for `same`, positive for `mixed`.
        let tc_same = same - plan_cost_same;
        let tc_mixed = mixed - plan_cost_mixed;
        assert!(tc_mixed > tc_same, "mixed layouts must pay a transform");
    }

    #[test]
    fn matrix_views() {
        assert_eq!(matrix_view(&TShape::nchw(1, 64, 56, 56)), (3136, 64));
        assert_eq!(matrix_view(&TShape::new(vec![128, 312])), (128, 312));
        assert_eq!(matrix_view(&TShape::new(vec![4, 8, 16])), (32, 16));
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn short_assignment_rejected() {
        let g = conv_chain(1);
        let plans = enumerate_plans(&g, &CostModel::new());
        assignment_cost(&g, &plans, &[0]);
    }
}
