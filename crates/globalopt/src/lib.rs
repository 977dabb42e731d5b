//! # gcd2-globalopt — global SIMD instruction & layout selection
//!
//! The paper's second contribution (Sections IV-A/IV-B): choosing, for
//! every operator in a computational graph, the SIMD instruction and
//! data layout (*execution plan*) that minimizes total execution cycles
//! *plus* the data-transformation cost on every edge (Equation 1). The
//! problem maps to PBQP (NP-hard); this crate provides:
//!
//! * [`enumerate_plans`] — per-operator plan enumeration from the kernel
//!   cost model;
//! * [`local_optimal`] — the per-operator greedy baseline;
//! * [`chain_dp`] — the exact `O(|V|·k²)` dynamic program for linear
//!   chains (Equation 2);
//! * [`exhaustive`] — the exponential global search baseline;
//! * [`gcd2_select`] — the partitioning heuristic (`GCD2(13)` /
//!   `GCD2(17)` of Figure 10);
//! * [`pbqp_select`] — the PBQP reduction heuristic the paper names as
//!   the alternative (the compiler's default selector), a builder over
//!   [`pbqp::solve`], the reduction solver on a bare instance (cost
//!   vectors + edge matrices) that the host runtime's activation-layout
//!   selection (`gcd2::layout`) calls too; [`pbqp::certify`] proves its
//!   answer optimal, or finds the optimum, by branch-and-bound over the
//!   reductions' heuristic steps.
//!
//! ```
//! use gcd2_cgraph::{Graph, OpKind, TShape};
//! use gcd2_globalopt::{enumerate_plans, gcd2_select, local_optimal};
//! use gcd2_kernels::CostModel;
//!
//! let mut g = Graph::new();
//! let mut prev = g.input("x", TShape::nchw(1, 48, 16, 16));
//! for i in 0..6 {
//!     prev = g.add(
//!         OpKind::Conv2d { out_channels: 48, kernel: (1, 1), stride: (1, 1), padding: (0, 0) },
//!         &[prev],
//!         format!("conv{i}"),
//!     );
//! }
//! let plans = enumerate_plans(&g, &CostModel::new());
//! let gcd2 = gcd2_select(&g, &plans, 13);
//! assert!(gcd2.cost <= local_optimal(&g, &plans).cost);
//! ```

// Robustness gate: solver code must not contain bare unwrap/expect —
// invariant violations use `unreachable!` with a descriptive message,
// everything else degrades or returns. Test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod partition;
pub mod pbqp;
pub mod plan;
pub mod solve;

pub use budget::{BudgetClock, CompileBudget, DegradeEvent, DegradeReason, Rung};
pub use partition::{
    gcd2_select, gcd2_select_budgeted, is_desirable_edge, partition, BudgetedSelection,
};
pub use pbqp::pbqp_select;
pub use plan::{
    assignment_cost, edge_tc, enumerate_plans, fused_activation_cost, matrix_view, op_ew_kind,
    op_extra_passes, spatial_layout_factor, try_enumerate_plans, Assignment, ExecutionPlan,
    PlanKind, PlanSet,
};
pub use solve::{
    chain_dp, chain_dp_into, chain_segments, exhaustive, local_optimal, refine_scope,
    refine_scope_bounded,
};
