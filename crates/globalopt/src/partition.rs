//! The GCD2 partitioning heuristic (Section IV-B).
//!
//! Exhaustive global selection is exponential (the problem is PBQP,
//! NP-hard), so GCD2 partitions the computational graph at *desirable
//! partitioning edges* — edges `(v_i, v_j)` where `v_j` has a single
//! predecessor and is either a layout-transformation operator or the
//! transformation along the edge is *profitable* — and solves each
//! partition independently. When no desirable edge appears before the
//! partition reaches its size bound, a complementary cut is inserted
//! (the paper's "complementary edges"). `GCD2(13)` and `GCD2(17)` in
//! Figure 10 are this algorithm with `max_ops` 13 and 17.

use crate::plan::{assignment_cost, Assignment, ExecutionPlan, PlanSet};
use crate::solve::{local_optimal, refine_scope_bounded};
use gcd2_cgraph::{Graph, NodeId, OpKind};
use gcd2_tensor::transform_cycles;
use std::fmt;

/// True when edge `(prod, cons)` is a desirable partitioning edge.
///
/// `cons` must have exactly one predecessor, and either be a layout
/// transformation operator (`Reshape`/`Transpose`) or admit a profitable
/// transformation: some plan of `cons` is cheaper than its
/// matching-layout plan by more than the transform cost.
pub fn is_desirable_edge(graph: &Graph, plans: &PlanSet, prod: NodeId, cons: NodeId) -> bool {
    if graph.preds(cons) != [prod] {
        return false;
    }
    let cons_node = graph.node(cons);
    if cons_node.kind.is_layout_transform() {
        return true;
    }
    is_profitable_transform(graph, plans, prod, cons)
}

/// "A transformation along an edge is considered profitable if the
/// reduction in execution time of the successor operator with the
/// transformed layout is higher than the cost of the data transformation
/// itself."
fn is_profitable_transform(graph: &Graph, plans: &PlanSet, prod: NodeId, cons: NodeId) -> bool {
    let (rows, cols) = crate::plan::matrix_view(&graph.node(prod).shape);
    // The consumer's cost if it keeps each producer layout vs. the best
    // transformed alternative.
    for from in plans.of(prod).iter().map(|p| p.layout) {
        let stay: Option<&ExecutionPlan> = plans.of(cons).iter().find(|p| p.layout == from);
        let stay_cost = match stay {
            Some(p) => p.cost,
            None => continue,
        };
        for p in plans.of(cons) {
            if p.layout == from {
                continue;
            }
            let tc = transform_cycles(rows, cols, from, p.layout);
            if p.cost + tc < stay_cost {
                return true;
            }
        }
    }
    false
}

/// Splits the operator nodes of `graph` (topological order) into
/// partitions of at most `max_ops` nodes, cutting preferentially at
/// desirable partitioning edges.
pub fn partition(graph: &Graph, plans: &PlanSet, max_ops: usize) -> Vec<Vec<NodeId>> {
    assert!(max_ops >= 1, "partitions must hold at least one operator");
    let mut parts: Vec<Vec<NodeId>> = Vec::new();
    let mut cur: Vec<NodeId> = Vec::new();
    for node in graph.nodes() {
        if matches!(node.kind, OpKind::Input | OpKind::Constant) {
            continue;
        }
        // Cut before this node if it is the consumer of a desirable edge
        // from inside the current partition, or the partition is full.
        let desirable_cut = graph
            .preds(node.id)
            .iter()
            .any(|&p| cur.contains(&p) && is_desirable_edge(graph, plans, p, node.id));
        if !cur.is_empty() && (desirable_cut || cur.len() >= max_ops) {
            parts.push(std::mem::take(&mut cur));
        }
        cur.push(node.id);
    }
    if !cur.is_empty() {
        parts.push(cur);
    }
    parts
}

/// The DFS state cap the compiler runs GCD2 selection under, summed
/// over all partitions: 78× what the largest catalog model needs under GCD2(17)
/// (efficientdet-d0, 1.10 × 10⁸ states), while still guarding against
/// pathological graphs.
pub const MAX_STATES: u64 = 1 << 33;

/// The full GCD2 layout/instruction selection: partition, then solve
/// each partition exhaustively (with pruning), stitching the partition
/// solutions together in topological order.
///
/// This is [`gcd2_select_budgeted`] with no state cap, so it never
/// falls to the greedy floor.
pub fn gcd2_select(graph: &Graph, plans: &PlanSet, max_ops: usize) -> Assignment {
    gcd2_select_budgeted(graph, plans, max_ops, u64::MAX).0
}

/// A GCD2 attempt that hit the state cap and fell to the greedy floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeEvent {
    /// Partition size bound of the abandoned attempt (`GCD2(max_ops)`).
    pub max_ops: usize,
    /// DFS states expanded when the attempt was abandoned.
    pub states: u64,
    /// The state cap it hit.
    pub cap: u64,
}

impl fmt::Display for DegradeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GCD2({}) -> greedy: state cap hit ({} states expanded, cap {})",
            self.max_ops, self.states, self.cap
        )
    }
}

/// GCD2 selection under a cap of `max_states` DFS states, falling to
/// the local-optimal baseline instead of running without bound. Returns
/// the assignment and, when the cap was hit and the assignment is that
/// baseline, the [`DegradeEvent`].
///
/// The attempt is **all-or-nothing**: the cap is split evenly across
/// the partitions, and if any partition's DFS exceeds its share the
/// whole attempt is abandoned. State counting is a pure function of
/// the inputs, so the selected plans and the recorded
/// [`DegradeEvent`] repeat exactly from run to run.
pub fn gcd2_select_budgeted(
    graph: &Graph,
    plans: &PlanSet,
    max_ops: usize,
    max_states: u64,
) -> (Assignment, Option<DegradeEvent>) {
    let base = local_optimal(graph, plans);
    match attempt_gcd2(graph, plans, max_ops, &base, max_states) {
        Ok(assignment) => (assignment, None),
        Err(states) => {
            let event = DegradeEvent {
                max_ops,
                states,
                cap: max_states,
            };
            (base, Some(event))
        }
    }
}

/// One all-or-nothing GCD2 attempt under the state cap; `Err` carries
/// the states expanded when the cap was hit.
///
/// Every partition is an independent sub-problem by construction, so
/// each is first refined against the *same* local-optimal baseline. A
/// stitch pass then applies the candidates in topological order: a
/// candidate is kept when it does not worsen the running aggregate
/// cost; when cross-partition coupling makes it lose (its boundary
/// assumed local-optimal neighbours that have since changed), the
/// partition is re-refined against the propagated state. The final cost
/// never exceeds the baseline, because each stitched step either keeps
/// the cost or re-refines (which includes the incumbent among its
/// candidates).
fn attempt_gcd2(
    graph: &Graph,
    plans: &PlanSet,
    max_ops: usize,
    base: &Assignment,
    max_states: u64,
) -> Result<Assignment, u64> {
    let parts = partition(graph, plans, max_ops);
    if parts.is_empty() {
        return Ok(base.clone());
    }
    let per_part = (max_states / parts.len() as u64).max(1);

    // Phase 1: bounded refinement of every partition against the shared
    // baseline, in order on this thread.
    let mut used_total = 0u64;
    let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(parts.len());
    let mut capped = false;
    for part in &parts {
        let mut choice = base.choice.clone();
        let (cost, used) = refine_scope_bounded(graph, plans, part, &mut choice, per_part);
        used_total += used;
        match cost {
            Some(_) => candidates.push(part.iter().map(|id| choice[id.0]).collect()),
            None => capped = true,
        }
    }
    if capped {
        return Err(used_total);
    }

    // Phase 2: stitch in topological order, bounded re-refines.
    let mut choice = base.choice.clone();
    let mut cost = base.cost;
    for (part, cand) in parts.iter().zip(&candidates) {
        let saved: Vec<usize> = part.iter().map(|id| choice[id.0]).collect();
        for (id, &c) in part.iter().zip(cand) {
            choice[id.0] = c;
        }
        let stitched = assignment_cost(graph, plans, &choice);
        if stitched <= cost {
            cost = stitched;
        } else {
            for (id, &s) in part.iter().zip(&saved) {
                choice[id.0] = s;
            }
            let (refined_cost, used) =
                refine_scope_bounded(graph, plans, part, &mut choice, per_part);
            used_total += used;
            match refined_cost {
                Some(c) => cost = c,
                None => return Err(used_total),
            }
        }
    }
    Ok(Assignment { choice, cost })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::enumerate_plans;
    use crate::solve::exhaustive;
    use gcd2_cgraph::TShape;
    use gcd2_kernels::CostModel;

    fn conv_chain(n: usize, channels: usize) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let mut prev = g.input("x", TShape::nchw(1, channels, 16, 16));
        let mut chain = Vec::new();
        for i in 0..n {
            prev = g.add(
                OpKind::Conv2d {
                    out_channels: channels,
                    kernel: (1, 1),
                    stride: (1, 1),
                    padding: (0, 0),
                },
                &[prev],
                format!("conv{i}"),
            );
            chain.push(prev);
        }
        (g, chain)
    }

    #[test]
    fn partitions_respect_size_bound() {
        let (g, _) = conv_chain(20, 32);
        let plans = enumerate_plans(&g, &CostModel::new());
        for max in [1, 4, 13, 17] {
            for part in partition(&g, &plans, max) {
                assert!(part.len() <= max);
                assert!(!part.is_empty());
            }
        }
    }

    #[test]
    fn partitions_cover_all_operators() {
        let (g, _) = conv_chain(11, 32);
        let plans = enumerate_plans(&g, &CostModel::new());
        let parts = partition(&g, &plans, 4);
        let covered: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(covered, g.op_count());
    }

    #[test]
    fn gcd2_close_to_global_optimal() {
        // Figure 10 (a): GCD2(13) is nearly identical to global optimal.
        let (g, chain) = conv_chain(10, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let global = exhaustive(&g, &plans, &chain);
        let local = local_optimal(&g, &plans);
        let gcd2 = gcd2_select(&g, &plans, 13);
        assert!(gcd2.cost <= local.cost);
        assert!(
            gcd2.cost as f64 <= global.cost as f64 * 1.05,
            "gcd2 {} vs global {}",
            gcd2.cost,
            global.cost
        );
    }

    #[test]
    fn stitched_selection_is_floored_and_self_consistent() {
        // Long enough that max_ops = 4 produces several partitions.
        let (g, _) = conv_chain(14, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let sel = gcd2_select(&g, &plans, 4);
        let local = local_optimal(&g, &plans);
        assert!(sel.cost <= local.cost);
        assert_eq!(sel.cost, crate::assignment_cost(&g, &plans, &sel.choice));
    }

    #[test]
    fn budgeted_selection_matches_unbudgeted_under_the_default_cap() {
        let (g, _) = conv_chain(12, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let plain = gcd2_select(&g, &plans, 13);
        assert_eq!(
            gcd2_select_budgeted(&g, &plans, 13, MAX_STATES),
            (plain, None)
        );
    }

    #[test]
    fn tiny_state_cap_falls_to_exactly_the_greedy_floor() {
        let (g, _) = conv_chain(12, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let local = local_optimal(&g, &plans);
        for max_ops in [13, 17] {
            let sel = gcd2_select_budgeted(&g, &plans, max_ops, 2);
            assert_eq!(sel.0, local, "GCD2({max_ops})");
            let event = sel.1.expect("a 2-state cap must degrade");
            assert_eq!((event.max_ops, event.cap), (max_ops, 2));
            assert!(event.states > 2, "{event}");
            assert_eq!(sel, gcd2_select_budgeted(&g, &plans, max_ops, 2));
        }
    }

    #[test]
    fn budgeted_degradation_is_deterministic() {
        let (g, _) = conv_chain(14, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        for cap in [1, 50, 10_000, u64::MAX] {
            let first = gcd2_select_budgeted(&g, &plans, 13, cap);
            let again = gcd2_select_budgeted(&g, &plans, 13, cap);
            assert_eq!(first, again, "cap {cap} does not repeat");
        }
    }

    #[test]
    fn events_render_the_state_cap() {
        let event = DegradeEvent {
            max_ops: 17,
            states: 10,
            cap: 5,
        };
        assert_eq!(
            event.to_string(),
            "GCD2(17) -> greedy: state cap hit (10 states expanded, cap 5)"
        );
    }

    #[test]
    fn reshape_edges_are_desirable() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 32, 8, 8));
        let c = g.add(
            OpKind::Conv2d {
                out_channels: 32,
                kernel: (1, 1),
                stride: (1, 1),
                padding: (0, 0),
            },
            &[x],
            "conv",
        );
        let rs = g.add(
            OpKind::Reshape {
                shape: TShape::new(vec![64, 32]),
            },
            &[c],
            "flatten",
        );
        let plans = enumerate_plans(&g, &CostModel::new());
        assert!(is_desirable_edge(&g, &plans, c, rs));
        let _ = is_desirable_edge(&g, &plans, x, c); // must not panic
    }
}
