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

use crate::budget::{BudgetClock, CompileBudget, DegradeEvent, DegradeReason, Rung};
use crate::plan::{assignment_cost, Assignment, ExecutionPlan, PlanSet};
use crate::solve::{chain_dp_into, chain_segments, local_optimal, refine_scope_bounded};
use gcd2_cgraph::{Graph, NodeId, OpKind};
use gcd2_tensor::transform_cycles;

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

/// The full GCD2 layout/instruction selection: partition, then solve
/// each partition exhaustively (with pruning), stitching the partition
/// solutions together in topological order.
///
/// This is [`gcd2_select_budgeted`] under an unbounded budget (no
/// deadline, no state cap): no rung can fall, so the result is the
/// `GCD2(max_ops)` rung's assignment.
pub fn gcd2_select(graph: &Graph, plans: &PlanSet, max_ops: usize) -> Assignment {
    let unbounded = CompileBudget::with_max_states(u64::MAX);
    gcd2_select_budgeted(graph, plans, max_ops, unbounded).assignment
}

/// The outcome of budgeted selection: the assignment, the ladder rung
/// that produced it, and every degradation step taken on the way there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetedSelection {
    /// The chosen plan assignment.
    pub assignment: Assignment,
    /// The rung that produced the assignment.
    pub rung: Rung,
    /// Degradation steps, in the order they happened (empty when the
    /// first rung succeeded).
    pub degrade: Vec<DegradeEvent>,
}

/// Why a GCD2 rung attempt was abandoned (mapped to a [`DegradeReason`]).
enum RungFailure {
    StateCap { used: u64 },
    Deadline,
}

/// GCD2 selection under a [`CompileBudget`], degrading through
/// the ladder `GCD2(max_ops)` → `GCD2(13)` → chain DP → greedy instead
/// of running without bound.
///
/// Each GCD2 rung is attempted **all-or-nothing**: the budget's
/// `max_states` is split evenly across the rung's partitions, and if any
/// partition's DFS exceeds its share the whole rung is abandoned — a
/// deterministic decision, so the selected plans and the recorded
/// [`DegradeEvent`]s repeat exactly from run to run. The
/// wall-clock deadline is checked between rungs and between stitch steps
/// as a coarse nondeterministic backstop. The greedy floor always
/// succeeds and never costs more than the local-optimal baseline.
pub fn gcd2_select_budgeted(
    graph: &Graph,
    plans: &PlanSet,
    max_ops: usize,
    budget: CompileBudget,
) -> BudgetedSelection {
    let clock = BudgetClock::start(budget);
    let base = local_optimal(graph, plans);

    let mut rungs: Vec<Rung> = vec![Rung::Gcd2 { max_ops }];
    if max_ops > 13 {
        rungs.push(Rung::Gcd2 { max_ops: 13 });
    }
    rungs.push(Rung::ChainDp);
    rungs.push(Rung::Greedy);

    let mut degrade: Vec<DegradeEvent> = Vec::new();
    let fall = |from: Rung, to: Rung, failure: RungFailure, clock: &BudgetClock| {
        let reason = match failure {
            RungFailure::StateCap { used } => DegradeReason::StateCap {
                used,
                cap: clock.budget().max_states,
            },
            RungFailure::Deadline => DegradeReason::Deadline {
                elapsed_ms: clock.elapsed_ms(),
            },
        };
        DegradeEvent { from, to, reason }
    };

    for (i, &rung) in rungs.iter().enumerate() {
        let next = rungs.get(i + 1).copied();
        // Deadline backstop between rungs; the greedy floor always runs.
        if next.is_some() && clock.expired() {
            if let Some(to) = next {
                degrade.push(fall(rung, to, RungFailure::Deadline, &clock));
            }
            continue;
        }
        match rung {
            Rung::Gcd2 { max_ops } => match attempt_gcd2(graph, plans, max_ops, &base, &clock) {
                Ok(assignment) => {
                    return BudgetedSelection {
                        assignment,
                        rung,
                        degrade,
                    };
                }
                Err(failure) => {
                    if let Some(to) = next {
                        degrade.push(fall(rung, to, failure, &clock));
                    }
                }
            },
            Rung::ChainDp => {
                // Exact DP per maximal single-predecessor chain:
                // O(|V|·k²) total, no cap needed.
                let mut choice = base.choice.clone();
                for segment in chain_segments(graph) {
                    chain_dp_into(graph, plans, &segment, &mut choice);
                }
                let cost = assignment_cost(graph, plans, &choice);
                // Segments are solved against fixed boundaries, so the
                // stitched whole can in principle lose to the greedy
                // baseline — keep the floor.
                let assignment = if cost <= base.cost {
                    Assignment { choice, cost }
                } else {
                    base.clone()
                };
                return BudgetedSelection {
                    assignment,
                    rung,
                    degrade,
                };
            }
            Rung::Greedy => {
                return BudgetedSelection {
                    assignment: base.clone(),
                    rung,
                    degrade,
                };
            }
        }
    }
    // The ladder always ends in Greedy, which returns above.
    unreachable!("degradation ladder has a greedy floor")
}

/// One all-or-nothing GCD2 rung attempt under the budget.
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
    clock: &BudgetClock,
) -> Result<Assignment, RungFailure> {
    let parts = partition(graph, plans, max_ops);
    if parts.is_empty() {
        return Ok(base.clone());
    }
    let per_part = (clock.budget().max_states / parts.len() as u64).max(1);

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
        return Err(RungFailure::StateCap { used: used_total });
    }

    // Phase 2: stitch in topological order, bounded re-refines.
    let mut choice = base.choice.clone();
    let mut cost = base.cost;
    for (part, cand) in parts.iter().zip(&candidates) {
        if clock.expired() {
            return Err(RungFailure::Deadline);
        }
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
                None => return Err(RungFailure::StateCap { used: used_total }),
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
    fn budgeted_selection_matches_unbudgeted_under_default_budget() {
        let (g, _) = conv_chain(12, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let plain = gcd2_select(&g, &plans, 13);
        let budgeted = gcd2_select_budgeted(&g, &plans, 13, CompileBudget::default());
        assert_eq!(budgeted.assignment, plain);
        assert_eq!(budgeted.rung, Rung::Gcd2 { max_ops: 13 });
        assert!(budgeted.degrade.is_empty());
    }

    #[test]
    fn tiny_state_cap_degrades_to_a_cheaper_rung() {
        let (g, _) = conv_chain(12, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let local = local_optimal(&g, &plans);
        let sel = gcd2_select_budgeted(&g, &plans, 17, CompileBudget::with_max_states(2));
        // Both GCD2 rungs must fall to the state cap; the result comes
        // from chain DP (or its greedy floor) and stays within budget.
        assert!(sel.degrade.len() >= 2, "events: {:?}", sel.degrade);
        assert!(matches!(sel.rung, Rung::ChainDp | Rung::Greedy));
        for ev in &sel.degrade {
            assert!(matches!(ev.reason, DegradeReason::StateCap { .. }));
        }
        assert!(sel.assignment.cost <= local.cost);
        assert_eq!(
            sel.assignment.cost,
            assignment_cost(&g, &plans, &sel.assignment.choice)
        );
    }

    #[test]
    fn budgeted_degradation_is_deterministic() {
        let (g, _) = conv_chain(14, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        for cap in [1, 50, 10_000, u64::MAX] {
            let budget = CompileBudget::with_max_states(cap);
            let first = gcd2_select_budgeted(&g, &plans, 13, budget);
            let again = gcd2_select_budgeted(&g, &plans, 13, budget);
            assert_eq!(first, again, "cap {cap} does not repeat");
        }
    }

    #[test]
    fn expired_deadline_lands_on_greedy_floor() {
        let (g, _) = conv_chain(10, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let local = local_optimal(&g, &plans);
        let budget = CompileBudget::with_deadline(std::time::Duration::ZERO);
        let sel = gcd2_select_budgeted(&g, &plans, 13, budget);
        assert_eq!(sel.rung, Rung::Greedy);
        assert_eq!(sel.assignment, local);
        assert!(sel
            .degrade
            .iter()
            .all(|e| matches!(e.reason, DegradeReason::Deadline { .. })));
        assert_eq!(sel.degrade.len(), 2, "one fall per abandoned rung");
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
