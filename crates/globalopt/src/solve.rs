//! Plan-selection solvers: the local-optimal baseline, the exact linear
//! chain dynamic program (paper Equation 2), and the exhaustive global
//! search (exponential; the Figure 10 baseline).

use crate::plan::{assignment_cost, edge_tc, Assignment, PlanSet};
use gcd2_cgraph::{Graph, NodeId};

/// The `local optimal` baseline of Figure 10: each operator
/// independently picks its cheapest plan, ignoring transformation costs.
pub fn local_optimal(graph: &Graph, plans: &PlanSet) -> Assignment {
    let choice: Vec<usize> = graph
        .nodes()
        .iter()
        .map(|n| {
            plans
                .of(n.id)
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.cost)
                .map(|(i, _)| i)
                // Enumeration gives every node at least one plan; an
                // empty list (unchecked construction) picks index 0,
                // which assignment_cost will reject loudly.
                .unwrap_or(0)
        })
        .collect();
    let cost = assignment_cost(graph, plans, &choice);
    Assignment { choice, cost }
}

/// Exact dynamic program for a **linear chain** of operators
/// (Equation 2): `Sol(i, j) = min_l Sol(i-1, l) + TC(ep_l, ep_j) + Cost(ep_j)`,
/// solved in `O(|V|·k²)`.
///
/// ```
/// use gcd2_cgraph::{Graph, OpKind, TShape};
/// use gcd2_globalopt::{chain_dp, enumerate_plans, local_optimal};
/// use gcd2_kernels::CostModel;
///
/// let mut g = Graph::new();
/// let mut prev = g.input("x", TShape::nchw(1, 48, 16, 16));
/// let mut chain = Vec::new();
/// for i in 0..4 {
///     prev = g.add(
///         OpKind::Conv2d { out_channels: 48, kernel: (1, 1), stride: (1, 1), padding: (0, 0) },
///         &[prev],
///         format!("conv{i}"),
///     );
///     chain.push(prev);
/// }
/// let plans = enumerate_plans(&g, &CostModel::new());
/// let dp = chain_dp(&g, &plans, &chain);
/// assert!(dp.cost <= local_optimal(&g, &plans).cost);
/// ```
///
/// `chain` must list node ids such that each node's graph predecessors
/// are at most the previous chain element; nodes outside the chain keep
/// their locally-optimal plan.
///
/// # Panics
/// Panics if a chain node has a predecessor that is neither the previous
/// chain element nor outside the chain.
pub fn chain_dp(graph: &Graph, plans: &PlanSet, chain: &[NodeId]) -> Assignment {
    // Start from local choices for everything off-chain.
    let mut assignment = local_optimal(graph, plans);
    chain_dp_into(graph, plans, chain, &mut assignment.choice);
    assignment.cost = assignment_cost(graph, plans, &assignment.choice);
    assignment
}

/// Re-decides the plans of `chain` in place with the Equation 2 dynamic
/// program, holding every off-chain node's plan fixed at its current
/// value in `choice` — for [`chain_dp`], the local-optimal baseline.
///
/// # Panics
/// Panics if consecutive chain elements are not connected by a graph
/// edge.
fn chain_dp_into(graph: &Graph, plans: &PlanSet, chain: &[NodeId], choice: &mut [usize]) {
    let Some(&first) = chain.first() else {
        return;
    };
    for pair in chain.windows(2) {
        assert!(
            graph.preds(pair[1]).contains(&pair[0]),
            "chain must follow graph edges"
        );
    }

    let k_of = |id: NodeId| plans.of(id).len();
    // sol[j] = best cost of the chain prefix ending with plan j; bp for
    // backtracking.
    let mut sol: Vec<u64> = plans.of(first).iter().map(|p| p.cost).collect();
    // Charge the first node's incoming edges (from off-chain producers).
    for &pred in graph.preds(first) {
        let from = plans.of(pred)[choice[pred.0]].layout;
        for (j, p) in plans.of(first).iter().enumerate() {
            sol[j] += edge_tc(graph, pred, from, p.layout);
        }
    }
    let mut back: Vec<Vec<usize>> = Vec::with_capacity(chain.len());
    back.push(vec![0; k_of(first)]);

    for w in chain.windows(2) {
        let (prev, cur) = (w[0], w[1]);
        let mut next = vec![u64::MAX; k_of(cur)];
        let mut bp = vec![0usize; k_of(cur)];
        for (j, pj) in plans.of(cur).iter().enumerate() {
            for (l, pl) in plans.of(prev).iter().enumerate() {
                let c = sol[l]
                    .saturating_add(edge_tc(graph, prev, pl.layout, pj.layout))
                    .saturating_add(pj.cost);
                if c < next[j] {
                    next[j] = c;
                    bp[j] = l;
                }
            }
        }
        sol = next;
        back.push(bp);
    }

    // Backtrack the best chain assignment.
    let mut j = (0..sol.len()).min_by_key(|&j| sol[j]).unwrap_or(0);
    for (idx, node) in chain.iter().enumerate().rev() {
        choice[node.0] = j;
        j = back[idx][j];
    }
}

/// Exhaustive global search (depth-first with partial-cost pruning) over
/// the nodes in `scope`; nodes outside keep their local-optimal plan.
/// Exponential in `scope.len()` — the paper measures >80 hours at 25
/// operators (Figure 10b).
pub fn exhaustive(graph: &Graph, plans: &PlanSet, scope: &[NodeId]) -> Assignment {
    let mut assignment = local_optimal(graph, plans);
    let cost = refine_scope(graph, plans, scope, &mut assignment.choice);
    Assignment {
        cost,
        choice: assignment.choice,
    }
}

/// Refines `choice` in place by exhaustively (DFS + pruning) re-deciding
/// the nodes in `scope`, holding every other node's plan fixed. Returns
/// the total cost of the refined assignment. This is the sub-graph
/// solver of [`exhaustive`].
fn refine_scope(graph: &Graph, plans: &PlanSet, scope: &[NodeId], choice: &mut Vec<usize>) -> u64 {
    let (cost, _) = refine_scope_bounded(graph, plans, scope, choice, u64::MAX);
    // Unbounded search always completes; fall back to the incumbent's
    // cost for the degenerate never-taken branch.
    cost.unwrap_or_else(|| assignment_cost(graph, plans, choice))
}

/// [`refine_scope`] with a cap on the number of DFS states expanded.
///
/// Returns `(cost, states_used)`. On completion inside the cap, `choice`
/// holds the refined assignment and `cost` its aggregate cost. When the
/// cap is hit the search aborts: `choice` is left **untouched** and
/// `cost` is `None`. State counting is a pure function of the inputs —
/// independent of wall clock or allocator — which makes the
/// cap a deterministic degradation trigger. This is the sub-graph
/// solver the partitioning heuristic applies to each partition.
pub(crate) fn refine_scope_bounded(
    graph: &Graph,
    plans: &PlanSet,
    scope: &[NodeId],
    choice: &mut Vec<usize>,
    max_states: u64,
) -> (Option<u64>, u64) {
    let mut best_choice = choice.clone();
    let mut best_cost = assignment_cost(graph, plans, &best_choice);

    // Depth-first over scope nodes; incremental cost = plan costs plus
    // TC of edges whose endpoints are both decided (scope nodes decided
    // in order; off-scope nodes always decided).
    let in_scope: Vec<bool> = {
        let mut v = vec![false; graph.len()];
        for id in scope {
            v[id.0] = true;
        }
        v
    };
    let scope_rank: Vec<usize> = {
        let mut v = vec![usize::MAX; graph.len()];
        for (i, id) in scope.iter().enumerate() {
            v[id.0] = i;
        }
        v
    };
    // Successor adjacency, precomputed once (Graph::succs is O(V) per call).
    let succs: Vec<Vec<NodeId>> = {
        let mut v = vec![Vec::new(); graph.len()];
        for (prod, cons) in graph.edges() {
            v[prod.0].push(cons);
        }
        v
    };

    // Branch-and-bound lower bound: the cheapest possible plan cost of
    // every not-yet-decided scope suffix (transform costs are >= 0).
    let suffix_min: Vec<u64> = {
        let mut v = vec![0u64; scope.len() + 1];
        for (i, id) in scope.iter().enumerate().rev() {
            let min_plan = plans.of(*id).iter().map(|p| p.cost).min().unwrap_or(0);
            v[i] = v[i + 1] + min_plan;
        }
        v
    };
    // Constant part of the objective: plan costs of off-scope nodes plus
    // TC of edges whose endpoints are both off-scope. A complete DFS
    // path's `partial` covers exactly the rest, so leaf evaluation is
    // O(1) instead of a full assignment_cost pass.
    let base_const: u64 = {
        let mut c = 0u64;
        for node in graph.nodes() {
            if !in_scope[node.id.0] {
                c += plans.of(node.id)[choice[node.id.0]].cost;
            }
        }
        for (prod, cons) in graph.edges() {
            if !in_scope[prod.0] && !in_scope[cons.0] {
                let from = plans.of(prod)[choice[prod.0]].layout;
                let to = plans.of(cons)[choice[cons.0]].layout;
                c += edge_tc(graph, prod, from, to);
            }
        }
        c
    };

    /// Returns `false` when the state cap was hit (search aborted).
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        depth: usize,
        partial: u64,
        graph: &Graph,
        plans: &PlanSet,
        scope: &[NodeId],
        in_scope: &[bool],
        scope_rank: &[usize],
        succs: &[Vec<NodeId>],
        suffix_min: &[u64],
        choice: &mut Vec<usize>,
        best_cost: &mut u64,
        best_choice: &mut Vec<usize>,
        states: &mut u64,
        max_states: u64,
    ) -> bool {
        *states += 1;
        if *states > max_states {
            return false; // budget exhausted: abandon the whole search
        }
        if partial + suffix_min[depth] >= *best_cost {
            return true; // prune: even free transforms cannot recover
        }
        if depth == scope.len() {
            if partial < *best_cost {
                *best_cost = partial;
                *best_choice = choice.clone();
            }
            return true;
        }
        let id = scope[depth];
        for j in 0..plans.of(id).len() {
            choice[id.0] = j;
            // Incremental: this node's plan cost + TC of edges to already
            // decided neighbours.
            let mut delta = plans.of(id)[j].cost;
            for &pred in graph.preds(id) {
                let decided = !in_scope[pred.0] || scope_rank[pred.0] < depth;
                if decided {
                    let from = plans.of(pred)[choice[pred.0]].layout;
                    delta += edge_tc(graph, pred, from, plans.of(id)[j].layout);
                }
            }
            for &succ in &succs[id.0] {
                let decided = !in_scope[succ.0] || scope_rank[succ.0] < depth;
                if decided {
                    let to = plans.of(succ)[choice[succ.0]].layout;
                    delta += edge_tc(graph, id, plans.of(id)[j].layout, to);
                }
            }
            let completed = dfs(
                depth + 1,
                partial + delta,
                graph,
                plans,
                scope,
                in_scope,
                scope_rank,
                succs,
                suffix_min,
                choice,
                best_cost,
                best_choice,
                states,
                max_states,
            );
            if !completed {
                return false;
            }
        }
        true
    }

    let mut working = choice.clone();
    let mut states = 0u64;
    let completed = dfs(
        0,
        base_const,
        graph,
        plans,
        scope,
        &in_scope,
        &scope_rank,
        &succs,
        &suffix_min,
        &mut working,
        &mut best_cost,
        &mut best_choice,
        &mut states,
        max_states,
    );
    if !completed {
        return (None, states);
    }
    *choice = best_choice;
    (Some(best_cost), states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::enumerate_plans;
    use gcd2_cgraph::{OpKind, TShape};
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
    fn chain_dp_never_worse_than_local() {
        let (g, chain) = conv_chain(6, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let local = local_optimal(&g, &plans);
        let dp = chain_dp(&g, &plans, &chain);
        assert!(
            dp.cost <= local.cost,
            "dp {} vs local {}",
            dp.cost,
            local.cost
        );
    }

    #[test]
    fn chain_dp_matches_exhaustive_on_chains() {
        let (g, chain) = conv_chain(5, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let dp = chain_dp(&g, &plans, &chain);
        let ex = exhaustive(&g, &plans, &chain);
        assert_eq!(dp.cost, ex.cost, "DP must be optimal on a linear chain");
    }

    #[test]
    fn exhaustive_finds_strictly_better_than_local_when_transforms_hurt() {
        // Channels = 48: K pads differently per layout, so local choices
        // disagree along the chain and pay transforms.
        let (g, chain) = conv_chain(8, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let local = local_optimal(&g, &plans);
        let ex = exhaustive(&g, &plans, &chain);
        assert!(ex.cost <= local.cost);
    }

    #[test]
    fn bounded_refine_matches_unbounded_when_cap_is_loose() {
        let (g, chain) = conv_chain(6, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let base = local_optimal(&g, &plans);
        let mut unbounded = base.choice.clone();
        let cost = refine_scope(&g, &plans, &chain, &mut unbounded);
        let mut bounded = base.choice.clone();
        let (bcost, used) = refine_scope_bounded(&g, &plans, &chain, &mut bounded, u64::MAX);
        assert_eq!(bcost, Some(cost));
        assert_eq!(bounded, unbounded);
        assert!(used > 0);
    }

    #[test]
    fn bounded_refine_aborts_cleanly_when_capped() {
        let (g, chain) = conv_chain(8, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let base = local_optimal(&g, &plans);
        let mut choice = base.choice.clone();
        let original = choice.clone();
        let (cost, used) = refine_scope_bounded(&g, &plans, &chain, &mut choice, 3);
        assert_eq!(cost, None, "a 3-state cap cannot finish 8 nodes");
        assert_eq!(choice, original, "aborted search must not mutate choice");
        assert_eq!(used, 4, "counts states up to the cap plus the abort");
    }

    #[test]
    fn bounded_refine_state_count_is_reproducible() {
        let (g, chain) = conv_chain(5, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let base = local_optimal(&g, &plans);
        let counts: Vec<u64> = (0..3)
            .map(|_| {
                let mut choice = base.choice.clone();
                refine_scope_bounded(&g, &plans, &chain, &mut choice, u64::MAX).1
            })
            .collect();
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
    }

    #[test]
    fn assignment_costs_are_internally_consistent() {
        let (g, chain) = conv_chain(4, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        for solver_result in [
            local_optimal(&g, &plans),
            chain_dp(&g, &plans, &chain),
            exhaustive(&g, &plans, &chain),
        ] {
            assert_eq!(
                solver_result.cost,
                assignment_cost(&g, &plans, &solver_result.choice),
                "reported cost must match re-evaluation"
            );
        }
    }
}
