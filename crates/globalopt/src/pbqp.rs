//! A Partitioned Boolean Quadratic Programming (PBQP) solver.
//!
//! The paper observes that the global layout/instruction selection
//! problem "is really a PBQP problem, which is known to be NP-hard", and
//! names PBQP solvers — "not guaranteed to provide an optimal solution
//! but in practice close" — as the alternative to its partitioning
//! heuristic (Section IV-B, citing Anderson & Gregg and Hames & Scholz).
//! This module implements that alternative so the two approaches can be
//! compared head-to-head (see the `fig10` harness).
//!
//! The solver is the classic reduction-based heuristic:
//!
//! * **R0** — a degree-0 node takes its cheapest plan;
//! * **RI** — a degree-1 node is folded into its neighbour's cost
//!   vector;
//! * **RII** — a degree-2 node is folded into an edge between its two
//!   neighbours;
//! * **RN** — when only nodes of degree ≥ 3 remain, a heuristic step
//!   fixes the node with the highest degree to its locally cheapest
//!   plan (cost vector plus row minima of incident edge matrices).
//!
//! Decisions are backtracked in reverse reduction order, which makes
//! R0/RI/RII exact; only RN steps can lose optimality.
#![allow(clippy::needless_range_loop)]

use crate::plan::{edge_tc, Assignment, PlanSet};
use gcd2_cgraph::Graph;
use std::collections::HashMap;

/// A PBQP instance: one cost vector per node, one cost matrix per
/// interacting pair.
struct Instance {
    /// Cost vector per node.
    costs: Vec<Vec<u64>>,
    /// Edge matrices: `(u, v) -> M` with `M[i][j]` the cost of `u`
    /// taking plan `i` while `v` takes plan `j`. Keys are ordered
    /// `u < v`.
    edges: HashMap<(usize, usize), Vec<Vec<u64>>>,
    /// Adjacency per node.
    adj: Vec<Vec<usize>>,
}

impl Instance {
    fn new(costs: Vec<Vec<u64>>) -> Self {
        let adj = vec![Vec::new(); costs.len()];
        Instance {
            costs,
            edges: HashMap::new(),
            adj,
        }
    }

    fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    fn edge(&self, u: usize, v: usize) -> Option<&Vec<Vec<u64>>> {
        self.edges.get(&(u.min(v), u.max(v)))
    }

    /// `M[i][j]` oriented so that `i` indexes `u`'s plans.
    fn edge_row(&self, u: usize, v: usize, i: usize, j: usize) -> u64 {
        let Some(m) = self.edge(u, v) else {
            unreachable!("edge_row queried for absent edge ({u}, {v})")
        };
        if u < v {
            m[i][j]
        } else {
            m[j][i]
        }
    }

    fn remove_edge(&mut self, u: usize, v: usize) {
        self.edges.remove(&(u.min(v), u.max(v)));
        self.adj[u].retain(|&x| x != v);
        self.adj[v].retain(|&x| x != u);
    }

    fn add_edge_matrix(&mut self, u: usize, v: usize, m: Vec<Vec<u64>>) {
        let key = (u.min(v), u.max(v));
        // Matrices are stored with rows indexing the smaller id.
        let oriented = if u < v { m } else { transpose(&m) };
        match self.edges.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let acc = e.get_mut();
                for (row_acc, row) in acc.iter_mut().zip(&oriented) {
                    for (a, b) in row_acc.iter_mut().zip(row) {
                        *a = a.saturating_add(*b);
                    }
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.adj[u].push(v);
                self.adj[v].push(u);
                e.insert(oriented);
            }
        }
    }
}

fn transpose(m: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let rows = m.len();
    let cols = m.first().map_or(0, Vec::len);
    let mut t = vec![vec![0u64; rows]; cols];
    for (i, row) in m.iter().enumerate() {
        for (j, &x) in row.iter().enumerate() {
            t[j][i] = x;
        }
    }
    t
}

/// A reduction step, recorded for backtracking.
enum Step {
    /// Node fixed outright (R0 or RN): no dependence on neighbours.
    Fixed { node: usize, plan: usize },
    /// RI: `node`'s best plan per neighbour plan was tabulated.
    FoldedRi {
        node: usize,
        neighbor: usize,
        best: Vec<usize>,
    },
    /// RII: `node`'s best plan per (left-plan, right-plan) pair.
    FoldedRii {
        node: usize,
        left: usize,
        right: usize,
        best: Vec<Vec<usize>>,
    },
}

/// Solves the layout/instruction selection problem with the PBQP
/// reduction heuristic. Exact when the reductions never need the RN
/// (degree ≥ 3) heuristic — in particular on chains and trees. A thin
/// builder over [`solve`]: plan costs become the cost vectors, each
/// graph edge's transformation costs an edge matrix.
pub fn pbqp_select(graph: &Graph, plans: &PlanSet) -> Assignment {
    let costs: Vec<Vec<u64>> = graph
        .nodes()
        .iter()
        .map(|node| plans.of(node.id).iter().map(|p| p.cost).collect())
        .collect();
    let edges = graph.edges().into_iter().map(|(prod, cons)| {
        // Orient the TC by the actual data-flow direction.
        let m = plans
            .of(prod)
            .iter()
            .map(|from| {
                let tc =
                    |to: &crate::plan::ExecutionPlan| edge_tc(graph, prod, from.layout, to.layout);
                plans.of(cons).iter().map(tc).collect()
            })
            .collect();
        (prod.0, cons.0, m)
    });
    let choice = solve(costs, edges).choice;
    let cost = crate::plan::assignment_cost(graph, plans, &choice);
    Assignment { choice, cost }
}

/// What [`solve`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The option index chosen for every node.
    pub choice: Vec<usize>,
    /// How many RN (heuristic) steps the reduction needed; when zero the
    /// choice is a global optimum of the instance.
    pub rn_steps: usize,
}

/// The PBQP reduction solver itself, over a bare instance: `costs[u][i]`
/// is what node `u` pays for its option `i`, and each `(u, v, m)` of
/// `edges` adds `m[i][j]` when `u` takes option `i` while `v` takes `j`
/// (parallel edges sum; an edge from a node to itself is ignored). Every
/// node needs at least one option. Both the compiler's instruction/layout
/// selection ([`pbqp_select`]) and the host runtime's activation-layout
/// pass build their instance and call this. Ties go to the lower option
/// index. Deterministic: no reduction order depends on hashing.
pub fn solve(
    costs: Vec<Vec<u64>>,
    edges: impl IntoIterator<Item = (usize, usize, Vec<Vec<u64>>)>,
) -> Solution {
    let n = costs.len();
    let mut inst = Instance::new(costs);
    for (u, v, m) in edges {
        if u != v {
            inst.add_edge_matrix(u, v, m);
        }
    }
    let mut rn_steps = 0usize;
    let mut alive: Vec<bool> = vec![true; n];
    let mut steps: Vec<Step> = Vec::new();

    let mut remaining = n;
    while remaining > 0 {
        // Prefer the cheapest applicable reduction.
        let pick = |inst: &Instance, alive: &[bool], deg: usize| -> Option<usize> {
            (0..n).find(|&u| alive[u] && inst.degree(u) == deg)
        };
        if let Some(u) = pick(&inst, &alive, 0) {
            // R0: no interactions left.
            let plan = argmin(&inst.costs[u]);
            steps.push(Step::Fixed { node: u, plan });
            alive[u] = false;
            remaining -= 1;
        } else if let Some(u) = pick(&inst, &alive, 1) {
            // RI: fold into the single neighbour.
            let v = inst.adj[u][0];
            let ku = inst.costs[u].len();
            let kv = inst.costs[v].len();
            let mut best = vec![0usize; kv];
            let mut delta = vec![u64::MAX; kv];
            for j in 0..kv {
                for i in 0..ku {
                    let c = inst.costs[u][i].saturating_add(inst.edge_row(u, v, i, j));
                    if c < delta[j] {
                        delta[j] = c;
                        best[j] = i;
                    }
                }
            }
            for j in 0..kv {
                inst.costs[v][j] = inst.costs[v][j].saturating_add(delta[j]);
            }
            inst.remove_edge(u, v);
            steps.push(Step::FoldedRi {
                node: u,
                neighbor: v,
                best,
            });
            alive[u] = false;
            remaining -= 1;
        } else if let Some(u) = pick(&inst, &alive, 2) {
            // RII: fold into an edge between the two neighbours.
            let (l, r) = (inst.adj[u][0], inst.adj[u][1]);
            let ku = inst.costs[u].len();
            let (kl, kr) = (inst.costs[l].len(), inst.costs[r].len());
            let mut best = vec![vec![0usize; kr]; kl];
            let mut m = vec![vec![0u64; kr]; kl];
            for (j, best_row) in best.iter_mut().enumerate() {
                for (k, slot) in best_row.iter_mut().enumerate() {
                    let mut mincost = u64::MAX;
                    for i in 0..ku {
                        let c = inst.costs[u][i]
                            .saturating_add(inst.edge_row(u, l, i, j))
                            .saturating_add(inst.edge_row(u, r, i, k));
                        if c < mincost {
                            mincost = c;
                            *slot = i;
                        }
                    }
                    m[j][k] = mincost;
                }
            }
            inst.remove_edge(u, l);
            inst.remove_edge(u, r);
            inst.add_edge_matrix(l, r, m);
            steps.push(Step::FoldedRii {
                node: u,
                left: l,
                right: r,
                best,
            });
            alive[u] = false;
            remaining -= 1;
        } else {
            // RN heuristic: fix the highest-degree node locally.
            let Some(u) = (0..n).filter(|&u| alive[u]).max_by_key(|&u| inst.degree(u)) else {
                unreachable!("RN step with no alive nodes (remaining = {remaining})")
            };
            let ku = inst.costs[u].len();
            let mut bestplan = 0usize;
            let mut bestcost = u64::MAX;
            for i in 0..ku {
                let mut c = inst.costs[u][i];
                for &v in inst.adj[u].clone().iter() {
                    let kv = inst.costs[v].len();
                    c = c.saturating_add(
                        (0..kv)
                            .map(|j| inst.edge_row(u, v, i, j))
                            .min()
                            .unwrap_or(0),
                    );
                }
                if c < bestcost {
                    bestcost = c;
                    bestplan = i;
                }
            }
            // Push the fixed choice's edge costs into the neighbours.
            for v in inst.adj[u].clone() {
                let kv = inst.costs[v].len();
                for j in 0..kv {
                    let e = inst.edge_row(u, v, bestplan, j);
                    inst.costs[v][j] = inst.costs[v][j].saturating_add(e);
                }
                inst.remove_edge(u, v);
            }
            steps.push(Step::Fixed {
                node: u,
                plan: bestplan,
            });
            alive[u] = false;
            remaining -= 1;
            rn_steps += 1;
        }
    }

    // Backtrack in reverse reduction order.
    let mut choice = vec![0usize; n];
    for step in steps.iter().rev() {
        match step {
            Step::Fixed { node, plan } => choice[*node] = *plan,
            Step::FoldedRi {
                node,
                neighbor,
                best,
            } => {
                choice[*node] = best[choice[*neighbor]];
            }
            Step::FoldedRii {
                node,
                left,
                right,
                best,
            } => {
                choice[*node] = best[choice[*left]][choice[*right]];
            }
        }
    }
    Solution { choice, rn_steps }
}

fn argmin(xs: &[u64]) -> usize {
    xs.iter()
        .enumerate()
        .min_by_key(|(_, &x)| x)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::enumerate_plans;
    use crate::solve::{chain_dp, exhaustive, local_optimal};
    use gcd2_cgraph::{NodeId, OpKind, TShape};
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
    fn pbqp_is_exact_on_chains() {
        // Chains reduce entirely via R0/RI: the result must equal the
        // chain DP optimum.
        let (g, chain) = conv_chain(8, 48);
        let plans = enumerate_plans(&g, &CostModel::new());
        let dp = chain_dp(&g, &plans, &chain);
        let pbqp = pbqp_select(&g, &plans);
        assert_eq!(pbqp.cost, dp.cost, "PBQP must be optimal on chains");
    }

    #[test]
    fn pbqp_never_worse_than_local_on_dags() {
        // Residual structure introduces degree-3 nodes (RN heuristic).
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 48, 14, 14));
        let mut cur = x;
        for i in 0..4 {
            let c1 = g.add(
                OpKind::Conv2d {
                    out_channels: 48,
                    kernel: (3, 3),
                    stride: (1, 1),
                    padding: (1, 1),
                },
                &[cur],
                format!("b{i}.conv1"),
            );
            let c2 = g.add(
                OpKind::Conv2d {
                    out_channels: 48,
                    kernel: (1, 1),
                    stride: (1, 1),
                    padding: (0, 0),
                },
                &[c1],
                format!("b{i}.conv2"),
            );
            cur = g.add(OpKind::Add, &[c2, cur], format!("b{i}.add"));
        }
        let _pool = g.add(
            OpKind::MaxPool {
                kernel: (2, 2),
                stride: (2, 2),
            },
            &[cur],
            "pool",
        );
        let plans = enumerate_plans(&g, &CostModel::new());
        let local = local_optimal(&g, &plans);
        let pbqp = pbqp_select(&g, &plans);
        assert!(
            pbqp.cost <= local.cost,
            "pbqp {} vs local {}",
            pbqp.cost,
            local.cost
        );
        assert_eq!(
            pbqp.cost,
            crate::plan::assignment_cost(&g, &plans, &pbqp.choice)
        );
    }

    #[test]
    fn pbqp_close_to_exhaustive_on_small_dags() {
        let (g, chain) = conv_chain(6, 96);
        let plans = enumerate_plans(&g, &CostModel::new());
        let global = exhaustive(&g, &plans, &chain);
        let pbqp = pbqp_select(&g, &plans);
        assert!(
            pbqp.cost as f64 <= global.cost as f64 * 1.05,
            "pbqp {} vs global {}",
            pbqp.cost,
            global.cost
        );
    }

    #[test]
    fn parallel_edges_are_merged() {
        // A node consuming the same producer twice (e.g. x*x) creates a
        // parallel edge pair; the instance must merge them.
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
        let _sq = g.add(OpKind::Mul, &[c, c], "square");
        let plans = enumerate_plans(&g, &CostModel::new());
        let pbqp = pbqp_select(&g, &plans);
        assert_eq!(
            pbqp.cost,
            crate::plan::assignment_cost(&g, &plans, &pbqp.choice)
        );
    }
    /// `solve` on a bare instance: whenever the reductions needed no RN
    /// step the choice is a global optimum — its total equals brute
    /// force over every assignment — and it is never worse than taking
    /// each node's cheapest option; ties resolve to the lowest index.
    #[test]
    fn solve_equals_brute_force_when_no_rn_step_fired() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        let total = |costs: &[Vec<u64>], edges: &[(usize, usize, Vec<Vec<u64>>)], c: &[usize]| {
            let nodes: u64 = costs.iter().zip(c).map(|(v, &i)| v[i]).sum();
            let pairs: u64 = edges.iter().map(|(u, v, m)| m[c[*u]][c[*v]]).sum();
            nodes + pairs
        };
        let (mut exact, mut heuristic) = (0, 0);
        for _ in 0..400 {
            let n = 1 + next(8) as usize;
            let costs: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..1 + next(4)).map(|_| next(50)).collect())
                .collect();
            let mut edges = Vec::new();
            for u in 0..n {
                for v in 0..n {
                    // Sparse, both orientations, parallel edges included.
                    if u != v && next(4) == 0 {
                        let m = (0..costs[u].len())
                            .map(|_| (0..costs[v].len()).map(|_| next(50)).collect())
                            .collect();
                        edges.push((u, v, m));
                    }
                }
            }
            let got = solve(costs.clone(), edges.clone());
            let mut best = u64::MAX;
            let mut c = vec![0usize; n];
            'all: loop {
                best = best.min(total(&costs, &edges, &c));
                for u in 0..n {
                    c[u] += 1;
                    if c[u] < costs[u].len() {
                        continue 'all;
                    }
                    c[u] = 0;
                }
                break;
            }
            let cost = total(&costs, &edges, &got.choice);
            assert!(cost >= best);
            if got.rn_steps == 0 {
                assert_eq!(cost, best, "exact reductions must reach the optimum");
                exact += 1;
            } else {
                heuristic += 1;
            }
        }
        assert!(
            exact >= 100 && heuristic >= 10,
            "{exact} exact, {heuristic} RN"
        );
        // Ties go to the lowest option index.
        let tie = solve(
            vec![vec![3, 3], vec![1, 1, 1]],
            [(0, 1, vec![vec![0; 3]; 2])],
        );
        assert_eq!((tie.choice, tie.rn_steps), (vec![0, 0], 0));
    }
}
