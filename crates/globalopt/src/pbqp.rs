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
//! R0/RI/RII exact; only RN steps can lose optimality. [`certify`]
//! closes that gap: a branch-and-bound over the RN choices, on the same
//! reductions, that proves the answer optimal or finds the optimum.
#![allow(clippy::needless_range_loop)]

use crate::plan::{edge_tc, Assignment, PlanSet};
use gcd2_cgraph::Graph;
use std::collections::HashMap;

/// A PBQP instance: one cost vector per node, one cost matrix per
/// interacting pair.
#[derive(Clone)]
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
#[derive(Clone)]
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

/// The PBQP instance of a graph's instruction/layout selection: plan
/// costs become the cost vectors, and each graph edge's transformation
/// costs an edge matrix, oriented by the data flow. Its total for a
/// choice is [`crate::plan::assignment_cost`]. [`pbqp_select`] solves it;
/// [`certify`] takes the same instance.
pub fn pbqp_instance(graph: &Graph, plans: &PlanSet) -> (Vec<Vec<u64>>, Vec<EdgeMatrix>) {
    let costs: Vec<Vec<u64>> = graph
        .nodes()
        .iter()
        .map(|node| plans.of(node.id).iter().map(|p| p.cost).collect())
        .collect();
    let edges = graph
        .edges()
        .into_iter()
        .map(|(prod, cons)| {
            let m = plans
                .of(prod)
                .iter()
                .map(|from| {
                    let tc = |to: &crate::plan::ExecutionPlan| {
                        edge_tc(graph, prod, from.layout, to.layout)
                    };
                    plans.of(cons).iter().map(tc).collect()
                })
                .collect();
            (prod.0, cons.0, m)
        })
        .collect();
    (costs, edges)
}

/// An edge of a PBQP instance: `(u, v, m)` adds `m[i][j]` when `u` takes
/// option `i` while `v` takes option `j`.
pub type EdgeMatrix = (usize, usize, Vec<Vec<u64>>);

/// Solves the layout/instruction selection problem with the PBQP
/// reduction heuristic: [`solve`] over [`pbqp_instance`]. Returns the
/// assignment and [`Solution::rn_steps`]. Exact when the reductions never
/// need the RN (degree ≥ 3) heuristic — in particular on chains and
/// trees — so `rn_steps == 0` certifies the assignment optimal.
pub fn pbqp_select(graph: &Graph, plans: &PlanSet) -> (Assignment, usize) {
    let (costs, edges) = pbqp_instance(graph, plans);
    let Solution { choice, rn_steps } = solve(costs, edges);
    let cost = crate::plan::assignment_cost(graph, plans, &choice);
    (Assignment { choice, cost }, rn_steps)
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
pub fn solve(costs: Vec<Vec<u64>>, edges: impl IntoIterator<Item = EdgeMatrix>) -> Solution {
    let mut reduction = Reduction::new(costs, edges);
    let rn_steps = reduction.finish();
    Solution {
        choice: reduction.choice(),
        rn_steps,
    }
}

/// What [`certify`] proved about an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The cheapest choice found: [`solve`]'s, unless the search found a
    /// strictly cheaper one.
    pub choice: Vec<usize>,
    /// The total cost of `choice`.
    pub cost: u64,
    /// No choice costs less than this. Equal to `cost` when `complete`.
    pub lower_bound: u64,
    /// Branch-and-bound states expanded; 0 when [`solve`] needed no RN
    /// step, since its answer is then optimal already.
    pub states: usize,
    /// Whether the search finished within its cap: `cost` is then the
    /// optimum of the instance.
    pub complete: bool,
}

/// Proves [`solve`]'s answer optimal, or finds the optimum, by
/// branch-and-bound over the RN choices. Each state runs the exact
/// reductions (R0/RI/RII) until they stall, then branches on every
/// option of the node [`solve`]'s RN step would fix there. A state's
/// lower bound is the cost fixed so far plus each live node's cheapest
/// entry plus each live edge's cheapest entry; a state whose bound
/// reaches the incumbent (at first [`solve`]'s answer) is pruned. At most
/// `max_states` states are expanded — a count, never a clock, so one
/// instance gets one certificate on every host. When the cap stops the
/// search, `lower_bound` is the least bound still open.
///
/// Exponential in the number of RN steps at worst; run it beside a
/// compile, not inside one.
pub fn certify(
    costs: Vec<Vec<u64>>,
    edges: impl IntoIterator<Item = EdgeMatrix>,
    max_states: usize,
) -> Certificate {
    let root = Reduction::new(costs, edges);
    let mut incumbent = root.clone();
    let rn_steps = incumbent.finish();
    let (mut choice, mut cost) = (incumbent.choice(), incumbent.fixed);
    if rn_steps == 0 {
        return Certificate {
            choice,
            lower_bound: cost,
            cost,
            states: 0,
            complete: true,
        };
    }
    let mut open = vec![(root.lower_bound(), root)];
    let mut states = 0usize;
    while states < max_states {
        let Some((bound, mut state)) = open.pop() else {
            break;
        };
        if bound >= cost {
            continue;
        }
        states += 1;
        let Some(u) = state.reduce() else {
            if state.fixed < cost {
                cost = state.fixed;
                choice = state.choice();
            }
            continue;
        };
        let mut children: Vec<(u64, usize, Reduction)> = (0..state.inst.costs[u].len())
            .map(|plan| {
                let mut child = state.clone();
                child.fix(u, plan);
                (child.lower_bound(), plan, child)
            })
            .filter(|&(bound, _, _)| bound < cost)
            .collect();
        // The lowest bound (then the lowest option) is expanded next.
        children.sort_by_key(|&(bound, plan, _)| std::cmp::Reverse((bound, plan)));
        open.extend(children.into_iter().map(|(bound, _, child)| (bound, child)));
    }
    let least_open = open
        .iter()
        .map(|&(bound, _)| bound)
        .filter(|&b| b < cost)
        .min();
    Certificate {
        choice,
        cost,
        lower_bound: least_open.unwrap_or(cost),
        states,
        complete: least_open.is_none(),
    }
}

/// An instance part-way through its reductions: what [`solve`] runs to
/// the end and each [`certify`] state advances.
#[derive(Clone)]
struct Reduction {
    inst: Instance,
    alive: Vec<bool>,
    remaining: usize,
    /// Every step so far, replayed backwards by [`Reduction::choice`].
    steps: Vec<Step>,
    /// What the nodes fixed so far (R0 and RN) pay at their fixed
    /// options; once no node is left, the total cost of the choice.
    fixed: u64,
}

impl Reduction {
    fn new(costs: Vec<Vec<u64>>, edges: impl IntoIterator<Item = EdgeMatrix>) -> Self {
        let n = costs.len();
        let mut inst = Instance::new(costs);
        for (u, v, m) in edges {
            if u != v {
                inst.add_edge_matrix(u, v, m);
            }
        }
        Reduction {
            inst,
            alive: vec![true; n],
            remaining: n,
            steps: Vec::new(),
            fixed: 0,
        }
    }

    /// Runs the reductions to the end, taking the RN heuristic step
    /// wherever they stall; returns how many RN steps that took.
    fn finish(&mut self) -> usize {
        let mut rn_steps = 0usize;
        while let Some(u) = self.reduce() {
            self.fix(u, self.local_plan(u));
            rn_steps += 1;
        }
        rn_steps
    }

    /// Applies the exact reductions, cheapest first, until no node is
    /// left (`None`) or every live node has degree ≥ 3. Then it returns
    /// the node an RN step fixes: the one of highest degree (the last
    /// among equals).
    fn reduce(&mut self) -> Option<usize> {
        let n = self.alive.len();
        while self.remaining > 0 {
            let pick = |deg: usize| (0..n).find(|&u| self.alive[u] && self.inst.degree(u) == deg);
            if let Some(u) = pick(0) {
                // R0: no interactions left.
                self.fix(u, argmin(&self.inst.costs[u]));
            } else if let Some(u) = pick(1) {
                self.fold_ri(u);
            } else if let Some(u) = pick(2) {
                self.fold_rii(u);
            } else {
                let rn = (0..n)
                    .filter(|&u| self.alive[u])
                    .max_by_key(|&u| self.inst.degree(u));
                let Some(u) = rn else {
                    unreachable!(
                        "RN step with no alive nodes (remaining = {})",
                        self.remaining
                    )
                };
                return Some(u);
            }
        }
        None
    }

    /// RI: folds degree-1 node `u` into its neighbour's cost vector.
    fn fold_ri(&mut self, u: usize) {
        let inst = &mut self.inst;
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
        self.steps.push(Step::FoldedRi {
            node: u,
            neighbor: v,
            best,
        });
        self.retire(u);
    }

    /// RII: folds degree-2 node `u` into an edge between its two
    /// neighbours.
    fn fold_rii(&mut self, u: usize) {
        let inst = &mut self.inst;
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
        self.steps.push(Step::FoldedRii {
            node: u,
            left: l,
            right: r,
            best,
        });
        self.retire(u);
    }

    /// The RN heuristic's option for `u`: the cheapest by its own cost
    /// plus the row minimum of every incident edge matrix.
    fn local_plan(&self, u: usize) -> usize {
        let inst = &self.inst;
        let mut bestplan = 0usize;
        let mut bestcost = u64::MAX;
        for i in 0..inst.costs[u].len() {
            let mut c = inst.costs[u][i];
            for &v in &inst.adj[u] {
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
        bestplan
    }

    /// Fixes `u` to `plan` (R0, or an RN step), pushing the fixed
    /// option's edge rows into its neighbours' cost vectors.
    fn fix(&mut self, u: usize, plan: usize) {
        let inst = &mut self.inst;
        for v in inst.adj[u].clone() {
            for j in 0..inst.costs[v].len() {
                let e = inst.edge_row(u, v, plan, j);
                inst.costs[v][j] = inst.costs[v][j].saturating_add(e);
            }
            inst.remove_edge(u, v);
        }
        self.fixed = self.fixed.saturating_add(inst.costs[u][plan]);
        self.steps.push(Step::Fixed { node: u, plan });
        self.retire(u);
    }

    fn retire(&mut self, u: usize) {
        self.alive[u] = false;
        self.remaining -= 1;
    }

    /// No completion of this state costs less: the cost fixed so far,
    /// plus each live node's cheapest entry, plus each live edge's
    /// cheapest entry.
    fn lower_bound(&self) -> u64 {
        let nodes = (self.alive.iter().zip(&self.inst.costs))
            .filter(|(&alive, _)| alive)
            .map(|(_, c)| c.iter().copied().min().unwrap_or(0));
        let edges =
            (self.inst.edges.values()).map(|m| m.iter().flatten().copied().min().unwrap_or(0));
        nodes
            .chain(edges)
            .fold(self.fixed, |acc, c| acc.saturating_add(c))
    }

    /// The choice every step so far implies, backtracked in reverse
    /// reduction order; complete once no node is left.
    fn choice(&self) -> Vec<usize> {
        let mut choice = vec![0usize; self.alive.len()];
        for step in self.steps.iter().rev() {
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
        choice
    }
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
        let (pbqp, _) = pbqp_select(&g, &plans);
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
        let (pbqp, _) = pbqp_select(&g, &plans);
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
        let (pbqp, _) = pbqp_select(&g, &plans);
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
        let (pbqp, _) = pbqp_select(&g, &plans);
        assert_eq!(
            pbqp.cost,
            crate::plan::assignment_cost(&g, &plans, &pbqp.choice)
        );
    }
    /// Xorshift numbers below `bound`, from a fixed seed.
    fn rng(mut seed: u64) -> impl FnMut(u64) -> u64 {
        move |bound| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        }
    }

    /// A random instance of up to `max_nodes` nodes with up to four
    /// options each: sparse edges in both orientations, parallel edges
    /// included, each ordered pair present with probability `1 / sparsity`.
    fn random_instance(
        next: &mut impl FnMut(u64) -> u64,
        max_nodes: u64,
        sparsity: u64,
    ) -> (Vec<Vec<u64>>, Vec<EdgeMatrix>) {
        let n = 1 + next(max_nodes) as usize;
        let costs: Vec<Vec<u64>> = (0..n)
            .map(|_| (0..1 + next(4)).map(|_| next(50)).collect())
            .collect();
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v && next(sparsity) == 0 {
                    let m = (0..costs[u].len())
                        .map(|_| (0..costs[v].len()).map(|_| next(50)).collect())
                        .collect();
                    edges.push((u, v, m));
                }
            }
        }
        (costs, edges)
    }

    fn total(costs: &[Vec<u64>], edges: &[EdgeMatrix], c: &[usize]) -> u64 {
        let nodes: u64 = costs.iter().zip(c).map(|(v, &i)| v[i]).sum();
        let pairs: u64 = edges.iter().map(|(u, v, m)| m[c[*u]][c[*v]]).sum();
        nodes + pairs
    }

    /// The optimum over every assignment, by enumeration.
    fn brute_force(costs: &[Vec<u64>], edges: &[EdgeMatrix]) -> u64 {
        let n = costs.len();
        let mut best = u64::MAX;
        let mut c = vec![0usize; n];
        'all: loop {
            best = best.min(total(costs, edges, &c));
            for u in 0..n {
                c[u] += 1;
                if c[u] < costs[u].len() {
                    continue 'all;
                }
                c[u] = 0;
            }
            return best;
        }
    }

    /// `solve` on a bare instance: whenever the reductions needed no RN
    /// step the choice is a global optimum — its total equals brute
    /// force over every assignment — and it is never worse than taking
    /// each node's cheapest option; ties resolve to the lowest index.
    /// `certify` reaches the brute-force optimum on every instance, the
    /// RN ones included, and is never worse than `solve`.
    #[test]
    fn solve_equals_brute_force_when_no_rn_step_fired() {
        let mut next = rng(0x9E37_79B9_7F4A_7C15);
        let (mut exact, mut heuristic, mut improved) = (0, 0, 0);
        for _ in 0..400 {
            let (costs, edges) = random_instance(&mut next, 8, 4);
            let got = solve(costs.clone(), edges.clone());
            let best = brute_force(&costs, &edges);
            let cost = total(&costs, &edges, &got.choice);
            assert!(cost >= best);
            if got.rn_steps == 0 {
                assert_eq!(cost, best, "exact reductions must reach the optimum");
                exact += 1;
            } else {
                heuristic += 1;
            }
            let cert = certify(costs.clone(), edges.clone(), usize::MAX);
            assert!(cert.complete);
            assert_eq!(total(&costs, &edges, &cert.choice), cert.cost);
            assert_eq!((cert.cost, cert.lower_bound), (best, best));
            assert!(cert.cost <= cost);
            if cert.cost < cost {
                improved += 1;
            } else {
                assert_eq!(cert.choice, got.choice, "ties keep solve's answer");
            }
            assert_eq!(cert.states == 0, got.rn_steps == 0);
        }
        assert!(
            exact >= 100 && heuristic >= 10 && improved >= 1,
            "{exact} exact, {heuristic} RN, {improved} improved by certify"
        );
        // Ties go to the lowest option index.
        let tie = solve(
            vec![vec![3, 3], vec![1, 1, 1]],
            [(0, 1, vec![vec![0; 3]; 2])],
        );
        assert_eq!((tie.choice, tie.rn_steps), (vec![0, 0], 0));
    }

    /// A `certify` stopped by its state cap says so, and still brackets
    /// the optimum: `lower_bound ≤ optimum ≤ cost`.
    #[test]
    fn capped_certify_brackets_the_optimum() {
        let mut next = rng(0x2545_F491_4F6C_DD1D);
        let mut capped = 0;
        for _ in 0..400 {
            let (costs, edges) = random_instance(&mut next, 8, 2);
            let best = brute_force(&costs, &edges);
            let full = certify(costs.clone(), edges.clone(), usize::MAX);
            for cap in [0, 1, full.states / 2] {
                let cert = certify(costs.clone(), edges.clone(), cap);
                assert!(cert.states <= cap);
                assert!(cert.lower_bound <= best && best <= cert.cost);
                assert_eq!(total(&costs, &edges, &cert.choice), cert.cost);
                if cert.complete {
                    assert_eq!((cert.cost, cert.lower_bound), (best, best));
                } else {
                    capped += 1;
                }
            }
            // Where solve missed the optimum, one state cannot prove it.
            let solved = solve(costs.clone(), edges.clone());
            if total(&costs, &edges, &solved.choice) > best {
                assert!(!certify(costs.clone(), edges.clone(), 1).complete);
            }
        }
        assert!(capped >= 20, "{capped} capped certificates");
    }
}
