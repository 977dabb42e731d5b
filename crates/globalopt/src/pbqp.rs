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
//!
//! The order is Anderson's, and it is fixed: R0 takes the lowest-index
//! node of degree 0, else RI the lowest of degree 1, else RII the lowest
//! of degree 2, else RN the node of highest degree, the last among
//! equals. Live nodes wait in degree worklists that yield exactly that
//! node, so a step costs a heap operation instead of a scan over every
//! node. Edge matrices are dense row-major arrays reached through each
//! node's adjacency entry, and a reduction takes each matrix it reads
//! once, not once per element. The direct form — nested `Vec` matrices
//! in a hash map, a scan per degree class per step — is kept as the
//! test-only oracle `pbqp::reference`, which this solver matches step
//! for step.

use crate::plan::{edge_tc, Assignment, PlanSet};
use gcd2_cgraph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[cfg(test)]
mod reference;

/// A dense edge matrix, row-major: entry `(i, j)` at `data[i * cols + j]`.
#[derive(Clone)]
struct Matrix {
    cols: usize,
    data: Vec<u64>,
}

impl Matrix {
    fn rows(&self) -> usize {
        self.data.len() / self.cols.max(1)
    }

    fn transposed(&self) -> Matrix {
        let rows = self.rows();
        let mut data = vec![0u64; self.data.len()];
        for i in 0..rows {
            for j in 0..self.cols {
                data[j * rows + i] = self.data[i * self.cols + j];
            }
        }
        Matrix { cols: rows, data }
    }
}

/// An edge matrix seen from one of its ends: `at(i, j)` is the cost of
/// that end taking option `i` while the other takes option `j`.
#[derive(Clone, Copy)]
struct Oriented<'a> {
    data: &'a [u64],
    /// How far apart consecutive options of the near end, then of the
    /// far end, lie in `data`.
    stride: (usize, usize),
}

impl Oriented<'_> {
    fn at(&self, i: usize, j: usize) -> u64 {
        self.data[i * self.stride.0 + j * self.stride.1]
    }
}

/// The strides of a stored matrix (rows index the smaller node id) seen
/// from node `u` of the edge `(u, v)`.
fn strides(u: usize, v: usize, cols: usize) -> (usize, usize) {
    if u < v {
        (cols, 1)
    } else {
        (1, cols)
    }
}

/// Edge slot `slot`, between `u` and `v`, seen from `u`.
fn oriented(edges: &[Option<Matrix>], u: usize, v: usize, slot: usize) -> Oriented<'_> {
    let Some(m) = &edges[slot] else {
        unreachable!("edge ({u}, {v}) reads removed slot {slot}")
    };
    Oriented {
        data: &m.data,
        stride: strides(u, v, m.cols),
    }
}

/// A PBQP instance: one cost vector per node, one dense cost matrix per
/// interacting pair.
#[derive(Clone)]
struct Instance {
    /// Cost vector per node.
    costs: Vec<Vec<u64>>,
    /// Edge matrices by slot, `None` once removed; each is stored with
    /// its rows indexing the smaller node id.
    edges: Vec<Option<Matrix>>,
    /// Per node, its live edges as `(neighbour, slot)`, in the order the
    /// edges were added.
    adj: Vec<Vec<(usize, usize)>>,
}

impl Instance {
    fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// The slot of the edge between `u` and `v`, if there is one.
    fn slot(&self, u: usize, v: usize) -> Option<usize> {
        self.adj[u].iter().find(|&&(x, _)| x == v).map(|&(_, s)| s)
    }

    fn remove_edge(&mut self, u: usize, v: usize, slot: usize) {
        self.edges[slot] = None;
        self.adj[u].retain(|&(x, _)| x != v);
        self.adj[v].retain(|&(x, _)| x != u);
    }

    /// Adds `m`, whose rows index `u`'s options, to the edge `(u, v)`:
    /// summed into the edge already there, or as a new edge at the end
    /// of both adjacency lists.
    fn add_edge(&mut self, u: usize, v: usize, m: Matrix) {
        let m = if u < v { m } else { m.transposed() };
        match self.slot(u, v) {
            Some(slot) => {
                let Some(acc) = &mut self.edges[slot] else {
                    unreachable!("live edge ({u}, {v}) has no matrix in slot {slot}")
                };
                for (a, b) in acc.data.iter_mut().zip(&m.data) {
                    *a = a.saturating_add(*b);
                }
            }
            None => {
                let slot = self.edges.len();
                self.edges.push(Some(m));
                self.adj[u].push((v, slot));
                self.adj[v].push((u, slot));
            }
        }
    }
}

/// A reduction step, recorded for backtracking.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    /// Node fixed outright (R0 or RN): no dependence on neighbours.
    Fixed { node: usize, plan: usize },
    /// RI: `node`'s best plan per neighbour plan was tabulated.
    FoldedRi {
        node: usize,
        neighbor: usize,
        best: Vec<usize>,
    },
    /// RII: `node`'s best plan per (left-plan, right-plan) pair, at
    /// `best[l * right_options + r]`.
    FoldedRii {
        node: usize,
        left: usize,
        right: usize,
        best: Vec<usize>,
    },
}

/// The choice `steps` imply, backtracked in reverse reduction order;
/// `options(u)` is node `u`'s option count.
fn backtrack(steps: &[Step], nodes: usize, options: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut choice = vec![0usize; nodes];
    for step in steps.iter().rev() {
        match step {
            Step::Fixed { node, plan } => choice[*node] = *plan,
            Step::FoldedRi {
                node,
                neighbor,
                best,
            } => choice[*node] = best[choice[*neighbor]],
            Step::FoldedRii {
                node,
                left,
                right,
                best,
            } => choice[*node] = best[choice[*left] * options(*right) + choice[*right]],
        }
    }
    choice
}

/// Node `u`'s cost vector per plan of a graph's selection instance.
fn node_costs(graph: &Graph, plans: &PlanSet) -> Vec<Vec<u64>> {
    (graph.nodes().iter())
        .map(|node| plans.of(node.id).iter().map(|p| p.cost).collect())
        .collect()
}

/// The transformation costs of graph edge `(prod, cons)`, row-major:
/// producer plan by consumer plan.
fn edge_costs<'a>(
    graph: &'a Graph,
    plans: &'a PlanSet,
    prod: NodeId,
    cons: NodeId,
) -> impl Iterator<Item = u64> + 'a {
    plans.of(prod).iter().flat_map(move |from| {
        (plans.of(cons).iter()).map(move |to| edge_tc(graph, prod, from.layout, to.layout))
    })
}

/// The PBQP instance of a graph's instruction/layout selection: plan
/// costs become the cost vectors, and each graph edge's transformation
/// costs an edge matrix, oriented by the data flow. Its total for a
/// choice is [`crate::plan::assignment_cost`]. [`pbqp_select`] solves it;
/// [`certify`] takes the same instance.
pub fn pbqp_instance(graph: &Graph, plans: &PlanSet) -> (Vec<Vec<u64>>, Vec<EdgeMatrix>) {
    let edges = graph
        .edges()
        .into_iter()
        .map(|(prod, cons)| {
            let flat: Vec<u64> = edge_costs(graph, plans, prod, cons).collect();
            let m = flat.chunks(plans.of(cons).len()).map(<[u64]>::to_vec);
            (prod.0, cons.0, m.collect())
        })
        .collect();
    (node_costs(graph, plans), edges)
}

/// An edge of a PBQP instance: `(u, v, m)` adds `m[i][j]` when `u` takes
/// option `i` while `v` takes option `j`.
pub type EdgeMatrix = (usize, usize, Vec<Vec<u64>>);

/// Solves the layout/instruction selection problem with the PBQP
/// reduction heuristic: [`solve`] over [`pbqp_instance`], with the edge
/// matrices built dense in place. Returns the assignment and
/// [`Solution::rn_steps`]. Exact when the reductions never need the RN
/// (degree ≥ 3) heuristic — in particular on chains and trees — so
/// `rn_steps == 0` certifies the assignment optimal.
pub fn pbqp_select(graph: &Graph, plans: &PlanSet) -> (Assignment, usize) {
    let edges = graph.edges().into_iter().map(|(prod, cons)| {
        let data = edge_costs(graph, plans, prod, cons).collect();
        let cols = plans.of(cons).len();
        (prod.0, cons.0, Matrix { cols, data })
    });
    let mut reduction = Reduction::new(node_costs(graph, plans), edges);
    let rn_steps = reduction.finish();
    let choice = reduction.choice();
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

/// Dense matrices of public [`EdgeMatrix`] edges.
fn dense(
    edges: impl IntoIterator<Item = EdgeMatrix>,
) -> impl Iterator<Item = (usize, usize, Matrix)> {
    edges.into_iter().map(|(u, v, m)| {
        let cols = m.first().map_or(0, Vec::len);
        (
            u,
            v,
            Matrix {
                cols,
                data: m.concat(),
            },
        )
    })
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
    let mut reduction = Reduction::new(costs, dense(edges));
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
    let root = Reduction::new(costs, dense(edges));
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
    /// Live nodes of degree 0, 1 and 2, lowest index first.
    low: [BinaryHeap<Reverse<usize>>; 3],
    /// Live nodes of degree ≥ 3 by `(degree, index)`, highest first.
    /// In both worklists an entry goes stale once its node retires or
    /// changes degree, and is dropped when it reaches the top; every
    /// live node has an entry for its current degree.
    high: BinaryHeap<(usize, usize)>,
}

impl Reduction {
    fn new(costs: Vec<Vec<u64>>, edges: impl IntoIterator<Item = (usize, usize, Matrix)>) -> Self {
        let n = costs.len();
        let mut inst = Instance {
            adj: vec![Vec::new(); n],
            costs,
            edges: Vec::new(),
        };
        for (u, v, m) in edges {
            if u != v {
                inst.add_edge(u, v, m);
            }
        }
        let mut reduction = Reduction {
            inst,
            alive: vec![true; n],
            remaining: n,
            steps: Vec::new(),
            fixed: 0,
            low: Default::default(),
            high: BinaryHeap::new(),
        };
        for u in 0..n {
            reduction.enlist(u);
        }
        reduction
    }

    /// Files live node `u` under its current degree.
    fn enlist(&mut self, u: usize) {
        match self.inst.degree(u) {
            d @ 0..=2 => self.low[d].push(Reverse(u)),
            d => self.high.push((d, u)),
        }
    }

    /// Takes the lowest-index live node of degree `d` (0, 1 or 2).
    fn take_low(&mut self, d: usize) -> Option<usize> {
        while let Some(Reverse(u)) = self.low[d].pop() {
            if self.alive[u] && self.inst.degree(u) == d {
                return Some(u);
            }
        }
        None
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
    /// among equals), which stays listed until that step retires it.
    fn reduce(&mut self) -> Option<usize> {
        while self.remaining > 0 {
            if let Some(u) = self.take_low(0) {
                // R0: no interactions left.
                self.fix(u, argmin(&self.inst.costs[u]));
            } else if let Some(u) = self.take_low(1) {
                self.fold_ri(u);
            } else if let Some(u) = self.take_low(2) {
                self.fold_rii(u);
            } else {
                while let Some(&(d, u)) = self.high.peek() {
                    if self.alive[u] && self.inst.degree(u) == d {
                        return Some(u);
                    }
                    self.high.pop();
                }
                unreachable!(
                    "RN step with no live node listed (remaining = {})",
                    self.remaining
                )
            }
        }
        None
    }

    /// RI: folds degree-1 node `u` into its neighbour's cost vector.
    fn fold_ri(&mut self, u: usize) {
        let Instance { costs, edges, adj } = &mut self.inst;
        let (v, slot) = adj[u][0];
        let e = oriented(edges, u, v, slot);
        let (cu, cv) = pair_mut(costs, u, v);
        let mut best = vec![0usize; cv.len()];
        for (j, (c, b)) in cv.iter_mut().zip(&mut best).enumerate() {
            let mut delta = u64::MAX;
            for (i, &x) in cu.iter().enumerate() {
                let cost = x.saturating_add(e.at(i, j));
                if cost < delta {
                    delta = cost;
                    *b = i;
                }
            }
            *c = c.saturating_add(delta);
        }
        self.inst.remove_edge(u, v, slot);
        self.steps.push(Step::FoldedRi {
            node: u,
            neighbor: v,
            best,
        });
        self.retire(u);
        self.enlist(v);
    }

    /// RII: folds degree-2 node `u` into an edge between its two
    /// neighbours, summed in place into the edge they already share.
    fn fold_rii(&mut self, u: usize) {
        let inst = &mut self.inst;
        let [(l, sl), (r, sr)] = [inst.adj[u][0], inst.adj[u][1]];
        let (kl, kr) = (inst.costs[l].len(), inst.costs[r].len());
        let shared = inst.slot(l, r);
        let mut m = match shared {
            Some(slot) => {
                let Some(m) = inst.edges[slot].take() else {
                    unreachable!("live edge ({l}, {r}) has no matrix in slot {slot}")
                };
                m
            }
            None => Matrix {
                cols: if l < r { kr } else { kl },
                data: vec![0; kl * kr],
            },
        };
        let at = strides(l, r, m.cols);
        let (el, er) = (
            oriented(&inst.edges, u, l, sl),
            oriented(&inst.edges, u, r, sr),
        );
        let cu = &inst.costs[u];
        let mut best = vec![0usize; kl * kr];
        for j in 0..kl {
            for k in 0..kr {
                let mut mincost = u64::MAX;
                for (i, &x) in cu.iter().enumerate() {
                    let c = x.saturating_add(el.at(i, j)).saturating_add(er.at(i, k));
                    if c < mincost {
                        mincost = c;
                        best[j * kr + k] = i;
                    }
                }
                let cell = &mut m.data[j * at.0 + k * at.1];
                *cell = cell.saturating_add(mincost);
            }
        }
        inst.remove_edge(u, l, sl);
        inst.remove_edge(u, r, sr);
        match shared {
            Some(slot) => inst.edges[slot] = Some(m),
            None => {
                let slot = inst.edges.len();
                inst.edges.push(Some(m));
                inst.adj[l].push((r, slot));
                inst.adj[r].push((l, slot));
            }
        }
        self.steps.push(Step::FoldedRii {
            node: u,
            left: l,
            right: r,
            best,
        });
        self.retire(u);
        self.enlist(l);
        self.enlist(r);
    }

    /// The RN heuristic's option for `u`: the cheapest by its own cost
    /// plus the row minimum of every incident edge matrix.
    fn local_plan(&self, u: usize) -> usize {
        let inst = &self.inst;
        let mut bestplan = 0usize;
        let mut bestcost = u64::MAX;
        for (i, &own) in inst.costs[u].iter().enumerate() {
            let mut c = own;
            for &(v, slot) in &inst.adj[u] {
                let e = oriented(&inst.edges, u, v, slot);
                let row_min = (0..inst.costs[v].len()).map(|j| e.at(i, j)).min();
                c = c.saturating_add(row_min.unwrap_or(0));
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
        let Instance { costs, edges, adj } = &mut self.inst;
        let neighbours = std::mem::take(&mut adj[u]);
        for &(v, slot) in &neighbours {
            let e = oriented(edges, u, v, slot);
            for (j, c) in costs[v].iter_mut().enumerate() {
                *c = c.saturating_add(e.at(plan, j));
            }
            edges[slot] = None;
            adj[v].retain(|&(x, _)| x != u);
        }
        self.fixed = self.fixed.saturating_add(costs[u][plan]);
        self.steps.push(Step::Fixed { node: u, plan });
        self.retire(u);
        for &(v, _) in &neighbours {
            self.enlist(v);
        }
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
            (self.inst.edges.iter().flatten()).map(|m| m.data.iter().copied().min().unwrap_or(0));
        nodes
            .chain(edges)
            .fold(self.fixed, |acc, c| acc.saturating_add(c))
    }

    /// The choice every step so far implies, backtracked in reverse
    /// reduction order; complete once no node is left.
    fn choice(&self) -> Vec<usize> {
        backtrack(&self.steps, self.alive.len(), |u| self.inst.costs[u].len())
    }
}

/// Mutable references to two distinct elements of `xs`.
fn pair_mut<T>(xs: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    if a < b {
        let (lo, hi) = xs.split_at_mut(b);
        (&mut lo[a], &mut hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(a);
        (&mut hi[0], &mut lo[b])
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

    /// [`solve`] with every reduction step it took.
    fn traced(costs: Vec<Vec<u64>>, edges: Vec<EdgeMatrix>) -> (Solution, Vec<Step>) {
        let mut reduction = Reduction::new(costs, dense(edges));
        let rn_steps = reduction.finish();
        let choice = reduction.choice();
        (Solution { choice, rn_steps }, reduction.steps)
    }

    /// The worklist solver takes the reference's steps, in its order, with
    /// the same tables, on every catalog model's selection instance; and
    /// `pbqp_select`, which builds its dense matrices from the graph, picks
    /// the same assignment.
    #[test]
    fn worklists_take_the_reference_steps_on_the_catalog() {
        let model = CostModel::new();
        for id in gcd2_models::ModelId::ALL {
            let g = gcd2_cgraph::optimize(&id.build());
            let plans = enumerate_plans(&g, &model);
            let (costs, edges) = pbqp_instance(&g, &plans);
            let want = reference::solve_traced(costs.clone(), edges.clone());
            let got = traced(costs, edges);
            assert_eq!(got, want, "{id:?}");
            let (assignment, rn_steps) = pbqp_select(&g, &plans);
            assert_eq!(
                (assignment.choice, rn_steps),
                (want.0.choice, want.0.rn_steps)
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        /// Random instances of up to 24 nodes and degrees 0–6, with costs
        /// in `0..3` so that ties are everywhere: the same choice,
        /// `rn_steps` and step sequence as the reference.
        #[test]
        fn worklists_take_the_reference_steps_on_random_instances(
            seed in proptest::prelude::any::<u64>(),
            nodes in 1usize..25,
        ) {
            let mut next = rng(seed | 1);
            let costs: Vec<Vec<u64>> = (0..nodes)
                .map(|_| (0..1 + next(4)).map(|_| next(3)).collect())
                .collect();
            let mut neighbours = vec![Vec::new(); nodes];
            let mut edges = Vec::new();
            for _ in 0..next(4 * nodes as u64) {
                let (u, v) = (next(nodes as u64) as usize, next(nodes as u64) as usize);
                let new = !neighbours[u].contains(&v);
                if u == v || new && (neighbours[u].len() == 6 || neighbours[v].len() == 6) {
                    continue;
                }
                if new {
                    neighbours[u].push(v);
                    neighbours[v].push(u);
                }
                let m = (0..costs[u].len())
                    .map(|_| (0..costs[v].len()).map(|_| next(3)).collect())
                    .collect();
                edges.push((u, v, m));
            }
            let want = reference::solve_traced(costs.clone(), edges.clone());
            proptest::prop_assert_eq!(traced(costs, edges), want);
        }
    }
}
