//! The reference PBQP solver: the reductions written the direct way — a
//! hash map of nested `Vec` edge matrices looked up once per element, and
//! a scan over every node for each degree class at every step. It exists
//! as the oracle the worklist solver ([`super::solve`]) is checked against
//! step for step; nothing on a compile path calls it.
#![allow(clippy::needless_range_loop)]

use super::{EdgeMatrix, Solution, Step};
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
    fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// `M[i][j]` oriented so that `i` indexes `u`'s plans.
    fn edge_row(&self, u: usize, v: usize, i: usize, j: usize) -> u64 {
        let m = &self.edges[&(u.min(v), u.max(v))];
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

/// [`super::solve`] the direct way, with every reduction step it took.
pub(crate) fn solve_traced(
    costs: Vec<Vec<u64>>,
    edges: impl IntoIterator<Item = EdgeMatrix>,
) -> (Solution, Vec<Step>) {
    let n = costs.len();
    let mut r = Reduction {
        inst: Instance {
            adj: vec![Vec::new(); n],
            costs,
            edges: HashMap::new(),
        },
        alive: vec![true; n],
        remaining: n,
        steps: Vec::new(),
    };
    for (u, v, m) in edges {
        if u != v {
            r.inst.add_edge_matrix(u, v, m);
        }
    }
    let mut rn_steps = 0usize;
    while let Some(u) = r.reduce() {
        r.fix(u, r.local_plan(u));
        rn_steps += 1;
    }
    let choice = super::backtrack(&r.steps, n, |node| r.inst.costs[node].len());
    (Solution { choice, rn_steps }, r.steps)
}

struct Reduction {
    inst: Instance,
    alive: Vec<bool>,
    remaining: usize,
    steps: Vec<Step>,
}

impl Reduction {
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
                self.fix(u, super::argmin(&self.inst.costs[u]));
            } else if let Some(u) = pick(1) {
                self.fold_ri(u);
            } else if let Some(u) = pick(2) {
                self.fold_rii(u);
            } else {
                return (0..n)
                    .filter(|&u| self.alive[u])
                    .max_by_key(|&u| self.inst.degree(u));
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
            best: best.concat(),
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
        self.steps.push(Step::Fixed { node: u, plan });
        self.retire(u);
    }

    fn retire(&mut self, u: usize) {
        self.alive[u] = false;
        self.remaining -= 1;
    }
}
