//! Property tests on the global selection machinery: optimality of the
//! chain DP against random assignments, dominance relations between
//! solvers, and partition well-formedness on randomized graphs.

use gcd2_cgraph::{Activation, Graph, NodeId, OpKind, TShape};
use gcd2_globalopt::{
    assignment_cost, chain_dp, enumerate_plans, gcd2_select, local_optimal, partition, pbqp_select,
};
use gcd2_kernels::CostModel;
use proptest::prelude::*;

/// A random straight-line network alternating convs, depthwise convs,
/// activations, and pools, with varying channel counts.
fn arb_chain() -> impl Strategy<Value = (Graph, Vec<NodeId>)> {
    (
        proptest::collection::vec((0u8..5, 1usize..5), 2..9),
        8usize..64,
    )
        .prop_map(|(ops, base_ch)| {
            let mut g = Graph::new();
            let mut prev = g.input("x", TShape::nchw(1, base_ch, 16, 16));
            let mut chain = Vec::new();
            let mut ch = base_ch;
            for (i, (kind, param)) in ops.into_iter().enumerate() {
                // Keep spatial dims comfortably divisible.
                prev = match kind {
                    0 => {
                        ch = (param * 16).max(8);
                        g.add(
                            OpKind::Conv2d {
                                out_channels: ch,
                                kernel: (1, 1),
                                stride: (1, 1),
                                padding: (0, 0),
                            },
                            &[prev],
                            format!("conv{i}"),
                        )
                    }
                    1 => g.add(
                        OpKind::Conv2d {
                            out_channels: ch,
                            kernel: (3, 3),
                            stride: (1, 1),
                            padding: (1, 1),
                        },
                        &[prev],
                        format!("conv3{i}"),
                    ),
                    2 => g.add(
                        OpKind::DepthwiseConv2d {
                            kernel: (3, 3),
                            stride: (1, 1),
                            padding: (1, 1),
                        },
                        &[prev],
                        format!("dw{i}"),
                    ),
                    3 => g.add(OpKind::Act(Activation::Relu), &[prev], format!("act{i}")),
                    _ => g.add(
                        OpKind::MaxPool {
                            kernel: (1, 1),
                            stride: (1, 1),
                        },
                        &[prev],
                        format!("pool{i}"),
                    ),
                };
                chain.push(prev);
            }
            (g, chain)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chain DP never loses to any random assignment (optimality
    /// sampling) nor to the greedy local baseline.
    #[test]
    fn chain_dp_is_optimal_under_sampling(
        (g, chain) in arb_chain(),
        seeds in proptest::collection::vec(any::<u64>(), 8),
    ) {
        let model = CostModel::new();
        let plans = enumerate_plans(&g, &model);
        let dp = chain_dp(&g, &plans, &chain);
        let local = local_optimal(&g, &plans);
        prop_assert!(dp.cost <= local.cost);
        // Random assignments.
        for seed in seeds {
            let mut state = seed | 1;
            let choice: Vec<usize> = g
                .nodes()
                .iter()
                .map(|n| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(17);
                    (state >> 33) as usize % plans.of(n.id).len()
                })
                .collect();
            let random_cost = assignment_cost(&g, &plans, &choice);
            prop_assert!(dp.cost <= random_cost, "dp {} vs random {}", dp.cost, random_cost);
        }
    }

    /// The partition heuristic and the PBQP solver both dominate the
    /// local baseline and report internally consistent costs.
    #[test]
    fn heuristics_dominate_local((g, _chain) in arb_chain()) {
        let model = CostModel::new();
        let plans = enumerate_plans(&g, &model);
        let local = local_optimal(&g, &plans);
        for a in [gcd2_select(&g, &plans, 13), pbqp_select(&g, &plans).0] {
            prop_assert!(a.cost <= local.cost);
            prop_assert_eq!(a.cost, assignment_cost(&g, &plans, &a.choice));
        }
    }

    /// Partitions cover all operators exactly once, in bound.
    #[test]
    fn partitions_are_well_formed((g, _chain) in arb_chain(), max_ops in 1usize..9) {
        let model = CostModel::new();
        let plans = enumerate_plans(&g, &model);
        let parts = partition(&g, &plans, max_ops);
        let mut seen = std::collections::HashSet::new();
        for part in &parts {
            prop_assert!(!part.is_empty());
            prop_assert!(part.len() <= max_ops);
            for id in part {
                prop_assert!(seen.insert(*id), "node {id} in two partitions");
            }
        }
        prop_assert_eq!(seen.len(), g.op_count());
    }
}
