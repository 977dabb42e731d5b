//! Graph-level rewrites.
//!
//! GCD2 leans on its host framework for classic computational-graph
//! optimizations ("converts the post-training quantized model to a
//! computational graph and optimizes it with various techniques, e.g.,
//! constant folding" — Section IV-D). This module implements the passes
//! that matter for the evaluation: constant folding, identity-reshape
//! elimination, and activation fusion into GEMM-like producers.
//!
//! Constant folding rebuilds the graph through [`Graph::add`], so every
//! shape is inferred afresh. The passes after it only drop nodes and
//! redirect their consumers to a node of the same shape, so they move
//! the surviving nodes — names, kinds, shapes — into the new graph as
//! they are.

use crate::graph::{Graph, NodeId};
use crate::op::OpKind;

/// Applies the standard pass pipeline: constant folding, identity-reshape
/// elimination, then activation fusion.
pub fn optimize(graph: &Graph) -> Graph {
    let g = drop_identity_reshapes(fold_constants(graph));
    fuse(g, OpKind::is_gemm_like)
}

/// DSP-friendly elementwise fusion — the extension the paper lists as
/// future work ("explore DSP-friendly operator fusion \[63\] to further
/// improve the performance"): a standalone activation whose single input
/// is an *elementwise* producer (Add/Mul) folds into that producer,
/// saving a full feature-map round trip through memory.
pub fn fuse_elementwise_activations(graph: &Graph) -> Graph {
    fuse(graph.clone(), |kind| {
        matches!(kind, OpKind::Add | OpKind::Mul)
    })
}

/// How many nodes consume each node's output (a node reading one value
/// twice counts once): `graph.succs(id).len()` for every id in one pass.
fn consumer_counts(graph: &Graph) -> Vec<usize> {
    let mut counts = vec![0usize; graph.len()];
    for node in graph.nodes() {
        for (k, i) in node.inputs.iter().enumerate() {
            if !node.inputs[..k].contains(i) {
                counts[i.0] += 1;
            }
        }
    }
    counts
}

/// Old id → new id of a rebuild, indexed by old id (ids are dense);
/// `None` for a node the rebuild dropped.
type IdMap = Vec<Option<NodeId>>;

/// The new id of old node `id`, which the rebuild kept.
fn mapped(map: &IdMap, id: NodeId) -> NodeId {
    let Some(new) = map[id.0] else {
        unreachable!("node {id} was dropped but is still referenced")
    };
    new
}

/// Rebuilds `graph` without every node `redirect` maps to a replacement
/// (indexed by id), whose consumers read the replacement instead — the
/// end of the chain, where replacements are dropped too. The kept nodes
/// move into the new graph unchanged but for their ids and inputs, so
/// a replacement must have the shape of the node it replaces.
fn rebuild(graph: Graph, redirect: &[Option<NodeId>]) -> (Graph, IdMap) {
    let mut map: IdMap = vec![None; redirect.len()];
    let mut nodes = Vec::with_capacity(graph.len());
    for mut node in graph.into_nodes() {
        if redirect[node.id.0].is_some() {
            continue;
        }
        for input in &mut node.inputs {
            let mut cur = *input;
            while let Some(next) = redirect[cur.0] {
                cur = next;
            }
            *input = mapped(&map, cur);
        }
        let id = NodeId(nodes.len());
        map[node.id.0] = Some(id);
        node.id = id;
        nodes.push(node);
    }
    (Graph::from_nodes_unchecked(nodes), map)
}

/// Replaces operators whose inputs are all constants with constants of
/// the same shape (the arithmetic itself happens at compile time and is
/// not modeled).
pub fn fold_constants(graph: &Graph) -> Graph {
    // Determine, in topological order, which nodes are constant-valued.
    let mut constant = vec![false; graph.len()];
    for node in graph.nodes() {
        constant[node.id.0] = match node.kind {
            OpKind::Constant => true,
            OpKind::Input => false,
            _ => !node.inputs.is_empty() && node.inputs.iter().all(|i| constant[i.0]),
        };
    }
    let mut out = Graph::new();
    let mut map: IdMap = vec![None; graph.len()];
    for node in graph.nodes() {
        let new_id = if constant[node.id.0] {
            out.constant(node.name.clone(), node.shape.clone())
        } else {
            match node.kind {
                OpKind::Input => out.input(node.name.clone(), node.shape.clone()),
                _ => {
                    let inputs: Vec<NodeId> =
                        node.inputs.iter().map(|&i| mapped(&map, i)).collect();
                    out.add(node.kind.clone(), &inputs, node.name.clone())
                }
            }
        };
        map[node.id.0] = Some(new_id);
    }
    out
}

/// Drops `Reshape` nodes whose output shape equals their input shape.
pub fn eliminate_identity_reshapes(graph: &Graph) -> Graph {
    drop_identity_reshapes(graph.clone())
}

fn drop_identity_reshapes(graph: Graph) -> Graph {
    let redirect: Vec<Option<NodeId>> = (graph.nodes().iter())
        .map(|n| {
            let identity = matches!(n.kind, OpKind::Reshape { .. })
                && n.inputs.len() == 1
                && graph.node(n.inputs[0]).shape == n.shape;
            identity.then(|| n.inputs[0])
        })
        .collect();
    rebuild(graph, &redirect).0
}

/// Fuses standalone activation nodes into their GEMM-like producer when
/// the producer has no other consumer.
pub fn fuse_activations(graph: &Graph) -> Graph {
    fuse(graph.clone(), OpKind::is_gemm_like)
}

/// Folds each standalone activation into its producer when the
/// producer's kind passes `fusable`, the producer has no activation yet,
/// and the activation is its only consumer.
fn fuse(graph: Graph, fusable: impl Fn(&OpKind) -> bool) -> Graph {
    let consumers = consumer_counts(&graph);
    // act -> producer, and the producers' activations.
    let mut redirect: Vec<Option<NodeId>> = vec![None; graph.len()];
    let mut fused = Vec::new();
    for node in graph.nodes() {
        if let (OpKind::Act(a), &[input]) = (&node.kind, &node.inputs[..]) {
            let p = graph.node(input);
            if fusable(&p.kind) && p.fused_activation.is_none() && consumers[p.id.0] == 1 {
                redirect[node.id.0] = Some(p.id);
                fused.push((p.id, *a));
            }
        }
    }
    let (mut out, map) = rebuild(graph, &redirect);
    for (producer, a) in fused {
        out.node_mut(mapped(&map, producer)).fused_activation = Some(a);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Activation;
    use crate::shape::TShape;

    #[test]
    fn fuses_relu_into_conv() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 3, 8, 8));
        let c = g.add(
            OpKind::Conv2d {
                out_channels: 4,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[x],
            "conv",
        );
        let r = g.add(OpKind::Act(Activation::Relu), &[c], "relu");
        let _out = g.add(OpKind::GlobalAvgPool, &[r], "gap");
        let opt = fuse_activations(&g);
        assert_eq!(opt.op_count(), 2); // conv + gap
        let conv = opt
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OpKind::Conv2d { .. }))
            .unwrap();
        assert_eq!(conv.fused_activation, Some(Activation::Relu));
        // gap now consumes the conv directly.
        let gap = opt
            .nodes()
            .iter()
            .find(|n| n.kind == OpKind::GlobalAvgPool)
            .unwrap();
        assert_eq!(gap.inputs, vec![conv.id]);
    }

    #[test]
    fn does_not_fuse_shared_producer() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 3, 8, 8));
        let c = g.add(
            OpKind::Conv2d {
                out_channels: 4,
                kernel: (1, 1),
                stride: (1, 1),
                padding: (0, 0),
            },
            &[x],
            "conv",
        );
        let r = g.add(OpKind::Act(Activation::Relu), &[c], "relu");
        let _branch = g.add(OpKind::Add, &[c, r], "residual");
        let opt = fuse_activations(&g);
        // The conv feeds two consumers, so the relu must survive.
        assert_eq!(opt.op_count(), 3);
    }

    #[test]
    fn identity_reshape_removed() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![4, 4]));
        let r = g.add(
            OpKind::Reshape {
                shape: TShape::new(vec![4, 4]),
            },
            &[x],
            "noop",
        );
        let _m = g.add(OpKind::MatMul { n: 8 }, &[r], "fc");
        let opt = eliminate_identity_reshapes(&g);
        assert_eq!(opt.op_count(), 1);
        let m = opt
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OpKind::MatMul { .. }))
            .unwrap();
        assert_eq!(opt.node(m.inputs[0]).kind, OpKind::Input);
    }

    #[test]
    fn real_reshape_kept() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![4, 4]));
        let _r = g.add(
            OpKind::Reshape {
                shape: TShape::new(vec![16]),
            },
            &[x],
            "flatten",
        );
        let opt = eliminate_identity_reshapes(&g);
        assert_eq!(opt.op_count(), 1);
    }

    #[test]
    fn constants_fold_transitively() {
        let mut g = Graph::new();
        let a = g.constant("a", TShape::new(vec![8]));
        let b = g.constant("b", TShape::new(vec![8]));
        let s = g.add(OpKind::Add, &[a, b], "a+b");
        let x = g.input("x", TShape::new(vec![8]));
        let _y = g.add(OpKind::Mul, &[s, x], "scale");
        let opt = fold_constants(&g);
        let folded = opt.nodes().iter().find(|n| n.name == "a+b").unwrap();
        assert_eq!(folded.kind, OpKind::Constant);
        // The Mul still exists and consumes the folded constant.
        assert!(opt.nodes().iter().any(|n| n.kind == OpKind::Mul));
    }

    #[test]
    fn elementwise_activation_fusion() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 8, 8, 8));
        let y = g.input("y", TShape::nchw(1, 8, 8, 8));
        let a = g.add(OpKind::Add, &[x, y], "add");
        let r = g.add(OpKind::Act(Activation::Relu), &[a], "relu");
        let _out = g.add(OpKind::GlobalAvgPool, &[r], "gap");
        let fused = fuse_elementwise_activations(&g);
        assert_eq!(fused.op_count(), 2);
        let add = fused
            .nodes()
            .iter()
            .find(|n| n.kind == OpKind::Add)
            .unwrap();
        assert_eq!(add.fused_activation, Some(Activation::Relu));
    }

    #[test]
    fn elementwise_fusion_respects_shared_producers() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 8, 8, 8));
        let a = g.add(OpKind::Add, &[x, x], "add");
        let r = g.add(OpKind::Act(Activation::Relu), &[a], "relu");
        let _branch = g.add(OpKind::Mul, &[a, r], "mul");
        let fused = fuse_elementwise_activations(&g);
        assert_eq!(fused.op_count(), 3, "shared producer must not fuse");
    }

    #[test]
    fn full_pipeline_runs() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 3, 8, 8));
        let c = g.add(
            OpKind::Conv2d {
                out_channels: 4,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[x],
            "conv",
        );
        let r = g.add(OpKind::Act(Activation::Relu6), &[c], "relu6");
        let rs = g.add(
            OpKind::Reshape {
                shape: TShape::nchw(1, 4, 8, 8),
            },
            &[r],
            "noop",
        );
        let _gap = g.add(OpKind::GlobalAvgPool, &[rs], "gap");
        let opt = optimize(&g);
        assert_eq!(opt.op_count(), 2);
    }
}
