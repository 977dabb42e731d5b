//! The computational graph (CG): the intermediate representation the
//! paper's global optimization is formulated over (Section IV-A).
//!
//! Vertices are operators producing exactly one output tensor; a directed
//! edge `(v_i, v_j)` says the output of `v_i` is an input of `v_j`.
//! Construction is append-only with inputs referring to existing nodes,
//! so the graph is a DAG by construction and node ids are already a
//! topological order.

use crate::op::{Activation, OpKind, ShapeError};
use crate::shape::{GemmDims, TShape};
use std::fmt;

/// Why [`Graph::try_add`] rejected a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphBuildError {
    /// An input id refers to a node that has not been added yet
    /// (construction must be topological).
    UnknownInput {
        /// Name of the node being added.
        node: String,
        /// The out-of-range input id.
        input: NodeId,
        /// Current node count (valid ids are below this).
        len: usize,
    },
    /// Shape inference rejected the operator application.
    Shape {
        /// Name of the node being added.
        node: String,
        /// The underlying shape error.
        error: ShapeError,
    },
}

impl fmt::Display for GraphBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphBuildError::UnknownInput { node, input, len } => {
                write!(
                    f,
                    "node '{node}': input {input} does not exist (graph has {len} nodes)"
                )
            }
            GraphBuildError::Shape { node, error } => write!(f, "node '{node}': {error}"),
        }
    }
}

impl std::error::Error for GraphBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphBuildError::Shape { error, .. } => Some(error),
            GraphBuildError::UnknownInput { .. } => None,
        }
    }
}

/// Identifier of a node within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operator vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// The computation performed.
    pub kind: OpKind,
    /// Producer nodes whose outputs feed this node.
    pub inputs: Vec<NodeId>,
    /// Shape of the produced tensor.
    pub shape: TShape,
    /// Activation fused into this operator by graph rewriting.
    pub fused_activation: Option<Activation>,
    /// Human-readable name.
    pub name: String,
}

/// A computational graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Builds a graph from pre-made nodes without any validation.
    ///
    /// `add` maintains the graph invariants (topological ids, in-range
    /// inputs, inferred shapes) by construction; this bypass exists so
    /// verification tooling can materialize deliberately broken graphs
    /// and serialization layers can restore already-checked ones.
    pub fn from_nodes_unchecked(nodes: Vec<Node>) -> Self {
        Graph { nodes }
    }

    /// The nodes, moved out.
    pub(crate) fn into_nodes(self) -> Vec<Node> {
        self.nodes
    }

    /// Adds an input placeholder with an explicit shape.
    pub fn input(&mut self, name: impl Into<String>, shape: TShape) -> NodeId {
        self.push_node(OpKind::Input, vec![], shape, name.into())
    }

    /// Adds a constant node with an explicit shape.
    pub fn constant(&mut self, name: impl Into<String>, shape: TShape) -> NodeId {
        self.push_node(OpKind::Constant, vec![], shape, name.into())
    }

    /// Adds an operator node; its output shape is inferred from inputs.
    ///
    /// # Panics
    /// Panics if an input id does not exist yet (construction must be
    /// topological) or shape inference fails. Programmatic model builders
    /// use this; untrusted sources go through [`Graph::try_add`].
    pub fn add(&mut self, kind: OpKind, inputs: &[NodeId], name: impl Into<String>) -> NodeId {
        match self.try_add(kind, inputs, name) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds an operator node with full validation: every input id must
    /// already exist and shape inference must accept the application.
    /// On error the graph is unchanged.
    pub fn try_add(
        &mut self,
        kind: OpKind,
        inputs: &[NodeId],
        name: impl Into<String>,
    ) -> Result<NodeId, GraphBuildError> {
        let name = name.into();
        for &i in inputs {
            if i.0 >= self.nodes.len() {
                return Err(GraphBuildError::UnknownInput {
                    node: name,
                    input: i,
                    len: self.nodes.len(),
                });
            }
        }
        let shapes: Vec<&TShape> = inputs.iter().map(|i| &self.nodes[i.0].shape).collect();
        let shape = kind
            .try_infer_shape(&shapes)
            .map_err(|error| GraphBuildError::Shape {
                node: name.clone(),
                error,
            })?;
        Ok(self.push_node(kind, inputs.to_vec(), shape, name))
    }

    fn push_node(
        &mut self,
        kind: OpKind,
        inputs: Vec<NodeId>,
        shape: TShape,
        name: String,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            kind,
            inputs,
            shape,
            fused_activation: None,
            name,
        });
        id
    }

    /// All nodes, in topological (construction) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutable access to a node (rewrites only).
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of *operator* nodes (excluding inputs/constants) — the
    /// "#Operators" column of Table IV.
    pub fn op_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n.kind, OpKind::Input | OpKind::Constant))
            .count()
    }

    /// Immediate predecessors of a node (the paper's `Pre(O)`).
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.0].inputs
    }

    /// Immediate successors of a node.
    pub fn succs(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// All edges `(producer, consumer)`.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut e = Vec::new();
        for n in &self.nodes {
            for &i in &n.inputs {
                e.push((i, n.id));
            }
        }
        e
    }

    /// Total multiply-accumulate count (Table IV "#MACs").
    pub fn total_macs(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                let input_shape = n
                    .inputs
                    .first()
                    .map(|i| &self.nodes[i.0].shape)
                    .unwrap_or(&n.shape);
                n.kind.macs(input_shape, &n.shape)
            })
            .sum()
    }

    /// Total parameter count (Table IV "#Params").
    pub fn total_params(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| {
                let input_shape = n
                    .inputs
                    .first()
                    .map(|i| &self.nodes[i.0].shape)
                    .unwrap_or(&n.shape);
                n.kind.params(input_shape)
            })
            .sum()
    }

    /// The GEMM view of a node, when it has one.
    pub fn gemm_dims(&self, id: NodeId) -> Option<GemmDims> {
        let n = &self.nodes[id.0];
        let input_shape = n.inputs.first().map(|i| &self.nodes[i.0].shape)?;
        n.kind.gemm_dims(input_shape, &n.shape)
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for n in &self.nodes {
            write!(f, "{}: {} {} <- [", n.id, n.kind, n.shape)?;
            for (i, p) in n.inputs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{p}")?;
            }
            writeln!(f, "]  // {}", n.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 3, 32, 32));
        let c1 = g.add(
            OpKind::Conv2d {
                out_channels: 8,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[x],
            "conv1",
        );
        let r = g.add(OpKind::Act(Activation::Relu), &[c1], "relu1");
        let c2 = g.add(
            OpKind::Conv2d {
                out_channels: 8,
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[r],
            "conv2",
        );
        let _sum = g.add(OpKind::Add, &[c2, c1], "residual");
        g
    }

    #[test]
    fn construction_and_topology() {
        let g = tiny_graph();
        assert_eq!(g.len(), 5);
        assert_eq!(g.op_count(), 4);
        let add = g.nodes().last().unwrap();
        assert_eq!(g.preds(add.id).len(), 2);
        assert_eq!(g.succs(NodeId(1)), vec![NodeId(2), NodeId(4)]);
        assert_eq!(g.edges().len(), 5);
    }

    #[test]
    fn macs_counted() {
        let g = tiny_graph();
        // conv1: 32*32 x 27 x 8; conv2: 32*32 x 72 x 8; add: 8*32*32.
        let expect = 1024 * 27 * 8 + 1024 * 72 * 8 + 8 * 1024;
        assert_eq!(g.total_macs(), expect as u64);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_reference_rejected() {
        let mut g = Graph::new();
        g.add(OpKind::Add, &[NodeId(5), NodeId(6)], "bad");
    }
}
