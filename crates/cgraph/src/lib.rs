//! # gcd2-cgraph — computational-graph IR
//!
//! The intermediate representation the GCD2 paper formulates its global
//! optimization over: a DAG of operators, each producing one tensor
//! (Section IV-A). The crate provides the operator vocabulary needed by
//! the ten evaluation models of Table IV, shape inference, MAC/parameter
//! accounting, and the standard graph rewrites (constant folding,
//! identity-reshape elimination, activation fusion).
//!
//! ```
//! use gcd2_cgraph::{Graph, OpKind, TShape};
//!
//! let mut g = Graph::new();
//! let x = g.input("x", TShape::nchw(1, 3, 224, 224));
//! let conv = g.add(
//!     OpKind::Conv2d { out_channels: 64, kernel: (7, 7), stride: (2, 2), padding: (3, 3) },
//!     &[x],
//!     "stem",
//! );
//! assert_eq!(g.node(conv).shape, TShape::nchw(1, 64, 112, 112));
//! assert_eq!(g.gemm_dims(conv).unwrap().k, 3 * 49);
//! ```

// An error built eagerly for an `ok_or` / `unwrap_or` formats its
// operator name on every call, the successful ones included.
#![warn(clippy::or_fun_call)]

pub mod graph;
pub mod op;
pub mod rewrite;
pub mod serial;
pub mod shape;

pub use graph::{Graph, GraphBuildError, Node, NodeId};
pub use op::{Activation, OpKind, ShapeError};
pub use rewrite::{
    eliminate_identity_reshapes, fold_constants, fuse_activations, fuse_elementwise_activations,
    optimize,
};
pub use serial::{from_text, to_text, ParseGraphError};
pub use shape::{GemmDims, TShape};
