//! Operator vocabulary of the computational graph.

use crate::shape::{GemmDims, TShape};
use std::fmt;

/// Why shape inference rejected an operator application.
///
/// Returned by [`OpKind::try_infer_shape`] so untrusted graph sources
/// (e.g. the text deserializer) surface malformed operators as errors
/// instead of panics. All arithmetic behind these checks is `checked_*`,
/// so absurd dimensions report [`ShapeError::Overflow`] rather than
/// wrapping or aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// `Input`/`Constant` carry explicit shapes; nothing to infer.
    SourceOp,
    /// Wrong number of inputs for the operator.
    Arity {
        /// Operator display name.
        op: String,
        /// Human-readable expected count ("1", "2", "1 or 2").
        expected: &'static str,
        /// Inputs actually supplied.
        got: usize,
    },
    /// An input tensor has the wrong rank.
    Rank {
        /// Operator display name.
        op: String,
        /// Required rank (minimum, for `at_least == true`).
        expected: usize,
        /// Rank actually supplied.
        got: usize,
        /// Whether `expected` is a lower bound rather than exact.
        at_least: bool,
    },
    /// A structural attribute (kernel, stride, output channels, …) is
    /// zero where the operator needs it positive.
    ZeroAttr {
        /// Operator display name.
        op: String,
        /// Which attribute was zero.
        attr: &'static str,
    },
    /// A pooling/convolution window extends past the (padded) input.
    WindowExceedsInput {
        /// Operator display name.
        op: String,
        /// Window extent along the offending axis.
        window: usize,
        /// Padded input extent along that axis.
        input: usize,
    },
    /// Dimension arithmetic overflowed `usize`.
    Overflow {
        /// Operator display name.
        op: String,
    },
    /// Inputs are structurally incompatible (broadcast, concat, reshape
    /// element-count, …).
    Mismatch {
        /// Operator display name.
        op: String,
        /// What failed to line up.
        detail: String,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::SourceOp => write!(f, "source ops have explicit shapes"),
            ShapeError::Arity { op, expected, got } => {
                write!(f, "{op}: expected {expected} input(s), got {got}")
            }
            ShapeError::Rank {
                op,
                expected,
                got,
                at_least,
            } => {
                let bound = if *at_least { "at least " } else { "" };
                write!(f, "{op}: expected input rank {bound}{expected}, got {got}")
            }
            ShapeError::ZeroAttr { op, attr } => {
                write!(f, "{op}: attribute '{attr}' must be positive")
            }
            ShapeError::WindowExceedsInput { op, window, input } => {
                write!(
                    f,
                    "{op}: window {window} exceeds padded input extent {input}"
                )
            }
            ShapeError::Overflow { op } => write!(f, "{op}: dimension arithmetic overflows"),
            ShapeError::Mismatch { op, detail } => write!(f, "{op}: {detail}"),
        }
    }
}

impl std::error::Error for ShapeError {}

/// Element count with overflow detection (`TShape::elems` is unchecked).
fn checked_elems(s: &TShape) -> Option<usize> {
    s.0.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// Activation functions fusable into a producing operator (graph-level
/// fusion inherited from the PatDNN-style framework GCD2 builds on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// `max(x, 0)`.
    Relu,
    /// `min(max(x, 0), 6)`.
    Relu6,
    /// `x * sigmoid(x)` (lowered through a lookup table).
    HardSwish,
}

/// The kind of computation a graph node performs.
///
/// The vocabulary covers the 10 evaluation models of Table IV: CNN
/// convolutions (regular/depthwise/transposed), pooling, elementwise
/// arithmetic (including `Pow` and `Div`, which TFLite/SNPE lack on DSP —
/// the reason GCD2 runs TinyBERT and Conformer "for the first time"),
/// transformer matmuls, normalization, softmax, and shape plumbing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A graph input placeholder.
    Input,
    /// A constant tensor (weights are implicit in compute ops; this is
    /// for auxiliary constants).
    Constant,
    /// 2-D convolution over NCHW input.
    Conv2d {
        /// Output channel count.
        out_channels: usize,
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Stride height and width.
        stride: (usize, usize),
        /// Symmetric zero padding (height, width).
        padding: (usize, usize),
    },
    /// Depthwise 2-D convolution (one filter per channel).
    DepthwiseConv2d {
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Stride height and width.
        stride: (usize, usize),
        /// Symmetric zero padding (height, width).
        padding: (usize, usize),
    },
    /// Transposed convolution (upsampling in GAN generators).
    ConvTranspose2d {
        /// Output channel count.
        out_channels: usize,
        /// Kernel height and width.
        kernel: (usize, usize),
        /// Upsampling stride.
        stride: (usize, usize),
    },
    /// Dense matrix multiply: `[m, k] × [k, n]`.
    MatMul {
        /// Output feature count.
        n: usize,
    },
    /// Batched matrix multiply between two activation tensors
    /// (attention scores / context), `[heads, m, k] × [heads, k, n]`.
    BatchMatMul {
        /// Output columns per batch.
        n: usize,
    },
    /// Elementwise addition of two inputs.
    Add,
    /// Elementwise multiplication of two inputs.
    Mul,
    /// Elementwise division (expensive on DSP; replaced by lookups).
    Div,
    /// Elementwise power `x^c` (TinyBERT/Conformer need this; unsupported
    /// by the TFLite/SNPE DSP delegates).
    Pow,
    /// Standalone activation.
    Act(Activation),
    /// Sigmoid (attention gates, squeeze-excite).
    Sigmoid,
    /// Softmax over the last dimension.
    Softmax,
    /// Layer normalization over the last dimension.
    LayerNorm,
    /// GELU activation (transformers).
    Gelu,
    /// Max pooling.
    MaxPool {
        /// Kernel size.
        kernel: (usize, usize),
        /// Stride.
        stride: (usize, usize),
    },
    /// Average pooling.
    AvgPool {
        /// Kernel size.
        kernel: (usize, usize),
        /// Stride.
        stride: (usize, usize),
    },
    /// Global average pooling to `1 × 1` spatial size.
    GlobalAvgPool,
    /// Nearest-neighbour spatial upsampling.
    Upsample {
        /// Integer scale factor.
        factor: usize,
    },
    /// Shape change without data movement semantics.
    Reshape {
        /// Target shape.
        shape: TShape,
    },
    /// Dimension permutation (a pure layout-transformation operator in
    /// the paper's partitioning heuristic).
    Transpose,
    /// Channel concatenation of two inputs.
    Concat,
}

impl OpKind {
    /// True for `Reshape`/`Transpose` — the "layout transformation
    /// operators" that anchor desirable partitioning edges (Section IV-B).
    pub fn is_layout_transform(&self) -> bool {
        matches!(self, OpKind::Reshape { .. } | OpKind::Transpose)
    }

    /// True when the operator's output values stay within the convex
    /// hull of its input values under the quantized runtime semantics:
    /// ReLU-family clamps on already-non-negative data, shape plumbing,
    /// pooling (the max or the integer mean of a window never leaves the
    /// window's value range), nearest-neighbour upsampling, and
    /// concatenation. The interval interpreter in `gcd2-analyze` routes
    /// all of these through a single hull transfer function; every other
    /// operator needs its own.
    pub fn preserves_value_range(&self) -> bool {
        matches!(
            self,
            OpKind::Act(Activation::Relu | Activation::Relu6)
                | OpKind::MaxPool { .. }
                | OpKind::AvgPool { .. }
                | OpKind::GlobalAvgPool
                | OpKind::Upsample { .. }
                | OpKind::Reshape { .. }
                | OpKind::Transpose
                | OpKind::Concat
        )
    }

    /// True when the operator's inner loop is a widening
    /// multiply-accumulate, i.e. it has a [`GemmDims`] view and competes
    /// for the disparate SIMD multiply instructions.
    pub fn is_gemm_like(&self) -> bool {
        matches!(
            self,
            OpKind::Conv2d { .. }
                | OpKind::DepthwiseConv2d { .. }
                | OpKind::ConvTranspose2d { .. }
                | OpKind::MatMul { .. }
                | OpKind::BatchMatMul { .. }
        )
    }

    /// Output shape given input shapes.
    ///
    /// # Panics
    /// Panics if [`try_infer_shape`](Self::try_infer_shape) rejects the
    /// application — use that directly for untrusted input.
    pub fn infer_shape(&self, inputs: &[&TShape]) -> TShape {
        match self.try_infer_shape(inputs) {
            Ok(shape) => shape,
            Err(e) => panic!("{e}"),
        }
    }

    /// Output shape given input shapes, with full validation.
    ///
    /// Checks arity, rank, positive structural attributes, window fit,
    /// broadcast/concat/reshape compatibility; all dimension arithmetic
    /// is overflow-checked. This is the entry point for graphs built
    /// from untrusted sources (see [`crate::serial::from_text`]).
    pub fn try_infer_shape(&self, inputs: &[&TShape]) -> Result<TShape, ShapeError> {
        let op = || self.to_string();
        let overflow = || ShapeError::Overflow { op: op() };
        // Arity first, so per-op code can index inputs freely.
        let (lo, hi, label): (usize, usize, &'static str) = match self {
            OpKind::Input | OpKind::Constant => return Err(ShapeError::SourceOp),
            OpKind::Add | OpKind::Mul | OpKind::Div | OpKind::Concat => (2, 2, "2"),
            // Pow with one input raises to an implicit constant exponent;
            // MatMul multiplies by implicit weights; BatchMatMul can take
            // either an implicit or an explicit second operand.
            OpKind::Pow => (1, 2, "1 or 2"),
            OpKind::MatMul { .. } | OpKind::BatchMatMul { .. } => (1, 2, "1 or 2"),
            _ => (1, 1, "1"),
        };
        if inputs.len() < lo || inputs.len() > hi {
            return Err(ShapeError::Arity {
                op: op(),
                expected: label,
                got: inputs.len(),
            });
        }
        let want_rank = |s: &TShape, expected: usize| -> Result<(), ShapeError> {
            if s.rank() != expected {
                return Err(ShapeError::Rank {
                    op: op(),
                    expected,
                    got: s.rank(),
                    at_least: false,
                });
            }
            Ok(())
        };
        let positive = |v: usize, attr: &'static str| -> Result<(), ShapeError> {
            if v == 0 {
                return Err(ShapeError::ZeroAttr { op: op(), attr });
            }
            Ok(())
        };
        // Output extent of a sliding window: (in + 2*pad - k) / s + 1.
        let window_out =
            |input: usize, pad: usize, k: usize, s: usize| -> Result<usize, ShapeError> {
                let padded = pad
                    .checked_mul(2)
                    .and_then(|p| input.checked_add(p))
                    .ok_or_else(overflow)?;
                let span = padded
                    .checked_sub(k)
                    .ok_or_else(|| ShapeError::WindowExceedsInput {
                        op: op(),
                        window: k,
                        input: padded,
                    })?;
                Ok(span / s + 1)
            };
        match self {
            OpKind::Input | OpKind::Constant => Err(ShapeError::SourceOp),
            OpKind::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                let x = inputs[0];
                want_rank(x, 4)?;
                positive(*out_channels, "out_channels")?;
                positive(kernel.0.min(kernel.1), "kernel")?;
                positive(stride.0.min(stride.1), "stride")?;
                let h = window_out(x.dim(2), padding.0, kernel.0, stride.0)?;
                let w = window_out(x.dim(3), padding.1, kernel.1, stride.1)?;
                Ok(TShape::nchw(x.dim(0), *out_channels, h, w))
            }
            OpKind::DepthwiseConv2d {
                kernel,
                stride,
                padding,
            } => {
                let x = inputs[0];
                want_rank(x, 4)?;
                positive(kernel.0.min(kernel.1), "kernel")?;
                positive(stride.0.min(stride.1), "stride")?;
                let h = window_out(x.dim(2), padding.0, kernel.0, stride.0)?;
                let w = window_out(x.dim(3), padding.1, kernel.1, stride.1)?;
                Ok(TShape::nchw(x.dim(0), x.dim(1), h, w))
            }
            OpKind::ConvTranspose2d {
                out_channels,
                stride,
                ..
            } => {
                let x = inputs[0];
                want_rank(x, 4)?;
                positive(*out_channels, "out_channels")?;
                positive(stride.0.min(stride.1), "stride")?;
                let h = x.dim(2).checked_mul(stride.0).ok_or_else(overflow)?;
                let w = x.dim(3).checked_mul(stride.1).ok_or_else(overflow)?;
                Ok(TShape::nchw(x.dim(0), *out_channels, h, w))
            }
            OpKind::MatMul { n } | OpKind::BatchMatMul { n } => {
                let x = inputs[0];
                if x.rank() == 0 {
                    return Err(ShapeError::Rank {
                        op: op(),
                        expected: 1,
                        got: 0,
                        at_least: true,
                    });
                }
                positive(*n, "n")?;
                // The GEMM view divides by the reduction depth (the last
                // input dimension); a zero there is structurally void.
                let mut dims = x.0.clone();
                let last = dims.len() - 1;
                positive(dims[last], "reduction depth")?;
                dims[last] = *n;
                Ok(TShape(dims))
            }
            OpKind::Add | OpKind::Mul | OpKind::Div | OpKind::Pow => {
                if inputs.len() == 1 {
                    // Unary Pow: shape passes through.
                    return Ok(inputs[0].clone());
                }
                let (a, b) = (inputs[0], inputs[1]);
                if a.rank() != b.rank() {
                    return Err(ShapeError::Mismatch {
                        op: op(),
                        detail: format!("operand ranks differ: {a} vs {b}"),
                    });
                }
                // Broadcast-lenient: dims must match or one side is 1
                // (channel-wise scales like squeeze-excite's [1,C,1,1]).
                for (da, db) in a.0.iter().zip(&b.0) {
                    if da != db && *da != 1 && *db != 1 {
                        return Err(ShapeError::Mismatch {
                            op: op(),
                            detail: format!("operand shapes not broadcastable: {a} vs {b}"),
                        });
                    }
                }
                Ok(a.clone())
            }
            OpKind::Act(_)
            | OpKind::Sigmoid
            | OpKind::Softmax
            | OpKind::LayerNorm
            | OpKind::Gelu => Ok(inputs[0].clone()),
            OpKind::MaxPool { kernel, stride } | OpKind::AvgPool { kernel, stride } => {
                let x = inputs[0];
                want_rank(x, 4)?;
                positive(kernel.0.min(kernel.1), "kernel")?;
                positive(stride.0.min(stride.1), "stride")?;
                let h = window_out(x.dim(2), 0, kernel.0, stride.0)?;
                let w = window_out(x.dim(3), 0, kernel.1, stride.1)?;
                Ok(TShape::nchw(x.dim(0), x.dim(1), h, w))
            }
            OpKind::GlobalAvgPool => {
                let x = inputs[0];
                want_rank(x, 4)?;
                Ok(TShape::nchw(x.dim(0), x.dim(1), 1, 1))
            }
            OpKind::Upsample { factor } => {
                let x = inputs[0];
                want_rank(x, 4)?;
                positive(*factor, "factor")?;
                let h = x.dim(2).checked_mul(*factor).ok_or_else(overflow)?;
                let w = x.dim(3).checked_mul(*factor).ok_or_else(overflow)?;
                Ok(TShape::nchw(x.dim(0), x.dim(1), h, w))
            }
            OpKind::Reshape { shape } => {
                let x = inputs[0];
                let from = checked_elems(x).ok_or_else(overflow)?;
                let to = checked_elems(shape).ok_or_else(overflow)?;
                if from != to {
                    return Err(ShapeError::Mismatch {
                        op: op(),
                        detail: format!(
                            "reshape changes element count: {x} ({from}) vs {shape} ({to})"
                        ),
                    });
                }
                Ok(shape.clone())
            }
            OpKind::Transpose => {
                let x = inputs[0];
                let mut dims = x.0.clone();
                dims.reverse();
                Ok(TShape(dims))
            }
            OpKind::Concat => {
                let (a, b) = (inputs[0], inputs[1]);
                if a.rank() != b.rank() {
                    return Err(ShapeError::Mismatch {
                        op: op(),
                        detail: format!("operand ranks differ: {a} vs {b}"),
                    });
                }
                if a.rank() < 2 {
                    return Err(ShapeError::Rank {
                        op: op(),
                        expected: 2,
                        got: a.rank(),
                        at_least: true,
                    });
                }
                for (i, (da, db)) in a.0.iter().zip(&b.0).enumerate() {
                    if i != 1 && da != db {
                        return Err(ShapeError::Mismatch {
                            op: op(),
                            detail: format!("non-channel dims differ: {a} vs {b}"),
                        });
                    }
                }
                let mut dims = a.0.clone();
                dims[1] = dims[1].checked_add(b.dim(1)).ok_or_else(overflow)?;
                Ok(TShape(dims))
            }
        }
    }

    /// The GEMM view of this operator, when it has one.
    pub fn gemm_dims(&self, input: &TShape, output: &TShape) -> Option<GemmDims> {
        match self {
            OpKind::Conv2d {
                out_channels,
                kernel,
                ..
            } => Some(GemmDims::new(
                output.spatial(),
                input.channels() * kernel.0 * kernel.1,
                *out_channels,
            )),
            OpKind::DepthwiseConv2d { kernel, .. } => Some(GemmDims::new(
                output.spatial() * output.channels(),
                kernel.0 * kernel.1,
                1,
            )),
            OpKind::ConvTranspose2d {
                out_channels,
                kernel,
                ..
            } => Some(GemmDims::new(
                output.spatial(),
                input.channels() * kernel.0 * kernel.1 / 4,
                *out_channels,
            )),
            OpKind::MatMul { n } => {
                let k = *input.0.last().unwrap();
                let m = input.elems() / k;
                Some(GemmDims::new(m, k, *n))
            }
            OpKind::BatchMatMul { n } => {
                let k = *input.0.last().unwrap();
                let m = input.elems() / k;
                Some(GemmDims::new(m, k, *n))
            }
            _ => None,
        }
    }

    /// Multiply-accumulate count of the operator.
    pub fn macs(&self, input: &TShape, output: &TShape) -> u64 {
        if let Some(g) = self.gemm_dims(input, output) {
            return g.macs();
        }
        match self {
            OpKind::Add | OpKind::Mul | OpKind::Div | OpKind::Pow => output.elems() as u64,
            OpKind::Softmax | OpKind::LayerNorm | OpKind::Gelu | OpKind::Sigmoid => {
                2 * output.elems() as u64
            }
            OpKind::MaxPool { kernel, .. } | OpKind::AvgPool { kernel, .. } => {
                (output.elems() * kernel.0 * kernel.1) as u64
            }
            OpKind::GlobalAvgPool => input.elems() as u64,
            _ => 0,
        }
    }

    /// Parameter (weight) count of the operator.
    pub fn params(&self, input: &TShape) -> u64 {
        match self {
            OpKind::Conv2d {
                out_channels,
                kernel,
                ..
            } => (input.channels() * kernel.0 * kernel.1 * out_channels + out_channels) as u64,
            OpKind::DepthwiseConv2d { kernel, .. } => {
                (input.channels() * kernel.0 * kernel.1 + input.channels()) as u64
            }
            OpKind::ConvTranspose2d {
                out_channels,
                kernel,
                ..
            } => (input.channels() * kernel.0 * kernel.1 * out_channels + out_channels) as u64,
            OpKind::MatMul { n } => (*input.0.last().unwrap() * n + n) as u64,
            OpKind::LayerNorm => 2 * *input.0.last().unwrap() as u64,
            _ => 0,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Input => write!(f, "Input"),
            OpKind::Constant => write!(f, "Constant"),
            OpKind::Conv2d {
                out_channels,
                kernel,
                stride,
                ..
            } => {
                write!(
                    f,
                    "Conv2d({out_channels}, {}x{}, s{})",
                    kernel.0, kernel.1, stride.0
                )
            }
            OpKind::DepthwiseConv2d { kernel, stride, .. } => {
                write!(f, "DWConv2d({}x{}, s{})", kernel.0, kernel.1, stride.0)
            }
            OpKind::ConvTranspose2d {
                out_channels,
                kernel,
                ..
            } => {
                write!(f, "ConvT2d({out_channels}, {}x{})", kernel.0, kernel.1)
            }
            OpKind::MatMul { n } => write!(f, "MatMul({n})"),
            OpKind::BatchMatMul { n } => write!(f, "BatchMatMul({n})"),
            OpKind::Add => write!(f, "Add"),
            OpKind::Mul => write!(f, "Mul"),
            OpKind::Div => write!(f, "Div"),
            OpKind::Pow => write!(f, "Pow"),
            OpKind::Act(a) => write!(f, "{a:?}"),
            OpKind::Sigmoid => write!(f, "Sigmoid"),
            OpKind::Softmax => write!(f, "Softmax"),
            OpKind::LayerNorm => write!(f, "LayerNorm"),
            OpKind::Gelu => write!(f, "Gelu"),
            OpKind::MaxPool { kernel, .. } => write!(f, "MaxPool({}x{})", kernel.0, kernel.1),
            OpKind::AvgPool { kernel, .. } => write!(f, "AvgPool({}x{})", kernel.0, kernel.1),
            OpKind::GlobalAvgPool => write!(f, "GlobalAvgPool"),
            OpKind::Upsample { factor } => write!(f, "Upsample(x{factor})"),
            OpKind::Reshape { shape } => write!(f, "Reshape({shape})"),
            OpKind::Transpose => write!(f, "Transpose"),
            OpKind::Concat => write!(f, "Concat"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_and_gemm() {
        let op = OpKind::Conv2d {
            out_channels: 64,
            kernel: (7, 7),
            stride: (2, 2),
            padding: (3, 3),
        };
        let input = TShape::nchw(1, 3, 224, 224);
        let out = op.infer_shape(&[&input]);
        assert_eq!(out, TShape::nchw(1, 64, 112, 112));
        let g = op.gemm_dims(&input, &out).unwrap();
        assert_eq!(g, GemmDims::new(112 * 112, 3 * 49, 64));
        assert_eq!(op.macs(&input, &out), g.macs());
    }

    #[test]
    fn depthwise_gemm_is_thin() {
        let op = OpKind::DepthwiseConv2d {
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        };
        let input = TShape::nchw(1, 32, 28, 28);
        let out = op.infer_shape(&[&input]);
        assert_eq!(out, input);
        let g = op.gemm_dims(&input, &out).unwrap();
        assert_eq!(g.n, 1);
        assert_eq!(g.k, 9);
    }

    #[test]
    fn matmul_shapes() {
        let op = OpKind::MatMul { n: 312 };
        let input = TShape::new(vec![128, 312]);
        let out = op.infer_shape(&[&input]);
        assert_eq!(out, TShape::new(vec![128, 312]));
        assert_eq!(
            op.gemm_dims(&input, &out).unwrap(),
            GemmDims::new(128, 312, 312)
        );
        assert_eq!(op.params(&input), (312 * 312 + 312) as u64);
    }

    #[test]
    fn pooling_shapes() {
        let op = OpKind::MaxPool {
            kernel: (2, 2),
            stride: (2, 2),
        };
        let input = TShape::nchw(1, 64, 56, 56);
        assert_eq!(op.infer_shape(&[&input]), TShape::nchw(1, 64, 28, 28));
    }

    #[test]
    fn layout_transform_flags() {
        assert!(OpKind::Transpose.is_layout_transform());
        assert!(OpKind::Reshape {
            shape: TShape::new(vec![10])
        }
        .is_layout_transform());
        assert!(!OpKind::Add.is_layout_transform());
        assert!(OpKind::Conv2d {
            out_channels: 8,
            kernel: (1, 1),
            stride: (1, 1),
            padding: (0, 0)
        }
        .is_gemm_like());
    }

    #[test]
    fn value_range_preservation_flags() {
        assert!(OpKind::Act(Activation::Relu).preserves_value_range());
        assert!(OpKind::MaxPool {
            kernel: (2, 2),
            stride: (2, 2)
        }
        .preserves_value_range());
        assert!(OpKind::GlobalAvgPool.preserves_value_range());
        assert!(OpKind::Concat.preserves_value_range());
        // Arithmetic and normalization rescale values; GEMMs accumulate.
        assert!(!OpKind::Add.preserves_value_range());
        assert!(!OpKind::Softmax.preserves_value_range());
        assert!(!OpKind::Act(Activation::HardSwish).preserves_value_range());
        assert!(!OpKind::MatMul { n: 8 }.preserves_value_range());
    }

    #[test]
    fn concat_adds_channels() {
        let op = OpKind::Concat;
        let a = TShape::nchw(1, 16, 8, 8);
        let b = TShape::nchw(1, 24, 8, 8);
        assert_eq!(op.infer_shape(&[&a, &b]), TShape::nchw(1, 40, 8, 8));
    }

    #[test]
    fn try_infer_rejects_bad_arity_and_ranks() {
        let conv = OpKind::Conv2d {
            out_channels: 8,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        };
        let x = TShape::nchw(1, 3, 8, 8);
        assert!(matches!(
            conv.try_infer_shape(&[]),
            Err(ShapeError::Arity { .. })
        ));
        assert!(matches!(
            conv.try_infer_shape(&[&TShape::new(vec![8, 8])]),
            Err(ShapeError::Rank { .. })
        ));
        assert!(conv.try_infer_shape(&[&x]).is_ok());
        assert!(matches!(
            OpKind::Input.try_infer_shape(&[]),
            Err(ShapeError::SourceOp)
        ));
    }

    #[test]
    fn try_infer_rejects_degenerate_attributes() {
        let x = TShape::nchw(1, 3, 8, 8);
        let zero_stride = OpKind::Conv2d {
            out_channels: 8,
            kernel: (3, 3),
            stride: (0, 1),
            padding: (1, 1),
        };
        assert!(matches!(
            zero_stride.try_infer_shape(&[&x]),
            Err(ShapeError::ZeroAttr { attr: "stride", .. })
        ));
        let wide = OpKind::MaxPool {
            kernel: (9, 9),
            stride: (1, 1),
        };
        assert!(matches!(
            wide.try_infer_shape(&[&x]),
            Err(ShapeError::WindowExceedsInput { .. })
        ));
        let blow_up = OpKind::Upsample { factor: usize::MAX };
        assert!(matches!(
            blow_up.try_infer_shape(&[&x]),
            Err(ShapeError::Overflow { .. })
        ));
    }

    #[test]
    fn elementwise_broadcast_rules() {
        let full = TShape::nchw(1, 32, 8, 8);
        let scale = TShape::nchw(1, 32, 1, 1);
        let other = TShape::nchw(1, 16, 8, 8);
        assert_eq!(OpKind::Mul.try_infer_shape(&[&full, &scale]).unwrap(), full);
        assert_eq!(OpKind::Add.try_infer_shape(&[&full, &full]).unwrap(), full);
        assert!(matches!(
            OpKind::Add.try_infer_shape(&[&full, &other]),
            Err(ShapeError::Mismatch { .. })
        ));
    }

    #[test]
    fn reshape_preserves_element_count() {
        let op = OpKind::Reshape {
            shape: TShape::new(vec![4, 48]),
        };
        let ok = TShape::nchw(1, 3, 8, 8);
        assert!(op.try_infer_shape(&[&ok]).is_ok());
        let bad = TShape::nchw(1, 3, 8, 9);
        assert!(matches!(
            op.try_infer_shape(&[&bad]),
            Err(ShapeError::Mismatch { .. })
        ));
    }
}
