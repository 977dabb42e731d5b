//! Functional model execution: run a compiled model's quantized
//! inference *numerically*, with every GEMM-like operator executed on
//! the simulated DSP using the instruction and layout the global
//! optimizer chose for it.
//!
//! Layout transformations between operators are performed by the runtime
//! (as in the timing model — see `gcd2-tensor`), and non-GEMM operators
//! (elementwise, pooling, shape plumbing) run host-side; all
//! multiply-accumulate work goes through the simulator's functional
//! kernels, so an end-to-end inference validates the entire
//! layout/instruction/scheduling chain numerically.
//!
//! # Numeric range
//!
//! The `vmpy`/`vmpa` paths accumulate in 16 bits (the paper's overflow
//! discussion, Section III). The runtime therefore keeps activations in
//! a 4-bit range (0..=15) and weights in [-2, 2], and picks each
//! operator's requantization shift so outputs return to that range —
//! making the SIMD kernels bit-exact against the 32-bit scalar
//! reference for arbitrarily deep models.

use gcd2_cgraph::{Activation, Graph, NodeId, OpKind};
use gcd2_globalopt::PlanKind;
use gcd2_hvx::Machine;
use gcd2_kernels::elementwise::functional as ew_fn;
use gcd2_kernels::{functional_program, hostops, im2col_chw, output_matrix_len, SimdInstr};
use gcd2_tensor::{Layout, MatrixI8, MatrixU8};
use std::collections::HashMap;

use crate::CompiledModel;

/// Maximum activation value the runtime maintains (4-bit range; see the
/// module docs).
pub const ACT_MAX: u8 = 15;
/// Maximum weight magnitude.
pub const WGT_MAX: i8 = 2;

/// Deterministic weight generator: every call site derives the same
/// weights from the node id, so the DSP and reference paths agree.
///
/// This is the per-element oracle, written the direct way. The
/// interpreter calls it; a plan build writes the same bytes a row at a
/// time with [`gcd2_kernels::weight_row_into`], whose strength-reduced,
/// folded form `infer`'s `row_generator_is_the_oracle_at_every_tier`
/// holds to this one — so the plan-vs-interpreter differentials keep an
/// independent side.
pub(crate) fn weight(seed: u64, node: NodeId, index: usize) -> i8 {
    let mut x = seed
        ^ (node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (index as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 29;
    let span = (2 * WGT_MAX as i64 + 1) as u64;
    ((x % span) as i64 - WGT_MAX as i64) as i8
}

/// The shift bringing `max_acc` back into the activation range.
fn shift_for(max_acc: i64) -> u8 {
    let mut s = 0u8;
    let mut m = max_acc.max(1);
    while m > ACT_MAX as i64 {
        m >>= 1;
        s += 1;
    }
    s
}

/// The requantization shift of a GEMM with reduction depth `k`: the
/// calibrated (typical-case) scale for accumulators up to
/// `k · ACT_MAX · WGT_MAX`, with an explicit clamp back into the
/// activation range downstream — the 4-bit analogue of a quantizer's
/// saturating output stage. Depends only on `k`, so the inference plan
/// folds it in at build time.
pub(crate) fn gemm_shift(k: usize) -> u8 {
    let max_acc = k as i64 * ACT_MAX as i64 * WGT_MAX as i64;
    shift_for((max_acc / 32).max(1))
}

/// Which execution path [`execute`] runs.
#[derive(Clone, Copy, PartialEq)]
enum ExecMode {
    /// Planned GEMMs on the simulated DSP, the rest host-side.
    Dsp,
    /// Everything host-side through the cache-blocked GEMM.
    Reference,
}

/// Executes the compiled model functionally. `input` must hold the
/// graph-input tensor's elements (values are clamped into the runtime's
/// activation range); returns the final node's tensor, plus how many
/// MACs were executed on the simulated DSP.
///
/// # Panics
/// Panics if `input` does not match the graph-input element count. The
/// runtime covers the full catalog vocabulary: convolutions
/// (regular/depthwise/transposed), matmuls, elementwise arithmetic
/// (including `Div`/`Pow`), activations, softmax, layer normalization,
/// pooling, upsampling, and shape plumbing.
pub fn execute_on_dsp(compiled: &CompiledModel, input: &[u8], seed: u64) -> (Vec<u8>, u64) {
    execute(compiled, input, seed, ExecMode::Dsp)
}

/// The scalar reference: identical math, no simulator. Used to validate
/// [`execute_on_dsp`] bit-for-bit.
pub fn execute_reference(compiled: &CompiledModel, input: &[u8], seed: u64) -> Vec<u8> {
    execute(compiled, input, seed, ExecMode::Reference).0
}

fn execute(compiled: &CompiledModel, input: &[u8], seed: u64, mode: ExecMode) -> (Vec<u8>, u64) {
    let on_dsp = mode == ExecMode::Dsp;
    let graph = &compiled.graph;
    let mut values: HashMap<NodeId, Vec<u8>> = HashMap::new();
    let mut simd_macs = 0u64;

    for node in graph.nodes() {
        let out: Vec<u8> = match &node.kind {
            OpKind::Input => {
                assert_eq!(input.len(), node.shape.elems(), "input size mismatch");
                input.iter().map(|&x| x.min(ACT_MAX)).collect()
            }
            OpKind::Constant => vec![0; node.shape.elems()],
            kind if kind.is_gemm_like() => {
                let (a, wgt) = gemm_operands(graph, node, &values, seed);
                let shift = gemm_shift(a.cols());
                let out_mat = match compiled.plan_of(node.id) {
                    // On the simulated DSP with the planned instruction.
                    Some(PlanKind::Gemm(instr)) if on_dsp => {
                        simd_macs += (a.rows() * a.cols() * wgt.cols()) as u64;
                        run_matmul_on_machine(&a, &wgt, instr, shift)
                    }
                    // Host side (also the vtmpy depthwise plan, whose
                    // functional kernel is host-verified through the
                    // `gcd2-hvx` tests): the cache-blocked kernel, itself
                    // bit-exact against `gcd2_kernels::matmul_ref`.
                    _ => gcd2_kernels::matmul_host(&a, &wgt, shift),
                };
                gemm_output_to_tensor(node, &out_mat)
                    .into_iter()
                    .map(|x| x.min(ACT_MAX))
                    .collect()
            }
            OpKind::Add => {
                let a = &values[&node.inputs[0]];
                let b = &values[&node.inputs[1]];
                if on_dsp {
                    run_elementwise_on_machine(a, b, EwProgram::Add)
                } else {
                    let mut v = vec![0; a.len()];
                    hostops::add_avg_into(a, b, &mut v);
                    v
                }
            }
            OpKind::Mul => {
                let a = &values[&node.inputs[0]];
                let b = &values[&node.inputs[1]];
                if on_dsp {
                    run_elementwise_on_machine(a, b, EwProgram::Mul)
                        .into_iter()
                        .map(|x| x.min(ACT_MAX))
                        .collect()
                } else {
                    let mut v = vec![0; a.len()];
                    hostops::mul_shift4_into(a, b, ACT_MAX, &mut v);
                    v
                }
            }
            OpKind::Div => {
                let a = &values[&node.inputs[0]];
                let mut v = vec![0; a.len()];
                hostops::div_lut_into(a, &values[&node.inputs[1]], &mut v);
                v
            }
            OpKind::Pow => {
                let x = &values[&node.inputs[0]];
                let mut v = vec![0; x.len()];
                hostops::pow_sq_into(x, ACT_MAX, &mut v);
                v
            }
            OpKind::Act(Activation::Relu) | OpKind::Act(Activation::Relu6) => {
                values[&node.inputs[0]].clone() // u8 activations are already >= 0
            }
            OpKind::Act(Activation::HardSwish) | OpKind::Sigmoid | OpKind::Gelu => {
                // Monotone byte lookup stand-in.
                let x = &values[&node.inputs[0]];
                let mut v = vec![0; x.len()];
                hostops::monotone_lut_into(x, &mut v);
                v
            }
            OpKind::Softmax => {
                let group = node.shape.0.last().copied().unwrap_or(1);
                let x = &values[&node.inputs[0]];
                let mut v = vec![0; x.len()];
                hostops::softmax_into(x, group, ACT_MAX, &mut v);
                v
            }
            OpKind::LayerNorm => {
                let group = node.shape.0.last().copied().unwrap_or(1);
                let x = &values[&node.inputs[0]];
                let mut v = vec![0; x.len()];
                hostops::layernorm_into(x, group, ACT_MAX, &mut v);
                v
            }
            OpKind::MaxPool { kernel, stride } => {
                pool(graph, node, &values, *kernel, *stride, true)
            }
            OpKind::AvgPool { kernel, stride } => {
                pool(graph, node, &values, *kernel, *stride, false)
            }
            OpKind::GlobalAvgPool => {
                let in_shape = &graph.node(node.inputs[0]).shape;
                let mut v = vec![0; in_shape.channels()];
                hostops::global_avg_pool_into(
                    &values[&node.inputs[0]],
                    in_shape.channels(),
                    in_shape.spatial(),
                    &mut v,
                );
                v
            }
            OpKind::Upsample { factor } => {
                let in_shape = &graph.node(node.inputs[0]).shape;
                let mut v = vec![0; in_shape.elems() * factor * factor];
                hostops::upsample_nn_into(
                    &values[&node.inputs[0]],
                    in_shape.channels(),
                    in_shape.dim(2),
                    in_shape.dim(3),
                    *factor,
                    &mut v,
                );
                v
            }
            OpKind::Reshape { .. } | OpKind::Transpose => values[&node.inputs[0]].clone(),
            OpKind::Concat => {
                let (a, b) = (&values[&node.inputs[0]], &values[&node.inputs[1]]);
                let mut v = vec![0; a.len() + b.len()];
                hostops::concat_into(a, b, &mut v);
                v
            }
            other => panic!("runtime does not execute {other}"),
        };
        values.insert(node.id, out);
    }
    let Some(last) = graph.nodes().last().map(|n| n.id) else {
        return (Vec::new(), simd_macs);
    };
    // Every node (including `last`) was just inserted by the loop above.
    let output = values.remove(&last).unwrap_or_default();
    (output, simd_macs)
}

/// Builds the GEMM operands of a node: the im2col'd activation matrix
/// (row-major; the executor re-lays it out) and the weight matrix.
fn gemm_operands(
    graph: &Graph,
    node: &gcd2_cgraph::Node,
    values: &HashMap<NodeId, Vec<u8>>,
    seed: u64,
) -> (MatrixU8, MatrixI8) {
    let input_id = node.inputs[0];
    let x = &values[&input_id];
    let in_shape = &graph.node(input_id).shape;
    match &node.kind {
        OpKind::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
        } => {
            let (c, h, w) = (in_shape.channels(), in_shape.dim(2), in_shape.dim(3));
            let a = im2col_chw(x, c, h, w, *kernel, *stride, *padding, Layout::RowMajor);
            let k = c * kernel.0 * kernel.1;
            let wgt = MatrixI8::from_fn(k, *out_channels, |kk, oc| {
                weight(seed, node.id, kk * out_channels + oc)
            });
            (a, wgt)
        }
        OpKind::DepthwiseConv2d {
            kernel,
            stride,
            padding,
        } => {
            // Lowered as a block-diagonal GEMM: each channel convolved
            // independently; K = kh*kw per channel, stacked rows.
            let (c, h, w) = (in_shape.channels(), in_shape.dim(2), in_shape.dim(3));
            let out_h = (h + 2 * padding.0 - kernel.0) / stride.0 + 1;
            let out_w = (w + 2 * padding.1 - kernel.1) / stride.1 + 1;
            let k = kernel.0 * kernel.1;
            let mut a = MatrixU8::zeros(c * out_h * out_w, k, Layout::RowMajor);
            for ch in 0..c {
                let chan = &x[ch * h * w..(ch + 1) * h * w];
                let sub = im2col_chw(chan, 1, h, w, *kernel, *stride, *padding, Layout::RowMajor);
                for o in 0..out_h * out_w {
                    for kk in 0..k {
                        a.set(ch * out_h * out_w + o, kk, sub.get(o, kk));
                    }
                }
            }
            // One shared filter column per node (channel filters differ
            // only through the weight hash in a full implementation).
            let wgt = MatrixI8::from_fn(k, 1, |kk, _| weight(seed, node.id, kk));
            (a, wgt)
        }
        OpKind::MatMul { n } | OpKind::BatchMatMul { n } => {
            // Matmul inputs are rank >= 1 by shape inference.
            let k = in_shape.0.last().copied().unwrap_or(1);
            let m = in_shape.elems() / k;
            let a = MatrixU8::from_fn(m, k, Layout::RowMajor, |r, c| x[r * k + c]);
            let wgt = MatrixI8::from_fn(k, *n, |kk, nn| weight(seed, node.id, kk * n + nn));
            (a, wgt)
        }
        OpKind::ConvTranspose2d { out_channels, .. } => {
            // Modeled as a 1x1 conv at input resolution followed by the
            // upsample implicit in the output shape.
            let c = in_shape.channels();
            let m = in_shape.spatial();
            let a = MatrixU8::from_fn(m, c, Layout::RowMajor, |r, cc| x[cc * m + r]);
            let wgt = MatrixI8::from_fn(c, *out_channels, |kk, oc| {
                weight(seed, node.id, kk * out_channels + oc)
            });
            (a, wgt)
        }
        other => unreachable!("{other} is not GEMM-like"),
    }
}

/// Reorders the GEMM output matrix (spatial × out-channels) into the
/// CHW tensor order the rest of the graph consumes.
fn gemm_output_to_tensor(node: &gcd2_cgraph::Node, out: &MatrixU8) -> Vec<u8> {
    match &node.kind {
        OpKind::Conv2d { .. } | OpKind::ConvTranspose2d { .. } => {
            let hw = out.rows();
            let c = out.cols();
            let mut t = vec![0u8; node.shape.elems()];
            for o in 0..hw.min(node.shape.spatial()) {
                for ch in 0..c {
                    t[ch * node.shape.spatial() + o] = out.get(o, ch);
                }
            }
            t
        }
        OpKind::DepthwiseConv2d { .. } => {
            // Rows are already channel-major.
            (0..node.shape.elems().min(out.rows()))
                .map(|r| out.get(r, 0))
                .collect()
        }
        _ => out.to_row_major_vec(),
    }
}

/// Runs one matmul on the simulated DSP with the chosen instruction.
fn run_matmul_on_machine(a_rm: &MatrixU8, wgt: &MatrixI8, instr: SimdInstr, shift: u8) -> MatrixU8 {
    let a = a_rm.to_layout(instr.layout()); // the runtime-side transform
    let gemm = gcd2_cgraph::GemmDims::new(a.rows(), a.cols(), wgt.cols());
    let addr_out = a.padded_len().div_ceil(128) * 128;
    let out_len = output_matrix_len(&gemm, instr);
    let program = functional_program(&a, wgt, instr, shift, 0, addr_out as i64);
    let mut machine = Machine::new(addr_out + out_len);
    machine.mem[..a.padded_len()].copy_from_slice(a.as_bytes());
    machine.run(&program);
    MatrixU8::from_raw(
        a.rows(),
        wgt.cols(),
        instr.layout(),
        machine.mem[addr_out..addr_out + out_len].to_vec(),
    )
}

/// The on-DSP elementwise kernels the runtime dispatches to.
enum EwProgram {
    /// `(a + b) >> 1` with saturation.
    Add,
    /// `(a · b) >> 4` with saturation.
    Mul,
}

/// Runs an elementwise kernel on the simulated DSP; `b` is zero-extended
/// to `a`'s length.
fn run_elementwise_on_machine(a: &[u8], b: &[u8], which: EwProgram) -> Vec<u8> {
    let elems = a.len();
    let padded = elems.div_ceil(128) * 128;
    let program = match which {
        EwProgram::Add => ew_fn::add_program(elems, 1),
        EwProgram::Mul => ew_fn::mul_program(elems, 4),
    };
    let mut machine = Machine::new(3 * padded);
    machine.mem[..elems].copy_from_slice(a);
    let blen = b.len().min(elems);
    machine.mem[padded..padded + blen].copy_from_slice(&b[..blen]);
    machine.set_sreg(gcd2_hvx::SReg::new(0), 0);
    machine.set_sreg(gcd2_hvx::SReg::new(1), padded as i64);
    machine.set_sreg(gcd2_hvx::SReg::new(2), 2 * padded as i64);
    machine.run(&program);
    machine.mem[2 * padded..2 * padded + elems].to_vec()
}

fn pool(
    graph: &Graph,
    node: &gcd2_cgraph::Node,
    values: &HashMap<NodeId, Vec<u8>>,
    kernel: (usize, usize),
    stride: (usize, usize),
    is_max: bool,
) -> Vec<u8> {
    let in_shape = &graph.node(node.inputs[0]).shape;
    let mut out = vec![0; node.shape.elems()];
    hostops::pool_into(
        &values[&node.inputs[0]],
        in_shape.channels(),
        in_shape.dim(2),
        in_shape.dim(3),
        kernel,
        stride,
        is_max,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use gcd2_cgraph::TShape;

    fn demo_net() -> Graph {
        let mut g = Graph::new();
        let x = g.input("image", TShape::nchw(1, 3, 12, 12));
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
        let r1 = g.add(OpKind::Act(Activation::Relu), &[c1], "relu1");
        let c2 = g.add(
            OpKind::Conv2d {
                out_channels: 8,
                kernel: (1, 1),
                stride: (1, 1),
                padding: (0, 0),
            },
            &[r1],
            "conv2",
        );
        let s = g.add(OpKind::Add, &[c2, c1], "residual");
        let p = g.add(
            OpKind::MaxPool {
                kernel: (2, 2),
                stride: (2, 2),
            },
            &[s],
            "pool",
        );
        let f = g.add(
            OpKind::Reshape {
                shape: TShape::new(vec![1, 8 * 36]),
            },
            &[p],
            "flat",
        );
        g.add(OpKind::MatMul { n: 10 }, &[f], "classifier");
        g
    }

    #[test]
    fn dsp_execution_matches_reference_bit_for_bit() {
        let g = demo_net();
        let compiled = Compiler::new().compile(&g);
        let input: Vec<u8> = (0..3 * 12 * 12).map(|i| (i % 16) as u8).collect();
        let (dsp, simd_macs) = execute_on_dsp(&compiled, &input, 0xBEEF);
        let reference = execute_reference(&compiled, &input, 0xBEEF);
        assert_eq!(
            dsp, reference,
            "simulated inference must equal the scalar reference"
        );
        assert_eq!(dsp.len(), 10);
        assert!(simd_macs > 0, "the convs and the classifier run on the DSP");
    }

    #[test]
    fn different_plans_same_numerics() {
        // Whatever instruction/layout the selector picks, the numbers
        // must not change.
        let g = demo_net();
        let input: Vec<u8> = (0..3 * 12 * 12).map(|i| (i * 7 % 16) as u8).collect();
        let mut outputs = Vec::new();
        for instr in SimdInstr::ALL {
            let compiled = Compiler::new()
                .with_selection(crate::Selection::Uniform(instr))
                .compile(&g);
            outputs.push(execute_on_dsp(&compiled, &input, 99).0);
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn weights_are_deterministic_and_bounded() {
        for i in 0..1000 {
            let w = weight(42, NodeId(3), i);
            assert!((-WGT_MAX..=WGT_MAX).contains(&w));
            assert_eq!(w, weight(42, NodeId(3), i));
        }
    }
}
