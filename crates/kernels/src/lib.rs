//! # gcd2-kernels — pre-designed operator kernels and their cost model
//!
//! GCD2 implements each (operator, SIMD instruction) pair with a
//! hand-designed kernel (Section III): `vmpy` with the 1-column layout,
//! `vmpa` with the 2-column layout, `vrmpy` with the 4-column layout,
//! plus `vtmpy` depthwise kernels and the non-GEMM (elementwise, pooling,
//! lookup) kernels. This crate generates those kernels as instruction
//! streams for the simulated DSP and derives their cycle costs by
//! scheduling them with the SDA packer — the `Cost(ep)` term of the
//! paper's global objective.
//!
//! ```
//! use gcd2_cgraph::GemmDims;
//! use gcd2_kernels::{CostModel, SimdInstr, UnrollConfig};
//!
//! let m = CostModel::new();
//! let small = GemmDims::new(32, 32, 32);
//! // Table II, first row: vrmpy's 4-column layout avoids the 128-row
//! // padding vmpy pays, so it wins on small square operands.
//! let vmpy = m.gemm_cycles(&small, SimdInstr::Vmpy, UnrollConfig::NONE);
//! let vrmpy = m.gemm_cycles(&small, SimdInstr::Vrmpy, UnrollConfig::NONE);
//! assert!(vrmpy < vmpy);
//! ```

// Runtime-facing crate: recoverable failures must flow through Result,
// same robustness gate as gcd2 core (see DESIGN.md §6d). The SIMD
// kernels additionally require every unsafe block to justify itself.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(target_arch = "x86_64")]
pub mod amx;
pub mod conv;
pub mod cost;
pub mod dispatch;
pub mod elementwise;
pub mod hostops;
pub mod instr;
pub mod matmul;
pub mod reference;
pub mod simd;
pub mod synth;
pub mod tiled;
pub mod transpose;
pub mod unroll;

pub use conv::{
    conv2d_direct_chw_into, conv_ref_chw, conv_weights_as_gemm, depthwise_vtmpy_blocks,
    dwconv_direct_into, dwconv_rows_into, im2col_chw, im2col_overhead_cycles, im2col_rm_into,
    im2col_rows_into, im2col_rows_view, Im2colScratch, Im2colView,
};
pub use cost::{CostCache, CostModel, KERNEL_DISPATCH_CYCLES};
pub use dispatch::{
    active_isa, detected_isa, gemm_kernel_summary, pin_isa, try_matmul_panel_into,
    try_matmul_threaded_into, ByteMap, GemmA, IsaPin, KernelIsa, PanelImage, PanelKind,
    ScratchPool, WeightPanel, KTILE_ROWS,
};
pub use elementwise::{elementwise_blocks, EwKind};
pub use instr::SimdInstr;
pub use matmul::{functional_program, gemm_loops, output_matrix_len, timing_blocks, GemmLoops};
pub use reference::{add_ref, dwconv_ref, matmul_ref, mul_ref, transpose_clamp_ref};
pub use synth::weight_row_into;
pub use tiled::{matmul_host, tile_plan, GemmDispatchError, GemmScratch, LineBuf, TilePlan};
pub use transpose::transpose_clamp_into;
pub use unroll::{
    adaptive_unroll, candidates, classify_output, OutputShapeClass, UnrollConfig, UnrollStrategy,
    UNROLL_CANDIDATES,
};
