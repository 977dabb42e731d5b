//! Layout transformation cost model and DSP transform routines.
//!
//! Converting a tensor between layouts is the `TC(ep_i, ep_j)` term of the
//! paper's global optimization objective (Equation 1): it costs nothing
//! when producer and consumer agree on a layout, and real DSP cycles when
//! they do not. This module provides:
//!
//! * [`transform_cycles`] — the analytic cycle cost the optimizer uses;
//! * [`transform_block`] — a timing-faithful instruction stream for the
//!   transform (vector loads, permutes, stores, pointer bumps) so that
//!   end-to-end programs account for transforms with the same packet
//!   machinery as compute kernels. Functionally the byte permutation is
//!   performed by the runtime ([`crate::matrix::MatrixU8::to_layout`]);
//!   the emitted block reproduces its *cost*, not its bytes.

use crate::layout::Layout;
use gcd2_hvx::{Block, Insn, Label, SReg, VPair, VReg, VBYTES};

/// Fixed per-transform overhead in cycles (DMA descriptor setup, loop
/// prologue/epilogue).
pub const TRANSFORM_OVERHEAD_CYCLES: u64 = 2000;

/// Cycles per 128-byte vector for panel-to-panel (ColX → ColY)
/// reshuffles. Layout transforms stride across panel boundaries, so they
/// run at strided-DRAM bandwidth, not at the vector unit's pace: two
/// [`gcd2_hvx::Insn::VGather`] accesses share a packet, giving 600
/// cycles per vector (≈10 GB/s effective at the calibrated clock) — the
/// reason transformation costs matter to the global optimizer at all.
pub const VECTOR_SHUFFLE_CYCLES_PER_VEC: u64 = 600;

/// Cycles per 128-byte vector when one side is row-major: a full
/// element-wise scatter/gather, about 2× slower again.
pub const SCALAR_GATHER_CYCLES_PER_VEC: u64 = 1200;

/// Analytic cycle cost of converting a `rows × cols` u8 matrix from
/// layout `from` to layout `to`. Zero when the layouts match.
pub fn transform_cycles(rows: usize, cols: usize, from: Layout, to: Layout) -> u64 {
    if from == to {
        return 0;
    }
    let bytes = from.padded_len(rows, cols).max(to.padded_len(rows, cols));
    let vecs = bytes.div_ceil(VBYTES) as u64;
    let per_vec = if from == Layout::RowMajor || to == Layout::RowMajor {
        SCALAR_GATHER_CYCLES_PER_VEC
    } else {
        VECTOR_SHUFFLE_CYCLES_PER_VEC
    };
    vecs * per_vec + TRANSFORM_OVERHEAD_CYCLES
}

/// Emits the transform routine as an instruction block whose packed cost
/// approximates [`transform_cycles`]. `src_base`/`dst_base` are the
/// scalar registers holding the source and destination addresses.
pub fn transform_block(
    rows: usize,
    cols: usize,
    from: Layout,
    to: Layout,
    src_base: SReg,
    dst_base: SReg,
) -> Block {
    let mut block = Block::new(Label::lazy(move |f| write!(f, "transform {from} -> {to}")));
    if from == to {
        return block;
    }
    let bytes = from.padded_len(rows, cols).max(to.padded_len(rows, cols));
    let pair_iters = bytes.div_ceil(2 * VBYTES) as u64;
    block.trip_count = pair_iters.max(1);

    let v0 = VReg::new(0);
    let v1 = VReg::new(1);
    let w0 = VPair::new(0);
    let w2 = VPair::new(2);
    if from == Layout::RowMajor || to == Layout::RowMajor {
        // Element-wise scatter/gather path: every vector of data needs a
        // strided gather on both sides.
        block.push(Insn::VGather {
            dst: v0,
            base: src_base,
            offset: 0,
        });
        block.push(Insn::VGather {
            dst: v0,
            base: src_base,
            offset: VBYTES as i64,
        });
        block.push(Insn::VGather {
            dst: v1,
            base: src_base,
            offset: 2 * VBYTES as i64,
        });
        block.push(Insn::VGather {
            dst: v1,
            base: src_base,
            offset: 3 * VBYTES as i64,
        });
        block.push(Insn::VshuffB { dst: w2, src: w0 });
        block.push(Insn::VStore {
            src: w2.lo(),
            base: dst_base,
            offset: 0,
        });
        block.push(Insn::VStore {
            src: w2.hi(),
            base: dst_base,
            offset: VBYTES as i64,
        });
        block.push(Insn::AddI {
            dst: src_base,
            a: src_base,
            imm: 2 * VBYTES as i64,
        });
        block.push(Insn::AddI {
            dst: dst_base,
            a: dst_base,
            imm: 2 * VBYTES as i64,
        });
    } else {
        // Panel reshuffle path: gather a pair across panels, byte-shuffle,
        // store contiguously.
        block.push(Insn::VGather {
            dst: v0,
            base: src_base,
            offset: 0,
        });
        block.push(Insn::VGather {
            dst: v1,
            base: src_base,
            offset: VBYTES as i64,
        });
        block.push(Insn::VshuffB { dst: w2, src: w0 });
        block.push(Insn::VStore {
            src: w2.lo(),
            base: dst_base,
            offset: 0,
        });
        block.push(Insn::VStore {
            src: w2.hi(),
            base: dst_base,
            offset: VBYTES as i64,
        });
        block.push(Insn::AddI {
            dst: src_base,
            a: src_base,
            imm: 2 * VBYTES as i64,
        });
        block.push(Insn::AddI {
            dst: dst_base,
            a: dst_base,
            imm: 2 * VBYTES as i64,
        });
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_hvx::PackedBlock;

    #[test]
    fn same_layout_is_free() {
        assert_eq!(transform_cycles(128, 128, Layout::Col1, Layout::Col1), 0);
        let b = transform_block(
            128,
            128,
            Layout::Col2,
            Layout::Col2,
            SReg::new(0),
            SReg::new(1),
        );
        assert!(b.is_empty());
    }

    #[test]
    fn row_major_transforms_cost_more() {
        let fast = transform_cycles(256, 256, Layout::Col1, Layout::Col4);
        let slow = transform_cycles(256, 256, Layout::RowMajor, Layout::Col4);
        assert!(
            slow as f64 > 1.5 * fast as f64,
            "gather path {slow} vs shuffle path {fast}"
        );
    }

    #[test]
    fn cost_scales_with_size() {
        let small = transform_cycles(128, 128, Layout::Col1, Layout::Col2);
        let big = transform_cycles(512, 512, Layout::Col1, Layout::Col2);
        assert!(big > 10 * small);
    }

    #[test]
    fn block_cost_tracks_analytic_cost() {
        let b = transform_block(
            512,
            512,
            Layout::Col1,
            Layout::Col2,
            SReg::new(0),
            SReg::new(1),
        );
        let sequential = PackedBlock::sequential(&b);
        let cycles = sequential.body_cycles() * sequential.trip_count;
        let analytic = transform_cycles(512, 512, Layout::Col1, Layout::Col2);
        // The sequential (unpacked) schedule is an upper bound; packing
        // brings it near the analytic number. Check the right ballpark.
        assert!(
            cycles >= analytic / 2,
            "sequential {cycles} vs analytic {analytic}"
        );
        assert!(
            cycles <= analytic * 6,
            "sequential {cycles} vs analytic {analytic}"
        );
    }

    #[test]
    fn padding_drives_cost_asymmetry() {
        // Transforming a short matrix into Col1 pays for the 128-row pad.
        let into_col1 = transform_cycles(32, 512, Layout::Col4, Layout::Col1);
        let into_col4 = transform_cycles(32, 512, Layout::Col1, Layout::Col4);
        assert_eq!(into_col1, into_col4); // max() of both paddings on each side
        assert!(into_col1 > transform_cycles(32, 128, Layout::Col4, Layout::Col2));
    }
}
