//! Non-GEMM operator kernels: elementwise arithmetic, activations via
//! table lookup, pooling windows, reductions, and the expensive
//! scalar-division path that the paper's "other optimizations" replace
//! with a database (lookup-table) operation.
//!
//! Elementwise kernels are layout-oblivious: they stream bytes in storage
//! order, so they accept any input layout and produce the same layout —
//! their execution plans differ only in which layout they *pass through*.

use gcd2_hvx::{Block, Insn, Label, Lane, SReg, VPair, VReg, VBYTES};

fn v(i: u8) -> VReg {
    VReg::new(i)
}
fn w(i: u8) -> VPair {
    VPair::new(i)
}
fn r(i: u8) -> SReg {
    SReg::new(i)
}

/// The non-GEMM kernel vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EwKind {
    /// Elementwise add with requantization.
    Add,
    /// Elementwise multiply with requantization.
    Mul,
    /// ReLU-style clamp.
    Relu,
    /// Any unary nonlinearity through a byte lookup table (sigmoid,
    /// gelu, hard-swish, pow, exp...).
    LutUnary,
    /// Unary nonlinearity without the lookup optimization: a scalar
    /// piecewise approximation, 8 elements per trip through the scalar
    /// pipeline.
    ScalarUnary,
    /// Elementwise division, naïve scalar path (16-cycle divider per
    /// element) — what runs *without* the lookup optimization.
    DivScalar,
    /// Elementwise division via reciprocal lookup + multiply — the
    /// optimized "database lookup" path.
    DivLut,
    /// Max-pool with a `window`-element window per output.
    MaxPoolWin {
        /// Window size (`kh · kw`).
        window: usize,
    },
    /// Average-pool with a `window`-element window per output.
    AvgPoolWin {
        /// Window size (`kh · kw`).
        window: usize,
    },
    /// Sum/max reduction over the stream (softmax, layer-norm, global
    /// average pooling building block).
    Reduce,
    /// Plain copy (concat, upsample replication).
    Copy,
}

/// Emits the kernel blocks for `elems` output elements.
pub fn elementwise_blocks(kind: EwKind, elems: usize) -> Vec<Block> {
    let vec_trips = elems.div_ceil(VBYTES) as u64;
    let label = Label::lazy(move |f| write!(f, "{kind:?} x{elems}"));
    let mut body = Block::with_trip_count(label, vec_trips.max(1));
    match kind {
        EwKind::Add => {
            body.extend([
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
                Insn::VLoad {
                    dst: v(1),
                    base: r(1),
                    offset: 0,
                },
                Insn::VaddUbH {
                    dst: w(2),
                    a: v(0),
                    b: v(1),
                },
                Insn::VasrHB {
                    dst: v(4),
                    src: w(2),
                    shift: 1,
                },
                Insn::VStore {
                    src: v(4),
                    base: r(2),
                    offset: 0,
                },
                Insn::AddI {
                    dst: r(0),
                    a: r(0),
                    imm: VBYTES as i64,
                },
                Insn::AddI {
                    dst: r(1),
                    a: r(1),
                    imm: VBYTES as i64,
                },
                Insn::AddI {
                    dst: r(2),
                    a: r(2),
                    imm: VBYTES as i64,
                },
            ]);
        }
        EwKind::Mul => {
            body.extend([
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
                Insn::VLoad {
                    dst: v(1),
                    base: r(1),
                    offset: 0,
                },
                Insn::VmulUbH {
                    dst: w(2),
                    a: v(0),
                    b: v(1),
                },
                Insn::VasrHB {
                    dst: v(4),
                    src: w(2),
                    shift: 7,
                },
                Insn::VStore {
                    src: v(4),
                    base: r(2),
                    offset: 0,
                },
                Insn::AddI {
                    dst: r(0),
                    a: r(0),
                    imm: VBYTES as i64,
                },
                Insn::AddI {
                    dst: r(1),
                    a: r(1),
                    imm: VBYTES as i64,
                },
                Insn::AddI {
                    dst: r(2),
                    a: r(2),
                    imm: VBYTES as i64,
                },
            ]);
        }
        EwKind::Relu => {
            body.extend([
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
                Insn::Vmax {
                    lane: Lane::B,
                    dst: v(1),
                    a: v(0),
                    b: v(30),
                },
                Insn::VStore {
                    src: v(1),
                    base: r(2),
                    offset: 0,
                },
                Insn::AddI {
                    dst: r(0),
                    a: r(0),
                    imm: VBYTES as i64,
                },
                Insn::AddI {
                    dst: r(2),
                    a: r(2),
                    imm: VBYTES as i64,
                },
            ]);
        }
        EwKind::LutUnary => {
            body.extend([
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
                Insn::VlutB {
                    dst: v(1),
                    idx: v(0),
                    table: v(31),
                },
                Insn::VStore {
                    src: v(1),
                    base: r(2),
                    offset: 0,
                },
                Insn::AddI {
                    dst: r(0),
                    a: r(0),
                    imm: VBYTES as i64,
                },
                Insn::AddI {
                    dst: r(2),
                    a: r(2),
                    imm: VBYTES as i64,
                },
            ]);
        }
        EwKind::ScalarUnary => {
            body.trip_count = elems.div_ceil(8) as u64;
            body.push(Insn::Ld {
                dst: r(3),
                base: r(0),
                offset: 0,
            });
            for k in 0..4u8 {
                body.push(Insn::Shr {
                    dst: r(4),
                    a: r(3),
                    imm: k,
                });
                body.push(Insn::Add {
                    dst: r(3),
                    a: r(3),
                    b: r(4),
                });
            }
            body.push(Insn::St {
                src: r(3),
                base: r(2),
                offset: 0,
            });
            body.push(Insn::AddI {
                dst: r(0),
                a: r(0),
                imm: 8,
            });
            body.push(Insn::AddI {
                dst: r(2),
                a: r(2),
                imm: 8,
            });
        }
        EwKind::DivScalar => {
            // One element per trip through the scalar divider.
            body.trip_count = elems as u64;
            body.extend([
                Insn::Ld {
                    dst: r(3),
                    base: r(0),
                    offset: 0,
                },
                Insn::Ld {
                    dst: r(4),
                    base: r(1),
                    offset: 0,
                },
                Insn::Div {
                    dst: r(5),
                    a: r(3),
                    b: r(4),
                },
                Insn::St {
                    src: r(5),
                    base: r(2),
                    offset: 0,
                },
                Insn::AddI {
                    dst: r(0),
                    a: r(0),
                    imm: 1,
                },
                Insn::AddI {
                    dst: r(1),
                    a: r(1),
                    imm: 1,
                },
                Insn::AddI {
                    dst: r(2),
                    a: r(2),
                    imm: 1,
                },
            ]);
        }
        EwKind::DivLut => {
            body.extend([
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
                Insn::VLoad {
                    dst: v(1),
                    base: r(1),
                    offset: 0,
                },
                Insn::VlutB {
                    dst: v(2),
                    idx: v(1),
                    table: v(31),
                },
                Insn::VmulUbH {
                    dst: w(4),
                    a: v(0),
                    b: v(2),
                },
                Insn::VasrHB {
                    dst: v(6),
                    src: w(4),
                    shift: 7,
                },
                Insn::VStore {
                    src: v(6),
                    base: r(2),
                    offset: 0,
                },
                Insn::AddI {
                    dst: r(0),
                    a: r(0),
                    imm: VBYTES as i64,
                },
                Insn::AddI {
                    dst: r(1),
                    a: r(1),
                    imm: VBYTES as i64,
                },
                Insn::AddI {
                    dst: r(2),
                    a: r(2),
                    imm: VBYTES as i64,
                },
            ]);
        }
        EwKind::MaxPoolWin { window } | EwKind::AvgPoolWin { window } => {
            for k in 0..window.clamp(1, 9) {
                body.push(Insn::VLoad {
                    dst: v((k % 2) as u8),
                    base: r(0),
                    offset: (k * VBYTES) as i64,
                });
                if k > 0 {
                    body.push(Insn::Vmax {
                        lane: Lane::B,
                        dst: v(2),
                        a: v(2),
                        b: v((k % 2) as u8),
                    });
                }
            }
            body.push(Insn::VStore {
                src: v(2),
                base: r(2),
                offset: 0,
            });
            body.push(Insn::AddI {
                dst: r(0),
                a: r(0),
                imm: VBYTES as i64,
            });
            body.push(Insn::AddI {
                dst: r(2),
                a: r(2),
                imm: VBYTES as i64,
            });
        }
        EwKind::Reduce => {
            body.extend([
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
                Insn::VaddHAcc {
                    dst: v(2),
                    src: v(0),
                },
                Insn::AddI {
                    dst: r(0),
                    a: r(0),
                    imm: VBYTES as i64,
                },
            ]);
        }
        EwKind::Copy => {
            body.extend([
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
                Insn::VStore {
                    src: v(0),
                    base: r(2),
                    offset: 0,
                },
                Insn::AddI {
                    dst: r(0),
                    a: r(0),
                    imm: VBYTES as i64,
                },
                Insn::AddI {
                    dst: r(2),
                    a: r(2),
                    imm: VBYTES as i64,
                },
            ]);
        }
    }
    vec![body]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_hvx::PackedBlock;

    fn cycles(kind: EwKind, elems: usize) -> u64 {
        elementwise_blocks(kind, elems)
            .iter()
            .map(|b| PackedBlock::sequential(b).stats().cycles)
            .sum()
    }

    #[test]
    fn div_lut_is_much_cheaper_than_scalar_div() {
        let scalar = cycles(EwKind::DivScalar, 4096);
        let lut = cycles(EwKind::DivLut, 4096);
        assert!(
            scalar > 20 * lut,
            "scalar div {scalar} should dwarf lut div {lut}"
        );
    }

    #[test]
    fn scalar_unary_much_slower_than_lut() {
        let scalar = cycles(EwKind::ScalarUnary, 65536);
        let lut = cycles(EwKind::LutUnary, 65536);
        assert!(scalar > 10 * lut, "scalar {scalar} vs lut {lut}");
    }

    #[test]
    fn costs_scale_with_elements() {
        assert!(cycles(EwKind::Add, 4096) > 20 * cycles(EwKind::Add, 128));
    }

    #[test]
    fn pool_cost_grows_with_window() {
        assert!(
            cycles(EwKind::MaxPoolWin { window: 9 }, 1024)
                > cycles(EwKind::MaxPoolWin { window: 4 }, 1024)
        );
    }

    #[test]
    fn zero_elements_still_one_trip() {
        // Degenerate shapes must not produce empty programs.
        assert!(cycles(EwKind::Copy, 0) > 0);
    }
}

/// Functional elementwise programs: loop-structured kernels with real
/// addresses, executable on the simulator. Buffers must be padded to a
/// multiple of [`VBYTES`] (zero padding is harmless for all three ops).
pub mod functional {
    use super::*;
    use gcd2_hvx::{PackedBlock, Program};

    fn looped(mut body: Block, elems: usize) -> Program {
        body.trip_count = elems.div_ceil(VBYTES) as u64;
        let mut program = Program::new();
        program.push(PackedBlock::sequential(&body));
        program
    }

    /// `out[i] = sat_ub((a[i] + b[i]) >> shift)` over `elems` bytes.
    /// Pointers: `r0 = a`, `r1 = b`, `r2 = out` (set by the caller).
    pub fn add_program(elems: usize, shift: u8) -> Program {
        let mut body = Block::new("functional add");
        body.extend([
            Insn::VLoad {
                dst: v(0),
                base: r(0),
                offset: 0,
            },
            Insn::VLoad {
                dst: v(1),
                base: r(1),
                offset: 0,
            },
            Insn::VaddUbH {
                dst: w(2),
                a: v(0),
                b: v(1),
            },
            // The widening add produces sequential lanes; the narrowing
            // shift consumes the even/odd split — re-deal first (the
            // same shuffle dance real HVX kernels perform).
            Insn::VdealH {
                dst: w(4),
                src: w(2),
            },
            Insn::VasrHB {
                dst: v(6),
                src: w(4),
                shift,
            },
            Insn::VStore {
                src: v(6),
                base: r(2),
                offset: 0,
            },
            Insn::AddI {
                dst: r(0),
                a: r(0),
                imm: VBYTES as i64,
            },
            Insn::AddI {
                dst: r(1),
                a: r(1),
                imm: VBYTES as i64,
            },
            Insn::AddI {
                dst: r(2),
                a: r(2),
                imm: VBYTES as i64,
            },
        ]);
        looped(body, elems)
    }

    /// `out[i] = sat_ub((a[i] · b[i]) >> shift)` over `elems` bytes.
    pub fn mul_program(elems: usize, shift: u8) -> Program {
        let mut body = Block::new("functional mul");
        body.extend([
            Insn::VLoad {
                dst: v(0),
                base: r(0),
                offset: 0,
            },
            Insn::VLoad {
                dst: v(1),
                base: r(1),
                offset: 0,
            },
            Insn::VmulUbH {
                dst: w(2),
                a: v(0),
                b: v(1),
            },
            Insn::VasrHB {
                dst: v(4),
                src: w(2),
                shift,
            },
            Insn::VStore {
                src: v(4),
                base: r(2),
                offset: 0,
            },
            Insn::AddI {
                dst: r(0),
                a: r(0),
                imm: VBYTES as i64,
            },
            Insn::AddI {
                dst: r(1),
                a: r(1),
                imm: VBYTES as i64,
            },
            Insn::AddI {
                dst: r(2),
                a: r(2),
                imm: VBYTES as i64,
            },
        ]);
        looped(body, elems)
    }

    /// Important caveat of [`mul_program`]: the widening multiply splits
    /// products even/odd across the pair and [`Insn::VasrHB`]
    /// re-interleaves them, so outputs land back in input order — the
    /// same invariant the matmul kernels rely on.
    ///
    /// `out[i] = max(a[i], floor)` over `elems` bytes, with the clamp
    /// register `v30` splat to `floor` first. Pointers: `r0 = a`,
    /// `r2 = out`.
    pub fn relu_program(elems: usize, floor: u8) -> Program {
        let mut setup = Block::new("relu floor");
        setup.push(Insn::Movi {
            dst: r(3),
            imm: i64::from_le_bytes([floor, floor, floor, floor, 0, 0, 0, 0]),
        });
        setup.push(Insn::Vsplat {
            dst: v(30),
            src: r(3),
        });
        let mut body = Block::new("functional relu");
        body.extend([
            Insn::VLoad {
                dst: v(0),
                base: r(0),
                offset: 0,
            },
            Insn::Vmax {
                lane: Lane::B,
                dst: v(1),
                a: v(0),
                b: v(30),
            },
            Insn::VStore {
                src: v(1),
                base: r(2),
                offset: 0,
            },
            Insn::AddI {
                dst: r(0),
                a: r(0),
                imm: VBYTES as i64,
            },
            Insn::AddI {
                dst: r(2),
                a: r(2),
                imm: VBYTES as i64,
            },
        ]);
        body.trip_count = elems.div_ceil(VBYTES) as u64;
        let mut program = Program::new();
        program.push(PackedBlock::sequential(&setup));
        program.push(PackedBlock::sequential(&body));
        program
    }
}
