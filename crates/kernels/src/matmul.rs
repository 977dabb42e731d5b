//! Pre-designed matrix-multiplication kernels, one per SIMD instruction.
//!
//! Each kernel follows the paper's Figure 2 execution scheme: stream
//! layout-panels of the activation matrix through vector loads, multiply
//! them against weight bytes held in scalar registers, accumulate in
//! vector registers, then requantize and store output panels *in the same
//! layout family* — so chaining two operators that picked the same
//! instruction incurs zero data transformation.
//!
//! Two generators are provided:
//!
//! * [`timing_blocks`] — loop-structured blocks (with trip counts) whose
//!   SDA-packed cycle count is the kernel's cost; used by the optimizer
//!   and the end-to-end latency estimates. Their labels hold the shape,
//!   instruction and unroll they name as values ([`Label::lazy`]), turned
//!   into text only where a program is displayed, never on the cost
//!   model's path.
//! * [`functional_program`] — a fully unrolled program for small shapes
//!   with weights embedded as immediates; executed on the simulator to
//!   validate layouts and instruction semantics against the scalar
//!   reference.

use crate::instr::SimdInstr;
use crate::unroll::UnrollConfig;
use gcd2_cgraph::GemmDims;
use gcd2_hvx::{pack_weights, Block, Insn, Label, Program, SReg, VPair, VReg, VBYTES};
use gcd2_tensor::{MatrixI8, MatrixU8};

fn v(i: u8) -> VReg {
    VReg::new(i)
}
fn w(i: u8) -> VPair {
    VPair::new(i)
}
fn r(i: u8) -> SReg {
    SReg::new(i)
}

/// Scalar register roles shared by the kernels.
mod regs {
    /// Activation pointer.
    pub const A_PTR: u8 = 0;
    /// Weight pointer.
    pub const W_PTR: u8 = 1;
    /// Output pointer.
    pub const OUT_PTR: u8 = 2;
    /// Rotating weight registers.
    pub const WGT0: u8 = 3;
    /// Spill pointer.
    pub const SPILL_PTR: u8 = 6;
    /// Zero register (accumulator init).
    pub const ZERO: u8 = 7;
}

/// Iteration-space bookkeeping for a GEMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmLoops {
    /// Row panels (`padded_M / m_granularity`).
    pub panels: usize,
    /// Reduction groups (`padded_K / k_granularity`).
    pub k_groups: usize,
    /// Output columns (unpadded).
    pub n_cols: usize,
    /// Inner-body iterations: `panels × ceil(k_groups / k_unroll) × ceil(n / n_unroll)`.
    pub body_trips: u64,
}

/// Computes the iteration space of a kernel.
pub fn gemm_loops(gemm: &GemmDims, instr: SimdInstr, unroll: UnrollConfig) -> GemmLoops {
    let layout = instr.layout();
    let panels = layout.padded_rows(gemm.m) / instr.m_granularity();
    let k_groups = layout.padded_cols(gemm.k) / instr.k_granularity();
    let n_cols = gemm.n;
    let body_trips = panels as u64
        * k_groups.div_ceil(unroll.k_unroll) as u64
        * n_cols.div_ceil(unroll.n_unroll) as u64;
    GemmLoops {
        panels,
        k_groups,
        n_cols,
        body_trips,
    }
}

/// Emits the loop-structured kernel for cost estimation: a setup block,
/// an accumulator-init block, the multiply body, and the
/// requantize-and-store epilogue.
pub fn timing_blocks(gemm: &GemmDims, instr: SimdInstr, unroll: UnrollConfig) -> Vec<Block> {
    let loops = gemm_loops(gemm, instr, unroll);
    let t = unroll.n_unroll;
    let u = unroll.k_unroll;
    let spills = unroll.spill_count(instr);

    // --- setup: pointer and constant initialisation (once) ---------------
    let gemm = *gemm;
    let mut setup = Block::new(Label::lazy(move |f| {
        write!(f, "matmul/{instr} setup {gemm}")
    }));
    for (reg, imm) in [
        (regs::A_PTR, 0i64),
        (regs::W_PTR, 0),
        (regs::OUT_PTR, 0),
        (regs::ZERO, 0),
    ] {
        setup.push(Insn::Movi { dst: r(reg), imm });
    }

    // --- accumulator init: once per (panel, column group) ----------------
    let mut init = Block::with_trip_count(
        Label::lazy(move |f| write!(f, "matmul/{instr} init")),
        loops.panels as u64 * loops.n_cols.div_ceil(t) as u64,
    );
    let acc_regs = |ti: usize| -> u8 { (8 + ti as u8 * acc_width(instr)).min(28) };
    for ti in 0..t {
        match instr {
            SimdInstr::Vmpy => {
                init.push(Insn::Vsplat {
                    dst: v(acc_regs(ti)),
                    src: r(regs::ZERO),
                });
                init.push(Insn::Vsplat {
                    dst: v(acc_regs(ti) + 1),
                    src: r(regs::ZERO),
                });
            }
            SimdInstr::Vmpa | SimdInstr::Vrmpy => {
                init.push(Insn::Vsplat {
                    dst: v(acc_regs(ti)),
                    src: r(regs::ZERO),
                });
            }
        }
    }

    // --- multiply body ----------------------------------------------------
    let mut body = Block::with_trip_count(
        Label::lazy(move |f| write!(f, "matmul/{instr} body {gemm} x{unroll}")),
        loops.body_trips,
    );
    body.insns.reserve_exact(u + 2 * t * u + 2 * spills + 2);
    for ui in 0..u {
        body.push(Insn::VLoad {
            dst: v(ui as u8 % 6),
            base: r(regs::A_PTR),
            offset: (ui * VBYTES) as i64,
        });
    }
    for ti in 0..t {
        for ui in 0..u {
            let wreg = r(regs::WGT0 + ((ti * u + ui) % 3) as u8);
            body.push(Insn::Ld {
                dst: wreg,
                base: r(regs::W_PTR),
                offset: ((ti * u + ui) * 8) as i64,
            });
            let acc = acc_regs(ti);
            let src = v(ui as u8 % 6);
            body.push(match instr {
                SimdInstr::Vmpy => Insn::Vmpy {
                    dst: w(acc & !1),
                    src,
                    weights: wreg,
                    acc: true,
                },
                SimdInstr::Vmpa => Insn::Vmpa {
                    dst: v(acc),
                    src,
                    weights: wreg,
                    acc: true,
                },
                SimdInstr::Vrmpy => Insn::Vrmpy {
                    dst: v(acc),
                    src,
                    weights: wreg,
                    acc: true,
                },
            });
        }
    }
    for s in 0..spills {
        body.push(Insn::VLoad {
            dst: v(29),
            base: r(regs::SPILL_PTR),
            offset: (s * VBYTES) as i64,
        });
        body.push(Insn::VStore {
            src: v(29),
            base: r(regs::SPILL_PTR),
            offset: ((s + spills) * VBYTES) as i64,
        });
    }
    body.push(Insn::AddI {
        dst: r(regs::A_PTR),
        a: r(regs::A_PTR),
        imm: (u * VBYTES) as i64,
    });
    body.push(Insn::AddI {
        dst: r(regs::W_PTR),
        a: r(regs::W_PTR),
        imm: (t * u * 8) as i64,
    });

    // --- epilogue: requantize + store, once per output group -------------
    let group = instr.n_granularity();
    let mut epi = Block::with_trip_count(
        Label::lazy(move |f| write!(f, "matmul/{instr} requant")),
        loops.panels as u64 * loops.n_cols.div_ceil(group) as u64,
    );
    match instr {
        SimdInstr::Vmpy => {
            epi.push(Insn::VasrHB {
                dst: v(4),
                src: w(8),
                shift: 6,
            });
            epi.push(Insn::VStore {
                src: v(4),
                base: r(regs::OUT_PTR),
                offset: 0,
            });
        }
        SimdInstr::Vmpa => {
            epi.push(Insn::VasrHB {
                dst: v(4),
                src: w(8),
                shift: 6,
            });
            epi.push(Insn::VStore {
                src: v(4),
                base: r(regs::OUT_PTR),
                offset: 0,
            });
        }
        SimdInstr::Vrmpy => {
            epi.push(Insn::VasrWH {
                dst: v(4),
                a: v(8),
                b: v(10),
                shift: 6,
            });
            epi.push(Insn::VasrWH {
                dst: v(5),
                a: v(9),
                b: v(11),
                shift: 6,
            });
            epi.push(Insn::VasrHB {
                dst: v(6),
                src: w(4),
                shift: 0,
            });
            epi.push(Insn::VStore {
                src: v(6),
                base: r(regs::OUT_PTR),
                offset: 0,
            });
        }
    }
    epi.push(Insn::AddI {
        dst: r(regs::OUT_PTR),
        a: r(regs::OUT_PTR),
        imm: VBYTES as i64,
    });

    vec![setup, init, body, epi]
}

fn acc_width(instr: SimdInstr) -> u8 {
    match instr {
        SimdInstr::Vmpy => 2,
        SimdInstr::Vmpa | SimdInstr::Vrmpy => 1,
    }
}

/// Builds a fully unrolled, functionally-correct program computing
/// `out = requant(a × wgt, shift)` with the given instruction.
///
/// `a` must already be stored in the instruction's layout; the program
/// reads `a`'s bytes at `addr_a` and writes the output (padded, in the
/// same layout family) at `addr_out`. Use [`output_matrix_len`] to size
/// the buffer.
///
/// # Panics
/// Panics if `a.layout() != instr.layout()` or the weight matrix does
/// not have `a.cols()` rows.
pub fn functional_program(
    a: &MatrixU8,
    wgt: &MatrixI8,
    instr: SimdInstr,
    shift: u8,
    addr_a: i64,
    addr_out: i64,
) -> Program {
    assert_eq!(
        a.layout(),
        instr.layout(),
        "activation layout must match the instruction"
    );
    assert_eq!(
        wgt.rows(),
        a.cols(),
        "weight rows must equal activation cols"
    );
    let layout = instr.layout();
    let (m, k, n) = (a.rows(), a.cols(), wgt.cols());
    let kp = layout.padded_cols(k);
    let np = layout.padded_cols(n);
    let mg = instr.m_granularity();
    let kg = instr.k_granularity();
    let panels = layout.padded_rows(m) / mg;
    let k_groups = kp / kg;

    let mut block = Block::new(Label::lazy(move |f| write!(f, "matmul/{instr} functional")));
    block.push(Insn::Movi {
        dst: r(regs::A_PTR),
        imm: addr_a,
    });
    block.push(Insn::Movi {
        dst: r(regs::OUT_PTR),
        imm: addr_out,
    });

    let wb = |kk: usize, nn: usize| -> i8 {
        if kk < k && nn < n {
            wgt.get(kk, nn)
        } else {
            0
        }
    };

    for p in 0..panels {
        let n_step = instr.n_granularity();
        let mut col = 0;
        while col < n {
            // Accumulate the n_step columns of this group.
            for (g, nn) in (col..col + n_step).enumerate() {
                for kgi in 0..k_groups {
                    let chunk = (p * mg * kp + kgi * VBYTES) as i64;
                    block.push(Insn::VLoad {
                        dst: v(0),
                        base: r(regs::A_PTR),
                        offset: chunk,
                    });
                    let weights = match instr {
                        SimdInstr::Vmpy => {
                            let x = wb(kgi, nn);
                            pack_weights([x, x, x, x])
                        }
                        SimdInstr::Vmpa => {
                            let (x, y) = (wb(2 * kgi, nn), wb(2 * kgi + 1, nn));
                            pack_weights([x, y, x, y])
                        }
                        SimdInstr::Vrmpy => pack_weights([
                            wb(4 * kgi, nn),
                            wb(4 * kgi + 1, nn),
                            wb(4 * kgi + 2, nn),
                            wb(4 * kgi + 3, nn),
                        ]),
                    };
                    block.push(Insn::Movi {
                        dst: r(regs::WGT0),
                        imm: weights,
                    });
                    let acc = 8 + g as u8 * acc_width(instr);
                    let first = kgi == 0;
                    block.push(match instr {
                        SimdInstr::Vmpy => Insn::Vmpy {
                            dst: w(acc),
                            src: v(0),
                            weights: r(regs::WGT0),
                            acc: !first,
                        },
                        SimdInstr::Vmpa => Insn::Vmpa {
                            dst: v(acc),
                            src: v(0),
                            weights: r(regs::WGT0),
                            acc: !first,
                        },
                        SimdInstr::Vrmpy => Insn::Vrmpy {
                            dst: v(acc),
                            src: v(0),
                            weights: r(regs::WGT0),
                            acc: !first,
                        },
                    });
                }
            }
            // Requantize and store the group's output chunk.
            let out_off = (p * mg * np + (col / n_step) * VBYTES) as i64;
            match instr {
                SimdInstr::Vmpy => {
                    block.push(Insn::VasrHB {
                        dst: v(4),
                        src: w(8),
                        shift,
                    });
                    block.push(Insn::VStore {
                        src: v(4),
                        base: r(regs::OUT_PTR),
                        offset: out_off,
                    });
                }
                SimdInstr::Vmpa => {
                    block.push(Insn::VasrHB {
                        dst: v(4),
                        src: w(8),
                        shift,
                    });
                    block.push(Insn::VStore {
                        src: v(4),
                        base: r(regs::OUT_PTR),
                        offset: out_off,
                    });
                }
                SimdInstr::Vrmpy => {
                    block.push(Insn::VasrWH {
                        dst: v(4),
                        a: v(8),
                        b: v(10),
                        shift,
                    });
                    block.push(Insn::VasrWH {
                        dst: v(5),
                        a: v(9),
                        b: v(11),
                        shift,
                    });
                    block.push(Insn::VasrHB {
                        dst: v(6),
                        src: w(4),
                        shift: 0,
                    });
                    block.push(Insn::VStore {
                        src: v(6),
                        base: r(regs::OUT_PTR),
                        offset: out_off,
                    });
                }
            }
            col += n_step;
        }
    }
    let mut prog = Program::new();
    prog.push(gcd2_hvx::PackedBlock::sequential(&block));
    prog
}

/// Bytes the functional kernel's output occupies at `addr_out`
/// (`M × N` padded in the instruction's layout family).
pub fn output_matrix_len(gemm: &GemmDims, instr: SimdInstr) -> usize {
    instr.layout().padded_len(gemm.m, gemm.n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_hvx::PackedBlock;

    #[test]
    fn loop_counts() {
        let g = GemmDims::new(100, 33, 10);
        let l = gemm_loops(&g, SimdInstr::Vrmpy, UnrollConfig::NONE);
        // M 100 -> 128 (4 panels of 32); K 33 -> 36 (9 groups); N 10.
        assert_eq!(l.panels, 4);
        assert_eq!(l.k_groups, 9);
        assert_eq!(l.body_trips, 4 * 9 * 10);
    }

    #[test]
    fn multiply_count_matches_iteration_space() {
        let g = GemmDims::new(128, 16, 8);
        for instr in SimdInstr::ALL {
            let blocks = timing_blocks(&g, instr, UnrollConfig::new(2, 2));
            let body = &blocks[2];
            let mpy = body
                .insns
                .iter()
                .filter(|i| {
                    matches!(
                        i,
                        Insn::Vmpy { .. } | Insn::Vmpa { .. } | Insn::Vrmpy { .. }
                    )
                })
                .count();
            assert_eq!(mpy, 4, "{instr}: T*U multiplies per body");
            let loops = gemm_loops(&g, instr, UnrollConfig::new(2, 2));
            assert_eq!(body.trip_count, loops.body_trips);
        }
    }

    #[test]
    fn sequential_cost_ordering_at_128() {
        // At M=K=N=128 nothing pads, so vmpy (latency 8) must be the
        // cheapest per Table II's last row, under any schedule.
        let g = GemmDims::new(128, 128, 128);
        let cost = |instr: SimdInstr| -> u64 {
            timing_blocks(&g, instr, UnrollConfig::NONE)
                .iter()
                .map(|b| PackedBlock::sequential(b).stats().cycles)
                .sum()
        };
        // Sequential schedules overstate everything equally; the multiply
        // count ordering still shows through.
        let vmpy = cost(SimdInstr::Vmpy);
        let vrmpy = cost(SimdInstr::Vrmpy);
        assert!(vmpy < vrmpy, "vmpy {vmpy} vs vrmpy {vrmpy}");
    }

    #[test]
    fn spilled_config_emits_spill_traffic() {
        let g = GemmDims::new(128, 128, 128);
        let cfg = UnrollConfig::new(16, 4);
        assert!(cfg.spill_count(SimdInstr::Vmpy) > 0);
        let blocks = timing_blocks(&g, SimdInstr::Vmpy, cfg);
        let body = &blocks[2];
        let stores = body.insns.iter().filter(|i| i.is_store()).count();
        assert!(stores > 0, "spills must generate store traffic");
    }
}
