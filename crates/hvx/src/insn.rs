//! Instruction set of the simulated HVX-like DSP.
//!
//! The set mirrors the features of the Qualcomm Hexagon HVX ISA that the
//! GCD2 paper exploits:
//!
//! * the three disparate widening multiply instructions of the paper's
//!   Figure 1 — [`Insn::Vmpy`], [`Insn::Vmpa`], [`Insn::Vrmpy`] — plus the
//!   additionally mentioned [`Insn::Vtmpy`];
//! * narrowing saturating shifts used for requantization
//!   ([`Insn::VasrHB`], [`Insn::VasrWH`]);
//! * permute/shuffle instructions ([`Insn::VshuffH`], [`Insn::VdealH`],
//!   [`Insn::VlutB`] — the latter backs the paper's
//!   "division → database lookup" optimization);
//! * vector and scalar memory accesses and scalar ALU instructions,
//!   including an expensive [`Insn::Div`] that the lookup optimization
//!   replaces.
//!
//! Every instruction knows its latency in cycles ([`Insn::latency`]) and
//! the functional unit it occupies ([`Insn::resource`]); those two pieces
//! of metadata drive both the VLIW packing algorithms and the timing
//! simulation.

use crate::reg::{RegSet, SReg, VPair, VReg};
use std::fmt;

/// Lane width selector for the simple vector ALU instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// 8-bit lanes (128 per register).
    B,
    /// 16-bit lanes (64 per register).
    H,
    /// 32-bit lanes (32 per register).
    W,
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::B => write!(f, "b"),
            Lane::H => write!(f, "h"),
            Lane::W => write!(f, "w"),
        }
    }
}

/// Functional-unit class an instruction occupies inside a VLIW packet.
///
/// Packet legality rules (see [`crate::packet::ResourceModel`]) bound how
/// many instructions of each class fit in one packet; e.g. only one
/// instruction may use the vector-multiply unit, and "packing two shift
/// operations together is not allowed" (paper, Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Memory access (load side); capacity 2 per packet.
    Mem,
    /// Vector multiply unit; capacity 1 per packet.
    VMpy,
    /// Vector shift unit; capacity 1 per packet.
    VShift,
    /// Vector permute/lookup unit; capacity 1 per packet.
    VPerm,
    /// Vector ALU; capacity 2 per packet.
    VAlu,
    /// Scalar ALU; capacity 4 per packet.
    SAlu,
}

/// One machine instruction.
///
/// Multiply instructions with `acc = true` add into the destination
/// (multiply-accumulate); they then both read and write it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Insn {
    // ---- vector multiplies (paper Figure 1) -------------------------------
    /// `Vdd[.h] (+)= vmpy(Vu.ub, Rt.b)` — each unsigned byte of `src` is
    /// multiplied by the signed weight byte `weights.b[i % 4]`; the 128
    /// 16-bit products are split even/odd across the destination pair
    /// (`dst.lo.h[k] = p[2k]`, `dst.hi.h[k] = p[2k+1]`).
    Vmpy {
        dst: VPair,
        src: VReg,
        weights: SReg,
        acc: bool,
    },
    /// `Vd[.h] (+)= vmpa(Vu.ub, Rt.b)` — bytes are consumed in adjacent
    /// pairs `(b[2i], b[2i+1])` (64 rows × 2 interleaved columns of the
    /// 2-column layout); even pairs use weights `(b0, b1)`, odd pairs
    /// `(b2, b3)`: `p[i] = b[2i]·w + b[2i+1]·w'`. The 64 16-bit results
    /// land sequentially in the destination register.
    Vmpa {
        dst: VReg,
        src: VReg,
        weights: SReg,
        acc: bool,
    },
    /// `Vd[.w] (+)= vrmpy(Vu.ub, Rt.b)` — reducing multiply: each group of
    /// four consecutive bytes is dot-multiplied with the four weight
    /// bytes, producing 32 32-bit lanes.
    Vrmpy {
        dst: VReg,
        src: VReg,
        weights: SReg,
        acc: bool,
    },
    /// `Vdd[.h] (+)= vtmpy(Vuu.ub, Rt.b)` — sliding 3-tap multiply over
    /// the 256 sequential bytes of the source pair:
    /// `p[i] = b[i]·w0 + b[i+1]·w1 + b[i+2]·w2` for `i` in `0..128`,
    /// stored as 128 sequential 16-bit lanes across the destination pair.
    Vtmpy {
        dst: VPair,
        src: VPair,
        weights: SReg,
        acc: bool,
    },

    // ---- vector ALU --------------------------------------------------------
    /// Elementwise wrapping add on `lane`-wide lanes.
    Vadd {
        lane: Lane,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    /// Elementwise wrapping subtract on `lane`-wide lanes.
    Vsub {
        lane: Lane,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    /// Elementwise signed max on `lane`-wide lanes (ReLU-style clamps).
    Vmax {
        lane: Lane,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    /// Elementwise signed min on `lane`-wide lanes.
    Vmin {
        lane: Lane,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    /// Widening add: `dst` pair receives 128 sequential 16-bit sums of the
    /// unsigned bytes of `a` and `b` (used by the paper's Figure 5
    /// element-wise Add example, `R = A + B + C` with `int16` result).
    VaddUbH { dst: VPair, a: VReg, b: VReg },
    /// Accumulating 16-bit add of a register into one half of a pair-held
    /// accumulator: `dst.h[k] += src.h[k]` (wrapping).
    VaddHAcc { dst: VReg, src: VReg },
    /// Broadcast the low 32 bits of a scalar register across all lanes.
    Vsplat { dst: VReg, src: SReg },
    /// Elementwise widening vector×vector multiply:
    /// `p[i] = a.ub[i] · b.ub[i]`, 128 16-bit products split even/odd
    /// across the destination pair (elementwise `Mul` operators).
    VmulUbH { dst: VPair, a: VReg, b: VReg },

    // ---- vector shift / permute -------------------------------------------
    /// Narrowing saturating shift `h → ub`, re-interleaving the even/odd
    /// split of a multiply destination pair:
    /// `dst.b[2k] = satub(src.lo.h[k] >> shift)`,
    /// `dst.b[2k+1] = satub(src.hi.h[k] >> shift)`.
    VasrHB { dst: VReg, src: VPair, shift: u8 },
    /// Narrowing saturating shift `w → h`:
    /// `dst.h[2k] = sath(a.w[k] >> shift)`, `dst.h[2k+1] = sath(b.w[k] >> shift)`.
    VasrWH {
        dst: VReg,
        a: VReg,
        b: VReg,
        shift: u8,
    },
    /// Shuffle: interleave the halves of a pair of 16-bit vectors —
    /// `dst.seq_h[2k] = src.lo.h[k]`, `dst.seq_h[2k+1] = src.hi.h[k]`
    /// where `seq_h` views the pair as 128 sequential lanes.
    VshuffH { dst: VPair, src: VPair },
    /// Deal: the inverse of [`Insn::VshuffH`] — de-interleave sequential
    /// lanes into even/odd halves.
    VdealH { dst: VPair, src: VPair },
    /// Byte shuffle: interleave the bytes of a pair's halves —
    /// `dst.seq_b[2k] = src.lo.b[k]`, `dst.seq_b[2k+1] = src.hi.b[k]`.
    /// Used to emit 2-column-layout output from the `vmpa` kernels.
    VshuffB { dst: VPair, src: VPair },
    /// Byte deal: the inverse of [`Insn::VshuffB`].
    VdealB { dst: VPair, src: VPair },
    /// Byte table lookup: `dst.b[i] = table.b[idx.b[i] & 127]`. Backs the
    /// division-to-lookup-table replacement.
    VlutB { dst: VReg, idx: VReg, table: VReg },

    // ---- vector memory -----------------------------------------------------
    /// Aligned 128-byte vector load from `[base + offset]`.
    VLoad { dst: VReg, base: SReg, offset: i64 },
    /// Strided/gathering 128-byte vector load crossing panel boundaries
    /// (layout transformations). Functionally a load; its latency models
    /// the DRAM-bandwidth-bound cost of non-contiguous access that the
    /// flat memory model otherwise hides.
    VGather { dst: VReg, base: SReg, offset: i64 },
    /// Aligned 128-byte vector store to `[base + offset]`.
    VStore { src: VReg, base: SReg, offset: i64 },

    // ---- scalar ------------------------------------------------------------
    /// Load a 64-bit immediate.
    Movi { dst: SReg, imm: i64 },
    /// Scalar add.
    Add { dst: SReg, a: SReg, b: SReg },
    /// Scalar add-immediate (pointer bumps in loop bodies).
    AddI { dst: SReg, a: SReg, imm: i64 },
    /// Scalar subtract.
    Sub { dst: SReg, a: SReg, b: SReg },
    /// Scalar multiply (slower than add).
    Mul { dst: SReg, a: SReg, b: SReg },
    /// Scalar divide — deliberately expensive; the "other optimizations"
    /// pass replaces it with [`Insn::VlutB`]-based lookups.
    Div { dst: SReg, a: SReg, b: SReg },
    /// Scalar shift left by immediate.
    Shl { dst: SReg, a: SReg, imm: u8 },
    /// Scalar arithmetic shift right by immediate.
    Shr { dst: SReg, a: SReg, imm: u8 },
    /// Scalar 64-bit load from `[base + offset]`.
    Ld { dst: SReg, base: SReg, offset: i64 },
    /// Scalar 64-bit store to `[base + offset]`.
    St { src: SReg, base: SReg, offset: i64 },
    /// No operation (empty packet slot).
    Nop,
}

impl Insn {
    /// Latency of the instruction in cycles, end to end.
    ///
    /// Every instruction passes through the three VLIW pipeline stages
    /// (read, execute, write); simple instructions spend one cycle per
    /// stage (3 total) while multiplies, table lookups, and the scalar
    /// divider spend extra execute cycles. Because packets do not overlap
    /// (paper, footnote 5), a packet costs the maximum latency of its
    /// instructions plus any soft-dependency stalls.
    ///
    /// The widening multiplies carry deliberately spread latencies
    /// (8/9/10): all three process 128 MACs per issue, so on a
    /// multiply-bound kernel the per-MAC cost ratios are 1.00 : 1.125 :
    /// 1.25 — calibrated to the paper's Table II zero-padding column
    /// (1.00 : 1.10 : 1.23). `vmpa`'s extra cycle pays for its
    /// partial-sum combine, `vrmpy`'s two for the 32-bit reduce tree.
    pub fn latency(&self) -> u32 {
        match self {
            Insn::Vmpy { .. } | Insn::VmulUbH { .. } => 8,
            Insn::Vmpa { .. } | Insn::Vtmpy { .. } => 9,
            Insn::Vrmpy { .. } => 10,
            Insn::VlutB { .. } => 5,
            Insn::VGather { .. } => 1200,
            Insn::Mul { .. } => 5,
            Insn::Div { .. } => 16,
            _ => 3,
        }
    }

    /// The functional unit this instruction occupies.
    pub fn resource(&self) -> Unit {
        match self {
            Insn::Vmpy { .. }
            | Insn::Vmpa { .. }
            | Insn::Vrmpy { .. }
            | Insn::Vtmpy { .. }
            | Insn::VmulUbH { .. } => Unit::VMpy,
            Insn::VasrHB { .. } | Insn::VasrWH { .. } => Unit::VShift,
            Insn::VshuffH { .. }
            | Insn::VdealH { .. }
            | Insn::VshuffB { .. }
            | Insn::VdealB { .. }
            | Insn::VlutB { .. } => Unit::VPerm,
            Insn::Vadd { .. }
            | Insn::Vsub { .. }
            | Insn::Vmax { .. }
            | Insn::Vmin { .. }
            | Insn::VaddUbH { .. }
            | Insn::VaddHAcc { .. }
            | Insn::Vsplat { .. } => Unit::VAlu,
            Insn::VLoad { .. }
            | Insn::VGather { .. }
            | Insn::VStore { .. }
            | Insn::Ld { .. }
            | Insn::St { .. } => Unit::Mem,
            Insn::Movi { .. }
            | Insn::Add { .. }
            | Insn::AddI { .. }
            | Insn::Sub { .. }
            | Insn::Mul { .. }
            | Insn::Div { .. }
            | Insn::Shl { .. }
            | Insn::Shr { .. }
            | Insn::Nop => Unit::SAlu,
        }
    }

    /// Whether the instruction reads memory.
    pub fn is_load(&self) -> bool {
        matches!(
            self,
            Insn::VLoad { .. } | Insn::VGather { .. } | Insn::Ld { .. }
        )
    }

    /// Whether the instruction writes memory.
    pub fn is_store(&self) -> bool {
        matches!(self, Insn::VStore { .. } | Insn::St { .. })
    }

    /// Registers written by this instruction.
    pub fn defs(&self) -> RegSet {
        let none = RegSet::EMPTY;
        match *self {
            Insn::Vmpy { dst, .. }
            | Insn::Vtmpy { dst, .. }
            | Insn::VaddUbH { dst, .. }
            | Insn::VmulUbH { dst, .. }
            | Insn::VshuffH { dst, .. }
            | Insn::VdealH { dst, .. }
            | Insn::VshuffB { dst, .. }
            | Insn::VdealB { dst, .. } => none.with_pair(dst),
            Insn::Vmpa { dst, .. }
            | Insn::Vrmpy { dst, .. }
            | Insn::Vadd { dst, .. }
            | Insn::Vsub { dst, .. }
            | Insn::Vmax { dst, .. }
            | Insn::Vmin { dst, .. }
            | Insn::VaddHAcc { dst, .. }
            | Insn::Vsplat { dst, .. }
            | Insn::VasrHB { dst, .. }
            | Insn::VasrWH { dst, .. }
            | Insn::VlutB { dst, .. }
            | Insn::VLoad { dst, .. }
            | Insn::VGather { dst, .. } => none.with(dst),
            Insn::VStore { .. } | Insn::St { .. } | Insn::Nop => none,
            Insn::Movi { dst, .. }
            | Insn::Add { dst, .. }
            | Insn::AddI { dst, .. }
            | Insn::Sub { dst, .. }
            | Insn::Mul { dst, .. }
            | Insn::Div { dst, .. }
            | Insn::Shl { dst, .. }
            | Insn::Shr { dst, .. }
            | Insn::Ld { dst, .. } => none.with(dst),
        }
    }

    /// Registers read by this instruction (accumulating multiplies also
    /// read their destination).
    pub fn uses(&self) -> RegSet {
        let none = RegSet::EMPTY;
        match *self {
            Insn::Vmpy {
                dst,
                src,
                weights,
                acc,
            } => {
                let u = none.with(src).with(weights);
                if acc {
                    u.with_pair(dst)
                } else {
                    u
                }
            }
            Insn::Vtmpy {
                dst,
                src,
                weights,
                acc,
            } => {
                let u = none.with_pair(src).with(weights);
                if acc {
                    u.with_pair(dst)
                } else {
                    u
                }
            }
            Insn::Vmpa {
                dst,
                src,
                weights,
                acc,
            }
            | Insn::Vrmpy {
                dst,
                src,
                weights,
                acc,
            } => {
                let u = none.with(src).with(weights);
                if acc {
                    u.with(dst)
                } else {
                    u
                }
            }
            Insn::Vadd { a, b, .. }
            | Insn::Vsub { a, b, .. }
            | Insn::Vmax { a, b, .. }
            | Insn::Vmin { a, b, .. }
            | Insn::VaddUbH { a, b, .. }
            | Insn::VmulUbH { a, b, .. }
            | Insn::VasrWH { a, b, .. } => none.with(a).with(b),
            Insn::VaddHAcc { dst, src } => none.with(dst).with(src),
            Insn::Vsplat { src, .. } => none.with(src),
            Insn::VasrHB { src, .. }
            | Insn::VshuffH { src, .. }
            | Insn::VdealH { src, .. }
            | Insn::VshuffB { src, .. }
            | Insn::VdealB { src, .. } => none.with_pair(src),
            Insn::VlutB { idx, table, .. } => none.with(idx).with(table),
            Insn::VLoad { base, .. } | Insn::VGather { base, .. } | Insn::Ld { base, .. } => {
                none.with(base)
            }
            Insn::VStore { src, base, .. } => none.with(src).with(base),
            Insn::St { src, base, .. } => none.with(src).with(base),
            Insn::Movi { .. } | Insn::Nop => none,
            Insn::Add { a, b, .. }
            | Insn::Sub { a, b, .. }
            | Insn::Mul { a, b, .. }
            | Insn::Div { a, b, .. } => none.with(a).with(b),
            Insn::AddI { a, .. } | Insn::Shl { a, .. } | Insn::Shr { a, .. } => none.with(a),
        }
    }

    /// Bytes this instruction moves to/from memory (for bandwidth stats).
    pub fn mem_bytes(&self) -> u64 {
        match self {
            Insn::VLoad { .. } | Insn::VGather { .. } | Insn::VStore { .. } => {
                crate::reg::VBYTES as u64
            }
            Insn::Ld { .. } | Insn::St { .. } => 8,
            _ => 0,
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn eq(acc: bool) -> &'static str {
            if acc {
                "+="
            } else {
                "="
            }
        }
        match *self {
            Insn::Vmpy {
                dst,
                src,
                weights,
                acc,
            } => {
                write!(f, "{dst}.h {} vmpy({src}.ub, {weights}.b)", eq(acc))
            }
            Insn::Vmpa {
                dst,
                src,
                weights,
                acc,
            } => {
                write!(f, "{dst}.h {} vmpa({src}.ub, {weights}.b)", eq(acc))
            }
            Insn::Vrmpy {
                dst,
                src,
                weights,
                acc,
            } => {
                write!(f, "{dst}.w {} vrmpy({src}.ub, {weights}.b)", eq(acc))
            }
            Insn::Vtmpy {
                dst,
                src,
                weights,
                acc,
            } => {
                write!(f, "{dst}.h {} vtmpy({src}.ub, {weights}.b)", eq(acc))
            }
            Insn::Vadd { lane, dst, a, b } => write!(f, "{dst}.{lane} = vadd({a}, {b})"),
            Insn::Vsub { lane, dst, a, b } => write!(f, "{dst}.{lane} = vsub({a}, {b})"),
            Insn::Vmax { lane, dst, a, b } => write!(f, "{dst}.{lane} = vmax({a}, {b})"),
            Insn::Vmin { lane, dst, a, b } => write!(f, "{dst}.{lane} = vmin({a}, {b})"),
            Insn::VaddUbH { dst, a, b } => write!(f, "{dst}.h = vadd({a}.ub, {b}.ub)"),
            Insn::VmulUbH { dst, a, b } => write!(f, "{dst}.h = vmpy({a}.ub, {b}.ub)"),
            Insn::VaddHAcc { dst, src } => write!(f, "{dst}.h += {src}.h"),
            Insn::Vsplat { dst, src } => write!(f, "{dst} = vsplat({src})"),
            Insn::VasrHB { dst, src, shift } => {
                write!(f, "{dst}.ub = vasr({src}.h, #{shift}):sat")
            }
            Insn::VasrWH { dst, a, b, shift } => {
                write!(f, "{dst}.h = vasr({a}.w, {b}.w, #{shift}):sat")
            }
            Insn::VshuffH { dst, src } => write!(f, "{dst}.h = vshuff({src}.h)"),
            Insn::VdealH { dst, src } => write!(f, "{dst}.h = vdeal({src}.h)"),
            Insn::VshuffB { dst, src } => write!(f, "{dst}.b = vshuff({src}.b)"),
            Insn::VdealB { dst, src } => write!(f, "{dst}.b = vdeal({src}.b)"),
            Insn::VlutB { dst, idx, table } => write!(f, "{dst}.b = vlut({idx}.b, {table}.b)"),
            Insn::VLoad { dst, base, offset } => write!(f, "{dst} = vmem({base}+#{offset})"),
            Insn::VGather { dst, base, offset } => {
                write!(f, "{dst} = vgather({base}+#{offset})")
            }
            Insn::VStore { src, base, offset } => write!(f, "vmem({base}+#{offset}) = {src}"),
            Insn::Movi { dst, imm } => write!(f, "{dst} = #{imm}"),
            Insn::Add { dst, a, b } => write!(f, "{dst} = add({a}, {b})"),
            Insn::AddI { dst, a, imm } => write!(f, "{dst} = add({a}, #{imm})"),
            Insn::Sub { dst, a, b } => write!(f, "{dst} = sub({a}, {b})"),
            Insn::Mul { dst, a, b } => write!(f, "{dst} = mul({a}, {b})"),
            Insn::Div { dst, a, b } => write!(f, "{dst} = div({a}, {b})"),
            Insn::Shl { dst, a, imm } => write!(f, "{dst} = asl({a}, #{imm})"),
            Insn::Shr { dst, a, imm } => write!(f, "{dst} = asr({a}, #{imm})"),
            Insn::Ld { dst, base, offset } => write!(f, "{dst} = mem({base}+#{offset})"),
            Insn::St { src, base, offset } => write!(f, "mem({base}+#{offset}) = {src}"),
            Insn::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{SReg, VPair, VReg};

    fn v(i: u8) -> VReg {
        VReg::new(i)
    }
    fn w(i: u8) -> VPair {
        VPair::new(i)
    }
    fn r(i: u8) -> SReg {
        SReg::new(i)
    }

    #[test]
    fn acc_multiplies_read_their_destination() {
        let i = Insn::Vmpy {
            dst: w(0),
            src: v(2),
            weights: r(0),
            acc: true,
        };
        assert!(i.uses().contains(v(0)));
        assert!(i.uses().contains(v(1)));
        let i = Insn::Vmpy {
            dst: w(0),
            src: v(2),
            weights: r(0),
            acc: false,
        };
        assert!(!i.uses().contains(v(0)));
    }

    #[test]
    fn latency_spread() {
        assert_eq!(
            Insn::Div {
                dst: r(0),
                a: r(1),
                b: r(2)
            }
            .latency(),
            16
        );
        assert_eq!(
            Insn::Vrmpy {
                dst: v(0),
                src: v(1),
                weights: r(0),
                acc: false
            }
            .latency(),
            10
        );
        assert_eq!(
            Insn::Vmpy {
                dst: w(0),
                src: v(1),
                weights: r(0),
                acc: false
            }
            .latency(),
            8
        );
        assert_eq!(Insn::Nop.latency(), 3);
    }

    #[test]
    fn resources() {
        assert_eq!(
            Insn::VLoad {
                dst: v(0),
                base: r(0),
                offset: 0
            }
            .resource(),
            Unit::Mem
        );
        assert_eq!(
            Insn::VasrHB {
                dst: v(0),
                src: w(2),
                shift: 4
            }
            .resource(),
            Unit::VShift
        );
        assert_eq!(
            Insn::Vmpa {
                dst: v(0),
                src: v(2),
                weights: r(0),
                acc: false
            }
            .resource(),
            Unit::VMpy
        );
    }

    #[test]
    fn display_round_trips_registers() {
        let i = Insn::Vmpy {
            dst: w(4),
            src: v(7),
            weights: r(3),
            acc: true,
        };
        assert_eq!(i.to_string(), "w2.h += vmpy(v7.ub, r3.b)");
    }

    #[test]
    fn store_defs_empty_and_mem_bytes() {
        let s = Insn::VStore {
            src: v(1),
            base: r(0),
            offset: 128,
        };
        assert!(s.defs().is_empty());
        assert!(s.is_store());
        assert_eq!(s.mem_bytes(), 128);
    }
}
