//! Functional simulator for the HVX-like DSP.
//!
//! [`Machine`] executes [`crate::program::Program`]s against real register
//! and memory state, so kernel numerics can be validated against scalar
//! reference implementations. Timing is *not* modeled here instruction by
//! instruction; it is derived statically by [`crate::program::Program::stats`]
//! (packets do not overlap, so static costing is exact).
//!
//! # Packet semantics
//!
//! All instructions in a packet conceptually read the register file in
//! parallel at packet start. Two refinements model the paper's hard/soft
//! distinction:
//!
//! * A consumer with a **soft** dependency on an earlier instruction in
//!   the same packet reads the *forwarded* (new) value — the hardware
//!   guarantees correctness at a stall cost.
//! * A consumer with a **hard** dependency reads the *stale* pre-packet
//!   value. A correct packer never creates this situation; the simulator
//!   supports it so tests can demonstrate that violating hard
//!   dependencies corrupts results.
#![allow(clippy::needless_range_loop)]

use crate::deps::classify;
use crate::insn::{Insn, Lane};
use crate::packet::{Packet, ResourceModel};
use crate::program::{PackedBlock, Program};
use crate::reg::{RegSet, SReg, VPair, VReg, NUM_SREGS, NUM_VREGS, VBYTES};
use std::fmt;

/// One vector register's contents.
pub type VData = [u8; VBYTES];

/// One recorded packet execution (see [`Machine::run_traced`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Label of the block the packet belongs to.
    pub block: String,
    /// Which execution of the block (0-based trip index).
    pub trip: u64,
    /// Packet index within the block.
    pub packet: usize,
    /// Cycle counter after this packet commits.
    pub cycle: u64,
    /// Rendered instructions of the packet.
    pub insns: Vec<String>,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>8}] {}#{} trip {}: {}",
            self.cycle,
            self.block,
            self.packet,
            self.trip,
            self.insns.join(" ; ")
        )
    }
}

/// An execution trace: the committed packets in order, with running
/// cycle counts — the simulator's analogue of a profiler timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in commit order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Total cycles of the traced run.
    pub fn cycles(&self) -> u64 {
        self.events.last().map_or(0, |e| e.cycle)
    }
}

/// Lane accessors shared by the simulator, the kernels, and tests.
pub mod simd {
    use super::VData;

    /// Reads the signed 16-bit lane `k` (64 lanes).
    pub fn get_h(v: &VData, k: usize) -> i16 {
        i16::from_le_bytes([v[2 * k], v[2 * k + 1]])
    }

    /// Writes the signed 16-bit lane `k`.
    pub fn set_h(v: &mut VData, k: usize, x: i16) {
        v[2 * k..2 * k + 2].copy_from_slice(&x.to_le_bytes());
    }

    /// Reads the signed 32-bit lane `k` (32 lanes).
    pub fn get_w(v: &VData, k: usize) -> i32 {
        i32::from_le_bytes([v[4 * k], v[4 * k + 1], v[4 * k + 2], v[4 * k + 3]])
    }

    /// Writes the signed 32-bit lane `k`.
    pub fn set_w(v: &mut VData, k: usize, x: i32) {
        v[4 * k..4 * k + 4].copy_from_slice(&x.to_le_bytes());
    }

    /// Saturates a 16-bit value shifted right by `s` into an unsigned byte.
    pub fn satub(x: i16, s: u8) -> u8 {
        (x >> s).clamp(0, 255) as u8
    }

    /// Saturates a 32-bit value shifted right by `s` into a signed 16-bit.
    pub fn sath(x: i32, s: u8) -> i16 {
        (x >> s).clamp(i16::MIN as i32, i16::MAX as i32) as i16
    }
}

use simd::{get_h, get_w, sath, satub, set_h, set_w};

/// The architectural state of the simulated DSP plus a flat byte memory.
#[derive(Debug, Clone)]
pub struct Machine {
    vregs: Vec<VData>,
    sregs: [i64; NUM_SREGS as usize],
    /// Flat byte-addressable memory. Kernels receive base addresses into
    /// this buffer via scalar registers.
    pub mem: Vec<u8>,
}

impl Machine {
    /// Creates a machine with `mem_bytes` of zeroed memory.
    pub fn new(mem_bytes: usize) -> Self {
        Machine {
            vregs: vec![[0u8; VBYTES]; NUM_VREGS as usize],
            sregs: [0i64; NUM_SREGS as usize],
            mem: vec![0u8; mem_bytes],
        }
    }

    /// Reads a scalar register.
    pub fn sreg(&self, r: SReg) -> i64 {
        self.sregs[r.index() as usize]
    }

    /// Writes a scalar register.
    pub fn set_sreg(&mut self, r: SReg, x: i64) {
        self.sregs[r.index() as usize] = x;
    }

    /// Reads a vector register.
    pub fn vreg(&self, r: VReg) -> &VData {
        &self.vregs[r.index() as usize]
    }

    /// Writes a vector register.
    pub fn set_vreg(&mut self, r: VReg, x: VData) {
        self.vregs[r.index() as usize] = x;
    }

    /// Executes a whole program functionally.
    ///
    /// # Panics
    /// Panics on out-of-bounds or misaligned memory accesses (kernel bugs).
    pub fn run(&mut self, program: &Program) {
        for block in &program.blocks {
            self.run_block(block);
        }
    }

    /// Executes a whole program functionally while recording a
    /// per-packet [`Trace`] (for debugging small programs; the trace
    /// grows with *executed* packets, so avoid it on large trip counts).
    pub fn run_traced(&mut self, program: &Program) -> Trace {
        let mut trace = Trace::default();
        let mut cycle = 0u64;
        for block in &program.blocks {
            for trip in 0..block.trip_count {
                for (pi, packet) in block.packets.iter().enumerate() {
                    self.run_packet(packet);
                    cycle += packet.cycles() as u64;
                    trace.events.push(TraceEvent {
                        block: block.label.to_string(),
                        trip,
                        packet: pi,
                        cycle,
                        insns: packet.insns().iter().map(|i| i.to_string()).collect(),
                    });
                }
            }
        }
        trace
    }

    /// Executes one packed block `trip_count` times.
    pub fn run_block(&mut self, block: &PackedBlock) {
        for _ in 0..block.trip_count {
            for packet in block.packets.iter() {
                self.run_packet(packet);
            }
        }
    }

    /// Executes one packet under the parallel-read semantics described in
    /// the module docs.
    pub fn run_packet(&mut self, packet: &Packet) {
        let insns = packet.insns();
        // Registers each consumer must read stale (hard intra-packet
        // dependency on an earlier instruction in the packet).
        let mut stale = [RegSet::EMPTY; ResourceModel::MAX_SLOTS];
        for (j, insn) in insns.iter().enumerate() {
            for prod in &insns[..j] {
                if classify(prod, insn).is_hard() {
                    stale[j] |= prod.defs() & insn.uses();
                }
            }
        }
        // Only a packet with a stale read needs the pre-packet registers.
        let snapshot_v = if stale.iter().all(|s| s.is_empty()) {
            Vec::new()
        } else {
            self.vregs.clone()
        };
        let snapshot_s = self.sregs;
        for (insn, &stale) in insns.iter().zip(&stale) {
            self.exec_insn(insn, stale, &snapshot_v, &snapshot_s);
        }
    }

    fn read_v(&self, r: VReg, stale: RegSet, snapshot_v: &[VData]) -> VData {
        if stale.contains(r) {
            snapshot_v[r.index() as usize]
        } else {
            self.vregs[r.index() as usize]
        }
    }

    fn read_pair(&self, w: VPair, stale: RegSet, snapshot_v: &[VData]) -> (VData, VData) {
        (
            self.read_v(w.lo(), stale, snapshot_v),
            self.read_v(w.hi(), stale, snapshot_v),
        )
    }

    fn read_s(&self, r: SReg, stale: RegSet, snapshot_s: &[i64]) -> i64 {
        if stale.contains(r) {
            snapshot_s[r.index() as usize]
        } else {
            self.sregs[r.index() as usize]
        }
    }

    fn write_v(&mut self, r: VReg, x: VData) {
        self.vregs[r.index() as usize] = x;
    }

    fn write_pair(&mut self, w: VPair, lo: VData, hi: VData) {
        self.write_v(w.lo(), lo);
        self.write_v(w.hi(), hi);
    }

    /// Weight byte `j` of a scalar register, sign-extended.
    fn weight_byte(s: i64, j: usize) -> i32 {
        ((s >> (8 * j)) & 0xFF) as u8 as i8 as i32
    }

    fn exec_insn(&mut self, insn: &Insn, stale: RegSet, snapshot_v: &[VData], snapshot_s: &[i64]) {
        match *insn {
            Insn::Vmpy {
                dst,
                src,
                weights,
                acc,
            } => {
                let v = self.read_v(src, stale, snapshot_v);
                let s = self.read_s(weights, stale, snapshot_s);
                let (mut lo, mut hi) = if acc {
                    self.read_pair(dst, stale, snapshot_v)
                } else {
                    ([0u8; VBYTES], [0u8; VBYTES])
                };
                for i in 0..VBYTES {
                    let p = (v[i] as i32) * Self::weight_byte(s, i % 4);
                    let half = if i % 2 == 0 { &mut lo } else { &mut hi };
                    let k = i / 2;
                    let cur = if acc { get_h(half, k) } else { 0 };
                    set_h(half, k, cur.wrapping_add(p as i16));
                }
                self.write_pair(dst, lo, hi);
            }
            Insn::Vmpa {
                dst,
                src,
                weights,
                acc,
            } => {
                let v = self.read_v(src, stale, snapshot_v);
                let s = self.read_s(weights, stale, snapshot_s);
                let mut out = if acc {
                    self.read_v(dst, stale, snapshot_v)
                } else {
                    [0u8; VBYTES]
                };
                for i in 0..VBYTES / 2 {
                    let (w0, w1) = if i % 2 == 0 {
                        (Self::weight_byte(s, 0), Self::weight_byte(s, 1))
                    } else {
                        (Self::weight_byte(s, 2), Self::weight_byte(s, 3))
                    };
                    let p = (v[2 * i] as i32) * w0 + (v[2 * i + 1] as i32) * w1;
                    let cur = if acc { get_h(&out, i) } else { 0 };
                    set_h(&mut out, i, cur.wrapping_add(p as i16));
                }
                self.write_v(dst, out);
            }
            Insn::Vrmpy {
                dst,
                src,
                weights,
                acc,
            } => {
                let v = self.read_v(src, stale, snapshot_v);
                let s = self.read_s(weights, stale, snapshot_s);
                let mut out = if acc {
                    self.read_v(dst, stale, snapshot_v)
                } else {
                    [0u8; VBYTES]
                };
                for j in 0..VBYTES / 4 {
                    let mut dot = 0i32;
                    for t in 0..4 {
                        dot += (v[4 * j + t] as i32) * Self::weight_byte(s, t);
                    }
                    let cur = if acc { get_w(&out, j) } else { 0 };
                    set_w(&mut out, j, cur.wrapping_add(dot));
                }
                self.write_v(dst, out);
            }
            Insn::Vtmpy {
                dst,
                src,
                weights,
                acc,
            } => {
                let (slo, shi) = self.read_pair(src, stale, snapshot_v);
                let s = self.read_s(weights, stale, snapshot_s);
                let (mut lo, mut hi) = if acc {
                    self.read_pair(dst, stale, snapshot_v)
                } else {
                    ([0u8; VBYTES], [0u8; VBYTES])
                };
                let seq = |j: usize| -> i32 {
                    if j < VBYTES {
                        slo[j] as i32
                    } else if j < 2 * VBYTES {
                        shi[j - VBYTES] as i32
                    } else {
                        0
                    }
                };
                for i in 0..VBYTES {
                    let p = seq(i) * Self::weight_byte(s, 0)
                        + seq(i + 1) * Self::weight_byte(s, 1)
                        + seq(i + 2) * Self::weight_byte(s, 2);
                    // Sequential layout: first 64 lanes in lo, next 64 in hi.
                    let (half, k) = if i < 64 {
                        (&mut lo, i)
                    } else {
                        (&mut hi, i - 64)
                    };
                    let cur = if acc { get_h(half, k) } else { 0 };
                    set_h(half, k, cur.wrapping_add(p as i16));
                }
                self.write_pair(dst, lo, hi);
            }
            Insn::Vadd { lane, dst, a, b } => {
                let x = self.read_v(a, stale, snapshot_v);
                let y = self.read_v(b, stale, snapshot_v);
                self.write_v(dst, lanewise(lane, &x, &y, |a, b| a.wrapping_add(b)));
            }
            Insn::Vsub { lane, dst, a, b } => {
                let x = self.read_v(a, stale, snapshot_v);
                let y = self.read_v(b, stale, snapshot_v);
                self.write_v(dst, lanewise(lane, &x, &y, |a, b| a.wrapping_sub(b)));
            }
            Insn::Vmax { lane, dst, a, b } => {
                let x = self.read_v(a, stale, snapshot_v);
                let y = self.read_v(b, stale, snapshot_v);
                self.write_v(dst, lanewise(lane, &x, &y, i64::max));
            }
            Insn::Vmin { lane, dst, a, b } => {
                let x = self.read_v(a, stale, snapshot_v);
                let y = self.read_v(b, stale, snapshot_v);
                self.write_v(dst, lanewise(lane, &x, &y, i64::min));
            }
            Insn::VmulUbH { dst, a, b } => {
                let x = self.read_v(a, stale, snapshot_v);
                let y = self.read_v(b, stale, snapshot_v);
                let (mut lo, mut hi) = ([0u8; VBYTES], [0u8; VBYTES]);
                for i in 0..VBYTES {
                    let p = (x[i] as i32 * y[i] as i32) as i16;
                    let half = if i % 2 == 0 { &mut lo } else { &mut hi };
                    set_h(half, i / 2, p);
                }
                self.write_pair(dst, lo, hi);
            }
            Insn::VaddUbH { dst, a, b } => {
                let x = self.read_v(a, stale, snapshot_v);
                let y = self.read_v(b, stale, snapshot_v);
                let mut lo = [0u8; VBYTES];
                let mut hi = [0u8; VBYTES];
                for i in 0..VBYTES {
                    let sum = x[i] as i16 + y[i] as i16;
                    let (half, k) = if i < 64 {
                        (&mut lo, i)
                    } else {
                        (&mut hi, i - 64)
                    };
                    set_h(half, k, sum);
                }
                self.write_pair(dst, lo, hi);
            }
            Insn::VaddHAcc { dst, src } => {
                let x = self.read_v(src, stale, snapshot_v);
                let mut d = self.read_v(dst, stale, snapshot_v);
                for k in 0..VBYTES / 2 {
                    let sum = get_h(&d, k).wrapping_add(get_h(&x, k));
                    set_h(&mut d, k, sum);
                }
                self.write_v(dst, d);
            }
            Insn::Vsplat { dst, src } => {
                let s = self.read_s(src, stale, snapshot_s) as u32;
                let mut out = [0u8; VBYTES];
                for k in 0..VBYTES / 4 {
                    out[4 * k..4 * k + 4].copy_from_slice(&s.to_le_bytes());
                }
                self.write_v(dst, out);
            }
            Insn::VasrHB { dst, src, shift } => {
                let (lo, hi) = self.read_pair(src, stale, snapshot_v);
                let mut out = [0u8; VBYTES];
                for k in 0..VBYTES / 2 {
                    out[2 * k] = satub(get_h(&lo, k), shift);
                    out[2 * k + 1] = satub(get_h(&hi, k), shift);
                }
                self.write_v(dst, out);
            }
            Insn::VasrWH { dst, a, b, shift } => {
                let x = self.read_v(a, stale, snapshot_v);
                let y = self.read_v(b, stale, snapshot_v);
                let mut out = [0u8; VBYTES];
                for k in 0..VBYTES / 4 {
                    set_h(&mut out, 2 * k, sath(get_w(&x, k), shift));
                    set_h(&mut out, 2 * k + 1, sath(get_w(&y, k), shift));
                }
                self.write_v(dst, out);
            }
            Insn::VshuffH { dst, src } => {
                let (slo, shi) = self.read_pair(src, stale, snapshot_v);
                let (mut lo, mut hi) = ([0u8; VBYTES], [0u8; VBYTES]);
                for k in 0..VBYTES / 2 {
                    // Sequential lane 2k = slo.h[k], 2k+1 = shi.h[k].
                    let (half, kk) = if 2 * k < 64 {
                        (&mut lo, 2 * k)
                    } else {
                        (&mut hi, 2 * k - 64)
                    };
                    set_h(half, kk, get_h(&slo, k));
                    let (half, kk) = if 2 * k + 1 < 64 {
                        (&mut lo, 2 * k + 1)
                    } else {
                        (&mut hi, 2 * k + 1 - 64)
                    };
                    set_h(half, kk, get_h(&shi, k));
                }
                self.write_pair(dst, lo, hi);
            }
            Insn::VdealH { dst, src } => {
                let (slo, shi) = self.read_pair(src, stale, snapshot_v);
                let (mut lo, mut hi) = ([0u8; VBYTES], [0u8; VBYTES]);
                let seq = |i: usize| {
                    if i < 64 {
                        get_h(&slo, i)
                    } else {
                        get_h(&shi, i - 64)
                    }
                };
                for k in 0..VBYTES / 2 {
                    set_h(&mut lo, k, seq(2 * k));
                    set_h(&mut hi, k, seq(2 * k + 1));
                }
                self.write_pair(dst, lo, hi);
            }
            Insn::VshuffB { dst, src } => {
                let (slo, shi) = self.read_pair(src, stale, snapshot_v);
                let (mut lo, mut hi) = ([0u8; VBYTES], [0u8; VBYTES]);
                for k in 0..VBYTES {
                    let write = |buf_lo: &mut VData, buf_hi: &mut VData, j: usize, x: u8| {
                        if j < VBYTES {
                            buf_lo[j] = x;
                        } else {
                            buf_hi[j - VBYTES] = x;
                        }
                    };
                    write(&mut lo, &mut hi, 2 * k, slo[k]);
                    write(&mut lo, &mut hi, 2 * k + 1, shi[k]);
                }
                self.write_pair(dst, lo, hi);
            }
            Insn::VdealB { dst, src } => {
                let (slo, shi) = self.read_pair(src, stale, snapshot_v);
                let (mut lo, mut hi) = ([0u8; VBYTES], [0u8; VBYTES]);
                let seq = |j: usize| if j < VBYTES { slo[j] } else { shi[j - VBYTES] };
                for k in 0..VBYTES {
                    lo[k] = seq(2 * k);
                    hi[k] = seq(2 * k + 1);
                }
                self.write_pair(dst, lo, hi);
            }
            Insn::VlutB { dst, idx, table } => {
                let i = self.read_v(idx, stale, snapshot_v);
                let t = self.read_v(table, stale, snapshot_v);
                let mut out = [0u8; VBYTES];
                for k in 0..VBYTES {
                    out[k] = t[(i[k] as usize) & (VBYTES - 1)];
                }
                self.write_v(dst, out);
            }
            Insn::VGather { dst, base, offset } | Insn::VLoad { dst, base, offset } => {
                let addr = (self.read_s(base, stale, snapshot_s) + offset) as usize;
                let mut out = [0u8; VBYTES];
                out.copy_from_slice(&self.mem[addr..addr + VBYTES]);
                self.write_v(dst, out);
            }
            Insn::VStore { src, base, offset } => {
                let addr = (self.read_s(base, stale, snapshot_s) + offset) as usize;
                let v = self.read_v(src, stale, snapshot_v);
                self.mem[addr..addr + VBYTES].copy_from_slice(&v);
            }
            Insn::Movi { dst, imm } => self.set_sreg(dst, imm),
            Insn::Add { dst, a, b } => {
                let x = self.read_s(a, stale, snapshot_s);
                let y = self.read_s(b, stale, snapshot_s);
                self.set_sreg(dst, x.wrapping_add(y));
            }
            Insn::AddI { dst, a, imm } => {
                let x = self.read_s(a, stale, snapshot_s);
                self.set_sreg(dst, x.wrapping_add(imm));
            }
            Insn::Sub { dst, a, b } => {
                let x = self.read_s(a, stale, snapshot_s);
                let y = self.read_s(b, stale, snapshot_s);
                self.set_sreg(dst, x.wrapping_sub(y));
            }
            Insn::Mul { dst, a, b } => {
                let x = self.read_s(a, stale, snapshot_s);
                let y = self.read_s(b, stale, snapshot_s);
                self.set_sreg(dst, x.wrapping_mul(y));
            }
            Insn::Div { dst, a, b } => {
                let x = self.read_s(a, stale, snapshot_s);
                let y = self.read_s(b, stale, snapshot_s);
                self.set_sreg(dst, if y == 0 { 0 } else { x.wrapping_div(y) });
            }
            Insn::Shl { dst, a, imm } => {
                let x = self.read_s(a, stale, snapshot_s);
                self.set_sreg(dst, x.wrapping_shl(imm as u32));
            }
            Insn::Shr { dst, a, imm } => {
                let x = self.read_s(a, stale, snapshot_s);
                self.set_sreg(dst, x.wrapping_shr(imm as u32));
            }
            Insn::Ld { dst, base, offset } => {
                let addr = (self.read_s(base, stale, snapshot_s) + offset) as usize;
                let mut b = [0u8; 8];
                b.copy_from_slice(&self.mem[addr..addr + 8]);
                self.set_sreg(dst, i64::from_le_bytes(b));
            }
            Insn::St { src, base, offset } => {
                let addr = (self.read_s(base, stale, snapshot_s) + offset) as usize;
                let x = self.read_s(src, stale, snapshot_s);
                self.mem[addr..addr + 8].copy_from_slice(&x.to_le_bytes());
            }
            Insn::Nop => {}
        }
    }
}

fn lanewise(lane: Lane, a: &VData, b: &VData, f: impl Fn(i64, i64) -> i64) -> VData {
    let mut out = [0u8; VBYTES];
    match lane {
        Lane::B => {
            for i in 0..VBYTES {
                out[i] = f(a[i] as i8 as i64, b[i] as i8 as i64) as i8 as u8;
            }
        }
        Lane::H => {
            for k in 0..VBYTES / 2 {
                set_h(
                    &mut out,
                    k,
                    f(get_h(a, k) as i64, get_h(b, k) as i64) as i16,
                );
            }
        }
        Lane::W => {
            for k in 0..VBYTES / 4 {
                set_w(
                    &mut out,
                    k,
                    f(get_w(a, k) as i64, get_w(b, k) as i64) as i32,
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;
    use crate::packet::Packet;
    use crate::program::{Block, PackedBlock};

    fn v(i: u8) -> VReg {
        VReg::new(i)
    }
    fn w(i: u8) -> VPair {
        VPair::new(i)
    }
    fn r(i: u8) -> SReg {
        SReg::new(i)
    }

    /// Packs 4 weight bytes into a scalar value.
    fn weights(b: [i8; 4]) -> i64 {
        i64::from_le_bytes([b[0] as u8, b[1] as u8, b[2] as u8, b[3] as u8, 0, 0, 0, 0])
    }

    #[test]
    fn vmpy_even_odd_split() {
        let mut m = Machine::new(0);
        let mut src = [0u8; VBYTES];
        for (i, x) in src.iter_mut().enumerate() {
            *x = (i % 16) as u8;
        }
        m.set_vreg(v(2), src);
        m.set_sreg(r(0), weights([2, 3, -1, 5]));
        m.run_packet(&Packet::from_insns(vec![Insn::Vmpy {
            dst: w(4),
            src: v(2),
            weights: r(0),
            acc: false,
        }]));
        for i in 0..VBYTES {
            let wgt = [2i32, 3, -1, 5][i % 4];
            let expect = (src[i] as i32 * wgt) as i16;
            let got = if i % 2 == 0 {
                simd::get_h(m.vreg(v(4)), i / 2)
            } else {
                simd::get_h(m.vreg(v(5)), i / 2)
            };
            assert_eq!(got, expect, "lane {i}");
        }
    }

    #[test]
    fn vrmpy_dot_groups() {
        let mut m = Machine::new(0);
        let mut src = [0u8; VBYTES];
        for (i, x) in src.iter_mut().enumerate() {
            *x = (i * 3 % 101) as u8;
        }
        m.set_vreg(v(1), src);
        m.set_sreg(r(0), weights([1, -2, 3, -4]));
        m.run_packet(&Packet::from_insns(vec![Insn::Vrmpy {
            dst: v(8),
            src: v(1),
            weights: r(0),
            acc: false,
        }]));
        for j in 0..VBYTES / 4 {
            let wgt = [1i32, -2, 3, -4];
            let expect: i32 = (0..4).map(|t| src[4 * j + t] as i32 * wgt[t]).sum();
            assert_eq!(simd::get_w(m.vreg(v(8)), j), expect, "group {j}");
        }
    }

    #[test]
    fn vrmpy_accumulates() {
        let mut m = Machine::new(0);
        let src = [1u8; VBYTES];
        m.set_vreg(v(1), src);
        m.set_sreg(r(0), weights([1, 1, 1, 1]));
        let i = Insn::Vrmpy {
            dst: v(8),
            src: v(1),
            weights: r(0),
            acc: true,
        };
        m.run_packet(&Packet::from_insns(vec![i.clone()]));
        m.run_packet(&Packet::from_insns(vec![i]));
        assert_eq!(simd::get_w(m.vreg(v(8)), 0), 8);
    }

    #[test]
    fn vasr_hb_reinterleaves() {
        let mut m = Machine::new(0);
        let mut lo = [0u8; VBYTES];
        let mut hi = [0u8; VBYTES];
        for k in 0..64 {
            simd::set_h(&mut lo, k, (4 * (2 * k)) as i16);
            simd::set_h(&mut hi, k, (4 * (2 * k + 1)) as i16);
        }
        m.set_vreg(v(2), lo);
        m.set_vreg(v(3), hi);
        m.run_packet(&Packet::from_insns(vec![Insn::VasrHB {
            dst: v(0),
            src: w(2),
            shift: 2,
        }]));
        for i in 0..VBYTES {
            assert_eq!(m.vreg(v(0))[i], i as u8, "byte {i}");
        }
    }

    #[test]
    fn shuffle_b_round_trip() {
        let mut m = Machine::new(0);
        let mut lo = [0u8; VBYTES];
        let mut hi = [0u8; VBYTES];
        for i in 0..VBYTES {
            lo[i] = i as u8;
            hi[i] = (i + 128) as u8;
        }
        m.set_vreg(v(2), lo);
        m.set_vreg(v(3), hi);
        m.run_packet(&Packet::from_insns(vec![Insn::VshuffB {
            dst: w(4),
            src: w(2),
        }]));
        m.run_packet(&Packet::from_insns(vec![Insn::VdealB {
            dst: w(6),
            src: w(4),
        }]));
        assert_eq!(m.vreg(v(6)), &lo);
        assert_eq!(m.vreg(v(7)), &hi);
    }

    #[test]
    fn shuffle_h_round_trip() {
        let mut m = Machine::new(0);
        let mut lo = [0u8; VBYTES];
        let mut hi = [0u8; VBYTES];
        for k in 0..64 {
            simd::set_h(&mut lo, k, k as i16);
            simd::set_h(&mut hi, k, (k + 64) as i16);
        }
        m.set_vreg(v(2), lo);
        m.set_vreg(v(3), hi);
        m.run_packet(&Packet::from_insns(vec![Insn::VshuffH {
            dst: w(4),
            src: w(2),
        }]));
        m.run_packet(&Packet::from_insns(vec![Insn::VdealH {
            dst: w(6),
            src: w(4),
        }]));
        assert_eq!(m.vreg(v(6)), &lo);
        assert_eq!(m.vreg(v(7)), &hi);
    }

    #[test]
    fn soft_forwarding_within_packet() {
        // load -> add in one packet: the add sees the loaded value.
        let mut m = Machine::new(64);
        m.mem[..8].copy_from_slice(&42i64.to_le_bytes());
        m.set_sreg(r(0), 0); // base
        m.set_sreg(r(2), 100);
        m.run_packet(&Packet::from_insns(vec![
            Insn::Ld {
                dst: r(1),
                base: r(0),
                offset: 0,
            },
            Insn::Add {
                dst: r(3),
                a: r(2),
                b: r(1),
            },
        ]));
        assert_eq!(m.sreg(r(3)), 142);
    }

    #[test]
    fn hard_violation_reads_stale_value() {
        // vmpy -> vasr illegally packed together: vasr sees the stale pair.
        let mut m = Machine::new(0);
        m.set_vreg(v(2), [3u8; VBYTES]);
        m.set_sreg(r(0), weights([1, 1, 1, 1]));
        let illegal = Packet::from_insns(vec![
            Insn::Vmpy {
                dst: w(4),
                src: v(2),
                weights: r(0),
                acc: false,
            },
            Insn::VasrHB {
                dst: v(0),
                src: w(4),
                shift: 0,
            },
        ]);
        m.run_packet(&illegal);
        // Stale w(4) was zero, so the narrowed result is zero, not 3.
        assert_eq!(m.vreg(v(0))[0], 0);
    }

    #[test]
    fn loop_with_pointer_bump() {
        // Copy 4 vectors using a 1-vector loop body.
        let mut m = Machine::new(VBYTES * 8);
        for i in 0..VBYTES * 4 {
            m.mem[i] = (i % 251) as u8;
        }
        m.set_sreg(r(0), 0); // src
        m.set_sreg(r(1), (VBYTES * 4) as i64); // dst
        let mut b = Block::with_trip_count("copy", 4);
        b.push(Insn::VLoad {
            dst: v(0),
            base: r(0),
            offset: 0,
        });
        b.push(Insn::VStore {
            src: v(0),
            base: r(1),
            offset: 0,
        });
        b.push(Insn::AddI {
            dst: r(0),
            a: r(0),
            imm: VBYTES as i64,
        });
        b.push(Insn::AddI {
            dst: r(1),
            a: r(1),
            imm: VBYTES as i64,
        });
        m.run_block(&PackedBlock::sequential(&b));
        for i in 0..VBYTES * 4 {
            assert_eq!(m.mem[VBYTES * 4 + i], (i % 251) as u8);
        }
    }

    #[test]
    fn vtmpy_three_tap() {
        let mut m = Machine::new(0);
        let mut lo = [0u8; VBYTES];
        let hi = [7u8; VBYTES];
        for i in 0..VBYTES {
            lo[i] = i as u8;
        }
        m.set_vreg(v(2), lo);
        m.set_vreg(v(3), hi);
        m.set_sreg(r(0), weights([1, 2, 1, 0]));
        m.run_packet(&Packet::from_insns(vec![Insn::Vtmpy {
            dst: w(4),
            src: w(2),
            weights: r(0),
            acc: false,
        }]));
        // p[10] = 10*1 + 11*2 + 12*1 = 44, sequential lane 10 lives in lo.
        assert_eq!(simd::get_h(m.vreg(v(4)), 10), 44);
        // p[126] crosses into hi: 126 + 2*127 + 7 = 387; lane 126 is hi[62].
        assert_eq!(simd::get_h(m.vreg(v(5)), 62), 387);
    }
}
