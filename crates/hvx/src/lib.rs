//! # gcd2-hvx — simulated Hexagon-like mobile DSP
//!
//! The GCD2 paper (MICRO 2022) targets the Qualcomm Hexagon 698 DSP: a
//! VLIW machine with 1024-bit HVX vector extensions, disparate widening
//! multiply instructions (`vmpy`, `vmpa`, `vrmpy`, `vtmpy`), 4-slot
//! packets with per-unit resource constraints, and a pipeline that
//! tolerates *soft* dependencies inside a packet at a stall penalty.
//!
//! That hardware (and its toolchain) is unavailable here, so this crate
//! provides a faithful substitute: a functional **and** timing simulator
//! exposing exactly the architectural features the paper's algorithms
//! exploit. All higher layers — kernels, the global layout/instruction
//! optimizer, and the SDA VLIW packer — compile to and are measured on
//! this machine.
//!
//! ## Quick tour
//!
//! ```
//! use gcd2_hvx::{Block, Insn, Machine, PackedBlock, Packet, SReg, VReg};
//!
//! // Build a tiny block: load a vector, bump the pointer.
//! let mut block = Block::with_trip_count("copy", 2);
//! block.push(Insn::VLoad { dst: VReg::new(0), base: SReg::new(0), offset: 0 });
//! block.push(Insn::AddI { dst: SReg::new(0), a: SReg::new(0), imm: 128 });
//!
//! // Trivial schedule: one instruction per packet.
//! let packed = PackedBlock::sequential(&block);
//! assert_eq!(packed.body_cycles(), 6);
//!
//! // Or pack them together — the pointer bump is independent
//! // (load reads the old pointer; packet reads are parallel).
//! let packet = Packet::from_insns(block.insns.clone());
//! assert!(packet.is_legal(&gcd2_hvx::ResourceModel::default()));
//!
//! // Functional execution.
//! let mut m = Machine::new(1024);
//! m.run_block(&packed);
//! assert_eq!(m.sreg(SReg::new(0)), 256);
//! ```

pub mod asm;
pub mod deps;
pub mod energy;
pub mod insn;
pub mod machine;
pub mod packet;
pub mod program;
pub mod reg;
pub mod stats;

pub use asm::{parse_insn, parse_program, print_program, ParseAsmError};
pub use deps::{classify, DepKind, DepOperands, SOFT_RAW_PENALTY};
pub use energy::EnergyModel;
pub use insn::{Insn, Lane, Unit};
pub use machine::{simd, Machine, Trace, TraceEvent, VData};
pub use packet::{Packet, ResourceModel, SlotUse};
pub use program::{Block, Label, PackedBlock, Program};
pub use reg::{Reg, RegSet, SReg, VPair, VReg, HLANES, NUM_SREGS, NUM_VREGS, VBYTES, WLANES};
pub use stats::{ExecStats, CLOCK_HZ};

/// Packs four signed weight bytes into a scalar-register value, the form
/// consumed by the multiply instructions' `weights` operand.
///
/// ```
/// let w = gcd2_hvx::pack_weights([1, -2, 3, -4]);
/// assert_eq!(w & 0xFF, 0x01);
/// assert_eq!((w >> 8) & 0xFF, 0xFE);
/// ```
pub fn pack_weights(bytes: [i8; 4]) -> i64 {
    i64::from_le_bytes([
        bytes[0] as u8,
        bytes[1] as u8,
        bytes[2] as u8,
        bytes[3] as u8,
        0,
        0,
        0,
        0,
    ])
}

#[cfg(test)]
mod tests {
    #[test]
    fn pack_weights_layout() {
        let w = super::pack_weights([0x11, 0x22, 0x33, 0x44]);
        assert_eq!(w, 0x4433_2211);
    }
}
