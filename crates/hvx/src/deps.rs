//! Hard/soft dependency classification between instructions.
//!
//! The paper's key micro-architectural observation (Section IV-C) is that
//! dependencies between instructions fall into two classes with respect to
//! placing them in the *same* VLIW packet:
//!
//! * **hard** — packing them together likely produces incorrect results
//!   (the consumer would read a stale register value under the packet's
//!   parallel-read semantics);
//! * **soft** — the hardware guarantees correct results via forwarding,
//!   but execution is delayed by a stall penalty (e.g. a load feeding a
//!   consumer, or a scalar addition feeding its consumer — the paper's
//!   Figure 4 examples).
//!
//! Which dependencies are soft is a property of the micro-architecture;
//! this module encodes the model of our simulated DSP:
//!
//! | producer → consumer (RAW) | class |
//! |---|---|
//! | load → any consumer of the loaded register | soft (+1 cycle) |
//! | scalar ALU → any consumer | soft (+1 cycle) |
//! | any producer → store of the produced value | soft (+1 cycle) |
//! | vector op → vector/shift/permute consumer | hard |
//!
//! WAR dependencies are soft with zero penalty (parallel reads make them
//! safe), WAW and memory (store↔memory-op) dependencies are hard. This
//! matches the paper's footnote 3: soft dependencies can only be RAW or
//! WAR.

use crate::insn::{Insn, Unit};
use crate::reg::RegSet;

/// The dependence class between two instructions, from the point of view
/// of placing them in the same VLIW packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// No dependence; the instructions may be packed freely.
    None,
    /// Packing is legal but costs `penalty` stall cycles.
    Soft {
        /// Stall cycles incurred when both ends share a packet.
        penalty: u32,
    },
    /// Packing would produce incorrect results.
    Hard,
}

impl DepKind {
    /// Returns the stronger of two classifications
    /// (`Hard > Soft{bigger} > Soft{smaller} > None`).
    pub fn max(self, other: DepKind) -> DepKind {
        use DepKind::*;
        match (self, other) {
            (Hard, _) | (_, Hard) => Hard,
            (Soft { penalty: a }, Soft { penalty: b }) => Soft { penalty: a.max(b) },
            (Soft { penalty }, None) | (None, Soft { penalty }) => Soft { penalty },
            (None, None) => None,
        }
    }

    /// True for [`DepKind::Soft`].
    pub fn is_soft(self) -> bool {
        matches!(self, DepKind::Soft { .. })
    }

    /// True for [`DepKind::Hard`].
    pub fn is_hard(self) -> bool {
        self == DepKind::Hard
    }

    /// The stall penalty (zero unless soft).
    pub fn penalty(self) -> u32 {
        match self {
            DepKind::Soft { penalty } => penalty,
            _ => 0,
        }
    }
}

/// Stall cycles added per forwarded (soft RAW) hop inside one packet.
pub const SOFT_RAW_PENALTY: u32 = 1;

/// Classifies the dependence from `producer` (earlier in program order) to
/// `consumer` (later).
///
/// The result is the strongest class over all register and memory
/// conflicts between the two instructions. [`DepKind::None`] means the two
/// instructions are entirely independent.
pub fn classify(producer: &Insn, consumer: &Insn) -> DepKind {
    DepOperands::of(producer).classify(&DepOperands::of(consumer))
}

/// Everything [`classify`] reads of one instruction: its register sets
/// and its memory and forwarding behaviour. A block's packer derives it
/// once per instruction and classifies every pair from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepOperands {
    defs: RegSet,
    uses: RegSet,
    /// The register a store writes to memory (empty for other
    /// instructions).
    stored: RegSet,
    load: bool,
    store: bool,
    /// Loads and scalar ALU results forward within a packet.
    forwards: bool,
}

impl DepOperands {
    /// The operands of `insn`.
    pub fn of(insn: &Insn) -> Self {
        let stored = match *insn {
            Insn::VStore { src, .. } => RegSet::EMPTY.with(src),
            Insn::St { src, .. } => RegSet::EMPTY.with(src),
            _ => RegSet::EMPTY,
        };
        DepOperands {
            defs: insn.defs(),
            uses: insn.uses(),
            stored,
            load: insn.is_load(),
            store: insn.is_store(),
            forwards: insn.is_load() || insn.resource() == Unit::SAlu,
        }
    }

    /// [`classify`] with `self` the producer.
    pub fn classify(&self, consumer: &DepOperands) -> DepKind {
        let mut kind = DepKind::None;

        // RAW: consumer reads a register the producer writes. Loads
        // (Figure 4a) and scalar ALU results forward within a packet at
        // a stall; so does a store of a value produced in the same
        // packet, waiting for the write stage (Figure 4b), regardless of
        // producer kind. Vector producers feeding any other read need
        // the full write-back.
        let raw = self.defs & consumer.uses;
        if !raw.is_empty() {
            kind = if self.forwards || (raw - consumer.stored).is_empty() {
                DepKind::Soft {
                    penalty: SOFT_RAW_PENALTY,
                }
            } else {
                DepKind::Hard
            };
        }

        // WAR: consumer writes a register the producer reads. Safe under
        // parallel packet reads -> soft with zero penalty.
        if consumer.defs.intersects(self.uses) {
            kind = kind.max(DepKind::Soft { penalty: 0 });
        }

        // WAW: both write the same register -> hard (final value ambiguous).
        if consumer.defs.intersects(self.defs) {
            kind = kind.max(DepKind::Hard);
        }

        // Memory: conservative aliasing — a store conflicts with any later
        // memory access.
        if self.store && (consumer.load || consumer.store) {
            kind = kind.max(DepKind::Hard);
        }
        // load -> store is an anti-dependence through memory: safe.
        if self.load && consumer.store {
            kind = kind.max(DepKind::Soft { penalty: 0 });
        }

        kind
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
    fn load_to_use_is_soft() {
        // Figure 4 (a): R1 = load(ad); R3 = R2 + R1.
        let load = Insn::Ld {
            dst: r(1),
            base: r(0),
            offset: 0,
        };
        let add = Insn::Add {
            dst: r(3),
            a: r(2),
            b: r(1),
        };
        assert_eq!(
            classify(&load, &add),
            DepKind::Soft {
                penalty: SOFT_RAW_PENALTY
            }
        );
    }

    #[test]
    fn alu_to_store_is_soft() {
        // Figure 4 (b): R3 = R1 + R2; store(R3, ad).
        let add = Insn::Add {
            dst: r(3),
            a: r(1),
            b: r(2),
        };
        let st = Insn::St {
            src: r(3),
            base: r(0),
            offset: 0,
        };
        assert_eq!(
            classify(&add, &st),
            DepKind::Soft {
                penalty: SOFT_RAW_PENALTY
            }
        );
    }

    #[test]
    fn vector_mult_to_vector_use_is_hard() {
        let mpy = Insn::Vmpy {
            dst: w(0),
            src: v(2),
            weights: r(0),
            acc: false,
        };
        let asr = Insn::VasrHB {
            dst: v(4),
            src: w(0),
            shift: 4,
        };
        assert_eq!(classify(&mpy, &asr), DepKind::Hard);
    }

    #[test]
    fn vector_op_to_store_of_result_is_soft() {
        let add = Insn::Vadd {
            lane: crate::insn::Lane::H,
            dst: v(3),
            a: v(1),
            b: v(2),
        };
        let st = Insn::VStore {
            src: v(3),
            base: r(0),
            offset: 0,
        };
        assert!(classify(&add, &st).is_soft());
    }

    #[test]
    fn war_is_soft_free() {
        let use_first = Insn::Vadd {
            lane: crate::insn::Lane::B,
            dst: v(3),
            a: v(1),
            b: v(2),
        };
        let overwrite = Insn::VLoad {
            dst: v(1),
            base: r(0),
            offset: 0,
        };
        assert_eq!(
            classify(&use_first, &overwrite),
            DepKind::Soft { penalty: 0 }
        );
    }

    #[test]
    fn waw_is_hard() {
        let a = Insn::Movi { dst: r(1), imm: 1 };
        let b = Insn::AddI {
            dst: r(1),
            a: r(2),
            imm: 4,
        };
        assert_eq!(classify(&a, &b), DepKind::Hard);
    }

    #[test]
    fn store_then_load_is_hard() {
        let st = Insn::VStore {
            src: v(0),
            base: r(0),
            offset: 0,
        };
        let ld = Insn::VLoad {
            dst: v(1),
            base: r(1),
            offset: 0,
        };
        assert_eq!(classify(&st, &ld), DepKind::Hard);
    }

    #[test]
    fn independent_is_none() {
        let a = Insn::Vadd {
            lane: crate::insn::Lane::H,
            dst: v(0),
            a: v(1),
            b: v(2),
        };
        let b = Insn::Vadd {
            lane: crate::insn::Lane::H,
            dst: v(3),
            a: v(4),
            b: v(5),
        };
        assert_eq!(classify(&a, &b), DepKind::None);
    }

    #[test]
    fn dep_ordering() {
        assert_eq!(
            DepKind::Hard.max(DepKind::Soft { penalty: 3 }),
            DepKind::Hard
        );
        assert_eq!(
            DepKind::Soft { penalty: 1 }.max(DepKind::Soft { penalty: 2 }),
            DepKind::Soft { penalty: 2 }
        );
        assert_eq!(DepKind::None.max(DepKind::None), DepKind::None);
    }
}
