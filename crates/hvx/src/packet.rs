//! VLIW packets and the packet resource model.
//!
//! A packet holds up to [`ResourceModel::MAX_SLOTS`] instructions that
//! issue together. Per-unit capacities constrain which instructions can
//! share a packet (e.g. a single vector-multiply per packet, and no two
//! shift operations together — the constraint the paper calls out
//! explicitly). Because the simulated pipeline does not overlap packets
//! (paper footnote 5), a packet's cost is the maximum instruction latency
//! plus the stalls introduced by intra-packet soft dependencies.

use crate::deps::{classify, DepKind};
use crate::insn::{Insn, Unit};
use std::fmt;

/// Per-packet functional-unit capacities of the simulated DSP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceModel {
    /// Maximum memory-unit instructions per packet (loads + stores).
    pub mem: u8,
    /// Maximum stores per packet.
    pub store: u8,
    /// Maximum vector-multiply instructions per packet.
    pub vmpy: u8,
    /// Maximum vector-shift instructions per packet.
    pub vshift: u8,
    /// Maximum vector permute/lookup instructions per packet.
    pub vperm: u8,
    /// Maximum vector-ALU instructions per packet.
    pub valu: u8,
}

impl ResourceModel {
    /// Instructions per packet on the simulated DSP.
    pub const MAX_SLOTS: usize = 4;

    /// The default model (Hexagon-698-like).
    pub fn hexagon698() -> Self {
        ResourceModel {
            mem: 2,
            store: 1,
            vmpy: 1,
            vshift: 1,
            vperm: 1,
            valu: 2,
        }
    }

    /// An older-generation model (Hexagon-680-like: the paper notes it
    /// also evaluated "older series Snapdragon platforms" with similar
    /// gains): a single memory port and a single vector ALU slot.
    pub fn hexagon680() -> Self {
        ResourceModel {
            mem: 1,
            store: 1,
            vmpy: 1,
            vshift: 1,
            vperm: 1,
            valu: 1,
        }
    }

    /// Whether `candidate` can be added to a packet currently holding
    /// `current`, considering only slot and unit capacities (not
    /// dependencies).
    pub fn admits(&self, current: &[Insn], candidate: &Insn) -> bool {
        if current.len() >= Self::MAX_SLOTS {
            return false;
        }
        let mut used = SlotUse::default();
        current.iter().for_each(|i| used.add(i));
        self.admits_use(&used, candidate)
    }

    /// [`ResourceModel::admits`] against the slot tally of the packet so
    /// far, for callers that grow a packet one instruction at a time.
    pub fn admits_use(&self, used: &SlotUse, candidate: &Insn) -> bool {
        if used.slots as usize >= Self::MAX_SLOTS {
            return false;
        }
        let mut with = *used;
        with.add(candidate);
        with.mem <= self.mem
            && with.store <= self.store
            && with.vmpy <= self.vmpy
            && with.vshift <= self.vshift
            && with.vperm <= self.vperm
            && with.valu <= self.valu
    }
}

/// How many slots, and how many of each capped unit, a packet's
/// instructions take ([`ResourceModel::admits_use`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotUse {
    slots: u8,
    mem: u8,
    store: u8,
    vmpy: u8,
    vshift: u8,
    vperm: u8,
    valu: u8,
}

impl SlotUse {
    /// Counts one more instruction.
    pub fn add(&mut self, insn: &Insn) {
        self.slots += 1;
        match insn.resource() {
            Unit::Mem => self.mem += 1,
            Unit::VMpy => self.vmpy += 1,
            Unit::VShift => self.vshift += 1,
            Unit::VPerm => self.vperm += 1,
            Unit::VAlu => self.valu += 1,
            Unit::SAlu => {}
        }
        if insn.is_store() {
            self.store += 1;
        }
    }
}

impl Default for ResourceModel {
    fn default() -> Self {
        Self::hexagon698()
    }
}

/// A VLIW packet: instructions that issue in the same cycle.
///
/// Instructions keep their program order inside the packet; intra-packet
/// soft dependencies are honoured by forwarding (at a stall), and
/// intra-packet *hard* dependencies — which a correct packer never creates
/// — make the consumer read the stale pre-packet register value when
/// executed by [`crate::machine::Machine`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Packet {
    insns: Vec<Insn>,
    /// [`Packet::cycles`], worked out whenever `insns` changes: a packet
    /// is read far more often than it is built (every cost of a memoised
    /// schedule sums its packets again).
    cycles: u32,
}

impl Packet {
    /// Creates an empty packet.
    pub fn new() -> Self {
        Packet::default()
    }

    /// Creates a packet from instructions.
    ///
    /// # Panics
    /// Panics if more than [`ResourceModel::MAX_SLOTS`] instructions are
    /// given.
    pub fn from_insns(insns: Vec<Insn>) -> Self {
        assert!(
            insns.len() <= ResourceModel::MAX_SLOTS,
            "packet overflows {} slots",
            ResourceModel::MAX_SLOTS
        );
        let cycles = commit_cycles(&insns);
        Packet { insns, cycles }
    }

    /// Appends an instruction.
    ///
    /// # Panics
    /// Panics if the packet is already full.
    pub fn push(&mut self, insn: Insn) {
        assert!(
            self.insns.len() < ResourceModel::MAX_SLOTS,
            "packet is full"
        );
        self.insns.push(insn);
        self.cycles = commit_cycles(&self.insns);
    }

    /// The instructions in the packet, in program order.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True when the packet holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// True when no intra-packet dependency is hard and the resource model
    /// admits every instruction.
    pub fn is_legal(&self, model: &ResourceModel) -> bool {
        for (j, cons) in self.insns.iter().enumerate() {
            if !model.admits(&self.insns[..j], cons) {
                return false;
            }
            for prod in &self.insns[..j] {
                if classify(prod, cons).is_hard() {
                    return false;
                }
            }
        }
        true
    }

    /// Cycles this packet takes to commit.
    ///
    /// `max(latency) + stalls`, where the stall term is the deepest chain
    /// of soft-RAW forwards inside the packet (each hop costs its
    /// [`DepKind::penalty`]). The paper's Figure 4 example — two 3-cycle
    /// instructions with a soft dependency — therefore costs 4 cycles
    /// packed versus 6 split.
    pub fn cycles(&self) -> u32 {
        self.cycles
    }

    /// Total stall cycles attributable to intra-packet soft dependencies:
    /// the difference between [`Packet::cycles`] and the stall-free cost.
    pub fn stall_cycles(&self) -> u32 {
        let base = self.insns.iter().map(Insn::latency).max().unwrap_or(0);
        self.cycles() - base
    }

    /// Bytes of memory traffic generated by one execution of the packet.
    pub fn mem_bytes(&self) -> u64 {
        self.insns.iter().map(Insn::mem_bytes).sum()
    }
}

/// [`Packet::cycles`] of a packet holding `insns`.
fn commit_cycles(insns: &[Insn]) -> u32 {
    let mut depth = [0u32; ResourceModel::MAX_SLOTS];
    let mut cost = 0u32;
    for (j, cons) in insns.iter().enumerate() {
        for (i, prod) in insns[..j].iter().enumerate() {
            if let DepKind::Soft { penalty } = classify(prod, cons) {
                depth[j] = depth[j].max(depth[i] + penalty);
            }
        }
        cost = cost.max(cons.latency() + depth[j]);
    }
    cost
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for i in &self.insns {
            writeln!(f, "    {i}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Insn> for Packet {
    fn from_iter<T: IntoIterator<Item = Insn>>(iter: T) -> Self {
        Packet::from_insns(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Lane;
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
    fn figure4_soft_packing_cost() {
        // Two 3-cycle instructions with a soft dep: 4 cycles packed.
        let p = Packet::from_insns(vec![
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
        ]);
        assert_eq!(p.cycles(), 4);
        assert_eq!(p.stall_cycles(), 1);
        assert!(p.is_legal(&ResourceModel::default()));
    }

    #[test]
    fn independent_packet_costs_max_latency() {
        let p = Packet::from_insns(vec![
            Insn::Vmpy {
                dst: w(0),
                src: v(4),
                weights: r(0),
                acc: false,
            },
            Insn::VLoad {
                dst: v(6),
                base: r(1),
                offset: 0,
            },
        ]);
        assert_eq!(p.cycles(), 8);
        assert_eq!(p.stall_cycles(), 0);
    }

    #[test]
    fn soft_chain_accumulates() {
        // load -> add -> store: two soft hops, depth 2.
        let p = Packet::from_insns(vec![
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
            Insn::St {
                src: r(3),
                base: r(4),
                offset: 0,
            },
        ]);
        assert_eq!(p.cycles(), 5);
    }

    #[test]
    fn two_shifts_rejected() {
        let m = ResourceModel::default();
        let s1 = Insn::VasrHB {
            dst: v(0),
            src: w(2),
            shift: 4,
        };
        let s2 = Insn::VasrHB {
            dst: v(1),
            src: w(4),
            shift: 4,
        };
        assert!(m.admits(&[], &s1));
        assert!(!m.admits(std::slice::from_ref(&s1), &s2));
    }

    #[test]
    fn two_multiplies_rejected() {
        let m = ResourceModel::default();
        let a = Insn::Vmpy {
            dst: w(0),
            src: v(4),
            weights: r(0),
            acc: false,
        };
        let b = Insn::Vrmpy {
            dst: v(8),
            src: v(5),
            weights: r(1),
            acc: false,
        };
        assert!(!m.admits(std::slice::from_ref(&a), &b));
    }

    #[test]
    fn three_memory_ops_rejected() {
        let m = ResourceModel::default();
        let l0 = Insn::VLoad {
            dst: v(0),
            base: r(0),
            offset: 0,
        };
        let l1 = Insn::VLoad {
            dst: v(1),
            base: r(0),
            offset: 128,
        };
        let l2 = Insn::VLoad {
            dst: v(2),
            base: r(0),
            offset: 256,
        };
        assert!(m.admits(std::slice::from_ref(&l0), &l1));
        assert!(!m.admits(&[l0, l1], &l2));
    }

    #[test]
    fn two_stores_rejected() {
        let m = ResourceModel::default();
        let s0 = Insn::VStore {
            src: v(0),
            base: r(0),
            offset: 0,
        };
        let s1 = Insn::VStore {
            src: v(1),
            base: r(0),
            offset: 128,
        };
        assert!(!m.admits(std::slice::from_ref(&s0), &s1));
    }

    #[test]
    fn hard_dep_makes_packet_illegal() {
        let p = Packet::from_insns(vec![
            Insn::Vmpy {
                dst: w(0),
                src: v(4),
                weights: r(0),
                acc: false,
            },
            Insn::VasrHB {
                dst: v(6),
                src: w(0),
                shift: 4,
            },
        ]);
        assert!(!p.is_legal(&ResourceModel::default()));
    }

    #[test]
    fn slot_cap() {
        let m = ResourceModel::default();
        let mk = |d: u8| Insn::AddI {
            dst: r(d),
            a: r(d),
            imm: 1,
        };
        let current = [mk(1), mk(2), mk(3), mk(4)];
        assert!(!m.admits(&current, &mk(5)));
    }

    #[test]
    fn valu_cap_two() {
        let m = ResourceModel::default();
        let mk = |d: u8| Insn::Vadd {
            lane: Lane::H,
            dst: v(d),
            a: v(10),
            b: v(11),
        };
        assert!(m.admits(&[mk(0)], &mk(1)));
        assert!(!m.admits(&[mk(0), mk(1)], &mk(2)));
    }
}
