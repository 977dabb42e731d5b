//! `RegisterDataflow`: def-before-use and dead-definition analysis over
//! the register operands of each packed block.
//!
//! The analysis runs on the flattened instruction sequence of a block
//! (packets in issue order, program order within a packet — the order
//! the machine commits effects in). Vector pairs are expanded into their
//! two halves by the register sets of [`Insn::defs`]/[`Insn::uses`], so
//! overlap hazards between a pair and one of its member registers are
//! tracked at single-register granularity.
//!
//! Loop semantics temper both checks:
//!
//! * a register read before any definition is **live-in** when the block
//!   never defines it (or only updates it in place, like an address
//!   bump), and **loop-carried** when the block defines it later but
//!   runs more than once — only a single-trip block reading a value a
//!   later definition replaces wholesale is an error;
//! * a definition is **dead** only when a later definition in the *same*
//!   iteration body overwrites it unread — an unread definition at the
//!   end of the body may feed the next iteration (or be a deliberate
//!   timing artifact), so it is not flagged.

use crate::diag::Report;
use crate::{Context, Pass};
use gcd2_hvx::{Insn, PackedBlock, Reg, RegSet};

/// Register def/use sanity for every block of a program.
#[derive(Debug, Default)]
pub struct RegisterDataflow;

const NAME: &str = "RegisterDataflow";

impl Pass for RegisterDataflow {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&self, cx: &Context<'_>, report: &mut Report) {
        let Some(program) = cx.program else { return };
        for (bi, block) in program.blocks.iter().enumerate() {
            check_block(bi, block, report);
        }
    }
}

fn check_block(bi: usize, block: &PackedBlock, report: &mut Report) {
    let insns: Vec<&Insn> = block.packets.iter().flat_map(|p| p.insns()).collect();
    let loc = || format!("block {bi} '{}'", block.label);
    // A register's index in the per-register tables: its bit in a RegSet.
    let slot = |reg: Reg| reg.bit().trailing_zeros() as usize;
    const NONE: usize = usize::MAX;

    // Position of the first definition of every register.
    let mut first_def = [NONE; 64];
    for (idx, insn) in insns.iter().enumerate() {
        for d in insn.defs().iter() {
            if first_def[slot(d)] == NONE {
                first_def[slot(d)] = idx;
            }
        }
    }

    // Def-before-use: reads happen before writes at each position, so an
    // instruction reading a register it also defines (acc multiplies)
    // observes the previous value.
    let mut defined = RegSet::EMPTY;
    for (idx, insn) in insns.iter().enumerate() {
        // A read before any definition is fine when the register is
        // live-in. It still looks live-in when the block *does* define
        // it later, as long as that first definition reads the register
        // itself (address bumps: `r0 = add(r0, #128)`) or the block loops
        // (the value arrives around the back edge). Only a single-trip
        // block whose later definition starts a fresh value chain makes
        // the early read dubious.
        if block.trip_count <= 1 {
            for u in (insn.uses() - defined).iter() {
                let first = first_def[slot(u)];
                if first != NONE && !insns[first].uses().contains(u) {
                    report.error(
                        NAME,
                        loc(),
                        format!(
                            "`{insn}` (position {idx}) reads {u} before its \
                             first definition in a single-trip block"
                        ),
                    );
                }
            }
        }
        defined |= insn.defs();
    }

    // Dead definitions: overwritten within the same iteration body
    // without an intervening read (the overwriting instruction's own
    // read counts).
    let mut last_def = [NONE; 64];
    // Registers read since their last definition.
    let mut read = RegSet::EMPTY;
    for (redef, insn) in insns.iter().enumerate() {
        read |= insn.uses();
        for reg in insn.defs().iter() {
            let def = last_def[slot(reg)];
            if def != NONE && !read.contains(reg) {
                report.warning(
                    NAME,
                    loc(),
                    format!(
                        "{reg} written by `{}` (position {def}) is overwritten by \
                         `{insn}` (position {redef}) without being read",
                        insns[def]
                    ),
                );
            }
            last_def[slot(reg)] = redef;
        }
        read = read - insn.defs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_hvx::{Packet, Program, SReg, VPair, VReg};

    fn v(i: u8) -> VReg {
        VReg::new(i)
    }
    fn r(i: u8) -> SReg {
        SReg::new(i)
    }

    fn run_on(insns: Vec<Insn>, trip_count: u64) -> Report {
        let block = PackedBlock {
            packets: insns
                .into_iter()
                .map(|i| Packet::from_insns(vec![i]))
                .collect(),
            trip_count,
            label: "t".into(),
        };
        let program = Program {
            blocks: vec![block],
        };
        let cx = Context::new().with_program(&program);
        let mut report = Report::new();
        RegisterDataflow.run(&cx, &mut report);
        report
    }

    #[test]
    fn straight_line_def_use_is_clean() {
        let report = run_on(
            vec![
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
                Insn::VLoad {
                    dst: v(1),
                    base: r(0),
                    offset: 128,
                },
                Insn::Vadd {
                    lane: gcd2_hvx::Lane::H,
                    dst: v(2),
                    a: v(0),
                    b: v(1),
                },
                Insn::VStore {
                    src: v(2),
                    base: r(1),
                    offset: 0,
                },
            ],
            1,
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn use_before_later_def_is_error() {
        let report = run_on(
            vec![
                Insn::Vadd {
                    lane: gcd2_hvx::Lane::H,
                    dst: v(2),
                    a: v(0),
                    b: v(1),
                },
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
            ],
            1,
        );
        assert_eq!(report.error_count(), 1);
        assert!(report.diagnostics()[0]
            .message
            .contains("before its first definition"));
    }

    #[test]
    fn loop_carried_use_is_fine() {
        // Same shape as above, but the block iterates: v0 flows around
        // the back edge.
        let report = run_on(
            vec![
                Insn::Vadd {
                    lane: gcd2_hvx::Lane::H,
                    dst: v(2),
                    a: v(0),
                    b: v(1),
                },
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
            ],
            16,
        );
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn live_in_use_is_fine() {
        let report = run_on(
            vec![Insn::VStore {
                src: v(5),
                base: r(0),
                offset: 0,
            }],
            1,
        );
        assert!(report.is_clean());
    }

    #[test]
    fn dead_def_warns() {
        let report = run_on(
            vec![
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 128,
                },
                Insn::VStore {
                    src: v(0),
                    base: r(1),
                    offset: 0,
                },
            ],
            1,
        );
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 1);
        assert!(report.diagnostics()[0].message.contains("overwritten"));
    }

    #[test]
    fn acc_multiply_reads_its_destination() {
        // w0 = vmpy(...); w0 += vmpy(...) — the second def reads the
        // first, so it is not dead.
        let report = run_on(
            vec![
                Insn::Vmpy {
                    dst: VPair::new(0),
                    src: v(4),
                    weights: r(0),
                    acc: false,
                },
                Insn::Vmpy {
                    dst: VPair::new(0),
                    src: v(5),
                    weights: r(1),
                    acc: true,
                },
                Insn::VasrHB {
                    dst: v(6),
                    src: VPair::new(0),
                    shift: 4,
                },
            ],
            1,
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn pair_overlap_with_half_is_tracked() {
        // Writing w0 then reading v1 (its high half) is a def-use chain.
        let report = run_on(
            vec![
                Insn::Vadd {
                    lane: gcd2_hvx::Lane::H,
                    dst: v(2),
                    a: v(1),
                    b: v(1),
                },
                Insn::Vmpy {
                    dst: VPair::new(0),
                    src: v(4),
                    weights: r(0),
                    acc: false,
                },
            ],
            1,
        );
        // v1 is read before the pair defines it -> error in a
        // single-trip block.
        assert_eq!(report.error_count(), 1);
    }
}
