//! `PacketLegality`: every packet in a program respects the target's
//! slot and per-unit capacities, contains no intra-packet *hard*
//! dependency, and the soft-dependency stall accounting of
//! [`PackedBlock::stats`] agrees with an independent recount.

use crate::diag::Report;
use crate::{Context, Pass};
use gcd2_hvx::{classify, DepKind, Insn, PackedBlock, Packet, ResourceModel, Unit};

/// Packet-level legality (paper Section IV-C constraints).
#[derive(Debug, Default)]
pub struct PacketLegality;

const NAME: &str = "PacketLegality";

impl Pass for PacketLegality {
    fn name(&self) -> &'static str {
        NAME
    }

    fn run(&self, cx: &Context<'_>, report: &mut Report) {
        let Some(program) = cx.program else { return };
        for (bi, block) in program.blocks.iter().enumerate() {
            check_block(bi, block, &cx.resource, report);
        }
    }
}

fn location(bi: usize, block: &PackedBlock, pi: usize) -> String {
    format!("block {bi} '{}' packet {pi}", block.label)
}

fn check_block(bi: usize, block: &PackedBlock, model: &ResourceModel, report: &mut Report) {
    let mut recounted_stalls = 0u64;
    for (pi, packet) in block.packets.iter().enumerate() {
        // Formatted only for a finding: a clean packet builds no text.
        let loc = || location(bi, block, pi);
        check_capacities(packet, model, &loc, report);
        check_hard_deps(packet, &loc, report);
        recounted_stalls += soft_stall_cycles(packet.insns()) as u64;
    }
    // Cross-check the block's aggregated stall accounting against the
    // recount (scaled by the trip count exactly like stats() scales).
    let claimed = block.stats().stall_cycles;
    let expected = recounted_stalls * block.trip_count;
    if claimed != expected {
        report.error(
            NAME,
            format!("block {bi} '{}'", block.label),
            format!(
                "stats() claims {claimed} stall cycles but intra-packet soft \
                 dependencies account for {expected}"
            ),
        );
    }
}

fn check_capacities(
    packet: &Packet,
    model: &ResourceModel,
    loc: &dyn Fn() -> String,
    report: &mut Report,
) {
    let insns = packet.insns();
    if insns.len() > ResourceModel::MAX_SLOTS {
        report.error(
            NAME,
            loc(),
            format!(
                "{} instructions exceed the {}-slot packet",
                insns.len(),
                ResourceModel::MAX_SLOTS
            ),
        );
    }
    if insns.is_empty() {
        report.warning(NAME, loc(), "empty packet issues for nothing");
        return;
    }
    let mut counts = [0u8; 5];
    let mut stores = 0u8;
    for i in insns {
        match i.resource() {
            Unit::Mem => counts[0] += 1,
            Unit::VMpy => counts[1] += 1,
            Unit::VShift => counts[2] += 1,
            Unit::VPerm => counts[3] += 1,
            Unit::VAlu => counts[4] += 1,
            Unit::SAlu => {}
        }
        if i.is_store() {
            stores += 1;
        }
    }
    let caps = [
        ("memory", counts[0], model.mem),
        ("vector-multiply", counts[1], model.vmpy),
        ("vector-shift", counts[2], model.vshift),
        ("vector-permute", counts[3], model.vperm),
        ("vector-ALU", counts[4], model.valu),
        ("store", stores, model.store),
    ];
    for (unit, used, cap) in caps {
        if used > cap {
            report.error(
                NAME,
                loc(),
                format!("{used} {unit} instructions in one packet (capacity {cap})"),
            );
        }
    }
}

fn check_hard_deps(packet: &Packet, loc: &dyn Fn() -> String, report: &mut Report) {
    let insns = packet.insns();
    for (j, consumer) in insns.iter().enumerate() {
        for producer in &insns[..j] {
            if classify(producer, consumer).is_hard() {
                report.error(
                    NAME,
                    loc(),
                    format!("hard dependency packed together: `{producer}` -> `{consumer}`"),
                );
            }
        }
    }
}

/// Stall cycles a packet incurs from its soft dependencies: the deepest
/// chain of soft-RAW forwards, measured as the excess of the critical
/// path `latency + chain depth` over the stall-free `max(latency)`.
fn soft_stall_cycles(insns: &[Insn]) -> u32 {
    let n = insns.len();
    if n == 0 {
        return 0;
    }
    let mut depth = vec![0u32; n];
    let mut critical = 0u32;
    let mut base = 0u32;
    for j in 0..n {
        for i in 0..j {
            if let DepKind::Soft { penalty } = classify(&insns[i], &insns[j]) {
                depth[j] = depth[j].max(depth[i] + penalty);
            }
        }
        critical = critical.max(insns[j].latency() + depth[j]);
        base = base.max(insns[j].latency());
    }
    critical - base
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_hvx::{Program, SReg, VReg};

    fn v(i: u8) -> VReg {
        VReg::new(i)
    }
    fn r(i: u8) -> SReg {
        SReg::new(i)
    }

    fn run_on(block: PackedBlock) -> Report {
        let program = Program {
            blocks: vec![block],
        };
        let cx = Context::new().with_program(&program);
        let mut report = Report::new();
        PacketLegality.run(&cx, &mut report);
        report
    }

    #[test]
    fn legal_block_is_clean() {
        let block = PackedBlock {
            packets: vec![Packet::from_insns(vec![
                Insn::VLoad {
                    dst: v(0),
                    base: r(0),
                    offset: 0,
                },
                Insn::AddI {
                    dst: r(0),
                    a: r(0),
                    imm: 128,
                },
            ])]
            .into(),
            trip_count: 4,
            label: "copy".into(),
        };
        assert!(run_on(block).is_clean());
    }

    #[test]
    fn overfilled_unit_reported() {
        // Two vector-multiply instructions: from_insns() accepts them
        // (only slot count is asserted), the verifier must not.
        let block = PackedBlock {
            packets: vec![Packet::from_insns(vec![
                Insn::Vrmpy {
                    dst: v(0),
                    src: v(2),
                    weights: r(0),
                    acc: false,
                },
                Insn::Vrmpy {
                    dst: v(1),
                    src: v(3),
                    weights: r(1),
                    acc: false,
                },
            ])]
            .into(),
            trip_count: 1,
            label: "bad".into(),
        };
        let report = run_on(block);
        assert_eq!(report.error_count(), 1);
        assert!(report.diagnostics()[0].message.contains("vector-multiply"));
    }

    #[test]
    fn hard_dep_reported() {
        let block = PackedBlock {
            packets: vec![Packet::from_insns(vec![
                Insn::Vrmpy {
                    dst: v(0),
                    src: v(2),
                    weights: r(0),
                    acc: false,
                },
                Insn::Vadd {
                    lane: gcd2_hvx::Lane::W,
                    dst: v(4),
                    a: v(0),
                    b: v(5),
                },
            ])]
            .into(),
            trip_count: 1,
            label: "bad".into(),
        };
        let report = run_on(block);
        assert_eq!(report.error_count(), 1);
        assert!(report.diagnostics()[0].message.contains("hard dependency"));
    }

    #[test]
    fn empty_packet_warns() {
        let block = PackedBlock {
            packets: vec![Packet::new()].into(),
            trip_count: 1,
            label: "empty".into(),
        };
        let report = run_on(block);
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 1);
    }

    #[test]
    fn stall_recount_matches_stats() {
        // Soft-RAW chain inside one packet, scaled by a trip count.
        let block = PackedBlock {
            packets: vec![Packet::from_insns(vec![
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
            ])]
            .into(),
            trip_count: 7,
            label: "soft".into(),
        };
        assert_eq!(block.stats().stall_cycles, 7);
        assert!(run_on(block).is_clean());
    }
}
