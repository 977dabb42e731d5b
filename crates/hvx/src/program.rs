//! Program representation: basic blocks of instructions, their packed
//! (scheduled) form, and whole programs with loop trip counts.
//!
//! The simulator does not model scalar branch execution; instead each
//! block carries a `trip_count` and its body is (functionally and
//! temporally) executed that many times. Loop induction — pointer bumps
//! via [`crate::insn::Insn::AddI`] — lives inside the block body so that
//! repeated execution is functionally correct.

use crate::insn::Insn;
use crate::packet::{Packet, ResourceModel};
use crate::stats::{unit_index, ExecStats};
use std::fmt;
use std::sync::Arc;

/// A block's human-readable label: static text, or a value that is
/// turned into text only when something displays it. A kernel generator
/// labels its blocks with the shape and instruction they compute without
/// formatting a string for the cost model, which only packs them; a
/// clone shares the value.
#[derive(Clone)]
pub struct Label(LabelRepr);

#[derive(Clone)]
enum LabelRepr {
    Static(&'static str),
    Value(Arc<dyn fmt::Display + Send + Sync>),
}

/// The `Display` of a [`Label::lazy`] closure.
struct Lazy<F>(F);

impl<F: Fn(&mut fmt::Formatter<'_>) -> fmt::Result> fmt::Display for Lazy<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (self.0)(f)
    }
}

impl Label {
    /// A label whose text `write` produces when it is displayed; nothing
    /// is formatted before that.
    pub fn lazy(
        write: impl Fn(&mut fmt::Formatter<'_>) -> fmt::Result + Send + Sync + 'static,
    ) -> Self {
        Label(LabelRepr::Value(Arc::new(Lazy(write))))
    }
}

impl Default for Label {
    fn default() -> Self {
        Label(LabelRepr::Static(""))
    }
}

impl From<&'static str> for Label {
    fn from(text: &'static str) -> Self {
        Label(LabelRepr::Static(text))
    }
}

impl From<String> for Label {
    fn from(text: String) -> Self {
        Label(LabelRepr::Value(Arc::new(text)))
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            LabelRepr::Static(text) => f.write_str(text),
            LabelRepr::Value(value) => value.fmt(f),
        }
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

/// Labels are equal when their text is.
impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (LabelRepr::Static(a), LabelRepr::Static(b)) => a == b,
            _ => self.to_string() == other.to_string(),
        }
    }
}

impl Eq for Label {}

/// An unscheduled basic block: straight-line instructions plus the number
/// of times the block executes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// Instructions in program order.
    pub insns: Vec<Insn>,
    /// How many times the block body runs.
    pub trip_count: u64,
    /// Human-readable label (operator name etc.).
    pub label: Label,
}

impl Block {
    /// Creates a block that executes once.
    pub fn new(label: impl Into<Label>) -> Self {
        Block {
            insns: Vec::new(),
            trip_count: 1,
            label: label.into(),
        }
    }

    /// Creates a block with a trip count.
    pub fn with_trip_count(label: impl Into<Label>, trip_count: u64) -> Self {
        Block {
            insns: Vec::new(),
            trip_count,
            label: label.into(),
        }
    }

    /// Appends an instruction.
    pub fn push(&mut self, insn: Insn) {
        self.insns.push(insn);
    }

    /// Appends many instructions.
    pub fn extend(&mut self, insns: impl IntoIterator<Item = Insn>) {
        self.insns.extend(insns);
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True when the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

/// A scheduled basic block: VLIW packets plus the trip count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PackedBlock {
    /// Packets in issue order. Shared, so a packer's memo hands out one
    /// schedule to every block with the same instructions without
    /// copying it.
    pub packets: Arc<[Packet]>,
    /// How many times the block body runs.
    pub trip_count: u64,
    /// Label inherited from the source [`Block`].
    pub label: Label,
}

impl PackedBlock {
    /// The trivial schedule: one instruction per packet, program order.
    /// This is the "unpacked" baseline every packer is measured against.
    pub fn sequential(block: &Block) -> Self {
        PackedBlock {
            packets: block
                .insns
                .iter()
                .cloned()
                .map(|i| Packet::from_insns(vec![i]))
                .collect(),
            trip_count: block.trip_count,
            label: block.label.clone(),
        }
    }

    /// Cycles for one execution of the block body.
    pub fn body_cycles(&self) -> u64 {
        self.packets.iter().map(|p| p.cycles() as u64).sum()
    }

    /// Static timing and counter estimate for all `trip_count` runs.
    pub fn stats(&self) -> ExecStats {
        let mut s = ExecStats::new();
        for p in self.packets.iter() {
            s.cycles += p.cycles() as u64;
            s.stall_cycles += p.stall_cycles() as u64;
            s.packets += 1;
            s.insns += p.len() as u64;
            for i in p.insns() {
                s.unit_insns[unit_index(i.resource())] += 1;
                if i.is_load() {
                    s.mem_read_bytes += i.mem_bytes();
                } else if i.is_store() {
                    s.mem_write_bytes += i.mem_bytes();
                }
            }
        }
        s.scaled(self.trip_count)
    }

    /// True when every packet is legal under `model`.
    pub fn is_legal(&self, model: &ResourceModel) -> bool {
        self.packets.iter().all(|p| p.is_legal(model))
    }

    /// Total instructions across all packets (one body execution).
    pub fn insn_count(&self) -> usize {
        self.packets.iter().map(Packet::len).sum()
    }

    /// Histogram of packet occupancy: `hist[k]` counts packets holding
    /// `k+1` instructions (schedule-density diagnostics).
    pub fn occupancy_histogram(&self) -> [u64; ResourceModel::MAX_SLOTS] {
        let mut hist = [0u64; ResourceModel::MAX_SLOTS];
        for p in self.packets.iter() {
            if !p.is_empty() {
                hist[p.len() - 1] += 1;
            }
        }
        hist
    }
}

impl fmt::Display for PackedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// {} (x{})", self.label, self.trip_count)?;
        for p in self.packets.iter() {
            writeln!(f, "{p}")?;
        }
        Ok(())
    }
}

/// A complete program: packed blocks executed in order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Blocks in execution order.
    pub blocks: Vec<PackedBlock>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program { blocks: Vec::new() }
    }

    /// Appends a block.
    pub fn push(&mut self, block: PackedBlock) {
        self.blocks.push(block);
    }

    /// Static timing/counters for the whole program, without functional
    /// execution. This is how end-to-end model latencies are estimated:
    /// cycles scale with trip counts, so multi-GMAC workloads cost
    /// microseconds to evaluate.
    pub fn stats(&self) -> ExecStats {
        let mut s = ExecStats::new();
        for b in &self.blocks {
            s.accumulate(&b.stats());
        }
        s
    }

    /// Total cycles (see [`Program::stats`]).
    pub fn cycles(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.body_cycles() * b.trip_count)
            .sum()
    }

    /// Total packets issued across all executions.
    pub fn packets_issued(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| b.packets.len() as u64 * b.trip_count)
            .sum()
    }

    /// Static packet count (one body execution per block), the metric of
    /// the paper's Figure 7 (right).
    pub fn static_packets(&self) -> u64 {
        self.blocks.iter().map(|b| b.packets.len() as u64).sum()
    }
}

impl FromIterator<PackedBlock> for Program {
    fn from_iter<T: IntoIterator<Item = PackedBlock>>(iter: T) -> Self {
        Program {
            blocks: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;
    use crate::reg::SReg;

    fn r(i: u8) -> SReg {
        SReg::new(i)
    }

    #[test]
    fn sequential_schedule_counts() {
        let mut b = Block::with_trip_count("loop", 10);
        b.push(Insn::Ld {
            dst: r(1),
            base: r(0),
            offset: 0,
        });
        b.push(Insn::AddI {
            dst: r(0),
            a: r(0),
            imm: 8,
        });
        let pb = PackedBlock::sequential(&b);
        assert_eq!(pb.packets.len(), 2);
        assert_eq!(pb.body_cycles(), 6);
        let s = pb.stats();
        assert_eq!(s.cycles, 60);
        assert_eq!(s.packets, 20);
        assert_eq!(s.insns, 20);
        assert_eq!(s.mem_read_bytes, 80);
    }

    #[test]
    fn program_stats_accumulate() {
        let mut b = Block::new("b");
        b.push(Insn::Nop);
        let pb = PackedBlock::sequential(&b);
        let prog: Program = vec![pb.clone(), pb].into_iter().collect();
        assert_eq!(prog.cycles(), 6);
        assert_eq!(prog.static_packets(), 2);
        assert_eq!(prog.packets_issued(), 2);
    }
}
