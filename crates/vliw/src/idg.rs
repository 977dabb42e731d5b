//! The Instruction Dependency Graph (IDG).
//!
//! A vertex per instruction of a basic block; an edge per dependence,
//! labelled hard or soft by the micro-architectural classifier
//! ([`gcd2_hvx::classify`]). The packing algorithm consumes three derived
//! quantities per instruction (the attributes of the paper's Equation 4):
//!
//! * `order` — distance from the artificial entry vertex (longest path,
//!   in edges);
//! * `pred` — number of direct predecessors;
//! * the **critical path** — the path of maximum accumulated latency,
//!   recomputed over the unpacked remainder after every packet.

use gcd2_hvx::{DepKind, DepOperands, Insn};

/// One dependence edge `from → to` (`from` precedes `to` in program order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Producer index within the block.
    pub from: usize,
    /// Consumer index within the block.
    pub to: usize,
    /// Hard or soft, with the soft stall penalty.
    pub kind: DepKind,
}

/// The dependency graph of one basic block: every pair's class in one
/// `n × n` table, and the edges in compressed rows both ways, so the
/// packers walk it without allocating.
#[derive(Debug, Clone)]
pub struct Idg<'a> {
    insns: &'a [Insn],
    /// `kinds[i * n + j]`: the class of `i → j` for `i < j`
    /// ([`DepKind::None`] on and below the diagonal).
    kinds: Vec<DepKind>,
    /// Every edge, ordered by producer, then consumer.
    edges: Vec<DepEdge>,
    /// `edges[out_start[i]..out_start[i + 1]]` leave instruction `i`.
    out_start: Vec<usize>,
    /// Edge indices ordered by consumer, then producer.
    in_edges: Vec<usize>,
    /// `in_edges[in_start[j]..in_start[j + 1]]` enter instruction `j`.
    in_start: Vec<usize>,
}

impl<'a> Idg<'a> {
    /// Builds the IDG of a straight-line instruction sequence.
    ///
    /// The dependence between every ordered pair is recorded
    /// (transitive ones included); pairs with [`DepKind::None`] produce
    /// no edge.
    pub fn build(insns: &'a [Insn]) -> Self {
        let n = insns.len();
        let mut kinds = vec![DepKind::None; n * n];
        let mut edges = Vec::new();
        let mut out_start = Vec::with_capacity(n + 1);
        let mut in_start = vec![0usize; n + 2];
        let operands: Vec<DepOperands> = insns.iter().map(DepOperands::of).collect();
        for (i, producer) in operands.iter().enumerate() {
            out_start.push(edges.len());
            for (j, consumer) in operands.iter().enumerate().skip(i + 1) {
                let kind = producer.classify(consumer);
                if kind != DepKind::None {
                    kinds[i * n + j] = kind;
                    edges.push(DepEdge {
                        from: i,
                        to: j,
                        kind,
                    });
                    in_start[j + 2] += 1;
                }
            }
        }
        out_start.push(edges.len());
        // Counting sort by consumer; producers stay ascending in a group.
        for j in 2..n + 2 {
            in_start[j] += in_start[j - 1];
        }
        let mut in_edges = vec![0usize; edges.len()];
        for (e, edge) in edges.iter().enumerate() {
            let slot = &mut in_start[edge.to + 1];
            in_edges[*slot] = e;
            *slot += 1;
        }
        in_start.truncate(n + 1);
        Idg {
            insns,
            kinds,
            edges,
            out_start,
            in_edges,
            in_start,
        }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// True when the block is empty.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// The instructions, in program order.
    pub fn insns(&self) -> &'a [Insn] {
        self.insns
    }

    /// The class of the dependence `from → to` (`None` unless
    /// `from < to` and the two conflict).
    pub fn kind(&self, from: usize, to: usize) -> DepKind {
        self.kinds[from * self.len() + to]
    }

    /// All dependence edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Outgoing edges of instruction `i`, by consumer.
    pub fn outgoing(&self, i: usize) -> impl Iterator<Item = &DepEdge> {
        self.edges[self.out_start[i]..self.out_start[i + 1]].iter()
    }

    /// Incoming edges of instruction `j`, by producer.
    pub fn incoming(&self, j: usize) -> impl Iterator<Item = &DepEdge> {
        self.in_edges[self.in_start[j]..self.in_start[j + 1]]
            .iter()
            .map(move |&e| &self.edges[e])
    }

    /// Direct-predecessor count of every instruction (`i.pred`).
    pub fn pred_counts(&self) -> Vec<u32> {
        self.in_start
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect()
    }

    /// Distance (in edges, longest path) from the artificial entry vertex
    /// (`i.order`). Instructions with no predecessors have order 1 —
    /// one hop from the entry.
    pub fn orders(&self) -> Vec<u32> {
        let n = self.len();
        let mut order = vec![1u32; n];
        // Program order is a topological order.
        for j in 0..n {
            for e in self.incoming(j) {
                order[j] = order[j].max(order[e.from] + 1);
            }
        }
        order
    }

    /// The critical path — the maximum-accumulated-latency chain —
    /// restricted to instructions for which `alive(i)` holds. Returns
    /// instruction indices from first to last; empty if nothing is alive.
    pub fn critical_path(&self, alive: impl Fn(usize) -> bool) -> Vec<usize> {
        let n = self.len();
        let mut dist = vec![0u64; n];
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut path = Vec::new();
        let mut cur = self.chains(alive, &mut dist, Some(&mut prev));
        while let Some(i) = cur {
            path.push(i);
            cur = prev[i];
        }
        path.reverse();
        path
    }

    /// The last instruction of the critical path over the alive
    /// instructions (`None` if nothing is alive), with `dist` as scratch
    /// space of at least [`Idg::len`] entries.
    pub(crate) fn critical_tail(
        &self,
        alive: impl Fn(usize) -> bool,
        dist: &mut [u64],
    ) -> Option<usize> {
        self.chains(alive, dist, None)
    }

    /// Longest alive chains: `dist[j]` is the maximum latency sum of an
    /// alive chain ending at `j`, `prev[j]` (when asked for) its previous
    /// instruction. Returns the end of the first longest chain.
    fn chains(
        &self,
        alive: impl Fn(usize) -> bool,
        dist: &mut [u64],
        mut prev: Option<&mut [Option<usize>]>,
    ) -> Option<usize> {
        let mut best_end: Option<usize> = None;
        for j in 0..self.len() {
            if !alive(j) {
                continue;
            }
            let lat = self.insns[j].latency() as u64;
            dist[j] = lat;
            for e in self.incoming(j) {
                if alive(e.from) && dist[e.from] + lat > dist[j] {
                    dist[j] = dist[e.from] + lat;
                    if let Some(prev) = prev.as_deref_mut() {
                        prev[j] = Some(e.from);
                    }
                }
            }
            if best_end.is_none_or(|b| dist[j] > dist[b]) {
                best_end = Some(j);
            }
        }
        best_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_hvx::{classify, Insn, SReg, VPair, VReg};

    fn v(i: u8) -> VReg {
        VReg::new(i)
    }
    fn w(i: u8) -> VPair {
        VPair::new(i)
    }
    fn r(i: u8) -> SReg {
        SReg::new(i)
    }

    fn chain_block() -> Vec<Insn> {
        vec![
            // 0: load A
            Insn::VLoad {
                dst: v(0),
                base: r(0),
                offset: 0,
            },
            // 1: load B (independent)
            Insn::VLoad {
                dst: v(1),
                base: r(1),
                offset: 0,
            },
            // 2: widen-add (soft on both loads)
            Insn::VaddUbH {
                dst: w(4),
                a: v(0),
                b: v(1),
            },
            // 3: narrow (hard on 2)
            Insn::VasrHB {
                dst: v(6),
                src: w(4),
                shift: 0,
            },
            // 4: store result (soft on 3)
            Insn::VStore {
                src: v(6),
                base: r(2),
                offset: 0,
            },
            // 5: pointer bump (independent of the chain)
            Insn::AddI {
                dst: r(0),
                a: r(0),
                imm: 128,
            },
        ]
    }

    #[test]
    fn edges_classified() {
        let insns = chain_block();
        let idg = Idg::build(&insns);
        let kinds: Vec<(usize, usize, bool)> = idg
            .edges()
            .iter()
            .map(|e| (e.from, e.to, e.kind.is_hard()))
            .collect();
        assert!(kinds.contains(&(0, 2, false)), "load->add soft");
        assert!(kinds.contains(&(2, 3, true)), "valu->shift hard");
        assert!(kinds.contains(&(3, 4, false)), "result->store soft");
        // 5 writes r0 which 0 reads: WAR soft edge.
        assert!(kinds.contains(&(0, 5, false)));
    }

    #[test]
    fn orders_and_preds() {
        let insns = chain_block();
        let idg = Idg::build(&insns);
        let order = idg.orders();
        assert_eq!(order[0], 1);
        assert_eq!(order[2], 2);
        assert_eq!(order[3], 3);
        assert_eq!(order[4], 4);
        let pred = idg.pred_counts();
        assert_eq!(pred[2], 2);
        assert_eq!(pred[0], 0);
    }

    #[test]
    fn critical_path_follows_latency() {
        let insns = chain_block();
        let idg = Idg::build(&insns);
        let cp = idg.critical_path(|_| true);
        // The latency-heavy chain is 0 (or 1) -> 2 -> 3 -> 4.
        assert_eq!(cp.len(), 4);
        assert_eq!(&cp[1..], &[2, 3, 4]);
        // Restricting to the tail after "packing" 3 and 4:
        let cp2 = idg.critical_path(|i| i < 3);
        assert_eq!(cp2.last(), Some(&2));
    }

    #[test]
    fn table_and_rows_agree_with_the_edges() {
        let insns = chain_block();
        let idg = Idg::build(&insns);
        for i in 0..insns.len() {
            for j in 0..insns.len() {
                let expected = if i < j {
                    classify(&insns[i], &insns[j])
                } else {
                    DepKind::None
                };
                assert_eq!(idg.kind(i, j), expected, "{i} -> {j}");
            }
            assert!(idg.outgoing(i).all(|e| e.from == i));
            assert!(idg.incoming(i).all(|e| e.to == i));
            let ins: Vec<usize> = idg.incoming(i).map(|e| e.from).collect();
            assert!(ins.windows(2).all(|w| w[0] < w[1]), "producers ascend");
        }
        let rows: usize = (0..insns.len()).map(|i| idg.outgoing(i).count()).sum();
        let cols: usize = (0..insns.len()).map(|i| idg.incoming(i).count()).sum();
        assert_eq!((rows, cols), (idg.edges().len(), idg.edges().len()));
        let mut dist = vec![0; insns.len()];
        assert_eq!(
            idg.critical_tail(|i| i < 3, &mut dist),
            idg.critical_path(|i| i < 3).last().copied()
        );
    }

    #[test]
    fn empty_block() {
        let idg = Idg::build(&[]);
        assert!(idg.is_empty());
        assert!(idg.critical_path(|_| true).is_empty());
    }
}
