//! Reference packers: Algorithm 1 and the top-down scheduler written the
//! direct way — an edge list per instruction, a `Packet` built for every
//! stall query, membership by linear search. They allocate per candidate
//! and exist as the oracle the fast packers ([`crate::Packer`],
//! [`crate::pack_insns_topdown`]) are checked against packet for packet;
//! nothing on a compile path calls them.

use crate::sda::{ScoreParams, SoftDepPolicy, LATENCY_MISMATCH_CAP};
use gcd2_hvx::{classify, DepKind, Insn, Packet, ResourceModel};

/// Edge lists of a block: `(from, to, kind)` for every dependent pair,
/// by producer then consumer, with the edge indices out of and into each
/// instruction.
struct EdgeLists {
    edges: Vec<(usize, usize, DepKind)>,
    out_edges: Vec<Vec<usize>>,
    in_edges: Vec<Vec<usize>>,
}

impl EdgeLists {
    fn build(insns: &[Insn]) -> Self {
        let n = insns.len();
        let mut edges = Vec::new();
        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                let kind = classify(&insns[i], &insns[j]);
                if kind != DepKind::None {
                    out_edges[i].push(edges.len());
                    in_edges[j].push(edges.len());
                    edges.push((i, j, kind));
                }
            }
        }
        EdgeLists {
            edges,
            out_edges,
            in_edges,
        }
    }

    fn outgoing(&self, i: usize) -> impl Iterator<Item = (usize, usize, DepKind)> + '_ {
        self.out_edges[i].iter().map(move |&e| self.edges[e])
    }

    fn incoming(&self, j: usize) -> impl Iterator<Item = (usize, usize, DepKind)> + '_ {
        self.in_edges[j].iter().map(move |&e| self.edges[e])
    }

    fn critical_path(&self, insns: &[Insn], alive: impl Fn(usize) -> bool) -> Vec<usize> {
        let n = insns.len();
        let mut dist = vec![0u64; n];
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut best_end: Option<usize> = None;
        for j in 0..n {
            if !alive(j) {
                continue;
            }
            dist[j] = insns[j].latency() as u64;
            for (from, _, _) in self.incoming(j) {
                if alive(from) && dist[from] + insns[j].latency() as u64 > dist[j] {
                    dist[j] = dist[from] + insns[j].latency() as u64;
                    prev[j] = Some(from);
                }
            }
            if best_end.is_none_or(|b| dist[j] > dist[b]) {
                best_end = Some(j);
            }
        }
        let mut path = Vec::new();
        let mut cur = best_end;
        while let Some(i) = cur {
            path.push(i);
            cur = prev[i];
        }
        path.reverse();
        path
    }
}

fn packet_of(ids: &[usize], insns: &[Insn]) -> Packet {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    Packet::from_insns(sorted.into_iter().map(|i| insns[i].clone()).collect())
}

/// Algorithm 1 as [`crate::Packer::pack_insns`] computes it, without a
/// memo.
pub fn pack_insns_ref(
    insns: &[Insn],
    model: &ResourceModel,
    policy: SoftDepPolicy,
    params: ScoreParams,
) -> Vec<Packet> {
    let n = insns.len();
    if n == 0 {
        return Vec::new();
    }
    let idg = EdgeLists::build(insns);
    let mut order = vec![1u32; n];
    for j in 0..n {
        for (from, _, _) in idg.incoming(j) {
            order[j] = order[j].max(order[from] + 1);
        }
    }
    let pred: Vec<u32> = idg.in_edges.iter().map(|e| e.len() as u32).collect();
    let mut packed = vec![false; n];
    let mut remaining = n;
    let mut rev_packets: Vec<Vec<usize>> = Vec::new();
    while remaining > 0 {
        let cp = idg.critical_path(insns, |i| !packed[i]);
        let seed = *cp.last().expect("non-empty remainder has a critical path");
        let mut cur: Vec<usize> = vec![seed];
        packed[seed] = true;
        remaining -= 1;
        while cur.len() < ResourceModel::MAX_SLOTS {
            let cur_insns: Vec<Insn> = cur.iter().map(|&i| insns[i].clone()).collect();
            let hi_lat = cur_insns.iter().map(Insn::latency).max().unwrap_or(0);
            let cur_stall = packet_of(&cur, insns).stall_cycles();
            let remaining_now = (0..n).filter(|&i| !packed[i] && !cur.contains(&i)).count();
            let defer_stalls =
                policy == SoftDepPolicy::Sda && remaining_now > ResourceModel::MAX_SLOTS;
            let mut best: Option<(usize, f64)> = None;
            for i in 0..n {
                if packed[i] || cur.contains(&i) {
                    continue;
                }
                let mut free = true;
                let mut soft_into_cur = false;
                for (_, to, kind) in idg.outgoing(i) {
                    if packed[to] && !cur.contains(&to) {
                        continue;
                    }
                    if cur.contains(&to) {
                        if kind.is_hard() || (policy == SoftDepPolicy::SoftToHard && kind.is_soft())
                        {
                            free = false;
                            break;
                        }
                        soft_into_cur = true;
                        continue;
                    }
                    free = false;
                    break;
                }
                if !free || !model.admits(&cur_insns, &insns[i]) {
                    continue;
                }
                let lat = insns[i].latency();
                if lat > hi_lat + LATENCY_MISMATCH_CAP {
                    continue;
                }
                let mut score = (order[i] + pred[i]) as f64 * params.w
                    - (hi_lat as f64 - lat as f64).abs() * (1.0 - params.w);
                if soft_into_cur && policy == SoftDepPolicy::Sda {
                    let mut with_i = cur.clone();
                    with_i.push(i);
                    let stall_delta = packet_of(&with_i, insns)
                        .stall_cycles()
                        .saturating_sub(cur_stall);
                    if stall_delta > 0 && defer_stalls {
                        continue;
                    }
                    score -= params.penalty * stall_delta as f64;
                }
                if best.is_none_or(|(_, s)| score >= s) {
                    best = Some((i, score));
                }
            }
            match best {
                Some((i, _)) => {
                    cur.push(i);
                    packed[i] = true;
                    remaining -= 1;
                }
                None => break,
            }
        }
        rev_packets.push(cur);
    }
    rev_packets
        .into_iter()
        .rev()
        .map(|ids| packet_of(&ids, insns))
        .collect()
}

/// The top-down scheduler as [`crate::pack_insns_topdown`] computes it.
pub fn pack_insns_topdown_ref(insns: &[Insn], model: &ResourceModel) -> Vec<Packet> {
    let n = insns.len();
    let idg = EdgeLists::build(insns);
    let mut to_exit = vec![0u64; n];
    for i in (0..n).rev() {
        to_exit[i] = insns[i].latency() as u64;
        for (_, to, _) in idg.outgoing(i) {
            to_exit[i] = to_exit[i].max(insns[i].latency() as u64 + to_exit[to]);
        }
    }
    let mut scheduled = vec![false; n];
    let mut packets = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        let mut cur: Vec<usize> = Vec::new();
        loop {
            let mut best: Option<usize> = None;
            for i in 0..n {
                if scheduled[i] || cur.contains(&i) {
                    continue;
                }
                let ready = idg.incoming(i).all(|(from, _, kind)| {
                    (scheduled[from] && !cur.contains(&from))
                        || (cur.contains(&from) && kind.is_soft())
                });
                let cur_insns: Vec<Insn> = cur.iter().map(|&k| insns[k].clone()).collect();
                if !ready || !model.admits(&cur_insns, &insns[i]) {
                    continue;
                }
                if best.is_none_or(|b| to_exit[i] > to_exit[b]) {
                    best = Some(i);
                }
            }
            match best {
                Some(i) => {
                    cur.push(i);
                    scheduled[i] = true;
                    remaining -= 1;
                    if cur.len() == ResourceModel::MAX_SLOTS {
                        break;
                    }
                }
                None => break,
            }
        }
        assert!(!cur.is_empty(), "scheduler must make progress");
        packets.push(packet_of(&cur, insns));
    }
    packets
}
