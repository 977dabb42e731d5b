//! The register-set dependence checks against the list-based definitions
//! they replaced: `defs`/`uses` as vectors of registers (pairs expanded
//! into both halves) and `classify` as nested `contains` scans. Every
//! ordered pair of a generated instruction list — every `Insn` variant,
//! over a register pool small enough that operands overlap, pairs and
//! their halves included — must classify the same both ways.

use gcd2_hvx::{classify, DepKind, Insn, Lane, Reg, RegSet, SReg, Unit, VPair, VReg};

fn defs_ref(insn: &Insn) -> Vec<Reg> {
    match *insn {
        Insn::Vmpy { dst, .. }
        | Insn::Vtmpy { dst, .. }
        | Insn::VaddUbH { dst, .. }
        | Insn::VmulUbH { dst, .. }
        | Insn::VshuffH { dst, .. }
        | Insn::VdealH { dst, .. }
        | Insn::VshuffB { dst, .. }
        | Insn::VdealB { dst, .. } => vec![dst.lo().into(), dst.hi().into()],
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
        | Insn::VGather { dst, .. } => vec![dst.into()],
        Insn::VStore { .. } | Insn::St { .. } | Insn::Nop => vec![],
        Insn::Movi { dst, .. }
        | Insn::Add { dst, .. }
        | Insn::AddI { dst, .. }
        | Insn::Sub { dst, .. }
        | Insn::Mul { dst, .. }
        | Insn::Div { dst, .. }
        | Insn::Shl { dst, .. }
        | Insn::Shr { dst, .. }
        | Insn::Ld { dst, .. } => vec![dst.into()],
    }
}

fn uses_ref(insn: &Insn) -> Vec<Reg> {
    match *insn {
        Insn::Vmpy {
            dst,
            src,
            weights,
            acc,
        } => {
            let mut u: Vec<Reg> = vec![src.into(), weights.into()];
            if acc {
                u.extend([Reg::from(dst.lo()), dst.hi().into()]);
            }
            u
        }
        Insn::Vtmpy {
            dst,
            src,
            weights,
            acc,
        } => {
            let mut u: Vec<Reg> = vec![src.lo().into(), src.hi().into(), weights.into()];
            if acc {
                u.extend([Reg::from(dst.lo()), dst.hi().into()]);
            }
            u
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
            let mut u: Vec<Reg> = vec![src.into(), weights.into()];
            if acc {
                u.push(dst.into());
            }
            u
        }
        Insn::Vadd { a, b, .. }
        | Insn::Vsub { a, b, .. }
        | Insn::Vmax { a, b, .. }
        | Insn::Vmin { a, b, .. }
        | Insn::VaddUbH { a, b, .. }
        | Insn::VmulUbH { a, b, .. }
        | Insn::VasrWH { a, b, .. } => vec![a.into(), b.into()],
        Insn::VaddHAcc { dst, src } => vec![dst.into(), src.into()],
        Insn::Vsplat { src, .. } => vec![src.into()],
        Insn::VasrHB { src, .. }
        | Insn::VshuffH { src, .. }
        | Insn::VdealH { src, .. }
        | Insn::VshuffB { src, .. }
        | Insn::VdealB { src, .. } => vec![src.lo().into(), src.hi().into()],
        Insn::VlutB { idx, table, .. } => vec![idx.into(), table.into()],
        Insn::VLoad { base, .. } | Insn::VGather { base, .. } | Insn::Ld { base, .. } => {
            vec![base.into()]
        }
        Insn::VStore { src, base, .. } => vec![src.into(), base.into()],
        Insn::St { src, base, .. } => vec![src.into(), base.into()],
        Insn::Movi { .. } | Insn::Nop => vec![],
        Insn::Add { a, b, .. }
        | Insn::Sub { a, b, .. }
        | Insn::Mul { a, b, .. }
        | Insn::Div { a, b, .. } => vec![a.into(), b.into()],
        Insn::AddI { a, .. } | Insn::Shl { a, .. } | Insn::Shr { a, .. } => vec![a.into()],
    }
}

fn raw_kind_ref(producer: &Insn, consumer: &Insn, reg: Reg) -> DepKind {
    let soft = DepKind::Soft { penalty: 1 };
    if producer.is_load() || producer.resource() == Unit::SAlu {
        return soft;
    }
    match *consumer {
        Insn::VStore { src, .. } if Reg::V(src) == reg => soft,
        Insn::St { src, .. } if Reg::S(src) == reg => soft,
        _ => DepKind::Hard,
    }
}

fn classify_ref(producer: &Insn, consumer: &Insn) -> DepKind {
    let mut kind = DepKind::None;
    let (pdefs, puses) = (defs_ref(producer), uses_ref(producer));
    let (cdefs, cuses) = (defs_ref(consumer), uses_ref(consumer));
    for d in &pdefs {
        if cuses.contains(d) {
            kind = kind.max(raw_kind_ref(producer, consumer, *d));
        }
    }
    for d in &cdefs {
        if puses.contains(d) {
            kind = kind.max(DepKind::Soft { penalty: 0 });
        }
        if pdefs.contains(d) {
            kind = kind.max(DepKind::Hard);
        }
    }
    if producer.is_store() && (consumer.is_load() || consumer.is_store()) {
        kind = kind.max(DepKind::Hard);
    }
    if producer.is_load() && consumer.is_store() {
        kind = kind.max(DepKind::Soft { penalty: 0 });
    }
    kind
}

/// Which variant an instruction is. The match names every variant, so a
/// new one fails to compile here until the generator covers it.
fn variant(insn: &Insn) -> usize {
    match insn {
        Insn::Vmpy { .. } => 0,
        Insn::Vmpa { .. } => 1,
        Insn::Vrmpy { .. } => 2,
        Insn::Vtmpy { .. } => 3,
        Insn::Vadd { .. } => 4,
        Insn::Vsub { .. } => 5,
        Insn::Vmax { .. } => 6,
        Insn::Vmin { .. } => 7,
        Insn::VaddUbH { .. } => 8,
        Insn::VaddHAcc { .. } => 9,
        Insn::Vsplat { .. } => 10,
        Insn::VmulUbH { .. } => 11,
        Insn::VasrHB { .. } => 12,
        Insn::VasrWH { .. } => 13,
        Insn::VshuffH { .. } => 14,
        Insn::VdealH { .. } => 15,
        Insn::VshuffB { .. } => 16,
        Insn::VdealB { .. } => 17,
        Insn::VlutB { .. } => 18,
        Insn::VLoad { .. } => 19,
        Insn::VGather { .. } => 20,
        Insn::VStore { .. } => 21,
        Insn::Movi { .. } => 22,
        Insn::Add { .. } => 23,
        Insn::AddI { .. } => 24,
        Insn::Sub { .. } => 25,
        Insn::Mul { .. } => 26,
        Insn::Div { .. } => 27,
        Insn::Shl { .. } => 28,
        Insn::Shr { .. } => 29,
        Insn::Ld { .. } => 30,
        Insn::St { .. } => 31,
        Insn::Nop => 32,
    }
}
const VARIANTS: usize = 33;

/// Every variant over vector registers v0–v2 (so v1 is the high half of
/// pair w0 and v2 the low half of w1), pairs w0 and w1, and scalar
/// registers r0 and r1, with and without accumulation.
fn every_insn() -> Vec<Insn> {
    let vs = || (0..3).map(VReg::new);
    let ws = || [0, 2].into_iter().map(VPair::new);
    let rs = || (0..2).map(SReg::new);
    let mut out = Vec::new();
    for acc in [false, true] {
        for (dst, src, weights) in
            ws().flat_map(|d| vs().flat_map(move |s| rs().map(move |r| (d, s, r))))
        {
            out.push(Insn::Vmpy {
                dst,
                src,
                weights,
                acc,
            });
        }
        for (dst, src, weights) in
            ws().flat_map(|d| ws().flat_map(move |s| rs().map(move |r| (d, s, r))))
        {
            out.push(Insn::Vtmpy {
                dst,
                src,
                weights,
                acc,
            });
        }
        for (dst, src, weights) in
            vs().flat_map(|d| vs().flat_map(move |s| rs().map(move |r| (d, s, r))))
        {
            out.push(Insn::Vmpa {
                dst,
                src,
                weights,
                acc,
            });
            out.push(Insn::Vrmpy {
                dst,
                src,
                weights,
                acc,
            });
        }
    }
    let triples = || vs().flat_map(|d| vs().flat_map(move |a| vs().map(move |b| (d, a, b))));
    for (i, (dst, a, b)) in triples().enumerate() {
        let lane = [Lane::B, Lane::H, Lane::W][i % 3];
        out.push(Insn::Vadd { lane, dst, a, b });
        out.push(Insn::Vsub { lane, dst, a, b });
        out.push(Insn::Vmax { lane, dst, a, b });
        out.push(Insn::Vmin { lane, dst, a, b });
        out.push(Insn::VasrWH {
            dst,
            a,
            b,
            shift: 2,
        });
        out.push(Insn::VlutB {
            dst,
            idx: a,
            table: b,
        });
    }
    for dst in ws() {
        for (a, b) in vs().flat_map(|a| vs().map(move |b| (a, b))) {
            out.push(Insn::VaddUbH { dst, a, b });
            out.push(Insn::VmulUbH { dst, a, b });
        }
        for src in ws() {
            out.push(Insn::VshuffH { dst, src });
            out.push(Insn::VdealH { dst, src });
            out.push(Insn::VshuffB { dst, src });
            out.push(Insn::VdealB { dst, src });
        }
        for v in vs() {
            out.push(Insn::VasrHB {
                dst: v,
                src: dst,
                shift: 4,
            });
        }
    }
    for (dst, src) in vs().flat_map(|d| vs().map(move |s| (d, s))) {
        out.push(Insn::VaddHAcc { dst, src });
    }
    for v in vs() {
        for r in rs() {
            out.push(Insn::Vsplat { dst: v, src: r });
            out.push(Insn::VLoad {
                dst: v,
                base: r,
                offset: 0,
            });
            out.push(Insn::VGather {
                dst: v,
                base: r,
                offset: 128,
            });
            out.push(Insn::VStore {
                src: v,
                base: r,
                offset: 0,
            });
        }
    }
    for (dst, a, b) in rs().flat_map(|d| rs().flat_map(move |a| rs().map(move |b| (d, a, b)))) {
        out.push(Insn::Add { dst, a, b });
        out.push(Insn::Sub { dst, a, b });
        out.push(Insn::Mul { dst, a, b });
        out.push(Insn::Div { dst, a, b });
    }
    for (dst, a) in rs().flat_map(|d| rs().map(move |a| (d, a))) {
        out.push(Insn::AddI { dst, a, imm: 8 });
        out.push(Insn::Shl { dst, a, imm: 1 });
        out.push(Insn::Shr { dst, a, imm: 1 });
        out.push(Insn::Ld {
            dst,
            base: a,
            offset: 8,
        });
        out.push(Insn::St {
            src: dst,
            base: a,
            offset: 8,
        });
    }
    for dst in rs() {
        out.push(Insn::Movi { dst, imm: 7 });
    }
    out.push(Insn::Nop);
    out
}

#[test]
fn the_generator_covers_every_variant() {
    let mut seen = [false; VARIANTS];
    for insn in every_insn() {
        seen[variant(&insn)] = true;
    }
    assert!(seen.iter().all(|&s| s), "{seen:?}");
}

#[test]
fn register_sets_hold_the_listed_registers() {
    for insn in every_insn() {
        let as_set = |regs: Vec<Reg>| regs.into_iter().collect::<RegSet>();
        assert_eq!(insn.defs(), as_set(defs_ref(&insn)), "defs of `{insn}`");
        assert_eq!(insn.uses(), as_set(uses_ref(&insn)), "uses of `{insn}`");
    }
}

#[test]
fn classify_matches_the_list_definition_on_every_ordered_pair() {
    let insns = every_insn();
    let mut kinds = [0usize; 3];
    for producer in &insns {
        for consumer in &insns {
            let expected = classify_ref(producer, consumer);
            assert_eq!(
                classify(producer, consumer),
                expected,
                "`{producer}` -> `{consumer}`"
            );
            kinds[match expected {
                DepKind::None => 0,
                DepKind::Soft { .. } => 1,
                DepKind::Hard => 2,
            }] += 1;
        }
    }
    // The pool is small enough that every class occurs often.
    assert!(kinds.iter().all(|&k| k > 1000), "{kinds:?}");
}
