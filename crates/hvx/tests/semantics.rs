//! Exhaustive per-instruction semantic tests for the functional
//! simulator — every opcode, including the ones the kernel generators
//! exercise only indirectly.

use gcd2_hvx::{pack_weights, simd, Insn, Lane, Machine, Packet, SReg, VPair, VReg, VBYTES};

fn v(i: u8) -> VReg {
    VReg::new(i)
}
fn w(i: u8) -> VPair {
    VPair::new(i)
}
fn r(i: u8) -> SReg {
    SReg::new(i)
}

fn run1(m: &mut Machine, insn: Insn) {
    m.run_packet(&Packet::from_insns(vec![insn]));
}

fn filled(f: impl Fn(usize) -> u8) -> [u8; VBYTES] {
    let mut out = [0u8; VBYTES];
    for (i, b) in out.iter_mut().enumerate() {
        *b = f(i);
    }
    out
}

#[test]
fn vadd_vsub_lanes() {
    let mut m = Machine::new(0);
    m.set_vreg(v(1), filled(|i| i as u8));
    m.set_vreg(v(2), filled(|_| 3));
    run1(
        &mut m,
        Insn::Vadd {
            lane: Lane::B,
            dst: v(3),
            a: v(1),
            b: v(2),
        },
    );
    assert_eq!(m.vreg(v(3))[5], 8);
    // i8 wrapping at lane level.
    assert_eq!(m.vreg(v(3))[125], 125u8.wrapping_add(3));
    run1(
        &mut m,
        Insn::Vsub {
            lane: Lane::B,
            dst: v(4),
            a: v(1),
            b: v(2),
        },
    );
    assert_eq!(m.vreg(v(4))[5], 2);
    assert_eq!(m.vreg(v(4))[0] as i8, -3);
}

#[test]
fn vadd_halfword_and_word_lanes() {
    let mut m = Machine::new(0);
    let mut a = [0u8; VBYTES];
    let mut b = [0u8; VBYTES];
    for k in 0..64 {
        simd::set_h(&mut a, k, 1000 + k as i16);
        simd::set_h(&mut b, k, -500);
    }
    m.set_vreg(v(1), a);
    m.set_vreg(v(2), b);
    run1(
        &mut m,
        Insn::Vadd {
            lane: Lane::H,
            dst: v(3),
            a: v(1),
            b: v(2),
        },
    );
    assert_eq!(simd::get_h(m.vreg(v(3)), 10), 510);

    let mut aw = [0u8; VBYTES];
    let mut bw = [0u8; VBYTES];
    for k in 0..32 {
        simd::set_w(&mut aw, k, 1 << 20);
        simd::set_w(&mut bw, k, k as i32);
    }
    m.set_vreg(v(4), aw);
    m.set_vreg(v(5), bw);
    run1(
        &mut m,
        Insn::Vadd {
            lane: Lane::W,
            dst: v(6),
            a: v(4),
            b: v(5),
        },
    );
    assert_eq!(simd::get_w(m.vreg(v(6)), 7), (1 << 20) + 7);
}

#[test]
fn vmax_vmin_signed() {
    let mut m = Machine::new(0);
    m.set_vreg(v(1), filled(|i| if i % 2 == 0 { 0xFF } else { 5 })); // -1 / 5 as i8
    m.set_vreg(v(2), filled(|_| 0));
    run1(
        &mut m,
        Insn::Vmax {
            lane: Lane::B,
            dst: v(3),
            a: v(1),
            b: v(2),
        },
    );
    assert_eq!(m.vreg(v(3))[0], 0, "max(-1, 0) = 0 signed");
    assert_eq!(m.vreg(v(3))[1], 5);
    run1(
        &mut m,
        Insn::Vmin {
            lane: Lane::B,
            dst: v(4),
            a: v(1),
            b: v(2),
        },
    );
    assert_eq!(m.vreg(v(4))[0] as i8, -1);
    assert_eq!(m.vreg(v(4))[1], 0);
}

#[test]
fn vsplat_broadcasts_32_bits() {
    let mut m = Machine::new(0);
    m.set_sreg(r(1), 0x0403_0201);
    run1(
        &mut m,
        Insn::Vsplat {
            dst: v(0),
            src: r(1),
        },
    );
    for k in 0..VBYTES / 4 {
        assert_eq!(&m.vreg(v(0))[4 * k..4 * k + 4], &[1, 2, 3, 4]);
    }
}

#[test]
fn vlut_indexes_modulo_table() {
    let mut m = Machine::new(0);
    m.set_vreg(v(1), filled(|i| (i as u8).wrapping_mul(3))); // indices incl. >128
    m.set_vreg(v(31), filled(|i| (255 - i) as u8)); // table
    run1(
        &mut m,
        Insn::VlutB {
            dst: v(2),
            idx: v(1),
            table: v(31),
        },
    );
    for i in 0..VBYTES {
        let idx = (i * 3) % 256 % 128;
        assert_eq!(m.vreg(v(2))[i], (255 - idx) as u8, "lane {i}");
    }
}

#[test]
fn vmul_ub_h_products() {
    let mut m = Machine::new(0);
    m.set_vreg(v(1), filled(|i| i as u8));
    m.set_vreg(v(2), filled(|_| 200));
    run1(
        &mut m,
        Insn::VmulUbH {
            dst: w(4),
            a: v(1),
            b: v(2),
        },
    );
    // p[i] = i * 200 wrapped to i16; even lanes in lo, odd in hi.
    assert_eq!(simd::get_h(m.vreg(v(4)), 1), (2 * 200) as i16);
    assert_eq!(simd::get_h(m.vreg(v(5)), 1), (3 * 200) as i16);
    assert_eq!(simd::get_h(m.vreg(v(4)), 60), ((120 * 200) as u16) as i16);
}

#[test]
fn vasr_wh_saturates() {
    let mut m = Machine::new(0);
    let mut a = [0u8; VBYTES];
    let mut b = [0u8; VBYTES];
    for k in 0..32 {
        simd::set_w(&mut a, k, 1 << 24); // saturates after >> 2
        simd::set_w(&mut b, k, -(1 << 24));
    }
    m.set_vreg(v(1), a);
    m.set_vreg(v(2), b);
    run1(
        &mut m,
        Insn::VasrWH {
            dst: v(3),
            a: v(1),
            b: v(2),
            shift: 2,
        },
    );
    assert_eq!(simd::get_h(m.vreg(v(3)), 0), i16::MAX);
    assert_eq!(simd::get_h(m.vreg(v(3)), 1), i16::MIN);
}

#[test]
fn scalar_alu_ops() {
    let mut m = Machine::new(64);
    m.set_sreg(r(1), 100);
    m.set_sreg(r(2), 7);
    run1(
        &mut m,
        Insn::Sub {
            dst: r(3),
            a: r(1),
            b: r(2),
        },
    );
    assert_eq!(m.sreg(r(3)), 93);
    run1(
        &mut m,
        Insn::Mul {
            dst: r(4),
            a: r(1),
            b: r(2),
        },
    );
    assert_eq!(m.sreg(r(4)), 700);
    run1(
        &mut m,
        Insn::Div {
            dst: r(5),
            a: r(1),
            b: r(2),
        },
    );
    assert_eq!(m.sreg(r(5)), 14);
    run1(
        &mut m,
        Insn::Shl {
            dst: r(6),
            a: r(2),
            imm: 3,
        },
    );
    assert_eq!(m.sreg(r(6)), 56);
    run1(
        &mut m,
        Insn::Shr {
            dst: r(7),
            a: r(1),
            imm: 2,
        },
    );
    assert_eq!(m.sreg(r(7)), 25);
}

#[test]
fn division_by_zero_yields_zero() {
    let mut m = Machine::new(0);
    m.set_sreg(r(1), 42);
    m.set_sreg(r(2), 0);
    run1(
        &mut m,
        Insn::Div {
            dst: r(3),
            a: r(1),
            b: r(2),
        },
    );
    assert_eq!(m.sreg(r(3)), 0);
}

#[test]
fn scalar_memory_round_trip() {
    let mut m = Machine::new(64);
    m.set_sreg(r(0), 8);
    m.set_sreg(r(1), -123456789);
    run1(
        &mut m,
        Insn::St {
            src: r(1),
            base: r(0),
            offset: 16,
        },
    );
    run1(
        &mut m,
        Insn::Ld {
            dst: r(2),
            base: r(0),
            offset: 16,
        },
    );
    assert_eq!(m.sreg(r(2)), -123456789);
}

#[test]
fn vgather_loads_like_vload() {
    let mut m = Machine::new(VBYTES * 2);
    for i in 0..VBYTES {
        m.mem[i] = (i * 7 % 256) as u8;
    }
    run1(
        &mut m,
        Insn::VGather {
            dst: v(0),
            base: r(0),
            offset: 0,
        },
    );
    run1(
        &mut m,
        Insn::VLoad {
            dst: v(1),
            base: r(0),
            offset: 0,
        },
    );
    assert_eq!(m.vreg(v(0)), m.vreg(v(1)));
    // But its latency models strided DRAM access.
    assert!(
        Insn::VGather {
            dst: v(0),
            base: r(0),
            offset: 0
        }
        .latency()
            > 100
    );
}

#[test]
fn vmpa_alternating_weight_pairs() {
    let mut m = Machine::new(0);
    // Interleaved (x0, y0, x1, y1, ...) input.
    m.set_vreg(v(1), filled(|i| if i % 2 == 0 { 10 } else { 1 }));
    m.set_sreg(r(0), pack_weights([2, 3, -4, 5]));
    run1(
        &mut m,
        Insn::Vmpa {
            dst: v(2),
            src: v(1),
            weights: r(0),
            acc: false,
        },
    );
    // Even result lanes use (2, 3): 10*2 + 1*3 = 23.
    assert_eq!(simd::get_h(m.vreg(v(2)), 0), 23);
    // Odd result lanes use (-4, 5): 10*-4 + 1*5 = -35.
    assert_eq!(simd::get_h(m.vreg(v(2)), 1), -35);
}

#[test]
fn nop_and_movi() {
    let mut m = Machine::new(0);
    run1(&mut m, Insn::Nop);
    run1(
        &mut m,
        Insn::Movi {
            dst: r(9),
            imm: i64::MIN / 2,
        },
    );
    assert_eq!(m.sreg(r(9)), i64::MIN / 2);
}

#[test]
fn display_all_instruction_forms() {
    // Every opcode has a non-empty, register-faithful rendering.
    let insns = vec![
        Insn::Vmpy {
            dst: w(0),
            src: v(2),
            weights: r(1),
            acc: false,
        },
        Insn::Vmpa {
            dst: v(0),
            src: v(2),
            weights: r(1),
            acc: true,
        },
        Insn::Vrmpy {
            dst: v(0),
            src: v(2),
            weights: r(1),
            acc: false,
        },
        Insn::Vtmpy {
            dst: w(0),
            src: w(2),
            weights: r(1),
            acc: true,
        },
        Insn::Vadd {
            lane: Lane::W,
            dst: v(0),
            a: v(1),
            b: v(2),
        },
        Insn::Vsub {
            lane: Lane::H,
            dst: v(0),
            a: v(1),
            b: v(2),
        },
        Insn::Vmax {
            lane: Lane::B,
            dst: v(0),
            a: v(1),
            b: v(2),
        },
        Insn::Vmin {
            lane: Lane::B,
            dst: v(0),
            a: v(1),
            b: v(2),
        },
        Insn::VaddUbH {
            dst: w(0),
            a: v(2),
            b: v(3),
        },
        Insn::VaddHAcc {
            dst: v(0),
            src: v(1),
        },
        Insn::VmulUbH {
            dst: w(0),
            a: v(2),
            b: v(3),
        },
        Insn::Vsplat {
            dst: v(0),
            src: r(1),
        },
        Insn::VasrHB {
            dst: v(0),
            src: w(2),
            shift: 4,
        },
        Insn::VasrWH {
            dst: v(0),
            a: v(1),
            b: v(2),
            shift: 4,
        },
        Insn::VshuffH {
            dst: w(0),
            src: w(2),
        },
        Insn::VdealH {
            dst: w(0),
            src: w(2),
        },
        Insn::VshuffB {
            dst: w(0),
            src: w(2),
        },
        Insn::VdealB {
            dst: w(0),
            src: w(2),
        },
        Insn::VlutB {
            dst: v(0),
            idx: v(1),
            table: v(2),
        },
        Insn::VLoad {
            dst: v(0),
            base: r(1),
            offset: 128,
        },
        Insn::VGather {
            dst: v(0),
            base: r(1),
            offset: 128,
        },
        Insn::VStore {
            src: v(0),
            base: r(1),
            offset: 128,
        },
        Insn::Movi { dst: r(0), imm: 7 },
        Insn::Add {
            dst: r(0),
            a: r(1),
            b: r(2),
        },
        Insn::AddI {
            dst: r(0),
            a: r(1),
            imm: 7,
        },
        Insn::Sub {
            dst: r(0),
            a: r(1),
            b: r(2),
        },
        Insn::Mul {
            dst: r(0),
            a: r(1),
            b: r(2),
        },
        Insn::Div {
            dst: r(0),
            a: r(1),
            b: r(2),
        },
        Insn::Shl {
            dst: r(0),
            a: r(1),
            imm: 2,
        },
        Insn::Shr {
            dst: r(0),
            a: r(1),
            imm: 2,
        },
        Insn::Ld {
            dst: r(0),
            base: r(1),
            offset: 8,
        },
        Insn::St {
            src: r(0),
            base: r(1),
            offset: 8,
        },
        Insn::Nop,
    ];
    for i in &insns {
        let text = i.to_string();
        assert!(!text.is_empty());
        // Rendering mentions each register the instruction touches.
        for reg in i.defs().iter().chain(i.uses().iter()) {
            let tag = reg.to_string();
            // Pairs render as wN; their halves v2k/v2k+1 both map to it.
            if !text.contains(&tag) {
                let covered = match reg {
                    gcd2_hvx::Reg::V(vr) => text.contains(&format!("w{}", vr.index() / 2)),
                    _ => false,
                };
                assert!(covered, "{text} missing {tag}");
            }
        }
    }
}

#[test]
fn trip_count_zero_executes_nothing() {
    let mut m = Machine::new(64);
    let mut b = gcd2_hvx::Block::with_trip_count("nope", 0);
    b.push(Insn::Movi { dst: r(1), imm: 99 });
    m.run_block(&gcd2_hvx::PackedBlock::sequential(&b));
    assert_eq!(m.sreg(r(1)), 0);
}

#[test]
fn traced_execution_matches_untraced() {
    use gcd2_hvx::{Block, PackedBlock, Program};
    let mut block = Block::with_trip_count("trace me", 3);
    block.extend([
        Insn::VLoad {
            dst: v(0),
            base: r(0),
            offset: 0,
        },
        Insn::VStore {
            src: v(0),
            base: r(1),
            offset: 0,
        },
        Insn::AddI {
            dst: r(0),
            a: r(0),
            imm: VBYTES as i64,
        },
        Insn::AddI {
            dst: r(1),
            a: r(1),
            imm: VBYTES as i64,
        },
    ]);
    let mut program = Program::new();
    program.push(PackedBlock::sequential(&block));

    let mut plain = Machine::new(4096);
    for i in 0..3 * VBYTES {
        plain.mem[i] = (i % 250) as u8;
    }
    plain.set_sreg(r(1), 2048);
    let mut traced = plain.clone();
    plain.run(&program);
    let trace = traced.run_traced(&program);
    assert_eq!(plain.mem, traced.mem, "trace must not perturb execution");
    // 4 packets x 3 trips, with a running cycle counter matching the
    // static estimate.
    assert_eq!(trace.events.len(), 12);
    assert_eq!(trace.cycles(), program.stats().cycles);
    assert!(trace.events[0].to_string().contains("trace me"));
    assert!(trace.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
}

#[test]
fn legacy_resource_model_is_stricter() {
    use gcd2_hvx::ResourceModel;
    let old = ResourceModel::hexagon680();
    let new = ResourceModel::hexagon698();
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
    // Two loads per packet on the new generation, one on the old.
    assert!(new.admits(std::slice::from_ref(&l0), &l1));
    assert!(!old.admits(std::slice::from_ref(&l0), &l1));
}

#[test]
fn occupancy_histogram_counts_packets() {
    use gcd2_hvx::{Block, PackedBlock, Packet};
    let mut pb = PackedBlock::sequential(&{
        let mut b = Block::new("x");
        b.push(Insn::Nop);
        b.push(Insn::Nop);
        b
    });
    let mut packets = pb.packets.to_vec();
    packets.push(Packet::from_insns(vec![
        Insn::Nop,
        Insn::AddI {
            dst: r(0),
            a: r(0),
            imm: 1,
        },
        Insn::AddI {
            dst: r(1),
            a: r(1),
            imm: 1,
        },
    ]));
    pb.packets = packets.into();
    let hist = pb.occupancy_histogram();
    assert_eq!(hist, [2, 0, 1, 0]);
}
