//! Workspace-level property tests (proptest) on the core invariants:
//! layout round-trips, packing legality and functional equivalence,
//! chain-DP optimality, and kernel numerics under random shapes.
#![allow(clippy::needless_range_loop)]

use gcd2_repro::cgraph::GemmDims;
use gcd2_repro::hvx::{
    Block, Insn, Lane, Machine, PackedBlock, ResourceModel, SReg, VPair, VReg, VBYTES,
};
use gcd2_repro::kernels::{functional_program, matmul_ref, output_matrix_len, SimdInstr};
use gcd2_repro::tensor::{Layout, MatrixI8, MatrixU8};
use gcd2_repro::vliw::{
    no_intra_packet_deps, pack_insns_ref, pack_insns_topdown, pack_insns_topdown_ref,
    pack_with_policy, Packer, ScoreParams, SoftDepPolicy,
};
use proptest::prelude::*;

fn layout_strategy() -> impl Strategy<Value = Layout> {
    prop_oneof![
        Just(Layout::RowMajor),
        Just(Layout::Col1),
        Just(Layout::Col2),
        Just(Layout::Col4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Layout storage is a bijection: round-tripping through any layout
    /// preserves every element.
    #[test]
    fn layout_round_trip(
        rows in 1usize..200,
        cols in 1usize..12,
        from in layout_strategy(),
        to in layout_strategy(),
        seed in any::<u64>(),
    ) {
        let values: Vec<u8> =
            (0..rows * cols).map(|i| ((i as u64 ^ seed) % 251) as u8).collect();
        let m = MatrixU8::from_row_major(rows, cols, from, &values);
        prop_assert_eq!(m.to_layout(to).to_row_major_vec(), values);
    }

    /// Every SIMD matmul kernel agrees with the scalar reference on
    /// random bounded inputs and ragged shapes.
    #[test]
    fn matmul_kernels_match_reference(
        m in 1usize..80,
        k in 1usize..24,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let a_rm: Vec<u8> = (0..m * k).map(|_| (next() % 16) as u8).collect();
        let w_rm: Vec<i8> = (0..k * n).map(|_| (next() % 15) as i8 - 7).collect();
        for instr in SimdInstr::ALL {
            let a = MatrixU8::from_row_major(m, k, instr.layout(), &a_rm);
            let w = MatrixI8::from_row_major(k, n, &w_rm);
            let gemm = GemmDims::new(m, k, n);
            let addr_out = a.padded_len().div_ceil(128) * 128;
            let out_len = output_matrix_len(&gemm, instr);
            let prog = functional_program(&a, &w, instr, 4, 0, addr_out as i64);
            let mut machine = Machine::new(addr_out + out_len);
            machine.mem[..a.padded_len()].copy_from_slice(a.as_bytes());
            machine.run(&prog);
            let got = MatrixU8::from_raw(
                m, n, instr.layout(),
                machine.mem[addr_out..addr_out + out_len].to_vec(),
            );
            let expect = matmul_ref(&a, &w, 4);
            for r in 0..m {
                for c in 0..n {
                    prop_assert_eq!(got.get(r, c), expect[r][c], "{} at ({},{})", instr, r, c);
                }
            }
        }
    }
}

/// Generates a random but well-formed straight-line block: loads,
/// widening adds, narrowing shifts, stores, and pointer bumps over
/// registers chosen to create genuine hard and soft dependencies.
fn arb_block() -> impl Strategy<Value = Block> {
    let insn = (0u8..6, 0u8..4, 0u8..3).prop_map(|(kind, reg, base)| {
        let v = |i: u8| VReg::new(i % 28);
        let r = |i: u8| SReg::new(i % 8);
        match kind {
            0 => Insn::VLoad {
                dst: v(reg),
                base: r(base),
                offset: 0,
            },
            1 => Insn::VaddUbH {
                dst: VPair::new((reg % 10) * 2),
                a: v(reg),
                b: v(reg + 1),
            },
            2 => Insn::VasrHB {
                dst: v(reg + 4),
                src: VPair::new((reg % 10) * 2),
                shift: 2,
            },
            3 => Insn::VStore {
                src: v(reg),
                base: r(base + 3),
                offset: 0,
            },
            4 => Insn::AddI {
                dst: r(base),
                a: r(base),
                imm: VBYTES as i64,
            },
            _ => Insn::Vmax {
                lane: Lane::B,
                dst: v(reg + 8),
                a: v(reg),
                b: v(reg + 2),
            },
        }
    });
    proptest::collection::vec(insn, 1..24).prop_map(|insns| {
        let mut b = Block::with_trip_count("random", 2);
        b.extend(insns);
        b
    })
}

/// Blocks of every latency class the packers weigh — multiplies, the
/// scalar divider, gathers — over few registers, so hard and soft edges,
/// latency mismatches and stall penalties all occur (not executed: the
/// registers are not set up as addresses).
fn arb_mixed_block() -> impl Strategy<Value = Block> {
    let insn = (0u8..12, 0u8..4, 0u8..3, any::<bool>()).prop_map(|(kind, reg, s, acc)| {
        let v = |i: u8| VReg::new(i % 6);
        let w = |i: u8| VPair::new((i % 3) * 2);
        let r = |i: u8| SReg::new(i % 4);
        match kind {
            0 => Insn::Vmpy {
                dst: w(reg),
                src: v(reg + 1),
                weights: r(s),
                acc,
            },
            1 => Insn::Vrmpy {
                dst: v(reg),
                src: v(reg + 2),
                weights: r(s),
                acc,
            },
            2 => Insn::VasrHB {
                dst: v(reg + 3),
                src: w(reg + 1),
                shift: 2,
            },
            3 => Insn::VLoad {
                dst: v(reg),
                base: r(s),
                offset: 0,
            },
            4 => Insn::VGather {
                dst: v(reg + 1),
                base: r(s),
                offset: 128,
            },
            5 => Insn::VStore {
                src: v(reg),
                base: r(s),
                offset: 0,
            },
            6 => Insn::Ld {
                dst: r(reg),
                base: r(s),
                offset: 8,
            },
            7 => Insn::St {
                src: r(reg),
                base: r(s),
                offset: 8,
            },
            8 => Insn::Add {
                dst: r(reg),
                a: r(s),
                b: r(reg + 1),
            },
            9 => Insn::Mul {
                dst: r(reg),
                a: r(s),
                b: r(reg),
            },
            10 => Insn::Div {
                dst: r(s),
                a: r(reg),
                b: r(reg + 2),
            },
            _ => Insn::Vadd {
                lane: Lane::H,
                dst: v(reg + 2),
                a: v(reg),
                b: v(s),
            },
        }
    });
    proptest::collection::vec(insn, 1..24).prop_map(|insns| {
        let mut b = Block::new("mixed");
        b.extend(insns);
        b
    })
}

/// The packers' schedules equal the reference packers' packet for
/// packet: Algorithm 1 under each Figure 11 policy, and top-down.
fn check_against_reference(block: &Block) -> Result<(), TestCaseError> {
    let model = ResourceModel::default();
    for policy in [
        SoftDepPolicy::Sda,
        SoftDepPolicy::SoftToHard,
        SoftDepPolicy::SoftToNone,
    ] {
        let fast = Packer::new().with_policy(policy).pack_insns(&block.insns);
        let reference = pack_insns_ref(&block.insns, &model, policy, ScoreParams::default());
        prop_assert_eq!(&fast[..], &reference[..], "{:?}", policy);
    }
    prop_assert_eq!(
        pack_insns_topdown(&block.insns, &model),
        pack_insns_topdown_ref(&block.insns, &model)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packers_match_the_reference_packers(block in arb_block()) {
        check_against_reference(&block)?;
    }

    #[test]
    fn packers_match_the_reference_packers_on_mixed_latencies(block in arb_mixed_block()) {
        check_against_reference(&block)?;
    }

    /// Every packing policy emits legal schedules that preserve both the
    /// instruction multiset and the functional results.
    #[test]
    fn packing_preserves_semantics(block in arb_block()) {
        let model = ResourceModel::default();
        let mem_size = 64 * 1024usize;
        let run = |pb: &PackedBlock| {
            let mut m = Machine::new(mem_size);
            for i in 0..mem_size {
                m.mem[i] = (i % 253) as u8;
            }
            for i in 0..8 {
                m.set_sreg(SReg::new(i), (i as i64) * 4096 + 1024);
            }
            m.run_block(pb);
            m.mem
        };
        let reference = run(&PackedBlock::sequential(&block));
        for policy in [SoftDepPolicy::Sda, SoftDepPolicy::SoftToHard, SoftDepPolicy::SoftToNone] {
            let packed = pack_with_policy(&block, policy);
            prop_assert!(packed.is_legal(&model), "{:?} produced an illegal schedule", policy);
            prop_assert_eq!(packed.insn_count(), block.len(), "{:?} lost instructions", policy);
            if policy == SoftDepPolicy::SoftToHard {
                prop_assert!(no_intra_packet_deps(&packed));
            }
            prop_assert_eq!(run(&packed), reference.clone(), "{:?} changed results", policy);
        }
    }

    /// SDA never schedules more cycles than issuing one instruction per
    /// packet.
    #[test]
    fn sda_never_worse_than_sequential(block in arb_block()) {
        let sda = Packer::new().pack_block(&block).body_cycles();
        let seq = PackedBlock::sequential(&block).body_cycles();
        prop_assert!(sda <= seq, "sda {} vs sequential {}", sda, seq);
    }
}
