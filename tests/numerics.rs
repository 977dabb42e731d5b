//! Cross-crate numeric integration: scheduled kernels on the functional
//! simulator against scalar references, with schedules produced by the
//! real packer (not hand-written packets).
#![allow(clippy::needless_range_loop)]

use gcd2_repro::cgraph::GemmDims;
use gcd2_repro::hvx::{Machine, Program};
use gcd2_repro::kernels::{functional_program, matmul_ref, output_matrix_len, SimdInstr};
use gcd2_repro::tensor::{Layout, MatrixI8, MatrixU8};
use gcd2_repro::vliw::{Packer, SoftDepPolicy};

/// Re-schedules a functional program's blocks with a packer, preserving
/// semantics.
fn repack(program: &Program, policy: SoftDepPolicy) -> Program {
    let packer = Packer::new().with_policy(policy);
    program
        .blocks
        .iter()
        .map(|pb| {
            let mut block =
                gcd2_repro::hvx::Block::with_trip_count(pb.label.clone(), pb.trip_count);
            for packet in pb.packets.iter() {
                block.extend(packet.insns().iter().cloned());
            }
            packer.pack_block(&block)
        })
        .collect()
}

#[test]
fn scheduled_matmul_kernels_stay_correct() {
    let (m, k, n) = (70, 10, 5);
    let a_rm: Vec<u8> = (0..m * k).map(|i| (i * 11 % 16) as u8).collect();
    let w_rm: Vec<i8> = (0..k * n).map(|i| ((i * 3 % 15) as i8) - 7).collect();
    for instr in SimdInstr::ALL {
        let a = MatrixU8::from_row_major(m, k, instr.layout(), &a_rm);
        let w = MatrixI8::from_row_major(k, n, &w_rm);
        let gemm = GemmDims::new(m, k, n);
        let addr_out = a.padded_len().div_ceil(128) * 128;
        let out_len = output_matrix_len(&gemm, instr);
        let base = functional_program(&a, &w, instr, 4, 0, addr_out as i64);
        let expect = matmul_ref(&a, &w, 4);

        for policy in [
            SoftDepPolicy::Sda,
            SoftDepPolicy::SoftToHard,
            SoftDepPolicy::SoftToNone,
        ] {
            let program = repack(&base, policy);
            let mut machine = Machine::new(addr_out + out_len);
            machine.mem[..a.padded_len()].copy_from_slice(a.as_bytes());
            machine.run(&program);
            let got = MatrixU8::from_raw(
                m,
                n,
                instr.layout(),
                machine.mem[addr_out..addr_out + out_len].to_vec(),
            );
            for r in 0..m {
                for c in 0..n {
                    assert_eq!(
                        got.get(r, c),
                        expect[r][c],
                        "{instr} under {policy:?} at ({r},{c})"
                    );
                }
            }
        }
    }
}

#[test]
fn layout_round_trips_through_all_formats() {
    let values: Vec<u8> = (0..200u32 * 7).map(|i| (i * 13 % 251) as u8).collect();
    let base = MatrixU8::from_row_major(200, 7, Layout::RowMajor, &values);
    // Chain of conversions covering every pair ends where it started.
    let chain = [
        Layout::Col1,
        Layout::Col4,
        Layout::Col2,
        Layout::Col1,
        Layout::RowMajor,
    ];
    let mut cur = base.clone();
    for l in chain {
        cur = cur.to_layout(l);
    }
    assert_eq!(cur.to_row_major_vec(), values);
}
