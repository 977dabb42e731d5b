//! Scheduler playground: build the paper's Figure 5 style basic block
//! (2-D elementwise add, `R = A + B + C`), pack it with the three
//! policies, print the packets, and run them functionally on the
//! simulated DSP to show all schedules compute identical results.
//!
//! ```sh
//! cargo run --release --example scheduler_playground
//! ```

use gcd2_hvx::{Block, Insn, Machine, PackedBlock, SReg, VPair, VReg, VBYTES};
use gcd2_vliw::{pack_with_policy, SoftDepPolicy};

fn v(i: u8) -> VReg {
    VReg::new(i)
}
fn w(i: u8) -> VPair {
    VPair::new(i)
}
fn r(i: u8) -> SReg {
    SReg::new(i)
}

/// The inner loop of `R = A + B + C` (A, B, C u8 arrays; R int16),
/// the running example of the paper's Figure 5.
fn add3_block(trips: u64) -> Block {
    let mut b = Block::with_trip_count("R = A + B + C", trips);
    b.extend([
        Insn::VLoad {
            dst: v(0),
            base: r(0),
            offset: 0,
        },
        Insn::VLoad {
            dst: v(1),
            base: r(1),
            offset: 0,
        },
        Insn::VLoad {
            dst: v(2),
            base: r(2),
            offset: 0,
        },
        Insn::VaddUbH {
            dst: w(4),
            a: v(0),
            b: v(1),
        },
        Insn::VaddUbH {
            dst: w(6),
            a: v(2),
            b: v(30),
        },
        Insn::VaddHAcc {
            dst: v(4),
            src: v(6),
        },
        Insn::VaddHAcc {
            dst: v(5),
            src: v(7),
        },
        Insn::VStore {
            src: v(4),
            base: r(3),
            offset: 0,
        },
        Insn::VStore {
            src: v(5),
            base: r(3),
            offset: VBYTES as i64,
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
        Insn::AddI {
            dst: r(2),
            a: r(2),
            imm: VBYTES as i64,
        },
        Insn::AddI {
            dst: r(3),
            a: r(3),
            imm: 2 * VBYTES as i64,
        },
    ]);
    b
}

fn run(block: &PackedBlock, elems: usize) -> Vec<u8> {
    let mut m = Machine::new(8 * elems);
    for i in 0..elems {
        m.mem[i] = (i % 97) as u8;
        m.mem[elems + i] = (i % 89) as u8;
        m.mem[2 * elems + i] = (i % 83) as u8;
    }
    m.set_sreg(r(0), 0);
    m.set_sreg(r(1), elems as i64);
    m.set_sreg(r(2), 2 * elems as i64);
    m.set_sreg(r(3), 3 * elems as i64);
    m.run_block(block);
    m.mem[3 * elems..3 * elems + 2 * elems].to_vec()
}

fn main() {
    let trips = 4u64;
    let elems = trips as usize * VBYTES;
    let block = add3_block(trips);

    let mut reference: Option<Vec<u8>> = None;
    for (name, policy) in [
        ("SDA (Algorithm 1)", SoftDepPolicy::Sda),
        ("soft_to_hard", SoftDepPolicy::SoftToHard),
        ("soft_to_none", SoftDepPolicy::SoftToNone),
    ] {
        let packed = pack_with_policy(&block, policy);
        println!(
            "=== {name}: {} packets, {} cycles/iteration",
            packed.packets.len(),
            packed.body_cycles()
        );
        for p in packed.packets.iter() {
            println!("{p}");
        }
        let out = run(&packed, elems);
        match &reference {
            None => reference = Some(out),
            Some(expect) => assert_eq!(&out, expect, "{name} changed the results!"),
        }
        println!();
    }
    println!(
        "All three schedules computed identical results (verified on the functional simulator)."
    );
    println!("The paper's Figure 5 shows the same effect: SDA emits 3 packets where soft_to_hard needs 5.");
}
