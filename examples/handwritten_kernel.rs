//! Hand-written assembly: author a requantizing vector kernel in the
//! textual DSP assembly, parse it, check the schedule's legality and
//! cost, execute it, and verify the numerics — the workflow for
//! experimenting with new kernels without touching the generators.
//!
//! ```sh
//! cargo run --release --example handwritten_kernel
//! ```

use gcd2_hvx::{parse_program, print_program, Machine, ResourceModel, SReg, VBYTES};

/// `out[i] = sat_ub((a[i] + b[i]) >> 1)` over 4 vectors, written by hand.
/// r0/r1 point at the inputs, r2 at the output.
const KERNEL: &str = "
// averaging kernel (x4)
{
    v0 = vmem(r0+#0)
    v1 = vmem(r1+#0)
    r0 = add(r0, #128)
    r1 = add(r1, #128)
}
{
    w1.h = vadd(v0.ub, v1.ub)
}
{
    v4.ub = vasr(w1.h, #1):sat
}
{
    vmem(r2+#0) = v4
    r2 = add(r2, #128)
}
";

fn main() {
    let program = parse_program(KERNEL).expect("kernel parses");
    let block = &program.blocks[0];

    // Static checks: every packet legal, cost visible up front.
    let model = ResourceModel::default();
    for p in block.packets.iter() {
        assert!(p.is_legal(&model), "illegal packet:\n{p}");
    }
    println!(
        "parsed {} packets, {} cycles per iteration, {} iterations",
        block.packets.len(),
        block.body_cycles(),
        block.trip_count
    );
    println!("\n{}", print_program(&program));

    // Execute.
    let n = 4 * VBYTES;
    let mut m = Machine::new(4 * n);
    for i in 0..n {
        m.mem[i] = (i % 251) as u8; // a
        m.mem[n + i] = (i % 73) as u8; // b
    }
    m.set_sreg(SReg::new(0), 0);
    m.set_sreg(SReg::new(1), n as i64);
    m.set_sreg(SReg::new(2), 2 * n as i64);
    m.run(&program);

    // Verify against the scalar reference.
    for i in 0..n {
        let expect = ((i % 251) as u16 + (i % 73) as u16) >> 1;
        let got = m.mem[2 * n + i] as u16;
        assert_eq!(got, expect, "element {i}");
    }
    println!("all {n} outputs match the scalar reference ✔");

    // How much does the hand schedule leave on the table? Re-pack the
    // flattened instructions with SDA and compare.
    let mut flat = gcd2_hvx::Block::with_trip_count("flat", block.trip_count);
    for p in block.packets.iter() {
        flat.extend(p.insns().iter().cloned());
    }
    let sda = gcd2_vliw::Packer::new().pack_block(&flat);
    println!(
        "hand schedule: {} cycles/iter | SDA repack: {} cycles/iter",
        block.body_cycles(),
        sda.body_cycles()
    );
}
