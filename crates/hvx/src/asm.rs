//! Textual assembly for the simulated DSP: a printer for whole programs
//! (packets in braces, Hexagon style) and a parser for the same syntax,
//! so kernels can be written, diffed, and golden-tested as text.
//!
//! ```text
//! // matmul body (x128)
//! {
//!     v0 = vmem(r0+#0)
//!     r3 = mem(r1+#0)
//!     w4.h += vmpy(v8.ub, r3.b)
//!     r0 = add(r0, #128)
//! }
//! ```

use crate::insn::{Insn, Lane};
use crate::packet::Packet;
use crate::program::{PackedBlock, Program};
use crate::reg::{SReg, VPair, VReg};
use std::fmt::Write as _;

/// Renders a whole program, one brace-delimited packet per issue slot,
/// with block labels and trip counts as comments.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for block in &program.blocks {
        let _ = writeln!(out, "// {} (x{})", block.label, block.trip_count);
        for packet in block.packets.iter() {
            let _ = writeln!(out, "{packet}");
        }
    }
    out
}

/// A parse failure, with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAsmError {}

/// Parses the printer's syntax back into a program. Block comments of
/// the form `// label (xN)` start a new block with trip count `N`;
/// packets are brace-delimited.
pub fn parse_program(text: &str) -> Result<Program, ParseAsmError> {
    let mut program = Program::new();
    // The open block: label, trip count and its packets so far.
    let mut block: Option<(String, u64, Vec<Packet>)> = None;
    let close = |(label, trip_count, packets): (String, u64, Vec<Packet>)| PackedBlock {
        packets: packets.into(),
        trip_count,
        label: label.into(),
    };
    let mut packet: Option<Vec<Insn>> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx + 1;
        let err = |message: &str| ParseAsmError {
            line: lineno,
            message: message.into(),
        };
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("//") {
            // New block header.
            if let Some(b) = block.take() {
                program.push(close(b));
            }
            let rest = rest.trim();
            let (label, trips) = match rest.rfind("(x") {
                Some(p) if rest.ends_with(')') => {
                    let trips: u64 = rest[p + 2..rest.len() - 1]
                        .parse()
                        .map_err(|_| err("bad trip count"))?;
                    (rest[..p].trim().to_string(), trips)
                }
                _ => (rest.to_string(), 1),
            };
            block = Some((label, trips, Vec::new()));
        } else if line == "{" {
            if packet.is_some() {
                return Err(err("nested packet"));
            }
            packet = Some(Vec::new());
        } else if line == "}" {
            let insns = packet.take().ok_or_else(|| err("unmatched '}'"))?;
            let (_, _, packets) = block.get_or_insert_with(|| ("block".into(), 1, Vec::new()));
            packets.push(Packet::from_insns(insns));
        } else {
            let p = packet
                .as_mut()
                .ok_or_else(|| err("instruction outside a packet"))?;
            p.push(parse_insn(line).map_err(|m| err(&m))?);
        }
    }
    if packet.is_some() {
        return Err(ParseAsmError {
            line: text.lines().count(),
            message: "unclosed packet".into(),
        });
    }
    if let Some(b) = block.take() {
        program.push(close(b));
    }
    Ok(program)
}

fn vreg(tok: &str) -> Result<VReg, String> {
    let n: u8 = tok
        .strip_prefix('v')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad vector register '{tok}'"))?;
    if n >= 32 {
        return Err(format!("vector register out of range '{tok}'"));
    }
    Ok(VReg::new(n))
}

fn vpair(tok: &str) -> Result<VPair, String> {
    let n: u8 = tok
        .strip_prefix('w')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad vector pair '{tok}'"))?;
    if n >= 16 {
        return Err(format!("vector pair out of range '{tok}'"));
    }
    Ok(VPair::new(n * 2))
}

fn sreg(tok: &str) -> Result<SReg, String> {
    let n: u8 = tok
        .strip_prefix('r')
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad scalar register '{tok}'"))?;
    if n >= 32 {
        return Err(format!("scalar register out of range '{tok}'"));
    }
    Ok(SReg::new(n))
}

fn imm(tok: &str) -> Result<i64, String> {
    tok.strip_prefix('#')
        .unwrap_or(tok)
        .parse()
        .map_err(|_| format!("bad immediate '{tok}'"))
}

/// Strips a `.b`/`.h`/`.w`/`.ub` suffix.
fn base(tok: &str) -> &str {
    tok.split('.').next().unwrap_or(tok)
}

fn lane_of(dst: &str) -> Result<Lane, String> {
    match dst.split('.').nth(1) {
        Some("b") | Some("ub") => Ok(Lane::B),
        Some("h") => Ok(Lane::H),
        Some("w") => Ok(Lane::W),
        other => Err(format!("missing lane suffix ('{other:?}')")),
    }
}

/// Splits `f(a, b, c)` into (`f`, [`a`, `b`, `c`]).
fn call(expr: &str) -> Result<(&str, Vec<&str>), String> {
    let open = expr
        .find('(')
        .ok_or_else(|| format!("expected call syntax in '{expr}'"))?;
    let inner = expr[open + 1..]
        .strip_suffix(')')
        .or_else(|| expr[open + 1..].strip_suffix("):sat"))
        .ok_or_else(|| format!("unterminated call in '{expr}'"))?;
    Ok((&expr[..open], inner.split(',').map(str::trim).collect()))
}

/// Splits `mem(base+#off)`-style address expressions.
fn mem_addr(arg: &str) -> Result<(SReg, i64), String> {
    let (base_tok, off_tok) = arg
        .split_once('+')
        .ok_or_else(|| format!("bad address '{arg}'"))?;
    Ok((sreg(base_tok.trim())?, imm(off_tok.trim())?))
}

/// Parses one instruction in the printer's syntax.
pub fn parse_insn(line: &str) -> Result<Insn, String> {
    let line = line.trim();
    if line == "nop" {
        return Ok(Insn::Nop);
    }
    // Store forms have the memory access on the left.
    if line.starts_with("vmem(") || line.starts_with("mem(") {
        let (lhs, rhs) = line.split_once('=').ok_or("missing '='")?;
        let (kind, args) = call(lhs.trim())?;
        let (b, off) = mem_addr(args.first().ok_or("missing address")?)?;
        return match kind {
            "vmem" => Ok(Insn::VStore {
                src: vreg(base(rhs.trim()))?,
                base: b,
                offset: off,
            }),
            "mem" => Ok(Insn::St {
                src: sreg(base(rhs.trim()))?,
                base: b,
                offset: off,
            }),
            _ => Err(format!("unknown store '{kind}'")),
        };
    }

    let (lhs, rhs) = line.split_once('=').ok_or("missing '='")?;
    let acc = lhs.trim_end().ends_with('+');
    let dst = lhs.trim_end().trim_end_matches('+').trim();
    let rhs = rhs.trim();

    // Pure immediate move: `r0 = #42`.
    if rhs.starts_with('#') {
        return Ok(Insn::Movi {
            dst: sreg(base(dst))?,
            imm: imm(rhs)?,
        });
    }
    // Accumulating vector add: `v4.h += v6.h` prints as `v4.h += v6.h`.
    if !rhs.contains('(') {
        return Ok(Insn::VaddHAcc {
            dst: vreg(base(dst))?,
            src: vreg(base(rhs))?,
        });
    }

    let (op, args) = call(rhs)?;
    let arg = |i: usize| -> Result<&str, String> {
        args.get(i)
            .copied()
            .ok_or_else(|| format!("missing operand {i} of '{op}'"))
    };
    match op {
        "vmpy" => {
            // vector-vector (elementwise) vs vector-scalar form.
            if arg(1)?.starts_with('v') {
                Ok(Insn::VmulUbH {
                    dst: vpair(base(dst))?,
                    a: vreg(base(arg(0)?))?,
                    b: vreg(base(arg(1)?))?,
                })
            } else {
                Ok(Insn::Vmpy {
                    dst: vpair(base(dst))?,
                    src: vreg(base(arg(0)?))?,
                    weights: sreg(base(arg(1)?))?,
                    acc,
                })
            }
        }
        "vmpa" => Ok(Insn::Vmpa {
            dst: vreg(base(dst))?,
            src: vreg(base(arg(0)?))?,
            weights: sreg(base(arg(1)?))?,
            acc,
        }),
        "vrmpy" => Ok(Insn::Vrmpy {
            dst: vreg(base(dst))?,
            src: vreg(base(arg(0)?))?,
            weights: sreg(base(arg(1)?))?,
            acc,
        }),
        "vtmpy" => Ok(Insn::Vtmpy {
            dst: vpair(base(dst))?,
            src: vpair(base(arg(0)?))?,
            weights: sreg(base(arg(1)?))?,
            acc,
        }),
        "vadd" => {
            if arg(0)?.ends_with(".ub") {
                Ok(Insn::VaddUbH {
                    dst: vpair(base(dst))?,
                    a: vreg(base(arg(0)?))?,
                    b: vreg(base(arg(1)?))?,
                })
            } else {
                Ok(Insn::Vadd {
                    lane: lane_of(dst)?,
                    dst: vreg(base(dst))?,
                    a: vreg(base(arg(0)?))?,
                    b: vreg(base(arg(1)?))?,
                })
            }
        }
        "vsub" => Ok(Insn::Vsub {
            lane: lane_of(dst)?,
            dst: vreg(base(dst))?,
            a: vreg(base(arg(0)?))?,
            b: vreg(base(arg(1)?))?,
        }),
        "vmax" => Ok(Insn::Vmax {
            lane: lane_of(dst)?,
            dst: vreg(base(dst))?,
            a: vreg(base(arg(0)?))?,
            b: vreg(base(arg(1)?))?,
        }),
        "vmin" => Ok(Insn::Vmin {
            lane: lane_of(dst)?,
            dst: vreg(base(dst))?,
            a: vreg(base(arg(0)?))?,
            b: vreg(base(arg(1)?))?,
        }),
        "vsplat" => Ok(Insn::Vsplat {
            dst: vreg(base(dst))?,
            src: sreg(base(arg(0)?))?,
        }),
        "vasr" => {
            if args.len() == 3 {
                Ok(Insn::VasrWH {
                    dst: vreg(base(dst))?,
                    a: vreg(base(arg(0)?))?,
                    b: vreg(base(arg(1)?))?,
                    shift: imm(arg(2)?)? as u8,
                })
            } else {
                Ok(Insn::VasrHB {
                    dst: vreg(base(dst))?,
                    src: vpair(base(arg(0)?))?,
                    shift: imm(arg(1)?)? as u8,
                })
            }
        }
        "vshuff" => {
            let dst_pair = vpair(base(dst))?;
            let src_pair = vpair(base(arg(0)?))?;
            if dst.ends_with(".b") {
                Ok(Insn::VshuffB {
                    dst: dst_pair,
                    src: src_pair,
                })
            } else {
                Ok(Insn::VshuffH {
                    dst: dst_pair,
                    src: src_pair,
                })
            }
        }
        "vdeal" => {
            let dst_pair = vpair(base(dst))?;
            let src_pair = vpair(base(arg(0)?))?;
            if dst.ends_with(".b") {
                Ok(Insn::VdealB {
                    dst: dst_pair,
                    src: src_pair,
                })
            } else {
                Ok(Insn::VdealH {
                    dst: dst_pair,
                    src: src_pair,
                })
            }
        }
        "vlut" => Ok(Insn::VlutB {
            dst: vreg(base(dst))?,
            idx: vreg(base(arg(0)?))?,
            table: vreg(base(arg(1)?))?,
        }),
        "vmem" => {
            let (b, off) = mem_addr(arg(0)?)?;
            Ok(Insn::VLoad {
                dst: vreg(base(dst))?,
                base: b,
                offset: off,
            })
        }
        "vgather" => {
            let (b, off) = mem_addr(arg(0)?)?;
            Ok(Insn::VGather {
                dst: vreg(base(dst))?,
                base: b,
                offset: off,
            })
        }
        "mem" => {
            let (b, off) = mem_addr(arg(0)?)?;
            Ok(Insn::Ld {
                dst: sreg(base(dst))?,
                base: b,
                offset: off,
            })
        }
        "add" => {
            let second = arg(1)?;
            if second.starts_with('#') {
                Ok(Insn::AddI {
                    dst: sreg(base(dst))?,
                    a: sreg(base(arg(0)?))?,
                    imm: imm(second)?,
                })
            } else {
                Ok(Insn::Add {
                    dst: sreg(base(dst))?,
                    a: sreg(base(arg(0)?))?,
                    b: sreg(base(second))?,
                })
            }
        }
        "sub" => Ok(Insn::Sub {
            dst: sreg(base(dst))?,
            a: sreg(base(arg(0)?))?,
            b: sreg(base(arg(1)?))?,
        }),
        "mul" => Ok(Insn::Mul {
            dst: sreg(base(dst))?,
            a: sreg(base(arg(0)?))?,
            b: sreg(base(arg(1)?))?,
        }),
        "div" => Ok(Insn::Div {
            dst: sreg(base(dst))?,
            a: sreg(base(arg(0)?))?,
            b: sreg(base(arg(1)?))?,
        }),
        "asl" => Ok(Insn::Shl {
            dst: sreg(base(dst))?,
            a: sreg(base(arg(0)?))?,
            imm: imm(arg(1)?)? as u8,
        }),
        "asr" => Ok(Insn::Shr {
            dst: sreg(base(dst))?,
            a: sreg(base(arg(0)?))?,
            imm: imm(arg(1)?)? as u8,
        }),
        other => Err(format!("unknown mnemonic '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;
    use crate::program::Block;

    fn all_printable_insns() -> Vec<Insn> {
        let v = VReg::new;
        let w = |i: u8| VPair::new(i);
        let r = SReg::new;
        vec![
            Insn::Vmpy {
                dst: w(4),
                src: v(2),
                weights: r(1),
                acc: true,
            },
            Insn::Vmpa {
                dst: v(3),
                src: v(2),
                weights: r(1),
                acc: false,
            },
            Insn::Vrmpy {
                dst: v(3),
                src: v(2),
                weights: r(1),
                acc: true,
            },
            Insn::Vtmpy {
                dst: w(4),
                src: w(6),
                weights: r(1),
                acc: false,
            },
            Insn::Vadd {
                lane: Lane::H,
                dst: v(1),
                a: v(2),
                b: v(3),
            },
            Insn::Vsub {
                lane: Lane::W,
                dst: v(1),
                a: v(2),
                b: v(3),
            },
            Insn::Vmax {
                lane: Lane::B,
                dst: v(1),
                a: v(2),
                b: v(3),
            },
            Insn::Vmin {
                lane: Lane::H,
                dst: v(1),
                a: v(2),
                b: v(3),
            },
            Insn::VaddUbH {
                dst: w(4),
                a: v(1),
                b: v(2),
            },
            Insn::VaddHAcc {
                dst: v(4),
                src: v(6),
            },
            Insn::VmulUbH {
                dst: w(4),
                a: v(1),
                b: v(2),
            },
            Insn::Vsplat {
                dst: v(9),
                src: r(7),
            },
            Insn::VasrHB {
                dst: v(1),
                src: w(4),
                shift: 6,
            },
            Insn::VasrWH {
                dst: v(1),
                a: v(8),
                b: v(10),
                shift: 2,
            },
            Insn::VshuffH {
                dst: w(4),
                src: w(6),
            },
            Insn::VdealH {
                dst: w(4),
                src: w(6),
            },
            Insn::VshuffB {
                dst: w(4),
                src: w(6),
            },
            Insn::VdealB {
                dst: w(4),
                src: w(6),
            },
            Insn::VlutB {
                dst: v(1),
                idx: v(2),
                table: v(31),
            },
            Insn::VLoad {
                dst: v(5),
                base: r(0),
                offset: 256,
            },
            Insn::VGather {
                dst: v(5),
                base: r(0),
                offset: 384,
            },
            Insn::VStore {
                src: v(5),
                base: r(1),
                offset: 128,
            },
            Insn::Movi {
                dst: r(3),
                imm: -42,
            },
            Insn::Add {
                dst: r(3),
                a: r(1),
                b: r(2),
            },
            Insn::AddI {
                dst: r(3),
                a: r(3),
                imm: 128,
            },
            Insn::Sub {
                dst: r(3),
                a: r(1),
                b: r(2),
            },
            Insn::Mul {
                dst: r(3),
                a: r(1),
                b: r(2),
            },
            Insn::Div {
                dst: r(3),
                a: r(1),
                b: r(2),
            },
            Insn::Shl {
                dst: r(3),
                a: r(1),
                imm: 4,
            },
            Insn::Shr {
                dst: r(3),
                a: r(1),
                imm: 4,
            },
            Insn::Ld {
                dst: r(3),
                base: r(0),
                offset: 8,
            },
            Insn::St {
                src: r(3),
                base: r(0),
                offset: 8,
            },
            Insn::Nop,
        ]
    }

    #[test]
    fn every_instruction_round_trips() {
        for insn in all_printable_insns() {
            let text = insn.to_string();
            let parsed = parse_insn(&text).unwrap_or_else(|e| panic!("'{text}': {e}"));
            assert_eq!(parsed, insn, "round trip of '{text}'");
        }
    }

    #[test]
    fn program_round_trips() {
        let mut block = Block::with_trip_count("kernel body", 17);
        block.extend(all_printable_insns());
        let packed = crate::program::PackedBlock::sequential(&block);
        let mut program = Program::new();
        program.push(packed);
        let text = print_program(&program);
        let back = parse_program(&text).expect("parse");
        assert_eq!(back, program);
        assert_eq!(back.blocks[0].trip_count, 17);
        assert_eq!(back.blocks[0].label.to_string(), "kernel body");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_program("{\n  v0 = bogus(v1)\n}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
        let err = parse_program("v0 = vsplat(r1)").unwrap_err();
        assert!(err.message.contains("outside"));
        assert!(parse_program("{\n{\n").is_err());
    }

    #[test]
    fn hand_written_packet_executes() {
        let text = "\
// copy loop (x2)
{
    v0 = vmem(r0+#0)
    r0 = add(r0, #128)
}
{
    vmem(r1+#0) = v0
    r1 = add(r1, #128)
}
";
        let program = parse_program(text).expect("parse");
        let mut m = crate::machine::Machine::new(1024);
        for i in 0..256 {
            m.mem[i] = (i % 100) as u8;
        }
        m.set_sreg(SReg::new(1), 512);
        m.run(&program);
        assert_eq!(&m.mem[512..768], &m.mem[..256].to_vec()[..]);
    }
}
