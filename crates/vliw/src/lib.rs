//! # gcd2-vliw — Soft-Dependency-Aware VLIW instruction packing
//!
//! The paper's third contribution (Section IV-C): a list scheduler for
//! VLIW packets that distinguishes *hard* dependencies (never share a
//! packet) from *soft* ones (may share a packet at a stall penalty),
//! seeds each packet from the tail of the critical path, and ranks
//! candidates with Equation 4. The `soft_to_hard` and `soft_to_none`
//! policies reproduce the Figure 11 ablation.
//!
//! ```
//! use gcd2_hvx::{Block, Insn, SReg};
//! use gcd2_vliw::{Packer, SoftDepPolicy};
//!
//! let mut block = Block::new("example");
//! block.push(Insn::Ld { dst: SReg::new(1), base: SReg::new(0), offset: 0 });
//! block.push(Insn::Add { dst: SReg::new(3), a: SReg::new(2), b: SReg::new(1) });
//!
//! // SDA packs the soft-dependent pair together (4 cycles)...
//! let sda = Packer::new().pack_block(&block);
//! assert_eq!(sda.packets.len(), 1);
//! // ...soft_to_hard splits them (6 cycles).
//! let s2h = Packer::new().with_policy(SoftDepPolicy::SoftToHard).pack_block(&block);
//! assert_eq!(s2h.packets.len(), 2);
//! assert!(sda.body_cycles() < s2h.body_cycles());
//! ```

pub mod idg;
pub mod memo;
pub mod reference;
pub mod sda;
pub mod topdown;

pub use idg::{DepEdge, Idg};
pub use memo::{CacheStats, Memo};
pub use reference::{pack_insns_ref, pack_insns_topdown_ref};
pub use sda::{
    no_intra_packet_deps, pack_with_policy, PackMemo, Packer, ScoreParams, SoftDepPolicy,
};
pub use topdown::{pack_insns_topdown, pack_topdown};
