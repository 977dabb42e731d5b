//! Register newtypes for the simulated HVX-like DSP.
//!
//! The machine has 32 scalar registers (`R0..R31`, 64-bit in the simulator,
//! 32-bit semantics for packed weight bytes) and 32 vector registers
//! (`V0..V31`, each [`VBYTES`] = 128 bytes wide, i.e. 1024 bits like the
//! Hexagon 698 HVX). Adjacent even/odd vector registers can be addressed as
//! a *vector pair* (`W0 = V1:V0`, `W2 = V3:V2`, ...), matching Hexagon's
//! `Vdd` pair operands.

use std::fmt;

/// Width of one vector register in bytes (1024 bits).
pub const VBYTES: usize = 128;
/// Number of 16-bit lanes in one vector register.
pub const HLANES: usize = VBYTES / 2;
/// Number of 32-bit lanes in one vector register.
pub const WLANES: usize = VBYTES / 4;
/// Number of vector registers.
pub const NUM_VREGS: u8 = 32;
/// Number of scalar registers.
pub const NUM_SREGS: u8 = 32;

/// A scalar register `R0..R31`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SReg(u8);

impl SReg {
    /// Creates a scalar register handle.
    ///
    /// # Panics
    /// Panics if `index >= 32`.
    pub fn new(index: u8) -> Self {
        assert!(
            index < NUM_SREGS,
            "scalar register index {index} out of range"
        );
        SReg(index)
    }

    /// The register index (0..32).
    pub fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for SReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A vector register `V0..V31` (128 bytes wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(u8);

impl VReg {
    /// Creates a vector register handle.
    ///
    /// # Panics
    /// Panics if `index >= 32`.
    pub fn new(index: u8) -> Self {
        assert!(
            index < NUM_VREGS,
            "vector register index {index} out of range"
        );
        VReg(index)
    }

    /// The register index (0..32).
    pub fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A vector register pair `W(n/2) = V(n+1):V(n)`, `n` even.
///
/// Pairs hold 256 bytes and are the destination of the widening multiply
/// instructions (`vmpy`, `vmpa`, `vtmpy`) and the source of narrowing
/// shifts. `lo()` is the even register, `hi()` the odd one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VPair(u8);

impl VPair {
    /// Creates a pair rooted at an even vector register index.
    ///
    /// # Panics
    /// Panics if `even_index` is odd or `>= 32`.
    pub fn new(even_index: u8) -> Self {
        assert!(
            even_index < NUM_VREGS,
            "vector pair index {even_index} out of range"
        );
        assert!(
            even_index.is_multiple_of(2),
            "vector pair must be rooted at an even register"
        );
        VPair(even_index)
    }

    /// The low (even) register of the pair.
    pub fn lo(self) -> VReg {
        VReg(self.0)
    }

    /// The high (odd) register of the pair.
    pub fn hi(self) -> VReg {
        VReg(self.0 + 1)
    }

    /// The even root index.
    pub fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for VPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0 / 2)
    }
}

/// Any architectural register, used by dependence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reg {
    /// A scalar register.
    S(SReg),
    /// A vector register (pairs are expanded into their two halves).
    V(VReg),
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::S(r) => write!(f, "{r}"),
            Reg::V(r) => write!(f, "{r}"),
        }
    }
}

impl From<SReg> for Reg {
    fn from(r: SReg) -> Self {
        Reg::S(r)
    }
}

impl From<VReg> for Reg {
    fn from(r: VReg) -> Self {
        Reg::V(r)
    }
}

impl Reg {
    /// The register's bit in a [`RegSet`]: `r0`–`r31` are bits 0–31,
    /// `v0`–`v31` bits 32–63.
    pub fn bit(self) -> u64 {
        match self {
            Reg::S(r) => 1 << r.0,
            Reg::V(r) => 1 << (32 + r.0),
        }
    }
}

/// A set of architectural registers in one `u64`: bit `i` is `ri` for
/// `i < 32` and `v(i − 32)` above. A vector pair is its two halves, so
/// overlap between a pair and one of its members is a plain
/// intersection, and dependence checks allocate nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegSet(u64);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// The set with `reg` added.
    pub fn with(self, reg: impl Into<Reg>) -> RegSet {
        RegSet(self.0 | reg.into().bit())
    }

    /// The set with both halves of `pair` added.
    pub fn with_pair(self, pair: VPair) -> RegSet {
        self.with(pair.lo()).with(pair.hi())
    }

    /// Whether `reg` is in the set.
    pub fn contains(self, reg: impl Into<Reg>) -> bool {
        self.0 & reg.into().bit() != 0
    }

    /// True when the set holds no register.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether the two sets share a register.
    pub fn intersects(self, other: RegSet) -> bool {
        self.0 & other.0 != 0
    }

    /// The registers of the set: scalar ones first, each kind in index
    /// order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros() as u8;
            bits &= bits - 1;
            Some(if i < 32 {
                Reg::S(SReg(i))
            } else {
                Reg::V(VReg(i - 32))
            })
        })
    }
}

impl std::ops::BitAnd for RegSet {
    type Output = RegSet;
    fn bitand(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }
}

impl std::ops::BitOr for RegSet {
    type Output = RegSet;
    fn bitor(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }
}

impl std::ops::BitOrAssign for RegSet {
    fn bitor_assign(&mut self, other: RegSet) {
        self.0 |= other.0;
    }
}

impl std::ops::Sub for RegSet {
    type Output = RegSet;
    /// The registers of `self` not in `other`.
    fn sub(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<T: IntoIterator<Item = Reg>>(iter: T) -> Self {
        iter.into_iter().fold(RegSet::EMPTY, RegSet::with)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_halves() {
        let w = VPair::new(4);
        assert_eq!(w.lo(), VReg::new(4));
        assert_eq!(w.hi(), VReg::new(5));
        assert_eq!(w.to_string(), "w2");
    }

    #[test]
    #[should_panic(expected = "even register")]
    fn odd_pair_rejected() {
        let _ = VPair::new(3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vreg_out_of_range() {
        let _ = VReg::new(32);
    }

    #[test]
    fn reg_set_bits_and_pairs() {
        let s = RegSet::EMPTY.with(SReg::new(31)).with_pair(VPair::new(4));
        assert!(s.contains(VReg::new(5)) && s.contains(SReg::new(31)));
        assert!(!s.contains(VReg::new(31)) && !s.contains(SReg::new(5)));
        let t = RegSet::EMPTY.with(VReg::new(4));
        assert!(s.intersects(t));
        assert_eq!(s & t, t);
        assert_eq!(s - t, RegSet::EMPTY.with(SReg::new(31)).with(VReg::new(5)));
        let regs: Vec<_> = s.iter().collect();
        assert_eq!(
            regs,
            [
                SReg::new(31).into(),
                VReg::new(4).into(),
                VReg::new(5).into()
            ]
        );
        assert_eq!(regs.into_iter().collect::<RegSet>(), s);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SReg::new(7).to_string(), "r7");
        assert_eq!(VReg::new(31).to_string(), "v31");
        assert_eq!(Reg::from(SReg::new(1)).to_string(), "r1");
    }
}
