//! AMX-INT8 tile GEMM band kernel (Sapphire-Rapids-class x86-64).
//!
//! `tdpbusd` multiplies a 16×64 u8 tile by a 64×16 i8 tile (presented as
//! 16 quad-interleaved rows) and accumulates into a 16×16 i32 tile —
//! 16384 MACs per instruction, an order of magnitude past `vpdpbusd`.
//! The accumulate is plain two's-complement (wrapping) dword addition,
//! the same semantics as `vpdpbusd` and the scalar oracle's
//! `wrapping_add`, so the tile kernel slots into the bit-exactness
//! contract of [`crate::simd`] unchanged: any cover of the reduction by
//! tiles produces identical bytes.
//!
//! The B operand reuses the VNNI quad panel verbatim: a `tdpbusd` B tile
//! for columns `j..j+16` and quads `q0..q0+16` is exactly the 16 rows of
//! 64 contiguous bytes at `quads[q0·4n + 4j]` with stride `4n` — the
//! layout [`crate::simd::pack_quads_i8`] already emits. No second pack.
//!
//! Rust has no stable AMX intrinsics, so the tile instructions are
//! inline assembly. That also sidesteps `#[target_feature]`: the CPUID
//! and kernel-permission gate in [`amx_available`] is the only guard,
//! checked once at dispatch-table resolution.
//!
//! Shape coverage: bands with `n % 16 != 0` or `k < 64` delegate to the
//! VNNI kernel (which itself delegates narrow bands to its
//! reduction-major path); within an eligible band, AMX covers the
//! 16-row × 16-column × 64-deep grid and the VNNI strips finish the
//! `k % 64` reduction tail and the `rows % 16` row remainder against
//! the same accumulator. There is no `kb` segmentation here: one pass
//! over the panel per 16-row group keeps the whole `k × n` panel
//! L2-resident for every model-zoo shape, and re-segmenting would only
//! re-stream the accumulator.

use crate::autotune::TilePlan;
use crate::dispatch::BandArgs;
use crate::simd::{self, requantize};
use core::arch::asm;
use std::sync::OnceLock;

/// `arch_prctl` operation requesting permission to use an XSAVE
/// component (Linux ≥ 5.16; AMX tile data is opt-in per process).
const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
/// XSAVE component number of the AMX tile data state.
const XFEATURE_XTILEDATA: u64 = 18;

/// Whether this process can execute AMX-INT8 tile instructions:
/// CPUID advertises AMX-TILE + AMX-INT8, the kernel grants the
/// tile-data XSAVE permission, and `GCD2_AMX=0` has not pinned the
/// tier off. Resolved once; the syscall is idempotent.
pub fn amx_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        if std::env::var("GCD2_AMX").is_ok_and(|v| v == "0") {
            return false;
        }
        // The tail/remainder paths run VNNI strips, so AMX is only
        // offered where the VNNI tier would also have been available.
        if !std::arch::is_x86_feature_detected!("avx512f")
            || !std::arch::is_x86_feature_detected!("avx512vnni")
        {
            return false;
        }
        // CPUID.(EAX=7,ECX=0):EDX bit 24 = AMX-TILE, bit 25 = AMX-INT8.
        let leaf7 = core::arch::x86_64::__cpuid_count(7, 0);
        if leaf7.edx & (1 << 24) == 0 || leaf7.edx & (1 << 25) == 0 {
            return false;
        }
        request_tile_permission()
    })
}

/// Asks the kernel for the AMX tile-data XSAVE component. Returns
/// whether the request succeeded; on failure (old kernel, seccomp,
/// disabled XCR0) the dispatcher simply never selects the AMX tier.
fn request_tile_permission() -> bool {
    let ret: i64;
    // SAFETY: raw `arch_prctl(ARCH_REQ_XCOMP_PERM, XTILEDATA)` syscall
    // (x86-64 number 158); it touches no memory and only rcx/r11 are
    // clobbered beyond the declared registers.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") 158u64 => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Loads the uniform tile configuration: all eight tiles 16 rows × 64
/// bytes (palette 1). A tiles hold 16 activation rows of 64 u8, B tiles
/// 16 quad rows of 64 i8, accumulator tiles 16 rows of 16 i32 — one
/// shape serves every operand, so the config is loaded once per band.
///
/// # Safety
/// Caller must have verified [`amx_available`].
unsafe fn configure_tiles() {
    #[repr(C, align(64))]
    struct TileCfg([u8; 64]);
    let mut cfg = TileCfg([0u8; 64]);
    cfg.0[0] = 1; // palette 1
    for t in 0..8 {
        cfg.0[16 + 2 * t] = 64; // colsb, little-endian u16
        cfg.0[48 + t] = 16; // rows
    }
    // SAFETY: per caller contract AMX is permitted; the config block is
    // a valid 64-byte palette-1 descriptor.
    unsafe {
        asm!("ldtilecfg [{0}]", in(reg) cfg.0.as_ptr(), options(nostack, readonly));
    }
}

/// Returns the tile register file to the init state so subsequent
/// context switches don't carry 8 KiB of dead tile state.
///
/// # Safety
/// Caller must have verified [`amx_available`].
unsafe fn release_tiles() {
    // SAFETY: per caller contract AMX is permitted; tilerelease has no
    // operands and no memory effects.
    unsafe {
        asm!("tilerelease", options(nostack, nomem));
    }
}

/// One 32-row × 32-column output block over all full 64-deep k-tiles:
/// four accumulator tiles (tmm0–tmm3), two A tiles (tmm4/tmm5) and two
/// B tiles (tmm6/tmm7) per k-step. The 2×2 shape is the throughput
/// kernel: four `tdpbusd` per four `tileloadd` (the 1×2 shape pays
/// three loads for two), which matters because the tile loads, not the
/// multiplies, bound the smaller shapes. Stores overwrite the i32
/// accumulator block — callers schedule this before any reduction-tail
/// accumulation.
///
/// # Safety
/// As [`tiles_16x32`] with 32 activation rows and 32 accumulator rows
/// available.
#[inline]
unsafe fn tiles_32x32(
    a_row: *const u8,
    k: usize,
    b: *const i8,
    bstride: usize,
    ktiles: usize,
    c: *mut i32,
    n: usize,
) {
    // SAFETY: per the caller contract every tileloadd/tilestored window
    // below stays inside its operand; the tile registers are configured
    // 16×64 and are private to this call (zeroed before use).
    unsafe {
        asm!(
            "tilezero tmm0",
            "tilezero tmm1",
            "tilezero tmm2",
            "tilezero tmm3",
            "2:",
            "tileloadd tmm4, [{a0} + {ka}]",
            "tileloadd tmm6, [{b0} + {bs}]",
            "tileloadd tmm7, [{b1} + {bs}]",
            "tdpbusd tmm0, tmm4, tmm6",
            "tileloadd tmm5, [{a1} + {ka}]",
            "tdpbusd tmm1, tmm4, tmm7",
            "tdpbusd tmm2, tmm5, tmm6",
            "tdpbusd tmm3, tmm5, tmm7",
            "add {a0}, 64",
            "add {a1}, 64",
            "add {b0}, {bstep}",
            "add {b1}, {bstep}",
            "dec {cnt}",
            "jnz 2b",
            a0 = inout(reg) a_row => _,
            a1 = inout(reg) a_row.add(16 * k) => _,
            b0 = inout(reg) b => _,
            b1 = inout(reg) b.add(64) => _,
            cnt = inout(reg) ktiles => _,
            ka = in(reg) k,
            bs = in(reg) bstride,
            bstep = in(reg) bstride * 16,
            options(nostack),
        );
        asm!(
            "tilestored [{c0} + {cs}], tmm0",
            "tilestored [{c1} + {cs}], tmm1",
            "tilestored [{c2} + {cs}], tmm2",
            "tilestored [{c3} + {cs}], tmm3",
            c0 = in(reg) c,
            c1 = in(reg) c.add(16),
            c2 = in(reg) c.add(16 * n),
            c3 = in(reg) c.add(16 * n + 16),
            cs = in(reg) n * 4,
            options(nostack),
        );
    }
}

/// One 16-row × 32-column output block over all full 64-deep k-tiles:
/// two accumulator tiles (tmm0/tmm1), one shared A tile per k-step
/// (tmm4) and two B tiles (tmm6/tmm7), stored straight into the i32
/// accumulator block (overwriting it — callers schedule this before any
/// reduction-tail accumulation).
///
/// # Safety
/// Caller must have verified [`amx_available`] and loaded
/// [`configure_tiles`]; `a_row` must point at ≥ `15·k + 64·ktiles`
/// readable bytes, `b` at the quad panel position for this column pair
/// with `ktiles·16` quad rows of stride `bstride` available, and `c` at
/// an i32 block with row stride `n` holding 16 rows × 32 columns.
/// `ktiles ≥ 1`.
#[inline]
unsafe fn tiles_16x32(
    a_row: *const u8,
    k: usize,
    b: *const i8,
    bstride: usize,
    ktiles: usize,
    c: *mut i32,
    n: usize,
) {
    // SAFETY: per the caller contract every tileloadd/tilestored window
    // below stays inside its operand; the tile registers are configured
    // 16×64 and are private to this block (zeroed before use).
    unsafe {
        asm!(
            "tilezero tmm0",
            "tilezero tmm1",
            "2:",
            "tileloadd tmm4, [{a} + {ka}]",
            "tileloadd tmm6, [{b0} + {bs}]",
            "tileloadd tmm7, [{b1} + {bs}]",
            "tdpbusd tmm0, tmm4, tmm6",
            "tdpbusd tmm1, tmm4, tmm7",
            "add {a}, 64",
            "add {b0}, {bstep}",
            "add {b1}, {bstep}",
            "dec {cnt}",
            "jnz 2b",
            "tilestored [{c0} + {cs}], tmm0",
            "tilestored [{c1} + {cs}], tmm1",
            a = inout(reg) a_row => _,
            b0 = inout(reg) b => _,
            b1 = inout(reg) b.add(64) => _,
            cnt = inout(reg) ktiles => _,
            ka = in(reg) k,
            bs = in(reg) bstride,
            bstep = in(reg) bstride * 16,
            c0 = in(reg) c,
            c1 = in(reg) c.add(16),
            cs = in(reg) n * 4,
            options(nostack),
        );
    }
}

/// One 16-row × 16-column output block over all full 64-deep k-tiles —
/// the `n % 32 == 16` column tail of [`tiles_16x32`].
///
/// # Safety
/// As [`tiles_16x32`], with a single 16-column B/accumulator window.
#[inline]
unsafe fn tiles_16x16(
    a_row: *const u8,
    k: usize,
    b: *const i8,
    bstride: usize,
    ktiles: usize,
    c: *mut i32,
    n: usize,
) {
    // SAFETY: per the caller contract every tileloadd/tilestored window
    // below stays inside its operand; the tile registers are configured
    // 16×64 and are private to this block (zeroed before use).
    unsafe {
        asm!(
            "tilezero tmm0",
            "2:",
            "tileloadd tmm4, [{a} + {ka}]",
            "tileloadd tmm6, [{b0} + {bs}]",
            "tdpbusd tmm0, tmm4, tmm6",
            "add {a}, 64",
            "add {b0}, {bstep}",
            "dec {cnt}",
            "jnz 2b",
            "tilestored [{c0} + {cs}], tmm0",
            a = inout(reg) a_row => _,
            b0 = inout(reg) b => _,
            cnt = inout(reg) ktiles => _,
            ka = in(reg) k,
            bs = in(reg) bstride,
            bstep = in(reg) bstride * 16,
            c0 = in(reg) c,
            cs = in(reg) n * 4,
            options(nostack),
        );
    }
}

/// AMX band kernel: same block structure and accumulator discipline as
/// [`crate::simd::x86::band_avx512vnni`], with the 16×16×64 tile grid
/// computed by `tdpbusd` and everything the grid can't cover (reduction
/// tail, row remainder, narrow or ragged bands) finished by the VNNI
/// strips against the same wrapping i32 accumulator — bit-identical to
/// the scalar oracle by the associativity argument in [`crate::simd`].
///
/// # Safety
/// Caller must ensure [`amx_available`] returned true (the dispatch
/// table only offers this row in that case), `quads` is the
/// [`crate::simd::pack_quads_i8`] image of `args.wd`, `r1 <= m`, and
/// `out_band.len() == (r1 - r0) * n`.
pub(crate) unsafe fn band_amx(
    args: &BandArgs<'_>,
    panel: &[i16],
    quads: &[i8],
    acc_buf: &mut Vec<i32>,
    r0: usize,
    r1: usize,
    out_band: &mut [u8],
) {
    let BandArgs {
        a,
        k,
        n,
        shift,
        tiles,
        ..
    } = *args;
    if n % 16 != 0 || n == 0 || k < 64 {
        // The tile grid can't engage; the VNNI kernel covers every
        // remaining shape (including its own narrow-band path).
        // SAFETY: amx_available() verified AVX-512F + VNNI; operand
        // contract is the caller's, unchanged.
        return unsafe {
            simd::x86::band_avx512vnni(args, panel, quads, acc_buf, r0, r1, out_band)
        };
    }
    let rows = r1 - r0;
    debug_assert!(r1 * k <= a.len());
    debug_assert_eq!(quads.len(), k.div_ceil(4) * 4 * n);
    debug_assert_eq!(out_band.len(), rows * n);

    let nquads = k.div_ceil(4);
    let full_quads = k / 4;
    let ktiles = k / 64;
    // First quad the tile grid does not cover (k % 64 tail).
    let qtail = ktiles * 16;
    let TilePlan { mb, .. } = tiles;
    let mb = mb.max(16);
    acc_buf.clear();
    acc_buf.resize(mb.min(rows) * n, 0);

    // SAFETY: amx_available() held at dispatch resolution.
    unsafe { configure_tiles() };
    let mut rb = 0usize;
    while rb < rows {
        let mrows = mb.min(rows - rb);
        let acc = &mut acc_buf[..mrows * n];
        acc.fill(0);
        let amx_rows = mrows & !15;
        let mut r = 0usize;
        while r + 32 <= amx_rows {
            // SAFETY: rows r0+rb+r .. +32 are < r1 <= m so the strided
            // A tile loads stay inside `a`; the B windows walk quads
            // [0, 16·ktiles) at each column pair inside `quads`; the C
            // stores cover acc rows r..r+32 within the mrows*n block.
            unsafe {
                let a_row = a.as_ptr().add((r0 + rb + r) * k);
                let mut j = 0usize;
                while j + 32 <= n {
                    tiles_32x32(
                        a_row,
                        k,
                        quads.as_ptr().add(4 * j),
                        4 * n,
                        ktiles,
                        acc.as_mut_ptr().add(r * n + j),
                        n,
                    );
                    j += 32;
                }
                if j < n {
                    for half in 0..2 {
                        tiles_16x16(
                            a_row.add(16 * half * k),
                            k,
                            quads.as_ptr().add(4 * j),
                            4 * n,
                            ktiles,
                            acc.as_mut_ptr().add((r + 16 * half) * n + j),
                            n,
                        );
                    }
                }
            }
            r += 32;
        }
        while r < amx_rows {
            // SAFETY: rows r0+rb+r .. +16 are < r1 <= m; windows as
            // above with a single 16-row group.
            unsafe {
                let a_row = a.as_ptr().add((r0 + rb + r) * k);
                let mut j = 0usize;
                while j + 32 <= n {
                    tiles_16x32(
                        a_row,
                        k,
                        quads.as_ptr().add(4 * j),
                        4 * n,
                        ktiles,
                        acc.as_mut_ptr().add(r * n + j),
                        n,
                    );
                    j += 32;
                }
                if j < n {
                    tiles_16x16(
                        a_row,
                        k,
                        quads.as_ptr().add(4 * j),
                        4 * n,
                        ktiles,
                        acc.as_mut_ptr().add(r * n + j),
                        n,
                    );
                }
            }
            r += 16;
        }
        // Reduction tail (k % 64): accumulate the uncovered quads into
        // the freshly stored tile results with the VNNI strips.
        if qtail < nquads {
            let mut r = 0usize;
            while r + 4 <= amx_rows {
                // SAFETY: amx_available() verified AVX-512F + VNNI; rows
                // and acc offsets are in range as above.
                unsafe {
                    simd::x86::strips512::<4>(
                        a,
                        k,
                        n,
                        quads,
                        acc,
                        r0 + rb + r,
                        r * n,
                        qtail,
                        nquads,
                        full_quads,
                    );
                }
                r += 4;
            }
        }
        // Row remainder (< 16 rows): full reduction via VNNI strips.
        let mut r = amx_rows;
        while r + 4 <= mrows {
            // SAFETY: as above; rows r .. r+4 < mrows keep every window
            // inside the operands.
            unsafe {
                simd::x86::strips512::<4>(
                    a,
                    k,
                    n,
                    quads,
                    acc,
                    r0 + rb + r,
                    r * n,
                    0,
                    nquads,
                    full_quads,
                );
            }
            r += 4;
        }
        while r < mrows {
            // SAFETY: single row r < mrows, same windows as above.
            unsafe {
                simd::x86::strips512::<1>(
                    a,
                    k,
                    n,
                    quads,
                    acc,
                    r0 + rb + r,
                    r * n,
                    0,
                    nquads,
                    full_quads,
                );
            }
            r += 1;
        }
        requantize(acc, shift, &mut out_band[rb * n..(rb + mrows) * n]);
        rb += mrows;
    }
    // SAFETY: amx_available() held; leaves the tile file in init state.
    unsafe { release_tiles() };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::KernelIsa;
    use crate::simd::pack_quads_i8;

    fn reference(a: &[u8], m: usize, k: usize, wd: &[i8], n: usize, shift: u8) -> Vec<u8> {
        let mut out = vec![0u8; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut sum = 0i32;
                for kk in 0..k {
                    sum = sum.wrapping_add(a[r * k + kk] as i32 * wd[kk * n + j] as i32);
                }
                out[r * n + j] = (sum >> shift).clamp(0, 255) as u8;
            }
        }
        out
    }

    #[test]
    fn amx_band_matches_oracle_across_ragged_shapes() {
        if !KernelIsa::AmxInt8.supported() {
            eprintln!("AMX not available; skipping");
            return;
        }
        // Full tiles, row/column/reduction tails, and delegation shapes.
        for &(m, k, n) in &[
            (32usize, 128usize, 32usize),
            (37, 130, 48),
            (16, 64, 16),
            (50, 200, 64),
            (19, 67, 16),
            (33, 64, 80),
            (7, 300, 32),    // all rows in the VNNI remainder
            (24, 40, 32),    // k < 64: full delegation
            (21, 128, 24),   // n % 16 != 0: full delegation
            (129, 191, 112), // multi-block with every tail at once
        ] {
            let a: Vec<u8> = (0..m * k)
                .map(|i| ((i * 37 + 11) % 23) as u8 % 16)
                .collect();
            let wd: Vec<i8> = (0..k * n).map(|i| (((i * 13) % 11) as i8) - 5).collect();
            let mut quads = Vec::new();
            pack_quads_i8(&wd, k, n, &mut quads);
            let args = BandArgs {
                a: &a,
                k,
                n,
                wd: &wd,
                shift: 3,
                tiles: TilePlan { mb: 48, kb: 128 },
            };
            let mut acc = Vec::new();
            let mut out = vec![0u8; m * n];
            // SAFETY: AMX support verified above; operands follow the
            // band contract (m rows, packed quads, out sized m*n).
            unsafe { band_amx(&args, &[], &quads, &mut acc, 0, m, &mut out) };
            assert_eq!(
                out,
                reference(&a, m, k, &wd, n, 3),
                "shape ({m},{k},{n}) diverged from the wrapping oracle"
            );
        }
    }
}
