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
//! The B operand is laid out for the tile unit: the strip-major quad
//! panel (`simd::quad_panel_rows` has its layout) keeps each `tdpbusd` B tile
//! — 16 quad rows of one 16-column strip — as 1 KiB of consecutive,
//! line-aligned bytes, with the strip's next k-tile right behind it, so a strip
//! streams linearly through the whole reduction (one page per tile
//! instead of one per quad row). One quad row is still exactly the zmm
//! `vpdpbusd` reads, so the VNNI tier multiplies from the same panel:
//! one pack, one panel kind, two instruction sets.
//!
//! Rust has no stable AMX intrinsics, so the tile instructions are
//! inline assembly. That also sidesteps `#[target_feature]`: the CPUID
//! and kernel-permission gate in [`amx_available`] is the only guard,
//! checked once at dispatch-table resolution.
//!
//! Shape coverage ([`tile_grid_engages`]): a band of at least 16 rows
//! runs on the tile grid **for every `n`** — the panel is zero-padded
//! to whole strips, so the last strip is computed whole and its dead
//! columns are masked out of the store when the block is requantised —
//! **and for every `k`**: the `k % 64` reduction tail (all of a
//! `k < 64` reduction) is one more tile step against the panel's
//! zero-padded last k-tile, its activation bytes staged zero-padded in
//! [`BandScratch::a_tail`](crate::tiled::BandScratch) so no tile load
//! reads past `a`. What is left to the VNNI strips is the `rows % 16`
//! row remainder of a band, and whole bands of fewer than 16 rows.
//!
//! Loop order: row blocks of `mb` rows outermost, then **column strip
//! pairs, then 32-row groups** — each 32×32 output block accumulates its
//! whole reduction in four tile registers, is stored to a 4 KiB stack
//! block and requantised straight into the output, so there is no band
//! accumulator to stream. Inside a row block the `mb × k` activation
//! block is re-read per strip pair (from L2) and the panel is streamed
//! once; `mb` is the tile plan's ([`crate::tiled::tile_plan`]: 32 rows
//! while the panel is cache-resident, else as many as keep the block in
//! L2, up to the whole band) — a few-row GEMM with a deep panel
//! (`49 × 2048 × 512`) streams its 1 MiB panel once, a many-row conv
//! over a small panel (`3136 × 576 × 64`) keeps a small row block. There
//! is no `kb` segmentation here: the accumulators never leave the tile
//! registers.

use crate::dispatch::BandArgs;
use crate::simd::{self, Line, QuadRow, TILE_QUADS};
use crate::tiled::BandScratch;
use crate::tiled::TilePlan;
use core::arch::asm;
use core::arch::x86_64::*;
use std::sync::OnceLock;

/// `arch_prctl` operation requesting permission to use an XSAVE
/// component (Linux ≥ 5.16; AMX tile data is opt-in per process).
const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
/// XSAVE component number of the AMX tile data state.
const XFEATURE_XTILEDATA: u64 = 18;

/// Whether this process can execute AMX-INT8 tile instructions:
/// CPUID advertises AMX-TILE + AMX-INT8 and the kernel grants the
/// tile-data XSAVE permission. Resolved once; the syscall is
/// idempotent. A thread sets the tier aside with a [`crate::pin_isa`].
pub fn amx_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        // The row remainder runs VNNI strips and the tail staging
        // byte-masked loads, so AMX is only offered where the VNNI tier
        // would also have been available, with AVX-512BW (every AMX
        // part has both).
        if !std::arch::is_x86_feature_detected!("avx512f")
            || !std::arch::is_x86_feature_detected!("avx512bw")
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

/// Whether the tile grid covers part of a band of `rows` rows: it needs
/// one 16-row group. Below that the band kernel is the VNNI one.
pub(crate) fn tile_grid_engages(rows: usize) -> bool {
    rows >= 16
}

/// One `RA·16`-row × `CB·16`-column output block (`RA`, `CB` ∈ {1, 2}):
/// the i32 image of the accumulator tiles, row stride 32.
#[repr(C, align(64))]
struct CBlock([i32; 32 * 32]);

/// Zeroes the four accumulator tiles (tmm0–tmm3).
///
/// # Safety
/// Caller must have verified [`amx_available`] and loaded
/// [`configure_tiles`].
#[inline(always)]
unsafe fn zero_accumulators() {
    // SAFETY: per the caller contract the tile unit is configured; the
    // instructions touch no memory.
    unsafe {
        asm!(
            "tilezero tmm0",
            "tilezero tmm1",
            "tilezero tmm2",
            "tilezero tmm3",
            options(nostack, nomem),
        );
    }
}

/// Accumulates `steps` 64-deep k-steps into the accumulator tiles of an
/// `RA·16 × CB·16` block: tmm0/tmm1 the first row group's two column
/// strips, tmm2/tmm3 the second's. Per step one A tile per row group
/// (tmm4/tmm5, 16 rows `a_stride` apart, advancing 64 bytes) and one B
/// tile per strip (tmm6/tmm7, sixteen consecutive quad rows of the
/// panel, advancing to the strip's next k-tile). The 2×2 shape is the
/// throughput kernel: four `tdpbusd` per four `tileloadd` (1×2 and 2×1
/// pay three loads for two), which matters because the tile loads, not
/// the multiplies, bound the smaller shapes.
///
/// # Safety
/// Caller must have verified [`amx_available`] and loaded
/// [`configure_tiles`]. For `g < RA`, `a.add(g · 16 · a_stride)` must
/// point at 16 rows of `64 · steps` readable bytes, `a_stride` apart;
/// for `s < CB`, `b.add(s · b_strip)` at `steps` readable B tiles of
/// [`TILE_QUADS`] quad rows.
#[inline(always)]
unsafe fn accumulate<const RA: usize, const CB: usize>(
    a: *const u8,
    a_stride: usize,
    b: *const QuadRow,
    b_strip: usize,
    steps: usize,
) {
    // Second row group / strip; never dereferenced when RA / CB is 1.
    let (mut a0, mut a1) = (a, a.wrapping_add(16 * a_stride));
    let (mut b0, mut b1) = (b, b.wrapping_add(b_strip));
    for _ in 0..steps {
        // SAFETY: per the caller contract every tileloadd window of
        // this step is readable; the tile registers are configured
        // 16 × 64 and no compiler-generated code touches them.
        unsafe {
            match (RA, CB) {
                (2, 2) => asm!(
                    "tileloadd tmm4, [{a0} + {sa}]",
                    "tileloadd tmm6, [{b0} + {sb}]",
                    "tileloadd tmm7, [{b1} + {sb}]",
                    "tdpbusd tmm0, tmm4, tmm6",
                    "tileloadd tmm5, [{a1} + {sa}]",
                    "tdpbusd tmm1, tmm4, tmm7",
                    "tdpbusd tmm2, tmm5, tmm6",
                    "tdpbusd tmm3, tmm5, tmm7",
                    a0 = in(reg) a0,
                    a1 = in(reg) a1,
                    b0 = in(reg) b0,
                    b1 = in(reg) b1,
                    sa = in(reg) a_stride,
                    sb = in(reg) 64usize,
                    options(nostack, readonly),
                ),
                (1, 2) => asm!(
                    "tileloadd tmm4, [{a0} + {sa}]",
                    "tileloadd tmm6, [{b0} + {sb}]",
                    "tileloadd tmm7, [{b1} + {sb}]",
                    "tdpbusd tmm0, tmm4, tmm6",
                    "tdpbusd tmm1, tmm4, tmm7",
                    a0 = in(reg) a0,
                    b0 = in(reg) b0,
                    b1 = in(reg) b1,
                    sa = in(reg) a_stride,
                    sb = in(reg) 64usize,
                    options(nostack, readonly),
                ),
                (2, 1) => asm!(
                    "tileloadd tmm6, [{b0} + {sb}]",
                    "tileloadd tmm4, [{a0} + {sa}]",
                    "tileloadd tmm5, [{a1} + {sa}]",
                    "tdpbusd tmm0, tmm4, tmm6",
                    "tdpbusd tmm2, tmm5, tmm6",
                    a0 = in(reg) a0,
                    a1 = in(reg) a1,
                    b0 = in(reg) b0,
                    sa = in(reg) a_stride,
                    sb = in(reg) 64usize,
                    options(nostack, readonly),
                ),
                _ => asm!(
                    "tileloadd tmm4, [{a0} + {sa}]",
                    "tileloadd tmm6, [{b0} + {sb}]",
                    "tdpbusd tmm0, tmm4, tmm6",
                    a0 = in(reg) a0,
                    b0 = in(reg) b0,
                    sa = in(reg) a_stride,
                    sb = in(reg) 64usize,
                    options(nostack, readonly),
                ),
            }
        }
        a0 = a0.wrapping_add(64);
        a1 = a1.wrapping_add(64);
        b0 = b0.wrapping_add(TILE_QUADS);
        b1 = b1.wrapping_add(TILE_QUADS);
    }
}

/// Stores the live accumulator tiles of an `RA·16 × CB·16` block into
/// `c` (tile `(g, s)` at row `16g`, column `16s`).
///
/// # Safety
/// Caller must have verified [`amx_available`] and loaded
/// [`configure_tiles`].
#[inline(always)]
unsafe fn store_accumulators<const RA: usize, const CB: usize>(c: &mut CBlock) {
    let c = c.0.as_mut_ptr();
    // SAFETY: each tilestored writes 16 rows of 64 bytes, 128 bytes
    // apart, from row 16g and column 16s of the 32 × 32 i32 block — all
    // inside `c`; the tile unit is configured per the caller contract.
    unsafe {
        asm!("tilestored [{c} + {cs}], tmm0", c = in(reg) c, cs = in(reg) 128usize, options(nostack));
        if CB == 2 {
            asm!("tilestored [{c} + {cs}], tmm1", c = in(reg) c.add(16), cs = in(reg) 128usize, options(nostack));
        }
        if RA == 2 {
            asm!("tilestored [{c} + {cs}], tmm2", c = in(reg) c.add(16 * 32), cs = in(reg) 128usize, options(nostack));
        }
        if RA == 2 && CB == 2 {
            asm!("tilestored [{c} + {cs}], tmm3", c = in(reg) c.add(16 * 32 + 16), cs = in(reg) 128usize, options(nostack));
        }
    }
}

/// Requantises the leading `rows × cols` corner of a C block into
/// `out` (row stride `n`) — [`simd::requantize`]'s
/// `map[clamp(v >> shift, 0, clamp)]`, sixteen columns per instruction:
/// the arithmetic shift, `max(·, 0)`, `min(·, clamp)`, then — when the
/// epilogue has a map (`MAPPED`; `table` holds its sixteen entries as
/// i32 lanes) — one `vpermd` that indexes the table by each lane, and a
/// down-convert that can no longer saturate. Columns past `cols` (the
/// dead columns of a padded last strip) are masked out of the store.
/// The identity is the other instantiation, so a GEMM with nothing
/// folded runs the loop it ran before maps existed.
///
/// # Safety
/// Caller must ensure AVX-512F is available, `rows <= 32`,
/// `1 <= cols <= 32` and `out` points at `rows` rows of `cols` writable
/// bytes, `n` apart; when `MAPPED`, `clamp <= 15`.
#[target_feature(enable = "avx512f")]
unsafe fn requantize_block<const MAPPED: bool>(
    c: &CBlock,
    rows: usize,
    cols: usize,
    (shift, clamp, table): (u8, u8, &[i32; 16]),
    out: *mut u8,
    n: usize,
) {
    let count = _mm_cvtsi32_si128(shift as i32);
    let zero = _mm512_setzero_si512();
    let ceiling = _mm512_set1_epi32(clamp as i32);
    // SAFETY: a 64-byte unaligned load of the sixteen i32 entries.
    let table = unsafe { _mm512_loadu_si512(table.as_ptr() as *const _) };
    for r in 0..rows {
        for (s, c0) in (0..cols).step_by(16).enumerate() {
            let lanes = ((1u32 << (cols - c0).min(16)) - 1) as __mmask16;
            // SAFETY: row r < 32 and strip s < 2 of the 32 × 32 block;
            // the masked store covers columns c0 .. min(c0 + 16, cols)
            // of output row r, writable per the caller contract.
            unsafe {
                let v = _mm512_load_si512(c.0.as_ptr().add(r * 32 + 16 * s) as *const _);
                let v = _mm512_max_epi32(_mm512_sra_epi32(v, count), zero);
                let mut v = _mm512_min_epi32(v, ceiling);
                if MAPPED {
                    // Every lane is in 0..=15: its own table index.
                    v = _mm512_permutexvar_epi32(v, table);
                }
                _mm512_mask_cvtusepi32_storeu_epi8(out.add(r * n + c0) as *mut i8, lanes, v);
            }
        }
    }
}

/// Stages the `k % 64` reduction tail of each `k`-byte row of `a_block`
/// as one zero-padded line of `a_tail`: a byte-masked load, whose
/// masked-off bytes read as zero and are never accessed (the last row's
/// tail ends where `a_block` ends), and a whole-line store.
///
/// # Safety
/// Caller must ensure AVX-512F and AVX-512BW are available.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn stage_tail(a_block: &[u8], k: usize, a_tail: &mut [Line<u8>]) {
    let ktail = k % 64;
    let mask = (1u64 << ktail) - 1;
    for (Line(dst), row) in a_tail.iter_mut().zip(a_block.chunks_exact(k)) {
        // SAFETY: the live bytes are the last `ktail` of `row`; `dst`
        // is one aligned line.
        unsafe {
            let tail = _mm512_maskz_loadu_epi8(mask, row[k - ktail..].as_ptr() as *const i8);
            _mm512_store_si512(dst.as_mut_ptr() as *mut _, tail);
        }
    }
}

/// One `RA·16`-row × `CB·16`-strip output block, start to finish: the
/// whole reduction in tile registers — `kfull` k-steps read from `a`
/// (row stride `k`), then the `k % 64` tail, if any, as one more step
/// read from the staged `a_tail` rows (stride 64) — stored to the
/// caller's scratch block `c` and requantised into `out`.
///
/// # Safety
/// [`accumulate`]'s contract for `a` over `k / 64` steps at stride
/// `k`, for `a_tail` (when there is one) over one step of line rows and
/// for `b` over `⌈k / 64⌉` tiles; [`requantize_block`]'s for `out`,
/// with `cols` live columns.
#[allow(clippy::too_many_arguments)]
unsafe fn tile_block<const RA: usize, const CB: usize>(
    a: *const u8,
    k: usize,
    a_tail: Option<*const Line<u8>>,
    b: *const QuadRow,
    b_strip: usize,
    c: &mut CBlock,
    cols: usize,
    requant: (u8, u8, Option<&[i32; 16]>),
    out: *mut u8,
    n: usize,
) {
    let kfull = k / 64;
    // SAFETY: the caller's contract, clause by clause.
    unsafe {
        zero_accumulators();
        accumulate::<RA, CB>(a, k, b, b_strip, kfull);
        if let Some(a_tail) = a_tail {
            accumulate::<RA, CB>(a_tail.cast(), 64, b.add(kfull * TILE_QUADS), b_strip, 1);
        }
        store_accumulators::<RA, CB>(c);
        match requant {
            (shift, clamp, Some(table)) => {
                requantize_block::<true>(c, 16 * RA, cols, (shift, clamp, table), out, n)
            }
            (shift, clamp, None) => {
                requantize_block::<false>(c, 16 * RA, cols, (shift, clamp, &[0; 16]), out, n)
            }
        }
    }
}

/// AMX band kernel: the 16×16×64 tile grid computed by `tdpbusd` over
/// the whole of `n` and `k` (see the module docs for the loop order),
/// the `rows % 16` row remainder — and any band the grid cannot engage
/// on — by the VNNI strips from the same panel. Both accumulate in
/// wrapping i32, so the bytes are the scalar oracle's by the
/// associativity argument in [`crate::simd`].
///
/// # Safety
/// Caller must ensure [`amx_available`] returned true (the dispatch
/// table only offers this row in that case), `quads` is the quad panel
/// ([`crate::simd::quad_panel_rows`]) of the `args.k × args.n` matrix,
/// `r1 <= m`, and `out_band.len() == (r1 - r0) * n`.
pub(crate) unsafe fn band_amx(
    args: &BandArgs<'_>,
    panel: &[i16],
    quads: &[QuadRow],
    scratch: &mut BandScratch,
    r0: usize,
    r1: usize,
    out_band: &mut [u8],
) {
    let BandArgs {
        a,
        k,
        n,
        shift,
        clamp,
        map,
        tiles: TilePlan { mb, .. },
        ..
    } = *args;
    let rows = r1 - r0;
    if !tile_grid_engages(rows) {
        // SAFETY: amx_available() verified AVX-512F + VNNI; operand
        // contract is the caller's, unchanged.
        return unsafe {
            simd::x86::band_avx512vnni(args, panel, quads, scratch, r0, r1, out_band)
        };
    }
    debug_assert!(r1 * k <= a.len());
    debug_assert_eq!(quads.len(), simd::quad_panel_rows(k, n));
    debug_assert_eq!(out_band.len(), rows * n);

    let (kfull, ktail) = (k / 64, k % 64);
    let strips = n.div_ceil(16);
    let b_strip = k.div_ceil(64) * TILE_QUADS;
    let tile_rows = rows & !15;
    let mb = mb.clamp(16, tile_rows).next_multiple_of(16);
    let a_tail = &mut scratch.a_tail;
    if ktail != 0 {
        a_tail.resize(mb, Line([0; 64]));
    }
    let mut c = CBlock([0; 32 * 32]);
    let table = (!map.is_identity()).then(|| map.entries().map(i32::from));

    // SAFETY: amx_available() held at dispatch resolution.
    unsafe { configure_tiles() };
    for rb in (0..tile_rows).step_by(mb) {
        let mrows = mb.min(tile_rows - rb);
        let a_block = &a[(r0 + rb) * k..][..mrows * k];
        if ktail != 0 {
            // SAFETY: amx_available() verified AVX-512F + BW.
            unsafe { stage_tail(a_block, k, a_tail) };
        }
        for s in (0..strips).step_by(2) {
            let cols = (n - 16 * s).min(32);
            let b = quads[s * b_strip..].as_ptr();
            for r in (0..mrows).step_by(32) {
                // Every tile load of the block below reads rows
                // r .. r + 16·RA of `a_block` (64·kfull bytes from the
                // row start) and of the staged tail, and kt tiles of
                // strips s .. s + CB of the panel.
                let ra = if r + 32 <= mrows { 2 } else { 1 };
                let block = match (ra, cols > 16) {
                    (2, true) => tile_block::<2, 2>,
                    (2, false) => tile_block::<2, 1>,
                    (_, true) => tile_block::<1, 2>,
                    (_, false) => tile_block::<1, 1>,
                };
                debug_assert!((r + 16 * ra - 1) * k + 64 * kfull <= a_block.len());
                debug_assert!(ktail == 0 || r + 16 * ra <= a_tail.len());
                debug_assert!((s + cols.div_ceil(16)) * b_strip <= quads.len());
                let a_rows = a_block[r * k..].as_ptr();
                let tail = (ktail != 0).then(|| a_tail[r..].as_ptr());
                let out = out_band[(rb + r) * n + 16 * s..].as_mut_ptr();
                // SAFETY: the windows asserted above are what the block
                // reads; it writes `cols` bytes of output rows
                // rb + r .. + 16·RA from column 16s, inside `out_band`.
                unsafe {
                    block(
                        a_rows,
                        k,
                        tail,
                        b,
                        b_strip,
                        &mut c,
                        cols,
                        (shift, clamp, table.as_ref()),
                        out,
                        n,
                    )
                };
            }
        }
    }
    // SAFETY: amx_available() held; leaves the tile file in init state.
    unsafe { release_tiles() };

    if tile_rows < rows {
        // Row remainder (< 16 rows): the VNNI strips, each group of
        // strips over the whole reduction — the panel's linear order.
        let acc = &mut scratch.acc;
        acc.clear();
        acc.resize((rows - tile_rows) * n, 0);
        // SAFETY: amx_available() verified AVX-512F + VNNI; rows
        // r0 + tile_rows .. r1 are inside `a` and `acc` holds them.
        unsafe {
            simd::x86::rows512(
                a,
                k,
                n,
                quads,
                acc,
                r0 + tile_rows,
                rows - tile_rows,
                k.div_ceil(4).max(1),
            );
        }
        // SAFETY: amx_available() verified AVX-512F.
        unsafe { simd::x86::requantize512(acc, shift, clamp, map, &mut out_band[tile_rows * n..]) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{ByteMap, KernelIsa, PanelKind, WeightPanel};

    fn reference(
        a: &[u8],
        (m, k, n): (usize, usize, usize),
        wd: &[i8],
        shift: u8,
        clamp: u8,
    ) -> Vec<u8> {
        let mut out = vec![0u8; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut sum = 0i32;
                for kk in 0..k {
                    sum = sum.wrapping_add(a[r * k + kk] as i32 * wd[kk * n + j] as i32);
                }
                out[r * n + j] = (sum >> shift).clamp(0, clamp as i32) as u8;
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
            (24, 40, 32),    // k < 64: the whole reduction is one tail tile
            (21, 128, 24),   // a half-dead last strip
            (40, 100, 8),    // one strip, half dead, tail tile
            (15, 128, 32),   // fewer than 16 rows: full delegation
            (129, 191, 112), // multi-block with every tail at once
        ] {
            let a: Vec<u8> = (0..m * k)
                .map(|i| ((i * 37 + 11) % 23) as u8 % 16)
                .collect();
            let wd: Vec<i8> = (0..k * n).map(|i| (((i * 13) % 11) as i8) - 5).collect();
            let panel = WeightPanel::of_kind(PanelKind::Quads, &wd, k, n);
            let (_, _, quads) = panel.operands();
            // The u8 saturation and an activation ceiling below it.
            for clamp in [255u8, 15] {
                let args = BandArgs {
                    a: &a,
                    k,
                    n,
                    wd: &[],
                    shift: 3,
                    clamp,
                    map: ByteMap::IDENTITY,
                    tiles: TilePlan { mb: 48, kb: 128 },
                };
                let mut scratch = BandScratch::default();
                let mut out = vec![0u8; m * n];
                // SAFETY: AMX support verified above; operands follow the
                // band contract (m rows, packed quads, out sized m*n).
                unsafe { band_amx(&args, &[], quads, &mut scratch, 0, m, &mut out) };
                assert_eq!(
                    out,
                    reference(&a, (m, k, n), &wd, 3, clamp),
                    "shape ({m},{k},{n}) clamp {clamp} diverged from the wrapping oracle"
                );
            }
        }
    }
}
