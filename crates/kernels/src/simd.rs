//! Vectorized int8→i32 GEMM band kernels.
//!
//! Each kernel computes the same function as the scalar oracle
//! ([`crate::tiled`]): `out[r][j] = clamp((Σ_kk a[r][kk] · w[kk][j]) >>
//! shift, 0, clamp)` (`clamp` is the dispatch's, at most 255), then
//! through the epilogue's byte map (`BandArgs::map`, the identity unless
//! a plan folded steps into the GEMM), with i32 **wrapping** accumulation. Wrapping addition
//! is associative and commutative, so any accumulation order — register
//! tiles, pair-summed `vpmaddwd`, four-byte `vpdpbusd` dots, AMX tiles —
//! produces bytes identical to the scalar loop. That bit-exactness is
//! the contract: the proptest gate in `tests/simd_identity.rs` compares
//! every path against the row-major reference, and `gcd2-analyze`'s
//! accumulator-width proofs transfer unchanged.
//!
//! Every kernel, the scalar oracle included, reads the weights in one
//! form: the strip-major quad panel ([`quad_panel_rows`] has the
//! layout), packed once whatever tier will multiply it. Each tier's
//! exactness argument is on its kernel: the AVX2 one at [`x86::micro`]
//! (`vpmaddwd` over sign-extended quads), the VNNI one at
//! [`x86::band_avx512vnni`].
//!
//! Zero-skip: the scalar oracle skips all-zero activation quads (im2col
//! zero padding makes them common). Skipping a zero activation only
//! omits adding 0 — so each kernel is free to skip, or not, at whatever
//! granularity profits: the AVX2 kernel skips zero *quads*, the VNNI
//! wide kernel never skips (see [`x86::micro512`] for why the branch
//! loses), and the VNNI narrow kernel skips whole 64-byte blocks.
//! All choices produce identical bytes.

use crate::dispatch::{BandArgs, ByteMap};
use crate::tiled::BandScratch;
use crate::tiled::TilePlan;

/// 64 elements on a 64-byte boundary: one cache line of bytes. The
/// quad panel is a vector of these, so no `vpdpbusd` operand and no row
/// of a `tdpbusd` tile straddles two lines — on the recording host a
/// tile load whose rows do costs about twice one whose rows do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(64))]
pub(crate) struct Line<T>(pub(crate) [T; 64]);

/// One row of the quad weight panel: four weight rows of sixteen
/// columns, zipped column-wise (byte `4j + i` is `w[4q + i][16s + j]`).
pub(crate) type QuadRow = Line<i8>;

/// Quad rows of one quad tile of the panel: the 64 reduction rows × 16
/// columns one `tdpbusd` B tile holds (1 KiB), and sixteen consecutive
/// `vpdpbusd` weight operands.
pub(crate) const TILE_QUADS: usize = 16;

/// Quad rows of the quad panel of a `k × n` matrix: whole 16-column
/// strips of whole 64-deep k-tiles.
///
/// The strip-major, quad-interleaved i8 panel every GEMM kernel reads
/// zips four consecutive weight rows column-wise, so each
/// i32 lane of a 64-byte [`QuadRow`] holds the `(w[4q][j] .. w[4q+3][j])`
/// bytes `vpdpbusd` dots against four broadcast activation bytes; the
/// quad rows of one 16-column strip lie back to back over all of `k`.
/// As a byte image:
///
/// `panel[((j/16)·kt + q/16)·1024 + (q%16)·64 + 4·(j%16) + i] = w[4q+i][j]`
///
/// with `kt = ⌈k/64⌉`. Sixteen consecutive quad rows are one `tdpbusd`
/// B tile (1 KiB of consecutive, line-aligned bytes) and the next
/// k-tile of the strip follows it, so every tier streams a strip
/// linearly; the AVX2 kernel reads each 16-byte quarter of a quad row
/// (4 columns × 4 rows) as one `vpmovsxbw` operand, the scalar oracle
/// reads bytes by this index arithmetic. The panel is zero-padded to
/// whole strips and whole k-tiles: a zero weight byte contributes
/// nothing whatever activation byte it meets, so the AMX, AVX2 and
/// scalar kernels compute the padded last strip whole and the
/// activation padding bytes never matter.
pub(crate) fn quad_panel_rows(k: usize, n: usize) -> usize {
    n.div_ceil(16) * k.div_ceil(64) * TILE_QUADS
}

/// Packs one k-tile — `rows`, up to 64 weight rows of `n` columns — as
/// one quad tile per 16-column strip, strip `s` at `dst[s ·
/// strip_stride..][..TILE_QUADS]` ([`quad_panel_rows`] has the layout).
/// `dst` must be zero where the tile is padding (missing rows, columns
/// past `n`): only weight bytes are written. Strips are the outer loop
/// so every tile is written front to back while its 64 × 16 source
/// bytes sit in L1.
pub(crate) fn pack_quad_ktile(rows: &[i8], n: usize, dst: &mut [QuadRow], strip_stride: usize) {
    for s in 0..n.div_ceil(16) {
        let (j0, cols) = (16 * s, (n - 16 * s).min(16));
        let tile = &mut dst[s * strip_stride..][..TILE_QUADS];
        for (quad, Line(d)) in rows.chunks(4 * n).zip(tile) {
            #[cfg(target_arch = "x86_64")]
            if quad.len() == 4 * n && cols == 16 {
                // SAFETY: SSE2 is baseline on x86-64.
                unsafe { x86::zip_quad(std::array::from_fn(|r| &quad[r * n + j0..][..16]), d) };
                continue;
            }
            // The ragged last quad or strip: what is missing stays zero.
            // (Off x86-64 this loop packs every quad.)
            for (i, row) in quad.chunks_exact(n).enumerate() {
                for (j, &w) in row[j0..j0 + cols].iter().enumerate() {
                    d[4 * j + i] = w;
                }
            }
        }
    }
}

/// The inverse of [`pack_quad_ktile`]: the k-tile whose quad tiles sit
/// at `src[s · strip_stride..][..TILE_QUADS]`, into `tile`, its whole
/// rows of `n` weights. Padding bytes are not read. Only the suites
/// read a panel back: a plan digests, stores and sums it as it lies.
#[cfg(test)]
pub(crate) fn unpack_quad_ktile(src: &[QuadRow], n: usize, strip_stride: usize, tile: &mut [i8]) {
    for s in 0..n.div_ceil(16) {
        let (j0, cols) = (16 * s, (n - 16 * s).min(16));
        let quads = &src[s * strip_stride..][..TILE_QUADS];
        for (quad, Line(d)) in tile.chunks_mut(4 * n).zip(quads) {
            if quad.len() == 4 * n && cols == 16 {
                let (r0, rest) = quad.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                // One u32 lane per column, byte `i` of it row `i`: the
                // shape the autovectoriser turns into shifts and packs
                // (the mirror image of the pack's byte zip reads back at
                // a third of the speed: DESIGN.md §6g).
                let lanes: [u32; 16] = std::array::from_fn(|j| {
                    u32::from_le_bytes(std::array::from_fn(|i| d[4 * j + i] as u8))
                });
                for (i, row) in [r0, r1, r2, r3].into_iter().enumerate() {
                    for (w, lane) in row[j0..j0 + 16].iter_mut().zip(lanes) {
                        *w = (lane >> (8 * i)) as i8;
                    }
                }
            } else {
                for (i, row) in quad.chunks_exact_mut(n).enumerate() {
                    for (j, w) in row[j0..j0 + cols].iter_mut().enumerate() {
                        *w = d[4 * j + i];
                    }
                }
            }
        }
    }
}

/// Requantize an i32 accumulator block to output bytes,
/// `map[clamp(v >> shift, 0, clamp)]` — the shared epilogue of the
/// scalar oracle and of the AVX2 band (the AVX-512 tiers requantise in
/// zmm lanes, `x86::Requant512`). The block's rows are `width` wide —
/// whole 16-column strips, the zero-padded last strip computed whole —
/// and `out`'s rows `n` bytes (`1 ≤ n ≤ width`): the padding columns
/// are dropped. A map other than the identity is a second pass over a
/// row's clamped bytes while they are in L1 ([`ByteMap::select`]).
/// Always inlined, so each band kernel's copy is vectorised for its own
/// `target_feature`s.
#[inline(always)]
pub(crate) fn requantize(
    acc: &[i32],
    (width, n): (usize, usize),
    (shift, clamp, map): (u8, u8, ByteMap),
    out: &mut [u8],
) {
    let entries = (!map.is_identity()).then(|| map.entries());
    for (acc, out) in acc.chunks_exact(width).zip(out.chunks_exact_mut(n)) {
        for (dst, &v) in out.iter_mut().zip(acc) {
            *dst = (v >> shift).clamp(0, clamp as i32) as u8;
        }
        if let Some(entries) = &entries {
            for b in out.iter_mut() {
                *b = ByteMap::select(entries, *b);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    #![allow(clippy::too_many_arguments)]

    use super::{
        quad_panel_rows, requantize, BandArgs, BandScratch, ByteMap, Line, QuadRow, TilePlan,
        TILE_QUADS,
    };
    use core::arch::x86_64::*;

    /// AVX2 band kernel over rows `[r0, r1)` of the output, over the
    /// quad panel every tier reads.
    ///
    /// Loop nest: `mb` row blocks outermost with a cache-hot accumulator
    /// block of whole 16-column strips (requantized per block), `kb`-deep
    /// segments of quads inside, then register-tiled micro-kernels — 3
    /// rows × one strip in 12 ymm accumulators. Keeping the accumulator
    /// block-local matters for huge-`m` conv GEMMs: a band-wide
    /// accumulator would be re-streamed from memory once per reduction
    /// segment. Each row block's activations are first zero-extended to
    /// i16 into `scratch.a_wide` (each row padded with zeros to whole
    /// quads), so a micro-kernel broadcasts a quad's four i16 straight
    /// from memory — a load, not a shuffle. The panel's last strip is
    /// zero-padded to 16 columns, so it is computed whole, as on AMX,
    /// and requantization drops the padding columns. Bands narrower than
    /// one ymm of columns, and an empty reduction, delegate to the scalar
    /// oracle (bit-identical).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `quads` is the quad panel
    /// ([`super::quad_panel_rows`]) of the `args.k × args.n` matrix,
    /// `r1 * k <= a.len()` and `out_band.len() == (r1 - r0) * n`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn band_avx2(
        args: &BandArgs<'_>,
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
            tiles: TilePlan { mb, kb },
        } = *args;
        let BandScratch {
            acc: acc_buf,
            a_wide,
            ..
        } = scratch;
        if n < 8 || k == 0 {
            // A strip would be mostly padding; an empty reduction has no
            // quad to widen.
            return crate::tiled::scalar_band(args, quads, acc_buf, r0, r1, out_band);
        }
        let rows = r1 - r0;
        debug_assert!(r1 * k <= a.len());
        debug_assert_eq!(quads.len(), quad_panel_rows(k, n));
        debug_assert_eq!(out_band.len(), rows * n);
        let width = n.next_multiple_of(16);
        let nquads = k.div_ceil(4);
        let kb_quads = (kb / 4).max(1);
        let mb = mb.max(1);
        acc_buf.clear();
        acc_buf.resize(mb.min(rows) * width, 0);
        // Only the ragged last quad's padding must be zero: every other
        // element is rewritten per row block.
        a_wide.clear();
        a_wide.resize(mb.min(rows) * 4 * nquads, 0);

        let mut rb = 0usize;
        while rb < rows {
            let mrows = mb.min(rows - rb);
            let acc = &mut acc_buf[..mrows * width];
            acc.fill(0);
            let block = &a[(r0 + rb) * k..(r0 + rb + mrows) * k];
            for (wide, arow) in a_wide
                .chunks_exact_mut(4 * nquads)
                .zip(block.chunks_exact(k))
            {
                for (w, &v) in wide.iter_mut().zip(arow) {
                    *w = v as u16;
                }
            }
            let block = Block {
                wide: a_wide,
                k,
                width,
            };
            for q0 in (0..nquads).step_by(kb_quads) {
                let q1 = (q0 + kb_quads).min(nquads);
                let mut r = 0usize;
                while r + 3 <= mrows {
                    // SAFETY: rows r .. r + 3 are rows of the block, whose
                    // accumulator rows `acc` holds.
                    unsafe { strips::<3>(&block, quads, acc, r, q0, q1) };
                    r += 3;
                }
                while r < mrows {
                    // SAFETY: row r is a row of the block.
                    unsafe { strips::<1>(&block, quads, acc, r, q0, q1) };
                    r += 1;
                }
            }
            requantize(
                acc,
                (width, n),
                (shift, clamp, map),
                &mut out_band[rb * n..(rb + mrows) * n],
            );
            rb += mrows;
        }
    }

    /// One row block of [`band_avx2`]: its activation rows zero-extended
    /// to i16, `4 · ⌈k/4⌉` per row, and its accumulator rows' `width`.
    struct Block<'a> {
        wide: &'a [u16],
        k: usize,
        width: usize,
    }

    /// Strip driver for the `R` rows from block row `r`: one [`micro`]
    /// per 16-column strip of the panel, the zero-padded last one
    /// included.
    ///
    /// # Safety
    /// Caller must ensure AVX2, `r + R` rows in the block and in `acc`
    /// (rows of `block.width`), `quads` the quad panel of a `k × n`
    /// matrix with `⌈n/16⌉ · 16 == block.width` and `q0 <= q1 <= ⌈k/4⌉`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn strips<const R: usize>(
        block: &Block<'_>,
        quads: &[QuadRow],
        acc: &mut [i32],
        r: usize,
        q0: usize,
        q1: usize,
    ) {
        let strip = block.k.div_ceil(64) * TILE_QUADS;
        for (s, quads) in quads.chunks_exact(strip).enumerate() {
            let at = r * block.width + 16 * s;
            // SAFETY: strip s is accumulator columns 16s .. 16s + 16 of
            // rows r .. r + R; the rest is the caller's contract.
            unsafe { micro::<R>(block, &quads[q0..q1], q0, r, &mut acc[at..]) };
        }
    }

    /// Register-tiled micro-kernel: `R` block rows from `r` × one
    /// 16-column strip, four ymm accumulators per row, over the strip's
    /// quad rows `strip` — quads `q0 ..` of the reduction — adding into
    /// `acc` (row `i` at `i · width`). Each 16-byte quarter of a quad row
    /// — 4 columns × 4 reduction rows — is sign-extended to i16
    /// (`vpmovsxbw`) and multiplied with `vpmaddwd` against the row's
    /// four activation bytes zero-extended to i16, broadcast as one i64
    /// (`vpbroadcastq` from the block's widened rows): i32 lanes `2c` and
    /// `2c + 1` of the product are column `c`'s two pair-sums. After the
    /// segment `vphaddd` adds each column's pair and one `vpermq` puts
    /// two quarters' eight columns back in order.
    ///
    /// Why `vpmaddwd` is exact here: activations are `u8` (≤ 255) and
    /// weights `i8`, both widened to i16 lanes, so every lane product has
    /// magnitude ≤ 255·128 = 32640 and each pair-sum ≤ 65280 — far inside
    /// i32. The saturating corner of `vpmaddwd` (both lanes −32768) is
    /// unreachable, and `vpaddd` and `vphaddd` wrap like the oracle. The
    /// byte-wise `vpmaddubsw` was rejected because its i16 pair-sum
    /// *does* saturate for general u8×i8 input. A row whose quad is four
    /// zero bytes (its widened `u64 == 0`) skips it, which only omits
    /// adding zero; the ragged last quad of a row is its bytes and zero
    /// padding in the widened row, and meets zero-padded weights, so it
    /// never reads past `a`.
    ///
    /// # Safety
    /// Caller must ensure AVX2, `r + R` rows in the block, `(R - 1) ·
    /// width + 16 <= acc.len()` and `q0 + strip.len() <= ⌈k/4⌉`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn micro<const R: usize>(
        block: &Block<'_>,
        strip: &[QuadRow],
        q0: usize,
        r: usize,
        acc: &mut [i32],
    ) {
        let Block { wide, k, width } = *block;
        let stride = 4 * k.div_ceil(4);
        let mut cc = [[_mm256_setzero_si256(); 4]; R];
        for (q, Line(d)) in (q0..).zip(strip) {
            // SAFETY: rows r .. r + R are inside the block and q < ⌈k/4⌉.
            let bits: [u64; R] = std::array::from_fn(|i| unsafe {
                (wide.as_ptr().add((r + i) * stride + 4 * q) as *const u64).read_unaligned()
            });
            if bits == [0; R] {
                continue; // zero activations contribute nothing
            }
            // SAFETY: four 16-byte aligned loads inside the 64-byte line.
            let w: [__m256i; 4] = std::array::from_fn(|c| unsafe {
                _mm256_cvtepi8_epi16(_mm_load_si128(d.as_ptr().add(16 * c) as *const __m128i))
            });
            for (i, row) in cc.iter_mut().enumerate() {
                if bits[i] == 0 {
                    continue;
                }
                // SAFETY: the quad's four i16 lie inside the widened row
                // r + i, which is 4·⌈k/4⌉ long.
                let av = unsafe {
                    let p = wide.as_ptr().add((r + i) * stride + 4 * q);
                    _mm256_broadcastq_epi64(_mm_loadl_epi64(p as *const __m128i))
                };
                for (lane, &w) in row.iter_mut().zip(&w) {
                    *lane = _mm256_add_epi32(*lane, _mm256_madd_epi16(w, av));
                }
            }
        }
        for (i, row) in cc.iter().enumerate() {
            for (t, pair) in row.chunks_exact(2).enumerate() {
                // Columns (0, 1, 4, 5 | 2, 3, 6, 7) of the pair → in order.
                let cols = _mm256_permute4x64_epi64::<0xD8>(_mm256_hadd_epi32(pair[0], pair[1]));
                // SAFETY: the 8 columns at i·width + 8t are inside `acc`
                // per the caller contract.
                unsafe {
                    let p = acc.as_mut_ptr().add(i * width + 8 * t) as *mut __m256i;
                    _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p), cols));
                }
            }
        }
    }

    /// AVX-512 VNNI band kernel: same loop nest as [`band_avx2`] —
    /// `mb` row blocks outermost with a cache-hot `mb × n` accumulator,
    /// reduction segments inside — but in the quad (4-row) reduction
    /// domain over the strip-major quad panel: one `vpdpbusd` performs
    /// 64 u8×i8 MACs, and its weight operand is one 64-byte quad row,
    /// consecutive quads of a strip consecutive in memory. Exactness:
    /// each lane sums four products of magnitude ≤ 255·128 (≤ 130560
    /// total, far inside i32) and plain `vpdpbusd` accumulates modularly
    /// (the saturating variant is `vpdpbusds`, which we do not use), so
    /// the bytes match the wrapping scalar oracle for any schedule.
    /// Bands narrower than one zmm of columns take the reduction-major
    /// [`band_vnni_narrow`] (bit-identical).
    ///
    /// # Safety
    /// Caller must ensure AVX-512F, BW and VNNI are available, `quads`
    /// is the quad panel ([`super::quad_panel_rows`]) of the `args.k ×
    /// args.n` matrix, `r1 <= m`, and `out_band.len() == (r1 - r0) * n`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(crate) unsafe fn band_avx512vnni(
        args: &BandArgs<'_>,
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
            tiles,
            ..
        } = *args;
        let TilePlan { mb, kb } = tiles;
        if n < 16 {
            // No zmm column strip fits. Instead of falling back to the
            // scalar oracle, dot along the reduction dimension — for the
            // skinny conv outputs (e.g. a 3-channel final layer) this is
            // the difference between scalar and full VNNI throughput.
            // SAFETY: same CPU features and slice contracts as this fn.
            return unsafe {
                band_vnni_narrow(a, k, n, quads, (shift, clamp, map), r0, r1, out_band)
            };
        }
        let rows = r1 - r0;
        debug_assert_eq!(out_band.len(), rows * n);
        let kb_quads = (kb / 4).max(1);
        let mb = mb.max(4);
        let acc_buf = &mut scratch.acc;
        acc_buf.clear();
        acc_buf.resize(mb.min(rows) * n, 0);

        let mut rb = 0usize;
        while rb < rows {
            let mrows = mb.min(rows - rb);
            let acc = &mut acc_buf[..mrows * n];
            acc.fill(0);
            // SAFETY: the feature and panel contracts are this fn's;
            // rows r0+rb .. +mrows are < r1 <= m and `acc` holds
            // mrows rows.
            unsafe { rows512(a, k, n, quads, acc, r0 + rb, mrows, kb_quads) };
            // SAFETY: AVX-512F and BW are this fn's.
            unsafe {
                requantize512(
                    acc,
                    shift,
                    clamp,
                    map,
                    &mut out_band[rb * n..(rb + mrows) * n],
                )
            };
            rb += mrows;
        }
    }

    /// One whole quad row of a whole strip: byte `4j + i` of `d` is byte
    /// `j` of `rows[i]`. `punpcklbw`/`punpckhbw` zip rows (0, 1) and
    /// (2, 3) into byte pairs, `punpcklwd`/`punpckhwd` zip those pairs
    /// into the four 16-byte quarters of the line — SSE2, baseline on
    /// x86-64, so every tier with a quad panel runs it. Written out: the
    /// autovectoriser turns the byte zip into a shuffle three times as
    /// slow (DESIGN.md §6g).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(crate) fn zip_quad(rows: [&[i8]; 4], d: &mut [i8; 64]) {
        // SAFETY: four 16-byte unaligned loads, each of a 16-byte slice.
        let [r0, r1, r2, r3] =
            rows.map(|r| unsafe { _mm_loadu_si128(r[..16].as_ptr() as *const _) });
        let (lo01, hi01) = (_mm_unpacklo_epi8(r0, r1), _mm_unpackhi_epi8(r0, r1));
        let (lo23, hi23) = (_mm_unpacklo_epi8(r2, r3), _mm_unpackhi_epi8(r2, r3));
        let quarters = [
            _mm_unpacklo_epi16(lo01, lo23),
            _mm_unpackhi_epi16(lo01, lo23),
            _mm_unpacklo_epi16(hi01, hi23),
            _mm_unpackhi_epi16(hi01, hi23),
        ];
        for (dst, v) in d.chunks_exact_mut(16).zip(quarters) {
            // SAFETY: a 16-byte unaligned store into a 16-byte chunk.
            unsafe { _mm_storeu_si128(dst.as_mut_ptr() as *mut _, v) };
        }
    }

    /// `clamp(v >> count, 0, 255)` of the 64 i32 lanes of `v` as 64
    /// bytes — the narrowing the AVX-512 GEMM epilogues and the
    /// depthwise rows kernel share: `vpsrad` ×4, `vpackssdw` ×2,
    /// `vpackuswb`. Signed saturation to i16 and then
    /// unsigned saturation to u8 is exactly the clamp. The packs work
    /// within 128-bit lanes, so byte `16i + 4j + b` of the result is lane
    /// `4i + b` of `v[j]`: [`Requant512::bytes`] puts them back in order
    /// with one `vpermd`, [`dw_rows_run`]'s interleaved accumulators come
    /// out of it in order already.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn pack_clamped(v: [__m512i; 4], count: __m128i) -> __m512i {
        let [s0, s1, s2, s3] = v.map(|v| _mm512_sra_epi32(v, count));
        _mm512_packus_epi16(_mm512_packs_epi32(s0, s1), _mm512_packs_epi32(s2, s3))
    }

    /// [`super::requantize`]'s `map[clamp(v >> shift, 0, clamp)]` in zmm
    /// lanes, set up once per band: the shift count, the ceiling as
    /// bytes and, for a map other than the identity, its sixteen entries
    /// broadcast to every 128-bit lane (a map comes with `clamp <= 15`,
    /// so a clamped byte is its own `vpshufb` index).
    pub(crate) struct Requant512 {
        count: __m128i,
        ceiling: __m512i,
        table: Option<__m512i>,
    }

    impl Requant512 {
        #[target_feature(enable = "avx512f,avx512bw")]
        pub(crate) fn new(shift: u8, clamp: u8, map: ByteMap) -> Requant512 {
            let entries = map.entries();
            Requant512 {
                count: _mm_cvtsi32_si128(shift as i32),
                ceiling: _mm512_set1_epi8(clamp as i8),
                // SAFETY: a 16-byte unaligned load of the sixteen entries.
                table: (!map.is_identity()).then(|| unsafe {
                    _mm512_broadcast_i32x4(_mm_loadu_si128(entries.as_ptr() as *const _))
                }),
            }
        }

        /// The 64 requantised bytes of 64 consecutive accumulators,
        /// `v[0]`'s sixteen first: [`pack_clamped`], one `vpermd` back to
        /// source order, the `vpminub` ceiling, the `vpshufb` map.
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw")]
        pub(crate) fn bytes(&self, v: [__m512i; 4]) -> __m512i {
            let order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
            let bytes = _mm512_permutexvar_epi32(order, pack_clamped(v, self.count));
            let bytes = _mm512_min_epu8(bytes, self.ceiling);
            match self.table {
                Some(table) => _mm512_shuffle_epi8(table, bytes),
                None => bytes,
            }
        }
    }

    /// [`super::requantize`] in zmm lanes, 64 accumulators per step
    /// ([`Requant512::bytes`]) — the VNNI bands' epilogue, the AMX tier's
    /// `rows % 16` remainder and so every one-row GEMM. The last step
    /// loads and stores under lane masks.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F and AVX-512BW are available; a map
    /// other than the identity needs `clamp <= 15`.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(crate) unsafe fn requantize512(
        acc: &[i32],
        shift: u8,
        clamp: u8,
        map: ByteMap,
        out: &mut [u8],
    ) {
        let requant = Requant512::new(shift, clamp, map);
        for (dst, src) in out.chunks_mut(64).zip(acc.chunks(64)) {
            let len = dst.len().min(src.len());
            let v = std::array::from_fn(|j| {
                let lanes = (len.saturating_sub(16 * j)).min(16);
                // SAFETY: the masked load touches elements 16j ..
                // 16j + lanes of `src`, all below `len`; with no lane
                // set (a short last step) it touches nothing, and the
                // pointer is never dereferenced.
                unsafe {
                    _mm512_maskz_loadu_epi32(
                        ((1u32 << lanes) - 1) as __mmask16,
                        src.as_ptr().wrapping_add(16 * j),
                    )
                }
            });
            let mask = u64::MAX >> (64 - len);
            // SAFETY: the mask covers the first `len` bytes of `dst`;
            // masked-off bytes are not accessed.
            unsafe { _mm512_mask_storeu_epi8(dst.as_mut_ptr() as *mut i8, mask, requant.bytes(v)) };
        }
    }

    /// Accumulates the whole reduction of activation rows `row0 ..
    /// row0 + mrows` into `acc` (`mrows × n`, row-major) with the VNNI
    /// strips, in segments of `kb_quads` quads so a segment of the
    /// panel is reused by every row group while it is cache-hot. Shared
    /// by [`band_avx512vnni`] and the AMX kernel's row remainder.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F + AVX-512VNNI are available, `quads`
    /// is the quad panel of a `k × n` matrix,
    /// `(row0 + mrows) * k <= a.len()`, `acc.len() == mrows * n` and
    /// `kb_quads >= 1`.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub(crate) unsafe fn rows512(
        a: &[u8],
        k: usize,
        n: usize,
        quads: &[QuadRow],
        acc: &mut [i32],
        row0: usize,
        mrows: usize,
        kb_quads: usize,
    ) {
        debug_assert!((row0 + mrows) * k <= a.len());
        debug_assert_eq!(quads.len(), quad_panel_rows(k, n));
        debug_assert_eq!(acc.len(), mrows * n);
        let nquads = k.div_ceil(4);
        let full_quads = k / 4;
        let mut q0 = 0usize;
        while q0 < nquads {
            let q1 = (q0 + kb_quads).min(nquads);
            let mut r = 0usize;
            while r + 4 <= mrows {
                // SAFETY: rows row0+r .. +4 are inside `a` and the acc
                // offset r * n stays inside the mrows*n block.
                unsafe {
                    strips512::<4>(a, k, n, quads, acc, row0 + r, r * n, q0, q1, full_quads);
                }
                r += 4;
            }
            while r < mrows {
                // SAFETY: single row row0+r inside `a`, acc offset in range.
                unsafe {
                    strips512::<1>(a, k, n, quads, acc, row0 + r, r * n, q0, q1, full_quads);
                }
                r += 1;
            }
            q0 = q1;
        }
    }

    /// Column-strip driver for an `R`-row group in the VNNI kernel:
    /// 64-wide (4-zmm) register tiles while they fit, then 32- and
    /// 16-wide tiles, then one lane-masked zmm for the `n % 16`
    /// trailing columns. The widest tile is what amortizes the per-quad
    /// activation broadcast over enough `vpdpbusd`s to approach port
    /// throughput.
    ///
    /// # Safety
    /// Same contract as [`strips`], with `quads` the quad panel of a
    /// `k × n` matrix, `q1 <= ⌈k/4⌉` and AVX-512F + VNNI available.
    #[target_feature(enable = "avx512f,avx512vnni")]
    #[inline]
    unsafe fn strips512<const R: usize>(
        a: &[u8],
        k: usize,
        n: usize,
        quads: &[QuadRow],
        acc: &mut [i32],
        row_abs: usize,
        acc_off: usize,
        q0: usize,
        q1: usize,
        full_quads: usize,
    ) {
        let mut j = 0usize;
        while j + 64 <= n {
            // SAFETY: j + 64 <= n keeps all four zmm column windows in range.
            unsafe {
                micro512::<R, 4>(a, k, n, quads, acc, row_abs, acc_off, j, q0, q1, full_quads);
            }
            j += 64;
        }
        if j + 32 <= n {
            // SAFETY: j + 32 <= n keeps both zmm column windows in range.
            unsafe {
                micro512::<R, 2>(a, k, n, quads, acc, row_abs, acc_off, j, q0, q1, full_quads);
            }
            j += 32;
        }
        if j + 16 <= n {
            // SAFETY: j + 16 <= n keeps the single zmm column window in range.
            unsafe {
                micro512::<R, 1>(a, k, n, quads, acc, row_abs, acc_off, j, q0, q1, full_quads);
            }
            j += 16;
        }
        if j < n {
            // SAFETY: 0 < n - j < 16 columns remain in every row.
            unsafe {
                micro512_tail::<R>(a, k, n, quads, acc, row_abs, acc_off, j, q0, q1, full_quads);
            }
        }
    }

    /// Narrow-band VNNI kernel for `n < 16`: no zmm column strip fits,
    /// so vectorize along the *reduction* dimension instead. Weights are
    /// copied column-major out of the quad panel's one strip (one
    /// contiguous `k`-long byte column per output channel, truncated to
    /// whole 64-byte blocks), each output is dotted with `vpdpbusd` into
    /// 16 i32 lanes, and the lanes are horizontally reduced with modular
    /// `vpaddd` steps. Wrapping i32 addition is associative and
    /// commutative, so the partitioned lane sums reduce to exactly the
    /// scalar oracle's single wrapping accumulator; the `k % 64` tail
    /// runs the oracle's element loop. All-zero activation blocks are
    /// skipped (im2col padding), which only omits adding zero.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F + AVX-512VNNI are available,
    /// `r1 * k <= a.len()`, `quads` is the quad panel of the `k × n`
    /// matrix, and `out_band.len() == (r1 - r0) * n`.
    #[target_feature(enable = "avx512f,avx512vnni")]
    unsafe fn band_vnni_narrow(
        a: &[u8],
        k: usize,
        n: usize,
        quads: &[QuadRow],
        (shift, clamp, map): (u8, u8, ByteMap),
        r0: usize,
        r1: usize,
        out_band: &mut [u8],
    ) {
        debug_assert!(n < 16);
        // The identity passes every clamped byte through; any other map
        // comes with a clamp of at most 15 (`ByteMap`).
        let entries = (!map.is_identity()).then(|| map.entries());
        debug_assert_eq!(quads.len(), quad_panel_rows(k, n));
        // With one strip, the strip's quad rows are consecutive over all
        // of `k`: weight `(kk, j)` is byte `4j + kk % 4` of quad row
        // `kk / 4` (`quad_panel_rows` has the layout).
        let weight = |kk: usize, j: usize| quads[kk / 4].0[4 * j + kk % 4];
        let klen = (k / 64) * 64;
        // One small column-major copy per band call (≤ 16·k bytes),
        // amortized over every row of the band.
        let mut cols = vec![0i8; n * klen];
        for kk in 0..klen {
            for j in 0..n {
                cols[j * klen + kk] = weight(kk, j);
            }
        }
        let zero = _mm512_setzero_si512();
        for r in r0..r1 {
            let arow = &a[r * k..(r + 1) * k];
            let orow = &mut out_band[(r - r0) * n..(r - r0 + 1) * n];
            for (j, dst) in orow.iter_mut().enumerate() {
                let col = &cols[j * klen..(j + 1) * klen];
                let mut accv = zero;
                let mut b = 0usize;
                while b < klen {
                    // SAFETY: b + 64 <= klen <= arow.len() and the same
                    // window is inside this column's repacked bytes.
                    unsafe {
                        let av = _mm512_loadu_si512(arow.as_ptr().add(b) as *const _);
                        if _mm512_cmpeq_epi32_mask(av, zero) != 0xffff {
                            let wv = _mm512_loadu_si512(col.as_ptr().add(b) as *const _);
                            accv = _mm512_dpbusd_epi32(accv, av, wv);
                        }
                    }
                    b += 64;
                }
                let mut sum = _mm512_reduce_add_epi32(accv);
                for (kk, &av) in arow.iter().enumerate().skip(klen) {
                    if av != 0 {
                        sum = sum.wrapping_add(av as i32 * weight(kk, j) as i32);
                    }
                }
                let v = (sum >> shift).clamp(0, clamp as i32) as u8;
                *dst = match &entries {
                    Some(entries) => ByteMap::select(entries, v),
                    None => v,
                };
            }
        }
    }

    /// Composes the four activation bytes of quad `q` for one row as the
    /// little-endian u32 `vpdpbusd` expects (byte t = row `4q + t`),
    /// zero-padding a partial final quad. Zero bytes meet zero-padded
    /// weight bytes, so padding never contributes.
    ///
    /// # Safety
    /// Caller must ensure `row * k + 4q < a.len()` and, for full quads,
    /// `row * k + 4q + 4 <= a.len()`.
    #[inline(always)]
    unsafe fn a_quad(a: &[u8], row: usize, k: usize, q: usize, full_quads: usize) -> u32 {
        let base = row * k + 4 * q;
        if q < full_quads {
            // SAFETY: full quad ⇒ base + 4 <= (row + 1) * k <= a.len();
            // unaligned little-endian load matches the panel byte order.
            unsafe { (a.as_ptr().add(base) as *const u32).read_unaligned() }
        } else {
            let mut bits = 0u32;
            for t in 0..(k - 4 * q) {
                // SAFETY: base + t < row * k + k <= a.len().
                bits |= (unsafe { *a.get_unchecked(base + t) } as u32) << (8 * t);
            }
            bits
        }
    }

    /// VNNI register-tiled micro-kernel: `R` rows × `W` zmm columns
    /// (16 i32 lanes each), one `vpdpbusd` per (row, quad, zmm).
    ///
    /// Unlike the AVX2 kernel, there is **no** per-quad zero-skip here:
    /// a quad is all-zero too rarely mid-tensor (four consecutive
    /// reduction values must vanish together) to pay for a data-
    /// dependent branch per (row, quad) — the mispredicts cost more
    /// than the skipped `vpdpbusd`s, and the branch forces the
    /// activation through a GPR instead of a straight memory broadcast.
    /// Accumulating an explicit zero is bit-identical (adds 0).
    ///
    /// # Safety
    /// Caller must ensure AVX-512F + VNNI, `(row_abs + R) * k <=
    /// a.len()`, `acc_off + (R-1)*n + j + 16*W <= acc.len()`, `j` a
    /// multiple of 16 with `j + 16*W <= n`, `q1 <= ⌈k/4⌉`, and `quads`
    /// the quad panel of a `k × n` matrix.
    #[target_feature(enable = "avx512f,avx512vnni")]
    #[inline]
    unsafe fn micro512<const R: usize, const W: usize>(
        a: &[u8],
        k: usize,
        n: usize,
        quads: &[QuadRow],
        acc: &mut [i32],
        row_abs: usize,
        acc_off: usize,
        j: usize,
        q0: usize,
        q1: usize,
        full_quads: usize,
    ) {
        let mut cc = [[_mm512_setzero_si512(); W]; R];
        for (r, row) in cc.iter_mut().enumerate() {
            for (w, lane) in row.iter_mut().enumerate() {
                // SAFETY: per caller contract the 16-lane i32 window at
                // acc_off + r*n + j + 16w is inside `acc`.
                *lane = unsafe {
                    _mm512_loadu_si512(acc.as_ptr().add(acc_off + r * n + j + 16 * w) as *const _)
                };
            }
        }
        // Strip j/16 starts `strip` quad rows after its left neighbour.
        let strip = k.div_ceil(64) * TILE_QUADS;
        for q in q0..q1 {
            let wbase = j / 16 * strip + q;
            let mut wv = [_mm512_setzero_si512(); W];
            for (w, lane) in wv.iter_mut().enumerate() {
                // SAFETY: per caller contract quad row q of strip
                // j/16 + w is inside `quads`, and line-aligned.
                *lane =
                    unsafe { _mm512_load_si512(quads.as_ptr().add(wbase + w * strip) as *const _) };
            }
            for (r, row) in cc.iter_mut().enumerate() {
                // SAFETY: row_abs + r < row_abs + R, in range per contract.
                let bits = unsafe { a_quad(a, row_abs + r, k, q, full_quads) };
                let av = _mm512_set1_epi32(bits as i32);
                for (w, lane) in row.iter_mut().enumerate() {
                    *lane = _mm512_dpbusd_epi32(*lane, av, wv[w]);
                }
            }
        }
        for (r, row) in cc.iter().enumerate() {
            for (w, lane) in row.iter().enumerate() {
                // SAFETY: same window as the load above.
                unsafe {
                    _mm512_storeu_si512(
                        acc.as_mut_ptr().add(acc_off + r * n + j + 16 * w) as *mut _,
                        *lane,
                    );
                }
            }
        }
    }

    /// [`micro512`] for the `n - j < 16` trailing columns of an `R`-row
    /// group: one zmm per row whose lane mask covers exactly those
    /// columns. Masked-off lanes of the accumulator load read as zero
    /// and, like the masked-off lanes of the store, are architecturally
    /// never accessed, so the strip may start fewer than 16 lanes
    /// before the end of a row or of `acc`. The panel's last strip is
    /// padded to 16 columns with zero weights, so its quad rows load
    /// whole. Live lanes compute what [`micro512`] computes (same
    /// `vpdpbusd`, same zero-padded final quad), so the bytes are the
    /// oracle's.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F + VNNI, `(row_abs + R) * k <=
    /// a.len()`, `j` a multiple of 16 with `0 < n - j < 16`, `acc_off +
    /// (R-1)*n + n <= acc.len()`, `q1 <= ⌈k/4⌉`, and `quads` the quad
    /// panel of a `k × n` matrix.
    #[target_feature(enable = "avx512f,avx512vnni")]
    #[inline]
    unsafe fn micro512_tail<const R: usize>(
        a: &[u8],
        k: usize,
        n: usize,
        quads: &[QuadRow],
        acc: &mut [i32],
        row_abs: usize,
        acc_off: usize,
        j: usize,
        q0: usize,
        q1: usize,
        full_quads: usize,
    ) {
        let lanes: __mmask16 = (1u16 << (n - j)) - 1;
        let mut cc = [_mm512_setzero_si512(); R];
        for (r, lane) in cc.iter_mut().enumerate() {
            // SAFETY: the live lanes are columns j..n of accumulator row
            // r, inside `acc` per the caller contract.
            *lane =
                unsafe { _mm512_maskz_loadu_epi32(lanes, acc.as_ptr().add(acc_off + r * n + j)) };
        }
        let wbase = j / 16 * k.div_ceil(64) * TILE_QUADS;
        for q in q0..q1 {
            // SAFETY: quad row q of the (padded) last strip is inside
            // `quads` per the caller contract, and line-aligned.
            let wv = unsafe { _mm512_load_si512(quads.as_ptr().add(wbase + q) as *const _) };
            for (r, lane) in cc.iter_mut().enumerate() {
                // SAFETY: row_abs + r < row_abs + R, in range per contract.
                let bits = unsafe { a_quad(a, row_abs + r, k, q, full_quads) };
                *lane = _mm512_dpbusd_epi32(*lane, _mm512_set1_epi32(bits as i32), wv);
            }
        }
        for (r, lane) in cc.iter().enumerate() {
            // SAFETY: same live lanes as the load above.
            unsafe {
                _mm512_mask_storeu_epi32(acc.as_mut_ptr().add(acc_off + r * n + j), lanes, *lane);
            }
        }
    }

    /// Vectorized interior step of the direct CHW convolution: computes
    /// `W × 16` horizontally-consecutive output pixels of one output row
    /// for one output channel. Pixels live in i32 lanes of `W` zmm
    /// accumulators; each in-range tap contributes
    /// `cvtepu8_epi32(load16) * broadcast(weight)` per group with
    /// modular `vpmulld`/`vpaddd` — bit-identical to the scalar sum by
    /// wrapping associativity — and the epilogue applies the same
    /// `(v >> shift).clamp(0, 255).min(act_max)` (the 255 bound is
    /// subsumed by `act_max ≤ 255`). Zero weights are skipped (omits
    /// adding zero). `W > 1` exists because the tap loop (up to
    /// `c·kh·kw` iterations of bounds checks and weight fetches) costs
    /// as much as the arithmetic — more pixels per sweep amortize it.
    /// Only needs AVX-512F, but dispatch only selects it on the
    /// AVX-512-capable tiers.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F is available, `dst.len() == 16·W`,
    /// `wj.len() == c·kh·kw`, `input.len() == c·h·w`, and that every
    /// horizontal tap is in bounds: `x0 + kw - 1 + 16·W <= w` (interior
    /// pixels of a unit-stride row, `x0` = leftmost tap of lane 0).
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn conv_interior_avx512<const W: usize>(
        input: &[u8],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        sy: usize,
        py: usize,
        oy: usize,
        x0: usize,
        wj: &[i8],
        shift: u8,
        act_max: u8,
        dst: &mut [u8],
    ) {
        let mut acc = [_mm512_setzero_si512(); W];
        for ch in 0..c {
            let plane = &input[ch * h * w..(ch + 1) * h * w];
            let wch = &wj[ch * kh * kw..(ch + 1) * kh * kw];
            for dy in 0..kh {
                let y = (oy * sy + dy) as isize - py as isize;
                if y < 0 || y as usize >= h {
                    continue;
                }
                let srow = &plane[y as usize * w..(y as usize + 1) * w];
                for (dx, &wv) in wch[dy * kw..(dy + 1) * kw].iter().enumerate() {
                    if wv == 0 {
                        continue; // zero weight contributes nothing
                    }
                    let wb = _mm512_set1_epi32(wv as i32);
                    for (wi, lane) in acc.iter_mut().enumerate() {
                        // SAFETY: interior contract ⇒ x0 + dx + 16·W <= w.
                        let px = unsafe {
                            _mm_loadu_si128(srow.as_ptr().add(x0 + dx + 16 * wi) as *const __m128i)
                        };
                        let xi = _mm512_cvtepu8_epi32(px);
                        *lane = _mm512_add_epi32(*lane, _mm512_mullo_epi32(xi, wb));
                    }
                }
            }
        }
        for (wi, lane) in acc.iter().enumerate() {
            let shifted = _mm512_srav_epi32(*lane, _mm512_set1_epi32(shift as i32));
            let clamped = _mm512_min_epi32(
                _mm512_max_epi32(shifted, _mm512_setzero_si512()),
                _mm512_set1_epi32(act_max as i32),
            );
            // SAFETY: dst.len() == 16·W per contract.
            unsafe {
                _mm_storeu_si128(
                    dst.as_mut_ptr().add(16 * wi) as *mut __m128i,
                    _mm512_cvtepi32_epi8(clamped),
                );
            }
        }
    }

    /// `W × 8`-pixel AVX2 variant of [`conv_interior_avx512`] — same tap
    /// loop with ymm i32 lanes; the narrowing store goes through a small
    /// stack array (AVX2 has no direct i32→u8 down-convert).
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `dst.len() == 8·W`, and the
    /// same slice and interior contracts with `x0 + kw - 1 + 8·W <= w`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn conv_interior_avx2<const W: usize>(
        input: &[u8],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        sy: usize,
        py: usize,
        oy: usize,
        x0: usize,
        wj: &[i8],
        shift: u8,
        act_max: u8,
        dst: &mut [u8],
    ) {
        let mut acc = [_mm256_setzero_si256(); W];
        for ch in 0..c {
            let plane = &input[ch * h * w..(ch + 1) * h * w];
            let wch = &wj[ch * kh * kw..(ch + 1) * kh * kw];
            for dy in 0..kh {
                let y = (oy * sy + dy) as isize - py as isize;
                if y < 0 || y as usize >= h {
                    continue;
                }
                let srow = &plane[y as usize * w..(y as usize + 1) * w];
                for (dx, &wv) in wch[dy * kw..(dy + 1) * kw].iter().enumerate() {
                    if wv == 0 {
                        continue; // zero weight contributes nothing
                    }
                    let wb = _mm256_set1_epi32(wv as i32);
                    for (wi, lane) in acc.iter_mut().enumerate() {
                        // SAFETY: interior contract ⇒ x0 + dx + 8·W <= w.
                        let px = unsafe {
                            _mm_loadl_epi64(srow.as_ptr().add(x0 + dx + 8 * wi) as *const __m128i)
                        };
                        let xi = _mm256_cvtepu8_epi32(px);
                        *lane = _mm256_add_epi32(*lane, _mm256_mullo_epi32(xi, wb));
                    }
                }
            }
        }
        for (wi, lane) in acc.iter().enumerate() {
            let shifted = _mm256_srav_epi32(*lane, _mm256_set1_epi32(shift as i32));
            let mut lanes = [0i32; 8];
            // SAFETY: `lanes` is exactly one ymm wide.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, shifted) };
            for (d, &v) in dst[8 * wi..8 * wi + 8].iter_mut().zip(lanes.iter()) {
                *d = (v.clamp(0, 255) as u8).min(act_max);
            }
        }
    }

    /// Multi-channel (`N` output channels) variant of
    /// [`conv_interior_avx512`]: one tap sweep loads each pixel vector
    /// once and feeds all `N` channel accumulators, so the loads and the
    /// tap-loop overhead (the bulk of a narrow head's cost) are paid
    /// once instead of `N` times. `wcols` holds the `N` weight columns
    /// back to back (channel-major, `N × c·kh·kw`); channel `j`'s pixels
    /// land at `out[dst0 + j·plane ..]` — byte-for-byte what `N` calls
    /// of the single-channel kernel would produce (same wrapping sums,
    /// same zero-weight skips, which add nothing either way).
    ///
    /// # Safety
    /// [`conv_interior_avx512`]'s slice and interior contracts
    /// (`x0 + kw - 1 + 16·W <= w`), plus `wcols.len() == N·c·kh·kw` and
    /// `dst0 + (N-1)·plane + 16·W <= out.len()`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn conv_interior_mc_avx512<const N: usize, const W: usize>(
        input: &[u8],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        sy: usize,
        py: usize,
        oy: usize,
        x0: usize,
        wcols: &[i8],
        shift: u8,
        act_max: u8,
        out: &mut [u8],
        dst0: usize,
        plane: usize,
    ) {
        let k = c * kh * kw;
        let mut acc = [[_mm512_setzero_si512(); W]; N];
        for ch in 0..c {
            let splane = &input[ch * h * w..(ch + 1) * h * w];
            for dy in 0..kh {
                let y = (oy * sy + dy) as isize - py as isize;
                if y < 0 || y as usize >= h {
                    continue;
                }
                let srow = &splane[y as usize * w..(y as usize + 1) * w];
                let tbase = (ch * kh + dy) * kw;
                for dx in 0..kw {
                    let mut ws = [0i8; N];
                    let mut any = false;
                    for (j, wv) in ws.iter_mut().enumerate() {
                        *wv = wcols[j * k + tbase + dx];
                        any |= *wv != 0;
                    }
                    if !any {
                        continue; // zero weights contribute nothing
                    }
                    let mut px = [_mm512_setzero_si512(); W];
                    for (wi, lane) in px.iter_mut().enumerate() {
                        // SAFETY: interior contract ⇒ x0 + dx + 16·W <= w.
                        let v = unsafe {
                            _mm_loadu_si128(srow.as_ptr().add(x0 + dx + 16 * wi) as *const __m128i)
                        };
                        *lane = _mm512_cvtepu8_epi32(v);
                    }
                    for (j, accj) in acc.iter_mut().enumerate() {
                        if ws[j] == 0 {
                            continue;
                        }
                        let wb = _mm512_set1_epi32(ws[j] as i32);
                        for (wi, lane) in accj.iter_mut().enumerate() {
                            *lane = _mm512_add_epi32(*lane, _mm512_mullo_epi32(px[wi], wb));
                        }
                    }
                }
            }
        }
        for (j, accj) in acc.iter().enumerate() {
            for (wi, lane) in accj.iter().enumerate() {
                let shifted = _mm512_srav_epi32(*lane, _mm512_set1_epi32(shift as i32));
                let clamped = _mm512_min_epi32(
                    _mm512_max_epi32(shifted, _mm512_setzero_si512()),
                    _mm512_set1_epi32(act_max as i32),
                );
                // SAFETY: dst0 + (N-1)·plane + 16·W <= out.len() per contract.
                unsafe {
                    _mm_storeu_si128(
                        out.as_mut_ptr().add(dst0 + j * plane + 16 * wi) as *mut __m128i,
                        _mm512_cvtepi32_epi8(clamped),
                    );
                }
            }
        }
    }

    /// Quad-tap VNNI variant of [`conv_interior_mc_avx512`]: each run of
    /// four horizontal taps collapses into one `vpdpbusd` per channel. A
    /// 32-byte row fragment is expanded by `vpermb` into sliding 4-byte
    /// windows (dword lane `i` = `srow[b+i .. b+i+4]`), so one load and
    /// one shuffle replace four widened multiply-adds; the matching
    /// 4-weight quads (zero-padded past `kw`, so the extra bytes
    /// multiply by zero) arrive premixed in `wquads`, laid out
    /// `[(j·c + ch)·kh + dy]·nq + q` with `nq = ⌈kw/4⌉`. `vpdpbusd`
    /// accumulates the exact 4-tap dot product with wrapping dword adds
    /// (products fit i16, the 4-way sum is exact), so outputs stay
    /// bit-identical to the scalar order.
    ///
    /// # Safety
    /// Caller must ensure AVX-512VBMI and AVX-512VNNI are available,
    /// `wquads.len() == N·c·kh·nq`, the dst contract of
    /// [`conv_interior_mc_avx512`], and that every 32-byte fragment load
    /// is in bounds: `x0 + 4·(nq-1) + 16·(W-1) + 32 <= w`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vnni")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn conv_interior_mc_vnni<const N: usize, const W: usize>(
        input: &[u8],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        sy: usize,
        py: usize,
        oy: usize,
        x0: usize,
        wquads: &[i32],
        shift: u8,
        act_max: u8,
        out: &mut [u8],
        dst0: usize,
        plane: usize,
    ) {
        let nq = kw.div_ceil(4);
        // Sliding-window shuffle: result byte 4i+t = source byte i+t, so
        // dword lane i holds the 4-byte window starting i bytes in. All
        // indices are < 32, hitting the low half of the broadcast pair.
        let mut idx = [0u8; 64];
        for (r, b) in idx.iter_mut().enumerate() {
            *b = (r / 4 + r % 4) as u8;
        }
        // SAFETY: `idx` is exactly one zmm wide.
        let idx = unsafe { _mm512_loadu_si512(idx.as_ptr() as *const _) };
        let mut acc = [[_mm512_setzero_si512(); W]; N];
        for ch in 0..c {
            let splane = &input[ch * h * w..(ch + 1) * h * w];
            for dy in 0..kh {
                let y = (oy * sy + dy) as isize - py as isize;
                if y < 0 || y as usize >= h {
                    continue;
                }
                let srow = &splane[y as usize * w..(y as usize + 1) * w];
                for q in 0..nq {
                    let mut ws = [0i32; N];
                    let mut any = false;
                    for (j, wv) in ws.iter_mut().enumerate() {
                        *wv = wquads[((j * c + ch) * kh + dy) * nq + q];
                        any |= *wv != 0;
                    }
                    if !any {
                        continue; // zero quads contribute nothing
                    }
                    let mut px = [_mm512_setzero_si512(); W];
                    for (wi, lane) in px.iter_mut().enumerate() {
                        // SAFETY: fragment contract ⇒ x0 + 4q + 16·wi + 32 <= w.
                        let frag = unsafe {
                            _mm256_loadu_si256(
                                srow.as_ptr().add(x0 + 4 * q + 16 * wi) as *const __m256i
                            )
                        };
                        *lane = _mm512_permutexvar_epi8(idx, _mm512_broadcast_i64x4(frag));
                    }
                    for (j, accj) in acc.iter_mut().enumerate() {
                        if ws[j] == 0 {
                            continue;
                        }
                        let wq = _mm512_set1_epi32(ws[j]);
                        for (wi, lane) in accj.iter_mut().enumerate() {
                            *lane = _mm512_dpbusd_epi32(*lane, px[wi], wq);
                        }
                    }
                }
            }
        }
        for (j, accj) in acc.iter().enumerate() {
            for (wi, lane) in accj.iter().enumerate() {
                let shifted = _mm512_srav_epi32(*lane, _mm512_set1_epi32(shift as i32));
                let clamped = _mm512_min_epi32(
                    _mm512_max_epi32(shifted, _mm512_setzero_si512()),
                    _mm512_set1_epi32(act_max as i32),
                );
                // SAFETY: dst0 + (N-1)·plane + 16·W <= out.len() per contract.
                unsafe {
                    _mm_storeu_si128(
                        out.as_mut_ptr().add(dst0 + j * plane + 16 * wi) as *mut __m128i,
                        _mm512_cvtepi32_epi8(clamped),
                    );
                }
            }
        }
    }

    /// AVX-512 VNNI form of the depthwise row-accumulator kernel
    /// ([`crate::conv::dwconv_direct_into`]): 16 output pixels
    /// of one row live in the dword lanes of one zmm, and each run of
    /// four horizontal taps is one `vpdpbusd` (exact, as in
    /// [`conv_interior_mc_vnni`]). One byte-masked load fetches the
    /// group's source fragment — masked-off bytes read as zero, which
    /// *is* the padding value, and are architecturally never accessed,
    /// so the same instruction serves interior and border groups — and
    /// one `vpermb` spreads it into the lanes' 4-byte windows: lane `i`
    /// takes fragment bytes `i·sx .. i·sx + 4`, so a horizontal stride
    /// is just a different index vector (no phase split). The last
    /// group of a row, and a row cut short by the caller's `out_len`,
    /// finish with a masked down-converting store.
    ///
    /// `planes` holds one `h·w` plane per `out_h·out_w` chunk of `dst`
    /// (the last chunk may be short).
    ///
    /// # Safety
    /// Caller must ensure AVX-512 F, BW, VBMI and VNNI are available,
    /// `1 <= s.sx <= 4` (lane 15's window ends at fragment byte
    /// `15·sx + 3 <= 63`), `weights.len() == s.kh · s.kw` with
    /// `s.kh · ⌈s.kw/4⌉ <= DW_VNNI_MAX_QUADS`, and
    /// `planes.len() >= n · s.h · s.w` for the `n` chunks of `dst`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vnni")]
    pub(crate) unsafe fn dw_planes_vnni(
        planes: &[u8],
        s: &crate::conv::DwShape,
        weights: &[i8],
        shift: u8,
        act_max: u8,
        dst: &mut [u8],
    ) {
        let nq = s.kw.div_ceil(4);
        // Tap quads, zero-padded past `kw` (a zero weight byte cancels
        // whatever pixel it meets).
        let mut wquads = [0i32; crate::conv::DW_VNNI_MAX_QUADS];
        for (quads, wrow) in wquads.chunks_exact_mut(nq).zip(weights.chunks_exact(s.kw)) {
            for (quad, taps) in quads.iter_mut().zip(wrow.chunks(4)) {
                let mut b = [0u8; 4];
                for (byte, &t) in b.iter_mut().zip(taps) {
                    *byte = t as u8;
                }
                *quad = i32::from_le_bytes(b);
            }
        }
        // Only the `15·sx + 4` fragment bytes the shuffle reads are ever
        // loaded.
        let span = 15 * s.sx as isize + 4;
        let below = |n: isize| 1u64.checked_shl(n as u32).map_or(u64::MAX, |b| b - 1);
        let mut idx = [0u8; 64];
        for (r, b) in idx.iter_mut().enumerate() {
            *b = (r / 4 * s.sx + r % 4) as u8;
        }
        // SAFETY: `idx` is exactly one zmm wide.
        let idx = unsafe { _mm512_loadu_si512(idx.as_ptr() as *const _) };
        // `wrapping_shr` semantics of the portable form.
        let shiftv = _mm512_set1_epi32((shift & 31) as i32);
        let maxv = _mm512_set1_epi32(act_max as i32);
        let chans = planes.chunks_exact(s.h * s.w);
        for (chan, dst_plane) in chans.zip(dst.chunks_mut(s.out_h * s.out_w)) {
            for (oy, dst_row) in dst_plane.chunks_mut(s.out_w).enumerate() {
                let dys = s.dy_range(oy);
                for (g, group) in dst_row.chunks_mut(16).enumerate() {
                    let mut acc = _mm512_setzero_si512();
                    for q in 0..nq {
                        // Where this (group, quad)'s fragment starts
                        // relative to the source row, and which of its
                        // bytes are inside the row.
                        let start = (16 * g * s.sx + 4 * q) as isize - s.px as isize;
                        let lo = (-start).clamp(0, span);
                        let hi = (s.w as isize - start).clamp(0, span);
                        let mask = below(hi) & !below(lo);
                        for dy in dys.clone() {
                            let row = &chan[(oy * s.sy + dy - s.py) * s.w..][..s.w];
                            // SAFETY: every set mask bit `b` has
                            // `0 <= start + b < w`, a byte of `row`; the
                            // (possibly out-of-bounds) address itself is
                            // formed without `offset`'s in-bounds rule.
                            let frag = unsafe {
                                _mm512_maskz_loadu_epi8(
                                    mask,
                                    row.as_ptr().wrapping_offset(start) as *const i8,
                                )
                            };
                            acc = _mm512_dpbusd_epi32(
                                acc,
                                _mm512_permutexvar_epi8(idx, frag),
                                _mm512_set1_epi32(wquads[dy * nq + q]),
                            );
                        }
                    }
                    // clamp(0, 255).min(act_max) == clamp(0, act_max).
                    let v = _mm512_min_epi32(
                        _mm512_max_epi32(_mm512_srav_epi32(acc, shiftv), _mm512_setzero_si512()),
                        maxv,
                    );
                    let lanes = ((1u32 << group.len()) - 1) as u16;
                    // SAFETY: the store mask covers exactly `group`.
                    unsafe {
                        _mm512_mask_cvtepi32_storeu_epi8(group.as_mut_ptr() as *mut i8, lanes, v)
                    };
                }
            }
        }
    }

    /// Most taps one run of the pixel-major depthwise form keeps.
    const DW_ROWS_MAX_TAPS: usize = 4 * crate::conv::DW_VNNI_MAX_QUADS;

    /// The taps of one run of [`dw_rows_vnni`] — a clipped `dys × dxs`
    /// window of the filter — as source byte offsets from the run's
    /// first tap, four to a weight quad.
    struct DwRowTaps {
        /// Offset of each tap's source byte from the first tap's,
        /// padded to a whole quad with offset 0 (an in-bounds source
        /// whose weight byte is 0).
        rel: [usize; DW_ROWS_MAX_TAPS],
        /// The quads' four weight bytes, lowest tap lowest.
        wq: [i32; crate::conv::DW_VNNI_MAX_QUADS],
        quads: usize,
        /// The largest offset in `rel`.
        reach: usize,
    }

    impl DwRowTaps {
        /// The window `dys × dxs` (both non-empty) of `weights` over
        /// pixel-major rows of `s.w` pixels of `c` bytes.
        fn window(
            &mut self,
            s: &crate::conv::DwShape,
            c: usize,
            dys: std::ops::Range<usize>,
            dxs: std::ops::Range<usize>,
            weights: &[i8],
        ) {
            self.quads = (dys.len() * dxs.len()).div_ceil(4);
            self.wq[..self.quads].fill(0);
            self.rel[..4 * self.quads].fill(0);
            let mut n = 0;
            for dy in dys.clone() {
                for dx in dxs.clone() {
                    self.rel[n] = ((dy - dys.start) * s.w + (dx - dxs.start)) * c;
                    let byte = weights[dy * s.kw + dx] as u8 as u32;
                    self.wq[n / 4] |= (byte << (8 * (n % 4))) as i32;
                    n += 1;
                }
            }
            self.reach = self.rel[n - 1];
        }
    }

    /// AVX-512 VNNI form of the pixel-major depthwise kernel
    /// ([`crate::conv::dwconv_rows_into`]). The lanes are **bytes of
    /// the output row**: with one filter shared by all channels, output
    /// byte `j` of a run is `Σ_t w_t · x[base + rel_t + j]` for every
    /// `j`, whichever channel it is. Per 64 output bytes and tap quad,
    /// the four taps' source bytes are loaded and byte-interleaved
    /// (`vpunpck{l,h}bw`, then `vpunpck{l,h}wd`) so each dword holds
    /// one lane's four taps, and one `vpdpbusd` per accumulator
    /// multiplies them by the broadcast weight quad (exact: u8 × i8
    /// products summed in i32 without saturation, as in
    /// [`conv_interior_mc_vnni`]). The four accumulators hold bytes
    /// `0–3`, `4–7`, `8–11`, `12–15` of each 128-bit lane;
    /// `vpackssdw` + `vpackuswb` put them back in order and *are* the
    /// `clamp(0, 255)`, and `vpminub` applies `act_max`. The last
    /// chunk of a run is loaded and stored under a byte mask.
    ///
    /// A run is a stretch of output bytes with one tap list: at stride
    /// 1 all pixels of a row whose horizontal taps are in bounds, else
    /// one pixel. Border pixels are runs with a clipped window.
    ///
    /// # Safety
    /// Caller must ensure AVX-512 F, BW and VNNI are available,
    /// `x.len() == c · s.h · s.w`, `weights.len() == s.kh · s.kw` with
    /// `⌈s.kh·s.kw / 4⌉ <= DW_VNNI_MAX_QUADS`, `out.len() ==
    /// c · s.out_h · s.out_w` and `c · s.out_w > 0`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(crate) unsafe fn dw_rows_vnni(
        x: &[u8],
        c: usize,
        s: &crate::conv::DwShape,
        weights: &[i8],
        shift: u8,
        act_max: u8,
        out: &mut [u8],
    ) {
        let pitch = s.w * c;
        // `wrapping_shr` semantics of the portable form.
        let shiftv = _mm_cvtsi32_si128((shift & 31) as i32);
        let maxv = _mm512_set1_epi8(act_max as i8);
        let mut taps = DwRowTaps {
            rel: [0; DW_ROWS_MAX_TAPS],
            wq: [0; crate::conv::DW_VNNI_MAX_QUADS],
            quads: 0,
            reach: 0,
        };
        let interior = s.ox_range(0..s.kw);
        for (oy, dst_row) in out.chunks_exact_mut(s.out_w * c).enumerate() {
            let dys = s.dy_range(oy);
            if dys.is_empty() {
                // Every tap is padding: the requantised zero.
                dst_row.fill(0);
                continue;
            }
            let row0 = (oy * s.sy + dys.start - s.py) * pitch;
            for ox in (0..interior.start).chain(interior.end..s.out_w) {
                let dxs = s.dx_range(ox);
                let dst = &mut dst_row[ox * c..][..c];
                if dxs.is_empty() {
                    dst.fill(0);
                    continue;
                }
                let base = row0 + (ox * s.sx + dxs.start - s.px) * c;
                taps.window(s, c, dys.clone(), dxs, weights);
                // SAFETY: the features are the caller's contract.
                unsafe { dw_rows_run(x, base, &taps, shiftv, maxv, dst) };
            }
            if interior.is_empty() {
                continue;
            }
            taps.window(s, c, dys, 0..s.kw, weights);
            let base = row0 + (interior.start * s.sx - s.px) * c;
            let dst = &mut dst_row[interior.start * c..interior.end * c];
            // Stride 1: the interior is one run. Otherwise a run per
            // pixel, its sources `sx·c` bytes further on.
            let run = if s.sx == 1 { dst.len() } else { c };
            for (i, dst) in dst.chunks_exact_mut(run).enumerate() {
                // SAFETY: the features are the caller's contract.
                unsafe { dw_rows_run(x, base + i * s.sx * c, &taps, shiftv, maxv, dst) };
            }
        }
    }

    /// One run of [`dw_rows_vnni`]: `dst[j] = requant(Σ_t w_t ·
    /// x[base + rel_t + j])`.
    ///
    /// # Safety
    /// Caller must ensure AVX-512 F, BW and VNNI are available. The
    /// source range is checked here.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn dw_rows_run(
        x: &[u8],
        base: usize,
        taps: &DwRowTaps,
        shiftv: __m128i,
        maxv: __m512i,
        dst: &mut [u8],
    ) {
        let n = dst.len();
        // Every tap reads `x[base + rel .. base + rel + n]`.
        assert!(
            base + taps.reach + n <= x.len(),
            "tap window out of the map"
        );
        for at in (0..n).step_by(64) {
            let mask = match n - at {
                live if live < 64 => (1u64 << live) - 1,
                _ => u64::MAX,
            };
            let mut acc = [_mm512_setzero_si512(); 4];
            for (rel, &wq) in taps.rel.chunks_exact(4).zip(&taps.wq[..taps.quads]) {
                // SAFETY: lane `j` of the mask is set only for
                // `at + j < n`, so every byte read is below
                // `base + rel + n <= x.len()` (asserted above); masked-off
                // bytes are not accessed, and the pointer itself,
                // `base + rel + at < x.len()`, is inside `x`.
                let load = |r: usize| unsafe {
                    _mm512_maskz_loadu_epi8(mask, x.as_ptr().add(base + r + at) as *const i8)
                };
                let (a, b, c, d) = (load(rel[0]), load(rel[1]), load(rel[2]), load(rel[3]));
                let (ab_lo, ab_hi) = (_mm512_unpacklo_epi8(a, b), _mm512_unpackhi_epi8(a, b));
                let (cd_lo, cd_hi) = (_mm512_unpacklo_epi8(c, d), _mm512_unpackhi_epi8(c, d));
                let w = _mm512_set1_epi32(wq);
                acc[0] = _mm512_dpbusd_epi32(acc[0], _mm512_unpacklo_epi16(ab_lo, cd_lo), w);
                acc[1] = _mm512_dpbusd_epi32(acc[1], _mm512_unpackhi_epi16(ab_lo, cd_lo), w);
                acc[2] = _mm512_dpbusd_epi32(acc[2], _mm512_unpacklo_epi16(ab_hi, cd_hi), w);
                acc[3] = _mm512_dpbusd_epi32(acc[3], _mm512_unpackhi_epi16(ab_hi, cd_hi), w);
            }
            let bytes = pack_clamped(acc, shiftv);
            // SAFETY: the mask covers exactly `dst[at..]`'s live bytes.
            unsafe {
                _mm512_mask_storeu_epi8(
                    dst.as_mut_ptr().add(at) as *mut i8,
                    mask,
                    _mm512_min_epu8(bytes, maxv),
                )
            };
        }
    }
}
