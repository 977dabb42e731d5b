//! Byte-matrix transpose with a clamp — the layout change on both
//! sides of a conv GEMM.
//!
//! A conv GEMM consumes spatial-major rows and produces spatial-major
//! rows, while every tensor between operators is CHW. A pointwise conv
//! therefore stages `a[r][ch] = x[ch·m + r]` before the multiply, and
//! every conv scatters `out[ch·spatial + o] = result[o][ch]` after it.
//! Both are the same operation, [`transpose_clamp_into`], and both are
//! pure data movement: whichever form runs, the bytes are the ones the
//! naive loop ([`crate::reference::transpose_clamp_ref`]) writes.
//!
//! Two forms, picked by [`crate::active_isa`] on the calling thread —
//! the rule [`crate::dwconv_direct_into`] follows, so a
//! [`crate::pin_isa`] moves this kernel with every other one:
//!
//! * **portable** — 32-row blocks, so the 32 source lines a block reads
//!   stay in L1 while each destination row is written as one contiguous
//!   run. Runs when the scalar tier is active, on every architecture
//!   but x86-64, and for matrices with fewer than 16 rows or columns.
//! * **SSE2** — 16×16 byte tiles through a four-stage unpack network
//!   (`punpck{l,h}{bw,wd,dq,qdq}`), walked in 64×64 blocks so both sides
//!   move whole cache lines. SSE2 is part of the x86-64 baseline: no
//!   runtime detection, no `#[target_feature]`. A matrix edge that is
//!   not a multiple of 16 is covered by a tile shifted back inside the
//!   matrix; the overlap rewrites bytes with the values they already
//!   hold, so there is no scalar edge loop.

/// Writes the transpose of the row-major `rows × cols` prefix of `src`
/// into `dst` with row stride `dst_stride`, clamping on the way:
/// `dst[c·dst_stride + r] = min(src[r·cols + c], clamp)` for every
/// `r < rows`, `c < cols`. Every other byte of `dst` — the
/// `dst_stride − rows` gap after each destination row included — is
/// left as it was. Allocates nothing.
///
/// # Panics
/// Panics if `src` holds fewer than `rows · cols` bytes, if
/// `dst_stride < rows`, or if `dst` is too short for the last
/// destination row (`(cols − 1) · dst_stride + rows` bytes).
pub fn transpose_clamp_into(
    src: &[u8],
    rows: usize,
    cols: usize,
    clamp: u8,
    dst: &mut [u8],
    dst_stride: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(src.len() >= rows * cols, "source smaller than rows × cols");
    assert!(dst_stride >= rows, "destination rows overlap");
    assert!(
        dst.len() >= (cols - 1) * dst_stride + rows,
        "destination too short for the last row"
    );
    #[cfg(target_arch = "x86_64")]
    if rows >= x86::TILE
        && cols >= x86::TILE
        && crate::dispatch::active_isa() != crate::dispatch::KernelIsa::Scalar
    {
        // SAFETY: the three asserts above are exactly the contract of
        // `transpose_tiles_sse2`, and both extents hold a whole tile.
        unsafe { x86::transpose_tiles_sse2(src, rows, cols, clamp, dst, dst_stride) };
        return;
    }
    transpose_portable(src, rows, cols, clamp, dst, dst_stride);
}

/// Source rows per block of the portable form: the block's source lines
/// (one per row) fit L1 with room for the destination run.
const PORTABLE_ROWS: usize = 32;

fn transpose_portable(
    src: &[u8],
    rows: usize,
    cols: usize,
    clamp: u8,
    dst: &mut [u8],
    dst_stride: usize,
) {
    for r0 in (0..rows).step_by(PORTABLE_ROWS) {
        let block = &src[r0 * cols..rows.min(r0 + PORTABLE_ROWS) * cols];
        for c in 0..cols {
            let run = &mut dst[c * dst_stride + r0..];
            for (d, row) in run.iter_mut().zip(block.chunks_exact(cols)) {
                *d = row[c].min(clamp);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use core::arch::x86_64::*;

    /// Edge of the square byte tile one unpack network transposes.
    pub(crate) const TILE: usize = 16;
    /// Tiles per side of a block: 4 × 16 bytes is one cache line, so a
    /// block reads 64 whole source lines and writes 64 whole
    /// destination lines before moving on.
    const BLOCK_TILES: usize = 4;

    /// SSE2 form of [`super::transpose_clamp_into`].
    ///
    /// # Safety
    /// Caller must ensure `rows >= TILE`, `cols >= TILE`,
    /// `src.len() >= rows · cols`, `dst_stride >= rows` and
    /// `dst.len() >= (cols − 1) · dst_stride + rows`.
    pub(super) unsafe fn transpose_tiles_sse2(
        src: &[u8],
        rows: usize,
        cols: usize,
        clamp: u8,
        dst: &mut [u8],
        dst_stride: usize,
    ) {
        let clamp = _mm_set1_epi8(clamp as i8);
        let (row_tiles, col_tiles) = (rows.div_ceil(TILE), cols.div_ceil(TILE));
        // The last tile of a ragged extent starts `TILE` before the
        // edge, overlapping its neighbour.
        let origin = |tile: usize, extent: usize| (tile * TILE).min(extent - TILE);
        for rt0 in (0..row_tiles).step_by(BLOCK_TILES) {
            for ct0 in (0..col_tiles).step_by(BLOCK_TILES) {
                for rt in rt0..row_tiles.min(rt0 + BLOCK_TILES) {
                    let r = origin(rt, rows);
                    for ct in ct0..col_tiles.min(ct0 + BLOCK_TILES) {
                        let c = origin(ct, cols);
                        // SAFETY: `r + TILE <= rows` and `c + TILE <=
                        // cols`, so the 16 source rows of 16 bytes at
                        // `r·cols + c` end before `rows·cols <=
                        // src.len()`, and the 16 destination rows of 16
                        // bytes at `c·dst_stride + r` end at most at
                        // `(cols − 1)·dst_stride + rows <= dst.len()`.
                        unsafe {
                            tile16(
                                src.as_ptr().add(r * cols + c),
                                cols,
                                dst.as_mut_ptr().add(c * dst_stride + r),
                                dst_stride,
                                clamp,
                            );
                        }
                    }
                }
            }
        }
    }

    /// Transposes one 16×16 byte tile from `src` (row stride
    /// `src_stride`) to `dst` (row stride `dst_stride`), clamping.
    ///
    /// # Safety
    /// `src + i·src_stride` must be readable and `dst + i·dst_stride`
    /// writable for 16 bytes, for every `i < 16`.
    #[inline(always)]
    unsafe fn tile16(
        src: *const u8,
        src_stride: usize,
        dst: *mut u8,
        dst_stride: usize,
        clamp: __m128i,
    ) {
        let mut x = [_mm_setzero_si128(); TILE];
        for (i, row) in x.iter_mut().enumerate() {
            // SAFETY: row `i` of the source tile, per the contract.
            *row = unsafe { _mm_loadu_si128(src.add(i * src_stride) as *const __m128i) };
        }
        for (c, col) in transpose16(x).into_iter().enumerate() {
            // SAFETY: row `c` of the destination tile, per the contract.
            unsafe {
                _mm_storeu_si128(
                    dst.add(c * dst_stride) as *mut __m128i,
                    _mm_min_epu8(col, clamp),
                );
            }
        }
    }

    /// The 16×16 byte transpose as a register network: `x[r]` holds row
    /// `r` of the tile, the result's register `c` holds column `c`, rows
    /// 0..16. Stage `s` interleaves `2^s`-byte groups of rows `2^s`
    /// apart. [`crate::conv::im2col_rm_into`] feeds it 16 gathered rows
    /// instead of 16 rows one stride apart.
    #[inline(always)]
    pub(crate) fn transpose16(x: [__m128i; TILE]) -> [__m128i; TILE] {
        // SAFETY: SSE2 register-to-register unpacks — part of the x86-64
        // baseline, no memory access.
        unsafe {
            // Rows (2i, 2i+1) → bytes interleaved; y[2i] columns 0..8,
            // y[2i+1] columns 8..16.
            let mut y = x;
            for i in 0..8 {
                y[2 * i] = _mm_unpacklo_epi8(x[2 * i], x[2 * i + 1]);
                y[2 * i + 1] = _mm_unpackhi_epi8(x[2 * i], x[2 * i + 1]);
            }
            // Rows 4j..4j+4; z[4j + s] columns 4s..4s+4.
            let mut z = y;
            for j in 0..4 {
                z[4 * j] = _mm_unpacklo_epi16(y[4 * j], y[4 * j + 2]);
                z[4 * j + 1] = _mm_unpackhi_epi16(y[4 * j], y[4 * j + 2]);
                z[4 * j + 2] = _mm_unpacklo_epi16(y[4 * j + 1], y[4 * j + 3]);
                z[4 * j + 3] = _mm_unpackhi_epi16(y[4 * j + 1], y[4 * j + 3]);
            }
            // Rows 8h..8h+8; w[8h + t] columns 2t, 2t+1.
            let mut w = z;
            for h in 0..2 {
                for s in 0..4 {
                    w[8 * h + 2 * s] = _mm_unpacklo_epi32(z[8 * h + s], z[8 * h + 4 + s]);
                    w[8 * h + 2 * s + 1] = _mm_unpackhi_epi32(z[8 * h + s], z[8 * h + 4 + s]);
                }
            }
            let mut out = w;
            for t in 0..8 {
                out[2 * t] = _mm_unpacklo_epi64(w[t], w[8 + t]);
                out[2 * t + 1] = _mm_unpackhi_epi64(w[t], w[8 + t]);
            }
            out
        }
    }
}
