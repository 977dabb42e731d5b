//! Convolution-specific kernels.
//!
//! Regular convolutions reach the GEMM kernels through implicit im2col
//! (the [`gcd2_cgraph::GemmDims`] view); the extra address generation of
//! non-1×1 kernels is charged by [`im2col_overhead_cycles`]. Depthwise
//! convolutions additionally have a dedicated `vtmpy` (3-tap sliding
//! multiply) kernel — a second instruction choice alongside the generic
//! GEMM path, exactly the kind of disparate-instruction trade-off the
//! paper exploits.

use crate::tiled::LineBuf;
use gcd2_cgraph::GemmDims;
use gcd2_hvx::{Block, Insn, Label, SReg, VPair, VReg, VBYTES};
use gcd2_tensor::{Layout, MatrixI8, MatrixU8};

fn v(i: u8) -> VReg {
    VReg::new(i)
}
fn w(i: u8) -> VPair {
    VPair::new(i)
}
fn r(i: u8) -> SReg {
    SReg::new(i)
}

/// Extra cycles for implicit im2col address generation: zero for 1×1
/// kernels (the feature map already is the GEMM matrix), proportional to
/// the gathered volume otherwise.
pub fn im2col_overhead_cycles(gemm: &GemmDims, kernel: (usize, usize)) -> u64 {
    if kernel == (1, 1) {
        return 0;
    }
    // Two extra address-gen cycles per gathered vector.
    ((gemm.m * gemm.k).div_ceil(VBYTES) as u64) * 2
}

/// Emits the depthwise 3-tap `vtmpy` kernel for `out_elems` outputs with
/// a `kh`-row kernel: per output vector, load the sliding pair, apply
/// `kh` accumulating 3-tap multiplies, requantize, store.
pub fn depthwise_vtmpy_blocks(out_elems: usize, kh: usize) -> Vec<Block> {
    let mut body = Block::with_trip_count(
        Label::lazy(move |f| write!(f, "dwconv/vtmpy {kh}x3 x{out_elems}")),
        out_elems.div_ceil(VBYTES) as u64,
    );
    for row in 0..kh {
        body.push(Insn::VLoad {
            dst: v(0),
            base: r(0),
            offset: (row * 4 * VBYTES) as i64,
        });
        body.push(Insn::VLoad {
            dst: v(1),
            base: r(0),
            offset: (row * 4 * VBYTES + VBYTES) as i64,
        });
        body.push(Insn::Ld {
            dst: r(3),
            base: r(1),
            offset: (row * 8) as i64,
        });
        body.push(Insn::Vtmpy {
            dst: w(4),
            src: w(0),
            weights: r(3),
            acc: row > 0,
        });
    }
    body.push(Insn::VasrHB {
        dst: v(6),
        src: w(4),
        shift: 6,
    });
    body.push(Insn::VStore {
        src: v(6),
        base: r(2),
        offset: 0,
    });
    body.push(Insn::AddI {
        dst: r(0),
        a: r(0),
        imm: VBYTES as i64,
    });
    body.push(Insn::AddI {
        dst: r(2),
        a: r(2),
        imm: VBYTES as i64,
    });
    vec![body]
}

/// Host-side im2col: lowers a CHW feature map to the GEMM activation
/// matrix (`out_spatial × C·kh·kw`) consumed by the matmul kernels, with
/// zero padding. Out-of-range taps read 0 (the additive identity of the
/// quantized MACs).
///
/// # Panics
/// Panics if `input.len() != c * h * w` or the convolution does not fit.
#[allow(clippy::too_many_arguments)]
pub fn im2col_chw(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    layout: Layout,
) -> MatrixU8 {
    assert_eq!(input.len(), c * h * w, "input size mismatch");
    let (kh, kw) = kernel;
    let out_h = (h + 2 * padding.0 - kh) / stride.0 + 1;
    let out_w = (w + 2 * padding.1 - kw) / stride.1 + 1;
    MatrixU8::from_fn(out_h * out_w, c * kh * kw, layout, |o, col| {
        let (oy, ox) = (o / out_w, o % out_w);
        let ch = col / (kh * kw);
        let (dy, dx) = ((col % (kh * kw)) / kw, col % kw);
        let y = (oy * stride.0 + dy) as isize - padding.0 as isize;
        let x = (ox * stride.1 + dx) as isize - padding.1 as isize;
        if y < 0 || x < 0 || y as usize >= h || x as usize >= w {
            0
        } else {
            input[ch * h * w + y as usize * w + x as usize]
        }
    })
}

/// [`im2col_chw`] into a caller-provided row-major buffer — the
/// allocation-free staging path of the inference plan executor. `out`
/// must hold exactly `out_spatial × c·kh·kw` bytes and is fully
/// overwritten (padding taps become 0); the bytes are
/// [`im2col_chw`]`(…, RowMajor)`'s, whichever form runs.
///
/// **im2col is a transpose.** Row `kk = (ch, dy, dx)` of the virtual
/// `k × out_w` matrix of one output row `oy` is a contiguous run of the
/// input plane (of one column phase of it, when the conv is strided),
/// and the staged block for `oy` is that matrix transposed. Two forms,
/// picked by [`crate::active_isa`] on the calling thread — the rule of
/// [`crate::transpose_clamp_into`]:
///
/// * **tile** (x86-64, a vector tier active, `k >= 16`) — copy the input
///   rows some tap reads into `scratch`, zero-padded and split by column
///   phase `dx % sw` so every tap of every stride reads a stride-1 run,
///   then move 16 `kk` rows × 16 pixels at a time through the
///   [`crate::transpose`] unpack network: 16 loads and 16 stores of 16
///   bytes where the portable form issues 256 / `kw` narrow copies.
///   Ragged `k` and `out_w` take a tile shifted back inside the matrix;
///   `out_w < 16` stores only the rows that exist.
/// * **portable** — per `(channel, dy)` pass, copy each pixel's `kw`-byte
///   span; runs on the scalar tier, off x86-64, and for `k < 16`.
///
/// `scratch` is the tile form's working memory: it grows to the largest
/// padded input seen and is kept, so warm calls allocate nothing.
///
/// # Panics
/// Panics if `input.len() != c * h * w` or `out` has the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn im2col_rm_into(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    scratch: &mut Im2colScratch,
    out: &mut [u8],
) {
    assert_eq!(input.len(), c * h * w, "input size mismatch");
    let (kh, kw) = kernel;
    let out_h = (h + 2 * padding.0 - kh) / stride.0 + 1;
    let out_w = (w + 2 * padding.1 - kw) / stride.1 + 1;
    let k = c * kh * kw;
    assert_eq!(out.len(), out_h * out_w * k, "im2col buffer size mismatch");
    #[cfg(target_arch = "x86_64")]
    if k >= crate::transpose::x86::TILE
        && crate::dispatch::active_isa() != crate::dispatch::KernelIsa::Scalar
    {
        im2col_tiles(input, c, h, w, kernel, stride, padding, scratch, out);
        return;
    }
    let _ = scratch;
    im2col_portable(input, c, h, w, kernel, stride, padding, out);
}

/// im2col of a **pixel-major** map (`h·w` rows of `c` bytes) into the
/// row-major `out_spatial × kh·kw·c` GEMM activation matrix, the
/// reduction ordered `(dy, dx, ch)`:
/// `out[o][(dy·kw + dx)·c + ch] = x[(y·w + x)·c + ch]` at the tap's
/// source pixel `(y, x)`, 0 where it is padding — [`im2col_chw`] of the
/// transposed map with its columns permuted from `(ch, dy, dx)`, so a
/// GEMM over it wants its weight rows in the same `(dy, dx, ch)` order.
///
/// In this layout the `kw` taps of one kernel row are `kw·c`
/// consecutive source bytes, so staging is plain copies: `kh` runs per
/// output pixel, read from a zero-padded copy of the map held in
/// `scratch` (from `input` itself when there is no padding). One form
/// for every tier; `out` is fully overwritten. A stride-1 conv need not
/// stage at all: [`im2col_rows_view`] hands the GEMM the padded map.
///
/// # Panics
/// Panics if `input.len() != c * h * w` or `out` has the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn im2col_rows_into(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    (kh, kw): (usize, usize),
    (sh, sw): (usize, usize),
    (ph, pw): (usize, usize),
    scratch: &mut Im2colScratch,
    out: &mut [u8],
) {
    assert_eq!(input.len(), c * h * w, "input size mismatch");
    let out_h = (h + 2 * ph - kh) / sh + 1;
    let out_w = (w + 2 * pw - kw) / sw + 1;
    assert_eq!(
        out.len(),
        out_h * out_w * kh * kw * c,
        "im2col buffer size mismatch"
    );
    let src = if (ph, pw) == (0, 0) {
        input
    } else {
        pad_rows_map(input, c, h, w, (ph, pw), 0, &mut scratch.padded)
    };
    gather_rows(src, c, w + 2 * pw, (out_h, out_w), (kh, kw), (sh, sw), out);
}

/// Copies a pixel-major `c × h × w` map into `map` zero-padded — `wp =
/// w + 2·pw` pixels a row, the input's rows at `(ph, pw)` — followed by
/// `slack` zero bytes, and returns those bytes. Only the padding is
/// written with zeros (the border rows, each row's border pixels and the
/// slack); every other byte is copied from `input`.
fn pad_rows_map<'m>(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    (ph, pw): (usize, usize),
    slack: usize,
    map: &'m mut LineBuf,
) -> &'m [u8] {
    let (line, border) = (w * c, pw * c);
    let row = line + 2 * border;
    let body = (h + 2 * ph) * row;
    let dst = map.bytes_mut(body + slack);
    dst[..ph * row].fill(0);
    for (dst, src) in dst[ph * row..][..h * row]
        .chunks_exact_mut(row.max(1))
        .zip(input.chunks_exact(line.max(1)))
    {
        dst[..border].fill(0);
        dst[border..border + line].copy_from_slice(src);
        dst[border + line..].fill(0);
    }
    dst[(ph + h) * row..].fill(0);
    map.bytes()
}

/// The gather of [`im2col_rows_into`] from a padded pixel-major map of
/// `wp` pixels a row: `kh` runs of `kw·c` bytes per output pixel.
fn gather_rows(
    src: &[u8],
    c: usize,
    wp: usize,
    (out_h, out_w): (usize, usize),
    (kh, kw): (usize, usize),
    (sh, sw): (usize, usize),
    out: &mut [u8],
) {
    let run = kw * c;
    let mut runs = out.chunks_exact_mut(run.max(1));
    for oy in 0..out_h {
        for ox in 0..out_w {
            for dy in 0..kh {
                let at = ((oy * sh + dy) * wp + ox * sw) * c;
                if let Some(dst) = runs.next() {
                    dst.copy_from_slice(&src[at..at + run]);
                }
            }
        }
    }
}

/// Rows of one tile-grid row group: an [`Im2colView`]'s virtual rows
/// come in whole groups of them.
const VIEW_ROW_GROUP: usize = 16;

/// The `out_h·out_w × kh·kw·c` matrix [`im2col_rows_into`] stages for a
/// **stride-1** conv, left in the zero-padded map it would be gathered
/// from. Virtual row `i` of the padded-width matrix (`wp` columns of
/// pixels a row, `wp = w + 2·pw`) is `kh` runs of `kw·c` bytes, run `dy`
/// at `(i + dy·wp)·c` — exactly the staged `(dy, dx, ch)` row of pixel
/// `(i / wp, i % wp)` when `i % wp < out_w`; the `kw − 1` rows of each
/// map row past `out_w` read across its right border and are garbage.
/// The AMX tile grid multiplies it in place (one tile load per kernel row
/// at row stride `c`) and keeps only the real rows; every other tier
/// materialises it ([`Im2colView::materialise`]) into the bytes
/// [`im2col_rows_into`] writes. A GEMM receives it as
/// [`crate::GemmA::View`].
#[derive(Debug, Clone, Copy)]
pub struct Im2colView<'a> {
    map: &'a [u8],
    c: usize,
    wp: usize,
    out_h: usize,
    kernel: (usize, usize),
}

impl<'a> Im2colView<'a> {
    /// A view of the `out_h`-row stride-1 im2col matrix of `kernel` over
    /// `map`, a padded pixel-major map of `wp` pixels a row of `c`
    /// bytes. Nothing is checked here; a dispatch refuses a view its
    /// GEMM's shape or its buffer do not fit ([`crate::GemmDispatchError`]).
    pub(crate) fn new(
        map: &'a [u8],
        c: usize,
        wp: usize,
        out_h: usize,
        kernel: (usize, usize),
    ) -> Im2colView<'a> {
        Im2colView {
            map,
            c,
            wp,
            out_h,
            kernel,
        }
    }

    /// Output pixels a row: `wp − kw + 1` at stride 1.
    fn out_w(&self) -> usize {
        (self.wp + 1).saturating_sub(self.kernel.1)
    }

    /// The matrix's rows, `out_h · out_w`: the GEMM's `m`.
    pub fn rows(&self) -> usize {
        self.out_h * self.out_w()
    }

    /// The matrix's columns, `kh · kw · c`: the GEMM's `k`.
    pub fn depth(&self) -> usize {
        self.kernel.0 * self.kernel.1 * self.c
    }

    /// The virtual rows the tile grid runs over: through the last real
    /// row, `(out_h − 1)·wp + out_w`, rounded up to whole row groups.
    pub fn tile_rows(&self) -> usize {
        match self.rows() {
            0 => 0,
            _ => ((self.out_h - 1) * self.wp + self.out_w()).next_multiple_of(VIEW_ROW_GROUP),
        }
    }

    /// Bytes of the map the windows of every virtual row reach: the last
    /// one's last run ends there. The map must hold at least this many.
    pub(crate) fn reach(&self) -> usize {
        let (kh, kw) = self.kernel;
        match self.tile_rows() {
            0 => 0,
            rows => (rows - 1 + kh.saturating_sub(1) * self.wp + kw) * self.c,
        }
    }

    /// Bytes of the map the view reads.
    pub(crate) fn map_len(&self) -> usize {
        self.map.len()
    }

    /// The padded map and its geometry: `(map, c, wp, (kh, kw))`.
    pub(crate) fn parts(&self) -> (&'a [u8], usize, usize, (usize, usize)) {
        (self.map, self.c, self.wp, self.kernel)
    }

    /// The matrix row of each of the `count` virtual rows from `first`,
    /// if it is one: `None` for a row past a map row's last pixel or
    /// past the last real row. One division, then a walk.
    pub(crate) fn matrix_rows(
        &self,
        first: usize,
        count: usize,
    ) -> impl Iterator<Item = Option<usize>> {
        let (wp, out_h, out_w) = (self.wp, self.out_h, self.out_w());
        let (mut oy, mut ox) = (first / wp, first % wp);
        (0..count).map(move |_| {
            let row = (oy < out_h && ox < out_w).then_some(oy * out_w + ox);
            ox += 1;
            if ox == wp {
                (oy, ox) = (oy + 1, 0);
            }
            row
        })
    }

    /// Writes the matrix, row-major, into `out` (`rows() · depth()`
    /// bytes): [`im2col_rows_into`]'s bytes, gathered from the map.
    pub(crate) fn materialise(&self, out: &mut [u8]) {
        let dims = (self.out_h, self.out_w());
        gather_rows(self.map, self.c, self.wp, dims, self.kernel, (1, 1), out);
    }
}

/// [`im2col_rows_into`] of a stride-1 conv without the gather: fills
/// `scratch` with the input's zero-padded map (only the padding and the
/// view's slack written with zeros) and returns the [`Im2colView`] of it
/// a GEMM reads in place or materialises. The map has room for every
/// window of the view's whole row groups ([`Im2colView::tile_rows`]).
///
/// # Panics
/// Panics if `input.len() != c * h * w`, or the kernel is empty or does
/// not fit the padded map.
pub fn im2col_rows_view<'s>(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    (kh, kw): (usize, usize),
    (ph, pw): (usize, usize),
    scratch: &'s mut Im2colScratch,
) -> Im2colView<'s> {
    assert_eq!(input.len(), c * h * w, "input size mismatch");
    assert!(
        (1..=h + 2 * ph).contains(&kh) && (1..=w + 2 * pw).contains(&kw),
        "an empty kernel, or one larger than the padded map"
    );
    let (hp, wp) = (h + 2 * ph, w + 2 * pw);
    let out_h = hp + 1 - kh;
    let reach = Im2colView::new(&[], c, wp, out_h, (kh, kw)).reach();
    let slack = reach.saturating_sub(hp * wp * c);
    let map = pad_rows_map(input, c, h, w, (ph, pw), slack, &mut scratch.padded);
    Im2colView::new(map, c, wp, out_h, (kh, kw))
}

/// Working memory of [`im2col_rm_into`]'s tile form, of
/// [`im2col_rows_into`] and of [`im2col_rows_view`], reused across
/// calls.
#[derive(Debug, Default)]
pub struct Im2colScratch {
    /// The zero-padded copy of the input: for the tile form the rows
    /// some tap reads, phase-split, plus one tile of slack (see
    /// `im2col_tiles`); for the pixel-major forms the whole padded map,
    /// plus a view's slack. Line-aligned, so a view's tile rows at a
    /// stride of whole lines never straddle two.
    padded: LineBuf,
    /// Offset in `padded` of virtual-matrix row `kk` for output row 0.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))] // the tile form is x86-64's
    offsets: Vec<usize>,
}

/// Tile form of [`im2col_rm_into`]; requires `c·kh·kw >= 16`.
///
/// The padded copy keeps, per channel, `rows = (out_h − 1)·rs + kh`
/// rows with `rs = min(sh, kh)`: row `oy·rs + dy` is padded input row
/// `oy·sh + dy` (when `sh > kh` the rows between two output rows' windows
/// are never read and not stored). Each row is `np = min(sw, kw)` phase
/// runs of `pl = out_w + (kw − 1)/sw` bytes: element `j` of phase `p` is
/// padded column `j·sw + p`, so tap `dx` of pixel `ox` — padded column
/// `ox·sw + dx` — is element `ox + dx/sw` of phase `dx % sw`, and 16
/// consecutive pixels are 16 consecutive bytes.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn im2col_tiles(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    (kh, kw): (usize, usize),
    (sh, sw): (usize, usize),
    (ph, pw): (usize, usize),
    scratch: &mut Im2colScratch,
    out: &mut [u8],
) {
    use crate::transpose::x86::{transpose16, TILE};
    use core::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_setzero_si128, _mm_storeu_si128};

    let out_h = (h + 2 * ph - kh) / sh + 1;
    let out_w = (w + 2 * pw - kw) / sw + 1;
    let k = c * kh * kw;
    // What the stores below rely on.
    assert!(k >= TILE, "tile form needs one tile of k");
    assert_eq!(out.len(), out_h * out_w * k, "im2col buffer size mismatch");
    let rs = sh.min(kh);
    let rows = (out_h - 1) * rs + kh;
    let np = sw.min(kw);
    let pl = out_w + (kw - 1) / sw;
    let row_len = np * pl;
    let plane = rows * row_len;

    // Zero everything once, then copy the in-range runs: borders and
    // out-of-range rows are whatever one memset left, instead of two
    // tiny fills per phase run. The slack past `c·plane` is only ever
    // loaded into lanes that are not stored.
    let Im2colScratch { padded, offsets } = scratch;
    let padded = padded.bytes_mut(c * plane + TILE);
    padded.fill(0);
    for (ch, dst_plane) in padded[..c * plane].chunks_exact_mut(plane).enumerate() {
        let src_plane = &input[ch * h * w..(ch + 1) * h * w];
        for (r, dst_row) in dst_plane.chunks_exact_mut(row_len).enumerate() {
            // Stored row `oy·rs + dy` is padded row `oy·sh + dy`; the two
            // coincide unless the stride skips rows (`sh > kh`).
            let yp = if rs == sh { r } else { (r / kh) * sh + r % kh };
            if yp < ph || yp - ph >= h {
                continue;
            }
            let src_row = &src_plane[(yp - ph) * w..(yp - ph + 1) * w];
            for (p, run) in dst_row.chunks_exact_mut(pl).enumerate() {
                // Element j is source column j·sw + p − pw: in range
                // for j in [lo, hi).
                let lo = pw.saturating_sub(p).div_ceil(sw).min(pl);
                let hi = (w + pw).saturating_sub(p).div_ceil(sw).clamp(lo, pl);
                if hi > lo {
                    copy_strided(&src_row[lo * sw + p - pw..], sw, &mut run[lo..hi]);
                }
            }
        }
    }

    offsets.clear();
    for ch in 0..c {
        for dy in 0..kh {
            let row = ch * plane + dy * row_len;
            offsets.extend((0..kw).map(|dx| row + (dx % sw) * pl + dx / sw));
        }
    }

    // Tile origins: the last tile of a ragged extent is shifted back to
    // end at the edge, rewriting bytes with the values they already hold.
    let k_tiles = k.div_ceil(TILE);
    let x_tiles = out_w.div_ceil(TILE);
    let x_last = out_w.saturating_sub(TILE);
    let valid = out_w.min(TILE);
    // The furthest byte any tile loads: the row of the largest offset,
    // at the last output row and the last tile origin, 16 bytes on.
    let max_off = offsets.iter().copied().max().unwrap_or(0);
    assert!(
        max_off + (out_h - 1) * rs * row_len + x_last + TILE <= padded.len(),
        "im2col gather leaves the padded copy"
    );
    for oy in 0..out_h {
        let src_base = oy * rs * row_len;
        let dst_base = oy * out_w * k;
        for xt in 0..x_tiles {
            let ox = (xt * TILE).min(x_last);
            for kt in 0..k_tiles {
                let kk = (kt * TILE).min(k - TILE);
                let mut x = [
                    // SAFETY: SSE2 is part of the x86-64 baseline.
                    unsafe { _mm_setzero_si128() };
                    TILE
                ];
                for (reg, &off) in x.iter_mut().zip(&offsets[kk..kk + TILE]) {
                    // SAFETY: `off <= max_off`, `src_base` is at most
                    // the last output row's and `ox <= x_last`, so the
                    // 16 bytes read end inside `padded` by the assert
                    // above. When `out_w < 16` the lanes past `out_w`
                    // come from the next run or the slack; they are
                    // initialised bytes and `valid` keeps them unstored.
                    *reg = unsafe {
                        _mm_loadu_si128(padded.as_ptr().add(src_base + off + ox) as *const __m128i)
                    };
                }
                let cols = transpose16(x);
                for (j, &col) in cols[..valid].iter().enumerate() {
                    // SAFETY: pixel `ox + j < out_w` of output row `oy`
                    // starts at `dst_base + (ox + j)·k`, and `kk + 16
                    // <= k`, so the 16 bytes stored lie inside that
                    // pixel's `k`-byte row of `out` (length `out_h ·
                    // out_w · k`, asserted above).
                    unsafe {
                        _mm_storeu_si128(
                            out.as_mut_ptr().add(dst_base + (ox + j) * k + kk) as *mut __m128i,
                            col,
                        );
                    }
                }
            }
        }
    }
}

/// `dst[j] = src[j · step]` for every `j < dst.len()`; `dst` is not
/// empty and `src` reaches `(dst.len() − 1) · step`.
#[cfg(target_arch = "x86_64")]
fn copy_strided(src: &[u8], step: usize, dst: &mut [u8]) {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_loadu_si128, _mm_packus_epi16, _mm_set1_epi16, _mm_storeu_si128,
    };
    match step {
        1 => dst.copy_from_slice(&src[..dst.len()]),
        2 => {
            // The last element's partner byte may lie past `src`; every
            // other element is the low byte of a whole 16-bit pair.
            let pairs = dst.len() - 1;
            assert!(src.len() > 2 * pairs, "strided source too short");
            if pairs >= 16 {
                // 16 pairs per step: mask the low bytes, pack 2 × 8
                // words to 16 bytes. The final step is shifted back to
                // end at `pairs`, rewriting bytes with the same values.
                for i in (0..pairs.div_ceil(16)).map(|t| (t * 16).min(pairs - 16)) {
                    // SAFETY: `i + 16 <= pairs`, so the 32 bytes read at
                    // `2i` end at most at `2·pairs < src.len()` and the
                    // 16 bytes stored at `i` end inside `dst`; SSE2 is
                    // part of the x86-64 baseline.
                    unsafe {
                        let low = _mm_set1_epi16(0x00FF);
                        let at = src.as_ptr().add(2 * i) as *const __m128i;
                        let a = _mm_and_si128(_mm_loadu_si128(at), low);
                        let b = _mm_and_si128(_mm_loadu_si128(at.add(1)), low);
                        _mm_storeu_si128(
                            dst.as_mut_ptr().add(i) as *mut __m128i,
                            _mm_packus_epi16(a, b),
                        );
                    }
                }
            } else {
                for (d, pair) in dst.iter_mut().zip(src.chunks_exact(2)) {
                    *d = pair[0];
                }
            }
            dst[pairs] = src[2 * pairs];
        }
        _ => {
            for (d, &v) in dst.iter_mut().zip(src.iter().step_by(step)) {
                *d = v;
            }
        }
    }
}

/// Portable form of [`im2col_rm_into`].
///
/// Output pixels are processed in L1-sized chunks (see
/// [`IM2COL_WINDOW_BYTES`]) with the `(channel, dy)` sweep *outside*
/// the per-pixel copy: for each source
/// row the chunk reads a short contiguous segment that stays in L1 while
/// the chunk's write window stays in L2, instead of hopping across every
/// channel plane per output pixel. A chunk whose taps are all in range
/// is fully overwritten by the copies; any chunk touching padding is
/// pre-zeroed and then partially written.
#[allow(clippy::too_many_arguments)]
fn im2col_portable(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    out: &mut [u8],
) {
    let (kh, kw) = kernel;
    let out_h = (h + 2 * padding.0 - kh) / stride.0 + 1;
    let out_w = (w + 2 * padding.1 - kw) / stride.1 + 1;
    let k = c * kh * kw;
    // Chunk width scales inversely with k so the write window stays
    // cache-resident even for very wide patch rows (e.g. 32·9·9 =
    // 2592). When a whole output row fits in a few windows' worth of
    // bytes, take it in one chunk: each chunk re-walks every source row
    // of the `(channel, dy)` sweep, so fewer, wider chunks amortize
    // that setup better than strict window adherence.
    let ox_block = if out_w * k <= 3 * IM2COL_WINDOW_BYTES {
        out_w.max(1)
    } else {
        (IM2COL_WINDOW_BYTES / k.max(1)).clamp(4, 256)
    };
    for oy in 0..out_h {
        let y0 = (oy * stride.0) as isize - padding.0 as isize;
        // Every dy tap lands in [0, h) for this output row?
        let dy_full = y0 >= 0 && (y0 as usize) + kh <= h;
        let mut oxb = 0usize;
        while oxb < out_w {
            let oxe = (oxb + ox_block).min(out_w);
            // Every dx tap in range for every pixel of the chunk?
            // x is monotone in ox, so checking the chunk ends suffices.
            let x_first = (oxb * stride.1) as isize - padding.1 as isize;
            let x_last = ((oxe - 1) * stride.1) as isize - padding.1 as isize;
            let interior = dy_full && x_first >= 0 && (x_last as usize) + kw <= w;
            let win = &mut out[(oy * out_w + oxb) * k..(oy * out_w + oxe) * k];
            if !interior {
                win.fill(0);
            }
            for ch in 0..c {
                let plane = &input[ch * h * w..(ch + 1) * h * w];
                for dy in 0..kh {
                    let y = y0 + dy as isize;
                    if y < 0 || y as usize >= h {
                        continue;
                    }
                    let srow = &plane[y as usize * w..(y as usize + 1) * w];
                    let dbase = ch * kh * kw + dy * kw;
                    if interior {
                        if kw < 8 && dbase + 8 <= k {
                            // Narrow taps (3×3 convs copy 3 bytes at a
                            // time) dominate staging cost, so widen each
                            // copy to one overlapping 8-byte store: the
                            // bytes past `kw` land in slots of *later*
                            // `(ch, dy)` passes, which overwrite them
                            // (the sweep ascends and, interior ⇒
                            // `dy_full`, never skips a pass). The last
                            // slots of a pixel row (`dbase + 8 > k`) and
                            // right-edge sources keep the exact copy.
                            // The 8-byte span ends where x0 + 8 > w;
                            // x0 is monotone in ox, so hoist that bound
                            // (and the index arithmetic) out of the loop
                            // — the fast span is one load/store and two
                            // pointer bumps per pixel.
                            let fast_end = if w + padding.1 >= 8 {
                                ((w + padding.1 - 8) / stride.1 + 1).clamp(oxb, oxe)
                            } else {
                                oxb
                            };
                            // SAFETY: interior ⇒ oxb·s - pad >= 0; ox <
                            // fast_end ⇒ x0 + 8 <= w keeps each
                            // unaligned u64 read inside srow; dst + 8 <=
                            // i·k + k <= win.len() keeps each store in
                            // its pixel's row.
                            unsafe {
                                let mut src = srow.as_ptr().add(oxb * stride.1 - padding.1);
                                let mut dst = win.as_mut_ptr().add(dbase);
                                for _ in oxb..fast_end {
                                    (dst as *mut u64)
                                        .write_unaligned((src as *const u64).read_unaligned());
                                    src = src.add(stride.1);
                                    dst = dst.add(k);
                                }
                            }
                            for (i, ox) in (fast_end..oxe).enumerate() {
                                let x0 = ox * stride.1 - padding.1;
                                let dst = (fast_end - oxb + i) * k + dbase;
                                win[dst..dst + kw].copy_from_slice(&srow[x0..x0 + kw]);
                            }
                        } else {
                            for (i, ox) in (oxb..oxe).enumerate() {
                                let x0 = ox * stride.1 - padding.1;
                                let dst = i * k + dbase;
                                win[dst..dst + kw].copy_from_slice(&srow[x0..x0 + kw]);
                            }
                        }
                    } else {
                        for (i, ox) in (oxb..oxe).enumerate() {
                            let x0 = (ox * stride.1) as isize - padding.1 as isize;
                            let dx_lo = (-x0).max(0) as usize;
                            let dx_hi = ((w as isize - x0).max(0) as usize).min(kw);
                            if dx_lo >= dx_hi {
                                continue;
                            }
                            let src = (x0 + dx_lo as isize) as usize;
                            let dst = i * k + dbase;
                            win[dst + dx_lo..dst + dx_hi]
                                .copy_from_slice(&srow[src..src + (dx_hi - dx_lo)]);
                        }
                    }
                }
            }
            oxb = oxe;
        }
    }
}

/// Write-window budget for one `im2col_portable` chunk
/// (`chunk × c·kh·kw` bytes): the `(channel, dy)` sweep revisits the
/// window `c·kh` times per chunk, so the window must stay cache-
/// resident; but each pass also touches every source row once, so
/// narrower chunks multiply the per-row setup and TLB cost. Each pass
/// strides the window by `k`, touching one cache line per pixel, so the
/// window must fit L1d for the stores to stay hits — 32 KiB (below the
/// common 48 KiB L1d, 14–56 pixels for the model zoo's widest patch
/// rows) measured decisively faster than 64 KiB once the interior copy
/// loop was reduced to pointer bumps.
const IM2COL_WINDOW_BYTES: usize = 32 * 1024;

/// Direct depthwise convolution with one shared `kh·kw` filter column —
/// the runtime's block-diagonal depthwise GEMM collapsed back into a
/// sliding-window loop. Bit-identical to staging per-channel im2col rows
/// and multiplying by the `k × 1` weight matrix (`i32` accumulation is
/// order-independent and padding taps contribute zero), but with no
/// staging buffer and no per-row GEMM dispatch. Every byte of `out` is
/// written: its length is the node's element count, normally `c·oh·ow`;
/// a shorter `out` cuts the result off, a longer one ends in zeros.
///
/// A **row-accumulator** kernel: per (channel, output row) `out_w` i32
/// accumulators, and each tap `(dy, dx)` adds
/// `row[ox·sx + dx − px] · w[dy, dx]` over the pre-clipped `ox` range
/// where that tap is in bounds (`clip_taps`), so the inner loop is a
/// branch-free contiguous multiply-add and borders need no second code
/// path; one requantization pass (`>> shift`, clamp, `min(act_max)`)
/// finishes the row. The form is picked by [`crate::active_isa`] on the
/// calling thread, like every GEMM dispatch: the AVX-512 tiers (with
/// VBMI) run `simd::x86::dw_planes_vnni`, everything else — including
/// a scalar [`crate::pin_isa`] — the portable loop. Both accumulate
/// exactly (u8·i8 products fit i16, the i32 sums wrap identically in
/// any order), so bytes never depend on the form.
///
/// # Panics
/// Panics if `input.len() != c * h * w` or `weights.len() != kh * kw`.
#[allow(clippy::too_many_arguments)]
pub fn dwconv_direct_into(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    weights: &[i8],
    shift: u8,
    act_max: u8,
    out: &mut [u8],
) {
    assert_eq!(input.len(), c * h * w, "input size mismatch");
    let (kh, kw) = kernel;
    assert_eq!(weights.len(), kh * kw, "weight size mismatch");
    let out_len = out.len();
    let s = DwShape::over((h, w), kernel, stride, padding);
    let plane = s.out_h * s.out_w;
    // Channels with at least one output byte; an empty map (every tap
    // is padding) gets the zeros the requantization would write.
    let chans = c.min(out_len.div_ceil(plane));
    if chans == 0 || h * w == 0 {
        out.fill(0);
        return;
    }
    let (dst, past) = out.split_at_mut(out_len.min(chans * plane));
    past.fill(0);
    #[cfg(target_arch = "x86_64")]
    if dw_vnni_selected(&s) {
        // SAFETY: `dw_vnni_selected` verified the AVX-512 F/BW/VBMI/VNNI
        // features at runtime, `sx <= 4` and the tap-quad bound; `input`
        // holds a whole `h·w` plane for every channel `dst` has bytes
        // for.
        unsafe { crate::simd::x86::dw_planes_vnni(input, &s, weights, shift, act_max, dst) };
        return;
    }
    DW_SCRATCH.with_borrow_mut(|scratch| {
        dw_planes_portable(input, &s, weights, shift, act_max, scratch, dst);
    });
}

/// Geometry of one depthwise call, shared by the portable and vector
/// forms.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DwShape {
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
    pub sy: usize,
    pub sx: usize,
    pub py: usize,
    pub px: usize,
    pub out_h: usize,
    pub out_w: usize,
}

impl DwShape {
    /// A `kernel` window at `stride` over an `h × w` map padded by
    /// `padding` on every side.
    fn over(
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
        (sy, sx): (usize, usize),
        (py, px): (usize, usize),
    ) -> DwShape {
        DwShape {
            h,
            w,
            kh,
            kw,
            sy,
            sx,
            py,
            px,
            out_h: (h + 2 * py - kh) / sy + 1,
            out_w: (w + 2 * px - kw) / sx + 1,
        }
    }

    /// The kernel rows `dy` whose source row `oy·sy + dy − py` lies in
    /// `[0, h)` for output row `oy` — a contiguous range, possibly empty.
    pub(crate) fn dy_range(&self, oy: usize) -> std::ops::Range<usize> {
        let top = oy * self.sy;
        let lo = self.py.saturating_sub(top).min(self.kh);
        let hi = (self.h + self.py).saturating_sub(top).min(self.kh);
        lo..hi
    }

    /// [`DwShape::dy_range`] of the other axis: the taps `dx` whose
    /// source pixel `ox·sx + dx − px` lies in `[0, w)`.
    pub(crate) fn dx_range(&self, ox: usize) -> std::ops::Range<usize> {
        let left = ox * self.sx;
        let lo = self.px.saturating_sub(left).min(self.kw);
        let hi = (self.w + self.px).saturating_sub(left).min(self.kw);
        lo..hi
    }

    /// The output pixels `ox` for which every tap of `dxs` is in
    /// bounds — a contiguous range, possibly empty: the first tap's
    /// pixel `ox·sx + dxs.start − px` is at least 0 and the last one's,
    /// `ox·sx + dxs.end − 1 − px`, below `w`.
    pub(crate) fn ox_range(&self, dxs: std::ops::Range<usize>) -> std::ops::Range<usize> {
        let lo = self.px.saturating_sub(dxs.start).div_ceil(self.sx);
        let hi = match (self.w + self.px).checked_sub(dxs.end) {
            Some(room) => (room / self.sx + 1).min(self.out_w),
            None => 0,
        };
        lo.min(hi)..hi
    }
}

/// Most tap quads (`kh · ⌈kw/4⌉`) the AVX-512 VNNI form keeps, in a
/// stack array — a 7×7 filter has 14.
#[cfg(target_arch = "x86_64")]
pub(crate) const DW_VNNI_MAX_QUADS: usize = 64;

/// Whether this call runs the AVX-512 VNNI form: an AVX-512 tier is
/// active on this thread, the CPU also has VBMI (the window shuffle),
/// one 64-byte fragment covers a 16-pixel group (`sx <= 4`), and the
/// filter's tap quads fit the form's stack array.
#[cfg(target_arch = "x86_64")]
fn dw_vnni_selected(s: &DwShape) -> bool {
    s.sx <= 4
        && s.kh * s.kw.div_ceil(4) <= DW_VNNI_MAX_QUADS
        && crate::dispatch::avx512_tier_active()
        && quad_conv_available()
}

/// One horizontal tap `dx` of the row-accumulator kernel with its
/// clipping resolved: outputs `lo..hi` read the (phase-split) source
/// row at `src..src + (hi - lo)`.
#[derive(Debug)]
struct DwTap {
    dx: usize,
    src: usize,
    lo: usize,
    hi: usize,
}

/// Resolves each horizontal tap to a contiguous run. A source row is
/// held phase-split ([`split_phases`]): phase `p` (the pixels `p, p+sx,
/// …`, `wp(p) = ⌈(w−p)/sx⌉` of them) starts at `off(p) = Σ_{p'<p}
/// wp(p')`; at `sx == 1` that is the row itself. Tap `dx` reads pixel
/// `x = ox·sx + t` with `t = dx − px`; writing `t = q·sx + p` (floor
/// division, `0 <= p < sx`) gives `x = (ox + q)·sx + p`, element
/// `ox + q` of phase `p`, and `0 <= x < w ⟺ 0 <= ox + q < wp(p)`. So
/// the in-bounds outputs are `lo = max(0, −q) .. hi = min(out_w,
/// wp(p) − q)`, reading from `off(p) + lo + q` on. Taps that touch no
/// output are dropped.
fn clip_taps(s: &DwShape, taps: &mut Vec<DwTap>) {
    let sx = s.sx as isize;
    let phase_len = |p: usize| (s.w.saturating_sub(p)).div_ceil(s.sx);
    taps.clear();
    taps.extend((0..s.kw).filter_map(|dx| {
        let t = dx as isize - s.px as isize;
        let (q, p) = (t.div_euclid(sx), t.rem_euclid(sx) as usize);
        let off: usize = (0..p).map(phase_len).sum();
        let lo = (-q).max(0);
        let hi = (phase_len(p) as isize - q).min(s.out_w as isize);
        (lo < hi).then(|| DwTap {
            dx,
            src: off + (lo + q) as usize,
            lo: lo as usize,
            hi: hi as usize,
        })
    }));
}

/// Rewrites every `w`-byte row of `chan` as its `sx` phases back to
/// back (`sx == 2`: even pixels, then odd), so a strided tap reads a
/// contiguous run. Rows keep their length and position.
fn split_phases(chan: &[u8], w: usize, sx: usize, dst: &mut [u8]) {
    for (srow, drow) in chan.chunks_exact(w).zip(dst.chunks_exact_mut(w)) {
        if sx == 2 {
            // The hot case, in the shape the autovectoriser unzips.
            let (even, odd) = drow.split_at_mut(w.div_ceil(2));
            for ((e, o), pair) in even
                .iter_mut()
                .zip(odd.iter_mut())
                .zip(srow.chunks_exact(2))
            {
                *e = pair[0];
                *o = pair[1];
            }
            if w % 2 == 1 {
                even[w / 2] = srow[w - 1];
            }
        } else {
            let mut filled = 0;
            for p in 0..sx.min(w) {
                let phase = srow[p..].iter().step_by(sx);
                let n = phase.len();
                for (d, &v) in drow[filled..filled + n].iter_mut().zip(phase) {
                    *d = v;
                }
                filled += n;
            }
        }
    }
}

/// Working memory of the portable form: the clipped taps, one output
/// row of accumulators, and a stride ≥ 2 channel's phase-split plane.
#[derive(Debug)]
struct DwScratch {
    taps: Vec<DwTap>,
    acc: Vec<i32>,
    split: Vec<u8>,
}

thread_local! {
    /// Per-thread [`DwScratch`], grown to the largest step the thread
    /// has run and kept, so warm depthwise steps allocate nothing.
    static DW_SCRATCH: std::cell::RefCell<DwScratch> = const {
        std::cell::RefCell::new(DwScratch {
            taps: Vec::new(),
            acc: Vec::new(),
            split: Vec::new(),
        })
    };
}

/// Portable row-accumulator form over the channel planes in `planes`,
/// one per `out_h·out_w` chunk of `dst` (the last chunk may be cut
/// short — the `out_len` truncation). See [`dwconv_direct_into`].
fn dw_planes_portable(
    planes: &[u8],
    s: &DwShape,
    weights: &[i8],
    shift: u8,
    act_max: u8,
    scratch: &mut DwScratch,
    dst: &mut [u8],
) {
    let DwScratch { taps, acc, split } = scratch;
    clip_taps(s, taps);
    acc.clear();
    acc.resize(s.out_w, 0);
    // No clear(): `split_phases` overwrites every byte it is read at.
    split.resize(if s.sx > 1 { s.h * s.w } else { 0 }, 0);
    let chans = planes.chunks_exact(s.h * s.w);
    for (chan, dst_plane) in chans.zip(dst.chunks_mut(s.out_h * s.out_w)) {
        let rows: &[u8] = if s.sx > 1 {
            split_phases(chan, s.w, s.sx, split);
            split
        } else {
            chan
        };
        for (oy, dst_row) in dst_plane.chunks_mut(s.out_w).enumerate() {
            acc.fill(0);
            for dy in s.dy_range(oy) {
                let y = oy * s.sy + dy - s.py;
                let row = &rows[y * s.w..(y + 1) * s.w];
                for t in taps.iter() {
                    let wv = weights[dy * s.kw + t.dx] as i32;
                    let src = &row[t.src..t.src + (t.hi - t.lo)];
                    for (a, &x) in acc[t.lo..t.hi].iter_mut().zip(src) {
                        *a = a.wrapping_add(x as i32 * wv);
                    }
                }
            }
            for (d, &v) in dst_row.iter_mut().zip(acc.iter()) {
                *d = (v.wrapping_shr(shift as u32).clamp(0, 255) as u8).min(act_max);
            }
        }
    }
}

/// [`dwconv_direct_into`] of the same map held pixel-major: `input` is
/// `h·w` pixels of `c` bytes, `out` is `out_h·out_w` pixels of `c`
/// bytes, and the bytes are the CHW kernel's, transposed. Because the
/// filter is **one `kh·kw` column shared by every channel**, the
/// convolution in this order is a plain 2-D filter over an `h × (w·c)`
/// byte image whose horizontal tap pitch is `c` bytes: a lane is a byte
/// of the row and never learns which channel it holds. At stride 1 the
/// outputs of a row that have all their horizontal taps are one
/// contiguous `(hi − lo)·c`-byte run whatever `c` is (16 channels fill
/// a vector as well as 960 do); at a larger stride every pixel is its
/// own `c`-byte run and nothing is phase-split; a border pixel is a run
/// with a shorter tap list; and no padded copy or scratch plane exists.
///
/// The portable form is the row-accumulator loop of the CHW kernel with
/// pitch `c` (`out_w·c` i32 accumulators per output row, one
/// contiguous multiply-add per tap and run). The AVX-512 tiers run
/// `simd::x86::dw_rows_vnni`. Both accumulate exactly, as the CHW forms
/// do, so bytes never depend on the form.
///
/// # Panics
/// Panics if `input.len() != c * h * w`, `weights.len() != kh * kw` or
/// `out.len() != c * out_h * out_w` — a value held as rows is always
/// one whole image.
#[allow(clippy::too_many_arguments)]
pub fn dwconv_rows_into(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    weights: &[i8],
    shift: u8,
    act_max: u8,
    out: &mut [u8],
) {
    assert_eq!(input.len(), c * h * w, "input size mismatch");
    let (kh, kw) = kernel;
    assert_eq!(weights.len(), kh * kw, "weight size mismatch");
    let s = DwShape::over((h, w), kernel, stride, padding);
    assert_eq!(out.len(), c * s.out_h * s.out_w, "output size mismatch");
    if out.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if dw_rows_vnni_selected(&s) {
        // SAFETY: `dw_rows_vnni_selected` verified AVX-512 F/BW/VNNI at
        // runtime and the tap-quad bound; the lengths of `input`,
        // `weights` and `out` were asserted above against `c` and `s`.
        unsafe { crate::simd::x86::dw_rows_vnni(input, c, &s, weights, shift, act_max, out) };
        return;
    }
    DW_SCRATCH.with_borrow_mut(|scratch| {
        dw_rows_portable(input, c, &s, weights, shift, act_max, &mut scratch.acc, out);
    });
}

/// Whether this call runs the AVX-512 VNNI pixel-major form: an AVX-512
/// tier is active on this thread, the CPU also has BW (the byte
/// interleave and the saturating packs), and the filter's tap quads fit
/// the form's stack arrays. Any stride: a pixel is a run of its own.
#[cfg(target_arch = "x86_64")]
fn dw_rows_vnni_selected(s: &DwShape) -> bool {
    (s.kh * s.kw).div_ceil(4) <= DW_VNNI_MAX_QUADS
        && crate::dispatch::avx512_tier_active()
        && std::arch::is_x86_feature_detected!("avx512bw")
}

/// Portable pixel-major row-accumulator form; see [`dwconv_rows_into`].
/// `acc` is one output row of accumulators, reused across calls.
#[allow(clippy::too_many_arguments)]
fn dw_rows_portable(
    x: &[u8],
    c: usize,
    s: &DwShape,
    weights: &[i8],
    shift: u8,
    act_max: u8,
    acc: &mut Vec<i32>,
    out: &mut [u8],
) {
    let pitch = s.w * c;
    acc.clear();
    acc.resize(s.out_w * c, 0);
    for (oy, dst_row) in out.chunks_exact_mut(s.out_w * c).enumerate() {
        acc.fill(0);
        for dy in s.dy_range(oy) {
            let row = &x[(oy * s.sy + dy - s.py) * pitch..][..pitch];
            for dx in 0..s.kw {
                let oxs = s.ox_range(dx..dx + 1);
                if oxs.is_empty() {
                    continue;
                }
                let wv = weights[dy * s.kw + dx] as i32;
                // Stride 1: the tap's outputs and sources are each one
                // run. Otherwise a run per pixel, `sx·c` bytes apart.
                let (run, step) = match s.sx {
                    1 => (oxs.len() * c, oxs.len() * c),
                    sx => (c, sx * c),
                };
                let src = &row[(oxs.start * s.sx + dx - s.px) * c..];
                let sums = &mut acc[oxs.start * c..oxs.end * c];
                for (a_run, x_run) in sums.chunks_exact_mut(run).zip(src.chunks(step)) {
                    for (a, &v) in a_run.iter_mut().zip(&x_run[..run]) {
                        *a = a.wrapping_add(v as i32 * wv);
                    }
                }
            }
        }
        for (d, &v) in dst_row.iter_mut().zip(acc.iter()) {
            *d = (v.wrapping_shr(shift as u32).clamp(0, 255) as u8).min(act_max);
        }
    }
}

/// Direct CHW convolution for narrow output-channel counts — the
/// runtime's im2col staging + narrow GEMM + CHW scatter collapsed into
/// one sliding-window pass. For a handful of output channels the im2col
/// matrix is enormously wider than the output (`c·kh·kw` vs `n` bytes
/// per pixel), so skipping the staging matrix entirely removes the
/// dominant memory traffic of layers like a 3-channel image-synthesis
/// head.
///
/// Bit-identical to the staged path: every output is
/// `clamp((Σ_taps in-range input·weight) >> shift, 0, 255).min(act_max)`
/// with wrapping i32 accumulation (order-independent), padding taps
/// contribute zero exactly like im2col's zero fill, and the CHW write
/// order matches the executor's scatter. `weights` is the `c·kh·kw × n`
/// row-major GEMM weight matrix ([`conv_weights_as_gemm`]). Every byte
/// of `out` is written; a length other than `n·oh·ow` cuts the result
/// off or ends it in zeros, mirroring the scatter.
///
/// Interior pixels of each output row take a vectorized path when the
/// horizontal stride is 1 (AVX-512: 16 pixels per step, AVX2: 8). The
/// tier is [`crate::active_isa`] on the calling thread, read once per
/// call — the rule of every GEMM dispatch, so a [`crate::pin_isa`] moves
/// the interior with it. The scalar tier, NEON and border pixels run
/// the scalar loop.
///
/// # Panics
/// Panics if `input.len() != c * h * w` or
/// `weights.len() != c * kh * kw * n`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_direct_chw_into(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    weights: &[i8],
    n: usize,
    shift: u8,
    act_max: u8,
    out: &mut [u8],
) {
    assert_eq!(input.len(), c * h * w, "input size mismatch");
    let (kh, kw) = kernel;
    let k = c * kh * kw;
    assert_eq!(weights.len(), k * n, "weight size mismatch");
    let out_h = (h + 2 * padding.0 - kh) / stride.0 + 1;
    let out_w = (w + 2 * padding.1 - kw) / stride.1 + 1;
    let spatial = out_h * out_w;
    let out_len = out.len();
    // Bytes past the last plane are never computed; the planes
    // themselves are written whole below.
    out[out_len.min(n * spatial)..].fill(0);
    // One read of the tier: the lane count and the interior kernel below
    // must agree, or a store would overrun its destination.
    let isa = crate::dispatch::active_isa();
    let lanes = direct_conv_lanes(isa);
    // Interior ox range where every horizontal tap is in bounds (unit
    // horizontal stride only — the vector path loads contiguous pixels).
    let (lo, hi) = if stride.1 == 1 {
        (
            padding.1.min(out_w),
            (w + padding.1 + 1).saturating_sub(kw).min(out_w),
        )
    } else {
        (0, 0)
    };
    // Multi-channel mode: when every output plane fits the slot and the
    // AVX-512 tier is active, sweep the taps once per group of up to 4
    // channels so the pixel loads are shared (and, with VBMI+VNNI, fused
    // four taps at a time). Falls back to the per-channel path below for
    // truncated slots, narrow tiers, and non-unit horizontal strides.
    #[cfg(target_arch = "x86_64")]
    if lanes == 16 && hi > lo && n * spatial <= out_len {
        direct_conv_mc(
            input, c, h, w, kernel, stride, padding, weights, n, shift, act_max, out, out_h, out_w,
            lo, hi,
        );
        return;
    }
    let mut wj = vec![0i8; k];
    for j in 0..n {
        let plane = j * spatial;
        if plane >= out_len {
            break;
        }
        // Column j of the GEMM weights, contiguous per tap.
        for (t, dst) in wj.iter_mut().enumerate() {
            *dst = weights[t * n + j];
        }
        let full = plane + spatial <= out_len;
        for oy in 0..out_h {
            let row = plane + oy * out_w;
            let mut ox = 0usize;
            while ox < out_w {
                if full && lanes != 0 && ox >= lo && ox + 4 * lanes <= hi {
                    // Wide step: 4 vector groups per tap sweep — the tap
                    // loop itself (bounds checks, weight fetches) costs
                    // as much as the arithmetic, so amortize it.
                    // SAFETY: the interior range guarantees every lane's
                    // horizontal taps are in [0, w), `isa` is the
                    // supported tier `lanes` was derived from, and the
                    // destination row slice holds exactly 4·lanes bytes.
                    unsafe {
                        direct_conv_vec::<4>(
                            isa,
                            input,
                            c,
                            h,
                            w,
                            kh,
                            kw,
                            stride.0,
                            padding.0,
                            oy,
                            ox - padding.1,
                            &wj,
                            shift,
                            act_max,
                            &mut out[row + ox..row + ox + 4 * lanes],
                        );
                    }
                    ox += 4 * lanes;
                } else if full && lanes != 0 && ox >= lo && ox + lanes <= hi {
                    // SAFETY: the interior range guarantees every lane's
                    // horizontal taps are in [0, w), `isa` is the
                    // supported tier `lanes` was derived from, and the
                    // destination row slice holds exactly `lanes` bytes.
                    unsafe {
                        direct_conv_vec::<1>(
                            isa,
                            input,
                            c,
                            h,
                            w,
                            kh,
                            kw,
                            stride.0,
                            padding.0,
                            oy,
                            ox - padding.1,
                            &wj,
                            shift,
                            act_max,
                            &mut out[row + ox..row + ox + lanes],
                        );
                    }
                    ox += lanes;
                } else {
                    let v = direct_conv_px(
                        input, c, h, w, kh, kw, stride, padding, &wj, oy, ox, shift, act_max,
                    );
                    if let Some(slot) = out.get_mut(row + ox) {
                        *slot = v;
                    }
                    ox += 1;
                }
            }
        }
    }
}

/// Scalar single-pixel path of [`conv2d_direct_chw_into`]: borders,
/// vector remainders, non-unit horizontal strides, and the scalar ISA.
#[allow(clippy::too_many_arguments)]
fn direct_conv_px(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: (usize, usize),
    padding: (usize, usize),
    wj: &[i8],
    oy: usize,
    ox: usize,
    shift: u8,
    act_max: u8,
) -> u8 {
    let mut sum = 0i32;
    let x0 = (ox * stride.1) as isize - padding.1 as isize;
    for ch in 0..c {
        let plane = &input[ch * h * w..(ch + 1) * h * w];
        let wch = &wj[ch * kh * kw..(ch + 1) * kh * kw];
        for dy in 0..kh {
            let y = (oy * stride.0 + dy) as isize - padding.0 as isize;
            if y < 0 || y as usize >= h {
                continue;
            }
            let srow = &plane[y as usize * w..(y as usize + 1) * w];
            let wrow = &wch[dy * kw..(dy + 1) * kw];
            for (dx, &wv) in wrow.iter().enumerate() {
                let x = x0 + dx as isize;
                if x < 0 || x as usize >= w {
                    continue;
                }
                let av = srow[x as usize];
                if av != 0 {
                    sum = sum.wrapping_add(av as i32 * wv as i32);
                }
            }
        }
    }
    ((sum >> shift).clamp(0, 255) as u8).min(act_max)
}

/// Vector lane width of the direct-conv interior path on tier `isa`
/// (0 = no vector path; the scalar loop handles everything).
#[cfg(target_arch = "x86_64")]
fn direct_conv_lanes(isa: crate::dispatch::KernelIsa) -> usize {
    match isa {
        // The AMX tier implies AVX-512F, which is all the interior
        // kernel needs.
        crate::dispatch::KernelIsa::Avx512Vnni | crate::dispatch::KernelIsa::AmxInt8 => 16,
        crate::dispatch::KernelIsa::Avx2 => 8,
        _ => 0,
    }
}

/// Non-x86 hosts (including NEON) currently run the scalar loop.
#[cfg(not(target_arch = "x86_64"))]
fn direct_conv_lanes(_isa: crate::dispatch::KernelIsa) -> usize {
    0
}

/// Dispatches one interior vector step (`G` groups of
/// [`direct_conv_lanes`]`(isa)` pixels) to tier `isa`'s kernel.
///
/// # Safety
/// Same contract as [`crate::simd::x86::conv_interior_avx512`] /
/// [`crate::simd::x86::conv_interior_avx2`]; only callable with a
/// supported `isa` and `dst.len() == G ·` [`direct_conv_lanes`]`(isa)`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_conv_vec<const G: usize>(
    isa: crate::dispatch::KernelIsa,
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
    match isa {
        crate::dispatch::KernelIsa::Avx512Vnni | crate::dispatch::KernelIsa::AmxInt8 => {
            // SAFETY: the caller passes a supported tier (both imply
            // AVX-512F) and upholds the interior-range and
            // G·16-byte-destination contract.
            unsafe {
                crate::simd::x86::conv_interior_avx512::<G>(
                    input, c, h, w, kh, kw, sy, py, oy, x0, wj, shift, act_max, dst,
                )
            }
        }
        crate::dispatch::KernelIsa::Avx2 => {
            // SAFETY: the caller passes a supported tier and upholds
            // the interior-range and G·8-byte-destination contract.
            unsafe {
                crate::simd::x86::conv_interior_avx2::<G>(
                    input, c, h, w, kh, kw, sy, py, oy, x0, wj, shift, act_max, dst,
                )
            }
        }
        _ => unreachable!("direct_conv_vec called without a vector ISA"),
    }
}

/// Stub so the call site needs no `cfg`; unreachable because
/// [`direct_conv_lanes`] returns 0 off x86.
#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
unsafe fn direct_conv_vec<const G: usize>(
    _isa: crate::dispatch::KernelIsa,
    _input: &[u8],
    _c: usize,
    _h: usize,
    _w: usize,
    _kh: usize,
    _kw: usize,
    _sy: usize,
    _py: usize,
    _oy: usize,
    _x0: usize,
    _wj: &[i8],
    _shift: u8,
    _act_max: u8,
    _dst: &mut [u8],
) {
    unreachable!("no vector direct-conv path on this architecture")
}

/// Multi-channel direct-conv driver: one interior sweep per group of up
/// to 4 output channels, sharing every pixel load across the group (see
/// [`crate::simd::x86::conv_interior_mc_avx512`]). On VBMI+VNNI hosts
/// the interior additionally runs the quad-tap `vpdpbusd` kernel, whose
/// wider 32-byte fragment loads need their own right-edge bound — pixels
/// past it drop to the plain multiply kernel, and the strips outside
/// `[lo, hi)` plus vector remainders run the scalar-oracle loop
/// per channel. Caller guarantees the AVX-512 tier, `hi > lo`, and
/// `n·out_h·out_w <= out.len()`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
fn direct_conv_mc(
    input: &[u8],
    c: usize,
    h: usize,
    w: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    weights: &[i8],
    n: usize,
    shift: u8,
    act_max: u8,
    out: &mut [u8],
    out_h: usize,
    out_w: usize,
    lo: usize,
    hi: usize,
) {
    let (kh, kw) = kernel;
    let k = c * kh * kw;
    let spatial = out_h * out_w;
    let nq = kw.div_ceil(4);
    // Weight columns, channel-major taps (what the kernels and the
    // scalar loop index), then the zero-padded 4-tap quads for VNNI.
    let mut wcols = vec![0i8; n * k];
    for j in 0..n {
        for (t, dst) in wcols[j * k..(j + 1) * k].iter_mut().enumerate() {
            *dst = weights[t * n + j];
        }
    }
    let quad = quad_conv_available();
    let mut wquads = vec![0i32; if quad { n * c * kh * nq } else { 0 }];
    if quad {
        for j in 0..n {
            for ch in 0..c {
                for dy in 0..kh {
                    for q in 0..nq {
                        let mut b = [0u8; 4];
                        for (t, byte) in b.iter_mut().enumerate() {
                            let dx = 4 * q + t;
                            if dx < kw {
                                *byte = wcols[j * k + (ch * kh + dy) * kw + dx] as u8;
                            }
                        }
                        wquads[((j * c + ch) * kh + dy) * nq + q] = i32::from_le_bytes(b);
                    }
                }
            }
        }
    }
    for j0 in (0..n).step_by(4) {
        let g = (n - j0).min(4);
        let wc = &wcols[j0 * k..(j0 + g) * k];
        let wq = &wquads[if quad { j0 * c * kh * nq } else { 0 }..if quad {
            (j0 + g) * c * kh * nq
        } else {
            0
        }];
        for oy in 0..out_h {
            let dbase = oy * out_w;
            let mut ox = lo;
            while ox + 64 <= hi {
                let x0 = ox - padding.1;
                // SAFETY: interior range ⇒ every horizontal tap (and, on
                // the quad path, every 32-byte fragment, by the explicit
                // bound) is inside the source row; n·spatial <= out.len()
                // covers the 4·16-byte stores of each of the g planes.
                unsafe {
                    if quad && x0 + 4 * (nq - 1) + 48 + 32 <= w {
                        mc_vnni_dyn::<4>(
                            g,
                            input,
                            c,
                            h,
                            w,
                            kh,
                            kw,
                            stride.0,
                            padding.0,
                            oy,
                            x0,
                            wq,
                            shift,
                            act_max,
                            out,
                            j0 * spatial + dbase + ox,
                            spatial,
                        );
                    } else {
                        mc_mullo_dyn::<4>(
                            g,
                            input,
                            c,
                            h,
                            w,
                            kh,
                            kw,
                            stride.0,
                            padding.0,
                            oy,
                            x0,
                            wc,
                            shift,
                            act_max,
                            out,
                            j0 * spatial + dbase + ox,
                            spatial,
                        );
                    }
                }
                ox += 64;
            }
            while ox + 16 <= hi {
                let x0 = ox - padding.1;
                // SAFETY: same contracts with a single 16-pixel group.
                unsafe {
                    if quad && x0 + 4 * (nq - 1) + 32 <= w {
                        mc_vnni_dyn::<1>(
                            g,
                            input,
                            c,
                            h,
                            w,
                            kh,
                            kw,
                            stride.0,
                            padding.0,
                            oy,
                            x0,
                            wq,
                            shift,
                            act_max,
                            out,
                            j0 * spatial + dbase + ox,
                            spatial,
                        );
                    } else {
                        mc_mullo_dyn::<1>(
                            g,
                            input,
                            c,
                            h,
                            w,
                            kh,
                            kw,
                            stride.0,
                            padding.0,
                            oy,
                            x0,
                            wc,
                            shift,
                            act_max,
                            out,
                            j0 * spatial + dbase + ox,
                            spatial,
                        );
                    }
                }
                ox += 16;
            }
            if ox < hi && hi >= lo + 16 {
                // Overlap step: the outputs are a pure function of the
                // inputs, so recomputing the last 16 interior pixels at
                // hi-16 (rewriting up to 15 already-stored bytes with
                // the same values) is idempotent — and far cheaper than
                // finishing the ragged tail in the scalar tap loop.
                let oxl = hi - 16;
                let x0 = oxl - padding.1;
                // SAFETY: oxl >= lo and oxl + 16 <= hi: the same
                // interior and store contracts as the loop above.
                unsafe {
                    if quad && x0 + 4 * (nq - 1) + 32 <= w {
                        mc_vnni_dyn::<1>(
                            g,
                            input,
                            c,
                            h,
                            w,
                            kh,
                            kw,
                            stride.0,
                            padding.0,
                            oy,
                            x0,
                            wq,
                            shift,
                            act_max,
                            out,
                            j0 * spatial + dbase + oxl,
                            spatial,
                        );
                    } else {
                        mc_mullo_dyn::<1>(
                            g,
                            input,
                            c,
                            h,
                            w,
                            kh,
                            kw,
                            stride.0,
                            padding.0,
                            oy,
                            x0,
                            wc,
                            shift,
                            act_max,
                            out,
                            j0 * spatial + dbase + oxl,
                            spatial,
                        );
                    }
                }
                ox = hi;
            }
            for j in 0..g {
                let wj = &wcols[(j0 + j) * k..(j0 + j + 1) * k];
                let rowbase = (j0 + j) * spatial + dbase;
                for oxs in (0..lo).chain(ox..out_w) {
                    out[rowbase + oxs] = direct_conv_px(
                        input, c, h, w, kh, kw, stride, padding, wj, oy, oxs, shift, act_max,
                    );
                }
            }
        }
    }
}

/// Whether the quad-tap direct-conv kernel can run: the sliding-window
/// shuffle needs AVX-512VBMI and the fused dot product AVX-512VNNI
/// (detected once; the caller already established the AVX-512 tier).
#[cfg(target_arch = "x86_64")]
fn quad_conv_available() -> bool {
    use std::sync::OnceLock;
    static QUAD: OnceLock<bool> = OnceLock::new();
    *QUAD.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512vbmi")
            && std::arch::is_x86_feature_detected!("avx512vnni")
            && std::arch::is_x86_feature_detected!("avx512bw")
    })
}

/// Monomorphization ladder for the runtime channel-group width (1–4)
/// of the plain multi-channel kernel.
///
/// # Safety
/// Same contract as [`crate::simd::x86::conv_interior_mc_avx512`] with
/// `N = g`; `g` must be in `1..=4`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn mc_mullo_dyn<const G: usize>(
    g: usize,
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
    use crate::simd::x86::conv_interior_mc_avx512 as f;
    // SAFETY: contract forwarded from the caller for the matching N.
    unsafe {
        match g {
            1 => f::<1, G>(
                input, c, h, w, kh, kw, sy, py, oy, x0, wcols, shift, act_max, out, dst0, plane,
            ),
            2 => f::<2, G>(
                input, c, h, w, kh, kw, sy, py, oy, x0, wcols, shift, act_max, out, dst0, plane,
            ),
            3 => f::<3, G>(
                input, c, h, w, kh, kw, sy, py, oy, x0, wcols, shift, act_max, out, dst0, plane,
            ),
            _ => f::<4, G>(
                input, c, h, w, kh, kw, sy, py, oy, x0, wcols, shift, act_max, out, dst0, plane,
            ),
        }
    }
}

/// Monomorphization ladder for the quad-tap VNNI kernel.
///
/// # Safety
/// Same contract as [`crate::simd::x86::conv_interior_mc_vnni`] with
/// `N = g`; `g` must be in `1..=4`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn mc_vnni_dyn<const G: usize>(
    g: usize,
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
    use crate::simd::x86::conv_interior_mc_vnni as f;
    // SAFETY: contract forwarded from the caller for the matching N.
    unsafe {
        match g {
            1 => f::<1, G>(
                input, c, h, w, kh, kw, sy, py, oy, x0, wquads, shift, act_max, out, dst0, plane,
            ),
            2 => f::<2, G>(
                input, c, h, w, kh, kw, sy, py, oy, x0, wquads, shift, act_max, out, dst0, plane,
            ),
            3 => f::<3, G>(
                input, c, h, w, kh, kw, sy, py, oy, x0, wquads, shift, act_max, out, dst0, plane,
            ),
            _ => f::<4, G>(
                input, c, h, w, kh, kw, sy, py, oy, x0, wquads, shift, act_max, out, dst0, plane,
            ),
        }
    }
}

/// The GEMM weight matrix of a convolution: `C·kh·kw × out_c`, with the
/// same column order [`im2col_chw`] produces.
pub fn conv_weights_as_gemm(
    weights: &[i8],
    c: usize,
    out_c: usize,
    kernel: (usize, usize),
) -> MatrixI8 {
    let k = c * kernel.0 * kernel.1;
    assert_eq!(weights.len(), out_c * k, "weight size mismatch");
    // Weights arrive [out_c][c][kh][kw]; the GEMM wants [k][out_c].
    MatrixI8::from_fn(k, out_c, |kk, oc| weights[oc * k + kk])
}

/// Direct (scalar) convolution reference over a CHW map, with the same
/// requantization as the kernels.
#[allow(clippy::too_many_arguments)]
pub fn conv_ref_chw(
    input: &[u8],
    weights: &[i8],
    c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    shift: u8,
) -> Vec<u8> {
    let (kh, kw) = kernel;
    let out_h = (h + 2 * padding.0 - kh) / stride.0 + 1;
    let out_w = (w + 2 * padding.1 - kw) / stride.1 + 1;
    let mut out = vec![0u8; out_c * out_h * out_w];
    for oc in 0..out_c {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc: i32 = 0;
                for ch in 0..c {
                    for dy in 0..kh {
                        for dx in 0..kw {
                            let y = (oy * stride.0 + dy) as isize - padding.0 as isize;
                            let x = (ox * stride.1 + dx) as isize - padding.1 as isize;
                            if y < 0 || x < 0 || y as usize >= h || x as usize >= w {
                                continue;
                            }
                            let a = input[ch * h * w + y as usize * w + x as usize] as i32;
                            let wgt =
                                weights[oc * c * kh * kw + ch * kh * kw + dy * kw + dx] as i32;
                            acc += a * wgt;
                        }
                    }
                }
                out[oc * out_h * out_w + oy * out_w + ox] = (acc >> shift).clamp(0, 255) as u8;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_hvx::PackedBlock;

    #[test]
    fn one_by_one_conv_has_no_im2col_cost() {
        let g = GemmDims::new(3136, 64, 64);
        assert_eq!(im2col_overhead_cycles(&g, (1, 1)), 0);
        assert!(im2col_overhead_cycles(&g, (3, 3)) > 0);
    }

    #[test]
    fn im2col_matches_direct_convolution() {
        // conv(x, w) computed as matmul(im2col(x), w) must equal the
        // direct reference elementwise (pre-requantization math).
        let (c, h, w_dim, out_c) = (3usize, 6usize, 5usize, 4usize);
        let kernel = (3, 3);
        let stride = (1, 1);
        let padding = (1, 1);
        let input: Vec<u8> = (0..c * h * w_dim).map(|i| (i % 13) as u8).collect();
        let weights: Vec<i8> = (0..out_c * c * 9).map(|i| ((i % 15) as i8) - 7).collect();
        let a = im2col_chw(
            &input,
            c,
            h,
            w_dim,
            kernel,
            stride,
            padding,
            Layout::RowMajor,
        );
        let wm = conv_weights_as_gemm(&weights, c, out_c, kernel);
        let got = crate::reference::matmul_ref(&a, &wm, 4);
        let expect = conv_ref_chw(
            &input, &weights, c, h, w_dim, out_c, kernel, stride, padding, 4,
        );
        let (out_h, out_w) = (h, w_dim); // stride 1, same padding
        for oc in 0..out_c {
            for o in 0..out_h * out_w {
                assert_eq!(got[o][oc], expect[oc * out_h * out_w + o], "oc={oc} o={o}");
            }
        }
    }

    #[test]
    fn im2col_into_matches_matrix_im2col() {
        // The buffer-reusing row-major path must produce byte-identical
        // staging to the matrix-building reference, including padding
        // and strides.
        for &(c, h, w_dim, kernel, stride, padding) in &[
            (3usize, 6usize, 5usize, (3, 3), (1, 1), (1, 1)),
            (2, 9, 7, (3, 3), (2, 2), (1, 1)),
            (4, 8, 8, (1, 1), (1, 1), (0, 0)),
            (1, 5, 11, (5, 3), (2, 1), (2, 0)),
        ] {
            let input: Vec<u8> = (0..c * h * w_dim).map(|i| 1 + (i % 15) as u8).collect();
            let m = im2col_chw(
                &input,
                c,
                h,
                w_dim,
                kernel,
                stride,
                padding,
                Layout::RowMajor,
            );
            let mut buf = vec![0xAA; m.rows() * m.cols()];
            let mut scratch = Im2colScratch::default();
            im2col_rm_into(
                &input,
                c,
                h,
                w_dim,
                kernel,
                stride,
                padding,
                &mut scratch,
                &mut buf,
            );
            assert_eq!(buf, m.as_bytes(), "c={c} h={h} w={w_dim} k={kernel:?}");
        }
    }

    /// The direct conv's interior follows the calling thread's tier: a
    /// pin moves it, so each tier's interior form runs under its pin.
    #[test]
    fn direct_conv_lanes_follow_the_pin() {
        use crate::dispatch::{active_isa, pin_isa, KernelIsa};
        let lanes = [
            (KernelIsa::Scalar, 0),
            (KernelIsa::Avx2, 8),
            (KernelIsa::Avx512Vnni, 16),
        ];
        for (isa, want) in lanes.into_iter().filter(|(isa, _)| isa.supported()) {
            let _pin = pin_isa(isa);
            assert_eq!(direct_conv_lanes(active_isa()), want, "{isa}");
        }
    }

    #[test]
    fn direct_conv_matches_staged_narrow_gemm() {
        // The narrow-output direct path must be bit-identical to the
        // im2col + GEMM + CHW-scatter pipeline it replaces, on every
        // tier the host supports (widths ≥ 16+kw exercise the vector
        // interior; stride-2 and zero-padding rows exercise the scalar
        // borders).
        for &(c, h, w_dim, n, kernel, stride, padding) in &[
            (2usize, 10usize, 40usize, 3usize, (3, 3), (1, 1), (1, 1)),
            (3, 12, 37, 1, (5, 5), (1, 1), (2, 2)),
            (1, 9, 24, 5, (3, 3), (2, 2), (1, 1)),
            (2, 7, 21, 15, (3, 3), (1, 1), (0, 0)),
            // Wide rows: the 64-pixel interior sweep, the quad-tap path
            // where its fragment bound allows (x0 + 84 <= w) and the
            // plain kernel past it, plus scalar right-edge remainders.
            (3, 9, 140, 3, (7, 7), (1, 1), (3, 3)),
            // Six channels split into a 4-group and a 2-group.
            (2, 8, 100, 6, (3, 3), (1, 1), (1, 1)),
        ] {
            let (kh, kw) = kernel;
            let k = c * kh * kw;
            let shift = 4u8;
            let act_max = 15u8;
            let input: Vec<u8> = (0..c * h * w_dim).map(|i| ((i * 7) % 16) as u8).collect();
            let wd: Vec<i8> = (0..k * n).map(|i| ((i % 5) as i8) - 2).collect();
            let a = im2col_chw(
                &input,
                c,
                h,
                w_dim,
                kernel,
                stride,
                padding,
                Layout::RowMajor,
            );
            let wm = MatrixI8::from_fn(k, n, |kk, j| wd[kk * n + j]);
            let gemm = crate::reference::matmul_ref(&a, &wm, shift);
            let out_h = (h + 2 * padding.0 - kh) / stride.0 + 1;
            let out_w = (w_dim + 2 * padding.1 - kw) / stride.1 + 1;
            let spatial = out_h * out_w;
            let mut expect = vec![0u8; n * spatial];
            for o in 0..spatial {
                for j in 0..n {
                    expect[j * spatial + o] = gemm[o][j].min(act_max);
                }
            }
            for isa in crate::KernelIsa::ALL
                .into_iter()
                .filter(|isa| isa.supported())
            {
                let _pin = crate::pin_isa(isa);
                // Stale bytes in the destination must not survive.
                let mut got = vec![0xAA; n * spatial];
                conv2d_direct_chw_into(
                    &input, c, h, w_dim, kernel, stride, padding, &wd, n, shift, act_max, &mut got,
                );
                assert_eq!(got, expect, "{isa}: c={c} h={h} w={w_dim} n={n}");

                // A short destination mirrors the scatter's truncation.
                let cut = n * spatial - spatial / 2 - 1;
                let mut short = vec![0xAA; cut];
                conv2d_direct_chw_into(
                    &input, c, h, w_dim, kernel, stride, padding, &wd, n, shift, act_max,
                    &mut short,
                );
                assert_eq!(short.as_slice(), &expect[..cut], "{isa}: truncated n={n}");
            }
        }
    }

    #[test]
    fn dwconv_direct_matches_im2col_gemm() {
        // The direct sliding-window path must be bit-identical to the
        // block-diagonal im2col + k×1 GEMM lowering it replaces.
        for &(c, h, w_dim, kernel, stride, padding) in &[
            (3usize, 8usize, 8usize, (3, 3), (1, 1), (1, 1)),
            (2, 9, 7, (3, 3), (2, 2), (1, 1)),
            (4, 10, 6, (5, 5), (1, 1), (2, 2)),
            (1, 5, 5, (2, 2), (2, 2), (0, 0)),
        ] {
            let (kh, kw) = kernel;
            let input: Vec<u8> = (0..c * h * w_dim).map(|i| (i % 16) as u8).collect();
            let weights: Vec<i8> = (0..kh * kw).map(|i| ((i % 5) as i8) - 2).collect();
            let out_h = (h + 2 * padding.0 - kh) / stride.0 + 1;
            let out_w = (w_dim + 2 * padding.1 - kw) / stride.1 + 1;
            let (m, k) = (c * out_h * out_w, kh * kw);
            // Reference: per-channel im2col rows × k×1 weights.
            let mut a = vec![0u8; m * k];
            for ch in 0..c {
                im2col_rm_into(
                    &input[ch * h * w_dim..(ch + 1) * h * w_dim],
                    1,
                    h,
                    w_dim,
                    kernel,
                    stride,
                    padding,
                    &mut Im2colScratch::default(),
                    &mut a[ch * out_h * out_w * k..(ch + 1) * out_h * out_w * k],
                );
            }
            let wmat = MatrixI8::from_fn(k, 1, |kk, _| weights[kk]);
            let mut expect = vec![0; m];
            crate::try_matmul_panel_into(
                crate::GemmA::Matrix(&a),
                m,
                k,
                &crate::WeightPanel::pack(&wmat),
                (3, 15, crate::ByteMap::IDENTITY),
                &mut crate::GemmScratch::default(),
                &mut expect,
            )
            .expect("valid operands");
            let mut got = vec![0xAA; m];
            dwconv_direct_into(
                &input, c, h, w_dim, kernel, stride, padding, &weights, 3, 15, &mut got,
            );
            assert_eq!(got, expect, "c={c} h={h} w={w_dim} k={kernel:?}");
            // A short destination matches the runtime's clipping.
            let mut short = vec![0xAA; m / 2];
            dwconv_direct_into(
                &input, c, h, w_dim, kernel, stride, padding, &weights, 3, 15, &mut short,
            );
            assert_eq!(short, expect[..m / 2]);
        }
    }

    #[test]
    fn vtmpy_kernel_scales_with_kernel_height() {
        let c3: u64 = depthwise_vtmpy_blocks(4096, 3)
            .iter()
            .map(|b| PackedBlock::sequential(b).stats().cycles)
            .sum();
        let c1: u64 = depthwise_vtmpy_blocks(4096, 1)
            .iter()
            .map(|b| PackedBlock::sequential(b).stats().cycles)
            .sum();
        assert!(c3 > 2 * c1);
    }
}
