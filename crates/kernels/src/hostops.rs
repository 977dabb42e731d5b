//! Host-side semantics and kernels of the non-GEMM operators.
//!
//! The functional runtime has two execution paths — the node-by-node
//! interpreter (`gcd2::runtime`) and the precompiled inference plan
//! (`gcd2::infer`) — that must stay **bit-identical**. Every non-GEMM
//! operator's arithmetic therefore lives here, once, as `_into` kernels
//! writing into caller-owned, **pre-sized** slices (the plan executor
//! hands them its line-aligned activation slots and allocates nothing
//! in steady state); every byte of `out` is overwritten.
//!
//! Forms: every kernel here has one form, portable Rust written so it
//! autovectorises, and every tier runs it — the scalar tier (a
//! [`crate::pin_isa`], and every host that is not x86-64) as well as
//! AVX2, AVX-512 VNNI and AMX. The two group kernels, [`softmax_into`]
//! and [`layernorm_into`], share one group loop: one byte reduction and
//! one per-group constant per group, then `u8`/`u16` lane operations per
//! byte. `tests/hostops_identity.rs` holds both, at every tier, to the
//! per-byte arithmetic they replaced.
//!
//! The quantization convention is the runtime's: activations live in a
//! small range `0..=act_max` (4 bits in practice), and each kernel's
//! epilogue keeps its output inside that range. Where two operands can
//! have different lengths, the second is zero-extended and the output
//! takes the first operand's length, matching the interpreter's
//! historical behaviour.
//!
//! The elementwise kernels are position-blind, so they serve a
//! pixel-major (`hw × c`) operand pair as they serve a CHW one; the
//! kernels that are positional in CHW say so. The `_rows_into` forms
//! take the same map held pixel-major and leave the CHW form's bytes,
//! transposed: the pools ([`pool_rows_into`],
//! [`global_avg_pool_rows_into`]) and the binaries whose second operand
//! is shorter than the image ([`mul_shift4_rows_into`] and its
//! siblings).

/// `out[i] = f(a[i], b[i])` over `a`'s length, with `b` zero-extended:
/// the common prefix zips plain slices (a `Chain` adapter in the zip
/// keeps the loop from vectorising), then the tail pairs with 0.
///
/// # Panics
/// Panics if `out.len() != a.len()` (as does every kernel here whose
/// `out` is not exactly its result's length).
fn zip_zero_extended(a: &[u8], b: &[u8], out: &mut [u8], f: impl Fn(u8, u8) -> u8) {
    assert_eq!(out.len(), a.len(), "output size mismatch");
    let common = a.len().min(b.len());
    for ((d, &x), &y) in out[..common].iter_mut().zip(a).zip(b) {
        *d = f(x, y);
    }
    for (d, &x) in out[common..].iter_mut().zip(&a[common..]) {
        *d = f(x, 0);
    }
}

/// [`zip_zero_extended`] when `a` and `out` are one `c`-channel image
/// held pixel-major and `b` is flat bytes in CHW order — a `c × 1` gate,
/// say, which is the same bytes in either layout. Zero extension is
/// **not** a broadcast: element `i` of `b` meets the image's flat CHW
/// element `i` and every element past `b`'s end meets 0. So the rows
/// form is `f(x, 0)` over every byte — position-blind — and then one
/// fix-up per element of `b`: CHW element `ch·hw + px` is pixel-major
/// byte `px·c + ch`.
fn zip_zero_extended_rows(a: &[u8], b: &[u8], c: usize, out: &mut [u8], f: impl Fn(u8, u8) -> u8) {
    assert_eq!(out.len(), a.len(), "output size mismatch");
    for (d, &x) in out.iter_mut().zip(a) {
        *d = f(x, 0);
    }
    let hw = a.len() / c.max(1);
    assert_eq!(a.len(), c * hw, "image size mismatch");
    let common = a.len().min(b.len());
    // CHW element `ch·hw + px`, plane by plane.
    for (ch, plane) in b[..common].chunks(hw.max(1)).enumerate() {
        for (px, &y) in plane.iter().enumerate() {
            let at = px * c + ch;
            out[at] = f(a[at], y);
        }
    }
}

fn avg(x: u8, y: u8) -> u8 {
    ((x as u16 + y as u16) / 2) as u8
}

fn mul_shift4(act_max: u8) -> impl Fn(u8, u8) -> u8 {
    move |x, y| (((x as u16 * y as u16) >> 4) as u8).min(act_max)
}

fn div_lut(x: u8, y: u8) -> u8 {
    x / (y as u16 + 1) as u8
}

/// `out[i] = f(x[i])`.
fn map_into(x: &[u8], out: &mut [u8], f: impl Fn(u8) -> u8) {
    assert_eq!(out.len(), x.len(), "output size mismatch");
    for (d, &v) in out.iter_mut().zip(x) {
        *d = f(v);
    }
}

/// Elementwise average: `out[i] = (a[i] + b[i]) / 2`, with `b`
/// zero-extended to `a`'s length.
pub fn add_avg_into(a: &[u8], b: &[u8], out: &mut [u8]) {
    zip_zero_extended(a, b, out, avg);
}

/// [`add_avg_into`] of a `c`-channel image `a` held pixel-major, `b`
/// flat in CHW order (see `zip_zero_extended_rows`).
pub fn add_avg_rows_into(a: &[u8], b: &[u8], c: usize, out: &mut [u8]) {
    zip_zero_extended_rows(a, b, c, out, avg);
}

/// Elementwise product with a 4-bit requantization shift:
/// `out[i] = min((a[i] · b[i]) >> 4, act_max)`, `b` zero-extended.
pub fn mul_shift4_into(a: &[u8], b: &[u8], act_max: u8, out: &mut [u8]) {
    zip_zero_extended(a, b, out, mul_shift4(act_max));
}

/// [`mul_shift4_into`] of a `c`-channel image `a` held pixel-major, `b`
/// flat in CHW order — the squeeze-excite gate with its operand in
/// rows (see `zip_zero_extended_rows`).
pub fn mul_shift4_rows_into(a: &[u8], b: &[u8], c: usize, act_max: u8, out: &mut [u8]) {
    zip_zero_extended_rows(a, b, c, out, mul_shift4(act_max));
}

/// Elementwise division through the reciprocal lookup convention:
/// `out[i] = a[i] / (b[i] + 1)` (the `+1` keeps the table total and the
/// result inside the activation range), `b` zero-extended.
pub fn div_lut_into(a: &[u8], b: &[u8], out: &mut [u8]) {
    zip_zero_extended(a, b, out, div_lut);
}

/// [`div_lut_into`] of a `c`-channel image `a` held pixel-major, `b`
/// flat in CHW order (see `zip_zero_extended_rows`).
pub fn div_lut_rows_into(a: &[u8], b: &[u8], c: usize, out: &mut [u8]) {
    zip_zero_extended_rows(a, b, c, out, div_lut);
}

/// Elementwise square with a 4-bit requantization shift:
/// `out[i] = min((x · x) >> 4, act_max)` — the `Pow` operator's
/// fixed-exponent instantiation.
pub fn pow_sq_into(x: &[u8], act_max: u8, out: &mut [u8]) {
    map_into(x, out, |v| {
        (((v as u16 * v as u16) >> 4) as u8).min(act_max)
    });
}

/// The monotone byte-lookup stand-in used for HardSwish/Sigmoid/GELU:
/// `out[i] = x/2 + x/4`.
pub fn monotone_lut_into(x: &[u8], out: &mut [u8]) {
    map_into(x, out, |v| v / 2 + v / 4);
}

/// The largest `act_max` whose numerators `v · act_max` all have 12 bits
/// (`16 · 255 < 2¹²`): the domain of [`Recip12`], and so of softmax's
/// `u16`-lane pass. A wider `act_max` — no caller's — divides per byte.
const RECIP12_ACT_MAX: u8 = 16;

/// Softmax's per-group constant: `⌊x / d⌋` for every numerator
/// `x < 2¹²` as two `u16` lane operations, `mulhi(x << 4, m) >> shift`
/// ([`Recip12::quotient`]). With `ℓ = ⌈log₂ d⌉` the magic is the
/// round-up `⌈2^(12+ℓ) / d⌉ < 2¹³`, stored as `m = magic << 3` (it
/// fits `u16`), and `shift = 3 + ℓ`: `mulhi(x·2⁴, magic·2³) =
/// ⌊x·magic / 2⁹⌋`, so the result is `⌊x·magic / 2^(12+ℓ)⌋`, which is
/// `⌊x/d⌋` because `magic·d − 2^(12+ℓ) < d ≤ 2^ℓ` keeps the overshoot
/// below `1/d` while `x < 2¹²`. A `d ≥ 2¹²` exceeds every numerator:
/// `m = 0` gives the quotient 0. DESIGN.md §4e (*Group kernels*); the
/// unit test `softmax_quotient_is_the_division` checks every `d < 2¹⁶`
/// against every `x` whose quotient is a byte.
#[derive(Debug, Clone, Copy)]
struct Recip12 {
    m: u16,
    shift: u32,
}

/// `⌈log₂ d⌉` of `d ≥ 1`.
const fn ceil_log2(d: u32) -> u32 {
    u32::BITS - (d - 1).leading_zeros()
}

/// [`Recip12::m`] of every divisor below 2¹² (entry 0 unused): the
/// paper's division-to-lookup replacement — a softmax group's division
/// becomes a load from an 8 KiB table the compiler fills.
static RECIP12_M: [u16; 1 << 12] = {
    let mut m = [0u16; 1 << 12];
    let mut d = 1;
    while d < m.len() as u32 {
        m[d as usize] = ((1u32 << (12 + ceil_log2(d))).div_ceil(d) << 3) as u16;
        d += 1;
    }
    m
};

impl Recip12 {
    /// The constant of the divisor `d ≥ 1`.
    #[inline]
    fn of(d: u32) -> Recip12 {
        match RECIP12_M.get(d as usize) {
            Some(&m) => Recip12 {
                m,
                shift: 3 + ceil_log2(d),
            },
            None => Recip12 { m: 0, shift: 0 },
        }
    }

    /// `⌊x / d⌋` of the numerator `x < 2¹²` given as `x16 = x << 4`.
    #[inline]
    fn quotient(self, x16: u16) -> u8 {
        ((((x16 as u32 * self.m as u32) >> 16) as u16) >> self.shift) as u8
    }
}

/// Softmax over contiguous groups of `group` elements, renormalized into
/// the activation range: `out[i] = ⌊x[i] · act_max / max(Σ_group x, 1)⌋`.
/// Monotone within each group and bounded by `act_max`.
///
/// Per group, one [`byte_sum`] and one [`Recip12`] (a table load, no
/// division); per byte, `v · (act_max << 4)` and [`Recip12::quotient`]
/// in `u16` lanes, which baseline x86-64 vectorises eight lanes wide
/// (`pmullw`, `pmulhuw`, `psrlw`, `packuswb`). One portable form, run by
/// every tier (DESIGN.md §4e, *Group kernels*). An `act_max` above 16 —
/// a shape guard, not an option — divides each byte instead.
pub fn softmax_into(x: &[u8], group: usize, act_max: u8, out: &mut [u8]) {
    assert_eq!(out.len(), x.len(), "output size mismatch");
    if act_max > RECIP12_ACT_MAX {
        return for_each_group(x, group, out, |chunk, sum, dst| {
            let d = sum.max(1);
            map_into(chunk, dst, |v| (v as u32 * act_max as u32 / d) as u8);
        });
    }
    // `black_box` hides that `a16` is a zero-extended byte. Seeing that,
    // LLVM evaluates the numerator in `i32` lanes (`pmaddwd`, then a
    // repack for `pmulhuw`): 0.31 ns/B instead of 0.18 in `u16` lanes
    // (`pmullw`). DESIGN.md §4e, *Group kernels*.
    let a16 = std::hint::black_box((act_max as u16) << 4);
    for_each_group(x, group, out, |chunk, sum, dst| {
        let r = Recip12::of(sum.max(1));
        map_into(chunk, dst, |v| r.quotient(v as u16 * a16));
    });
}

/// The group loop of both group kernels: `pass(chunk, Σ chunk, dst)`
/// over `x` and `out` in groups of `max(group, 1)` bytes, the last one
/// possibly shorter, the sum [`byte_sum`]'s.
fn for_each_group(
    x: &[u8],
    group: usize,
    out: &mut [u8],
    mut pass: impl FnMut(&[u8], u32, &mut [u8]),
) {
    let group = group.max(1);
    for (chunk, dst) in x.chunks(group).zip(out.chunks_mut(group)) {
        pass(chunk, byte_sum(chunk), dst);
    }
}

/// Layer normalization over contiguous groups of `group` elements:
/// mean-center and re-bias to the middle of the activation range,
/// `out[i] = clamp(x[i] - mean + (act_max + 1)/2, 0, act_max)`.
///
/// Per group, one [`byte_sum`] and one offset `mid − mean`; per byte,
/// that offset as a saturating `u8` add (or subtract) — saturation at 0
/// is the lower clamp, and at 255 lies above every `act_max` — then a
/// `min`. One portable form: it vectorises on every target.
pub fn layernorm_into(x: &[u8], group: usize, act_max: u8, out: &mut [u8]) {
    assert_eq!(out.len(), x.len(), "output size mismatch");
    let mid = (act_max as u32).div_ceil(2);
    for_each_group(x, group, out, |chunk, sum, dst| {
        let mean = sum / chunk.len() as u32;
        // `mid ≤ 128` and `mean ≤ 255`: both fit a byte, one is 0.
        let (up, down) = (
            mid.saturating_sub(mean) as u8,
            mean.saturating_sub(mid) as u8,
        );
        map_into(chunk, dst, |v| {
            v.saturating_add(up).saturating_sub(down).min(act_max)
        });
    });
}

/// 2-D max/average pooling over a CHW map (no padding), row-wise: each
/// output row first folds its `kernel.0` source rows into one row
/// (a whole-row vector max or sum), then reduces that row's
/// `kernel.1`-wide windows at `stride.1`.
#[allow(clippy::too_many_arguments)]
pub fn pool_into(
    x: &[u8],
    c: usize,
    h: usize,
    w: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    is_max: bool,
    out: &mut [u8],
) {
    pool_pitched(x, (c, 1), (h, w), kernel, stride, is_max, out);
}

/// [`pool_into`] of the same map held pixel-major (`h·w` pixels of `c`
/// bytes) into `out_h·out_w` pixels of `c` bytes: the row-wise kernel
/// over **one** plane whose pixels are `c` bytes apart — whole rows
/// fold vertically as they do in CHW, and the horizontal windows are
/// slices shifted by `c`.
#[allow(clippy::too_many_arguments)]
pub fn pool_rows_into(
    x: &[u8],
    c: usize,
    h: usize,
    w: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    is_max: bool,
    out: &mut [u8],
) {
    pool_pitched(x, (1, c), (h, w), kernel, stride, is_max, out);
}

/// Both layouts of the pool: `planes` planes of `h × w` pixels `pitch`
/// bytes apart — CHW is `c` planes of pitch 1, pixel-major one plane of
/// pitch `c`.
fn pool_pitched(
    x: &[u8],
    (planes, pitch): (usize, usize),
    (h, w): (usize, usize),
    kernel: (usize, usize),
    stride: (usize, usize),
    is_max: bool,
    out: &mut [u8],
) {
    let out_h = (h - kernel.0) / stride.0 + 1;
    let out_w = (w - kernel.1) / stride.1 + 1;
    assert_eq!(x.len(), planes * h * w * pitch, "input size mismatch");
    assert_eq!(
        out.len(),
        planes * out_h * out_w * pitch,
        "output size mismatch"
    );
    if out.is_empty() {
        return;
    }
    let dims = ((h, w), (out_h, out_w), pitch);
    if is_max {
        pool_rows(x, dims, kernel, stride, out, u8::max, |best| best);
    } else {
        let area = (kernel.0 * kernel.1) as u32;
        let sum = |a: u32, b: u32| a + b;
        pool_rows(x, dims, kernel, stride, out, sum, |s| (s / area) as u8);
    }
}

/// [`pool_pitched`] for one reduction over `h × w` planes into
/// `out_h × out_w` ones, pixels `pitch` bytes apart: `fold` combines two
/// values (of the accumulator type `T`, wide enough for a whole
/// window), `finish` maps a window's fold to its output byte.
fn pool_rows<T: Copy + From<u8>>(
    x: &[u8],
    ((h, w), (out_h, out_w), pitch): ((usize, usize), (usize, usize), usize),
    kernel: (usize, usize),
    stride: (usize, usize),
    out: &mut [u8],
    fold: impl Fn(T, T) -> T,
    finish: impl Fn(T) -> u8,
) {
    let (mut folded, mut windows): (Vec<T>, Vec<T>) = (Vec::new(), Vec::new());
    let (row, out_row) = (w * pitch, out_w * pitch);
    let planes = x
        .chunks_exact(h * row)
        .zip(out.chunks_exact_mut(out_h * out_row));
    for (plane, out_plane) in planes {
        for (oy, out_row) in out_plane.chunks_exact_mut(out_row).enumerate() {
            // Vertical: the kernel's rows folded into one. Every loop
            // here zips plain slices, so it vectorises.
            let (first, rest) = plane[oy * stride.0 * row..][..kernel.0 * row].split_at(row);
            folded.clear();
            folded.extend(first.iter().map(|&v| T::from(v)));
            for row in rest.chunks_exact(row) {
                for (acc, &v) in folded.iter_mut().zip(row) {
                    *acc = fold(*acc, T::from(v));
                }
            }
            // Horizontal, at every column: `windows[x]` folds the
            // `kernel.1` pixels from `folded[x]` on, one shifted slice
            // at a time.
            windows.clear();
            windows.extend_from_slice(&folded);
            for dx in 1..kernel.1 {
                for (acc, &v) in windows.iter_mut().zip(&folded[dx * pitch..]) {
                    *acc = fold(*acc, v);
                }
            }
            // Output pixel `ox` is the window that starts at pixel
            // `ox · stride.1`.
            let starts = windows.chunks(stride.1 * pitch);
            for (dst, window) in out_row.chunks_exact_mut(pitch).zip(starts) {
                for (d, &v) in dst.iter_mut().zip(window) {
                    *d = finish(v);
                }
            }
        }
    }
}

/// `Σ x` as `u32`: 128 bytes at a time in `u16` (128 · 255 < 2¹⁶, so a
/// chunk cannot wrap), each chunk's sum folded into the `u32` total —
/// the narrow sum vectorises twice as wide as widening every byte to
/// `u32` first. Exact, so the total is the byte-at-a-time one.
fn byte_sum(x: &[u8]) -> u32 {
    x.chunks(128)
        .map(|chunk| chunk.iter().map(|&v| v as u16).sum::<u16>() as u32)
        .sum()
}

/// Global average pooling of a CHW map: one mean per channel over `hw`
/// spatial elements, `out[ch] = ⌊Σ x[ch·hw ..][..hw] / hw⌋`.
pub fn global_avg_pool_into(x: &[u8], c: usize, hw: usize, out: &mut [u8]) {
    assert_eq!(out.len(), c, "output size mismatch");
    for (plane, dst) in x[..c * hw].chunks_exact(hw.max(1)).zip(out) {
        *dst = (byte_sum(plane) / hw as u32) as u8;
    }
}

/// [`global_avg_pool_into`] of the same map held pixel-major (`hw` rows
/// of `c` bytes): column sums, same rounding, same bytes. Columns are
/// taken 64 at a time — one cache line of every row — in `u16` lanes
/// folded into `u32` totals every 256 rows (256 · 255 < 2¹⁶).
pub fn global_avg_pool_rows_into(x: &[u8], c: usize, hw: usize, out: &mut [u8]) {
    const LANES: usize = 64;
    const U16_SUM_MAX: usize = 256;
    assert_eq!(out.len(), c, "output size mismatch");
    for (j0, dst) in (0..c).step_by(LANES).zip(out.chunks_mut(LANES)) {
        let mut total = [0u32; LANES];
        for block in x[..c * hw].chunks(c * U16_SUM_MAX) {
            let mut lanes = [0u16; LANES];
            for row in block.chunks_exact(c) {
                for (lane, &v) in lanes.iter_mut().zip(&row[j0..j0 + dst.len()]) {
                    *lane += v as u16;
                }
            }
            for (t, &lane) in total.iter_mut().zip(&lanes) {
                *t += lane as u32;
            }
        }
        for (d, &t) in dst.iter_mut().zip(&total) {
            *d = (t / hw as u32) as u8;
        }
    }
}

/// Nearest-neighbour spatial upsampling of a CHW map by an integer
/// `factor` in both dimensions.
pub fn upsample_nn_into(x: &[u8], c: usize, h: usize, w: usize, factor: usize, out: &mut [u8]) {
    let (oh, ow) = (h * factor, w * factor);
    assert_eq!(out.len(), c * oh * ow, "output size mismatch");
    for ch in 0..c {
        for oy in 0..oh {
            let src_row = &x[ch * h * w + (oy / factor) * w..][..w];
            let dst_row = &mut out[ch * oh * ow + oy * ow..][..ow];
            for (ox, d) in dst_row.iter_mut().enumerate() {
                *d = src_row[ox / factor];
            }
        }
    }
}

/// Concatenation: `a` followed by `b` (channel concat for CHW tensors).
pub fn concat_into(a: &[u8], b: &[u8], out: &mut [u8]) {
    assert_eq!(out.len(), a.len() + b.len(), "output size mismatch");
    let (head, tail) = out.split_at_mut(a.len());
    head.copy_from_slice(a);
    tail.copy_from_slice(b);
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACT_MAX: u8 = 15;

    #[test]
    fn add_zero_extends_and_averages() {
        let mut out = [0xA5; 3];
        add_avg_into(&[4, 8, 15], &[4], &mut out);
        assert_eq!(out, [4, 4, 7]);
    }

    #[test]
    fn mul_requantizes_and_clamps() {
        let mut out = [0xA5; 3];
        mul_shift4_into(&[15, 15, 2], &[15, 0, 8], ACT_MAX, &mut out);
        assert_eq!(out, [14, 0, 1]);
    }

    #[test]
    fn div_is_bounded_by_numerator() {
        let mut out = [0xA5; 3];
        div_lut_into(&[15, 9, 6], &[0, 2, 100], &mut out);
        assert_eq!(out, [15, 3, 0]);
    }

    #[test]
    fn softmax_groups_stay_in_range_and_monotone() {
        let x: Vec<u8> = vec![1, 5, 15, 0, 0, 0, 0, 3];
        let mut out = vec![0xA5; x.len()];
        softmax_into(&x, 4, ACT_MAX, &mut out);
        assert_eq!(out.len(), x.len());
        assert!(out.iter().all(|&v| v <= ACT_MAX));
        assert!(out[0] <= out[1] && out[1] <= out[2]);
        // All-zero group divides by the clamped sum of 1.
        assert_eq!(&out[4..7], &[0, 0, 0]);
    }

    #[test]
    fn layernorm_centers_groups() {
        let mut out = [0xA5; 4];
        layernorm_into(&[0, 15, 5, 10], 2, ACT_MAX, &mut out);
        assert!(out.iter().all(|&v| v <= ACT_MAX));
        // Mean of each pair maps to the mid-point bias of 8.
        assert_eq!(out, [1, 15, 6, 11]);
    }

    #[test]
    fn upsample_replicates_nearest() {
        let mut out = [0xA5; 16];
        upsample_nn_into(&[1, 2, 3, 4], 1, 2, 2, 2, &mut out);
        assert_eq!(out, [1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4]);
    }

    #[test]
    fn pool_matches_hand_computed() {
        let x = [1u8, 3, 2, 4, 5, 7, 6, 8, 0, 0, 0, 0, 4, 4, 4, 4];
        let mut max = [0xA5; 4];
        pool_into(&x, 2, 2, 4, (2, 2), (2, 2), true, &mut max);
        assert_eq!(max, [7, 8, 4, 4]);
        let mut avg = [0xA5; 4];
        pool_into(&x, 2, 2, 4, (2, 2), (2, 2), false, &mut avg);
        assert_eq!(avg, [4, 5, 2, 2]);
    }

    /// The per-window loop `pool_into` replaced, kept as its oracle.
    #[allow(clippy::too_many_arguments)]
    fn pool_ref(
        x: &[u8],
        c: usize,
        h: usize,
        w: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        is_max: bool,
    ) -> Vec<u8> {
        let out_h = (h - kernel.0) / stride.0 + 1;
        let out_w = (w - kernel.1) / stride.1 + 1;
        let mut out = vec![0u8; c * out_h * out_w];
        for ch in 0..c {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut best = 0u32;
                    let mut sum = 0u32;
                    for dy in 0..kernel.0 {
                        for dx in 0..kernel.1 {
                            let v = x[ch * h * w + (oy * stride.0 + dy) * w + ox * stride.1 + dx];
                            best = best.max(v as u32);
                            sum += v as u32;
                        }
                    }
                    out[ch * out_h * out_w + oy * out_w + ox] = if is_max {
                        best as u8
                    } else {
                        (sum / (kernel.0 * kernel.1) as u32) as u8
                    };
                }
            }
        }
        out
    }

    #[test]
    fn row_wise_pool_equals_the_window_loop() {
        // Odd extents, kernel ≠ stride (overlapping and skipping
        // windows), one-wide kernels, a kernel covering the whole map.
        let cases = [
            (3, 7, 9, (2, 2), (2, 2)),
            (2, 11, 13, (3, 3), (2, 2)),
            (1, 9, 7, (2, 3), (3, 1)),
            (2, 8, 8, (1, 1), (1, 1)),
            (1, 5, 6, (1, 4), (2, 3)),
            (2, 6, 5, (6, 5), (1, 1)),
            (1, 113, 115, (3, 2), (2, 2)),
        ];
        for (c, h, w, kernel, stride) in cases {
            let x: Vec<u8> = (0..c * h * w)
                .map(|i: usize| (i.wrapping_mul(2654435761) >> 7) as u8)
                .collect();
            for is_max in [true, false] {
                let want = pool_ref(&x, c, h, w, kernel, stride, is_max);
                let mut got = vec![0xA5; want.len()];
                pool_into(&x, c, h, w, kernel, stride, is_max, &mut got);
                assert_eq!(
                    got, want,
                    "{c}x{h}x{w} kernel {kernel:?} stride {stride:?} max={is_max}"
                );
            }
        }
    }

    /// Softmax's per-group quotient is the division, bit for bit — the
    /// proof of [`Recip12`]: every 12-bit numerator (every byte at every
    /// `act_max ≤ 16`) over every sum a group of up to 257 bytes can
    /// reach, seeded sums beyond and `u32::MAX`. Quotients above 255 are
    /// skipped: no group meets one (its bytes never exceed its sum, so
    /// its quotients are at most `act_max`).
    #[test]
    fn softmax_quotient_is_the_division() {
        let mut sums: Vec<u32> = (1..=65_535).collect();
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        sums.extend((0..10_000).map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 32) as u32 | 0x1_0000
        }));
        sums.push(u32::MAX);
        for &sum in &sums {
            let r = Recip12::of(sum);
            for x in 0..(1u32 << 12).min(sum.saturating_mul(256)) {
                assert_eq!(
                    r.quotient((x << 4) as u16),
                    (x / sum) as u8,
                    "x={x} sum={sum}"
                );
            }
        }
    }

    #[test]
    fn global_avg_pool_per_channel() {
        let mut out = [0xA5; 2];
        global_avg_pool_into(&[2, 4, 6, 8, 1, 1, 1, 1], 2, 4, &mut out);
        assert_eq!(out, [5, 1]);
    }

    /// The byte-at-a-time loop `global_avg_pool_into` replaced, kept as
    /// the oracle of both forms.
    fn global_avg_pool_ref(x: &[u8], c: usize, hw: usize) -> Vec<u8> {
        (0..c)
            .map(|ch| {
                let sum: u32 = x[ch * hw..(ch + 1) * hw].iter().map(|&v| v as u32).sum();
                (sum / hw as u32) as u8
            })
            .collect()
    }

    /// Both forms equal the oracle over channel counts below, at and
    /// past one 64-column block, plane sizes around the 128-byte chunk
    /// and past the 256-row `u16` fold, on full-range bytes and on
    /// all-255 planes (the sums that would wrap a `u16` first).
    #[test]
    fn global_avg_pool_forms_equal_the_byte_loop() {
        for c in [1usize, 3, 16, 17, 960] {
            for hw in [1usize, 49, 127, 128, 129, 12544] {
                for saturated in [false, true] {
                    let chw: Vec<u8> = (0..c * hw)
                        .map(|i: usize| match saturated {
                            true => 255,
                            false => (i.wrapping_mul(2654435761) >> 7) as u8,
                        })
                        .collect();
                    let want = global_avg_pool_ref(&chw, c, hw);
                    let mut got = vec![0xA5; c];
                    global_avg_pool_into(&chw, c, hw, &mut got);
                    assert_eq!(got, want, "chw {c}x{hw} saturated={saturated}");
                    let mut rows = vec![0u8; c * hw];
                    crate::reference::transpose_clamp_ref(&chw, c, hw, 255, &mut rows, c);
                    got.fill(0xA5);
                    global_avg_pool_rows_into(&rows, c, hw, &mut got);
                    assert_eq!(got, want, "rows {hw}x{c} saturated={saturated}");
                }
            }
        }
    }
}
