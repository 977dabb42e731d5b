//! Host-side scalar semantics of the non-GEMM operators.
//!
//! The functional runtime has two execution paths — the node-by-node
//! interpreter (`gcd2::runtime`) and the precompiled inference plan
//! (`gcd2::infer`) — that must stay **bit-identical**. Every non-GEMM
//! operator's arithmetic therefore lives here, once, as `_into` kernels
//! writing into caller-owned buffers (so the plan executor allocates
//! nothing in steady state).
//!
//! The quantization convention is the runtime's: activations live in a
//! small range `0..=act_max` (4 bits in practice), and each kernel's
//! epilogue keeps its output inside that range. Where two operands can
//! have different lengths, the second is zero-extended and the output
//! takes the first operand's length, matching the interpreter's
//! historical behaviour.

/// `out[i] = f(a[i], b[i])` over `a`'s length, with `b` zero-extended:
/// the common prefix zips two plain slices (a `Chain` adapter in the
/// zip keeps the loop from vectorising), then the tail pairs with 0.
fn zip_zero_extended(a: &[u8], b: &[u8], out: &mut Vec<u8>, f: impl Fn(u8, u8) -> u8) {
    let (head, tail) = a.split_at(a.len().min(b.len()));
    out.clear();
    out.extend(head.iter().zip(b).map(|(&x, &y)| f(x, y)));
    out.extend(tail.iter().map(|&x| f(x, 0)));
}

/// Elementwise average: `out[i] = (a[i] + b[i]) / 2`, with `b`
/// zero-extended to `a`'s length.
pub fn add_avg_into(a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    zip_zero_extended(a, b, out, |x, y| ((x as u16 + y as u16) / 2) as u8);
}

/// Elementwise product with a 4-bit requantization shift:
/// `out[i] = min((a[i] · b[i]) >> 4, act_max)`, `b` zero-extended.
pub fn mul_shift4_into(a: &[u8], b: &[u8], act_max: u8, out: &mut Vec<u8>) {
    zip_zero_extended(a, b, out, |x, y| {
        (((x as u16 * y as u16) >> 4) as u8).min(act_max)
    });
}

/// Elementwise division through the reciprocal lookup convention:
/// `out[i] = a[i] / (b[i] + 1)` (the `+1` keeps the table total and the
/// result inside the activation range), `b` zero-extended.
pub fn div_lut_into(a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    zip_zero_extended(a, b, out, |x, y| x / (y as u16 + 1) as u8);
}

/// Elementwise square with a 4-bit requantization shift:
/// `out[i] = min((x · x) >> 4, act_max)` — the `Pow` operator's
/// fixed-exponent instantiation.
pub fn pow_sq_into(x: &[u8], act_max: u8, out: &mut Vec<u8>) {
    out.clear();
    out.extend(
        x.iter()
            .map(|&v| (((v as u16 * v as u16) >> 4) as u8).min(act_max)),
    );
}

/// The monotone byte-lookup stand-in used for HardSwish/Sigmoid/GELU:
/// `out[i] = x/2 + x/4`.
pub fn monotone_lut_into(x: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend(x.iter().map(|&v| v / 2 + v / 4));
}

/// The multiplier that turns softmax's per-element division into one
/// multiply and shift: `(v · softmax_scale(act_max, sum)) >> 32 ==
/// v · act_max / sum` for every byte `v`. With `m = ⌊2³²/sum⌋ + 1`,
/// `x·m / 2³²` overshoots `x/sum` by `x·e / (sum·2³²)` for some
/// `e ≤ sum`, which stays below the `1/sum` that could carry the floor
/// while `x·e < 2³²` — true for `x = v·act_max < 2¹⁶` and `sum ≤ 2¹⁶`;
/// a larger `sum` exceeds every `x`, and then `x·m < 2³²` floors to the
/// quotient 0 as well.
fn softmax_scale(act_max: u8, sum: u32) -> u64 {
    act_max as u64 * ((1u64 << 32) / sum as u64 + 1)
}

/// Softmax over contiguous groups of `group` elements, renormalized into
/// the activation range: `out[i] = x[i] · act_max / max(Σ_group x, 1)`.
/// Monotone within each group and bounded by `act_max`. One reciprocal
/// per group ([`softmax_scale`]) keeps the element loop a multiply.
pub fn softmax_into(x: &[u8], group: usize, act_max: u8, out: &mut Vec<u8>) {
    let group = group.max(1);
    out.clear();
    out.reserve(x.len());
    for chunk in x.chunks(group) {
        let sum: u32 = chunk.iter().map(|&v| v as u32).sum();
        let scale = softmax_scale(act_max, sum.max(1));
        out.extend(chunk.iter().map(|&v| ((v as u64 * scale) >> 32) as u8));
    }
}

/// Layer normalization over contiguous groups of `group` elements:
/// mean-center and re-bias to the middle of the activation range,
/// `out[i] = clamp(x[i] - mean + (act_max + 1)/2, 0, act_max)`.
pub fn layernorm_into(x: &[u8], group: usize, act_max: u8, out: &mut Vec<u8>) {
    let group = group.max(1);
    let mid = (act_max as i32 + 1) / 2;
    out.clear();
    out.reserve(x.len());
    for chunk in x.chunks(group) {
        let sum: u32 = chunk.iter().map(|&v| v as u32).sum();
        let mean = (sum / chunk.len() as u32) as i32;
        out.extend(
            chunk
                .iter()
                .map(|&v| (v as i32 - mean + mid).clamp(0, act_max as i32) as u8),
        );
    }
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
    out: &mut Vec<u8>,
) {
    let out_h = (h - kernel.0) / stride.0 + 1;
    let out_w = (w - kernel.1) / stride.1 + 1;
    out.clear();
    out.resize(c * out_h * out_w, 0);
    let dims = ((h, w), (out_h, out_w));
    if is_max {
        pool_rows(x, dims, kernel, stride, out, u8::max, |best| best);
    } else {
        let area = (kernel.0 * kernel.1) as u32;
        let sum = |a: u32, b: u32| a + b;
        pool_rows(x, dims, kernel, stride, out, sum, |s| (s / area) as u8);
    }
}

/// [`pool_into`] for one reduction over `h × w` planes into
/// `out_h × out_w` ones: `fold` combines two values (of the accumulator
/// type `T`, wide enough for a whole window), `finish` maps a window's
/// fold to its output byte.
fn pool_rows<T: Copy + From<u8>>(
    x: &[u8],
    ((h, w), (out_h, out_w)): ((usize, usize), (usize, usize)),
    kernel: (usize, usize),
    stride: (usize, usize),
    out: &mut [u8],
    fold: impl Fn(T, T) -> T,
    finish: impl Fn(T) -> u8,
) {
    let (mut folded, mut windows): (Vec<T>, Vec<T>) = (Vec::new(), Vec::new());
    let planes = x
        .chunks_exact(h * w)
        .zip(out.chunks_exact_mut(out_h * out_w));
    for (plane, out_plane) in planes {
        for (oy, out_row) in out_plane.chunks_exact_mut(out_w).enumerate() {
            // Vertical: the kernel's rows folded into one. Every loop
            // here zips plain slices, so it vectorises.
            let (first, rest) = plane[oy * stride.0 * w..][..kernel.0 * w].split_at(w);
            folded.clear();
            folded.extend(first.iter().map(|&v| T::from(v)));
            for row in rest.chunks_exact(w) {
                for (acc, &v) in folded.iter_mut().zip(row) {
                    *acc = fold(*acc, T::from(v));
                }
            }
            // Horizontal, at every column: `windows[x]` folds
            // `folded[x ..][..kernel.1]`, one shifted slice at a time.
            windows.clear();
            windows.extend_from_slice(&folded);
            for dx in 1..kernel.1 {
                for (acc, &v) in windows.iter_mut().zip(&folded[dx..]) {
                    *acc = fold(*acc, v);
                }
            }
            // Output `ox` is the window that starts at `ox · stride.1`.
            for (dst, &v) in out_row.iter_mut().zip(windows.iter().step_by(stride.1)) {
                *dst = finish(v);
            }
        }
    }
}

/// Global average pooling: one mean per channel over `hw` spatial
/// elements.
pub fn global_avg_pool_into(x: &[u8], c: usize, hw: usize, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(c);
    for ch in 0..c {
        let sum: u32 = x[ch * hw..(ch + 1) * hw].iter().map(|&v| v as u32).sum();
        out.push((sum / hw as u32) as u8);
    }
}

/// Nearest-neighbour spatial upsampling of a CHW map by an integer
/// `factor` in both dimensions.
pub fn upsample_nn_into(x: &[u8], c: usize, h: usize, w: usize, factor: usize, out: &mut Vec<u8>) {
    let (oh, ow) = (h * factor, w * factor);
    out.clear();
    out.resize(c * oh * ow, 0);
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
pub fn concat_into(a: &[u8], b: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACT_MAX: u8 = 15;

    #[test]
    fn add_zero_extends_and_averages() {
        let mut out = Vec::new();
        add_avg_into(&[4, 8, 15], &[4], &mut out);
        assert_eq!(out, vec![4, 4, 7]);
    }

    #[test]
    fn mul_requantizes_and_clamps() {
        let mut out = Vec::new();
        mul_shift4_into(&[15, 15, 2], &[15, 0, 8], ACT_MAX, &mut out);
        assert_eq!(out, vec![14, 0, 1]);
    }

    #[test]
    fn div_is_bounded_by_numerator() {
        let mut out = Vec::new();
        div_lut_into(&[15, 9, 6], &[0, 2, 100], &mut out);
        assert_eq!(out, vec![15, 3, 0]);
    }

    #[test]
    fn softmax_groups_stay_in_range_and_monotone() {
        let x: Vec<u8> = vec![1, 5, 15, 0, 0, 0, 0, 3];
        let mut out = Vec::new();
        softmax_into(&x, 4, ACT_MAX, &mut out);
        assert_eq!(out.len(), x.len());
        assert!(out.iter().all(|&v| v <= ACT_MAX));
        assert!(out[0] <= out[1] && out[1] <= out[2]);
        // All-zero group divides by the clamped sum of 1.
        assert_eq!(&out[4..7], &[0, 0, 0]);
    }

    #[test]
    fn layernorm_centers_groups() {
        let mut out = Vec::new();
        layernorm_into(&[0, 15, 5, 10], 2, ACT_MAX, &mut out);
        assert!(out.iter().all(|&v| v <= ACT_MAX));
        // Mean of each pair maps to the mid-point bias of 8.
        assert_eq!(out, vec![1, 15, 6, 11]);
    }

    #[test]
    fn upsample_replicates_nearest() {
        let mut out = Vec::new();
        upsample_nn_into(&[1, 2, 3, 4], 1, 2, 2, 2, &mut out);
        assert_eq!(out, vec![1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4]);
    }

    #[test]
    fn pool_matches_hand_computed() {
        let x = [1u8, 3, 2, 4, 5, 7, 6, 8, 0, 0, 0, 0, 4, 4, 4, 4];
        let mut max = Vec::new();
        pool_into(&x, 2, 2, 4, (2, 2), (2, 2), true, &mut max);
        assert_eq!(max, vec![7, 8, 4, 4]);
        let mut avg = Vec::new();
        pool_into(&x, 2, 2, 4, (2, 2), (2, 2), false, &mut avg);
        assert_eq!(avg, vec![4, 5, 2, 2]);
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
                let mut got = vec![0xA5; 3];
                pool_into(&x, c, h, w, kernel, stride, is_max, &mut got);
                assert_eq!(
                    got,
                    pool_ref(&x, c, h, w, kernel, stride, is_max),
                    "{c}x{h}x{w} kernel {kernel:?} stride {stride:?} max={is_max}"
                );
            }
        }
    }

    /// The reciprocal form of softmax is the division form, bit for
    /// bit: every byte, both activation ranges, every sum a group of
    /// up to 257 bytes can reach, and seeded sums beyond.
    #[test]
    fn softmax_reciprocal_equals_the_division() {
        let check = |act_max: u8, sum: u32| {
            let scale = softmax_scale(act_max, sum);
            for v in 0..=255u8 {
                assert_eq!(
                    ((v as u64 * scale) >> 32) as u8,
                    (v as u32 * act_max as u32 / sum) as u8,
                    "v={v} act_max={act_max} sum={sum}"
                );
            }
        };
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for act_max in [15u8, 255] {
            for sum in 1..=65_535u32 {
                check(act_max, sum);
            }
            for _ in 0..10_000 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                check(act_max, (seed >> 32) as u32 | 0x1_0000);
            }
            check(act_max, u32::MAX);
        }
    }

    #[test]
    fn global_avg_pool_per_channel() {
        let mut out = Vec::new();
        global_avg_pool_into(&[2, 4, 6, 8, 1, 1, 1, 1], 2, 4, &mut out);
        assert_eq!(out, vec![5, 1]);
    }
}
