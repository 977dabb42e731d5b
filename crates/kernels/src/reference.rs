//! Scalar reference implementations the SIMD kernels are validated
//! against.
#![allow(clippy::needless_range_loop)]

use gcd2_tensor::{MatrixI8, MatrixU8};

/// Reference quantized matrix multiply:
/// `out[r][c] = clamp((Σ_k a[r][k] · w[k][c]) >> shift, 0, 255)`.
///
/// Accumulation is 32-bit; the SIMD kernels accumulate `vmpy`/`vmpa`
/// results in 16 bits, so test inputs must keep accumulators within
/// `i16` range for bit-exact agreement (see crate docs).
///
/// # Panics
/// Panics if `a.cols() != w.rows()`.
pub fn matmul_ref(a: &MatrixU8, w: &MatrixI8, shift: u8) -> Vec<Vec<u8>> {
    assert_eq!(a.cols(), w.rows(), "dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), w.cols());
    let mut out = vec![vec![0u8; n]; m];
    for r in 0..m {
        for c in 0..n {
            let mut acc: i32 = 0;
            for kk in 0..k {
                acc += a.get(r, kk) as i32 * w.get(kk, c) as i32;
            }
            out[r][c] = (acc >> shift).clamp(0, 255) as u8;
        }
    }
    out
}

/// Reference depthwise convolution over a CHW map with one shared
/// `kh·kw` filter: one output pixel at a time, a bounds test on every
/// tap, `min(act_max)` after the requantization. `out` is resized to
/// `out_len` (≤ `c·oh·ow` outputs are computed, in channel-major
/// order). This is the oracle [`crate::dwconv_direct_into`] is
/// validated against; only tests call it.
///
/// # Panics
/// Panics if `input.len() != c * h * w` or `weights.len() != kh * kw`.
#[allow(clippy::too_many_arguments)]
pub fn dwconv_ref(
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
    out_len: usize,
    out: &mut Vec<u8>,
) {
    assert_eq!(input.len(), c * h * w, "input size mismatch");
    let (kh, kw) = kernel;
    assert_eq!(weights.len(), kh * kw, "weight size mismatch");
    let out_h = (h + 2 * padding.0 - kh) / stride.0 + 1;
    let out_w = (w + 2 * padding.1 - kw) / stride.1 + 1;
    out.clear();
    out.resize(out_len, 0);
    let mut r = 0usize;
    'rows: for ch in 0..c {
        let chan = &input[ch * h * w..(ch + 1) * h * w];
        for oy in 0..out_h {
            for ox in 0..out_w {
                if r >= out_len {
                    break 'rows;
                }
                let mut acc: i32 = 0;
                let x0 = (ox * stride.1) as isize - padding.1 as isize;
                for dy in 0..kh {
                    let y = (oy * stride.0 + dy) as isize - padding.0 as isize;
                    if y < 0 || y as usize >= h {
                        continue;
                    }
                    let row = &chan[y as usize * w..(y as usize + 1) * w];
                    let wrow = &weights[dy * kw..(dy + 1) * kw];
                    for (dx, &wv) in wrow.iter().enumerate() {
                        let x = x0 + dx as isize;
                        if x < 0 || x as usize >= w {
                            continue;
                        }
                        acc += row[x as usize] as i32 * wv as i32;
                    }
                }
                out[r] = ((acc >> shift).clamp(0, 255) as u8).min(act_max);
                r += 1;
            }
        }
    }
}

/// Reference transpose with a clamp, one element at a time:
/// `dst[c·dst_stride + r] = min(src[r·cols + c], clamp)`. This is the
/// oracle [`crate::transpose_clamp_into`] is validated against; only
/// tests call it.
pub fn transpose_clamp_ref(
    src: &[u8],
    rows: usize,
    cols: usize,
    clamp: u8,
    dst: &mut [u8],
    dst_stride: usize,
) {
    for r in 0..rows {
        for c in 0..cols {
            dst[c * dst_stride + r] = src[r * cols + c].min(clamp);
        }
    }
}

/// Reference elementwise `clamp((a + b) >> shift, 0, 255)`.
pub fn add_ref(a: &[u8], b: &[u8], shift: u8) -> Vec<u8> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (((x as i32 + y as i32) >> shift).clamp(0, 255)) as u8)
        .collect()
}

/// Reference elementwise `clamp((a · b) >> shift, 0, 255)`.
pub fn mul_ref(a: &[u8], b: &[u8], shift: u8) -> Vec<u8> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (((x as i32 * y as i32) >> shift).clamp(0, 255)) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_tensor::Layout;

    #[test]
    fn tiny_matmul() {
        // [1 2; 3 4] x [1 0; 0 1] = identity application.
        let a = MatrixU8::from_row_major(2, 2, Layout::RowMajor, &[1, 2, 3, 4]);
        let w = MatrixI8::from_row_major(2, 2, &[1, 0, 0, 1]);
        let out = matmul_ref(&a, &w, 0);
        assert_eq!(out, vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn negative_products_clamp_to_zero() {
        let a = MatrixU8::from_row_major(1, 1, Layout::RowMajor, &[10]);
        let w = MatrixI8::from_row_major(1, 1, &[-3]);
        assert_eq!(matmul_ref(&a, &w, 0), vec![vec![0]]);
    }

    #[test]
    fn elementwise_refs() {
        assert_eq!(add_ref(&[200, 100], &[100, 50], 1), vec![150, 75]);
        assert_eq!(mul_ref(&[16, 3], &[16, 3], 4), vec![16, 0]);
    }
}
