//! Bit-identity gate for the im2col staging kernels.
//!
//! Contract: for every convolution geometry, `im2col_rm_into` writes
//! exactly the bytes of the per-element oracle `im2col_chw(…,
//! RowMajor)` — every byte of the destination, none beyond it — in the
//! form each kernel tier selects. Every case runs at every `KernelIsa`
//! the host supports (through `force_isa`) and on auto-detection, so
//! the tile form and the portable form are both held to the oracle on
//! one host; under `GCD2_FORCE_SCALAR=1` (CI runs the suite both ways)
//! auto-detection is the portable form too. The same cases hold
//! `im2col_rows_into` — one form for every tier — to the same oracle:
//! fed the map transposed to pixel-major, it writes the oracle's matrix
//! with its columns permuted from `(ch, dy, dx)` to `(dy, dx, ch)`.

use gcd2_cgraph::OpKind;
use gcd2_kernels::{
    force_isa, im2col_chw, im2col_rm_into, im2col_rows_into, transpose_clamp_ref, Im2colScratch,
    KernelIsa,
};
use gcd2_models::ModelId;
use gcd2_tensor::Layout;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// (channels, height, width, kernel, stride, padding).
type Shape = (
    usize,
    usize,
    usize,
    (usize, usize),
    (usize, usize),
    (usize, usize),
);

/// `force_isa` is process-global; tests that flip it serialize here.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn force_guard() -> MutexGuard<'static, ()> {
    match FORCE_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Auto-detection, then every tier this host can run.
fn tiers() -> Vec<Option<KernelIsa>> {
    let supported = KernelIsa::ALL.into_iter().filter(|isa| isa.supported());
    std::iter::once(None).chain(supported.map(Some)).collect()
}

/// Non-zero pixels, so a byte the kernel zero-fills by mistake differs
/// from the oracle's.
fn pixels(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let mut h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed);
            h ^= h >> 31;
            1 + (h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 24) as u8 % 255
        })
        .collect()
}

/// Oracle == kernel at every tier, with one scratch carried across the
/// tiers and (by the caller) across shapes, so stale scratch bytes from
/// a larger geometry are in play.
fn assert_identity(shape: &Shape, scratch: &mut Im2colScratch, seed: u64) {
    let &(c, h, w, kernel, stride, padding) = shape;
    let input = pixels(c * h * w, seed);
    let want = im2col_chw(&input, c, h, w, kernel, stride, padding, Layout::RowMajor);
    let guard = force_guard();
    for tier in tiers() {
        force_isa(tier);
        // 0xA5 marks bytes the kernel failed to write; the guard band
        // after the matrix must survive.
        let len = want.rows() * want.cols();
        let mut got = vec![0xA5u8; len + 32];
        im2col_rm_into(
            &input,
            c,
            h,
            w,
            kernel,
            stride,
            padding,
            scratch,
            &mut got[..len],
        );
        force_isa(None);
        assert!(
            got[..len] == *want.as_bytes(),
            "{shape:?} at {tier:?} differs from the oracle"
        );
        assert!(
            got[len..].iter().all(|&b| b == 0xA5),
            "{shape:?} at {tier:?} wrote past the matrix"
        );
    }
    drop(guard);

    // The pixel-major form, on the scratch the tile form just used.
    let (kh, kw) = kernel;
    let mut rows = vec![0u8; input.len()];
    transpose_clamp_ref(&input, c, h * w, u8::MAX, &mut rows, c);
    let (m, k) = (want.rows(), want.cols());
    let mut permuted = vec![0u8; m * k];
    for (o, row) in permuted.chunks_exact_mut(k.max(1)).enumerate() {
        for (tap, run) in row.chunks_exact_mut(c).enumerate() {
            for (ch, byte) in run.iter_mut().enumerate() {
                *byte = want.as_bytes()[o * k + ch * kh * kw + tap];
            }
        }
    }
    let mut got = vec![0xA5u8; m * k + 32];
    im2col_rows_into(
        &rows,
        c,
        h,
        w,
        kernel,
        stride,
        padding,
        scratch,
        &mut got[..m * k],
    );
    assert!(
        got[..m * k] == permuted,
        "{shape:?} pixel-major differs from the permuted oracle"
    );
    assert!(
        got[m * k..].iter().all(|&b| b == 0xA5),
        "{shape:?} pixel-major wrote past the matrix"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random geometry: `k` below and above one tile, `out_w` below,
    /// at and off a multiple of 16, rectangular kernels, strides wider
    /// than the kernel (unused rows and phases), padding up to half the
    /// kernel.
    #[test]
    fn kernel_equals_oracle(
        (c, h, w) in (1usize..=40, 1usize..=40, 1usize..=40),
        (kh_i, kw_i) in (0usize..5, 0usize..5),
        stride in (1usize..=3, 1usize..=3),
        (ph_f, pw_f) in (0usize..=2, 0usize..=2),
        seed in any::<u64>(),
    ) {
        const KERNELS: [usize; 5] = [1, 2, 3, 5, 7];
        let kernel = (KERNELS[kh_i], KERNELS[kw_i]);
        // padding ∈ {0, k/4, k/2}, never above half the kernel.
        let padding = (kernel.0 / 2 * ph_f / 2, kernel.1 / 2 * pw_f / 2);
        // The convolution must fit: grow the map to the kernel if not.
        let h = h.max(kernel.0.saturating_sub(2 * padding.0));
        let w = w.max(kernel.1.saturating_sub(2 * padding.1));
        let mut scratch = Im2colScratch::default();
        assert_identity(&(c, h, w, kernel, stride, padding), &mut scratch, seed);
    }
}

/// Geometry pinned to the tile form's seams.
#[test]
fn seams_are_bit_identical() {
    let shapes: &[Shape] = &[
        (16, 1, 1, (1, 1), (1, 1), (0, 0)), // one pixel, k exactly one tile
        (15, 4, 4, (1, 1), (1, 1), (0, 0)), // k below a tile: portable on every tier
        (17, 3, 16, (1, 1), (1, 1), (0, 0)), // k one past a tile, out_w exactly one
        (2, 5, 17, (3, 3), (1, 1), (1, 1)), // out_w one past a tile
        (2, 5, 15, (3, 3), (1, 1), (1, 1)), // out_w one short of a tile
        (3, 9, 40, (3, 3), (2, 2), (1, 1)), // both phases used
        (20, 9, 40, (1, 1), (2, 2), (0, 0)), // strided pointwise: one phase, every other row
        (4, 11, 37, (2, 2), (3, 3), (0, 0)), // stride above the kernel: a phase and rows unused
        (3, 12, 50, (7, 7), (2, 2), (3, 3)), // the stem's geometry
        (2, 3, 3, (7, 7), (1, 1), (3, 3)),  // map smaller than the kernel
        (4, 6, 9, (2, 2), (1, 1), (3, 3)),  // padding above the kernel: all-zero pixels
        (2, 8, 33, (5, 3), (1, 2), (2, 0)), // rectangular kernel, per-axis stride and padding
        (2, 7, 35, (3, 5), (3, 1), (0, 2)),
        (40, 2, 7, (1, 7), (1, 1), (0, 3)),
        (1, 9, 9, (3, 3), (2, 2), (1, 1)), // one channel: the layouts coincide
        (64, 6, 7, (3, 3), (1, 1), (1, 1)), // a tap run of three whole lines
        (65, 6, 7, (3, 3), (2, 2), (1, 1)), // one byte past a line, strided
        (64, 5, 9, (1, 1), (2, 2), (0, 0)), // strided pointwise: no padded copy
        (16, 8, 8, (7, 5), (2, 1), (3, 2)), // padding 3 and 2
    ];
    // One scratch across every shape: it grows and is reused shrunk.
    let mut scratch = Im2colScratch::default();
    for (i, shape) in shapes.iter().enumerate() {
        assert_identity(shape, &mut scratch, i as u64);
    }
}

/// Staged bytes above which a catalog geometry is checked on a map
/// cropped in height: the oracle computes every element through two
/// divisions, and fst's 9×9 conv over 32 × 1024 × 1024 stages 2.7 GB. The
/// crop keeps the width, the channels, the kernel, the stride and the
/// padding, and leaves enough rows for the top border, interior rows
/// and the bottom border.
const ORACLE_MAX_BYTES: usize = 12 << 20;

/// Every distinct im2col geometry of the ten catalog models — each
/// `Conv2d` that is not a unit-stride pointwise conv (those stage by a
/// plain transpose).
#[test]
fn catalog_geometries_are_bit_identical() {
    let mut shapes = BTreeSet::new();
    for model in ModelId::ALL {
        let graph = model.build();
        for node in graph.nodes() {
            let OpKind::Conv2d {
                kernel,
                stride,
                padding,
                ..
            } = node.kind
            else {
                continue;
            };
            if kernel == (1, 1) && stride == (1, 1) && padding == (0, 0) {
                continue;
            }
            let s = &graph.node(node.inputs[0]).shape;
            shapes.insert((s.channels(), s.dim(2), s.dim(3), kernel, stride, padding));
        }
    }
    assert!(
        shapes.len() >= 20,
        "the catalog has dozens of conv geometries"
    );
    let mut scratch = Im2colScratch::default();
    for (i, &(c, h, w, kernel, stride, padding)) in shapes.iter().enumerate() {
        let out_w = (w + 2 * padding.1 - kernel.1) / stride.1 + 1;
        let row_bytes = out_w * c * kernel.0 * kernel.1;
        let out_h_max = (ORACLE_MAX_BYTES / row_bytes).max(2 * kernel.0);
        let h = h.min(out_h_max * stride.0);
        assert_identity(&(c, h, w, kernel, stride, padding), &mut scratch, i as u64);
    }
}

/// Throughput probe (run explicitly with `--ignored --release
/// --nocapture`): µs per call of `im2col_rm_into`'s two forms and of the
/// pixel-major form on resnet-50's staging geometries, best of 30. Not
/// a correctness gate; DESIGN.md §4d and §4f quote its table.
#[test]
#[ignore]
fn perf_probe() {
    let shapes: &[Shape] = &[
        (3, 224, 224, (7, 7), (2, 2), (3, 3)),
        (64, 56, 56, (3, 3), (1, 1), (1, 1)),
        (128, 56, 56, (3, 3), (2, 2), (1, 1)),
        (128, 28, 28, (3, 3), (1, 1), (1, 1)),
        (256, 56, 56, (1, 1), (2, 2), (0, 0)),
        (256, 14, 14, (3, 3), (1, 1), (1, 1)),
        (512, 7, 7, (3, 3), (1, 1), (1, 1)),
    ];
    let _guard = force_guard();
    let mut scratch = Im2colScratch::default();
    for &(c, h, w, kernel, stride, padding) in shapes {
        let input = pixels(c * h * w, 1);
        let out_h = (h + 2 * padding.0 - kernel.0) / stride.0 + 1;
        let out_w = (w + 2 * padding.1 - kernel.1) / stride.1 + 1;
        let k = c * kernel.0 * kernel.1;
        let mut out = vec![0u8; out_h * out_w * k];
        let mut best = [f64::MAX; 2];
        for (slot, tier) in [Some(KernelIsa::Scalar), None].into_iter().enumerate() {
            force_isa(tier);
            for _ in 0..30 {
                let t0 = std::time::Instant::now();
                im2col_rm_into(
                    &input,
                    c,
                    h,
                    w,
                    kernel,
                    stride,
                    padding,
                    &mut scratch,
                    &mut out,
                );
                best[slot] = best[slot].min(t0.elapsed().as_secs_f64() * 1e6);
            }
            force_isa(None);
        }
        // The bytes differ (transposed map, permuted columns); the
        // work — one `m × k` matrix staged — is the same.
        let mut rows = f64::MAX;
        for _ in 0..30 {
            let t0 = std::time::Instant::now();
            im2col_rows_into(
                &input,
                c,
                h,
                w,
                kernel,
                stride,
                padding,
                &mut scratch,
                &mut out,
            );
            rows = rows.min(t0.elapsed().as_secs_f64() * 1e6);
        }
        println!(
            "{:>6}x{:<5} {kernel:?} s{stride:?}  portable {:>7.0} µs  active {:>7.0} µs  {:>5.1} GB/s  pixel-major {:>7.0} µs  {:>5.1} GB/s",
            out_h * out_w,
            k,
            best[0],
            best[1],
            out.len() as f64 / best[1] / 1e3,
            rows,
            out.len() as f64 / rows / 1e3
        );
    }
}
