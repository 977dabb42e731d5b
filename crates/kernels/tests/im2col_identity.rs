//! Bit-identity gate for the im2col staging kernels.
//!
//! Contract: for every convolution geometry, `im2col_rm_into` writes
//! exactly the bytes of the per-element oracle `im2col_chw(…,
//! RowMajor)` — every byte of the destination, none beyond it — in the
//! form each kernel tier selects. Every case runs at every `KernelIsa`
//! the host supports (through `pin_isa`), so the tile form and the
//! portable form are both held to the oracle on one host. The same
//! cases hold `im2col_rows_into` — one form for every tier — to the
//! same oracle:
//! fed the map transposed to pixel-major, it writes the oracle's matrix
//! with its columns permuted from `(ch, dy, dx)` to `(dy, dx, ch)`.
//! A stride-1 conv's GEMM over `im2col_rows_view` — read in place on the
//! AMX tile grid, materialised on every other tier — equals the GEMM
//! over the staged matrix and `matmul_ref` over the oracle's.

use gcd2_cgraph::OpKind;
use gcd2_kernels::{
    im2col_chw, im2col_rm_into, im2col_rows_into, im2col_rows_view, matmul_ref, pin_isa,
    transpose_clamp_ref, try_matmul_panel_into, ByteMap, GemmA, GemmScratch, Im2colScratch,
    KernelIsa, WeightPanel,
};
use gcd2_models::ModelId;
use gcd2_tensor::{Layout, MatrixI8, MatrixU8};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// (channels, height, width, kernel, stride, padding).
type Shape = (
    usize,
    usize,
    usize,
    (usize, usize),
    (usize, usize),
    (usize, usize),
);

/// Every tier this host can run, the scalar oracle first.
fn tiers() -> Vec<KernelIsa> {
    KernelIsa::ALL
        .into_iter()
        .filter(|isa| isa.supported())
        .collect()
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
    for tier in tiers() {
        let _pin = pin_isa(tier);
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
        assert!(
            got[..len] == *want.as_bytes(),
            "{shape:?} at {tier} differs from the oracle"
        );
        assert!(
            got[len..].iter().all(|&b| b == 0xA5),
            "{shape:?} at {tier} wrote past the matrix"
        );
    }

    // The pixel-major form, on the scratch the tile form just used.
    let rows = pixel_major(&input, c, h * w);
    let (m, k) = (want.rows(), want.cols());
    let permuted = permuted(&want, c, kernel);
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

/// The CHW map `input` of `c` planes of `pixels` bytes, pixel-major.
fn pixel_major(input: &[u8], c: usize, pixels: usize) -> Vec<u8> {
    let mut rows = vec![0u8; input.len()];
    transpose_clamp_ref(input, c, pixels, u8::MAX, &mut rows, c);
    rows
}

/// The oracle's im2col matrix with its columns permuted from `(ch, dy,
/// dx)` to `(dy, dx, ch)`: what the pixel-major forms stage.
fn permuted(want: &MatrixU8, c: usize, (kh, kw): (usize, usize)) -> Vec<u8> {
    let (m, k) = (want.rows(), want.cols());
    let mut permuted = vec![0u8; m * k];
    for (o, row) in permuted.chunks_exact_mut(k.max(1)).enumerate() {
        for (tap, run) in row.chunks_exact_mut(c).enumerate() {
            for (ch, byte) in run.iter_mut().enumerate() {
                *byte = want.as_bytes()[o * k + ch * kh * kw + tap];
            }
        }
    }
    permuted
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

/// (channels, height, width, kernel, padding) of a stride-1 conv.
type ViewShape = (usize, usize, usize, (usize, usize), (usize, usize));

/// A stride-1 conv's GEMM three ways, at every tier the host supports:
/// over `im2col_rows_view` (read in place where the tier can, else
/// materialised by the dispatch), over the matrix `im2col_rows_into`
/// stages, and `matmul_ref` over the oracle's `im2col_chw` (columns
/// permuted to the pixel-major order). `n` columns of seeded weights,
/// clamped to 15 through a reversing map, so a garbage row stored over
/// a real one, or a row left unwritten, differs. One scratch per call
/// of each kind is carried across tiers and (by the caller) shapes.
fn assert_view_identity(
    &(c, h, w, kernel, padding): &ViewShape,
    n: usize,
    im2col: &mut Im2colScratch,
    gemm: &mut GemmScratch,
    seed: u64,
) {
    let input: Vec<u8> = pixels(c * h * w, seed).iter().map(|p| p % 16).collect();
    let rows = pixel_major(&input, c, h * w);
    let oracle = im2col_chw(&input, c, h, w, kernel, (1, 1), padding, Layout::RowMajor);
    let (m, k) = (oracle.rows(), oracle.cols());
    let matrix = permuted(&oracle, c, kernel);
    let weights = MatrixI8::from_fn(k, n, |r, col| {
        ((r * 131 + col * 71 + seed as usize) % 15) as i8 - 7
    });
    let shift = 6;
    let map = ByteMap::new(std::array::from_fn(|v| 15 - v as u8)).expect("entries ≤ 15");
    let want: Vec<u8> = matmul_ref(
        &MatrixU8::from_raw(m, k, Layout::RowMajor, matrix.clone()),
        &weights,
        shift,
    )
    .into_iter()
    .flatten()
    .map(|v| 15 - v.min(15))
    .collect();
    let requant = (shift, 15, map);
    let label = (c, h, w, kernel, padding, n);
    for tier in tiers() {
        let _pin = pin_isa(tier);
        let panel = WeightPanel::pack(&weights);
        let mut staged = vec![0u8; m * k];
        im2col_rows_into(&rows, c, h, w, kernel, (1, 1), padding, im2col, &mut staged);
        assert!(staged == matrix, "{label:?} at {tier}: staged matrix");
        let mut out = vec![0xA5u8; m * n];
        try_matmul_panel_into(
            GemmA::Matrix(&staged),
            m,
            k,
            &panel,
            requant,
            gemm,
            &mut out,
        )
        .expect("a valid matrix");
        assert!(
            out == want,
            "{label:?} at {tier}: GEMM over the staged matrix"
        );
        let view = im2col_rows_view(&rows, c, h, w, kernel, padding, im2col);
        assert_eq!((view.rows(), view.depth()), (m, k), "{label:?}");
        out.fill(0xA5);
        try_matmul_panel_into(GemmA::View(view), m, k, &panel, requant, gemm, &mut out)
            .expect("a valid view");
        assert!(out == want, "{label:?} at {tier}: GEMM over the view");
    }
}

/// Multiply-accumulates above which a catalog geometry's oracle GEMM is
/// cropped in width as well as in height.
const VIEW_ORACLE_MACS: usize = 24 << 20;

/// The view against the staged matrix and the oracle, at every tier:
/// every stride-1 conv geometry of the ten catalog models with a kernel
/// wider than one pixel (each a rows conv in some plan, or could be),
/// cropped to 14 output rows and, past [`VIEW_ORACLE_MACS`], to fewer
/// output columns — the channels, the kernel and the padding kept;
/// resnet-50's four keep their width — and then the
/// seams of the AMX view band: virtual rows `out_h·wp` off a multiple of
/// 16 and on one (the last tile's windows ending exactly at the map's
/// end, no slack), `c = 64` (one tile step per tap), a 5×5 kernel,
/// padding 0 and 2, one and several row blocks, a lone strip and an odd
/// strip count, and kernel rows that are not whole tile steps (`kw·c %
/// 64 ≠ 0`, materialised on every tier).
#[test]
fn views_equal_the_staged_matrix_and_the_oracle() {
    let mut catalog = BTreeSet::new();
    for model in ModelId::ALL {
        let graph = model.build();
        for node in graph.nodes() {
            let OpKind::Conv2d {
                kernel,
                stride: (1, 1),
                padding,
                ..
            } = node.kind
            else {
                continue;
            };
            if kernel == (1, 1) {
                continue;
            }
            let s = &graph.node(node.inputs[0]).shape;
            let c = s.channels();
            // At most `out` output pixels along a dimension of `d`.
            let crop = |d: usize, kd: usize, pd: usize, out: usize| {
                d.min((out + kd - 1).saturating_sub(2 * pd).max(1))
            };
            let out_w = VIEW_ORACLE_MACS / (14 * c * kernel.0 * kernel.1 * 40);
            let h = crop(s.dim(2), kernel.0, padding.0, 14);
            let w = crop(s.dim(3), kernel.1, padding.1, out_w.max(8));
            catalog.insert((c, h, w, kernel, padding));
        }
    }
    assert!(
        catalog.iter().any(|&(c, ..)| c == 64) && catalog.len() >= 10,
        "the catalog has a dozen stride-1 conv geometries: {catalog:?}"
    );
    let seams: &[ViewShape] = &[
        (64, 14, 5, (3, 3), (1, 1)),  // 13·7 + 5 = 96 virtual rows: no slack
        (64, 9, 9, (3, 3), (1, 1)),   // 8·11 + 9 = 97: 15 rows of slack
        (64, 12, 12, (5, 5), (2, 2)), // 5×5, padding 2
        (64, 12, 11, (5, 5), (0, 0)), // padding 0: the map is a copy
        (128, 7, 7, (3, 3), (1, 1)),  // resnet-50's s3 conv2 in miniature
        (64, 40, 30, (3, 3), (1, 1)), // several row blocks
        (32, 6, 8, (3, 3), (1, 1)),   // kw·c = 96: materialised
        (16, 5, 5, (2, 4), (1, 0)),   // kw·c = 64 at c = 16
        (64, 2, 2, (3, 3), (1, 1)),   // four rows: the VNNI strips
    ];
    let mut im2col = Im2colScratch::default();
    let mut gemm = GemmScratch::default();
    for (i, shape) in catalog.iter().chain(seams).enumerate() {
        for n in [16, 40] {
            assert_view_identity(shape, n, &mut im2col, &mut gemm, i as u64);
        }
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
    let mut scratch = Im2colScratch::default();
    for &(c, h, w, kernel, stride, padding) in shapes {
        let input = pixels(c * h * w, 1);
        let out_h = (h + 2 * padding.0 - kernel.0) / stride.0 + 1;
        let out_w = (w + 2 * padding.1 - kernel.1) / stride.1 + 1;
        let k = c * kernel.0 * kernel.1;
        let mut out = vec![0u8; out_h * out_w * k];
        let mut best = [f64::MAX; 2];
        for (slot, tier) in [KernelIsa::Scalar, gcd2_kernels::detected_isa()]
            .into_iter()
            .enumerate()
        {
            let _pin = pin_isa(tier);
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
