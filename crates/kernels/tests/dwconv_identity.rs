//! Bit-identity gate for the depthwise kernel, and for the pixel-major
//! (`Rows`) forms of every kernel that has one.
//!
//! Contract: for every geometry, requant shift, activation bound and
//! `out_len` cut, all of
//!
//! * the per-pixel oracle (`dwconv_ref`, the loop the kernel replaced),
//! * the form each `KernelIsa` the host supports selects (through
//!   `pin_isa`; the scalar pin selects the portable row-accumulator
//!   form)
//!
//! produce **identical bytes** — and, when the result is one whole
//! image, so does `dwconv_rows_into` over the transposed map, through a
//! transpose back: its portable form and the form of every tier. The
//! pools and the zero-extended binaries are held to the same three-way
//! identity (pixel-major form == CHW form through `transpose_clamp_into`
//! == a per-element oracle written here).

use gcd2_kernels::{
    dwconv_direct_into, dwconv_ref, dwconv_rows_into, hostops, pin_isa, transpose_clamp_into,
    KernelIsa,
};
use proptest::prelude::*;

/// Every tier this host can run, the scalar oracle first.
fn tiers() -> Vec<KernelIsa> {
    KernelIsa::ALL
        .into_iter()
        .filter(|isa| isa.supported())
        .collect()
}

/// (channels, height, width, kernel, stride, padding).
type Shape = (
    usize,
    usize,
    usize,
    (usize, usize),
    (usize, usize),
    (usize, usize),
);

fn out_dims(&(_, h, w, k, s, p): &Shape) -> (usize, usize) {
    ((h + 2 * p.0 - k.0) / s.0 + 1, (w + 2 * p.1 - k.1) / s.1 + 1)
}

fn mix(i: usize, seed: u64) -> u64 {
    let mut h = (i as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed);
    h ^= h >> 31;
    h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 24
}

/// Full-range activations.
fn pixels(len: usize, seed: u64) -> Vec<u8> {
    (0..len).map(|i| mix(i, seed) as u8).collect()
}

/// Full-range weights, `i8::MIN` included.
fn taps(len: usize, seed: u64) -> Vec<i8> {
    let mut w: Vec<i8> = (0..len).map(|i| mix(i, !seed) as i8).collect();
    w[seed as usize % len] = i8::MIN;
    w
}

/// A `c × hw` CHW map as `hw` pixel-major rows of `c` bytes.
fn to_rows(chw: &[u8], c: usize) -> Vec<u8> {
    let mut rows = vec![0u8; chw.len()];
    if c > 0 && !chw.is_empty() {
        transpose_clamp_into(chw, c, chw.len() / c, u8::MAX, &mut rows, c);
    }
    rows
}

/// Oracle == the form of every tier, for one call — in CHW, and in rows
/// when the call computes one whole image.
fn assert_identity(
    shape: &Shape,
    input: &[u8],
    weights: &[i8],
    shift: u8,
    act_max: u8,
    out_len: usize,
) {
    let &(c, h, w, k, s, p) = shape;
    let mut want = Vec::new();
    dwconv_ref(
        input, c, h, w, k, s, p, weights, shift, act_max, out_len, &mut want,
    );
    let (oh, ow) = out_dims(shape);
    let whole = out_len == c * oh * ow;
    let (rows_in, rows_want) = (to_rows(input, c), to_rows(&want, c));
    // Stale bytes in the destination must not survive.
    let mut got = vec![0xAA; out_len];
    let mut rows_got = vec![0xAA; out_len];
    for tier in tiers() {
        let _pin = pin_isa(tier);
        got.fill(0xAA);
        dwconv_direct_into(input, c, h, w, k, s, p, weights, shift, act_max, &mut got);
        if whole {
            rows_got.fill(0xAA);
            dwconv_rows_into(
                &rows_in,
                c,
                h,
                w,
                k,
                s,
                p,
                weights,
                shift,
                act_max,
                &mut rows_got,
            );
        }
        assert_eq!(
            got, want,
            "{tier} vs oracle {shape:?} shift={shift} len={out_len}"
        );
        if whole {
            assert_eq!(
                rows_got, rows_want,
                "{tier} rows vs oracle {shape:?} shift={shift}"
            );
        }
    }
}

/// The `out_len` cuts worth pinning for a shape: everything, nothing,
/// mid-row, mid-channel, and past the end (zero-filled remainder).
fn cuts(shape: &Shape) -> Vec<usize> {
    let (oh, ow) = out_dims(shape);
    let full = shape.0 * oh * ow;
    vec![
        full,
        0,
        full.saturating_sub(ow / 2 + 1),
        full.saturating_sub(oh * ow / 2 + 1),
        full + 5,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random geometry — square and non-square kernels, per-axis strides
    /// and paddings (padding ≥ kernel and `w < kw` included), widths
    /// below, at and above one vector — with full-range operands.
    #[test]
    fn kernel_equals_oracle(
        (c, h, w) in (1usize..=5, 1usize..=11, 1usize..=40),
        k in (1usize..=7, 1usize..=7),
        s in (1usize..=3, 1usize..=3),
        p in (0usize..=3, 0usize..=3),
        (shift, wide_act, cut) in (0u8..=31, any::<bool>(), 0usize..=11),
        seed in any::<u64>(),
    ) {
        // The convolution must fit: grow the map to the kernel if not.
        let h = h.max(k.0.saturating_sub(2 * p.0));
        let w = w.max(k.1.saturating_sub(2 * p.1));
        let shape = (c, h, w, k, s, p);
        let input = pixels(shape.0 * shape.1 * shape.2, seed);
        let weights = taps(k.0 * k.1, seed);
        let (oh, ow) = out_dims(&shape);
        // Half the cases compute the whole image, which is what the
        // pixel-major form is held to.
        let out_len = match cuts(&shape).get(cut) {
            Some(&len) => len,
            None if cut == 5 => seed as usize % (c * oh * ow + 1),
            None => c * oh * ow,
        };
        let act_max = if wide_act { 255 } else { 15 };
        assert_identity(&shape, &input, &weights, shift, act_max, out_len);
    }
}

/// Geometry pinned to the kernel's seams: one tap, a tap that touches no
/// output, padding at least the kernel, maps narrower than the kernel,
/// row widths around the 16-lane group, strides past the phase split's
/// fast case and past the vector form's limit, a filter past its tap-quad
/// bound. Calls alternate shapes on one thread, so the portable form's
/// reused scratch shrinks and grows between them.
#[test]
fn seams_are_bit_identical() {
    let shapes: &[Shape] = &[
        (1, 1, 1, (1, 1), (1, 1), (0, 0)),
        (2, 1, 1, (3, 3), (1, 1), (1, 1)),
        (3, 2, 2, (7, 7), (1, 1), (3, 3)), // w < kw: most taps clip away
        (2, 3, 3, (2, 2), (1, 1), (3, 3)), // padding > kernel: all-zero borders
        (2, 5, 15, (3, 3), (1, 1), (1, 1)),
        (2, 5, 16, (3, 3), (1, 1), (1, 1)),
        (2, 5, 17, (3, 3), (1, 1), (1, 1)),
        (2, 5, 33, (5, 5), (2, 2), (2, 2)),
        (2, 6, 32, (3, 5), (2, 1), (0, 2)),
        (2, 9, 31, (5, 3), (1, 2), (2, 0)),
        (3, 7, 29, (3, 3), (3, 3), (1, 1)),
        (2, 7, 41, (3, 7), (1, 4), (1, 3)),
        (2, 7, 43, (3, 3), (2, 5), (1, 1)), // sx > 4: portable on every tier
        (4, 1, 70, (1, 15), (1, 1), (0, 7)),
        (2, 18, 20, (17, 13), (1, 1), (8, 6)), // 68 tap quads: portable on every tier
    ];
    for (i, shape) in shapes.iter().enumerate() {
        let input = pixels(shape.0 * shape.1 * shape.2, i as u64);
        let weights = taps(shape.3 .0 * shape.3 .1, i as u64);
        for out_len in cuts(shape) {
            for (shift, act_max) in [(0, 255), (7, 15), (15, 255)] {
                assert_identity(shape, &input, &weights, shift, act_max, out_len);
            }
        }
    }
}

/// The seams of the pixel-major forms: channel counts below, at and
/// past one 64-byte vector (and 72 = one vector and an eighth), a
/// stride with fewer channels than a vector (every pixel a masked run),
/// maps narrower than the kernel (no interior), a map that is all
/// padding, a 7×7 filter (the most tap quads, 13 with one live tap in
/// the last), shifts 0 and 31 and an activation bound below 255.
#[test]
fn rows_seams_are_bit_identical() {
    let mut shapes: Vec<Shape> = Vec::new();
    for c in [1, 3, 16, 63, 64, 65, 72] {
        shapes.push((c, 6, 9, (3, 3), (1, 1), (1, 1)));
        shapes.push((c, 7, 7, (5, 5), (2, 2), (2, 2)));
    }
    shapes.extend([
        (16, 9, 11, (3, 3), (2, 2), (1, 1)), // stride 2, c < 64
        (40, 8, 10, (3, 5), (2, 3), (0, 2)),
        (24, 4, 3, (3, 7), (1, 1), (1, 3)), // w < kw
        (8, 2, 2, (7, 7), (1, 1), (3, 3)),
        (5, 1, 1, (2, 2), (1, 1), (3, 3)), // borders that are all padding
        (6, 0, 0, (3, 3), (1, 1), (2, 2)), // a map that is all padding
        (20, 9, 9, (7, 7), (1, 1), (3, 3)),
        (130, 3, 5, (7, 7), (2, 1), (3, 3)),
        (2, 18, 20, (17, 13), (1, 1), (8, 6)), // 56 tap quads
        (2, 19, 20, (19, 14), (1, 1), (9, 6)), // 67: portable on every tier
    ]);
    for (i, shape) in shapes.iter().enumerate() {
        let input = pixels(shape.0 * shape.1 * shape.2, i as u64);
        let weights = taps(shape.3 .0 * shape.3 .1, i as u64);
        let (oh, ow) = out_dims(shape);
        for (shift, act_max) in [(0, 255), (0, 15), (7, 15), (31, 255), (31, 100)] {
            assert_identity(shape, &input, &weights, shift, act_max, shape.0 * oh * ow);
        }
    }
}

/// The per-window pooling loop, over CHW.
fn pool_ref(
    x: &[u8],
    (c, h, w): (usize, usize, usize),
    kernel: (usize, usize),
    stride: (usize, usize),
    is_max: bool,
) -> Vec<u8> {
    let (out_h, out_w) = ((h - kernel.0) / stride.0 + 1, (w - kernel.1) / stride.1 + 1);
    let mut out = Vec::with_capacity(c * out_h * out_w);
    for ch in 0..c {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let window = (0..kernel.0 * kernel.1).map(|t| {
                    let (y, x0) = (oy * stride.0 + t / kernel.1, ox * stride.1 + t % kernel.1);
                    x[(ch * h + y) * w + x0] as u32
                });
                out.push(if is_max {
                    window.max().unwrap_or(0) as u8
                } else {
                    (window.sum::<u32>() / (kernel.0 * kernel.1) as u32) as u8
                });
            }
        }
    }
    out
}

/// `pool_rows_into` == `pool_into` through the transposes == the
/// per-window loop, max and average: the catalog's pools (resnet-50's
/// stem, efficientdet-d0's and pixor's 2×2) and the seams — channel
/// counts around one vector, overlapping and skipping windows, one-wide
/// kernels, a kernel that covers the map.
#[test]
fn pool_forms_are_bit_identical() {
    let cases = [
        (64, 112, 112, (3, 3), (2, 2)),
        (64, 16, 16, (2, 2), (2, 2)),
        (1, 7, 9, (2, 2), (2, 2)),
        (3, 11, 13, (3, 3), (2, 2)),
        (16, 9, 7, (2, 3), (3, 1)),
        (63, 8, 8, (1, 1), (1, 1)),
        (65, 5, 6, (1, 4), (2, 3)),
        (72, 6, 5, (6, 5), (1, 1)),
    ];
    for (i, &(c, h, w, kernel, stride)) in cases.iter().enumerate() {
        let chw = pixels(c * h * w, i as u64);
        for is_max in [true, false] {
            let want = pool_ref(&chw, (c, h, w), kernel, stride, is_max);
            for tier in tiers() {
                let _pin = pin_isa(tier);
                let mut got = vec![0xAA; want.len()];
                hostops::pool_into(&chw, c, h, w, kernel, stride, is_max, &mut got);
                assert_eq!(got, want, "{tier}: chw {c}x{h}x{w} {kernel:?} max={is_max}");
                got.fill(0xAA);
                let rows = to_rows(&chw, c);
                hostops::pool_rows_into(&rows, c, h, w, kernel, stride, is_max, &mut got);
                assert_eq!(
                    got,
                    to_rows(&want, c),
                    "{tier}: rows {c}x{h}x{w} {kernel:?} max={is_max}"
                );
            }
        }
    }
}

/// The zero-extended binaries over an image held pixel-major and a
/// flat second operand of `len(g)` ∈ {0, 1, c, c·hw} (and one past a
/// plane, and longer than the image): `_rows_into` == the CHW kernel
/// through the transposes == `f(x[i], g[i] or 0)` per CHW element. The
/// gate is not a broadcast — element `i` of `g` meets CHW element `i`.
#[test]
fn zero_extended_binaries_are_bit_identical_in_rows() {
    const ACT_MAX: u8 = 15;
    type Chw = fn(&[u8], &[u8], &mut [u8]);
    type Rows = fn(&[u8], &[u8], usize, &mut [u8]);
    /// (name, per-element oracle, CHW kernel, pixel-major kernel).
    type Op = (&'static str, fn(u8, u8) -> u8, Chw, Rows);
    let ops: [Op; 3] = [
        (
            "add",
            |x, y| ((x as u16 + y as u16) / 2) as u8,
            hostops::add_avg_into,
            hostops::add_avg_rows_into,
        ),
        (
            "mul",
            |x, y| (((x as u16 * y as u16) >> 4) as u8).min(ACT_MAX),
            |a, b, out| hostops::mul_shift4_into(a, b, ACT_MAX, out),
            |a, b, c, out| hostops::mul_shift4_rows_into(a, b, c, ACT_MAX, out),
        ),
        (
            "div",
            |x, y| x / (y as u16 + 1) as u8,
            hostops::div_lut_into,
            hostops::div_lut_rows_into,
        ),
    ];
    for (c, hw) in [
        (1, 1),
        (3, 49),
        (16, 12),
        (72, 5),
        (960, 49),
        (1, 30),
        (30, 1),
    ] {
        let x = pixels(c * hw, (c * hw) as u64);
        for len in [0, 1, c, hw + 1, c * hw, c * hw + 7] {
            // 255 is outside `div_lut_into`'s domain (`y + 1` wraps).
            let g: Vec<u8> = pixels(len, len as u64)
                .iter()
                .map(|&v| v.min(254))
                .collect();
            for (name, f, chw, rows) in ops {
                let want: Vec<u8> = (0..c * hw)
                    .map(|i| f(x[i], g.get(i).copied().unwrap_or(0)))
                    .collect();
                for tier in tiers() {
                    let _pin = pin_isa(tier);
                    let mut got = vec![0xAA; c * hw];
                    chw(&x, &g, &mut got);
                    assert_eq!(got, want, "{tier}: {name} chw {c}x{hw} len(g)={len}");
                    got.fill(0xAA);
                    rows(&to_rows(&x, c), &g, c, &mut got);
                    let want = to_rows(&want, c);
                    assert_eq!(got, want, "{tier}: {name} rows {c}x{hw} len(g)={len}");
                }
            }
        }
    }
}

/// Every distinct depthwise step of the catalog's four depthwise models.
const CATALOG: &[Shape] = &[
    // mobilenet-v3
    (16, 112, 112, (3, 3), (1, 1), (1, 1)),
    (64, 112, 112, (3, 3), (2, 2), (1, 1)),
    (72, 56, 56, (3, 3), (1, 1), (1, 1)),
    (72, 56, 56, (5, 5), (2, 2), (2, 2)),
    (120, 28, 28, (5, 5), (1, 1), (2, 2)),
    (184, 14, 14, (3, 3), (1, 1), (1, 1)),
    (200, 14, 14, (3, 3), (1, 1), (1, 1)),
    (240, 28, 28, (3, 3), (2, 2), (1, 1)),
    (480, 14, 14, (3, 3), (1, 1), (1, 1)),
    (672, 14, 14, (3, 3), (1, 1), (1, 1)),
    (672, 14, 14, (5, 5), (2, 2), (2, 2)),
    (960, 7, 7, (5, 5), (1, 1), (2, 2)),
    // efficientnet-b0 (shapes not already above)
    (32, 112, 112, (3, 3), (1, 1), (1, 1)),
    (96, 112, 112, (3, 3), (2, 2), (1, 1)),
    (144, 56, 56, (3, 3), (1, 1), (1, 1)),
    (144, 56, 56, (5, 5), (2, 2), (2, 2)),
    (240, 28, 28, (5, 5), (1, 1), (2, 2)),
    (480, 14, 14, (5, 5), (1, 1), (2, 2)),
    (672, 14, 14, (5, 5), (1, 1), (2, 2)),
    (1152, 7, 7, (3, 3), (1, 1), (1, 1)),
    (1152, 7, 7, (5, 5), (1, 1), (2, 2)),
    // efficientdet-d0
    (32, 256, 256, (3, 3), (1, 1), (1, 1)),
    (64, 4, 4, (3, 3), (1, 1), (1, 1)),
    (64, 8, 8, (3, 3), (1, 1), (1, 1)),
    (64, 16, 16, (3, 3), (1, 1), (1, 1)),
    (64, 32, 32, (3, 3), (1, 1), (1, 1)),
    (64, 64, 64, (3, 3), (1, 1), (1, 1)),
    (96, 256, 256, (3, 3), (2, 2), (1, 1)),
    (144, 128, 128, (3, 3), (1, 1), (1, 1)),
    (144, 128, 128, (5, 5), (2, 2), (2, 2)),
    (240, 64, 64, (3, 3), (2, 2), (1, 1)),
    (240, 64, 64, (5, 5), (1, 1), (2, 2)),
    (480, 32, 32, (3, 3), (1, 1), (1, 1)),
    (480, 32, 32, (5, 5), (1, 1), (2, 2)),
    (672, 32, 32, (5, 5), (1, 1), (2, 2)),
    (672, 32, 32, (5, 5), (2, 2), (2, 2)),
    (1152, 16, 16, (3, 3), (1, 1), (1, 1)),
    (1152, 16, 16, (5, 5), (1, 1), (2, 2)),
    // conformer
    (320, 1, 500, (1, 15), (1, 1), (0, 7)),
];

/// Every catalog depthwise step at the production activation range and
/// a full-range one.
#[test]
fn catalog_shapes_are_bit_identical() {
    for (i, shape) in CATALOG.iter().enumerate() {
        let (oh, ow) = out_dims(shape);
        let full = shape.0 * oh * ow;
        let weights = taps(shape.3 .0 * shape.3 .1, i as u64);
        let narrow: Vec<u8> = pixels(shape.0 * shape.1 * shape.2, i as u64)
            .iter()
            .map(|&v| v % 16)
            .collect();
        assert_identity(shape, &narrow, &weights, 3, 15, full);
        let wide = pixels(shape.0 * shape.1 * shape.2, !(i as u64));
        // Mid-channel cut, two thirds in.
        assert_identity(shape, &wide, &weights, 9, 255, full - full / 3 - 1);
    }
}

/// Throughput probe (run explicitly with `--ignored --release
/// --nocapture`): µs per call of the CHW and of the pixel-major
/// depthwise kernel on every catalog geometry, best of 30, on every
/// tier the host supports. Not a correctness gate; DESIGN.md §4e quotes
/// its table.
#[test]
#[ignore]
fn perf_probe() {
    for tier in tiers() {
        let _pin = pin_isa(tier);
        println!("{tier}:");
        perf_probe_table();
    }
}

fn perf_probe_table() {
    let (mut chw_sum, mut rows_sum) = (0.0, 0.0);
    for shape in CATALOG {
        let &(c, h, w, k, s, p) = shape;
        let (oh, ow) = out_dims(shape);
        let input: Vec<u8> = pixels(c * h * w, 1).iter().map(|&v| v % 16).collect();
        let weights = taps(k.0 * k.1, 1);
        let mut out = vec![0u8; c * oh * ow];
        let best = |run: &mut dyn FnMut()| {
            (0..30).fold(f64::MAX, |best, _| {
                let t0 = std::time::Instant::now();
                run();
                best.min(t0.elapsed().as_secs_f64() * 1e6)
            })
        };
        let chw =
            best(&mut || dwconv_direct_into(&input, c, h, w, k, s, p, &weights, 3, 15, &mut out));
        let rows =
            best(&mut || dwconv_rows_into(&input, c, h, w, k, s, p, &weights, 3, 15, &mut out));
        let macs = (c * oh * ow * k.0 * k.1) as f64;
        println!(
            "{c:>5}x{h:<3}x{w:<3} {}x{} s{}  chw {chw:>8.1} µs {:>5.1} GMAC/s  rows {rows:>8.1} µs {:>5.1} GMAC/s  {:>4.1}x",
            k.0,
            k.1,
            s.0,
            macs / chw / 1e3,
            macs / rows / 1e3,
            chw / rows
        );
        chw_sum += chw;
        rows_sum += rows;
    }
    println!("sum: chw {chw_sum:.0} µs, rows {rows_sum:.0} µs");
}
