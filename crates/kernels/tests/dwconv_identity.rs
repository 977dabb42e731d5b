//! Bit-identity gate for the depthwise kernel.
//!
//! Contract: for every geometry, requant shift, activation bound and
//! `out_len` cut, all of
//!
//! * the per-pixel oracle (`dwconv_ref`, the loop the kernel replaced),
//! * the portable row-accumulator form (under a thread-scoped
//!   `pin_scalar`),
//! * the form each `KernelIsa` the host supports selects (through
//!   `force_isa`), and the one auto-detection selects
//!
//! produce **identical bytes**. Under `GCD2_FORCE_SCALAR=1` (CI runs the
//! suite both ways) the auto-detected side is the portable form again and
//! the gate still has to hold.

use gcd2_kernels::{dwconv_direct_into, dwconv_ref, force_isa, pin_scalar, KernelIsa};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

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

/// Oracle == portable == the form of every tier, for one call.
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
    // Stale bytes in the destination must not survive.
    let mut got = vec![0xAA; out_len];
    {
        let _pin = pin_scalar();
        dwconv_direct_into(input, c, h, w, k, s, p, weights, shift, act_max, &mut got);
    }
    assert_eq!(
        got, want,
        "portable vs oracle {shape:?} shift={shift} len={out_len}"
    );
    let _guard = force_guard();
    for tier in tiers() {
        force_isa(tier);
        got.fill(0xAA);
        dwconv_direct_into(input, c, h, w, k, s, p, weights, shift, act_max, &mut got);
        force_isa(None);
        assert_eq!(
            got, want,
            "{tier:?} vs oracle {shape:?} shift={shift} len={out_len}"
        );
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
        (shift, wide_act, cut) in (0u8..=15, any::<bool>(), 0usize..=5),
        seed in any::<u64>(),
    ) {
        // The convolution must fit: grow the map to the kernel if not.
        let h = h.max(k.0.saturating_sub(2 * p.0));
        let w = w.max(k.1.saturating_sub(2 * p.1));
        let shape = (c, h, w, k, s, p);
        let input = pixels(shape.0 * shape.1 * shape.2, seed);
        let weights = taps(k.0 * k.1, seed);
        let (oh, ow) = out_dims(&shape);
        let out_len = match cuts(&shape).get(cut) {
            Some(&len) => len,
            None => seed as usize % (c * oh * ow + 1),
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

/// Every distinct depthwise step of the catalog's four depthwise models,
/// at the production activation range and a full-range one.
#[test]
fn catalog_shapes_are_bit_identical() {
    let shapes: &[Shape] = &[
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
    for (i, shape) in shapes.iter().enumerate() {
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
