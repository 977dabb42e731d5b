//! Bit-identity gate for the GEMM kernel stack.
//!
//! Contract: for every operand shape, every requant shift, and every
//! activation zero-density, all of
//!
//! * the naive gold reference (`matmul_ref`),
//! * the scalar blocked oracle (`pin_isa(Scalar)`),
//! * the kernel of **every tier this host supports**, through the
//!   resident-panel entry point from the panel packed on that tier and
//!   through the pooled matrix-taking entry point
//!
//! produce **identical bytes**. Wrapping i32 accumulation makes this a
//! theorem about the implementation, and this suite is the check that
//! keeps it true as kernels evolve. A panel packed on a tier whose
//! kernel reads another form is refused, with nothing written.

use gcd2_kernels::{
    matmul_ref, pin_isa, tile_plan, transpose_clamp_into, transpose_clamp_ref,
    try_matmul_panel_into, try_matmul_threaded_into, ByteMap, GemmA, GemmDispatchError,
    GemmScratch, KernelIsa, ScratchPool, TilePlan, WeightPanel,
};
use gcd2_tensor::{Layout, MatrixI8, MatrixU8};
use proptest::prelude::*;

fn reference_bytes(a: &MatrixU8, w: &MatrixI8, shift: u8) -> Vec<u8> {
    matmul_ref(a, w, shift).into_iter().flatten().collect()
}

/// Every tier this host can run, the scalar oracle first.
fn tiers() -> Vec<KernelIsa> {
    KernelIsa::ALL
        .into_iter()
        .filter(|isa| isa.supported())
        .collect()
}

/// `w` packed on each tier this host can run, in [`tiers`] order.
fn panels(w: &MatrixI8) -> Vec<WeightPanel> {
    tiers()
        .into_iter()
        .map(|tier| {
            let _pin = pin_isa(tier);
            WeightPanel::pack(w)
        })
        .collect()
}

/// One full identity check: reference == every supported tier, the
/// scalar oracle first, from its own resident panel — clamped to 255
/// and to 15 — and through pooled scratch; on each tier, a panel packed
/// in another form is refused and leaves `out` as it was.
fn assert_identity(a: &MatrixU8, w: &MatrixI8, shift: u8) {
    let (m, k, n) = (a.rows(), a.cols(), w.cols());
    let want = reference_bytes(a, w, shift);
    // The plan's entry point folds its activation ceiling into
    // requantisation: the bytes are the oracle's, clamped.
    let clamped: Vec<u8> = want.iter().map(|&v| v.min(15)).collect();
    let pool = ScratchPool::new();
    let mut scratch = GemmScratch::default();
    let panels = panels(w);
    for (tier, own) in tiers().into_iter().zip(&panels) {
        let _pin = pin_isa(tier);
        let mut out = Vec::new();
        try_matmul_threaded_into(a.as_bytes(), m, k, w, shift, &pool, 2, &mut out)
            .expect("valid operands");
        assert_eq!(out, want, "{tier} pooled ({m},{k},{n})");
        for (p, panel) in panels.iter().enumerate() {
            for (clamp, want) in [(255, &want), (15, &clamped)] {
                let mut out = vec![0xA5; m * n];
                let done = try_matmul_panel_into(
                    GemmA::Matrix(a.as_bytes()),
                    m,
                    k,
                    panel,
                    (shift, clamp, ByteMap::IDENTITY),
                    &mut scratch,
                    &mut out,
                );
                // A panel is its own tier's form, or another tier's
                // that reads the same one (VNNI and AMX quads; the AVX2
                // tier's row-major bytes below 8 columns).
                if panel == own {
                    assert_eq!(done, Ok(()), "{tier}, panel {p} ({m},{k},{n})");
                    assert_eq!(&out, want, "{tier} clamped to {clamp} ({m},{k},{n})");
                } else {
                    assert!(
                        matches!(done, Err(GemmDispatchError::PanelForm { tier: t, .. }) if t == tier),
                        "{tier}, panel {p} ({m},{k},{n}): {done:?}"
                    );
                    assert_eq!(out, vec![0xA5; m * n], "{tier}: a refused panel writes");
                }
            }
        }
    }
    // Every tier's pooled call above took the one buffer and gave it back.
    assert_eq!(pool.pooled(), 1, "the scratch returns to the pool");
}

fn activations(m: usize, k: usize, zero_pct: u8, seed: u64) -> MatrixU8 {
    MatrixU8::from_fn(m, k, Layout::RowMajor, |r, c| {
        let mut h = (r as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((c as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(seed);
        h ^= h >> 31;
        if (h % 100) < zero_pct as u64 {
            0
        } else {
            ((h >> 8) % 256) as u8
        }
    })
}

fn weights(k: usize, n: usize, seed: u64) -> MatrixI8 {
    MatrixI8::from_fn(k, n, |r, c| {
        let mut h = (r as u64)
            .wrapping_mul(0xD605_1F2D_21A9_5A8D)
            .wrapping_add((c as u64).wrapping_mul(0x94D0_49BB_1331_11EB))
            .wrapping_add(seed);
        h ^= h >> 29;
        ((h % 17) as i8) - 8
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random shapes, shifts, and zero densities: the full-stack
    /// identity over arbitrary (including remainder-heavy) tiles.
    #[test]
    fn simd_equals_scalar_equals_reference(
        m in 1usize..=80,
        k in 1usize..=160,
        n in 1usize..=48,
        shift in 0u8..=7,
        zero_pct in 0u8..=100,
        seed in any::<u64>(),
    ) {
        let a = activations(m, k, zero_pct, seed);
        let w = weights(k, n, seed ^ 0xABCD);
        assert_identity(&a, &w, shift);
    }
}

/// Shapes pinned to the register-tile and block boundaries: K-remainder
/// (odd k exercises the half-pair path), M-remainder (rows % 4), and
/// N-remainder (cols % 16 / % 8) edge tiles, plus exact-fit controls.
/// Then the AMX tile grid's boundaries, as a cross product: one row
/// short of, on and past a 16- and a 32-row group, and three row blocks
/// of 32 rows with and without a remainder row (96, 97); one byte short
/// of, on and past a 64-deep k-tile, and reduction tails of 19 and 56
/// bytes; reductions shorter than one tile, run at their own depth, a
/// whole number of quads (4, 16, 24, 40) or not (26, 27); column counts
/// that leave the last 16-column strip 8 or 10 columns live, alone or
/// behind whole strips and strip pairs. `a` is exactly `m · k` bytes and
/// the suite runs with debug assertions, so a tail tile load whose
/// window leaves `a` (or the staged tail, or the panel) fails the
/// kernel's `debug_assert`s instead of passing unnoticed: the tails of
/// a row block are read in place up to the last row whose windows end
/// inside `a` (every row block of 97 rows, the first of 96) and staged
/// past it (the last block of 16, 32, 48 or 96 rows whose tail or short
/// depth runs past the end of `a`). [`the_rules_blocks_match_the_reference`]
/// covers the blocks the rule picks on larger shapes.
#[test]
fn edge_tiles_are_bit_identical() {
    let cases = [
        (1, 1, 1),
        (1, 2, 16),   // single row, exact pair, exact strip
        (2, 3, 8),    // odd k: half-pair tail
        (3, 255, 17), // m % 4 == 3, odd k, n % 16 == 1
        (4, 256, 16), // exact everything
        (5, 257, 24), // m % 4 == 1, k % 256 == 1, n % 16 == 8
        (7, 31, 9),   // n % 8 == 1 scalar column tail
        (8, 512, 31),
        (33, 64, 15), // m % 32 == 1 block remainder
        (65, 129, 33),
        (130, 1024, 7), // k spans multiple default KB segments
        // The VNNI strips' lane-masked column tail, after every
        // full-strip width, over a ragged final quad (k % 4 != 0).
        (9, 67, 47),   // 32 + 15 columns, k % 4 == 3
        (6, 130, 120), // 64 + 32 + 16 + 8 columns, k % 4 == 2
        (37, 70, 65),  // 64 + 1 columns, rows % 4 == 1
        (21, 201, 79), // 64 + 15 columns, k % 4 == 1
        // The AMX epilogue's one-strip blocks: a lone strip, whole or
        // ragged, and the odd last strip behind strip pairs.
        (64, 64, 16),
        (48, 27, 12),
        (80, 130, 48),
        (33, 192, 80),
    ];
    let tile_grid = [15, 16, 17, 31, 33, 49, 96, 97].into_iter().flat_map(|m| {
        [4, 16, 24, 26, 27, 40, 63, 64, 65, 127, 147, 312]
            .into_iter()
            .flat_map(move |k| [8, 24, 26, 40, 312, 1000].map(|n| (m, k, n)))
    });
    for (m, k, n) in cases.into_iter().chain(tile_grid) {
        for shift in [0u8, 4] {
            let a = activations(m, k, 35, (m * 1000 + k) as u64);
            let w = weights(k, n, n as u64);
            assert_identity(&a, &w, shift);
        }
    }
}

/// All-zero activations exercise the zero-skip path end to end; the
/// requant of an untouched accumulator must still be well-defined.
#[test]
fn all_zero_activations_match() {
    let a = activations(20, 40, 100, 1);
    let w = weights(40, 20, 2);
    assert_identity(&a, &w, 3);
}

/// The blockings [`tile_plan`] derives are what runs: shapes on which
/// the AMX rule picks one row block over the whole band (with a ragged
/// `rows % 16` remainder), a block between the default and the band,
/// and the default beyond the panel budget — each with ragged tile and
/// column edges, at every tier the host supports (the strip tiers run
/// them at their own pick), through every entry point and from a
/// resident panel.
#[test]
fn the_rules_blocks_match_the_reference() {
    let mb = |m, k, n| tile_plan(m, k, n, KernelIsa::AmxInt8).mb;
    assert_eq!(mb(49, 1027, 136), 49, "whole band");
    assert_eq!(mb(771, 1027, 136), 96, "a mid block");
    assert_eq!(mb(196, 2307, 264), TilePlan::DEFAULT.mb, "the floor");
    for (m, k, n) in [(49, 1027, 136), (771, 1027, 136), (196, 2307, 264)] {
        let a = activations(m, k, 30, 7);
        let w = weights(k, n, 8);
        assert_identity(&a, &w, 2);
    }
}

/// The maps a plan folds into its GEMMs: the identity, all zeros, a
/// seeded random table, and tinybert's bias add then Gelu (`avg(v, 0)`,
/// then `u/2 + u/4`).
fn epilogue_maps() -> [ByteMap; 4] {
    let random = std::array::from_fn(|v| {
        let h = (v as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h ^ (h >> 29)) % 16) as u8
    });
    let halve_gelu = std::array::from_fn(|v| {
        let half = v as u8 / 2;
        half / 2 + half / 4
    });
    let map = |entries| ByteMap::new(entries).expect("entries ≤ 15");
    [
        ByteMap::IDENTITY,
        map([0; 16]),
        map(random),
        map(halve_gelu),
    ]
}

/// An epilogue map runs after the clamp at every requantisation site:
/// the AMX tile grid's block store (16, 17, 33, 49 rows), its `rows %
/// 16` remainder on the VNNI strips (17, 33, 49), the VNNI bands of
/// fewer than 16 rows and their narrow kernel below 16 columns (8), the
/// AVX2 pair kernel and its oracle tail below 8 columns (7), and the
/// shared portable form on the scalar tier — over ragged last strips
/// (`n % 16 ≠ 0`) and reduction tails (`k < 64`, `k % 64 ≠ 0`; the AMX
/// grid runs `k = 24` at its own 24-byte tile depth). Each run
/// is held to the reference requantisation clamped to 15 and then looked
/// up in the map, at every tier the host supports (the scalar pin
/// included) from the panel packed on that tier; together the shapes
/// put every one of the 16 clamped values through every map.
///
/// Two mutants of the kernels were run against this test; the first
/// failure of each, on an AMX host:
/// * the map applied before the clamp (`min(map[max(v, 0)], clamp)` at
///   every site): the seeded random map of
///   `m = 1`, `k = 19`, `n = 8` on the VNNI tier — the narrow VNNI
///   kernel, where an unclamped value indexes the table;
/// * the AMX `rows % 16` remainder requantised with the identity: the
///   all-zero map of `m = 17`, `k = 19`, `n = 7` on the AMX tier — the
///   17th row keeps its clamped bytes.
#[test]
fn epilogue_maps_follow_the_clamp_at_every_tier() {
    let mut seen = [false; 16];
    let mut scratch = GemmScratch::default();
    let mut out = Vec::new();
    for m in [1, 15, 16, 17, 33, 49] {
        for (k, shift) in [(19, 7u8), (24, 7), (147, 9)] {
            for n in [7, 8, 26, 40, 312] {
                let a = activations(m, k, 20, (m * 131 + k * 7 + n) as u64);
                let w = weights(k, n, (k * n) as u64);
                let clamped: Vec<u8> = reference_bytes(&a, &w, shift)
                    .into_iter()
                    .map(|v| v.min(15))
                    .collect();
                for &v in &clamped {
                    seen[v as usize] = true;
                }
                for (tier, panel) in tiers().into_iter().zip(panels(&w)) {
                    let _pin = pin_isa(tier);
                    for map in epilogue_maps() {
                        let table = map.entries();
                        let want: Vec<u8> = clamped.iter().map(|&v| table[v as usize]).collect();
                        out.clear();
                        out.resize(m * n, 0xA5);
                        try_matmul_panel_into(
                            GemmA::Matrix(a.as_bytes()),
                            m,
                            k,
                            &panel,
                            (shift, 15, map),
                            &mut scratch,
                            &mut out,
                        )
                        .expect("valid operands");
                        assert_eq!(out, want, "{tier}, {map:?}, ({m},{k},{n})");
                    }
                }
            }
        }
    }
    assert_eq!(
        seen, [true; 16],
        "every clamped value went through the maps"
    );
    // A map is defined on the activation range only.
    let (a, w) = (activations(2, 3, 0, 1), weights(3, 2, 2));
    let panel = WeightPanel::pack(&w);
    let mut out = vec![0; 4];
    let requant = |clamp, map| (0, clamp, map);
    assert_eq!(
        try_matmul_panel_into(
            GemmA::Matrix(a.as_bytes()),
            2,
            3,
            &panel,
            requant(16, epilogue_maps()[2]),
            &mut scratch,
            &mut out
        ),
        Err(GemmDispatchError::MapClamp { clamp: 16 })
    );
    try_matmul_panel_into(
        GemmA::Matrix(a.as_bytes()),
        2,
        3,
        &panel,
        requant(255, ByteMap::IDENTITY),
        &mut scratch,
        &mut out,
    )
    .expect("the identity under any clamp");
    assert_eq!(ByteMap::new([16; 16]), None, "an entry past 15");
}

/// The tile transpose — both sides of a CHW conv GEMM, and the plan's
/// layout adapter in both directions — equals the naive oracle at every
/// tier the host supports — the scalar pin selects the portable form —
/// for every small shape (tile edges, overlap
/// tiles, extents below one tile) and the catalog's scatter and adapter
/// shapes both ways round, both clamps, and a destination stride with a
/// gap whose bytes must survive.
#[test]
fn transpose_equals_the_naive_oracle() {
    let small = (1..=40usize).flat_map(|rows| (1..=40usize).map(move |cols| (rows, cols)));
    let catalog = [
        (12544, 16),
        (3136, 24),
        (784, 120),
        (196, 672),
        (49, 960),
        (49, 2048),
    ];
    let catalog = catalog.into_iter().flat_map(|(r, c)| [(r, c), (c, r)]);
    for (rows, cols) in small.chain(catalog) {
        let src: Vec<u8> = (0..rows * cols)
            .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
            .collect();
        for clamp in [15u8, 255] {
            for dst_stride in [rows, rows + 7] {
                // 0xA5 marks bytes no form may touch.
                let mut want = vec![0xA5u8; cols * dst_stride];
                transpose_clamp_ref(&src, rows, cols, clamp, &mut want, dst_stride);
                let mut got = vec![0xA5u8; want.len()];
                for tier in tiers() {
                    let _pin = pin_isa(tier);
                    got.fill(0xA5);
                    transpose_clamp_into(&src, rows, cols, clamp, &mut got, dst_stride);
                    assert_eq!(
                        got, want,
                        "{tier}, {rows}x{cols} clamp {clamp} stride {dst_stride}"
                    );
                }
            }
        }
    }
}

/// Throughput probe (run explicitly with `--ignored --release`): prints
/// scalar vs auto GMAC/s on an fst-sized GEMM, multiplied from a
/// resident panel as a plan runs it, so kernel regressions are easy to
/// spot by hand. Not a correctness gate.
#[test]
#[ignore]
fn perf_probe() {
    let (m, k, n) = (2048, 1152, 128);
    let a = activations(m, k, 40, 42);
    let w = weights(k, n, 43);
    let macs = (m * k * n) as f64;
    for isa in [Some(KernelIsa::Scalar), None] {
        let _pin = isa.map(pin_isa);
        let panel = WeightPanel::pack(&w);
        let mut scratch = GemmScratch::default();
        let mut out = vec![0; m * n];
        let mut run = || {
            try_matmul_panel_into(
                GemmA::Matrix(a.as_bytes()),
                m,
                k,
                &panel,
                (5, u8::MAX, ByteMap::IDENTITY),
                &mut scratch,
                &mut out,
            )
            .expect("valid operands")
        };
        run(); // warm
        let reps = 3;
        let start = std::time::Instant::now();
        for _ in 0..reps {
            run();
        }
        let secs = start.elapsed().as_secs_f64() / reps as f64;
        println!(
            "isa={:<6} {:>8.2} ms  {:>6.2} GMAC/s",
            gcd2_kernels::active_isa().name(),
            secs * 1e3,
            macs / secs / 1e9
        );
    }
}
