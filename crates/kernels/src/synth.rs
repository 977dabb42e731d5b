//! Seeded synthetic weights, a row at a time.
//!
//! The reproduction's models carry seeded weights, not trained ones:
//! weight `index` of node `node` under `seed` is a fixed 64-bit mix of
//! the three, reduced to `-2..=2`. `gcd2::runtime::weight` computes one
//! element, the direct way, and is the oracle the interpreter calls. A
//! plan build needs every weight of every GEMM (25.5 M for resnet-50),
//! and each row of a `k × n` weight matrix is a run of `n` consecutive
//! indices. [`weight_row_into`] writes one such run, byte for byte the
//! oracle's, at vector speed. Two rewrites make the loop vectorise, and
//! both are exact:
//!
//! - **The index multiply is a running sum.** The mix starts from
//!   `seed ^ node·C₁ ^ index·C₂`, and `(start + j)·C₂` (wrapping) is
//!   lane `j % LANES`'s term, advanced by `LANES·C₂` per round. The
//!   lanes are independent, so the one multiply left per weight
//!   pipelines.
//! - **The modulus is folded to 32 bits.** `2¹⁶ ≡ 1 (mod 5)` (16 ≡ 1),
//!   so `2³² ≡ 1` too. With `x = hi·2³² + lo`, `x ≡ hi + lo`, and
//!   `y = hi + lo < 2³³`. With `y = (y >> 16)·2¹⁶ + lo16(y)`,
//!   `y ≡ (y >> 16) + lo16(y) = z`, and `z < 2¹⁷ + 2¹⁶ < 2¹⁸` fits a
//!   `u32`. A `u32 % 5` is a multiply-high by a constant, which
//!   vectorises; a `u64 % 5` does not on x86-64. Folding `y` to
//!   `lo32(y) + (y >> 32)` instead is not enough: it can reach `2³²`.
//!
//! **One body, compiled twice.** `row` is `#[inline(always)]`: plain
//! for the scalar, AVX2 and NEON tiers, and with AVX-512F enabled when
//! an AVX-512 tier is active on this thread — the tier rule of every
//! other kernel, so a [`crate::pin_isa`] selects the form. Both compile the same source, so they write the
//! same bytes.

/// The mix's multiplier of the node id.
const NODE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// The mix's multiplier of the element index.
const INDEX_MUL: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// The finaliser's multiplier.
const MIX_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;
/// Independent running sums. Four ran faster than eight in both forms
/// (DESIGN.md §6g).
const LANES: usize = 4;

/// Writes `out[j] = weight(seed, node, start + j)` for every `j`: the
/// weights of indices `start..start + out.len()` of `node`, each in
/// `-2..=2`, with indices and sums wrapping as the oracle's do.
pub fn weight_row_into(seed: u64, node: u64, start: u64, out: &mut [i8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::avx512_tier_active() {
        // SAFETY: an AVX-512 tier is active only where its `supported()`
        // check passed, and both of those checks require AVX-512F.
        unsafe { row_avx512f(seed, node, start, out) };
        return;
    }
    row(seed, node, start, out);
}

/// [`row`] compiled with AVX-512F: 512-bit lanes for the 64-bit mix.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn row_avx512f(seed: u64, node: u64, start: u64, out: &mut [i8]) {
    row(seed, node, start, out);
}

/// The row loop of [`weight_row_into`]; see the module docs.
#[inline(always)]
fn row(seed: u64, node: u64, start: u64, out: &mut [i8]) {
    let key = seed ^ node.wrapping_mul(NODE_MUL);
    let mut terms: [u64; LANES] =
        std::array::from_fn(|l| start.wrapping_add(l as u64).wrapping_mul(INDEX_MUL));
    let stride = INDEX_MUL.wrapping_mul(LANES as u64);
    let mut rounds = out.chunks_exact_mut(LANES);
    for round in &mut rounds {
        for (w, t) in round.iter_mut().zip(&mut terms) {
            *w = finish(key ^ *t);
            *t = t.wrapping_add(stride);
        }
    }
    for (w, t) in rounds.into_remainder().iter_mut().zip(&terms) {
        *w = finish(key ^ *t);
    }
}

/// The mix's finaliser and the reduction to `-2..=2`, with the modulus
/// folded to 32 bits (module docs).
#[inline(always)]
fn finish(mut x: u64) -> i8 {
    x ^= x >> 33;
    x = x.wrapping_mul(MIX_MUL);
    x ^= x >> 29;
    let y = (x & 0xFFFF_FFFF) + (x >> 32);
    let z = ((y & 0xFFFF) + (y >> 16)) as u32;
    (z % 5) as i8 - 2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One weight the direct way, as the plan build computed it before
    /// the row generator: three 64-bit multiplies and a 64-bit `% 5`.
    fn element(seed: u64, node: u64, index: u64) -> i8 {
        let mut x = seed ^ node.wrapping_mul(NODE_MUL) ^ index.wrapping_mul(INDEX_MUL);
        x ^= x >> 33;
        x = x.wrapping_mul(MIX_MUL);
        x ^= x >> 29;
        (x % 5) as i8 - 2
    }

    /// Nanoseconds per weight of each form over resnet-50's GEMM weight
    /// matrices (one `k × n` matrix per distinct dispatched shape, rows
    /// in order): the plain form, the AVX-512F form where the host runs
    /// it, and the shape the plan build had before — a row-start table
    /// and `MatrixI8::from_fn` over the per-element mix. Best of 5; the
    /// three must write the same bytes. DESIGN.md §6g cites the output:
    /// `cargo test -p gcd2-kernels --release --lib -- --ignored weight_synthesis_ns_per_weight --nocapture`
    #[test]
    #[ignore = "perf evidence; run manually in release mode"]
    fn weight_synthesis_ns_per_weight() {
        use crate::tiled::tests::catalog_shapes;
        use gcd2_models::ModelId;
        use gcd2_tensor::MatrixI8;
        use std::time::{Duration, Instant};

        let shapes: Vec<(usize, usize)> = catalog_shapes(ModelId::ResNet50)
            .into_keys()
            .map(|(_, k, n)| (k, n))
            .collect();
        let total: usize = shapes.iter().map(|(k, n)| k * n).sum();
        let seed = 0xC0DE;
        let best_of = |f: &mut dyn FnMut(u64, usize, usize) -> MatrixI8| {
            let mut best = Duration::MAX;
            let mut out = Vec::new();
            for _ in 0..5 {
                let t0 = Instant::now();
                out = shapes
                    .iter()
                    .enumerate()
                    .map(|(node, &(k, n))| f(node as u64, k, n))
                    .collect();
                best = best.min(t0.elapsed());
            }
            (best.as_secs_f64() * 1e9 / total as f64, out)
        };
        let by_rows = |form: fn(u64, u64, u64, &mut [i8])| {
            move |node: u64, k: usize, n: usize| {
                let mut data = vec![0i8; k * n];
                for (kr, run) in data.chunks_exact_mut(n).enumerate() {
                    form(seed, node, (kr * n) as u64, run);
                }
                MatrixI8::from_vec(k, n, data)
            }
        };
        println!("resnet-50: {} shapes, {total} weights", shapes.len());
        let (ns, oracle) = best_of(&mut |node, k, n| {
            let rows: Vec<usize> = (0..k).map(|kr| kr * n).collect();
            MatrixI8::from_fn(k, n, |kr, j| element(seed, node, (rows[kr] + j) as u64))
        });
        println!("  per-element from_fn : {ns:.3} ns/weight");
        let (ns, plain) = best_of(&mut by_rows(row));
        println!("  row, plain          : {ns:.3} ns/weight");
        assert_eq!(plain, oracle, "plain form");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F was detected on this CPU just above.
            let (ns, vector) = best_of(&mut by_rows(|s, nd, st, out| unsafe {
                row_avx512f(s, nd, st, out)
            }));
            println!("  row, avx512f        : {ns:.3} ns/weight");
            assert_eq!(vector, oracle, "avx512f form");
        }
    }

    /// `len` zero bytes written the way a panel's padding is, not handed
    /// out by the allocator as fresh zero pages.
    #[allow(clippy::slow_vector_initialization)]
    fn written_zeros(len: usize) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(len);
        bytes.resize(len, 0);
        bytes
    }

    /// Nanoseconds per weight of installing resnet-50's GEMM weight
    /// matrices (one `k × n` matrix per distinct dispatched shape) into
    /// the panels the active tier's kernels read, the way a plan build
    /// and an artifact load did before panels were the only copy and the
    /// way they do now:
    /// - build: synthesise the whole matrix, then pack it; synthesise a
    ///   64-row k-tile into one reused buffer and pack it while it is hot;
    /// - load, from one buffer holding every matrix as the artifact's
    ///   WEIGHTS section does: copy the matrix out, then pack it; copy a
    ///   k-tile out and pack it;
    /// - the floor of a load: a zeroed panel-sized buffer and one
    ///   `memcpy` of the section into it — the bytes a load must write,
    ///   with no shuffle.
    ///
    /// Best of 5 rounds in one process, so the pages a round frees are
    /// handed to the next: first touch — which a fresh process pays for
    /// every byte it writes, the old shapes for two copies — is mostly
    /// not in these numbers (the cold ledgers of DESIGN.md §6g have it).
    /// Every form must hold the same panels. DESIGN.md §6g cites the
    /// output:
    /// `cargo test -p gcd2-kernels --release --lib -- --ignored weight_install_ns_per_weight --nocapture`
    #[test]
    #[ignore = "perf evidence; run manually in release mode"]
    fn weight_install_ns_per_weight() {
        use crate::dispatch::{WeightPanel, KTILE_ROWS};
        use crate::tiled::tests::catalog_shapes;
        use gcd2_models::ModelId;
        use gcd2_tensor::MatrixI8;
        use std::hint::black_box;
        use std::time::{Duration, Instant};

        let shapes: Vec<(usize, usize)> = catalog_shapes(ModelId::ResNet50)
            .into_keys()
            .map(|(_, k, n)| (k, n))
            .collect();
        let total: usize = shapes.iter().map(|(k, n)| k * n).sum();
        let seed = 0xC0DE;
        let fill_tile = |node: u64, n: usize, kr0: usize, tile: &mut [i8]| {
            for (kr, run) in (kr0..).zip(tile.chunks_exact_mut(n)) {
                weight_row_into(seed, node, (kr * n) as u64, run);
            }
        };
        // Every matrix back to back, as bytes: what a load borrows.
        let section: Vec<u8> = shapes
            .iter()
            .enumerate()
            .flat_map(|(node, &(k, n))| {
                let mut w = vec![0i8; k * n];
                fill_tile(node as u64, n, 0, &mut w);
                w.into_iter().map(|v| v as u8)
            })
            .collect();
        let best_of = |f: &mut dyn FnMut() -> Vec<WeightPanel>| {
            let mut best = Duration::MAX;
            let mut out = Vec::new();
            for _ in 0..5 {
                drop(out);
                let t0 = Instant::now();
                out = black_box(f());
                best = best.min(t0.elapsed());
            }
            (best.as_secs_f64() * 1e9 / total as f64, out)
        };
        // Installs each matrix a k-tile at a time from `source`.
        // Fills the k-tile from row `kr0` of matrix `node` of `n` columns.
        type Source<'s> = &'s mut dyn FnMut(usize, usize, usize, &mut [i8]);
        let tiled = |source: Source<'_>| {
            let mut tile = Vec::new();
            shapes
                .iter()
                .enumerate()
                .map(|(node, &(k, n))| {
                    let mut panel = WeightPanel::for_gemm(k, n);
                    for kr0 in (0..k).step_by(KTILE_ROWS) {
                        tile.resize(KTILE_ROWS.min(k - kr0) * n, 0);
                        source(node, n, kr0, &mut tile);
                        panel.push_ktile(&tile);
                    }
                    panel
                })
                .collect::<Vec<_>>()
        };
        let starts: Vec<usize> = shapes
            .iter()
            .scan(0, |at, &(k, n)| {
                *at += k * n;
                Some(*at - k * n)
            })
            .collect();
        println!(
            "resnet-50: {} shapes, {total} weights, {} tier",
            shapes.len(),
            crate::active_isa()
        );
        let (ns, oracle) = best_of(&mut || {
            let mut packed = Vec::new();
            for (node, &(k, n)) in shapes.iter().enumerate() {
                let mut w = vec![0i8; k * n];
                fill_tile(node as u64, n, 0, &mut w);
                packed.push(WeightPanel::pack(&MatrixI8::from_vec(k, n, w)));
            }
            packed
        });
        println!("  build: synthesise the matrix, then pack : {ns:.3} ns/weight");
        let (ns, panels) =
            best_of(&mut || tiled(&mut |node, n, kr0, tile| fill_tile(node as u64, n, kr0, tile)));
        println!("  build: synthesise a k-tile, pack it     : {ns:.3} ns/weight");
        assert!(panels == oracle, "tile-at-a-time build");
        let (ns, panels) = best_of(&mut || {
            let mut packed = Vec::new();
            for (&(k, n), &at) in shapes.iter().zip(&starts) {
                let w = section[at..][..k * n].iter().map(|&b| b as i8).collect();
                packed.push(WeightPanel::pack(&MatrixI8::from_vec(k, n, w)));
            }
            packed
        });
        println!("  load: copy the matrix, then pack        : {ns:.3} ns/weight");
        assert!(panels == oracle, "copy-then-pack load");
        let (ns, panels) = best_of(&mut || {
            tiled(&mut |node, n, kr0, tile| {
                let raw = &section[starts[node] + kr0 * n..][..tile.len()];
                for (w, &b) in tile.iter_mut().zip(raw) {
                    *w = b as i8;
                }
            })
        });
        println!("  load: copy a k-tile, pack it            : {ns:.3} ns/weight");
        assert!(panels == oracle, "tile-at-a-time load");
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let t0 = Instant::now();
            let floor: Vec<Vec<u8>> = shapes
                .iter()
                .zip(&starts)
                .zip(&oracle)
                .map(|((&(k, n), &at), panel)| {
                    let mut bytes = written_zeros(panel.bytes());
                    bytes[..k * n].copy_from_slice(&section[at..][..k * n]);
                    bytes
                })
                .collect();
            best = best.min(t0.elapsed());
            black_box(floor);
        }
        let ns = best.as_secs_f64() * 1e9 / total as f64;
        println!("  load floor: zeroed panel + memcpy       : {ns:.3} ns/weight");
        // Reading the weights back, as the integrity check, the artifact
        // and the analyzer do: every k-tile of every panel, against a
        // pass over the row-major bytes.
        let mut best = Duration::MAX;
        let mut tile = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            let mut sum = 0u64;
            for panel in &oracle {
                panel.for_each_ktile(&mut tile, |rows| {
                    sum = sum.wrapping_add(black_box(rows).len() as u64);
                });
            }
            black_box(sum);
            best = best.min(t0.elapsed());
        }
        let ns = best.as_secs_f64() * 1e9 / total as f64;
        println!("  read back a k-tile at a time            : {ns:.3} ns/weight");
    }
}
