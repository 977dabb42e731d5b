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
//! other kernel, so [`crate::force_isa`] and [`crate::pin_scalar`]
//! select the form. Both compile the same source, so they write the
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
}
