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
//! **The plain body and the AVX-512 kernel.** `row` is the scalar and
//! AVX2 tiers' form, written for the autovectoriser. When an AVX-512
//! tier is active on this thread — the tier rule of every other kernel,
//! so a [`crate::pin_isa`] selects the form — `avx512::row` writes 32
//! weights per pass in intrinsics, exact by the same running sum and a
//! third identity for the modulus:
//!
//! - **The modulus is a byte sum.** `256 ≡ 1 (mod 5)`, so a `u64` is
//!   congruent to the sum of its eight bytes, which is at most
//!   `8·255 = 2040`. `vpsadbw` against zero gives that sum in each
//!   64-bit lane, in one instruction.
//! - **A 16-bit multiply-high divides it by 5.** `13108 = (2¹⁶ + 4)/5`,
//!   so `s·13108/2¹⁶ = s/5 + 4s/(5·2¹⁶)`. The fraction of `s/5` is at
//!   most `4/5`, so the floor is `⌊s/5⌋` while `4s/(5·2¹⁶) < 1/5`, that
//!   is for every `s < 2¹⁴ = 16384` — sums of at most 2040 with room to
//!   spare. (`13107` undershoots: `5·13107/2¹⁶ < 1`.) `r = s − 5q` is
//!   the remainder, and one `vpmovwb` narrows 32 of them to bytes.
//!
//! The kernel keeps four groups of eight `u64` index terms, lane `l` of
//! group `g` for index `start + 4l + g` of the pass, so the four groups'
//! sums shifted into the four 16-bit words of each lane are the pass's
//! 32 sums in index order. `vpmullq` is AVX-512DQ, which both AVX-512
//! tiers require. The ragged tail of a run goes through `row`.

/// The mix's multiplier of the node id.
const NODE_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// The mix's multiplier of the element index.
const INDEX_MUL: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// The finaliser's multiplier.
const MIX_MUL: u64 = 0xFF51_AFD7_ED55_8CCD;
/// Independent running sums of the plain form. Four ran faster than
/// eight (DESIGN.md §6g).
const LANES: usize = 4;

/// Writes `out[j] = weight(seed, node, start + j)` for every `j`: the
/// weights of indices `start..start + out.len()` of `node`, each in
/// `-2..=2`, with indices and sums wrapping as the oracle's do.
pub fn weight_row_into(seed: u64, node: u64, start: u64, out: &mut [i8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::avx512_tier_active() {
        // SAFETY: an AVX-512 tier is active only where its `supported()`
        // check passed, and both of those checks require AVX-512F,
        // AVX-512BW and AVX-512DQ.
        unsafe { avx512::row(seed, node, start, out) };
        return;
    }
    row(seed, node, start, out);
}

/// The row loop of [`weight_row_into`] on the scalar and AVX2 tiers, and the AVX-512 kernel's tail; see the module docs.
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

/// The AVX-512 tiers' form of [`weight_row_into`] (module docs).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{INDEX_MUL, MIX_MUL, NODE_MUL};
    use std::arch::x86_64::*;

    /// [`super::weight_row_into`], 32 weights per pass, the ragged tail
    /// through [`super::row`].
    ///
    /// # Safety
    /// Caller must ensure AVX-512F, AVX-512BW and AVX-512DQ are available.
    #[target_feature(enable = "avx512f,avx512bw,avx512dq")]
    pub(super) unsafe fn row(seed: u64, node: u64, start: u64, out: &mut [i8]) {
        let key = _mm512_set1_epi64((seed ^ node.wrapping_mul(NODE_MUL)) as i64);
        let stride = _mm512_set1_epi64(INDEX_MUL.wrapping_mul(32) as i64);
        // Lane `l` of group `g` holds the term of index `start + 4l + g`
        // of the pass.
        let mut terms: [__m512i; 4] = std::array::from_fn(|g| {
            let lanes: [u64; 8] = std::array::from_fn(|l| {
                start
                    .wrapping_add((4 * l + g) as u64)
                    .wrapping_mul(INDEX_MUL)
            });
            // SAFETY: a 64-byte unaligned load of the eight lanes.
            unsafe { _mm512_loadu_si512(lanes.as_ptr() as *const _) }
        });
        let done = (out.len() / 32 * 32) as u64;
        let mut passes = out.chunks_exact_mut(32);
        for pass in &mut passes {
            let [s0, s1, s2, s3] = terms.each_mut().map(|t| {
                let sums = byte_sums(_mm512_xor_si512(key, *t));
                *t = _mm512_add_epi64(*t, stride);
                sums
            });
            // Group `g`'s sums into word `g` of each lane: the pass's 32
            // sums, in index order.
            let sums = _mm512_or_si512(
                _mm512_or_si512(s0, _mm512_slli_epi64::<16>(s1)),
                _mm512_or_si512(_mm512_slli_epi64::<32>(s2), _mm512_slli_epi64::<48>(s3)),
            );
            let q = _mm512_mulhi_epu16(sums, _mm512_set1_epi16(13108));
            let r = _mm512_sub_epi16(sums, _mm512_mullo_epi16(q, _mm512_set1_epi16(5)));
            let w = _mm256_sub_epi8(_mm512_cvtepi16_epi8(r), _mm256_set1_epi8(2));
            // SAFETY: `pass` is 32 bytes.
            unsafe { _mm256_storeu_si256(pass.as_mut_ptr() as *mut __m256i, w) };
        }
        super::row(
            seed,
            node,
            start.wrapping_add(done),
            passes.into_remainder(),
        );
    }

    /// [`super::finish`]'s mix of each 64-bit lane of `x`, reduced to the
    /// sum of its eight bytes (`≤ 2040`, congruent to it mod 5).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512dq")]
    fn byte_sums(mut x: __m512i) -> __m512i {
        x = _mm512_xor_si512(x, _mm512_srli_epi64::<33>(x));
        x = _mm512_mullo_epi64(x, _mm512_set1_epi64(MIX_MUL as i64));
        x = _mm512_xor_si512(x, _mm512_srli_epi64::<29>(x));
        _mm512_sad_epu8(x, _mm512_setzero_si512())
    }
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
    /// in order): the plain form, the AVX-512 kernel where the host runs
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
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: the three features were detected on this CPU just
            // above.
            let (ns, vector) = best_of(&mut by_rows(|s, nd, st, out| unsafe {
                avx512::row(s, nd, st, out)
            }));
            println!("  row, avx512         : {ns:.3} ns/weight");
            assert_eq!(vector, oracle, "avx512 form");
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
    /// the quad panels every tier's kernels read, the way a plan build
    /// did before panels were the only copy and the way it does now:
    /// synthesise the whole matrix, then pack it; synthesise a 64-row
    /// k-tile into one reused buffer and pack it while it is hot. Beside
    /// them, the pack alone into resident panels and a resident `memcpy`
    /// of the same bytes. (An artifact load installs nothing: it borrows
    /// the panels where they lie in the file.)
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
        use crate::simd::{pack_quad_ktile, quad_panel_rows, Line, TILE_QUADS};
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
        // Every matrix back to back, as bytes.
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
        // Best of 5 of `f`, in ns per weight; what `f` returns is dropped
        // outside the timed span.
        fn time<T>(total: usize, mut f: impl FnMut() -> T) -> f64 {
            let best = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    let out = black_box(f());
                    let elapsed = t0.elapsed();
                    drop(out);
                    elapsed
                })
                .min()
                .unwrap_or(Duration::MAX);
            best.as_secs_f64() * 1e9 / total as f64
        }
        // The shuffle alone: every k-tile of the matrices packed into
        // quad panels already written once, beside one `memcpy` of the
        // matrices into buffers as resident. Once the pack nears
        // `memcpy`, what a build pays beyond it is first touch and the
        // zero fill, not the shuffle.
        let weights: Vec<i8> = section.iter().map(|&b| b as i8).collect();
        let mut quads: Vec<Vec<Line<i8>>> = shapes
            .iter()
            .map(|&(k, n)| vec![Line([0; 64]); quad_panel_rows(k, n)])
            .collect();
        let ns = time(total, || {
            for ((&(k, n), &at), panel) in shapes.iter().zip(&starts).zip(&mut quads) {
                let strip = k.div_ceil(KTILE_ROWS) * TILE_QUADS;
                for (t, kr0) in (0..k).step_by(KTILE_ROWS).enumerate() {
                    let tile = &weights[at + kr0 * n..][..KTILE_ROWS.min(k - kr0) * n];
                    pack_quad_ktile(tile, n, &mut panel[t * TILE_QUADS..], strip);
                }
            }
        });
        println!("  resident: pack every k-tile             : {ns:.3} ns/weight");
        for (panel, resident) in oracle.iter().zip(&quads) {
            assert!(panel.quads() == &resident[..], "resident pack");
        }
        let mut copies: Vec<Vec<u8>> = shapes.iter().map(|&(k, n)| written_zeros(k * n)).collect();
        let ns = time(total, || {
            for (copy, &at) in copies.iter_mut().zip(&starts) {
                let len = copy.len();
                copy.copy_from_slice(&section[at..][..len]);
            }
        });
        println!("  resident: memcpy                        : {ns:.3} ns/weight");
    }
}
