//! Cache-blocked int8 GEMM for the functional host path.
//!
//! [`matmul_ref`](crate::reference::matmul_ref) is the gold scalar
//! reference: a naive triple loop with per-element layout-offset
//! arithmetic, kept deliberately simple. This module provides the
//! **scalar oracle** the production host kernel is property-tested
//! against: the same `clamp((Σ_k a·w) >> shift, 0, 255)` math,
//! restructured for throughput and kept **bit-exact** against the
//! reference (i32 accumulation wraps, and wrapping addition is
//! associative and commutative, so no tiling or reordering can change
//! results).
//!
//! Three structural changes over the naive loop:
//!
//! * **i·k·j loop order** — the inner loop runs over contiguous weight
//!   rows instead of striding down weight columns, so it autovectorizes;
//! * **cache blocking** — row blocks of `mb` activations reuse each
//!   `kb`-row weight tile while it is hot in cache (defaults [`MB`] and
//!   [`KB`]; [`tile_plan`] derives the pair from the shape and the
//!   tier);
//! * **flat slices** — operands are raw row-major slices; no per-element
//!   layout-offset calls in the hot loop.
//!
//! The one GEMM core, [`crate::try_matmul_panel_into`], dispatches to
//! the vectorized micro-kernels in [`crate::simd`] when the host CPU
//! supports them (see [`crate::dispatch`]); the scalar path here is the
//! semantic definition every SIMD path must match bit for bit, and
//! [`matmul_host`] is the interpreter's GEMM over it.

use crate::dispatch::{GemmA, KernelIsa, ScratchPool};
use crate::simd::Line;
use gcd2_tensor::{Layout, MatrixI8, MatrixU8};

/// Default activation rows processed per block (accumulator tile:
/// `MB × n` i32).
pub const MB: usize = 32;
/// Default weight rows (reduction depth) per block; `KB × n` weight
/// bytes stay cache-resident while a row block streams over them.
pub const KB: usize = 256;

/// Blocking parameters for one GEMM dispatch: `mb` activation rows per
/// accumulator block, `kb` reduction rows per weight segment. Every
/// blocking computes the same bytes (wrapping i32 accumulation is
/// associative), so this is purely a speed choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TilePlan {
    /// Activation rows per block (accumulator tile height).
    pub mb: usize,
    /// Reduction (weight) rows per cache-resident segment.
    pub kb: usize,
}

impl TilePlan {
    /// The fixed blocking every strip tier runs with, and the AMX tier
    /// whenever its weight panel is within the panel budget.
    pub const DEFAULT: TilePlan = TilePlan { mb: MB, kb: KB };
}

/// AMX tier: the largest strip-major panel (`k·n` bytes) that is
/// re-streamed once per 32-row block; a larger one gets a taller row
/// block. It models the share of a core's L2 (2 MiB on the recording
/// host) a panel can count on keeping from one row block to the next
/// while activations, output and the other layers' weights pass
/// through it. Fixed end to end, not by the per-shape sweep
/// (DESIGN.md §4e): any value from 96 to 127 KiB reads the same on the
/// four models the benchmark runs warm; at 64 KiB tinybert's 25
/// `128 × 312 × 312` GEMMs (95 KiB panels) take the whole band and the
/// model loses 1–2 %, at 128 KiB resnet-50's two 128 KiB panels fall
/// back to 32 rows and the model loses 3–5 %.
const AMX_PANEL_BUDGET: u64 = 96 << 10;
/// AMX tier: the most bytes of an `mb × k` activation block. The block
/// is re-read once per column strip pair, so it has to stay in L2
/// beside the panel strips being streamed. 64–256 KiB read the same
/// end to end on resnet-50 and tinybert (§4e); 128 KiB is the middle.
const AMX_BLOCK_BUDGET: u64 = 128 << 10;

/// The blocking `isa`'s band kernel runs an `m × k × n` GEMM with — a
/// pure function of its arguments, re-derived at every dispatch, so
/// nothing about a blocking is stored, hashed or serialised.
///
/// The AMX kernel's loop order is row blocks → strip pairs → 32-row
/// groups ([`crate::amx`]): the panel is streamed `⌈m/mb⌉` times and
/// the `mb × k` activation block re-read `⌈n/32⌉` times from L2. A
/// panel within [`AMX_PANEL_BUDGET`] is cheap to stream again and the
/// smallest block (32 rows, one 2 × 2 tile group) is right; beyond it
/// the row block grows to the largest multiple of 32 whose `mb × k`
/// bytes fit [`AMX_BLOCK_BUDGET`], at most the whole band. The kernel
/// reads no `kb`. The strip tiers (scalar, AVX2, AVX-512 VNNI, NEON)
/// run [`TilePlan::DEFAULT`] on every shape: over the old candidate
/// grid their per-model sums stay within 3 % of the fastest candidate
/// per shape (VNNI: 2.6 %).
pub fn tile_plan(m: usize, k: usize, n: usize, isa: KernelIsa) -> TilePlan {
    let (m, k, n) = (m as u64, k as u64, n as u64);
    if isa != KernelIsa::AmxInt8 || k.saturating_mul(n) <= AMX_PANEL_BUDGET {
        return TilePlan::DEFAULT;
    }
    let fit = AMX_BLOCK_BUDGET / k.max(1) / MB as u64 * MB as u64;
    TilePlan {
        mb: fit.clamp(MB as u64, m.max(MB as u64)) as usize,
        kb: KB,
    }
}

/// Scratch buffers for the GEMM, reusable across calls so
/// steady-state GEMMs allocate nothing: what one band kernel call works
/// in, and the matrix of an im2col view the tier it resolved does not
/// read in place ([`crate::GemmA::View`]).
#[derive(Debug, Default, Clone)]
pub struct GemmScratch {
    pub(crate) band: BandScratch,
    pub(crate) a: LineBuf,
}

/// The buffers one band kernel call works in.
#[derive(Debug, Default, Clone)]
pub(crate) struct BandScratch {
    /// The i32 accumulator block.
    pub(crate) acc: Vec<i32>,
    /// AMX tier: the `k % 64` reduction tail of a row block's
    /// activation rows, one zero-padded line each — only for a row
    /// block one of whose in-place tail windows would leave `a` (every
    /// other block reads its tails straight from `a`).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))] // the AMX tier is x86-64's
    pub(crate) a_tail: Vec<Line<u8>>,
    /// AMX tier over an im2col view: the matrix row of each virtual row
    /// of the current row block, `None` for a garbage row.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))] // the AMX tier is x86-64's
    pub(crate) dest: Vec<Option<usize>>,
}

/// A reusable byte buffer that starts on a cache line — what a plan
/// keeps every activation slot and the staged GEMM operand in, because
/// either can be a GEMM's `a`. When `k` is a multiple of 64 no row of
/// an AMX activation tile then straddles two lines (a tile load whose
/// rows do costs about twice one whose rows do not; glibc hands out
/// every large `Vec<u8>` 16 bytes past a line); the other tiers read it
/// like any slice.
#[derive(Debug, Default, Clone)]
pub struct LineBuf {
    lines: Vec<Line<u8>>,
    len: usize,
}

impl LineBuf {
    /// Sets the length to `len` and returns those bytes for writing,
    /// the buffer grown to hold them. Not cleared: bytes of an earlier
    /// use are still there.
    pub fn bytes_mut(&mut self, len: usize) -> &mut [u8] {
        let lines = len.div_ceil(64);
        if self.lines.len() < lines {
            self.lines.resize(lines, Line([0; 64]));
        }
        self.len = len;
        // SAFETY: `Line<u8>` is `repr(C)` over `[u8; 64]`, so the
        // vector's first `lines` elements are `64 · lines >= len`
        // contiguous initialised bytes, borrowed mutably through `self`.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast::<u8>(), len) }
    }

    /// The bytes the last [`LineBuf::bytes_mut`] handed out.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: as in `bytes_mut`; `len` bytes were inside the
        // vector when it was set and the vector never shrinks.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast::<u8>(), self.len) }
    }
}

/// A GEMM dispatch rejected before touching any memory: the operands the
/// runtime handed the kernel are inconsistent with each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GemmDispatchError {
    /// `a.len() != m * k` — the flat activation buffer cannot hold an
    /// `m × k` row-major matrix.
    ActivationSize { expected: usize, got: usize },
    /// `w.rows() != k` — the weight reduction depth disagrees with the
    /// activation width.
    WeightRows { expected: usize, got: usize },
    /// `shift >= 32` would shift an i32 accumulator past its width.
    ShiftRange { shift: u8 },
    /// The caller's output slice is not `m × n` bytes.
    OutputSize { expected: usize, got: usize },
    /// A [`crate::ByteMap`] other than the identity under a clamp above
    /// 15: the map is defined on `0..=15` only.
    MapClamp { clamp: u8 },
    /// An im2col view's `(rows, kh·kw·c)` is not the dispatch's `(m, k)`.
    ViewShape {
        expected: (usize, usize),
        got: (usize, usize),
    },
    /// An im2col view's map is shorter than the last window of its
    /// whole 16-row groups reaches ([`crate::Im2colView::tile_rows`]).
    ViewBuffer { needed: usize, got: usize },
    /// The weight panel holds the form `got`, and the kernel `tier`
    /// resolved to reads `expected`: the panel was filled on another
    /// tier (a [`crate::pin_isa`] taken after the fill).
    PanelForm {
        tier: KernelIsa,
        expected: &'static str,
        got: &'static str,
    },
}

impl std::fmt::Display for GemmDispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GemmDispatchError::ActivationSize { expected, got } => write!(
                f,
                "activation buffer holds {got} bytes, dispatch expects {expected}"
            ),
            GemmDispatchError::WeightRows { expected, got } => {
                write!(
                    f,
                    "weight matrix has {got} rows, dispatch expects {expected}"
                )
            }
            GemmDispatchError::ShiftRange { shift } => {
                write!(f, "requant shift {shift} exceeds i32 accumulator width")
            }
            GemmDispatchError::OutputSize { expected, got } => write!(
                f,
                "output slice holds {got} bytes, dispatch writes {expected}"
            ),
            GemmDispatchError::MapClamp { clamp } => {
                write!(f, "an epilogue byte map under clamp {clamp} (at most 15)")
            }
            GemmDispatchError::ViewShape { expected, got } => write!(
                f,
                "im2col view is a {}x{} matrix, dispatch expects {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            GemmDispatchError::ViewBuffer { needed, got } => write!(
                f,
                "im2col view's map holds {got} bytes, its windows reach {needed}"
            ),
            GemmDispatchError::PanelForm {
                tier,
                expected,
                got,
            } => write!(
                f,
                "weight panel holds {got}, the {tier} kernel reads {expected}"
            ),
        }
    }
}

impl std::error::Error for GemmDispatchError {}

/// Shared operand validation of every blocked-GEMM entry point:
/// `w_rows` is how many weight rows the caller holds.
pub(crate) fn validate_dispatch(
    a: GemmA<'_>,
    m: usize,
    k: usize,
    w_rows: usize,
    shift: u8,
) -> Result<(), GemmDispatchError> {
    match a {
        GemmA::Matrix(a) if a.len() != m * k => {
            return Err(GemmDispatchError::ActivationSize {
                expected: m * k,
                got: a.len(),
            })
        }
        GemmA::View(view) if (view.rows(), view.depth()) != (m, k) => {
            return Err(GemmDispatchError::ViewShape {
                expected: (m, k),
                got: (view.rows(), view.depth()),
            })
        }
        GemmA::View(view) if view.map_len() < view.reach() => {
            return Err(GemmDispatchError::ViewBuffer {
                needed: view.reach(),
                got: view.map_len(),
            })
        }
        _ => {}
    }
    if w_rows != k {
        return Err(GemmDispatchError::WeightRows {
            expected: k,
            got: w_rows,
        });
    }
    if shift >= 32 {
        return Err(GemmDispatchError::ShiftRange { shift });
    }
    Ok(())
}

/// The scalar oracle over one row band `[r0, r1)`: the original blocked
/// i·k·j loop with zero-skip, writing the band's requantized bytes into
/// `out_band` (`(r1 - r0) × n`, row-major). Every SIMD band kernel is
/// property-tested bit-identical against this.
pub(crate) fn scalar_band(
    args: &crate::dispatch::BandArgs<'_>,
    acc_buf: &mut Vec<i32>,
    r0: usize,
    r1: usize,
    out_band: &mut [u8],
) {
    let crate::dispatch::BandArgs {
        a,
        k,
        n,
        wd,
        shift,
        clamp,
        map,
        tiles,
    } = *args;
    let (mb_rows, kb_rows) = (tiles.mb.max(1), tiles.kb.max(1));
    acc_buf.clear();
    acc_buf.resize(mb_rows.min(r1 - r0) * n, 0);

    let mut mb = r0;
    while mb < r1 {
        let mrows = mb_rows.min(r1 - mb);
        let acc = &mut acc_buf[..mrows * n];
        acc.fill(0);
        let mut kb = 0;
        while kb < k {
            let krows = kb_rows.min(k - kb);
            for r in 0..mrows {
                let arow = &a[(mb + r) * k + kb..(mb + r) * k + kb + krows];
                let accrow = &mut acc[r * n..(r + 1) * n];
                for (kk, &av) in arow.iter().enumerate() {
                    if av == 0 {
                        continue; // zero contributes nothing (im2col padding)
                    }
                    let av = av as i32;
                    let wrow = &wd[(kb + kk) * n..(kb + kk + 1) * n];
                    for (dst, &wv) in accrow.iter_mut().zip(wrow) {
                        *dst = dst.wrapping_add(av * wv as i32);
                    }
                }
            }
            kb += krows;
        }
        let orows = &mut out_band[(mb - r0) * n..(mb - r0 + mrows) * n];
        crate::simd::requantize(acc, shift, clamp, map, orows);
        mb += mrows;
    }
}

/// The host GEMM over matrix operands, bit-exact against
/// [`crate::reference::matmul_ref`]: [`crate::try_matmul_threaded_into`]
/// with a thread-local pool, so repeated calls allocate nothing in
/// steady state. `a` may be in any layout (non-row-major operands are
/// converted first); the result is row-major.
///
/// # Panics
/// If `a.cols() != w.rows()` or `shift >= 32`.
pub fn matmul_host(a: &MatrixU8, w: &MatrixI8, shift: u8) -> MatrixU8 {
    thread_local! {
        static POOL: ScratchPool = ScratchPool::new();
    }
    let (m, k, n) = (a.rows(), a.cols(), w.cols());
    let rm;
    let bytes = if a.layout() == Layout::RowMajor {
        a.as_bytes()
    } else {
        rm = a.to_layout(Layout::RowMajor);
        rm.as_bytes()
    };
    let mut out = Vec::new();
    POOL.with(|pool| {
        if let Err(e) = crate::try_matmul_threaded_into(bytes, m, k, w, shift, pool, 1, &mut out) {
            panic!("{e}");
        }
    });
    MatrixU8::from_raw(m, n, Layout::RowMajor, out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reference::matmul_ref;
    use crate::WeightPanel;
    use gcd2_cgraph::OpKind;
    use gcd2_models::ModelId;
    use std::collections::BTreeMap;

    /// The distinct `(m, k, n)` of `model`'s GEMMs that reach the
    /// dispatcher (every GEMM view but the depthwise convs and the
    /// narrow-head convs the runtime runs as direct kernels), each with
    /// how many steps have it. This mirrors `gcd2-core`'s
    /// `GemmStep::runs_matmul` (`infer.rs`, with its
    /// `DIRECT_CONV_MAX_N = 16`), which this crate cannot call, and must
    /// change with it: the pinned counts below catch a graph change, not
    /// a change to the executor's rule.
    pub(crate) fn catalog_shapes(model: ModelId) -> BTreeMap<(usize, usize, usize), usize> {
        let graph = model.build();
        let mut shapes = BTreeMap::new();
        for node in graph.nodes() {
            let conv = match node.kind {
                OpKind::DepthwiseConv2d { .. } => continue,
                OpKind::Conv2d { .. } => true,
                _ => false,
            };
            match graph.gemm_dims(node.id) {
                Some(g) if !(conv && g.n < 16) => *shapes.entry((g.m, g.k, g.n)).or_insert(0) += 1,
                _ => {}
            }
        }
        shapes
    }

    /// Total, and in range on every tier: `1 ≤ mb ≤ max(m, 32)`, `kb`
    /// even and at least 2 — what every band kernel accepts — over a
    /// grid that includes the empty GEMM, the tile edges and the
    /// largest dimension the artifact decoder admits.
    #[test]
    fn tile_plan_is_total_and_in_range() {
        let dims = [0, 1, 15, 16, 17, 49, 1000, 1 << 28];
        for isa in KernelIsa::ALL {
            for m in dims {
                for k in dims {
                    for n in dims {
                        let t = tile_plan(m, k, n, isa);
                        assert!(t.mb >= 1 && t.mb <= m.max(MB), "{isa} {m}x{k}x{n}: {t:?}");
                        assert!(
                            t.kb >= 2 && t.kb.is_multiple_of(2),
                            "{isa} {m}x{k}x{n}: {t:?}"
                        );
                        if isa != KernelIsa::AmxInt8 {
                            assert_eq!(t, TilePlan::DEFAULT, "{isa} {m}x{k}x{n}");
                        }
                    }
                }
            }
        }
    }

    /// Past the panel budget a deeper reduction never gets a taller row
    /// block: the block is a byte budget divided by `k`.
    #[test]
    fn amx_row_block_does_not_grow_with_k() {
        for (m, n) in [
            (49, 512),
            (196, 256),
            (784, 128),
            (12544, 64),
            (1 << 28, 1 << 28),
        ] {
            let mut last = usize::MAX;
            for k in (2..14).flat_map(|e| [(1 << e) - 1, 1 << e, (1 << e) + 1]) {
                let TilePlan { mb, .. } = tile_plan(m, k, n, KernelIsa::AmxInt8);
                if (k * n) as u64 <= AMX_PANEL_BUDGET {
                    assert_eq!(mb, MB, "{m}x{k}x{n}: a resident panel");
                } else {
                    assert!(mb <= last, "{m}x{k}x{n}: mb {mb} after {last}");
                    last = mb;
                }
            }
        }
    }

    /// The picks for every distinct GEMM shape of the three benchmark
    /// models whose GEMMs the dispatcher runs, on the AMX tier: a
    /// budget change shows up here as a reviewed diff.
    #[test]
    fn amx_picks_for_the_catalog_are_pinned() {
        let picks = |model| -> Vec<(usize, usize, usize, usize)> {
            catalog_shapes(model)
                .into_keys()
                .map(|(m, k, n)| (m, k, n, tile_plan(m, k, n, KernelIsa::AmxInt8).mb))
                .filter(|&(.., mb)| mb != MB)
                .collect()
        };
        // Every shape not listed runs the default 32 rows.
        assert_eq!(
            picks(ModelId::ResNet50),
            [
                (49, 512, 2048, 49),
                (49, 1024, 2048, 49),
                (49, 2048, 512, 49),
                (196, 256, 1024, 196),
                (196, 512, 1024, 196),
                (196, 1024, 256, 128),
                (196, 1024, 512, 128),
                (784, 256, 512, 512),
                (784, 512, 256, 256),
                (784, 1152, 128, 96),
            ]
        );
        assert_eq!(
            picks(ModelId::TinyBert),
            [(128, 312, 1200, 128), (128, 1200, 312, 96)]
        );
        assert_eq!(
            picks(ModelId::MobileNetV3),
            [(49, 160, 960, 49), (49, 672, 160, 49), (49, 960, 160, 49)]
        );
        let distinct = |model| catalog_shapes(model).len();
        assert_eq!(
            [ModelId::ResNet50, ModelId::TinyBert, ModelId::MobileNetV3].map(distinct),
            [21, 5, 34]
        );
    }

    fn hash_u8(x: u64) -> u8 {
        let mut v = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        v ^= v >> 29;
        (v % 16) as u8
    }

    /// Every length starts on a cache line, and growing keeps the bytes
    /// already staged.
    #[test]
    fn line_buf_is_line_aligned_and_keeps_its_bytes() {
        let mut buf = LineBuf::default();
        assert!(buf.bytes_mut(0).is_empty());
        for len in [1usize, 63, 64, 65, 1000] {
            let bytes = buf.bytes_mut(len);
            assert_eq!((bytes.len(), bytes.as_ptr() as usize % 64), (len, 0));
            bytes[len - 1] = len as u8;
        }
        let bytes = buf.bytes_mut(65);
        assert_eq!((bytes[0], bytes[62], bytes[63], bytes[64]), (1, 63, 64, 65));
        // Reading sees the last length handed out, at the same address.
        assert_eq!(
            buf.bytes(),
            [&[1u8; 1][..], &[0; 61], &[63, 64, 65]].concat()
        );
        assert_eq!(buf.bytes_mut(3).len(), buf.bytes().len());
        assert_eq!(buf.bytes().as_ptr() as usize % 64, 0);
    }

    /// The interpreter's GEMM is bit-exact against the gold reference
    /// on every tier the host supports, across shapes that exercise
    /// partial blocks in both dimensions, all shifts used by the
    /// runtime, and negative weights. The pins alternate between calls
    /// on one thread, so each call refills the thread-local panel in
    /// another form than the last left there.
    #[test]
    fn blocked_matches_reference_bit_for_bit() {
        let tiers: Vec<KernelIsa> = KernelIsa::ALL
            .into_iter()
            .filter(|isa| isa.supported())
            .collect();
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (MB, KB, 8),
            (MB + 1, KB + 3, 7),
            (2 * MB + 5, 17, 10),
            (7, 2 * KB + 9, 3),
            (130, 64, 33),
        ] {
            let a = MatrixU8::from_fn(m, k, Layout::RowMajor, |r, c| hash_u8((r * k + c) as u64));
            let w = MatrixI8::from_fn(k, n, |r, c| (hash_u8((r * n + c + 77) as u64) as i8) - 8);
            for shift in [0u8, 3, 7] {
                let reference = matmul_ref(&a, &w, shift);
                for &tier in &tiers {
                    let _pin = crate::pin_isa(tier);
                    let blocked = matmul_host(&a, &w, shift);
                    for (r, row) in reference.iter().enumerate() {
                        for (c, &want) in row.iter().enumerate() {
                            assert_eq!(
                                blocked.get(r, c),
                                want,
                                "{tier}: ({m},{k},{n}) shift {shift} at ({r},{c})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Non-row-major operands convert and still match.
    #[test]
    fn layout_operands_convert() {
        let a = MatrixU8::from_fn(40, 12, Layout::Col4, |r, c| hash_u8((r * 12 + c) as u64));
        let w = MatrixI8::from_fn(12, 5, |r, c| (r as i8 % 3) - 1 + (c as i8 % 2));
        let reference = matmul_ref(&a, &w, 2);
        let blocked = matmul_host(&a, &w, 2);
        assert_eq!(blocked.to_row_major_vec().len(), 40 * 5);
        for (r, row) in reference.iter().enumerate() {
            for (c, &want) in row.iter().enumerate() {
                assert_eq!(blocked.get(r, c), want);
            }
        }
    }

    /// Checked dispatch rejects inconsistent operands without touching
    /// the output buffer.
    #[test]
    fn dispatch_validation_rejects_bad_operands() {
        let panel = WeightPanel::pack(&MatrixI8::from_fn(4, 3, |_, _| 1));
        let mut scratch = GemmScratch::default();
        let mut out = vec![7u8; 6];
        let mut run = |a: &[u8], m, k, shift, out: &mut [u8]| {
            let requant = (shift, u8::MAX, crate::ByteMap::IDENTITY);
            crate::try_matmul_panel_into(GemmA::Matrix(a), m, k, &panel, requant, &mut scratch, out)
        };
        assert_eq!(
            run(&[1; 7], 2, 4, 1, &mut out), // not 2*4
            Err(GemmDispatchError::ActivationSize {
                expected: 8,
                got: 7
            })
        );
        assert_eq!(out, vec![7u8; 6], "rejected dispatch must not write");
        assert_eq!(
            run(&[1; 10], 2, 5, 1, &mut out), // k=5 but w has 4 rows
            Err(GemmDispatchError::WeightRows {
                expected: 5,
                got: 4
            })
        );
        assert_eq!(
            run(&[1; 8], 2, 4, 40, &mut out),
            Err(GemmDispatchError::ShiftRange { shift: 40 })
        );
        assert_eq!(
            run(&[1; 8], 2, 4, 1, &mut out[..5]),
            Err(GemmDispatchError::OutputSize {
                expected: 6,
                got: 5
            })
        );
        assert_eq!(out, vec![7u8; 6], "rejected dispatch must not write");
        assert_eq!(run(&[1; 8], 2, 4, 1, &mut out), Ok(()));
        assert_eq!(out, vec![2u8; 6]);
    }

    /// The scratch-reuse path is equivalent to fresh scratch.
    #[test]
    fn scratch_reuse_is_clean() {
        let a = MatrixU8::from_fn(50, 30, Layout::RowMajor, |r, c| hash_u8((r + c) as u64));
        let w1 = MatrixI8::from_fn(30, 9, |r, c| ((r + c) % 5) as i8 - 2);
        let w2 = MatrixI8::from_fn(30, 4, |r, c| ((r * c) % 3) as i8 - 1);
        let mut scratch = GemmScratch::default();
        let requant = (1, u8::MAX, crate::ByteMap::IDENTITY);
        let mut run = |w: &MatrixI8| {
            let mut out = vec![0; 50 * w.cols()];
            let panel = WeightPanel::pack(w);
            crate::try_matmul_panel_into(
                GemmA::Matrix(a.as_bytes()),
                50,
                30,
                &panel,
                requant,
                &mut scratch,
                &mut out,
            )
            .map(|()| out)
        };
        run(&w1).expect("valid operands");
        let out = run(&w2).expect("valid operands");
        let reference = matmul_ref(&a, &w2, 1);
        for r in 0..50 {
            for c in 0..4 {
                assert_eq!(out[r * 4 + c], reference[r][c]);
            }
        }
    }
}
