//! AMX-INT8 tile GEMM band kernel (Sapphire-Rapids-class x86-64).
//!
//! `tdpbusd` multiplies a 16×64 u8 tile by a 64×16 i8 tile (presented as
//! 16 quad-interleaved rows) and accumulates into a 16×16 i32 tile —
//! 16384 MACs per instruction, an order of magnitude past `vpdpbusd`.
//! The accumulate is plain two's-complement (wrapping) dword addition,
//! the same semantics as `vpdpbusd` and the scalar oracle's
//! `wrapping_add`, so the tile kernel slots into the bit-exactness
//! contract of [`crate::simd`] unchanged: any cover of the reduction by
//! tiles produces identical bytes.
//!
//! The B operand is laid out for the tile unit: the strip-major quad
//! panel (`simd::quad_panel_rows` has its layout) keeps each `tdpbusd` B tile
//! — 16 quad rows of one 16-column strip — as 1 KiB of consecutive,
//! line-aligned bytes, with the strip's next k-tile right behind it, so a strip
//! streams linearly through the whole reduction (one page per tile
//! instead of one per quad row). One quad row is still exactly the zmm
//! `vpdpbusd` reads, so the VNNI tier multiplies from the same panel:
//! one pack, one panel kind, two instruction sets.
//!
//! Rust has no stable AMX intrinsics, so the tile instructions are
//! inline assembly. That also sidesteps `#[target_feature]`: the CPUID
//! and kernel-permission gate in [`amx_available`] is the only guard,
//! checked once at dispatch-table resolution.
//!
//! Shape coverage ([`tile_grid_engages`]): a band of at least 16 rows
//! runs on the tile grid **for every `n`** — the panel is zero-padded
//! to whole strips, so the last strip is computed whole and its dead
//! columns are masked out of the store when the block is requantised —
//! **and for every `k`**: the `k % 64` reduction tail is one more tile
//! step against the panel's zero-padded last k-tile, its 64-byte window
//! read straight from `a` at row stride `k`. The bytes past a row's end
//! are the next row's, and they meet the panel's zero padding, so they
//! add nothing; only a row block one of whose windows would leave `a`
//! has its tails staged zero-padded in
//! [`BandScratch::a_tail`](crate::tiled::BandScratch). A reduction
//! shorter than one tile runs at its own depth ([`tile_depth`]): the A
//! tiles are `k` rounded up to a quad wide and the B tiles that many
//! quads deep, so `tdpbusd` multiplies no 64-deep zero padding. What is
//! left to the VNNI strips is the `rows % 16` row remainder of a band,
//! and whole bands of fewer than 16 rows.
//!
//! Loop order: row blocks of `mb` rows outermost, then **column strip
//! pairs, then 32-row groups** — each 32×32 output block accumulates its
//! whole reduction in four tile registers, is stored to a 4 KiB stack
//! block and requantised straight into the output two rows per zmm, four
//! of a one-strip block ([`simd::x86::Requant512`]), so there is no band
//! accumulator to stream. Inside a row block the `mb × k` activation
//! block is re-read per strip pair (from L2) and the panel is streamed
//! once; `mb` is the tile plan's ([`crate::tiled::tile_plan`]: 32 rows
//! while the panel is cache-resident, else as many as keep the block in
//! L2, up to the whole band) — a few-row GEMM with a deep panel
//! (`49 × 2048 × 512`) streams its 1 MiB panel once, a many-row conv
//! over a small panel (`3136 × 576 × 64`) keeps a small row block. There
//! is no `kb` segmentation here: the accumulators never leave the tile
//! registers.
//!
//! **A stride-1 conv is not staged** ([`band_amx_view`]): its im2col
//! matrix is left in the zero-padded pixel-major map as an
//! [`Im2colView`], whose virtual row `i` is `kh` runs of `kw·c` bytes at
//! `(i + dy·wp)·c`. When each run is whole tile steps (`kw·c % 64 ==
//! 0`) an A tile is 16 such rows at row stride `c`, so the grid reads
//! the map in place — one [`accumulate`] per kernel row, accumulators
//! kept across them — over whole 16-row groups of virtual rows (the
//! map's slack covers the last), and the block epilogue stores only the
//! virtual rows that are matrix rows. The `kw − 1` garbage rows per map
//! row cost `(kw − 1) / wp` of the multiply (≈ 3–22 % on resnet-50)
//! where staging cost a `kh·kw`-fold copy of the map.

use crate::conv::Im2colView;
use crate::dispatch::BandArgs;
use crate::simd::x86::Requant512;
use crate::simd::{self, Line, QuadRow, TILE_QUADS};
use crate::tiled::BandScratch;
use crate::tiled::TilePlan;
use core::arch::asm;
use core::arch::x86_64::*;
use std::sync::OnceLock;

/// `arch_prctl` operation requesting permission to use an XSAVE
/// component (Linux ≥ 5.16; AMX tile data is opt-in per process).
const ARCH_REQ_XCOMP_PERM: u64 = 0x1023;
/// XSAVE component number of the AMX tile data state.
const XFEATURE_XTILEDATA: u64 = 18;

/// Whether this process can execute AMX-INT8 tile instructions:
/// CPUID advertises AMX-TILE + AMX-INT8 and the kernel grants the
/// tile-data XSAVE permission. Resolved once; the syscall is
/// idempotent. A thread sets the tier aside with a [`crate::pin_isa`].
pub fn amx_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        // The row remainder runs VNNI strips, the tail staging byte-masked
        // loads and the epilogue byte packs and half-zmm masked stores, so
        // AMX is only offered where the VNNI tier would also have been
        // available (AVX-512DQ included, for the weight generator's
        // `vpmullq`), with AVX-512VL (every AMX part has all of them).
        if !std::arch::is_x86_feature_detected!("avx512f")
            || !std::arch::is_x86_feature_detected!("avx512bw")
            || !std::arch::is_x86_feature_detected!("avx512dq")
            || !std::arch::is_x86_feature_detected!("avx512vl")
            || !std::arch::is_x86_feature_detected!("avx512vnni")
        {
            return false;
        }
        // CPUID.(EAX=7,ECX=0):EDX bit 24 = AMX-TILE, bit 25 = AMX-INT8.
        let leaf7 = core::arch::x86_64::__cpuid_count(7, 0);
        if leaf7.edx & (1 << 24) == 0 || leaf7.edx & (1 << 25) == 0 {
            return false;
        }
        request_tile_permission()
    })
}

/// Asks the kernel for the AMX tile-data XSAVE component. Returns
/// whether the request succeeded; on failure (old kernel, seccomp,
/// disabled XCR0) the dispatcher simply never selects the AMX tier.
fn request_tile_permission() -> bool {
    let ret: i64;
    // SAFETY: raw `arch_prctl(ARCH_REQ_XCOMP_PERM, XTILEDATA)` syscall
    // (x86-64 number 158); it touches no memory and only rcx/r11 are
    // clobbered beyond the declared registers.
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") 158u64 => ret,
            in("rdi") ARCH_REQ_XCOMP_PERM,
            in("rsi") XFEATURE_XTILEDATA,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// The reduction depth of one tile step of a `k`-deep GEMM: 64, or a
/// shorter reduction rounded up to a whole quad — what the A tiles are
/// wide and four times what the B tiles are deep.
pub(crate) fn tile_depth(k: usize) -> usize {
    k.next_multiple_of(4).clamp(4, 64)
}

/// Loads the tile configuration of a band whose steps are `depth`
/// bytes deep (palette 1): the accumulator tiles tmm0–tmm3 are 16 rows
/// of 16 i32, the A tiles tmm4/tmm5 16 activation rows of `depth` u8,
/// the B tiles tmm6/tmm7 `depth / 4` quad rows of 64 i8. Loaded once
/// per band.
///
/// # Safety
/// Caller must have verified [`amx_available`]; `depth` is a
/// [`tile_depth`].
unsafe fn configure_tiles(depth: usize) {
    #[repr(C, align(64))]
    struct TileCfg([u8; 64]);
    let mut cfg = TileCfg([0u8; 64]);
    cfg.0[0] = 1; // palette 1
    for t in 0..8 {
        // colsb (little-endian u16) and rows.
        let (colsb, rows) = match t {
            4 | 5 => (depth, 16),
            6 | 7 => (64, depth / 4),
            _ => (64, 16),
        };
        cfg.0[16 + 2 * t] = colsb as u8;
        cfg.0[48 + t] = rows as u8;
    }
    // SAFETY: per caller contract AMX is permitted; the config block is
    // a valid 64-byte palette-1 descriptor.
    unsafe {
        asm!("ldtilecfg [{0}]", in(reg) cfg.0.as_ptr(), options(nostack, readonly));
    }
}

/// Returns the tile register file to the init state so subsequent
/// context switches don't carry 8 KiB of dead tile state.
///
/// # Safety
/// Caller must have verified [`amx_available`].
unsafe fn release_tiles() {
    // SAFETY: per caller contract AMX is permitted; tilerelease has no
    // operands and no memory effects.
    unsafe {
        asm!("tilerelease", options(nostack, nomem));
    }
}

/// Whether the tile grid covers part of a band of `rows` rows: it needs
/// one 16-row group. Below that the band kernel is the VNNI one.
pub(crate) fn tile_grid_engages(rows: usize) -> bool {
    rows >= 16
}

/// One `RA·16`-row × `CB·16`-column output block (`RA`, `CB` ∈ {1, 2}):
/// the i32 image of the accumulator tiles, row stride 32.
#[repr(C, align(64))]
pub(crate) struct CBlock(pub(crate) [i32; 32 * 32]);

/// Zeroes the four accumulator tiles (tmm0–tmm3).
///
/// # Safety
/// Caller must have verified [`amx_available`] and loaded
/// [`configure_tiles`].
#[inline(always)]
unsafe fn zero_accumulators() {
    // SAFETY: per the caller contract the tile unit is configured; the
    // instructions touch no memory.
    unsafe {
        asm!(
            "tilezero tmm0",
            "tilezero tmm1",
            "tilezero tmm2",
            "tilezero tmm3",
            options(nostack, nomem),
        );
    }
}

/// Accumulates `steps` k-steps into the accumulator tiles of an
/// `RA·16 × CB·16` block: tmm0/tmm1 the first row group's two column
/// strips, tmm2/tmm3 the second's. Per step one A tile per row group
/// (tmm4/tmm5, 16 rows of the configured depth `a_stride` apart,
/// advancing 64 bytes) and one B tile per strip (tmm6/tmm7, consecutive
/// quad rows of the panel, advancing to the strip's next k-tile). The
/// 2×2 shape is the throughput kernel: four `tdpbusd` per four
/// `tileloadd` (1×2 and 2×1 pay three loads for two), which matters
/// because the tile loads, not the multiplies, bound the smaller shapes.
///
/// # Safety
/// Caller must have verified [`amx_available`] and loaded
/// [`configure_tiles`] with some `depth`. For `g < RA`, `a.add(g · 16 ·
/// a_stride)` must point at 16 rows of `64 · (steps - 1) + depth`
/// readable bytes, `a_stride` apart; for `s < CB`, `b.add(s · b_strip)`
/// at `steps` readable B tiles of [`TILE_QUADS`] quad rows.
#[inline(always)]
unsafe fn accumulate<const RA: usize, const CB: usize>(
    a: *const u8,
    a_stride: usize,
    b: *const QuadRow,
    b_strip: usize,
    steps: usize,
) {
    // Second row group / strip; never dereferenced when RA / CB is 1.
    let (mut a0, mut a1) = (a, a.wrapping_add(16 * a_stride));
    let (mut b0, mut b1) = (b, b.wrapping_add(b_strip));
    for _ in 0..steps {
        // SAFETY: per the caller contract every tileloadd window of
        // this step is readable; the tile registers are configured and
        // no compiler-generated code touches them.
        unsafe {
            match (RA, CB) {
                (2, 2) => asm!(
                    "tileloadd tmm4, [{a0} + {sa}]",
                    "tileloadd tmm6, [{b0} + {sb}]",
                    "tileloadd tmm7, [{b1} + {sb}]",
                    "tdpbusd tmm0, tmm4, tmm6",
                    "tileloadd tmm5, [{a1} + {sa}]",
                    "tdpbusd tmm1, tmm4, tmm7",
                    "tdpbusd tmm2, tmm5, tmm6",
                    "tdpbusd tmm3, tmm5, tmm7",
                    a0 = in(reg) a0,
                    a1 = in(reg) a1,
                    b0 = in(reg) b0,
                    b1 = in(reg) b1,
                    sa = in(reg) a_stride,
                    sb = in(reg) 64usize,
                    options(nostack, readonly),
                ),
                (1, 2) => asm!(
                    "tileloadd tmm4, [{a0} + {sa}]",
                    "tileloadd tmm6, [{b0} + {sb}]",
                    "tileloadd tmm7, [{b1} + {sb}]",
                    "tdpbusd tmm0, tmm4, tmm6",
                    "tdpbusd tmm1, tmm4, tmm7",
                    a0 = in(reg) a0,
                    b0 = in(reg) b0,
                    b1 = in(reg) b1,
                    sa = in(reg) a_stride,
                    sb = in(reg) 64usize,
                    options(nostack, readonly),
                ),
                (2, 1) => asm!(
                    "tileloadd tmm6, [{b0} + {sb}]",
                    "tileloadd tmm4, [{a0} + {sa}]",
                    "tileloadd tmm5, [{a1} + {sa}]",
                    "tdpbusd tmm0, tmm4, tmm6",
                    "tdpbusd tmm2, tmm5, tmm6",
                    a0 = in(reg) a0,
                    a1 = in(reg) a1,
                    b0 = in(reg) b0,
                    sa = in(reg) a_stride,
                    sb = in(reg) 64usize,
                    options(nostack, readonly),
                ),
                _ => asm!(
                    "tileloadd tmm4, [{a0} + {sa}]",
                    "tileloadd tmm6, [{b0} + {sb}]",
                    "tdpbusd tmm0, tmm4, tmm6",
                    a0 = in(reg) a0,
                    b0 = in(reg) b0,
                    sa = in(reg) a_stride,
                    sb = in(reg) 64usize,
                    options(nostack, readonly),
                ),
            }
        }
        a0 = a0.wrapping_add(64);
        a1 = a1.wrapping_add(64);
        b0 = b0.wrapping_add(TILE_QUADS);
        b1 = b1.wrapping_add(TILE_QUADS);
    }
}

/// Stores the live accumulator tiles of an `RA·16 × CB·16` block into
/// `c` (tile `(g, s)` at row `16g`, column `16s`).
///
/// # Safety
/// Caller must have verified [`amx_available`] and loaded
/// [`configure_tiles`].
#[inline(always)]
unsafe fn store_accumulators<const RA: usize, const CB: usize>(c: &mut CBlock) {
    let c = c.0.as_mut_ptr();
    // SAFETY: each tilestored writes 16 rows of 64 bytes, 128 bytes
    // apart, from row 16g and column 16s of the 32 × 32 i32 block — all
    // inside `c`; the tile unit is configured per the caller contract.
    unsafe {
        asm!("tilestored [{c} + {cs}], tmm0", c = in(reg) c, cs = in(reg) 128usize, options(nostack));
        if CB == 2 {
            asm!("tilestored [{c} + {cs}], tmm1", c = in(reg) c.add(16), cs = in(reg) 128usize, options(nostack));
        }
        if RA == 2 {
            asm!("tilestored [{c} + {cs}], tmm2", c = in(reg) c.add(16 * 32), cs = in(reg) 128usize, options(nostack));
        }
        if RA == 2 && CB == 2 {
            asm!("tilestored [{c} + {cs}], tmm3", c = in(reg) c.add(16 * 32 + 16), cs = in(reg) 128usize, options(nostack));
        }
    }
}

/// The output rows of a band's row block: block row `r` is output row
/// `first + r`, or entry `r` of a view's table (`None`: a garbage row,
/// stored nowhere).
#[derive(Clone, Copy)]
pub(crate) enum Rows<'t> {
    From(usize),
    Table(&'t [Option<usize>]),
}

impl<'t> Rows<'t> {
    /// The rows from block row `r` on.
    fn skip(self, r: usize) -> Rows<'t> {
        match self {
            Rows::From(first) => Rows::From(first + r),
            Rows::Table(table) => Rows::Table(&table[r..]),
        }
    }
}

/// Where a C block's requantised rows go: block row `r` to `at + row·n`
/// for its output row under `rows`. A plain value, so the epilogue
/// inlines the address of every row.
#[derive(Clone, Copy)]
pub(crate) struct BlockRows<'t> {
    pub(crate) at: *mut u8,
    pub(crate) n: usize,
    pub(crate) rows: Rows<'t>,
}

impl BlockRows<'_> {
    /// The destination of block row `r`, if it has one.
    #[inline(always)]
    fn row(&self, r: usize) -> Option<*mut u8> {
        let row = match self.rows {
            Rows::From(first) => first + r,
            Rows::Table(table) => table[r]?,
        };
        Some(self.at.wrapping_add(row * self.n))
    }
}

/// Requantises the leading `rows × cols` corner of a C block of `CB`
/// column strips — [`simd::requantize`]'s `map[clamp(v >> shift, 0,
/// clamp)]`, 64 accumulators per [`simd::x86::Requant512::bytes`] —
/// and stores block row `r` at `out.row(r)`, or nowhere when that is
/// `None`.
/// Two strips (`CB = 2`): rows `r` and `r + 1` are 64 consecutive i32 of
/// the block, narrowed in order, and two masked 32-byte stores write
/// their first `cols` bytes. One strip (`CB = 1`, whose second strip was
/// never multiplied): the first sixteen i32 of rows `r .. r + 4`, then
/// four masked 16-byte stores. Columns past `cols` (the dead columns of
/// a padded last strip) are masked out of the store.
///
/// # Safety
/// Caller must ensure AVX-512F, BW and VL are available, `rows <= 32` is
/// a multiple of 4, `1 <= cols <= 16 · CB` and every `out.row(r)` that
/// is not `None` points at `cols` writable bytes.
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
pub(crate) unsafe fn requantize_block<const CB: usize>(
    c: &CBlock,
    rows: usize,
    cols: usize,
    requant: &Requant512,
    out: BlockRows<'_>,
) {
    if CB == 1 {
        let lanes = (u16::MAX >> (16 - cols)) as __mmask16;
        for r in (0..rows).step_by(4) {
            // SAFETY: the first sixteen i32 of block row r + j < 32,
            // aligned.
            let v = std::array::from_fn(|j| unsafe {
                _mm512_load_si512(c.0.as_ptr().add((r + j) * 32) as *const _)
            });
            let bytes = requant.bytes(v);
            let quarters = [
                _mm512_castsi512_si128(bytes),
                _mm512_extracti32x4_epi32::<1>(bytes),
                _mm512_extracti32x4_epi32::<2>(bytes),
                _mm512_extracti32x4_epi32::<3>(bytes),
            ];
            for (j, quarter) in quarters.into_iter().enumerate() {
                if let Some(dst) = out.row(r + j) {
                    // SAFETY: `cols` bytes at `dst`, writable per the
                    // caller contract.
                    unsafe { _mm_mask_storeu_epi8(dst as *mut i8, lanes, quarter) };
                }
            }
        }
        return;
    }
    let lanes = (u32::MAX >> (32 - cols)) as __mmask32;
    for r in (0..rows).step_by(2) {
        // SAFETY: rows r and r + 1 < 32 of the 32 × 32 block are its 64
        // i32 from r · 32, each load sixteen of them, aligned.
        let v = std::array::from_fn(|j| unsafe {
            _mm512_load_si512(c.0.as_ptr().add(r * 32 + 16 * j) as *const _)
        });
        let bytes = requant.bytes(v);
        let halves = [
            _mm512_castsi512_si256(bytes),
            _mm512_extracti64x4_epi64::<1>(bytes),
        ];
        for (j, half) in halves.into_iter().enumerate() {
            if let Some(dst) = out.row(r + j) {
                // SAFETY: `cols` bytes at `dst`, writable per the caller
                // contract.
                unsafe { _mm256_mask_storeu_epi8(dst as *mut i8, lanes, half) };
            }
        }
    }
}

/// Stages the `k % 64` reduction tail of each `k`-byte row of `a_block`
/// as one zero-padded line of `a_tail` — for a row block whose
/// in-place tail windows would leave `a`: a byte-masked load, whose
/// masked-off bytes read as zero and are never accessed (the last row's
/// tail ends where `a_block` ends), and a whole-line store.
///
/// # Safety
/// Caller must ensure AVX-512F and AVX-512BW are available.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn stage_tail(a_block: &[u8], k: usize, a_tail: &mut [Line<u8>]) {
    let ktail = k % 64;
    let mask = (1u64 << ktail) - 1;
    for (Line(dst), row) in a_tail.iter_mut().zip(a_block.chunks_exact(k)) {
        // SAFETY: the live bytes are the last `ktail` of `row`; `dst`
        // is one aligned line.
        unsafe {
            let tail = _mm512_maskz_loadu_epi8(mask, row[k - ktail..].as_ptr() as *const i8);
            _mm512_store_si512(dst.as_mut_ptr() as *mut _, tail);
        }
    }
}

/// How the tile grid reads each row's reduction in place: `segments`
/// runs of tile steps, run `j` starting `j · seg_stride` bytes past the
/// row's start, consecutive rows `stride` bytes apart. A matrix is one
/// run at stride `k`; an [`Im2colView`] one run per kernel row at
/// stride `c`, a padded map row apart.
#[derive(Clone, Copy)]
struct Walk {
    stride: usize,
    segments: usize,
    seg_stride: usize,
}

impl Walk {
    /// Bytes past its start that a row's windows read, at `steps` steps
    /// per run whose last is `depth` wide (in place it runs past a `k %
    /// 64` tail into the next row's bytes, which meet the panel's zero
    /// padding).
    fn reach(&self, steps: usize, depth: usize) -> usize {
        let run = steps.checked_sub(1).map_or(0, |s| 64 * s + depth);
        (self.segments - 1) * self.seg_stride + run
    }
}

/// One `RA·16`-row × `CB·16`-strip output block, start to finish: the
/// whole reduction in tile registers — `steps` k-steps per run of
/// `walk` read in place from `a`, run `j` against the panel's tiles
/// from `j · steps`, then, for a staged row block, the `k % 64` tail as
/// one more step read from the staged `a_tail` rows (stride 64) —
/// stored to the caller's scratch block `c` and requantised to the rows
/// `out` gives.
///
/// # Safety
/// [`accumulate`]'s contract for every run of `a` over `steps` steps at
/// the walk's stride, for `a_tail` (when there is one) over one step of
/// line rows and for `b` over `segments · steps` tiles, plus one for a
/// staged tail; [`requantize_block`]'s for `out`, with `cols` live
/// columns.
#[allow(clippy::too_many_arguments)]
unsafe fn tile_block<const RA: usize, const CB: usize>(
    a: *const u8,
    walk: Walk,
    steps: usize,
    a_tail: Option<*const Line<u8>>,
    b: *const QuadRow,
    b_strip: usize,
    c: &mut CBlock,
    cols: usize,
    requant: &Requant512,
    out: BlockRows<'_>,
) {
    // SAFETY: the caller's contract, clause by clause.
    unsafe {
        zero_accumulators();
        for j in 0..walk.segments {
            let (a, b) = (a.add(j * walk.seg_stride), b.add(j * steps * TILE_QUADS));
            accumulate::<RA, CB>(a, walk.stride, b, b_strip, steps);
        }
        if let Some(a_tail) = a_tail {
            accumulate::<RA, CB>(a_tail.cast(), 64, b.add(steps * TILE_QUADS), b_strip, 1);
        }
        store_accumulators::<RA, CB>(c);
        requantize_block::<CB>(c, 16 * RA, cols, requant, out);
    }
}

/// The grid's operands shared by every row block of a band.
struct Grid<'g> {
    a: &'g [u8],
    walk: Walk,
    depth: usize,
    quads: &'g [QuadRow],
    /// Panel rows of one column strip.
    b_strip: usize,
    n: usize,
    requant: Requant512,
}

/// One row block of the tile grid through every column strip pair, in
/// 32-row groups: row `r` of the block reads its windows from `a` at
/// `first + r · stride` (`steps` per run, then staged tail line `r` when
/// there is a `tail`), and its requantised bytes go to its output row
/// under `rows` in `out` (row stride `n`), or nowhere for a garbage row.
///
/// # Safety
/// The tile unit is configured at the grid's depth; `mrows` is a
/// multiple of 16; every window the `debug_assert`s below name is
/// inside `a` and the tail, the panel holds `b_strip` rows per strip of
/// `n`, and every row `rows` gives is a row of `out`.
#[allow(clippy::too_many_arguments)]
unsafe fn row_block(
    grid: &Grid<'_>,
    first: usize,
    mrows: usize,
    steps: usize,
    tail: Option<&[Line<u8>]>,
    c: &mut CBlock,
    out: &mut [u8],
    rows: Rows<'_>,
) {
    let Grid {
        a,
        walk,
        depth,
        quads,
        b_strip,
        n,
        ref requant,
    } = *grid;
    for s in (0..n.div_ceil(16)).step_by(2) {
        let cols = (n - 16 * s).min(32);
        let b = quads[s * b_strip..].as_ptr();
        for r in (0..mrows).step_by(32) {
            // Every tile load of the block below reads rows r .. + 16·RA
            // of the block, `walk.reach(steps)` bytes from each row
            // start, the staged tail's rows r .. + 16·RA, and the tiles
            // of strips s .. s + CB of the panel.
            let ra = if r + 32 <= mrows { 2 } else { 1 };
            let block = match (ra, cols > 16) {
                (2, true) => tile_block::<2, 2>,
                (2, false) => tile_block::<2, 1>,
                (_, true) => tile_block::<1, 2>,
                (_, false) => tile_block::<1, 1>,
            };
            let last = first + (r + 16 * ra - 1) * walk.stride;
            debug_assert!(
                last + walk.reach(steps, depth) <= a.len(),
                "an in-place window leaves a"
            );
            debug_assert!(tail.is_none_or(|t| r + 16 * ra <= t.len()));
            debug_assert!((s + cols.div_ceil(16)) * b_strip <= quads.len());
            let a_rows = a[first + r * walk.stride..].as_ptr();
            let tail = tail.map(|t| t[r..].as_ptr());
            let block_rows = BlockRows {
                at: out[16 * s..].as_mut_ptr(),
                n,
                rows: rows.skip(r),
            };
            // SAFETY: the windows asserted above are what the block
            // reads (the slice `a_rows` comes from runs to the end of
            // `a`); it writes `cols` bytes from column 16s of the rows of
            // `out` that `rows` gives.
            unsafe {
                block(
                    a_rows, walk, steps, tail, b, b_strip, c, cols, requant, block_rows,
                )
            };
        }
    }
}

/// AMX band kernel: the 16×16×64 tile grid computed by `tdpbusd` over
/// the whole of `n` and `k` (see the module docs for the loop order),
/// the `rows % 16` row remainder — and any band the grid cannot engage
/// on — by the VNNI strips from the same panel. Both accumulate in
/// wrapping i32, so the bytes are the scalar oracle's by the
/// associativity argument in [`crate::simd`].
///
/// # Safety
/// Caller must ensure [`amx_available`] returned true (the dispatch
/// table only offers this row in that case), `quads` is the quad panel
/// ([`crate::simd::quad_panel_rows`]) of the `args.k × args.n` matrix,
/// `r1 <= m`, and `out_band.len() == (r1 - r0) * n`.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
pub(crate) unsafe fn band_amx(
    args: &BandArgs<'_>,
    quads: &[QuadRow],
    scratch: &mut BandScratch,
    r0: usize,
    r1: usize,
    out_band: &mut [u8],
) {
    let BandArgs {
        a,
        k,
        n,
        shift,
        clamp,
        map,
        tiles: TilePlan { mb, .. },
        ..
    } = *args;
    let rows = r1 - r0;
    if !tile_grid_engages(rows) {
        // SAFETY: amx_available() verified AVX-512F, BW + VNNI; operand
        // contract is the caller's, unchanged.
        return unsafe { simd::x86::band_avx512vnni(args, quads, scratch, r0, r1, out_band) };
    }
    debug_assert!(r1 * k <= a.len());
    debug_assert_eq!(quads.len(), simd::quad_panel_rows(k, n));
    debug_assert_eq!(out_band.len(), rows * n);

    let kfull = k / 64;
    let depth = tile_depth(k);
    let walk = Walk {
        stride: k,
        segments: 1,
        seg_stride: 0,
    };
    let whole = k.div_ceil(64);
    // Rows `R` whose windows `[R·k, R·k + reach(whole))` end inside `a`.
    // A row block reaching past them has its tails staged instead.
    let in_place_rows = a
        .len()
        .checked_sub(walk.reach(whole, depth))
        .map_or(0, |room| room.checked_div(k).map_or(usize::MAX, |q| q + 1));
    let tile_rows = rows & !15;
    let mb = mb.clamp(16, tile_rows).next_multiple_of(16);
    let a_tail = &mut scratch.a_tail;
    if r0 + tile_rows > in_place_rows {
        a_tail.resize(mb, Line([0; 64]));
    }
    let mut c = CBlock([0; 32 * 32]);
    let grid = Grid {
        a,
        walk,
        depth,
        quads,
        b_strip: whole * TILE_QUADS,
        n,
        requant: Requant512::new(shift, clamp, map),
    };

    // SAFETY: amx_available() held at dispatch resolution; `depth` is
    // this GEMM's tile depth.
    unsafe { configure_tiles(depth) };
    for rb in (0..tile_rows).step_by(mb) {
        let mrows = mb.min(tile_rows - rb);
        let row0 = r0 + rb;
        let tail = if row0 + mrows <= in_place_rows {
            None
        } else {
            debug_assert!((row0 + mrows - 1) * k + walk.reach(whole, depth) > a.len());
            let a_block = &a[row0 * k..][..mrows * k];
            // SAFETY: amx_available() verified AVX-512F + BW.
            unsafe { stage_tail(a_block, k, a_tail) };
            Some(&a_tail[..])
        };
        let steps = if tail.is_some() { kfull } else { whole };
        // SAFETY: configured above; `row_block` asserts each window it
        // reads, and rows rb .. rb + mrows are rows of `out_band`.
        unsafe {
            row_block(
                &grid,
                row0 * k,
                mrows,
                steps,
                tail,
                &mut c,
                out_band,
                Rows::From(rb),
            )
        };
    }
    // SAFETY: amx_available() held; leaves the tile file in init state.
    unsafe { release_tiles() };

    if tile_rows < rows {
        // Row remainder (< 16 rows): the VNNI strips, each group of
        // strips over the whole reduction — the panel's linear order.
        let acc = &mut scratch.acc;
        acc.clear();
        acc.resize((rows - tile_rows) * n, 0);
        // SAFETY: amx_available() verified AVX-512F + VNNI; rows
        // r0 + tile_rows .. r1 are inside `a` and `acc` holds them.
        unsafe {
            simd::x86::rows512(
                a,
                k,
                n,
                quads,
                acc,
                r0 + tile_rows,
                rows - tile_rows,
                k.div_ceil(4).max(1),
            );
        }
        // SAFETY: amx_available() verified AVX-512F + BW.
        unsafe { simd::x86::requantize512(acc, shift, clamp, map, &mut out_band[tile_rows * n..]) };
    }
}

/// The AMX band over a stride-1 conv's [`Im2colView`], read in place:
/// the tile grid runs over the view's virtual rows
/// ([`Im2colView::tile_rows`], whole 16-row groups of the padded-width
/// matrix) at row stride `c`, one run of `kw·c / 64` steps per kernel
/// row with the accumulators kept across the `kh` runs, and each block's
/// epilogue stores only the virtual rows that are matrix rows, into the
/// ordinary `m × n` product. No row remainder: the garbage rows round
/// the grid up instead. `args.a` is unused and `args.tiles` is the
/// blocking of the virtual shape.
///
/// # Safety
/// Caller must ensure [`amx_available`] returned true, the view's
/// kernel rows are whole tile steps (`kw·c % 64 == 0`), its map holds
/// [`Im2colView::reach`] bytes, `quads` is the quad panel of the
/// `args.k × args.n` weights with `args.k` the view's depth, and
/// `out.len() == view.rows() · n`.
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512vnni")]
pub(crate) unsafe fn band_amx_view(
    view: &Im2colView<'_>,
    args: &BandArgs<'_>,
    quads: &[QuadRow],
    scratch: &mut BandScratch,
    out: &mut [u8],
) {
    let BandArgs {
        k,
        n,
        shift,
        clamp,
        map,
        tiles: TilePlan { mb, .. },
        ..
    } = *args;
    let (a, c, wp, (kh, kw)) = view.parts();
    let rows = view.tile_rows();
    debug_assert!((kw * c).is_multiple_of(64) && rows >= 16);
    debug_assert!(view.reach() <= a.len());
    debug_assert_eq!(quads.len(), simd::quad_panel_rows(k, n));
    debug_assert_eq!(out.len(), view.rows() * n);

    let grid = Grid {
        a,
        walk: Walk {
            stride: c,
            segments: kh,
            seg_stride: wp * c,
        },
        depth: 64,
        quads,
        b_strip: k.div_ceil(64) * TILE_QUADS,
        n,
        requant: Requant512::new(shift, clamp, map),
    };
    let mb = mb.clamp(16, rows).next_multiple_of(16);
    let dest = &mut scratch.dest;
    let mut c = CBlock([0; 32 * 32]);
    // SAFETY: amx_available() held at dispatch resolution; a view's steps
    // are whole tiles.
    unsafe { configure_tiles(64) };
    for rb in (0..rows).step_by(mb) {
        let mrows = mb.min(rows - rb);
        dest.clear();
        dest.extend(view.matrix_rows(rb, mrows));
        // SAFETY: configured above; `row_block` asserts each window it
        // reads, and `dest` gives rows of the `view.rows()`-row `out`.
        unsafe {
            row_block(
                &grid,
                rb * grid.walk.stride,
                mrows,
                kw * grid.walk.stride / 64,
                None,
                &mut c,
                out,
                Rows::Table(dest),
            )
        };
    }
    // SAFETY: amx_available() held; leaves the tile file in init state.
    unsafe { release_tiles() };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{ByteMap, KernelIsa, PanelKind, WeightPanel};

    fn reference(
        a: &[u8],
        (m, k, n): (usize, usize, usize),
        wd: &[i8],
        shift: u8,
        clamp: u8,
    ) -> Vec<u8> {
        let mut out = vec![0u8; m * n];
        for r in 0..m {
            for j in 0..n {
                let mut sum = 0i32;
                for kk in 0..k {
                    sum = sum.wrapping_add(a[r * k + kk] as i32 * wd[kk * n + j] as i32);
                }
                out[r * n + j] = (sum >> shift).clamp(0, clamp as i32) as u8;
            }
        }
        out
    }

    /// Seeded operands of an `m × k × n` GEMM, `a` exactly `m · k`
    /// bytes (no line padding), and the weights' quad panel.
    fn operands(m: usize, k: usize, n: usize) -> (Vec<u8>, Vec<i8>, WeightPanel) {
        let a: Vec<u8> = (0..m * k)
            .map(|i| ((i * 37 + 11) % 23) as u8 % 16)
            .collect();
        let wd: Vec<i8> = (0..k * n).map(|i| (((i * 13) % 11) as i8) - 5).collect();
        let panel = WeightPanel::of_kind(PanelKind::Quads, &wd, k, n);
        (a, wd, panel)
    }

    /// The in-place tails and the staging boundary: `a` is a `Vec` of
    /// exactly `m · k` bytes, so a tail window one byte past it fails
    /// the kernel's `debug_assert`s (the suite runs with them on) — and
    /// every row block either reads its tails in place or, past the
    /// last row whose windows end inside `a`, stages them. Row blocks
    /// of 16, 32 and 48 rows and the whole band; short depths with `k %
    /// 4 ≠ 0` (the A tiles' last quad runs one to three bytes into the
    /// next row), `k % 64` tails behind whole k-steps, half-dead last
    /// strips, the u8 clamp and an activation ceiling with and without
    /// a map.
    #[test]
    fn tails_read_in_place_up_to_the_end_of_a() {
        if !KernelIsa::AmxInt8.supported() {
            eprintln!("AMX not available; skipping");
            return;
        }
        let reverse = ByteMap::new(std::array::from_fn(|v| 15 - v as u8)).expect("entries ≤ 15");
        for &(m, k, n) in &[
            (64usize, 27usize, 24usize),
            (48, 5, 8),
            (97, 26, 40),
            (80, 1, 16),
            (112, 131, 20),
            (33, 195, 7),
        ] {
            let (a, wd, panel) = operands(m, k, n);
            let quads = panel.quads();
            for mb in [16, 32, 48, m] {
                for (clamp, map) in [
                    (255u8, ByteMap::IDENTITY),
                    (15, ByteMap::IDENTITY),
                    (15, reverse),
                ] {
                    let args = BandArgs {
                        a: &a,
                        k,
                        n,
                        shift: 2,
                        clamp,
                        map,
                        tiles: TilePlan { mb, kb: 128 },
                    };
                    let mut scratch = BandScratch::default();
                    let mut out = vec![0u8; m * n];
                    // SAFETY: AMX support verified above; operands follow
                    // the band contract (m rows, packed quads, out m·n).
                    unsafe { band_amx(&args, quads, &mut scratch, 0, m, &mut out) };
                    let entries = map.entries();
                    let want: Vec<u8> = reference(&a, (m, k, n), &wd, 2, clamp)
                        .into_iter()
                        .map(|v| {
                            if map.is_identity() {
                                v
                            } else {
                                entries[v as usize]
                            }
                        })
                        .collect();
                    assert_eq!(out, want, "({m},{k},{n}) mb {mb} clamp {clamp} {map:?}");
                }
            }
        }
    }

    /// The view band's windows and stores at the edges of its map and
    /// product: the map is a `Vec` of exactly [`Im2colView::reach`]
    /// bytes (not line-aligned), so a window one byte past it fails the
    /// kernel's `debug_assert`s; virtual rows on a multiple of 16 (no
    /// slack: the last real row's last window ends the map) and off one,
    /// row blocks of 16, 32, 48 rows and the whole grid, one, two and six
    /// tile steps per kernel row, a lone strip, a ragged one and three.
    /// Each product is the materialised matrix's through the oracle, with
    /// an activation ceiling.
    #[test]
    fn a_view_reads_in_place_up_to_the_end_of_its_map() {
        if !KernelIsa::AmxInt8.supported() {
            eprintln!("AMX not available; skipping");
            return;
        }
        // (c, wp, out_h, kernel)
        for &(c, wp, out_h, kernel) in &[
            (64usize, 7usize, 14usize, (3usize, 3usize)), // 13·7 + 5 = 96 rows
            (64, 11, 9, (3, 3)),                          // 97 rows
            (64, 8, 10, (3, 1)),                          // one step a kernel row
            (32, 9, 6, (2, 4)),                           // two taps a step
            (128, 9, 7, (3, 3)),                          // six steps a kernel row
        ] {
            let probe = Im2colView::new(&[], c, wp, out_h, kernel);
            let map: Vec<u8> = (0..probe.reach())
                .map(|i| ((i * 37 + 11) % 23) as u8 % 16)
                .collect();
            let view = Im2colView::new(&map, c, wp, out_h, kernel);
            let (m, k) = (view.rows(), view.depth());
            let mut a = vec![0u8; m * k];
            view.materialise(&mut a);
            for n in [16, 24, 48] {
                let wd: Vec<i8> = (0..k * n).map(|i| (((i * 13) % 11) as i8) - 5).collect();
                let panel = WeightPanel::of_kind(PanelKind::Quads, &wd, k, n);
                let quads = panel.quads();
                let want = reference(&a, (m, k, n), &wd, 4, 15);
                for mb in [16, 32, 48, view.tile_rows()] {
                    let args = BandArgs {
                        a: &[],
                        k,
                        n,
                        shift: 4,
                        clamp: 15,
                        map: ByteMap::IDENTITY,
                        tiles: TilePlan { mb, kb: 128 },
                    };
                    let mut out = vec![0xA5u8; m * n];
                    // SAFETY: AMX support verified above; the view's
                    // kernel rows are whole tile steps, its map holds
                    // `reach()` bytes, the panel is its weights' quads
                    // and `out` is m·n.
                    unsafe {
                        band_amx_view(&view, &args, quads, &mut BandScratch::default(), &mut out)
                    };
                    assert_eq!(
                        out, want,
                        "c {c} wp {wp} out_h {out_h} {kernel:?} n {n} mb {mb}"
                    );
                }
            }
        }
    }

    #[test]
    fn amx_band_matches_oracle_across_ragged_shapes() {
        if !KernelIsa::AmxInt8.supported() {
            eprintln!("AMX not available; skipping");
            return;
        }
        // Full tiles, row/column/reduction tails, and delegation shapes.
        for &(m, k, n) in &[
            (32usize, 128usize, 32usize),
            (37, 130, 48),
            (16, 64, 16),
            (50, 200, 64),
            (19, 67, 16),
            (33, 64, 80),
            (7, 300, 32),    // all rows in the VNNI remainder
            (24, 40, 32),    // k < 64: the whole reduction is one tail tile
            (21, 128, 24),   // a half-dead last strip
            (40, 100, 8),    // one strip, half dead, tail tile
            (15, 128, 32),   // fewer than 16 rows: full delegation
            (129, 191, 112), // multi-block with every tail at once
        ] {
            let (a, wd, panel) = operands(m, k, n);
            let quads = panel.quads();
            // The u8 saturation and an activation ceiling below it.
            for clamp in [255u8, 15] {
                let args = BandArgs {
                    a: &a,
                    k,
                    n,
                    shift: 3,
                    clamp,
                    map: ByteMap::IDENTITY,
                    tiles: TilePlan { mb: 48, kb: 128 },
                };
                let mut scratch = BandScratch::default();
                let mut out = vec![0u8; m * n];
                // SAFETY: AMX support verified above; operands follow the
                // band contract (m rows, packed quads, out sized m*n).
                unsafe { band_amx(&args, quads, &mut scratch, 0, m, &mut out) };
                assert_eq!(
                    out,
                    reference(&a, (m, k, n), &wd, 3, clamp),
                    "shape ({m},{k},{n}) clamp {clamp} diverged from the wrapping oracle"
                );
            }
        }
    }
}
