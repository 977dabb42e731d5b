//! Runtime kernel selection for the blocked GEMM.
//!
//! The host never knows at compile time which SIMD tier it will run on,
//! so the GEMM entry points route through a **one-time-resolved dispatch
//! table**: the first dispatch probes the CPU (`is_x86_feature_detected!`
//! on x86-64; NEON is baseline on aarch64), picks the best available
//! [`KernelIsa`], and memoizes a [`KernelTable`] of function pointers.
//! Every subsequent GEMM is an indirect call — no per-call feature
//! sniffing.
//!
//! The tier is a function of the host. The one override is [`pin_isa`]:
//! a thread-scoped pin, nestable and restored when its guard drops, with
//! which benches and tests compare every tier the host supports within
//! one process. Pinning an ISA the CPU does not support degrades to
//! scalar (never UB). Every kernel whose form depends on the tier reads
//! [`active_isa`] — the pin, else the detection — and nothing else.
//!
//! Every kernel in the table computes bit-identical bytes (see
//! [`crate::simd`] for the argument), so the tier a thread runs on can
//! never change results, only speed.
//!
//! **A GEMM step only multiplies, from the one copy of its weights.**
//! Each kernel reads its weights in one form ([`WeightPanel`]):
//! pair-interleaved i16 for AVX2, one strip-major quad-interleaved i8
//! panel for AVX-512 VNNI and AMX — laid out so a `tdpbusd` tile and a
//! `vpdpbusd` operand are both consecutive, line-aligned bytes — and
//! the row-major bytes for the scalar oracle, NEON and AVX2 below 8
//! columns. A caller that runs the same weights again and again — an
//! inference plan — fills that form once, a k-tile at a time, keeps no
//! other, and passes it to [`try_matmul_panel_into`] on every dispatch;
//! no tier pays an `O(k·n)` pack per dispatch. That is the one GEMM
//! core: it derives the blocking of the tier it resolved
//! ([`crate::tiled::tile_plan`]) and runs its band kernel. The form is
//! fixed with the panel, as the compiler fixes an operator's layout with
//! its instruction: a panel whose form the resolved tier does not read
//! (a [`pin_isa`] taken after the fill) is refused
//! ([`GemmDispatchError::PanelForm`]), never read back or repacked. The
//! matrix-taking entry points ([`try_matmul_threaded_into`],
//! [`crate::matmul_host`]) fill a reused panel for the active tier, then
//! call the same core.
//!
//! **One GEMM, one thread.** Every dispatch runs its band kernel over
//! all `m` rows on the calling thread; callers parallelise between
//! requests, never inside one (DESIGN.md §4d has the measurements).
//!
//! The layout moves that wrap every conv GEMM — CHW → rows before it
//! ([`crate::transpose_clamp_into`] for a pointwise conv,
//! [`crate::im2col_rm_into`] otherwise), rows → CHW after it
//! (`transpose_clamp_into` again) — run through one 16×16 byte-tile
//! network and follow the same tier rule ([`active_isa`] on the calling
//! thread). A stride-1 conv over pixel-major rows stages nothing: its
//! `a` is a [`GemmA::View`] of the padded map, which the AMX tile grid
//! reads in place and every other tier materialises. The VNNI strips finish the `n % 16` trailing columns with
//! one lane-masked zmm strip instead of a scalar tail (see
//! [`crate::simd`]); the AMX tile grid computes the panel's zero-padded
//! last strip whole (see [`crate::amx`]).

use crate::conv::Im2colView;
use crate::simd::{self, Line, QuadRow, TILE_QUADS};
use crate::tiled::{
    tile_plan, validate_dispatch, BandScratch, GemmDispatchError, GemmScratch, TilePlan,
};
use gcd2_tensor::MatrixI8;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::{Mutex, OnceLock};

/// Kernel instruction-set tiers, from the always-available oracle up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KernelIsa {
    /// The scalar blocked loop — the bit-exactness oracle.
    Scalar = 0,
    /// AVX2 `vpmaddwd` micro-kernel (x86-64, runtime-detected).
    Avx2 = 1,
    /// NEON `vmlal` kernel (aarch64 baseline).
    Neon = 2,
    /// AVX-512 VNNI `vpdpbusd` micro-kernel (x86-64, runtime-detected).
    Avx512Vnni = 3,
    /// AMX-INT8 `tdpbusd` tile kernel (x86-64, runtime-detected and
    /// kernel-permission-gated; VNNI strips run the `rows % 16`
    /// remainder).
    AmxInt8 = 4,
}

impl KernelIsa {
    /// Every tier, in tag order; filter by [`KernelIsa::supported`] for
    /// the ones this host can run.
    pub const ALL: [KernelIsa; 5] = [
        KernelIsa::Scalar,
        KernelIsa::Avx2,
        KernelIsa::Neon,
        KernelIsa::Avx512Vnni,
        KernelIsa::AmxInt8,
    ];

    /// Stable lowercase name, used in reports, benches, and JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Scalar => "scalar",
            KernelIsa::Avx2 => "avx2",
            KernelIsa::Neon => "neon",
            KernelIsa::Avx512Vnni => "avx512vnni",
            KernelIsa::AmxInt8 => "amx-int8",
        }
    }

    /// Whether the running CPU can execute this tier.
    pub fn supported(self) -> bool {
        match self {
            KernelIsa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            // Every VNNI part has AVX-512BW, which the epilogue's packs
            // need, and AVX-512DQ, whose `vpmullq` the weight generator's
            // AVX-512 kernel multiplies with.
            KernelIsa::Avx512Vnni => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512vnni")
            }
            #[cfg(target_arch = "x86_64")]
            KernelIsa::AmxInt8 => crate::amx::amx_available(),
            #[cfg(target_arch = "aarch64")]
            KernelIsa::Neon => true,
            #[allow(unreachable_patterns)] // tiers of other architectures
            _ => false,
        }
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Operand bundle every band kernel receives: the full GEMM, with the
/// band row range passed separately.
#[derive(Clone, Copy)]
pub(crate) struct BandArgs<'a> {
    pub a: &'a [u8],
    pub k: usize,
    pub n: usize,
    /// The row-major `k × n` weights when they are the form the kernel
    /// reads ([`panel_kind`]: scalar, NEON, AVX2 below 8 columns);
    /// empty when it reads a packed panel.
    pub wd: &'a [i8],
    pub shift: u8,
    /// Upper bound of the requantised bytes: `clamp((acc >> shift), 0,
    /// clamp)`. 255 is the plain u8 saturation; a plan passes its
    /// activation ceiling so the bytes a GEMM writes are finished.
    pub clamp: u8,
    /// What each clamped byte becomes: the last step of every
    /// requantisation site. The identity costs nothing — each site tests
    /// for it once per call — and any other map comes with `clamp ≤ 15`.
    pub map: ByteMap,
    pub tiles: TilePlan,
}

/// A GEMM epilogue's byte map: the requantised, clamped value `v`
/// becomes entry `v`. An activation is one of the 16 values `0..=15`,
/// so a chain of position-blind unary steps after a GEMM is one such
/// table — an inference plan folds it into the GEMM's requantisation
/// (DESIGN.md §4d, *Epilogue maps*) — and every entry is such a value
/// again. The identity passes any byte through unchanged; any other map
/// is only defined under a clamp of at most 15
/// ([`GemmDispatchError::MapClamp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteMap([u8; 16]);

impl ByteMap {
    /// Every value to itself: what a GEMM without a folded tail runs.
    pub const IDENTITY: ByteMap = ByteMap([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]);

    /// The map with these entries, when each is at most 15.
    pub fn new(entries: [u8; 16]) -> Option<ByteMap> {
        entries.iter().all(|&e| e < 16).then_some(ByteMap(entries))
    }

    /// Entry `v` is what the value `v` becomes.
    pub fn entries(self) -> [u8; 16] {
        self.0
    }

    /// Whether every value maps to itself.
    pub fn is_identity(self) -> bool {
        self == ByteMap::IDENTITY
    }

    /// Entry `v` of `entries` (`v ≤ 15`) as a select: a compare and a
    /// mask per entry, byte lanes only, which LLVM vectorises on every
    /// tier — baseline x86-64 included, where a table read or a per-lane
    /// variable shift of a nibble-packed `u64` does not (DESIGN.md §4d,
    /// *Epilogue maps*, has the per-tier costs).
    #[inline(always)]
    pub(crate) fn select(entries: &[u8; 16], v: u8) -> u8 {
        entries
            .iter()
            .zip(0u8..)
            .fold(0, |m, (&e, k)| m | (e & 0u8.wrapping_sub(u8::from(v == k))))
    }
}

/// Which form of a weight matrix a kernel reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PanelKind {
    /// The row-major `k × n` bytes: the scalar and NEON tiers, the AVX2
    /// tier below 8 columns, and every direct (non-GEMM) kernel.
    #[default]
    Rows,
    /// Pair-interleaved i16 panel ([`simd::push_pairs_i16`], AVX2).
    Pairs,
    /// Strip-major quad-interleaved i8 panel ([`simd::pack_quad_ktile`],
    /// VNNI and AMX: one layout both tiers stream linearly).
    Quads,
}

impl PanelKind {
    /// Stable lowercase name, as a refused dispatch reports it.
    pub(crate) fn name(self) -> &'static str {
        match self {
            PanelKind::Rows => "rows",
            PanelKind::Pairs => "pairs",
            PanelKind::Quads => "quads",
        }
    }
}

/// Weight rows per k-tile: the unit a [`WeightPanel`] is filled and read
/// back in — one quad tile deep, 32 row pairs.
pub const KTILE_ROWS: usize = 64;

/// The one resident copy of a `k × n` weight matrix, in the one form
/// the kernel that reads it wants: the quad panel on the VNNI and AMX
/// tiers, the pair panel on AVX2, the row-major bytes on the scalar and
/// NEON tiers, below 8 columns on AVX2 (`panel_kind`) and for a
/// direct kernel ([`WeightPanel::row_major`]).
///
/// A panel is filled a k-tile at a time ([`WeightPanel::push_ktile`])
/// and read back the same way ([`WeightPanel::for_each_ktile`]): packing
/// and unpacking are the two directions of one layout map, so the panel
/// stands in for the row-major matrix everywhere — a plan keeps no
/// other copy. A plan fills one per GEMM, once, and hands it to
/// [`try_matmul_panel_into`] on every dispatch; the matrix-taking entry
/// points refill a reused one per call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightPanel {
    kind: PanelKind,
    k: usize,
    n: usize,
    /// Rows installed so far: `k` once the panel is complete.
    filled: usize,
    rows: Vec<i8>,
    pairs: Vec<i16>,
    quads: Vec<QuadRow>,
}

impl WeightPanel {
    /// An empty `k × n` panel in the form the GEMM kernel of the tier
    /// [`active_isa`] resolves on this thread reads (`panel_kind`),
    /// to be filled by [`WeightPanel::push_ktile`].
    pub fn for_gemm(k: usize, n: usize) -> WeightPanel {
        WeightPanel::empty(panel_kind(active_isa(), n), k, n)
    }

    /// An empty row-major `k × n` panel: the form a direct kernel reads.
    pub fn row_major(k: usize, n: usize) -> WeightPanel {
        WeightPanel::empty(PanelKind::Rows, k, n)
    }

    /// `w` in the form [`WeightPanel::for_gemm`] picks.
    pub fn pack(w: &MatrixI8) -> WeightPanel {
        WeightPanel::of_kind(
            panel_kind(active_isa(), w.cols()),
            w.as_slice(),
            w.rows(),
            w.cols(),
        )
    }

    /// The `kind` form of the `k × n` matrix `wd`.
    pub(crate) fn of_kind(kind: PanelKind, wd: &[i8], k: usize, n: usize) -> WeightPanel {
        let mut panel = WeightPanel::default();
        panel.fill(kind, wd, k, n);
        panel
    }

    fn empty(kind: PanelKind, k: usize, n: usize) -> WeightPanel {
        let mut panel = WeightPanel::default();
        panel.reset(kind, k, n);
        panel
    }

    /// Empties the panel into an unfilled `kind` panel of `k × n`,
    /// keeping its buffers; the other forms' buffers are emptied, so a
    /// stale form can never be consumed. Quads are zeroed: a tile
    /// writes only its weight bytes, the padding stays.
    fn reset(&mut self, kind: PanelKind, k: usize, n: usize) {
        (self.kind, self.k, self.n, self.filled) = (kind, k, n, 0);
        self.rows.clear();
        self.pairs.clear();
        self.quads.clear();
        match kind {
            PanelKind::Rows => self.rows.reserve_exact(k * n),
            PanelKind::Pairs => self.pairs.reserve_exact(k.div_ceil(2) * 2 * n),
            PanelKind::Quads => self
                .quads
                .resize(simd::quad_panel_rows(k, n), Line([0; 64])),
        }
    }

    /// Refills the panel as the `kind` form of the `k × n` matrix `wd`.
    fn fill(&mut self, kind: PanelKind, wd: &[i8], k: usize, n: usize) {
        self.reset(kind, k, n);
        for r0 in (0..k).step_by(KTILE_ROWS) {
            self.push_ktile(&wd[r0 * n..][..KTILE_ROWS.min(k - r0) * n]);
        }
    }

    /// Installs the next k-tile: the row-major bytes of the next
    /// [`KTILE_ROWS`] rows of the matrix, fewer in the last tile, packed
    /// into the panel's form while they are hot. A complete panel takes
    /// only an empty tile, and ignores it.
    ///
    /// # Panics
    /// If `tile` is not exactly the next tile's rows of `n` weights — a
    /// caller bug.
    pub fn push_ktile(&mut self, tile: &[i8]) {
        let rows = KTILE_ROWS.min(self.k - self.filled);
        assert_eq!(tile.len(), rows * self.n, "a k-tile of {rows} rows");
        if !tile.is_empty() {
            let t = self.filled / KTILE_ROWS;
            let strip = self.k.div_ceil(KTILE_ROWS) * TILE_QUADS;
            match self.kind {
                PanelKind::Rows => self.rows.extend_from_slice(tile),
                PanelKind::Pairs => simd::push_pairs_i16(tile, self.n, &mut self.pairs),
                PanelKind::Quads => {
                    simd::pack_quad_ktile(tile, self.n, &mut self.quads[t * TILE_QUADS..], strip)
                }
            }
        }
        self.filled += rows;
    }

    /// Calls `f` with each installed k-tile in order — [`KTILE_ROWS`]
    /// rows of the row-major weights, fewer in the last — unpacked into
    /// `tile` (a row-major panel lends its own bytes): how the weights
    /// are read back without a second copy of the matrix.
    pub fn for_each_ktile(&self, tile: &mut Vec<i8>, mut f: impl FnMut(&[i8])) {
        let n = self.n;
        let strip = self.k.div_ceil(KTILE_ROWS) * TILE_QUADS;
        for t in 0..self.filled.div_ceil(KTILE_ROWS) {
            let rows = KTILE_ROWS.min(self.filled - t * KTILE_ROWS);
            let at = t * KTILE_ROWS * n;
            if self.kind != PanelKind::Rows {
                tile.resize(rows * n, 0);
            }
            match self.kind {
                PanelKind::Rows => f(&self.rows[at..][..rows * n]),
                PanelKind::Pairs => {
                    simd::unpack_pairs_i16(&self.pairs[at..], n, tile);
                    f(tile)
                }
                PanelKind::Quads => {
                    simd::unpack_quad_ktile(&self.quads[t * TILE_QUADS..], n, strip, tile);
                    f(tile)
                }
            }
        }
    }

    /// Whether the panel is complete and every byte of it that holds no
    /// weight is what packing leaves there: the rows past `k` of the
    /// last k-tile and the columns past `n` of the last strip of a quad
    /// panel zero, the missing partner of an odd last row pair zero, and
    /// the high byte of every pair element the sign of its low byte.
    /// With the digest of what [`WeightPanel::for_each_ktile`] reads
    /// back, this covers every byte a kernel reads.
    pub fn padding_is_clean(&self) -> bool {
        let (k, n) = (self.k, self.n);
        let forms = [
            (PanelKind::Rows, self.rows.len(), k * n),
            (PanelKind::Pairs, self.pairs.len(), k.div_ceil(2) * 2 * n),
            (
                PanelKind::Quads,
                self.quads.len(),
                simd::quad_panel_rows(k, n),
            ),
        ];
        let sized = forms
            .iter()
            .all(|&(kind, len, want)| len == if kind == self.kind { want } else { 0 });
        if !sized || self.filled != k {
            return false;
        }
        match self.kind {
            PanelKind::Rows => true,
            PanelKind::Pairs => {
                let widened = self.pairs.iter().all(|&v| v == v as i8 as i16);
                let last = &self.pairs[k / 2 * 2 * n..];
                widened && (k % 2 == 0 || last.iter().skip(1).step_by(2).all(|&v| v == 0))
            }
            PanelKind::Quads => {
                let (kt, strips) = (k.div_ceil(KTILE_ROWS), n.div_ceil(16));
                let weight = |t: usize, s: usize, q: usize, b: usize| {
                    KTILE_ROWS * t + 4 * q + b % 4 < k && 16 * s + b / 4 < n
                };
                (0..strips).all(|s| {
                    (0..kt).all(|t| {
                        let ragged = (t + 1 == kt && k % KTILE_ROWS != 0)
                            || (s + 1 == strips && n % 16 != 0);
                        let quads = &self.quads[(s * kt + t) * TILE_QUADS..][..TILE_QUADS];
                        !ragged
                            || quads.iter().enumerate().all(|(q, Line(d))| {
                                d.iter()
                                    .enumerate()
                                    .all(|(b, &v)| v == 0 || weight(t, s, q, b))
                            })
                    })
                })
            }
        }
    }

    /// Bytes the panel holds, padding included (the quad panel is
    /// padded to whole 16-column strips and 64-deep k-tiles, the pair
    /// panel widens each weight to i16).
    pub fn bytes(&self) -> usize {
        self.rows.len()
            + std::mem::size_of_val(&self.pairs[..])
            + std::mem::size_of_val(&self.quads[..])
    }

    /// The row-major weights, when they are the form the panel holds.
    pub fn as_rows(&self) -> Option<&[i8]> {
        (self.kind == PanelKind::Rows).then_some(&self.rows[..])
    }

    /// The three operand slices a band kernel takes: the one the
    /// panel's form fills, the others empty.
    pub(crate) fn operands(&self) -> (&[i8], &[i16], &[QuadRow]) {
        (&self.rows, &self.pairs, &self.quads)
    }

    /// Test instrumentation: xors `mask` into byte `byte` of what the
    /// panel stores (the bytes of its one form in memory order, padding
    /// included), so a suite can show that every byte is both what
    /// executes and what integrity checking covers. Returns `false` past
    /// the last byte.
    #[doc(hidden)]
    pub fn corrupt_for_test(&mut self, byte: usize, mask: u8) -> bool {
        let mask = mask as i8;
        match self.kind {
            PanelKind::Rows => self.rows.get_mut(byte).map(|v| *v ^= mask),
            PanelKind::Pairs => self.pairs.get_mut(byte / 2).map(|v| {
                *v ^= ((mask as u8 as u16) << (8 * (byte % 2))) as i16;
            }),
            PanelKind::Quads => self
                .quads
                .get_mut(byte / 64)
                .map(|Line(row)| row[byte % 64] ^= mask),
        }
        .is_some()
    }
}

/// A band kernel: computes output rows `[r0, r1)` into `out_band`
/// (`(r1-r0) × n` bytes), working in its [`BandScratch`] and reading
/// whichever packed panel its table row's [`PanelKind`] selects (the
/// other panel argument is empty and ignored).
///
/// # Safety
/// The function may use ISA extensions; callers must obtain it from a
/// [`KernelTable`] whose `isa.supported()` held at resolution time, and
/// uphold the operand contract documented on each kernel.
pub(crate) type BandFn =
    unsafe fn(&BandArgs<'_>, &[i16], &[QuadRow], &mut BandScratch, usize, usize, &mut [u8]);

/// One resolved dispatch-table row.
pub(crate) struct KernelTable {
    pub isa: KernelIsa,
    pub band: BandFn,
    pub panel: PanelKind,
}

/// Adapter giving the scalar oracle the band-kernel ABI.
///
/// # Safety
/// Not actually unsafe — entirely safe code — but must match [`BandFn`].
unsafe fn scalar_entry(
    args: &BandArgs<'_>,
    _panel: &[i16],
    _quads: &[QuadRow],
    scratch: &mut BandScratch,
    r0: usize,
    r1: usize,
    out: &mut [u8],
) {
    crate::tiled::scalar_band(args, &mut scratch.acc, r0, r1, out);
}

static SCALAR_TABLE: KernelTable = KernelTable {
    isa: KernelIsa::Scalar,
    band: scalar_entry,
    panel: PanelKind::Rows,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    isa: KernelIsa::Avx2,
    band: simd::x86::band_avx2,
    panel: PanelKind::Pairs,
};

#[cfg(target_arch = "x86_64")]
static AVX512VNNI_TABLE: KernelTable = KernelTable {
    isa: KernelIsa::Avx512Vnni,
    band: simd::x86::band_avx512vnni,
    panel: PanelKind::Quads,
};

#[cfg(target_arch = "x86_64")]
static AMX_TABLE: KernelTable = KernelTable {
    isa: KernelIsa::AmxInt8,
    band: crate::amx::band_amx,
    panel: PanelKind::Quads,
};

#[cfg(target_arch = "aarch64")]
static NEON_TABLE: KernelTable = KernelTable {
    isa: KernelIsa::Neon,
    band: simd::arm::band_neon,
    panel: PanelKind::Rows,
};

pub(crate) fn table_for(isa: KernelIsa) -> &'static KernelTable {
    match isa {
        KernelIsa::Scalar => &SCALAR_TABLE,
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx2 => &AVX2_TABLE,
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512Vnni => &AVX512VNNI_TABLE,
        #[cfg(target_arch = "x86_64")]
        KernelIsa::AmxInt8 => &AMX_TABLE,
        #[cfg(target_arch = "aarch64")]
        KernelIsa::Neon => &NEON_TABLE,
        #[allow(unreachable_patterns)] // cross-arch variants degrade to the oracle
        _ => &SCALAR_TABLE,
    }
}

#[cfg(target_arch = "x86_64")]
fn best_available() -> KernelIsa {
    if KernelIsa::AmxInt8.supported() {
        KernelIsa::AmxInt8
    } else if KernelIsa::Avx512Vnni.supported() {
        KernelIsa::Avx512Vnni
    } else if KernelIsa::Avx2.supported() {
        KernelIsa::Avx2
    } else {
        KernelIsa::Scalar
    }
}

#[cfg(target_arch = "aarch64")]
fn best_available() -> KernelIsa {
    KernelIsa::Neon
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn best_available() -> KernelIsa {
    KernelIsa::Scalar
}

/// The ISA the one-time detection resolved for this process: the best
/// tier the host supports. Kernels read [`active_isa`], which honours a
/// [`pin_isa`]; this is what a report names as the host's tier.
pub fn detected_isa() -> KernelIsa {
    static DETECTED: OnceLock<KernelIsa> = OnceLock::new();
    *DETECTED.get_or_init(best_available)
}

thread_local! {
    /// This thread's innermost live [`IsaPin`]'s tier, if any.
    static PINNED: Cell<Option<KernelIsa>> = const { Cell::new(None) };
}

/// RAII guard of a thread-scoped tier pin (see [`pin_isa`]). Dropping it
/// restores the pin it replaced. Deliberately `!Send`: the pin is
/// thread-local, so moving the guard to another thread would unpin the
/// wrong one.
#[derive(Debug)]
#[must_use = "the pin lasts until the guard drops"]
pub struct IsaPin {
    outer: Option<KernelIsa>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for IsaPin {
    fn drop(&mut self) {
        PINNED.with(|p| p.set(self.outer));
    }
}

/// Pins every kernel dispatch resolved on the **calling thread** to
/// `isa` until the returned guard drops; other threads keep theirs.
/// Pins nest: the innermost live one wins, and dropping it restores the
/// one it replaced — during unwinding too. A tier the CPU cannot run
/// resolves to scalar (never UB). It is the only way to choose a tier
/// other than the detected one. Every tier computes the same bytes, so
/// a pin changes speed, never output.
pub fn pin_isa(isa: KernelIsa) -> IsaPin {
    let isa = if isa.supported() {
        isa
    } else {
        KernelIsa::Scalar
    };
    IsaPin {
        outer: PINNED.with(|p| p.replace(Some(isa))),
        _not_send: PhantomData,
    }
}

/// The ISA the next kernel dispatch on this thread will use: its
/// innermost [`pin_isa`], else the one-time detection.
pub fn active_isa() -> KernelIsa {
    active_table().isa
}

/// Whether an AVX-512 tier is active on this thread — the test the
/// AVX-512 forms of the depthwise kernels and of the weight generator
/// sit behind. Either tier's [`KernelIsa::supported`] requires
/// AVX-512F, BW and DQ, and [`active_isa`] only resolves a supported
/// tier.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512_tier_active() -> bool {
    matches!(active_isa(), KernelIsa::Avx512Vnni | KernelIsa::AmxInt8)
}

pub(crate) fn active_table() -> &'static KernelTable {
    table_for(PINNED.with(Cell::get).unwrap_or_else(detected_isa))
}

/// A checkout/restore pool of the panel and [`GemmScratch`] buffers
/// [`try_matmul_threaded_into`] fills and works in, so repeated calls
/// allocate nothing. A poisoned pool lock degrades to fresh buffers —
/// never a panic.
#[derive(Debug, Default)]
pub struct ScratchPool {
    inner: Mutex<Vec<(WeightPanel, GemmScratch)>>,
}

impl ScratchPool {
    /// An empty pool; buffers are created on demand and returned on
    /// restore.
    pub fn new() -> Self {
        Self::default()
    }

    fn checkout(&self) -> (WeightPanel, GemmScratch) {
        match self.inner.lock() {
            Ok(mut pool) => pool.pop().unwrap_or_default(),
            Err(_) => Default::default(),
        }
    }

    fn restore(&self, scratch: (WeightPanel, GemmScratch)) {
        if let Ok(mut pool) = self.inner.lock() {
            pool.push(scratch);
        }
    }

    /// Number of idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.inner.lock().map(|p| p.len()).unwrap_or(0)
    }
}

/// A GEMM's `m × k` activation operand as a dispatch receives it.
#[derive(Debug, Clone, Copy)]
pub enum GemmA<'a> {
    /// The row-major `m × k` bytes.
    Matrix(&'a [u8]),
    /// A stride-1 conv's im2col matrix left in its zero-padded map
    /// ([`crate::im2col_rows_view`]): the AMX tile grid reads it in place
    /// ([`GemmA::read_in_place`]), every other tier materialises it into
    /// the dispatch's scratch first, with [`crate::im2col_rows_into`]'s
    /// bytes.
    View(Im2colView<'a>),
}

impl GemmA<'_> {
    /// Whether a dispatch on this thread's active tier multiplies the
    /// operand where it lies: a matrix always; a view on the AMX tile
    /// grid (from 16 rows) when its kernel rows are whole tile steps
    /// (`kw·c % 64 == 0`), the windows one tile load reads. A pure
    /// function of the tier and the view's shape.
    pub fn read_in_place(&self) -> bool {
        self.in_place_on(active_isa())
    }

    fn in_place_on(&self, tier: KernelIsa) -> bool {
        match self {
            GemmA::Matrix(_) => true,
            GemmA::View(view) => {
                let (_, c, _, (_, kw)) = view.parts();
                multiply_isa(tier, view.rows(), 1) == KernelIsa::AmxInt8
                    && (kw * c).is_multiple_of(64)
            }
        }
    }
}

/// The dispatch core under [`try_matmul_panel_into`]: on the `active`
/// tier, whose kernel reads the form `panel` holds, derives that tier's
/// blocking ([`tile_plan`] — a [`pin_isa`] gets the blocking of the
/// tier it lands on) and runs the band kernel over all `m` rows on the
/// calling thread: a view the tier reads in place on the AMX view band,
/// any other view materialised into `scratch` first.
/// Operands are pre-validated by the caller, `out` included: exactly
/// `m × n` bytes, every one of which the kernel overwrites.
#[allow(clippy::too_many_arguments)] // the GEMM operand contract
fn dispatch(
    active: &KernelTable,
    a: GemmA<'_>,
    m: usize,
    k: usize,
    panel: &WeightPanel,
    (shift, clamp, map): (u8, u8, ByteMap),
    scratch: &mut GemmScratch,
    out: &mut [u8],
) {
    let n = panel.n;
    assert_eq!(out.len(), m * n, "output size mismatch");
    if m == 0 || n == 0 {
        return;
    }
    let GemmScratch {
        band,
        a: materialised,
    } = scratch;
    let (wd, pairs, quads) = panel.operands();
    let args = |a, rows| BandArgs {
        a,
        k,
        n,
        wd,
        shift,
        clamp,
        map,
        tiles: tile_plan(rows, k, n, active.isa),
    };
    let a = match a {
        GemmA::Matrix(a) => a,
        #[cfg(target_arch = "x86_64")]
        GemmA::View(view) if a.in_place_on(active.isa) => {
            // SAFETY: the tier is AMX (`in_place_on`), so amx_available()
            // held at resolution; the view's kernel rows are whole tile
            // steps, the caller's validation established that its map
            // holds `reach()` bytes and that it is `m × k`, the panel is
            // the AMX tier's quads of the `k × n` weights and `out` is
            // `m × n`.
            unsafe {
                crate::amx::band_amx_view(&view, &args(&[], view.tile_rows()), quads, band, out)
            };
            return;
        }
        GemmA::View(view) => {
            let bytes = materialised.bytes_mut(m * k);
            view.materialise(bytes);
            bytes
        }
    };
    // SAFETY: table resolution verified ISA support; the caller's
    // validation established a.len() == m*k and k rows of n weights,
    // out is m*n bytes, and the panel holds the `panel_kind` form of
    // those weights for the active tier — the form its band kernel
    // reads.
    unsafe { (active.band)(&args(a, m), pairs, quads, band, 0, m, out) };
}

/// The GEMM of a caller that holds the row-major weights `w`: fills a
/// panel checked out of `pool` in the form the active tier reads, then
/// multiplies on the calling thread through [`try_matmul_panel_into`]
/// into `out`, resized to `m × n`. `threads` is accepted and unused — a
/// GEMM no longer fans out; the parameter stays until the benchmark
/// that passes it drops it. A caller that runs the same weights again
/// and again keeps a [`WeightPanel`] and calls
/// [`try_matmul_panel_into`], which is this function minus the pack.
///
/// # Errors
/// Returns [`GemmDispatchError`] (before writing to `out`) if the
/// operand shapes are mutually inconsistent or the shift is out of
/// range.
#[allow(clippy::too_many_arguments)] // the GEMM operand contract
pub fn try_matmul_threaded_into(
    a: &[u8],
    m: usize,
    k: usize,
    w: &MatrixI8,
    shift: u8,
    pool: &ScratchPool,
    _threads: usize,
    out: &mut Vec<u8>,
) -> Result<(), GemmDispatchError> {
    validate_dispatch(GemmA::Matrix(a), m, k, w.rows(), shift)?;
    let (mut panel, mut scratch) = pool.checkout();
    let n = w.cols();
    panel.fill(panel_kind(active_isa(), n), w.as_slice(), k, n);
    // No clear(): the kernel writes the whole of `out`, so zeroing the
    // previous call's bytes first is a memset nobody reads.
    out.resize(m * n, 0);
    let requant = (shift, u8::MAX, ByteMap::IDENTITY);
    let done = try_matmul_panel_into(GemmA::Matrix(a), m, k, &panel, requant, &mut scratch, out);
    pool.restore((panel, scratch));
    done
}

/// The GEMM: over the activations `a` — a row-major matrix or an
/// im2col view ([`GemmA`]) — with the weights' resident panel, into the
/// caller's `m × n` bytes (`n` is the panel's), requantised as
/// `requant = (shift, clamp, map)` — clamped to `clamp` instead of 255,
/// then through `map` — working in the `scratch` the caller's arena
/// owns. Nothing is packed: a panel in another form than the tier this
/// thread resolves reads for `n` columns (one filled on another tier)
/// is refused, never misread. With the clamp and the map folded into
/// requantisation the bytes in `out` are finished activations: a plan
/// points `out` at the output slot itself when the GEMM's rows are the
/// slot's layout.
///
/// # Errors
/// See [`try_matmul_threaded_into`] — a panel filled with other than
/// exactly `k` rows is [`GemmDispatchError::WeightRows`]; also
/// [`GemmDispatchError::OutputSize`] if `out` is not `m × n` bytes,
/// [`GemmDispatchError::MapClamp`] for a map other than the identity
/// under a clamp above 15 and [`GemmDispatchError::PanelForm`] for a
/// panel whose form the resolved tier does not read. A view that is not
/// `m × k` ([`GemmDispatchError::ViewShape`]) or whose map its last
/// window leaves ([`GemmDispatchError::ViewBuffer`]) is refused on
/// every tier.
pub fn try_matmul_panel_into(
    a: GemmA<'_>,
    m: usize,
    k: usize,
    panel: &WeightPanel,
    requant: (u8, u8, ByteMap),
    scratch: &mut GemmScratch,
    out: &mut [u8],
) -> Result<(), GemmDispatchError> {
    validate_dispatch(a, m, k, panel.filled, requant.0)?;
    let (_, clamp, map) = requant;
    if clamp > 15 && !map.is_identity() {
        return Err(GemmDispatchError::MapClamp { clamp });
    }
    if panel.filled != panel.k {
        return Err(GemmDispatchError::WeightRows {
            expected: panel.k,
            got: panel.filled,
        });
    }
    if out.len() != m * panel.n {
        return Err(GemmDispatchError::OutputSize {
            expected: m * panel.n,
            got: out.len(),
        });
    }
    let active = active_table();
    let expected = panel_kind(active.isa, panel.n);
    if panel.kind != expected {
        return Err(GemmDispatchError::PanelForm {
            tier: active.isa,
            expected: expected.name(),
            got: panel.kind.name(),
        });
    }
    dispatch(active, a, m, k, panel, requant, scratch, out);
    Ok(())
}

/// The tier whose multiply instructions run an `m × k × n` GEMM that is
/// dispatched on `tier` — a pure function of its arguments. The AMX
/// tier's tile grid needs 16 rows, below which its band kernel is the
/// VNNI one; the AVX2 kernel hands GEMMs narrower than one ymm to the
/// scalar oracle.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))] // the tile grid is x86-64's
fn multiply_isa(tier: KernelIsa, m: usize, n: usize) -> KernelIsa {
    match tier {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::AmxInt8 if !crate::amx::tile_grid_engages(m) => KernelIsa::Avx512Vnni,
        KernelIsa::Avx2 if n < 8 => KernelIsa::Scalar,
        _ => tier,
    }
}

/// The form of a weight matrix of `n` columns that the kernel
/// multiplying it on `tier` reads — [`multiply_isa`]'s tier's panel.
/// The row count only moves the AMX tier onto its VNNI strips, which
/// read the same quads, so the form is one per `(tier, n)` and a plan
/// fills it before it knows which rows a run will bring.
fn panel_kind(tier: KernelIsa, n: usize) -> PanelKind {
    table_for(multiply_isa(tier, 0, n)).panel
}

/// What the dispatcher uses for a GEMM shape on the active tier, for
/// reports: the tier whose multiply instructions run this shape
/// ([`multiply_isa`]), the blocking [`tile_plan`] gives it and, when
/// the AMX tile grid runs it, the depth of one tile step — 64, or a
/// reduction shorter than one tile rounded up to a whole quad.
pub fn gemm_kernel_summary(m: usize, k: usize, n: usize) -> (KernelIsa, TilePlan, Option<usize>) {
    let tier = active_isa();
    let isa = multiply_isa(tier, m, n);
    let depth = match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::AmxInt8 => Some(crate::amx::tile_depth(k)),
        _ => None,
    };
    (isa, tile_plan(m, k, n, tier), depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_tensor::{Layout, MatrixI8, MatrixU8};

    fn operands(m: usize, k: usize, n: usize) -> (MatrixU8, MatrixI8) {
        let a = MatrixU8::from_fn(m, k, Layout::RowMajor, |r, c| {
            let v = ((r * 31 + c * 7) % 21) as u8;
            if v >= 16 {
                0
            } else {
                v
            }
        });
        let w = MatrixI8::from_fn(k, n, |r, c| (((r * 13 + c * 5) % 5) as i8) - 2);
        (a, w)
    }

    /// Each tier's own panel multiplied on that tier: the scalar
    /// oracle's bytes.
    #[test]
    fn every_supported_isa_matches_the_oracle() {
        let (m, k, n) = (37, 61, 29);
        let (a, w) = operands(m, k, n);
        let mut scratch = GemmScratch::default();
        let requant = (3, u8::MAX, ByteMap::IDENTITY);
        let mut run = |isa| {
            let _pin = pin_isa(isa);
            let mut out = vec![0; m * n];
            let panel = WeightPanel::pack(&w);
            try_matmul_panel_into(
                GemmA::Matrix(a.as_bytes()),
                m,
                k,
                &panel,
                requant,
                &mut scratch,
                &mut out,
            )
            .expect("the tier's own panel");
            out
        };
        let oracle = run(KernelIsa::Scalar);
        for isa in KernelIsa::ALL {
            assert_eq!(run(isa), oracle, "pinned {isa} (may degrade to scalar)");
        }
    }

    /// The panel read back a k-tile at a time, as one matrix.
    fn unpacked(panel: &WeightPanel) -> Vec<i8> {
        let mut rows = Vec::new();
        panel.for_each_ktile(&mut Vec::new(), |tile| rows.extend_from_slice(tile));
        rows
    }

    /// The kernel-side half of a plan's integrity check of a resident
    /// panel (the plan compares a digest of what this reads back): the
    /// padding is what packing leaves and the read-back rows are `w`.
    fn holds(panel: &WeightPanel, w: &MatrixI8) -> bool {
        panel.padding_is_clean() && unpacked(panel) == w.as_slice()
    }

    /// The integrity check that replaced re-packing (reading back plus
    /// the padding check) accepts every form of `w`, over a ragged last
    /// pair, quad and k-tile, and refuses a flipped byte, a truncated
    /// panel, an incomplete one and other weights.
    #[test]
    fn is_pack_of_accepts_the_image_and_nothing_else() {
        let (k, n) = (2 * 256 + 7, 19);
        let w = MatrixI8::from_fn(k, n, |r, c| (((r * 13 + c * 5) % 15) as i8) - 7);
        let other = MatrixI8::from_fn(k, n, |r, c| {
            if (r, c) == (k - 1, n - 1) {
                9
            } else {
                w.get(r, c)
            }
        });
        for kind in [PanelKind::Rows, PanelKind::Pairs, PanelKind::Quads] {
            let mut panel = WeightPanel::of_kind(kind, w.as_slice(), k, n);
            assert!(holds(&panel, &w), "{kind:?}");
            assert_eq!(panel.as_rows().is_some(), kind == PanelKind::Rows);
            assert!(!holds(&panel, &other), "{kind:?} of other weights");
            let mut short = panel.clone();
            short.rows.pop();
            short.pairs.pop();
            short.quads.pop();
            assert!(!holds(&short, &w), "{kind:?} truncated");
            let mut partial = WeightPanel::empty(kind, k, n);
            partial.push_ktile(&w.as_slice()[..KTILE_ROWS * n]);
            assert!(!partial.padding_is_clean(), "{kind:?} incomplete");
            assert!(panel.corrupt_for_test(0, 0x80));
            assert!(!holds(&panel, &w), "{kind:?} with a flipped byte");
        }
        assert!(holds(&WeightPanel::default(), &MatrixI8::zeros(0, 0)));
    }

    /// A flip of any one byte a panel stores fails the check — in the
    /// quad panel that includes every padding byte of the ragged last
    /// strip (19 columns) and k-tile (70 rows), which the tile tier
    /// multiplies, and in the pair panel the high byte of every element
    /// and the zero partner of the odd last row.
    #[test]
    fn is_pack_of_refuses_a_flip_of_any_byte_padding_included() {
        let (k, n) = (71, 19);
        let w = MatrixI8::from_fn(k, n, |r, c| (((r * 13 + c * 5) % 15) as i8) - 7);
        let quads = WeightPanel::of_kind(PanelKind::Quads, w.as_slice(), k, n);
        assert_eq!(quads.bytes(), 2 * 2 * 1024, "two strips of two k-tiles");
        assert!(quads.bytes() > 2 * k * n, "mostly padding");
        assert_eq!(
            WeightPanel::of_kind(PanelKind::Pairs, w.as_slice(), k, n).bytes(),
            2 * (k + 1) * n,
            "i16 pairs, the last with a zero partner"
        );
        for kind in [PanelKind::Rows, PanelKind::Pairs, PanelKind::Quads] {
            let mut panel = WeightPanel::of_kind(kind, w.as_slice(), k, n);
            for byte in 0..panel.bytes() {
                for mask in [1, 0x80] {
                    assert!(panel.corrupt_for_test(byte, mask));
                    assert!(!holds(&panel, &w), "{kind:?} byte {byte} ^ {mask:#x}");
                    panel.corrupt_for_test(byte, mask);
                }
            }
            assert!(!panel.corrupt_for_test(panel.bytes(), 1), "past the end");
            assert!(holds(&panel, &w), "{kind:?} restored");
        }
    }

    /// Reading back is the inverse of packing, on every tier this host
    /// supports (the scalar pin included): whatever form `pack` picks for a
    /// shape — through every k-tile edge (1–3 rows, one short of, on and
    /// past 64, and four tiles and a row) and every strip edge (below,
    /// on and past 8 and 16 columns, two strips and a column, 1000) — it
    /// reads back the matrix, with clean padding.
    #[test]
    fn unpacking_the_pack_is_the_matrix_on_every_tier() {
        let check = |tier: &str| {
            for k in [1, 2, 3, 63, 64, 65, 257] {
                for n in [1, 7, 8, 9, 15, 16, 17, 33, 1000] {
                    let w = MatrixI8::from_fn(k, n, |r, c| ((r * 7 + c * 3) % 255) as i8);
                    let panel = WeightPanel::pack(&w);
                    assert!(panel.padding_is_clean(), "{tier} {k}x{n}");
                    assert_eq!(unpacked(&panel), w.as_slice(), "{tier} {k}x{n}");
                }
            }
        };
        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            let _pin = pin_isa(isa);
            check(isa.name());
        }
    }

    /// The quad panel is the byte image its layout map names, read
    /// without [`simd::unpack_quad_ktile`] — the round trip above cannot
    /// see a pack and an unpack that are wrong the same way. On every
    /// tier this host supports whose panel for the shape is quads, for
    /// every `(k, n)` of that grid and every distinct catalog GEMM shape:
    /// byte `4j + i` of quad row `q` of strip `s`, k-tile `t` is
    /// `w[64t + 4q + i][16s + j]`, or 0 where that lies past `k` or `n`.
    #[test]
    fn the_quad_panel_is_its_layout_map() {
        use crate::tiled::tests::catalog_shapes;
        use gcd2_models::ModelId;
        use std::collections::BTreeSet;

        let grid = [1, 2, 3, 63, 64, 65, 257]
            .into_iter()
            .flat_map(|k| [1, 7, 8, 9, 15, 16, 17, 33, 1000].map(|n| (k, n)));
        let catalog = ModelId::ALL
            .into_iter()
            .flat_map(|model| catalog_shapes(model).into_keys().map(|(_, k, n)| (k, n)));
        let shapes: BTreeSet<(usize, usize)> = grid.chain(catalog).collect();
        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            let _pin = pin_isa(isa);
            for &(k, n) in shapes
                .iter()
                .filter(|&&(_, n)| panel_kind(isa, n) == PanelKind::Quads)
            {
                let w = MatrixI8::from_fn(k, n, |r, c| ((r * 7 + c * 3) % 255) as i8);
                let panel = WeightPanel::pack(&w);
                let (quads, kt) = (panel.operands().2, k.div_ceil(KTILE_ROWS));
                assert_eq!(quads.len(), simd::quad_panel_rows(k, n), "{isa} {k}x{n}");
                for (row, Line(d)) in quads.iter().enumerate() {
                    let (s, t, q) = (
                        row / (kt * TILE_QUADS),
                        row / TILE_QUADS % kt,
                        row % TILE_QUADS,
                    );
                    for (b, &v) in d.iter().enumerate() {
                        let (r, c) = (KTILE_ROWS * t + 4 * q + b % 4, 16 * s + b / 4);
                        let want = if r < k && c < n { w.get(r, c) } else { 0 };
                        assert_eq!(
                            v, want,
                            "{isa} {k}x{n}: strip {s}, k-tile {t}, quad {q}, byte {b}"
                        );
                    }
                }
            }
        }
    }

    /// An AVX-512 tier is active only where every feature the AVX-512
    /// forms enable is detected: AVX-512F and BW, and DQ for the weight
    /// generator's `vpmullq` — a `#[target_feature]` call on a part
    /// without one of them would be undefined behaviour.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn an_avx512_tier_runs_only_where_f_bw_and_dq_are() {
        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            let _pin = pin_isa(isa);
            if avx512_tier_active() {
                assert!(std::arch::is_x86_feature_detected!("avx512f"), "{isa}");
                assert!(std::arch::is_x86_feature_detected!("avx512bw"), "{isa}");
                assert!(std::arch::is_x86_feature_detected!("avx512dq"), "{isa}");
            }
        }
    }

    /// The form a plan fills is the one the kernel multiplying the shape
    /// reads, and it does not depend on the rows a run brings.
    #[test]
    fn the_panel_form_is_the_multiplying_tiers_for_any_rows() {
        for tier in KernelIsa::ALL {
            for n in [1, 7, 8, 9, 16, 1000] {
                for m in [0, 1, 15, 16, 17, 12544] {
                    let multiplier = multiply_isa(tier, m, n);
                    assert_eq!(
                        panel_kind(tier, n),
                        table_for(multiplier).panel,
                        "{tier} {m}x{n}"
                    );
                }
            }
        }
    }

    /// A report gives the AMX tile grid's step depth, and only for a
    /// shape the grid runs: a short reduction at its own depth rounded
    /// up to a quad, a longer one at 64, a one-row GEMM (the VNNI strips)
    /// and every other tier none.
    #[test]
    fn the_summary_gives_the_tile_depth_where_the_grid_runs() {
        for tier in KernelIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            let _pin = pin_isa(tier);
            let amx = tier == KernelIsa::AmxInt8;
            assert_eq!(gemm_kernel_summary(12544, 16, 64).2, amx.then_some(16));
            assert_eq!(gemm_kernel_summary(1536, 26, 128).2, amx.then_some(28));
            assert_eq!(gemm_kernel_summary(784, 147, 64).2, amx.then_some(64));
            assert_eq!(gemm_kernel_summary(1, 16, 64).2, None, "{tier}");
        }
    }

    /// A view that does not fit its dispatch is refused before anything
    /// is read or written, on every tier: a map one byte shorter than its
    /// last window reaches, a kernel whose `kh·kw·c` is not the panel's
    /// `k`, a row count that is not `m`. On a map of exactly `reach()`
    /// bytes — a `Vec`, not line-aligned — the last window ends the map
    /// (the kernels' `debug_assert`s would catch one byte more) and the
    /// product is the materialised matrix's.
    #[test]
    fn a_view_its_map_or_its_gemm_does_not_fit_is_an_error() {
        let (c, wp, out_h, kernel) = (64, 7, 4, (3, 3));
        let probe = Im2colView::new(&[], c, wp, out_h, kernel);
        let map: Vec<u8> = (0..probe.reach())
            .map(|i| ((i * 37 + 11) % 23) as u8 % 16)
            .collect();
        let (m, k, n) = (probe.rows(), probe.depth(), 24);
        let w = MatrixI8::from_fn(k, n, |r, c| (((r * 13 + c * 7) % 11) as i8) - 5);
        let mut matrix = vec![0u8; m * k];
        Im2colView::new(&map, c, wp, out_h, kernel).materialise(&mut matrix);
        for tier in KernelIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            let _pin = pin_isa(tier);
            let panel = WeightPanel::pack(&w);
            let mut scratch = GemmScratch::default();
            let requant = (7, 255, ByteMap::IDENTITY);
            let mut want = vec![0u8; m * n];
            try_matmul_panel_into(
                GemmA::Matrix(&matrix),
                m,
                k,
                &panel,
                requant,
                &mut scratch,
                &mut want,
            )
            .expect("a valid matrix");
            let mut out = vec![7u8; m * n];
            let mut run = |view, m, k, out: &mut [u8]| {
                try_matmul_panel_into(GemmA::View(view), m, k, &panel, requant, &mut scratch, out)
            };
            let short = Im2colView::new(&map[..map.len() - 1], c, wp, out_h, kernel);
            assert_eq!(
                run(short, m, k, &mut out),
                Err(GemmDispatchError::ViewBuffer {
                    needed: map.len(),
                    got: map.len() - 1
                }),
                "{tier}"
            );
            let wide = Im2colView::new(&map, c, wp, out_h, (3, 2));
            assert_eq!(
                run(wide, m + out_h, k, &mut out),
                Err(GemmDispatchError::ViewShape {
                    expected: (m + out_h, k),
                    got: (m + out_h, 6 * c)
                }),
                "{tier}"
            );
            let view = Im2colView::new(&map, c, wp, out_h, kernel);
            assert_eq!(
                run(view, m - 1, k, &mut out),
                Err(GemmDispatchError::ViewShape {
                    expected: (m - 1, k),
                    got: (m, k)
                }),
                "{tier}"
            );
            assert_eq!(
                out,
                vec![7u8; m * n],
                "{tier}: a refused view writes nothing"
            );
            assert_eq!(run(view, m, k, &mut out), Ok(()), "{tier}");
            assert_eq!(out, want, "{tier}: the view is the matrix");
        }
    }

    #[test]
    fn pinning_unsupported_isa_degrades_to_scalar() {
        let pin = pin_isa(KernelIsa::Neon);
        #[cfg(not(target_arch = "aarch64"))]
        assert_eq!(active_isa(), KernelIsa::Scalar);
        #[cfg(target_arch = "aarch64")]
        assert_eq!(active_isa(), KernelIsa::Neon);
        drop(pin);
        assert!(active_isa().supported());
    }

    /// A pin is the calling thread's alone, nests, is restored to the
    /// outer pin when the inner guard drops, and is lifted by unwinding
    /// out of the pinned scope.
    #[test]
    fn a_pin_is_thread_scoped_nests_and_unwinds() {
        let other = KernelIsa::ALL
            .into_iter()
            .find(|&isa| isa != KernelIsa::Scalar && isa.supported())
            .unwrap_or(KernelIsa::Scalar);
        let outer = pin_isa(other);
        assert_eq!(active_isa(), other);
        let spawned = std::thread::spawn(active_isa).join().expect("no panic");
        assert_eq!(spawned, detected_isa(), "another thread is unpinned");
        {
            let _inner = pin_isa(KernelIsa::Scalar);
            assert_eq!(active_isa(), KernelIsa::Scalar, "the innermost pin wins");
        }
        assert_eq!(active_isa(), other, "drop restores the outer pin");
        drop(outer);
        assert_eq!(active_isa(), detected_isa());
        let unwound = std::panic::catch_unwind(|| {
            let _pin = pin_isa(other);
            panic!("inside a pinned scope");
        });
        assert!(unwound.is_err());
        assert_eq!(active_isa(), detected_isa(), "unwinding lifts the pin");
    }

    /// The blocks the timing tuner used to rank per shape — the
    /// only place its candidate tables survive. The tile kernel reads
    /// `mb` alone: 32 rows to the whole band (offered up to 1024 rows;
    /// 256 is where the probe capped it on the deep shapes).
    fn old_candidates(isa: KernelIsa, m: usize, k: usize) -> Vec<TilePlan> {
        let (mbs, kbs, kb_cap): (&[usize], &[usize], usize) = if isa == KernelIsa::AmxInt8 {
            (&[32, 64, 128, 256, 1024], &[crate::tiled::KB], usize::MAX)
        } else {
            (&[16, 32, 64, 128], &[128, 256, 1024], k.next_multiple_of(2))
        };
        let plan = |&mb: &usize, &kb: &usize| TilePlan {
            mb: mb.min(m),
            kb: kb.min(kb_cap),
        };
        mbs.iter()
            .flat_map(|mb| kbs.iter().map(move |kb| plan(mb, kb)))
            .collect()
    }

    /// The per-shape evidence beside [`tile_plan`], not a gate (it
    /// asserts nothing about time): for each distinct GEMM shape of the
    /// four models the benchmark runs warm and each tier this host
    /// supports, times every block of [`old_candidates`] plus the rule's
    /// (best of 15 rounds over all of them, line-aligned `a`, the
    /// tier's resident panel pushed out of L2 before each run) and
    /// prints rule pick / best pick / ratio and the per-model sums, each
    /// shape weighted by how many steps have it. A shape is timed alone:
    /// what a blocking does to the steps after it — which is what fixed
    /// the rule's constants — is not in this table. DESIGN.md §4e holds
    /// the output for the AMX and VNNI tiers:
    /// `cargo test -p gcd2-kernels --release -- --ignored tile_rule_vs_sweep --nocapture`
    #[test]
    #[ignore = "perf evidence; run manually in release mode"]
    fn tile_rule_vs_sweep() {
        use crate::tiled::{tests::catalog_shapes, LineBuf};
        use gcd2_models::ModelId;
        use std::hint::black_box;
        use std::time::{Duration, Instant};

        // Twice this host's L2, read a line at a time.
        let evict = vec![1u8; 8 << 20];
        let touch = |bytes: &[u8]| bytes.iter().step_by(64).map(|&b| b as u64).sum::<u64>();
        let models = [
            ModelId::ResNet50,
            ModelId::TinyBert,
            ModelId::MobileNetV3,
            ModelId::EfficientNetB0,
        ];
        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            let table = table_for(isa);
            for model in models {
                println!("{isa} {model}");
                let (mut rule_sum, mut best_sum) = (Duration::ZERO, Duration::ZERO);
                for ((m, k, n), count) in catalog_shapes(model) {
                    let (a, w) = operands(m, k, n);
                    let mut staged = LineBuf::default();
                    staged.bytes_mut(m * k).copy_from_slice(a.as_bytes());
                    let panel = WeightPanel::of_kind(panel_kind(isa, n), w.as_slice(), k, n);
                    let (wd, pairs, quads) = panel.operands();
                    let rule = tile_plan(m, k, n, isa);
                    let mut cands = old_candidates(isa, m, k);
                    cands.push(rule);
                    cands.sort_by_key(|t| (t.mb, t.kb));
                    cands.dedup();
                    let mut best = vec![Duration::MAX; cands.len()];
                    let mut scratch = BandScratch::default();
                    let mut out = vec![0u8; m * n];
                    for _ in 0..15 {
                        for (tiles, best) in cands.iter().zip(&mut best) {
                            let args = BandArgs {
                                a: staged.bytes(),
                                k,
                                n,
                                wd,
                                shift: 6,
                                clamp: u8::MAX,
                                map: ByteMap::IDENTITY,
                                tiles: *tiles,
                            };
                            // What a plan's GEMM meets: the panel last
                            // read an inference ago and since pushed
                            // out of L2 by the other layers' weights,
                            // the activations just written.
                            black_box(touch(&evict) + touch(staged.bytes()));
                            let t0 = Instant::now();
                            // SAFETY: the tier is supported and the
                            // operands match the band contract: `a` is
                            // m × k, `panel` the tier's pack of `w`,
                            // `out` m × n.
                            unsafe {
                                (table.band)(&args, pairs, quads, &mut scratch, 0, m, &mut out)
                            };
                            *best = (*best).min(t0.elapsed());
                        }
                    }
                    let timed = || cands.iter().copied().zip(best.iter().copied());
                    let (_, t_rule) = timed().find(|&(c, _)| c == rule).expect("pushed");
                    let (fastest, t_best) = timed().min_by_key(|&(_, t)| t).expect("pushed");
                    rule_sum += t_rule * count as u32;
                    best_sum += t_best * count as u32;
                    println!(
                        "  {m:>5}x{k:<4}x{n:<4} ×{count:<2} rule mb={:<4} kb={:<4} {:>8.1?}  \
                         best mb={:<4} kb={:<4} {:>8.1?}  {:.3}",
                        rule.mb,
                        rule.kb,
                        t_rule,
                        fastest.mb,
                        fastest.kb,
                        t_best,
                        t_rule.as_secs_f64() / t_best.as_secs_f64(),
                    );
                }
                println!(
                    "  sum: rule {:.1}µs, best candidate per shape {:.1}µs, ratio {:.3}",
                    rule_sum.as_secs_f64() * 1e6,
                    best_sum.as_secs_f64() * 1e6,
                    rule_sum.as_secs_f64() / best_sum.as_secs_f64()
                );
            }
        }
    }

    /// The AMX band and its block epilogue, beside [`tile_rule_vs_sweep`]
    /// and under its protocol, not a gate: for each distinct shape the
    /// AMX tile grid runs in the four models the benchmark runs warm, the
    /// band at the rule's blocking (best of 15, `a` line-aligned, the
    /// panel pushed out of L2 before each run) and the requantisation of
    /// one 32-row block alone (`amx::requantize_block` on a hot block,
    /// best of 15 batches of 1000), its blocks per band and their share
    /// of the band. Every buffer is allocated before the timed loops: a
    /// fresh output `vec!` per call would time its page faults. DESIGN.md
    /// §4e holds the output:
    /// `cargo test -p gcd2-kernels --release --lib -- --ignored amx_epilogue_probe --nocapture`
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "perf evidence; run manually in release mode"]
    fn amx_epilogue_probe() {
        use crate::amx::{requantize_block, BlockRows, CBlock, Rows};
        use crate::simd::x86::Requant512;
        use crate::tiled::{tests::catalog_shapes, LineBuf};
        use gcd2_models::ModelId;
        use std::collections::BTreeSet;
        use std::hint::black_box;
        use std::time::{Duration, Instant};

        let isa = KernelIsa::AmxInt8;
        if !isa.supported() {
            eprintln!("AMX not available; skipping");
            return;
        }
        let evict = vec![1u8; 8 << 20];
        let touch = |bytes: &[u8]| bytes.iter().step_by(64).map(|&b| b as u64).sum::<u64>();
        let mut seen = BTreeSet::new();
        let block = CBlock(std::array::from_fn(|i| (i as i32 * 7919) % 8192 - 1024));
        let mut block_out = vec![0u8; 32 * 32];
        // SAFETY: AMX support implies AVX-512F and BW (`amx_available`).
        let requant = unsafe { Requant512::new(6, u8::MAX, ByteMap::IDENTITY) };
        for model in [
            ModelId::ResNet50,
            ModelId::TinyBert,
            ModelId::MobileNetV3,
            ModelId::EfficientNetB0,
        ] {
            println!("{model}");
            for ((m, k, n), count) in catalog_shapes(model) {
                if multiply_isa(isa, m, n) != isa || !seen.insert((m, k, n)) {
                    continue;
                }
                let (a, w) = operands(m, k, n);
                let mut staged = LineBuf::default();
                staged.bytes_mut(m * k).copy_from_slice(a.as_bytes());
                let panel = WeightPanel::of_kind(panel_kind(isa, n), w.as_slice(), k, n);
                let (wd, pairs, quads) = panel.operands();
                let args = BandArgs {
                    a: staged.bytes(),
                    k,
                    n,
                    wd,
                    shift: 6,
                    clamp: u8::MAX,
                    map: ByteMap::IDENTITY,
                    tiles: tile_plan(m, k, n, isa),
                };
                let mut scratch = BandScratch::default();
                let mut out = vec![0u8; m * n];
                let mut band = Duration::MAX;
                for _ in 0..15 {
                    black_box(touch(&evict) + touch(staged.bytes()));
                    let t0 = Instant::now();
                    // SAFETY: the tier is supported and the operands
                    // match the band contract: `a` is m × k, `panel`
                    // the tier's pack of `w`, `out` m × n.
                    unsafe {
                        (table_for(isa).band)(&args, pairs, quads, &mut scratch, 0, m, &mut out)
                    };
                    band = band.min(t0.elapsed());
                }
                let cols = n.min(32);
                let rows = BlockRows {
                    at: block_out.as_mut_ptr(),
                    n: cols,
                    rows: Rows::From(0),
                };
                let mut epilogue = Duration::MAX;
                for _ in 0..15 {
                    let t0 = Instant::now();
                    for _ in 0..1000 {
                        // SAFETY: AMX support implies AVX-512F, BW and
                        // VL; `rows` gives 32 rows of `cols` writable
                        // bytes, one strip's worth when `cols ≤ 16`.
                        unsafe {
                            if cols > 16 {
                                requantize_block::<2>(black_box(&block), 32, cols, &requant, rows)
                            } else {
                                requantize_block::<1>(black_box(&block), 32, cols, &requant, rows)
                            }
                        };
                    }
                    epilogue = epilogue.min(t0.elapsed() / 1000);
                }
                black_box(&block_out);
                // 32-row blocks per strip pair, times strip pairs.
                let blocks = (m / 16).div_ceil(2) * n.div_ceil(32);
                let share = blocks as f64 * epilogue.as_secs_f64() / band.as_secs_f64();
                println!(
                    "  {m:>5}x{k:<4}x{n:<4} ×{count:<2} band {:>8.1}µs  requant {:>5.0}ns/block × {blocks:<5} = {:>4.0}% of the band",
                    band.as_secs_f64() * 1e6,
                    epilogue.as_secs_f64() * 1e9,
                    share * 100.0,
                );
            }
        }
    }

    /// Whether AMX band time follows where a process's buffers lie or
    /// the state of the host, not a gate: six separately allocated copies
    /// of tinybert's 128×1200×312 `fc2` operands (staged `a`, panel, band
    /// scratch, output), timed in turn in one loop for 3 s. Each line is
    /// one 100 ms window with the best band of every copy in it, then the
    /// spread across copies within a window (placement) beside the spread
    /// of the window medians (host). DESIGN.md §4g holds the output:
    /// `cargo test -p gcd2-kernels --release --lib -- --ignored amx_host_state_probe --nocapture`
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "perf evidence; run manually in release mode"]
    fn amx_host_state_probe() {
        use crate::tiled::LineBuf;
        use std::time::{Duration, Instant};

        const COPIES: usize = 6;
        let isa = KernelIsa::AmxInt8;
        if !isa.supported() {
            eprintln!("AMX not available; skipping");
            return;
        }
        let (m, k, n) = (128, 1200, 312);
        struct Operands {
            staged: LineBuf,
            panel: WeightPanel,
            scratch: BandScratch,
            out: Vec<u8>,
        }
        let mut copies: Vec<Operands> = (0..COPIES)
            .map(|_| {
                let (a, w) = operands(m, k, n);
                let mut staged = LineBuf::default();
                staged.bytes_mut(m * k).copy_from_slice(a.as_bytes());
                Operands {
                    staged,
                    panel: WeightPanel::of_kind(panel_kind(isa, n), w.as_slice(), k, n),
                    scratch: BandScratch::default(),
                    out: vec![0u8; m * n],
                }
            })
            .collect();
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut windows: Vec<[Duration; COPIES]> = Vec::new();
        let start = Instant::now();
        let mut window = (Instant::now(), [Duration::MAX; COPIES]);
        while start.elapsed() < Duration::from_secs(3) {
            for (c, copy) in copies.iter_mut().enumerate() {
                let Operands {
                    staged,
                    panel,
                    scratch,
                    out,
                } = copy;
                let (wd, pairs, quads) = panel.operands();
                let args = BandArgs {
                    a: staged.bytes(),
                    k,
                    n,
                    wd,
                    shift: 6,
                    clamp: u8::MAX,
                    map: ByteMap::IDENTITY,
                    tiles: tile_plan(m, k, n, isa),
                };
                let t0 = Instant::now();
                // SAFETY: the tier is supported and the operands match
                // the band contract: `a` is m × k, `panel` the tier's
                // pack of `w`, `out` m × n.
                unsafe { (table_for(isa).band)(&args, pairs, quads, scratch, 0, m, out) };
                window.1[c] = window.1[c].min(t0.elapsed());
            }
            if window.0.elapsed() >= Duration::from_millis(100) {
                let best = window.1;
                let (lo, hi) = (best.iter().min().unwrap(), best.iter().max().unwrap());
                println!(
                    "  {:>5.0} ms  {}  copies {:.2}×",
                    (window.0 - start).as_secs_f64() * 1e3,
                    best.map(|b| format!("{:>6.1}", us(b))).join(" "),
                    us(*hi) / us(*lo)
                );
                windows.push(best);
                window = (Instant::now(), [Duration::MAX; COPIES]);
            }
        }
        let spread = |xs: &[f64]| {
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            xs.iter().copied().fold(0.0, f64::max) / lo
        };
        let within: Vec<f64> = windows.iter().map(|w| spread(&w.map(us))).collect();
        let medians: Vec<f64> = windows
            .iter()
            .map(|w| {
                let mut w = w.map(us);
                w.sort_by(f64::total_cmp);
                (w[COPIES / 2 - 1] + w[COPIES / 2]) / 2.0
            })
            .collect();
        println!(
            "{} windows: copies within a window at most {:.2}× apart; window medians {:.1}–{:.1} µs ({:.2}×)",
            windows.len(),
            within.iter().copied().fold(0.0, f64::max),
            medians.iter().copied().fold(f64::INFINITY, f64::min),
            medians.iter().copied().fold(0.0, f64::max),
            spread(&medians),
        );
    }

    /// The implicit im2col of a stride-1 conv against staging it, under
    /// [`amx_epilogue_probe`]'s protocol, not a gate: for each of
    /// resnet-50's four stride-1 3×3 conv geometries (the `.conv2` of
    /// every block but a stage's first, `n = c`), the staging and the
    /// band of both paths — `im2col_rows_into` into a line-aligned
    /// matrix then `band_amx` over it (what every tier did before the
    /// view), and `im2col_rows_view`'s padded map then `band_amx_view`
    /// over it — each the median of 41 calls with the panel pushed out
    /// of L2 before each, and the view's total as a share of the staged
    /// path's. Every buffer is allocated before the timed loops, and the
    /// two products are asserted equal. DESIGN.md §4e holds the output:
    /// `cargo test -p gcd2-kernels --release --lib -- --ignored implicit_im2col_probe --nocapture`
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "perf evidence; run manually in release mode"]
    fn implicit_im2col_probe() {
        use crate::conv::{im2col_rows_into, im2col_rows_view, Im2colScratch};
        use crate::tiled::LineBuf;
        use std::hint::black_box;
        use std::time::Instant;

        let isa = KernelIsa::AmxInt8;
        if !isa.supported() {
            eprintln!("AMX not available; skipping");
            return;
        }
        let evict = vec![1u8; 8 << 20];
        let touch = |bytes: &[u8]| bytes.iter().step_by(64).map(|&b| b as u64).sum::<u64>();
        let median = |mut t: Vec<f64>| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        };
        let table = table_for(isa);
        for (c, hw, steps) in [(64, 56, 3), (128, 28, 3), (256, 14, 5), (512, 7, 2)] {
            let (kernel, padding, n) = ((3, 3), (1, 1), c);
            let (m, k) = (hw * hw, 9 * c);
            let input: Vec<u8> = (0..c * hw * hw)
                .map(|i| ((i * 37 + 11) % 23) as u8 % 16)
                .collect();
            let w = MatrixI8::from_fn(k, n, |r, c| (((r * 13 + c * 7) % 11) as i8) - 5);
            let panel = WeightPanel::of_kind(PanelKind::Quads, w.as_slice(), k, n);
            let (_, _, quads) = panel.operands();
            let args = |rows| BandArgs::<'static> {
                a: &[],
                k,
                n,
                wd: &[],
                shift: 9,
                clamp: u8::MAX,
                map: ByteMap::IDENTITY,
                tiles: tile_plan(rows, k, n, isa),
            };
            let mut im2col = Im2colScratch::default();
            let mut staged = LineBuf::default();
            let mut band = BandScratch::default();
            let (mut out, mut out_view) = (vec![0u8; m * n], vec![0u8; m * n]);
            let mut times = [(); 4].map(|_| Vec::new());
            for _ in 0..41 {
                black_box(touch(&evict) + touch(&input));
                let t0 = Instant::now();
                let a = staged.bytes_mut(m * k);
                im2col_rows_into(&input, c, hw, hw, kernel, (1, 1), padding, &mut im2col, a);
                let t1 = Instant::now();
                let staged = BandArgs {
                    a: staged.bytes(),
                    ..args(m)
                };
                // SAFETY: the tier is supported; `a` is m × k, `quads`
                // the AMX pack of the k × n weights, `out` m × n.
                unsafe { (table.band)(&staged, &[], quads, &mut band, 0, m, &mut out) };
                let t2 = Instant::now();
                black_box(touch(&evict) + touch(&input));
                let t3 = Instant::now();
                let view = im2col_rows_view(&input, c, hw, hw, kernel, padding, &mut im2col);
                let t4 = Instant::now();
                // SAFETY: AMX is supported; the view's kernel rows are
                // three tile steps each, its map holds `reach()` bytes,
                // `quads` is the pack of its k × n weights and
                // `out_view` m × n.
                unsafe {
                    crate::amx::band_amx_view(
                        &view,
                        &args(view.tile_rows()),
                        quads,
                        &mut band,
                        &mut out_view,
                    )
                };
                let t5 = Instant::now();
                for (t, d) in times.iter_mut().zip([t1 - t0, t2 - t1, t4 - t3, t5 - t4]) {
                    t.push(d.as_secs_f64() * 1e6);
                }
            }
            assert_eq!(
                out, out_view,
                "{m}x{k}x{n}: the view's product is the staged one's"
            );
            let [stage, gemm, map, view] = times.map(median);
            println!(
                "  {m:>5}x{k:<4}x{n:<4} ×{steps}  staged: im2col {stage:>6.1}µs + band {gemm:>6.1}µs   view: map {map:>5.1}µs + band {view:>6.1}µs   total {:.2}×",
                (map + view) / (stage + gemm),
            );
        }
    }
}
