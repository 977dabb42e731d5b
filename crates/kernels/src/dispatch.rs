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
//! Overrides, in precedence order:
//!
//! * [`force_isa`] — a process-wide runtime override used by benches and
//!   tests to compare tiers within one process. Forcing an ISA the CPU
//!   does not support degrades to scalar (never UB).
//! * `GCD2_FORCE_SCALAR=1` — environment pin consulted during the
//!   one-time detection; CI uses it to run the whole suite against the
//!   scalar oracle.
//!
//! Every kernel in the table computes bit-identical bytes (see
//! [`crate::simd`] for the argument), so switching ISAs — or racing a
//! switch mid-run — can never change results, only speed.
//!
//! **A GEMM step only multiplies.** The vector tiers read their weights
//! from a packed panel ([`WeightPanel`]: pair-interleaved i16 for AVX2,
//! one strip-major quad-interleaved i8 panel for AVX-512 VNNI and AMX,
//! laid out so a `tdpbusd` tile and a `vpdpbusd` operand are both
//! consecutive, line-aligned bytes). A caller that runs the
//! same weights again and again — an inference plan — packs the panel
//! once, when it materialises the weights, and passes it to
//! [`try_matmul_panel_into`] on every dispatch; no tier pays an
//! `O(k·n)` pack per dispatch. The matrix-taking entry points
//! ([`try_matmul_threaded_into`], [`crate::try_matmul_blocked_into`])
//! are *pack, then the same core*: one `dispatch` function picks the
//! panel, derives the blocking of the tier it resolved
//! ([`crate::tiled::tile_plan`]) and runs the band kernel under all of
//! them.
//! There is one fallback: a dispatch whose tier wants another layout
//! than the resident panel's (a [`pin_scalar`] demotion, [`force_isa`]
//! flipped since the pack) reads the raw weights or packs for that one
//! call ([`PanelSource::PerCall`]) — identical bytes either way.
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
//! thread). The VNNI strips finish the `n % 16` trailing columns with
//! one lane-masked zmm strip instead of a scalar tail (see
//! [`crate::simd`]); the AMX tile grid computes the panel's zero-padded
//! last strip whole (see [`crate::amx`]).

use crate::simd::{self, Line, QuadRow, TILE_QUADS};
use crate::tiled::{
    tile_plan, validate_dispatch, BandScratch, GemmDispatchError, GemmScratch, TilePlan,
};
use gcd2_tensor::MatrixI8;
use std::sync::atomic::{AtomicU8, Ordering};
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
            KernelIsa::Avx512Vnni => {
                std::arch::is_x86_feature_detected!("avx512f")
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

    /// The tier for a stable `repr(u8)` tag (the inverse of `self as
    /// u8`). Unknown tags return `None`.
    pub fn from_tag(v: u8) -> Option<KernelIsa> {
        match v {
            0 => Some(KernelIsa::Scalar),
            1 => Some(KernelIsa::Avx2),
            2 => Some(KernelIsa::Neon),
            3 => Some(KernelIsa::Avx512Vnni),
            4 => Some(KernelIsa::AmxInt8),
            _ => None,
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
    pub wd: &'a [i8],
    pub shift: u8,
    /// Upper bound of the requantised bytes: `clamp((acc >> shift), 0,
    /// clamp)`. 255 is the plain u8 saturation; a plan passes its
    /// activation ceiling so the bytes a GEMM writes are finished.
    pub clamp: u8,
    pub tiles: TilePlan,
}

/// Which packed weight panel a kernel consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PanelKind {
    /// No packing (scalar, NEON — they read `wd` directly).
    #[default]
    None,
    /// Pair-interleaved i16 panel ([`simd::pack_pairs_i16`], AVX2).
    Pairs,
    /// Strip-major quad-interleaved i8 panel ([`simd::pack_quads_i8`],
    /// VNNI and AMX: one layout both tiers stream linearly).
    Quads,
}

/// A weight matrix in the layout one kernel tier's micro-kernel reads.
///
/// A plan packs each GEMM's weights **once**, when the weights are
/// materialised, and hands the panel to [`try_matmul_panel_into`] on
/// every dispatch; the matrix-taking entry points pack one per call
/// into their scratch. On the scalar and NEON tiers, which read the
/// row-major weights themselves, a panel holds no bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WeightPanel {
    kind: PanelKind,
    pairs: Vec<i16>,
    quads: Vec<QuadRow>,
}

impl WeightPanel {
    /// Packs `w` for the tier [`active_isa`] resolves on this thread.
    pub fn pack(w: &MatrixI8) -> WeightPanel {
        let mut panel = WeightPanel::default();
        panel.fill(active_table().panel, w.as_slice(), w.rows(), w.cols());
        panel
    }

    /// Repacks in place as the `kind` image of the `k × n` matrix `wd`,
    /// reusing the buffers; the other layout's buffer is emptied, so a
    /// stale panel can never be consumed.
    fn fill(&mut self, kind: PanelKind, wd: &[i8], k: usize, n: usize) {
        self.kind = kind;
        self.pairs.clear();
        self.quads.clear();
        match kind {
            PanelKind::None => {}
            PanelKind::Pairs => simd::pack_pairs_i16(wd, k, n, &mut self.pairs),
            PanelKind::Quads => simd::pack_quads_i8(wd, k, n, &mut self.quads),
        }
    }

    /// Bytes the panel holds beside the raw weights, padding included
    /// (the quad panel is padded to whole 16-column strips and 64-deep
    /// k-tiles).
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.pairs[..]) + std::mem::size_of_val(&self.quads[..])
    }

    /// Whether the panel still is what packing `w` in its layout yields
    /// — the integrity check of a resident panel, padding bytes
    /// included. Re-packs `w` a block at a time — 256 rows of pairs,
    /// one 64-row k-tile of quads, each block's image a slice (pairs)
    /// or one tile per strip (quads) of the panel's — and compares, so
    /// the check needs a cache-sized buffer, not a second panel.
    pub fn is_pack_of(&self, w: &MatrixI8) -> bool {
        const PAIR_BLOCK_ROWS: usize = 256;
        let (k, n, wd) = (w.rows(), w.cols(), w.as_slice());
        match self.kind {
            PanelKind::None => self.bytes() == 0,
            PanelKind::Pairs => {
                let mut block = Vec::new();
                let mut rest = &self.pairs[..];
                for rows in wd.chunks((PAIR_BLOCK_ROWS * n).max(1)) {
                    simd::pack_pairs_i16(rows, rows.len() / n.max(1), n, &mut block);
                    match rest.split_at_checked(block.len()) {
                        Some((image, tail)) if image == block => rest = tail,
                        _ => return false,
                    }
                }
                rest.is_empty() && self.quads.is_empty()
            }
            PanelKind::Quads => {
                if !self.pairs.is_empty() || self.quads.len() != simd::quad_panel_rows(k, n) {
                    return false;
                }
                let kt = k.div_ceil(64);
                let mut block = vec![Line([0i8; 64]); n.div_ceil(16) * TILE_QUADS];
                wd.chunks((64 * n).max(1)).enumerate().all(|(t, rows)| {
                    if rows.len() < 64 * n {
                        // The ragged last k-tile: its missing rows are
                        // zero in the panel, not the previous tile's.
                        block.fill(Line([0; 64]));
                    }
                    simd::pack_quad_ktile(rows, n, &mut block, TILE_QUADS);
                    block.chunks_exact(TILE_QUADS).enumerate().all(|(s, tile)| {
                        self.quads[(s * kt + t) * TILE_QUADS..][..TILE_QUADS] == *tile
                    })
                })
            }
        }
    }

    /// Test instrumentation: flips the top bit of the panel's first
    /// byte — the packed image of weight `(0, 0)` — so a suite can show
    /// that a resident panel is both what executes and what integrity
    /// checking covers. Returns `false` for a panel that holds no bytes.
    #[doc(hidden)]
    pub fn corrupt_for_test(&mut self) -> bool {
        if let Some(v) = self.pairs.first_mut() {
            *v ^= 0x80;
            true
        } else if let Some(Line(row)) = self.quads.first_mut() {
            row[0] ^= i8::MIN;
            true
        } else {
            false
        }
    }
}

/// Where a dispatch read its weights from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelSource {
    /// The caller's resident [`WeightPanel`]: nothing was packed.
    Resident,
    /// The resolved tier wants another layout than the resident panel's
    /// (a scalar pin or demotion, [`force_isa`] flipped since the panel
    /// was packed) or no panel was given: the dispatch read the raw
    /// weights (packless tiers) or packed them for this call.
    PerCall,
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
    panel: PanelKind::None,
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
    panel: PanelKind::None,
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
/// supported tier, unless `GCD2_FORCE_SCALAR` pins the oracle.
pub fn detected_isa() -> KernelIsa {
    static DETECTED: OnceLock<KernelIsa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let forced_scalar =
            std::env::var("GCD2_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
        if forced_scalar {
            KernelIsa::Scalar
        } else {
            best_available()
        }
    })
}

/// `u8::MAX` = no override; otherwise a `KernelIsa` discriminant.
static FORCED: AtomicU8 = AtomicU8::new(u8::MAX);

/// Process-wide runtime ISA override for benches and tests (pass `None`
/// to return to auto-detection). Forcing a tier the CPU cannot run
/// degrades to scalar. Safe to flip at any time: all tiers produce
/// bit-identical output, so in-flight GEMMs are unaffected semantically.
pub fn force_isa(isa: Option<KernelIsa>) {
    FORCED.store(isa.map_or(u8::MAX, |i| i as u8), Ordering::SeqCst);
}

thread_local! {
    /// Depth of live [`ScalarPin`] guards on this thread. Non-zero pins
    /// every dispatch resolved *on this thread* to the scalar oracle.
    static SCALAR_PINNED: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// RAII guard of a thread-scoped scalar pin (see [`pin_scalar`]).
/// Deliberately `!Send`: the pin is thread-local, so moving the guard
/// to another thread would unpin the wrong one.
#[derive(Debug)]
pub struct ScalarPin {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScalarPin {
    fn drop(&mut self) {
        SCALAR_PINNED.with(|c| c.set(c.get().saturating_sub(1)));
    }
}

/// Pins every GEMM dispatch resolved on the **current thread** to the
/// scalar oracle tier until the returned guard drops. Nestable, and
/// composes with (overriding) both [`force_isa`] and autodetection.
///
/// This is the gateway's fault-triggered ISA demotion hook: after
/// repeated kernel-attributed faults on a model, its batches execute
/// under a pin so a misbehaving SIMD tier is quarantined without
/// touching process-global state (other models and other threads keep
/// their vector tiers). Scalar is the bit-exactness oracle, so a
/// demoted dispatch can never change output bytes — only speed.
pub fn pin_scalar() -> ScalarPin {
    SCALAR_PINNED.with(|c| c.set(c.get() + 1));
    ScalarPin {
        _not_send: std::marker::PhantomData,
    }
}

/// Whether a [`pin_scalar`] guard is live on this thread.
pub fn scalar_pinned() -> bool {
    SCALAR_PINNED.with(|c| c.get() != 0)
}

/// The ISA the next GEMM dispatch will use ([`pin_scalar`] on this
/// thread, else the [`force_isa`] override, else the one-time
/// detection).
pub fn active_isa() -> KernelIsa {
    active_table().isa
}

/// Whether an AVX-512 tier is active on this thread — the test the
/// AVX-512 forms of the depthwise kernels and of the weight generator
/// sit behind. Either tier's [`KernelIsa::supported`] requires
/// AVX-512F, and [`active_isa`] only resolves a supported tier.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512_tier_active() -> bool {
    matches!(active_isa(), KernelIsa::Avx512Vnni | KernelIsa::AmxInt8)
}

pub(crate) fn active_table() -> &'static KernelTable {
    if scalar_pinned() {
        return &SCALAR_TABLE;
    }
    let forced = FORCED.load(Ordering::Relaxed);
    if forced != u8::MAX {
        let isa = KernelIsa::from_tag(forced)
            .filter(|i| i.supported())
            .unwrap_or(KernelIsa::Scalar);
        return table_for(isa);
    }
    static ACTIVE: OnceLock<&'static KernelTable> = OnceLock::new();
    ACTIVE.get_or_init(|| table_for(detected_isa()))
}

/// A checkout/restore pool of [`GemmScratch`] buffers, so repeated
/// [`try_matmul_threaded_into`] calls allocate nothing. A poisoned pool
/// lock degrades to fresh scratch — never a panic.
#[derive(Debug, Default)]
pub struct ScratchPool {
    inner: Mutex<Vec<GemmScratch>>,
}

impl ScratchPool {
    /// An empty pool; buffers are created on demand and returned on
    /// restore.
    pub fn new() -> Self {
        Self::default()
    }

    fn checkout(&self) -> GemmScratch {
        match self.inner.lock() {
            Ok(mut pool) => pool.pop().unwrap_or_default(),
            Err(_) => GemmScratch::default(),
        }
    }

    fn restore(&self, scratch: GemmScratch) {
        if let Ok(mut pool) = self.inner.lock() {
            pool.push(scratch);
        }
    }

    /// Number of idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.inner.lock().map(|p| p.len()).unwrap_or(0)
    }
}

/// The panel the `active` tier reads for one dispatch: the caller's
/// resident one when it was packed in this tier's layout, else `own`
/// repacked from `wd` — the one fallback, paid per call.
fn panel_for<'p>(
    active: &KernelTable,
    resident: Option<&'p WeightPanel>,
    own: &'p mut WeightPanel,
    wd: &[i8],
    k: usize,
    n: usize,
) -> (&'p WeightPanel, PanelSource) {
    match resident {
        Some(panel) if panel.kind == active.panel => (panel, PanelSource::Resident),
        _ => {
            own.fill(active.panel, wd, k, n);
            (own, PanelSource::PerCall)
        }
    }
}

/// The dispatch core under every GEMM entry point: picks the panel
/// ([`panel_for`]), derives the blocking of the tier it resolved
/// ([`tile_plan`] — a scalar pin, a demotion or [`force_isa`] gets the
/// blocking of the tier it lands on) and runs the band kernel over all
/// `m` rows on the calling thread. Operands are
/// pre-validated by the caller, `out` included: exactly `m × n` bytes,
/// every one of which the kernel overwrites.
#[allow(clippy::too_many_arguments)] // the GEMM operand contract
fn dispatch(
    a: &[u8],
    m: usize,
    k: usize,
    w: &MatrixI8,
    (shift, clamp): (u8, u8),
    resident: Option<&WeightPanel>,
    scratch: &mut GemmScratch,
    out: &mut [u8],
) -> PanelSource {
    let n = w.cols();
    assert_eq!(out.len(), m * n, "output size mismatch");
    if m == 0 || n == 0 {
        // Nothing to multiply, so nothing was packed either.
        return PanelSource::Resident;
    }
    let active = active_table();
    let wd = w.as_slice();
    let GemmScratch { band, panel: own } = scratch;
    let (panel, source) = panel_for(active, resident, own, wd, k, n);
    let args = BandArgs {
        a,
        k,
        n,
        wd,
        shift,
        clamp,
        tiles: tile_plan(m, k, n, active.isa),
    };
    // SAFETY: table resolution verified ISA support; the caller's
    // validate_dispatch established a.len() == m*k and w.rows() == k,
    // out is m*n bytes, and `panel` is the pack image of wd for the
    // active tier.
    unsafe { (active.band)(&args, &panel.pairs, &panel.quads, band, 0, m, out) };
    source
}

/// Blocked GEMM through the dispatch table; backend of
/// [`crate::tiled::try_matmul_blocked_into`]. Operands are
/// pre-validated by the caller.
pub(crate) fn run_single(
    a: &[u8],
    m: usize,
    k: usize,
    w: &MatrixI8,
    shift: u8,
    scratch: &mut GemmScratch,
    out: &mut Vec<u8>,
) {
    // No clear(): the kernel writes the whole of `out`, so zeroing the
    // previous call's bytes first is a memset nobody reads.
    out.resize(m * w.cols(), 0);
    dispatch(a, m, k, w, (shift, u8::MAX), None, scratch, out);
}

/// [`crate::try_matmul_blocked_into`] with its scratch checked out of
/// `pool`: packs `w` for the active tier and multiplies on the calling
/// thread. `threads` is accepted and unused — a GEMM no longer fans
/// out; the parameter stays until the benchmark that passes it drops
/// it. A caller that runs the same weights again and again keeps a
/// [`WeightPanel`] and calls [`try_matmul_panel_into`], which is this
/// function minus the pack.
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
    let mut scratch = pool.checkout();
    let done = crate::tiled::try_matmul_blocked_into(a, m, k, w, shift, &mut scratch, out);
    pool.restore(scratch);
    done
}

/// The GEMM as an inference plan calls it: with the weights' resident
/// panel, into the caller's `m × n` bytes, clamped to `clamp` instead
/// of 255, working in the `scratch` the caller's arena owns. The
/// dispatch packs nothing when `panel` was packed for the tier it
/// resolves, and says which it was. `panel` must be
/// [`WeightPanel::pack`]`(w)` (a plan checks that with
/// [`WeightPanel::is_pack_of`]); a panel of another tier's layout is
/// ignored, never misread. With the clamp folded into requantisation
/// the bytes in `out` are finished activations: a plan points `out` at
/// the output slot itself when the GEMM's rows are the slot's layout.
/// Hosts the `infer.gemm` fault point.
///
/// # Errors
/// See [`try_matmul_threaded_into`]; also
/// [`GemmDispatchError::OutputSize`] if `out` is not `m × n` bytes.
#[allow(clippy::too_many_arguments)] // the GEMM operand contract
pub fn try_matmul_panel_into(
    a: &[u8],
    m: usize,
    k: usize,
    w: &MatrixI8,
    panel: &WeightPanel,
    requant: (u8, u8),
    scratch: &mut GemmScratch,
    out: &mut [u8],
) -> Result<PanelSource, GemmDispatchError> {
    let _ = gcd2_faults::fire("infer.gemm");
    validate_dispatch(a, m, k, w, requant.0)?;
    if out.len() != m * w.cols() {
        return Err(GemmDispatchError::OutputSize {
            expected: m * w.cols(),
            got: out.len(),
        });
    }
    Ok(dispatch(a, m, k, w, requant, Some(panel), scratch, out))
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

/// What the dispatcher uses for a GEMM shape on the active tier, for
/// reports: the tier whose multiply instructions run this shape
/// ([`multiply_isa`]) and the blocking [`tile_plan`] gives it.
pub fn gemm_kernel_summary(m: usize, k: usize, n: usize) -> (KernelIsa, TilePlan) {
    let tier = active_isa();
    (multiply_isa(tier, m, n), tile_plan(m, k, n, tier))
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

    #[test]
    fn every_supported_isa_matches_the_oracle() {
        let (m, k, n) = (37, 61, 29);
        let (a, w) = operands(m, k, n);
        let mut scratch = GemmScratch::default();
        let mut oracle = Vec::new();
        force_isa(Some(KernelIsa::Scalar));
        run_single(a.as_bytes(), m, k, &w, 3, &mut scratch, &mut oracle);
        for isa in KernelIsa::ALL {
            force_isa(Some(isa));
            let mut got = Vec::new();
            run_single(a.as_bytes(), m, k, &w, 3, &mut scratch, &mut got);
            assert_eq!(got, oracle, "forced {isa} (may degrade to scalar)");
        }
        force_isa(None);
        let mut auto = Vec::new();
        run_single(a.as_bytes(), m, k, &w, 3, &mut scratch, &mut auto);
        assert_eq!(auto, oracle, "auto-detected ISA");
    }

    /// The blocked re-pack of `is_pack_of` agrees with a whole pack for
    /// every layout, over a ragged last pair, quad and row block, and
    /// refuses a flipped byte, a truncated panel and other weights.
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
        for kind in [PanelKind::None, PanelKind::Pairs, PanelKind::Quads] {
            let mut panel = WeightPanel::default();
            panel.fill(kind, w.as_slice(), k, n);
            assert!(panel.is_pack_of(&w), "{kind:?}");
            assert_eq!(panel.bytes() == 0, kind == PanelKind::None);
            if kind == PanelKind::None {
                continue;
            }
            assert!(!panel.is_pack_of(&other), "{kind:?} of other weights");
            let mut short = panel.clone();
            short.pairs.pop();
            short.quads.pop();
            assert!(!short.is_pack_of(&w), "{kind:?} truncated");
            assert!(panel.corrupt_for_test());
            assert!(!panel.is_pack_of(&w), "{kind:?} with a flipped byte");
        }
        assert!(WeightPanel::default().is_pack_of(&MatrixI8::zeros(0, 0)));
    }

    /// A flip of any one panel element fails the check — in the quad
    /// panel that includes every padding byte of the ragged last strip
    /// (19 columns) and k-tile (70 rows), which the tile tier multiplies.
    #[test]
    fn is_pack_of_refuses_a_flip_of_any_byte_padding_included() {
        let (k, n) = (70, 19);
        let w = MatrixI8::from_fn(k, n, |r, c| (((r * 13 + c * 5) % 15) as i8) - 7);
        let mut panel = WeightPanel::default();
        panel.fill(PanelKind::Quads, w.as_slice(), k, n);
        assert_eq!(panel.bytes(), 2 * 2 * 1024, "two strips of two k-tiles");
        assert!(panel.bytes() > 2 * k * n, "mostly padding");
        for row in 0..panel.quads.len() {
            for byte in 0..64 {
                panel.quads[row].0[byte] ^= 1;
                assert!(!panel.is_pack_of(&w), "quad row {row} byte {byte}");
                panel.quads[row].0[byte] ^= 1;
            }
        }
        panel.fill(PanelKind::Pairs, w.as_slice(), k, n);
        for i in 0..panel.pairs.len() {
            panel.pairs[i] ^= 1;
            assert!(!panel.is_pack_of(&w), "pair element {i}");
            panel.pairs[i] ^= 1;
        }
        assert!(panel.is_pack_of(&w));
    }

    #[test]
    fn forcing_unsupported_isa_degrades_to_scalar() {
        force_isa(Some(KernelIsa::Neon));
        #[cfg(not(target_arch = "aarch64"))]
        assert_eq!(active_isa(), KernelIsa::Scalar);
        #[cfg(target_arch = "aarch64")]
        assert_eq!(active_isa(), KernelIsa::Neon);
        force_isa(None);
        assert!(active_isa().supported());
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
                    let mut panel = WeightPanel::default();
                    panel.fill(table.panel, w.as_slice(), k, n);
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
                                wd: w.as_slice(),
                                shift: 6,
                                clamp: u8::MAX,
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
                                (table.band)(
                                    &args,
                                    &panel.pairs,
                                    &panel.quads,
                                    &mut scratch,
                                    0,
                                    m,
                                    &mut out,
                                )
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
}
