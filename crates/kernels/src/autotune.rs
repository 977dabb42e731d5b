//! Per-shape tile-size autotuning for the blocked GEMM.
//!
//! The blocked kernels take two tile parameters: `mb` (activation rows
//! per accumulator block) and `kb` (reduction rows per cache-resident
//! weight segment). The best pair depends on the GEMM shape and the
//! kernel ISA — a 4608-deep fully-connected layer wants a deeper `kb`
//! than a 27-deep first conv — so instead of the historical hardcoded
//! `MB=32 / KB=256`, the dispatcher asks this module for a
//! [`TilePlan`] per `(m, k, n, isa)`. The AMX kernel accumulates in
//! tile registers and reads no `kb`; its sweep is over `mb` alone,
//! from 16 rows to the whole band — the row block is what decides
//! whether the weight panel is streamed once or once per block.
//!
//! A [`KernelChoice`] pairs the tiles with the tier they were tuned on.
//! The tuner ranks tiles only: every weight matrix a plan executes is
//! packed once, when the plan materialises it ([`crate::WeightPanel`]),
//! so no tier pays a pack per dispatch and there is no shape on which
//! the packless scalar oracle beats a vector tier — with a resident
//! panel the AVX-512 and AMX tiers run `1 × 2048 × 1000` in 38 µs
//! against the oracle's 290, and AVX2 ties or wins from `m = 1` up
//! (DESIGN.md §4d has the table) — so no shape is handed to scalar,
//! statically or as a sweep candidate.
//!
//! Resolution policy, in order:
//!
//! 1. the `autotune.cache` fault point fires (chaos suites inject a
//!    poisoned-entry fault here): a corrupted cache entry falls back to
//!    the untuned default — never a panic, and since every choice
//!    produces bit-identical output, the fallback is invisible except
//!    in speed;
//! 2. a live thread-scoped scalar pin ([`crate::dispatch::pin_scalar`],
//!    the gateway's fault-triggered ISA demotion) serves the memoized
//!    scalar choice or the static default — a quarantined dispatch
//!    never pays a probe sweep;
//! 3. shapes below [`TUNE_MIN_MACS`] or with `GCD2_AUTOTUNE=0` use the
//!    defaults (tiny GEMMs finish before a probe would);
//! 4. a sharded-cache hit returns the memoized choice;
//! 5. otherwise the dispatcher's probe closure times each candidate on
//!    a truncated row range ([`probe_rows`]) and the fastest choice is
//!    memoized (first writer wins on races; all choices are bit-exact,
//!    so a lost race only affects which *speed* is cached).
//!
//! Tile choice is timing-based and therefore nondeterministic across
//! runs; output bytes are not — wrapping i32 accumulation makes every
//! block schedule produce identical results (the determinism gates in
//! CI rely on this).

use crate::dispatch::KernelIsa;
use gcd2_par::{CacheStats, ShardedMap};
use std::sync::OnceLock;
use std::time::Duration;

/// Blocking parameters for one GEMM dispatch: `mb` activation rows per
/// accumulator block, `kb` reduction rows per weight segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TilePlan {
    /// Activation rows per block (accumulator tile height).
    pub mb: usize,
    /// Reduction (weight) rows per cache-resident segment.
    pub kb: usize,
}

impl TilePlan {
    /// The historical fixed blocking, used whenever tuning is off,
    /// not yet warmed, or faulted out.
    pub const DEFAULT: TilePlan = TilePlan {
        mb: crate::tiled::MB,
        kb: crate::tiled::KB,
    };
}

impl Default for TilePlan {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// One resolved dispatch decision: the blocking a kernel tier runs a
/// GEMM shape with. Blockings are bit-identical, so this is purely a
/// speed choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelChoice {
    /// The tier the blocking was tuned on and executes on — always the
    /// dispatching tier; a plan artifact's TUNE record carries it.
    pub isa: KernelIsa,
    /// Its blocking parameters.
    pub tiles: TilePlan,
}

/// Row-block candidates searched per shape.
const MB_CANDIDATES: [usize; 4] = [16, 32, 64, 128];
/// Reduction-segment candidates searched per shape.
const KB_CANDIDATES: [usize; 3] = [128, 256, 1024];
/// Most rows for which the AMX sweep also tries one row block over the
/// whole GEMM (the panel streamed once, the `m × k` activations re-read
/// per strip pair). The candidate is capped at [`probe_rows`] — a probe
/// runs no more rows than that, and a block it cannot run whole would
/// be timed as a smaller block than the one cached and executed.
const WHOLE_BAND_MAX_ROWS: usize = PROBE_ROWS_CAP;

/// Shapes below this many MACs (`m·k·n`) are not worth probing: the
/// GEMM completes faster than a candidate sweep.
pub const TUNE_MIN_MACS: u64 = 1 << 25;

/// Per-candidate probe budget in MACs; bounds how much work one cold
/// shape spends tuning (the probe runs on a truncated row range).
const PROBE_MAC_BUDGET: u64 = 1 << 25;
/// Hard cap on probe rows regardless of budget.
const PROBE_ROWS_CAP: usize = 1024;
/// Probe floor: two blocks of the largest `mb` candidate, so the sweep
/// can actually observe every row blocking it ranks — probing fewer
/// rows than one block makes all `mb` candidates time identically and
/// the pick degenerate to noise.
const PROBE_ROWS_MIN: usize = 256;

/// Rows of the real activation matrix a candidate probe runs over:
/// enough to exercise the blocking, truncated so deep shapes don't pay
/// a full GEMM per candidate.
pub(crate) fn probe_rows(m: usize, k: usize, n: usize) -> usize {
    let per_row = (k * n).max(1) as u64;
    let budget =
        (PROBE_MAC_BUDGET / per_row).clamp(PROBE_ROWS_MIN as u64, PROBE_ROWS_CAP as u64) as usize;
    m.min(budget)
}

type TuneKey = (usize, usize, usize, u8);

fn cache() -> &'static ShardedMap<TuneKey, KernelChoice> {
    static CACHE: OnceLock<ShardedMap<TuneKey, KernelChoice>> = OnceLock::new();
    CACHE.get_or_init(ShardedMap::new)
}

/// Whether tuning is enabled for this process (`GCD2_AUTOTUNE=0`
/// disables it; resolved once).
pub fn autotune_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("GCD2_AUTOTUNE").map_or(true, |v| v != "0"))
}

/// The memoized choice for a shape on the dispatching tier `isa`, if
/// that shape has been tuned in this process — a pure lookup (no fault
/// point, no probing) for reports.
pub fn cached_choice(m: usize, k: usize, n: usize, isa: KernelIsa) -> Option<KernelChoice> {
    cache().get(&(m, k, n, isa as u8))
}

/// Tile-plan ceilings a seeded hint must respect; anything beyond the
/// candidate tables (with headroom for future tables) is rejected as
/// implausible rather than installed.
const SEED_MB_MAX: usize = 4096;
const SEED_KB_MAX: usize = 1 << 20;

/// Installs an externally recorded dispatch decision (e.g. the TUNE
/// section of a loaded plan artifact) into this process's tuner memo.
///
/// Hints are **advisory and validated**: the tier must be executable on
/// this CPU and be the one the hint was recorded under (an older build's
/// scalar hand-off was measured against a per-dispatch pack nobody pays
/// any more), the blocking must be sane, and a shape that was already
/// probed locally keeps its measured choice (first writer wins — local
/// timings beat another machine's). Tile choices never change output
/// bytes, only speed, so a stale or mis-tuned hint is a performance
/// hazard at worst. Returns whether the hint was installed.
pub fn seed_choice(
    m: usize,
    k: usize,
    n: usize,
    dispatch_isa: KernelIsa,
    choice: KernelChoice,
) -> bool {
    if !autotune_enabled() || !dispatch_isa.supported() || choice.isa != dispatch_isa {
        return false;
    }
    let TilePlan { mb, kb } = choice.tiles;
    if mb == 0 || kb == 0 || mb > SEED_MB_MAX || kb > SEED_KB_MAX {
        return false;
    }
    let key = (m, k, n, dispatch_isa as u8);
    if cache().get(&key).is_some() {
        return false;
    }
    cache().insert(key, choice);
    true
}

/// Hit/miss counters of the tuner cache.
pub fn tuner_cache_stats() -> CacheStats {
    cache().stats()
}

/// Candidate plans for a shape on the dispatching tier `isa`: the cross
/// product of the `mb`/`kb` tables, clamped to the shape (a `kb` deeper
/// than `k` degenerates to `k`) and deduplicated, with the default plan
/// always included. Only what the tier's kernel distinguishes varies:
/// the AMX kernel has no reduction segments, so its candidates differ
/// in `mb` alone — from 32 rows, the least its 2 × 2-tile block fills,
/// to one row block over the whole GEMM, or over the rows the probe
/// runs where those are fewer: every block ranked is the block timed.
fn candidates(isa: KernelIsa, m: usize, k: usize, n: usize) -> Vec<TilePlan> {
    let amx = isa == KernelIsa::AmxInt8;
    let whole_band = (amx && m <= WHOLE_BAND_MAX_ROWS).then(|| probe_rows(m, k, n));
    let kbs: &[usize] = if amx {
        &[TilePlan::DEFAULT.kb]
    } else {
        &KB_CANDIDATES
    };
    let mut out = vec![TilePlan::DEFAULT];
    let mbs = MB_CANDIDATES.into_iter().filter(|&mb| !amx || mb >= 32);
    for mb in mbs.chain(whole_band) {
        for &kb in kbs {
            let t = TilePlan {
                mb: mb.min(m.max(1)),
                kb: if amx {
                    kb
                } else {
                    kb.min(k.next_multiple_of(2).max(2))
                },
            };
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
    out
}

/// The choice a shape gets when it is not (or cannot be) probed: the
/// dispatching tier with default tiles.
pub(crate) fn static_choice(isa: KernelIsa) -> KernelChoice {
    KernelChoice {
        isa,
        tiles: TilePlan::DEFAULT,
    }
}

/// Resolves the kernel choice for one GEMM dispatch on the dispatching
/// tier `isa`. `probe` times one candidate blocking over the truncated
/// probe range and is only invoked on a cache miss above the tuning
/// threshold. Returns the choice plus whether it came from tuning
/// (cache hit or fresh probe) rather than statics.
pub(crate) fn resolve_kernel(
    m: usize,
    k: usize,
    n: usize,
    isa: KernelIsa,
    probe: &mut dyn FnMut(KernelChoice) -> Duration,
) -> (KernelChoice, bool) {
    // Fire first so chaos scenarios targeting the tuner cache always
    // reach the point, whatever the shape. A corrupted entry means the
    // memo cannot be trusted: fall back to the static choice (bit-exact,
    // merely untuned) instead of panicking or erroring.
    if matches!(
        gcd2_faults::fire("autotune.cache"),
        gcd2_faults::Injection::CorruptCache
    ) {
        return (static_choice(isa), false);
    }
    // A thread-scoped scalar pin (fault-triggered ISA demotion,
    // [`crate::dispatch::pin_scalar`]) is a quarantine, not a tuning
    // regime: don't pay probe sweeps — or memoize their timings — while
    // demoted. Serve the memoized scalar choice if this shape already
    // has one, else the static scalar default. Tiles only ever change
    // speed, never bytes, so the shortcut is invisible in output.
    if crate::dispatch::scalar_pinned() {
        if let Some(c) = cache().get(&(m, k, n, KernelIsa::Scalar as u8)) {
            return (c, true);
        }
        return (static_choice(isa), false);
    }
    if !autotune_enabled()
        || (m as u64).saturating_mul(k as u64).saturating_mul(n as u64) < TUNE_MIN_MACS
    {
        return (static_choice(isa), false);
    }
    let key = (m, k, n, isa as u8);
    if let Some(c) = cache().get(&key) {
        return (c, true);
    }
    let mut best = static_choice(isa);
    let mut best_t = Duration::MAX;
    for tiles in candidates(isa, m, k, n) {
        let cand = KernelChoice { isa, tiles };
        let took = probe(cand);
        if took < best_t {
            best_t = took;
            best = cand;
        }
    }
    cache().insert(key, best);
    (best, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_include_default_and_dedup() {
        for isa in KernelIsa::ALL {
            let c = candidates(isa, 1000, 2048, 64);
            assert!(c.contains(&TilePlan::DEFAULT));
            let mut seen = std::collections::HashSet::new();
            for t in &c {
                assert!(seen.insert(*t), "duplicate candidate {t:?}");
                assert!(t.mb >= 1 && t.kb >= 2);
            }
            // Small shapes clamp: no candidate exceeds the shape.
            for t in candidates(isa, 8, 10, 64) {
                assert!(t.mb <= 32, "mb {} for m=8 (default may exceed m)", t.mb);
            }
        }
    }

    /// The AMX kernel reads `mb` alone: one candidate per row block,
    /// the whole GEMM among them — capped at the rows the probe runs,
    /// so no candidate is timed as a smaller block than it names.
    #[test]
    fn amx_candidates_vary_mb_only_and_offer_the_whole_band() {
        let mbs = |m: usize, k: usize, n: usize| -> Vec<usize> {
            let c = candidates(KernelIsa::AmxInt8, m, k, n);
            assert!(c.iter().all(|t| t.kb == TilePlan::DEFAULT.kb));
            assert!(c.iter().all(|t| t.mb <= probe_rows(m, k, n).max(32)));
            c.iter().map(|t| t.mb).collect()
        };
        assert_eq!(mbs(196, 4608, 512), [32, 64, 128, 196]);
        assert_eq!(mbs(49, 4608, 512), [32, 49]);
        assert_eq!(mbs(12544, 147, 64), [32, 64, 128]);
        // The probe runs every row: the whole GEMM is offered.
        assert_eq!(mbs(784, 128, 64), [32, 64, 128, 784]);
        // The probe stops at 512 and at 256 rows: so does the block.
        assert_eq!(mbs(784, 128, 512), [32, 64, 128, 512]);
        assert_eq!(mbs(784, 1152, 128), [32, 64, 128, 256]);
        assert_eq!(mbs(1024, 4608, 512), [32, 64, 128, 256]);
        assert_eq!(candidates(KernelIsa::Avx512Vnni, 196, 4608, 512).len(), 12);
    }

    #[test]
    fn probe_rows_respects_budget() {
        // Tiny per-row cost: capped by the row cap, not the budget.
        assert_eq!(probe_rows(10_000, 16, 16), PROBE_ROWS_CAP);
        // Huge per-row cost: budget dominates but never below the floor
        // (two blocks of the largest mb candidate).
        assert_eq!(probe_rows(10_000, 4608, 4608), PROBE_ROWS_MIN);
        // Fewer rows than budget: use them all.
        assert_eq!(probe_rows(5, 64, 64), 5);
    }

    #[test]
    fn small_shapes_resolve_to_default_without_probing() {
        let mut calls = 0;
        let (c, tuned) = resolve_kernel(4, 4, 4, KernelIsa::Scalar, &mut |_| {
            calls += 1;
            Duration::ZERO
        });
        assert_eq!(c, static_choice(KernelIsa::Scalar));
        assert!(!tuned);
        assert_eq!(calls, 0, "below-threshold shape must not probe");
    }

    /// A skinny shape keeps the dispatching tier: with resident panels
    /// no tier hands anything to the scalar oracle.
    #[test]
    fn skinny_shapes_stay_on_the_dispatching_tier() {
        let mut calls = 0;
        let (c, tuned) = resolve_kernel(1, 1280, 1000, KernelIsa::Avx2, &mut |_| {
            calls += 1;
            Duration::ZERO
        });
        assert_eq!(c, static_choice(KernelIsa::Avx2));
        assert!(!tuned);
        assert_eq!(calls, 0, "below-threshold shape must not probe");
        // Above the threshold every candidate is on the dispatching tier.
        let (c, tuned) = resolve_kernel(64, 2048, 512, KernelIsa::Avx2, &mut |cand| {
            assert_eq!(cand.isa, KernelIsa::Avx2);
            Duration::from_micros(1)
        });
        assert!(tuned);
        assert_eq!(c.isa, KernelIsa::Avx2);
    }

    #[test]
    fn resolution_memoizes_first_probe() {
        // Unique shape for this test; above threshold.
        let (m, k, n) = (4096, 1024, 64);
        let mut calls = 0;
        let (c1, tuned1) = resolve_kernel(m, k, n, KernelIsa::Scalar, &mut |cand| {
            calls += 1;
            // Deterministic "timing": prefer mb=64/kb=1024.
            Duration::from_micros((200 - cand.tiles.mb.min(64) - cand.tiles.kb / 16) as u64)
        });
        assert!(tuned1);
        assert!(calls > 1, "cold shape must sweep candidates");
        assert_eq!(c1.isa, KernelIsa::Scalar);
        assert_eq!(c1.tiles, TilePlan { mb: 64, kb: 1024 });
        let before = calls;
        let (c2, tuned2) = resolve_kernel(m, k, n, KernelIsa::Scalar, &mut |_| {
            calls += 1;
            Duration::ZERO
        });
        assert!(tuned2);
        assert_eq!(c2, c1, "memoized choice must be returned");
        assert_eq!(calls, before, "warm shape must not probe");
        assert_eq!(cached_choice(m, k, n, KernelIsa::Scalar), Some(c1));
        assert_eq!(cached_choice(m, k, n, KernelIsa::Avx2), None);
    }
}
