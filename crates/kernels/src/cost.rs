//! The kernel cost model: SDA-packed cycle counts of generated kernels.
//!
//! `Cost(ep_i(O))` in the paper's Equation 1 — "based on the number of
//! instructions (cycles) required", assuming inputs already sit in the
//! plan's layout. Costs here are produced by *scheduling the actual
//! instruction streams* with the SDA packer and summing packet cycles, so
//! the optimizer's objective and the end-to-end measurements share one
//! machinery.

use crate::conv::depthwise_vtmpy_blocks;
use crate::elementwise::{elementwise_blocks, EwKind};
use crate::instr::SimdInstr;
use crate::matmul::timing_blocks;
use crate::unroll::{adaptive_unroll, candidates, UnrollConfig, UnrollStrategy};
use gcd2_cgraph::GemmDims;
use gcd2_hvx::{Block, ExecStats, Program};
use gcd2_vliw::{CacheStats, Memo, Packer};
use std::sync::Arc;

/// Fixed per-kernel invocation overhead in cycles: runtime dispatch, DMA
/// descriptor setup, and weight prefetch warm-up. Shared by every
/// instruction choice (so it never biases selection); calibrated so the
/// small-shape latency ratios of Table II match the paper's measurements,
/// where fixed overheads visibly compress the gaps at M = K = N = 32.
pub const KERNEL_DISPATCH_CYCLES: u64 = 7000;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CostKey {
    Gemm(GemmDims, SimdInstr, UnrollConfig),
    Ew(EwKind, usize),
    DwVtmpy(usize, usize),
}

/// A shareable handle to a cost-model memo table.
///
/// Cached cycle counts are pure functions of their structural keys
/// (GEMM dims + instruction + unroll, elementwise kind + size) *given a
/// fixed packer configuration*, so a cache may outlive any single
/// [`CostModel`] and be rethreaded into fresh models — e.g. a `Compiler`
/// keeping its cache warm across `compile` calls. Holders must drop the
/// cache whenever the packer configuration (resource model, scheduling
/// policy) changes, since that changes the cycle values.
#[derive(Debug, Default, Clone)]
pub struct CostCache(Arc<Memo<CostKey, u64>>);

impl CostCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative hit/miss counters over the cache's lifetime.
    pub fn stats(&self) -> CacheStats {
        self.0.stats()
    }
}

/// Cycle cost model backed by kernel generation + SDA packing, with
/// memoization.
///
/// The memo is shared via `Arc`, so clones share the same warm cache,
/// and `&CostModel` is `Sync`. Cached cycle counts are pure functions
/// of their keys, so concurrent use is deterministic.
#[derive(Debug, Default, Clone)]
pub struct CostModel {
    packer: Packer,
    cache: Arc<Memo<CostKey, u64>>,
}

impl CostModel {
    /// Creates a cost model using the default SDA packer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cost model using a specific packer (e.g. a
    /// `soft_to_hard` packer to cost a baseline framework).
    pub fn with_packer(packer: Packer) -> Self {
        CostModel {
            packer,
            cache: Arc::default(),
        }
    }

    /// Rethreads this model onto a shared [`CostCache`], e.g. one kept
    /// warm across compiles. The caller is responsible for only sharing
    /// caches between models with identical packer configurations.
    pub fn with_cache(mut self, cache: &CostCache) -> Self {
        self.cache = cache.0.clone();
        self
    }

    /// The packer used for scheduling.
    pub fn packer(&self) -> &Packer {
        &self.packer
    }

    /// Hit/miss counters of the cost cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Packs kernel blocks into a program.
    pub fn pack_program(&self, blocks: &[Block]) -> Program {
        blocks.iter().map(|b| self.packer.pack_block(b)).collect()
    }

    /// Cycles of `blocks` when SDA-packed (no dispatch overhead).
    pub fn blocks_cycles(&self, blocks: &[Block]) -> u64 {
        blocks
            .iter()
            .map(|b| {
                let body: u64 = self
                    .packer
                    .pack_insns(&b.insns)
                    .iter()
                    .map(|p| p.cycles() as u64)
                    .sum();
                body * b.trip_count
            })
            .sum()
    }

    /// Cycles of a GEMM kernel under an explicit unroll configuration,
    /// including the kernel dispatch overhead.
    pub fn gemm_cycles(&self, gemm: &GemmDims, instr: SimdInstr, unroll: UnrollConfig) -> u64 {
        self.cache
            .get_or_insert_with(&CostKey::Gemm(*gemm, instr, unroll), || {
                self.blocks_cycles(&timing_blocks(gemm, instr, unroll)) + KERNEL_DISPATCH_CYCLES
            })
    }

    /// Cycles of a GEMM kernel with the adaptive unroll heuristic — the
    /// configuration GCD2 ships.
    pub fn gemm_cycles_adaptive(&self, gemm: &GemmDims, instr: SimdInstr) -> u64 {
        self.gemm_cycles(gemm, instr, adaptive_unroll(gemm, instr))
    }

    /// The best configuration a strategy can reach, with its cycles
    /// (used for the Figure 12 comparison; `Exhaustive` evaluates the
    /// whole factor grid).
    pub fn best_unroll(
        &self,
        gemm: &GemmDims,
        instr: SimdInstr,
        strategy: UnrollStrategy,
    ) -> (UnrollConfig, u64) {
        match candidates(strategy, gemm, instr)
            .into_iter()
            .map(|cfg| (cfg, self.gemm_cycles(gemm, instr, cfg)))
            .min_by_key(|&(_, c)| c)
        {
            Some(best) => best,
            None => unreachable!("strategies always propose at least one configuration"),
        }
    }

    /// Cycles of a non-GEMM kernel over `elems` elements.
    pub fn ew_cycles(&self, kind: EwKind, elems: usize) -> u64 {
        self.cache
            .get_or_insert_with(&CostKey::Ew(kind, elems), || {
                self.blocks_cycles(&elementwise_blocks(kind, elems)) + KERNEL_DISPATCH_CYCLES / 4
            })
    }

    /// Cycles of the dedicated depthwise `vtmpy` kernel (3-tap sliding
    /// multiply) over `out_elems` outputs with a `kh`-row kernel —
    /// the alternative instruction choice for depthwise convolutions.
    pub fn dw_vtmpy_cycles(&self, out_elems: usize, kh: usize) -> u64 {
        self.cache
            .get_or_insert_with(&CostKey::DwVtmpy(out_elems, kh), || {
                self.blocks_cycles(&depthwise_vtmpy_blocks(out_elems, kh)) + KERNEL_DISPATCH_CYCLES
            })
    }

    /// Full execution statistics (not just cycles) of a GEMM kernel —
    /// utilization, memory traffic, unit activity — including dispatch
    /// overhead as idle cycles.
    pub fn gemm_stats(&self, gemm: &GemmDims, instr: SimdInstr, unroll: UnrollConfig) -> ExecStats {
        let mut stats = self
            .pack_program(&timing_blocks(gemm, instr, unroll))
            .stats();
        stats.cycles += KERNEL_DISPATCH_CYCLES;
        stats
    }

    /// Full execution statistics of a non-GEMM kernel.
    pub fn ew_stats(&self, kind: EwKind, elems: usize) -> ExecStats {
        let mut stats = self.pack_program(&elementwise_blocks(kind, elems)).stats();
        stats.cycles += KERNEL_DISPATCH_CYCLES / 4;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline calibration check: Table II's per-row winners.
    #[test]
    fn table2_winners() {
        let m = CostModel::new();
        let best = |size: usize| -> SimdInstr {
            let g = GemmDims::new(size, size, size);
            SimdInstr::ALL
                .into_iter()
                .min_by_key(|&i| m.gemm_cycles(&g, i, UnrollConfig::new(2, 2)))
                .unwrap()
        };
        assert_eq!(best(32), SimdInstr::Vrmpy, "32^3: vrmpy wins (Table II)");
        assert_eq!(best(64), SimdInstr::Vmpa, "64^3: vmpa wins (Table II)");
        assert_eq!(best(96), SimdInstr::Vrmpy, "96^3: vrmpy wins (Table II)");
        assert_eq!(best(128), SimdInstr::Vmpy, "128^3: vmpy wins (Table II)");
    }

    #[test]
    fn cache_is_consistent() {
        let m = CostModel::new();
        let g = GemmDims::new(256, 64, 32);
        let a = m.gemm_cycles(&g, SimdInstr::Vmpy, UnrollConfig::NONE);
        let b = m.gemm_cycles(&g, SimdInstr::Vmpy, UnrollConfig::NONE);
        assert_eq!(a, b);
        let stats = m.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    /// The cache under concurrent hammering: many workers cost
    /// the same key space; no insert may be lost, and every cached value
    /// must agree with an uncached (fresh-model) computation.
    #[test]
    fn sharded_cache_concurrent_hammer() {
        let shared = CostModel::new();
        let shapes: Vec<GemmDims> = (0..6)
            .map(|i| GemmDims::new(32 << (i % 3), 64, 32 + 16 * (i % 4)))
            .collect();
        let hammer = || {
            shapes
                .iter()
                .flat_map(|g| {
                    SimdInstr::ALL
                        .into_iter()
                        .map(|i| shared.gemm_cycles(g, i, UnrollConfig::NONE))
                })
                .collect::<Vec<u64>>()
        };
        let per_worker: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..8).map(|_| s.spawn(hammer)).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("hammer worker"))
                .collect()
        });
        // Cached values agree with a fresh, uncontended model.
        let fresh = CostModel::new();
        let expected: Vec<u64> = shapes
            .iter()
            .flat_map(|g| {
                SimdInstr::ALL
                    .into_iter()
                    .map(|i| fresh.gemm_cycles(g, i, UnrollConfig::NONE))
            })
            .collect();
        for w in &per_worker {
            assert_eq!(w, &expected, "concurrent costs must match uncached costs");
        }
        // No lost inserts: every (shape, instr) key is cached exactly once.
        let stats = shared.cache_stats();
        let distinct = (shapes.len() * SimdInstr::ALL.len()) as u64;
        assert_eq!(stats.hits + stats.misses, 8 * distinct);
        assert!(stats.misses >= distinct);
        assert!(stats.hits > 0, "repeat lookups must hit the cache");
        // Clones share the warm cache.
        let clone = shared.clone();
        let before = clone.cache_stats().hits;
        clone.gemm_cycles(&shapes[0], SimdInstr::Vmpy, UnrollConfig::NONE);
        assert_eq!(clone.cache_stats().hits, before + 1);
    }

    #[test]
    fn unrolling_helps_then_hurts() {
        let m = CostModel::new();
        let g = GemmDims::new(512, 256, 256);
        let none = m.gemm_cycles(&g, SimdInstr::Vmpy, UnrollConfig::NONE);
        let moderate = m.gemm_cycles(&g, SimdInstr::Vmpy, UnrollConfig::new(4, 4));
        let extreme = m.gemm_cycles(&g, SimdInstr::Vmpy, UnrollConfig::new(16, 16));
        assert!(
            moderate < none,
            "moderate unrolling must help: {moderate} vs {none}"
        );
        assert!(
            extreme > moderate,
            "register spills must hurt: {extreme} vs {moderate}"
        );
    }

    #[test]
    fn adaptive_close_to_exhaustive() {
        let m = CostModel::new();
        for (mm, nn) in [(1024, 32), (256, 256), (64, 1024)] {
            let g = GemmDims::new(mm, 256, nn);
            let (_, adaptive) = m.best_unroll(&g, SimdInstr::Vmpy, UnrollStrategy::Adaptive);
            let (_, exhaustive) = m.best_unroll(&g, SimdInstr::Vmpy, UnrollStrategy::Exhaustive);
            assert!(
                (adaptive as f64) <= exhaustive as f64 * 1.15,
                "{mm}x{nn}: adaptive {adaptive} vs exhaustive {exhaustive}"
            );
        }
    }

    #[test]
    fn vtmpy_beats_gemm_path_for_3_wide_depthwise() {
        // The dedicated 3-tap kernel processes 128 outputs per multiply
        // instruction with no weight-reload traffic per output column.
        let m = CostModel::new();
        let out_elems = 32 * 28 * 28;
        let gemm = GemmDims::new(out_elems, 9, 1); // im2col view of 3x3 DW
        let gemm_best: u64 = SimdInstr::ALL
            .into_iter()
            .map(|i| m.gemm_cycles_adaptive(&gemm, i))
            .min()
            .unwrap();
        let vtmpy = m.dw_vtmpy_cycles(out_elems, 3);
        assert!(vtmpy < gemm_best, "vtmpy {vtmpy} vs best gemm {gemm_best}");
    }

    #[test]
    fn stats_have_activity() {
        let m = CostModel::new();
        let s = m.gemm_stats(
            &GemmDims::new(128, 64, 16),
            SimdInstr::Vrmpy,
            UnrollConfig::NONE,
        );
        assert!(s.multiply_insns() > 0);
        assert!(s.mem_read_bytes > 0);
        assert!(s.utilization() > 0.0 && s.utilization() <= 1.0);
    }
}
