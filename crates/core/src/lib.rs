//! # gcd2 — the end-to-end compilation system
//!
//! The paper's Figure 6 workflow, assembled from the substrate crates:
//!
//! 1. computational-graph optimization (constant folding, reshape
//!    elimination, activation fusion — `gcd2-cgraph`);
//! 2. **SIMD global optimization** — per-operator plan enumeration and
//!    global layout/instruction selection (`gcd2-globalopt`): the PBQP
//!    reductions by default, the paper's partitioning heuristic as
//!    [`Selection::Gcd2`];
//! 3. other optimizations (division → lookup table);
//! 4. code generation to DSP instruction streams (`gcd2-codegen`);
//! 5. **SDA VLIW packing** (`gcd2-vliw`) and static timing/energy
//!    measurement on the simulated Hexagon-class DSP (`gcd2-hvx`).
//!
//! Every stage has an ablation knob so the evaluation harness can
//! regenerate the paper's Figure 9/10/11 breakdowns.
//!
//! ```
//! use gcd2::{Compiler, Selection};
//! use gcd2_cgraph::{Graph, OpKind, TShape};
//!
//! let mut g = Graph::new();
//! let mut prev = g.input("x", TShape::nchw(1, 48, 16, 16));
//! for i in 0..4 {
//!     prev = g.add(
//!         OpKind::Conv2d { out_channels: 48, kernel: (3, 3), stride: (1, 1), padding: (1, 1) },
//!         &[prev],
//!         format!("conv{i}"),
//!     );
//! }
//!
//! let gcd2 = Compiler::new().compile(&g);
//! let local = Compiler::new().with_selection(Selection::LocalOptimal).compile(&g);
//! assert!(gcd2.cycles() <= local.cycles());
//! assert!(gcd2.latency_ms() > 0.0);
//! ```

// Robustness gate: public compiler paths must not contain bare
// unwrap/expect — user-reachable failures return `Gcd2Error`, true
// invariants use `unreachable!` with a descriptive message. Test code
// is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use gcd2_cgraph::Graph;
use gcd2_codegen::{try_lower, LowerOptions, LoweredModel, PackMode};
use gcd2_globalopt::{
    exhaustive, gcd2_select_budgeted, local_optimal, pbqp_select, try_enumerate_plans, Assignment,
    PlanSet, MAX_STATES,
};
use gcd2_hvx::{EnergyModel, ExecStats, CLOCK_HZ};
use gcd2_kernels::{CostCache, CostModel, SimdInstr};
use gcd2_vliw::{CacheStats, Packer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

pub use gcd2_codegen::{LowerError, PackMode as Packing};
pub use gcd2_globalopt::DegradeEvent;

pub mod admit;
pub mod artifact;
pub mod error;
pub mod infer;
mod layout;
pub mod runtime;
pub mod serve;
pub mod supervise;
pub use admit::{admit, admit_with, AdmissionError, AdmissionLimits};
pub use artifact::{
    load_or_compile, ArtifactStats, ColdStart, ColdStartFallback, ColdStartSource, LoadedArtifact,
};
use error::panic_message;
pub use error::{Gcd2Error, InferError};
pub use gcd2_analyze::{Analysis, Diagnostic, GemmRange, LintCode, RangeReport, Severity, Verdict};
pub use gcd2_artifact::{ArtifactCache, ArtifactError};
pub use gcd2_verify::ActLayout;
pub use infer::{
    DirectKernelInfo, ExecOptions, GemmKernelInfo, InferArena, InferReport, InferencePlan, OpTiming,
};
pub use layout::LayoutCost;
pub use runtime::{execute_on_dsp, execute_reference};
pub use serve::{
    BreakerHealth, GatewayConfig, GatewayHealth, InferServer, InferTicket, LatencyHistogram,
    LatencySummary, ModelStats, ServerStats, WorkerHealth,
};
pub use supervise::{
    counts_as_fault, Admission, BreakerConfig, BreakerState, CircuitBreaker, HealthEvent,
    HealthLog, SupervisorConfig,
};

/// Layout/instruction selection strategies (Figure 10's competitors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// The GCD2 partitioning heuristic with a maximum sub-graph size
    /// (13 and 17 in the paper).
    Gcd2 {
        /// Maximum operators per partition.
        max_ops: usize,
    },
    /// Greedy per-operator choice (the `local optimal` baseline).
    LocalOptimal,
    /// Exhaustive global search (exponential; small graphs only).
    GlobalExhaustive,
    /// The reduction-based PBQP solver (the paper's cited alternative).
    Pbqp,
    /// A single uniform instruction for every GEMM operator (the
    /// framework-library style of TFLite/SNPE, used as the "no
    /// instruction/layout selection" rung of Figure 9).
    Uniform(SimdInstr),
}

/// The default is [`Selection::Pbqp`]: on every catalog model its
/// assignment is a certified optimum of Equation 1 (`rn_steps == 0` on
/// nine models; `gcd2_globalopt::pbqp::certify` proves the tenth), and it
/// is never above GCD2(13) there. [`Selection::Gcd2`], which the paper
/// reproductions name explicitly, runs under a fixed cap of
/// [`gcd2_globalopt::MAX_STATES`] DFS states and falls to the greedy
/// (local-optimal) floor if a graph needs more.
impl Default for Selection {
    fn default() -> Self {
        Selection::Pbqp
    }
}

/// The configurable GCD2 compiler.
#[derive(Debug, Clone)]
pub struct Compiler {
    selection: Selection,
    packing: PackMode,
    lut_ops: bool,
    /// Every operator consumes and produces the framework's row-major
    /// interchange format (paying two conversions per operator) — how
    /// data flows *without* global layout planning. Only the Figure 9
    /// "no optimizations" baseline ([`Compiler::no_opt`]) sets it.
    framework_boundaries: bool,
    elementwise_fusion: bool,
    resource: gcd2_hvx::ResourceModel,
    pack_memo: bool,
    /// Kernel-cost cache persisted across compiles of this compiler (and
    /// shared by its clones): recompiles and structurally similar models
    /// run warm. Reset whenever a knob that changes cost *values*
    /// (packing mode, resource model) changes.
    cost_cache: CostCache,
}

impl Compiler {
    /// The full GCD2 configuration.
    pub fn new() -> Self {
        Compiler {
            selection: Selection::default(),
            packing: PackMode::Sda,
            lut_ops: true,
            framework_boundaries: false,
            elementwise_fusion: false,
            resource: gcd2_hvx::ResourceModel::default(),
            pack_memo: true,
            cost_cache: CostCache::new(),
        }
    }

    /// The "no optimizations" baseline of Figure 9: uniform kernels,
    /// sequential issue, no lookup replacement.
    pub fn no_opt() -> Self {
        Compiler {
            selection: Selection::Uniform(SimdInstr::Vrmpy),
            packing: PackMode::Sequential,
            lut_ops: false,
            framework_boundaries: true,
            elementwise_fusion: false,
            resource: gcd2_hvx::ResourceModel::default(),
            pack_memo: true,
            cost_cache: CostCache::new(),
        }
    }

    /// Always 1: compilation runs on the calling thread (kept because
    /// `perfbench` reports it as `par.compile_threads`).
    pub fn threads(&self) -> usize {
        1
    }

    /// A stable fingerprint of every knob that can change compiled
    /// *output* — the artifact cache folds it into its content address
    /// so two differently configured compilers never share an entry.
    /// Knobs that are bit-transparent by contract (the packing memo,
    /// the cost cache) are deliberately excluded: they change compile
    /// speed, never output bytes.
    pub fn options_key(&self) -> String {
        format!(
            "sel={:?};pack={:?};lut={};fb={};ewf={};res={:?}",
            self.selection,
            self.packing,
            self.lut_ops,
            self.framework_boundaries,
            self.elementwise_fusion,
            self.resource,
        )
    }

    /// Enables/disables the structural packing memo (on by default).
    /// Disabling it reproduces the memo-free seed behaviour — every
    /// block is re-packed from scratch — and exists for baseline
    /// compile-time measurements.
    pub fn with_pack_memo(mut self, memo: bool) -> Self {
        self.pack_memo = memo;
        self
    }

    /// Sets the selection strategy.
    pub fn with_selection(mut self, selection: Selection) -> Self {
        self.selection = selection;
        self
    }

    /// Sets the packing mode. Kernel cycle costs depend on the packing
    /// policy, so the persistent cost cache is reset.
    pub fn with_packing(mut self, packing: PackMode) -> Self {
        self.packing = packing;
        self.cost_cache = CostCache::new();
        self
    }

    /// Enables/disables the lookup-table "other optimizations".
    pub fn with_lut_ops(mut self, lut_ops: bool) -> Self {
        self.lut_ops = lut_ops;
        self
    }

    /// Targets a different DSP generation's packet resource model
    /// (e.g. [`gcd2_hvx::ResourceModel::hexagon680`]). Kernel cycle
    /// costs depend on the packet resources, so the persistent cost
    /// cache is reset.
    pub fn with_resource_model(mut self, resource: gcd2_hvx::ResourceModel) -> Self {
        self.resource = resource;
        self.cost_cache = CostCache::new();
        self
    }

    /// Enables the DSP-friendly elementwise fusion extension (the
    /// paper's stated future work): standalone activations fold into
    /// elementwise producers, saving full feature-map memory round trips.
    pub fn with_elementwise_fusion(mut self, fusion: bool) -> Self {
        self.elementwise_fusion = fusion;
        self
    }

    /// Runs the graph rewrites (fusion etc.), then the elementwise
    /// fusion extension if it is enabled.
    fn rewrite(&self, graph: &Graph) -> Graph {
        let graph = gcd2_cgraph::optimize(graph);
        if self.elementwise_fusion {
            gcd2_cgraph::fuse_elementwise_activations(&graph)
        } else {
            graph
        }
    }

    /// The cost model matching this compiler's packing configuration.
    fn cost_model(&self) -> CostModel {
        let mut base_packer = Packer::new().with_model(self.resource.clone());
        if !matches!(self.packing, PackMode::Sda) {
            base_packer = base_packer.with_policy(gcd2_vliw::SoftDepPolicy::SoftToHard);
        }
        if !self.pack_memo {
            base_packer = base_packer.without_memo();
        }
        CostModel::with_packer(base_packer).with_cache(&self.cost_cache)
    }

    /// Runs the configured selection strategy. Returns the assignment
    /// and what the strategy reports about it: GCD2's fall to the greedy
    /// floor if it hit the state cap, or PBQP's RN step count.
    fn assign(&self, graph: &Graph, plans: &PlanSet) -> (Assignment, SelectionReport) {
        let assignment = match self.selection {
            Selection::Gcd2 { max_ops } => {
                let (assignment, degrade) = gcd2_select_budgeted(graph, plans, max_ops, MAX_STATES);
                let report = SelectionReport {
                    degrade: degrade.into_iter().collect(),
                    rn_steps: None,
                };
                return (assignment, report);
            }
            Selection::LocalOptimal => local_optimal(graph, plans),
            Selection::Pbqp => {
                let (assignment, rn_steps) = pbqp_select(graph, plans);
                let report = SelectionReport {
                    rn_steps: Some(rn_steps),
                    ..SelectionReport::default()
                };
                return (assignment, report);
            }
            Selection::GlobalExhaustive => {
                let scope: Vec<_> = graph
                    .nodes()
                    .iter()
                    .filter(|n| {
                        !matches!(
                            n.kind,
                            gcd2_cgraph::OpKind::Input | gcd2_cgraph::OpKind::Constant
                        )
                    })
                    .map(|n| n.id)
                    .collect();
                exhaustive(graph, plans, &scope)
            }
            Selection::Uniform(instr) => {
                let choice: Vec<usize> = graph
                    .nodes()
                    .iter()
                    .map(|n| {
                        plans
                            .of(n.id)
                            .iter()
                            .position(|p| p.instr() == Some(instr) || p.layout == instr.layout())
                            .unwrap_or(0)
                    })
                    .collect();
                let cost = gcd2_globalopt::assignment_cost(graph, plans, &choice);
                Assignment { choice, cost }
            }
        };
        (assignment, SelectionReport::default())
    }

    /// Runs plan selection only (no lowering) — used by the Figure 10
    /// search-time measurements. Returns the rewritten graph the plans
    /// and the assignment are over.
    pub fn select(&self, graph: &Graph) -> (Graph, PlanSet, Assignment) {
        let graph = self.rewrite(graph);
        let plans = try_enumerate_plans(&graph, &self.cost_model(), self.lut_ops);
        let (assignment, _) = self.assign(&graph, &plans);
        (graph, plans, assignment)
    }

    /// Compiles a model end to end.
    ///
    /// # Panics
    /// Panics on any compilation failure; [`Compiler::try_compile`] is
    /// the non-panicking form.
    pub fn compile(&self, graph: &Graph) -> CompiledModel {
        self.compile_timed(graph).0
    }

    /// Compiles a model end to end and reports per-stage wall-clock
    /// timings plus cache statistics alongside the compiled model.
    ///
    /// # Panics
    /// Panics on any compilation failure; [`Compiler::try_compile_timed`]
    /// is the non-panicking form.
    pub fn compile_timed(&self, graph: &Graph) -> (CompiledModel, CompileReport) {
        match self.try_compile_timed(graph) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible end-to-end compilation: the compiled model alone.
    pub fn try_compile(&self, graph: &Graph) -> Result<CompiledModel, Gcd2Error> {
        self.try_compile_timed(graph).map(|(compiled, _)| compiled)
    }

    /// Parses serialized graph text ([`gcd2_cgraph::from_text`]) and
    /// compiles it. Malformed or hostile text yields a structured
    /// [`Gcd2Error`], never a panic.
    pub fn try_compile_text(
        &self,
        text: &str,
    ) -> Result<(CompiledModel, CompileReport), Gcd2Error> {
        guarded(|| self.admit_and_compile(&gcd2_cgraph::from_text(text)?))
    }

    /// Fallible end-to-end compilation.
    ///
    /// The graph is checked against the default [`AdmissionLimits`]
    /// before any solver work, and the whole pipeline runs under a
    /// panic guard: any internal defect surfaces as
    /// [`Gcd2Error::Internal`] instead of unwinding into the caller.
    pub fn try_compile_timed(
        &self,
        graph: &Graph,
    ) -> Result<(CompiledModel, CompileReport), Gcd2Error> {
        guarded(|| self.admit_and_compile(graph))
    }

    fn admit_and_compile(
        &self,
        graph: &Graph,
    ) -> Result<(CompiledModel, CompileReport), Gcd2Error> {
        admit::admit(graph)?;
        self.compile_pipeline(graph)
    }

    /// The compilation pipeline body shared by the fallible and
    /// panicking entry points (admission already done by the caller).
    fn compile_pipeline(&self, graph: &Graph) -> Result<(CompiledModel, CompileReport), Gcd2Error> {
        let t_total = Instant::now();
        let cache_before = self.cost_cache.stats();
        let t0 = Instant::now();
        let graph = self.rewrite(graph);
        let rewrite = t0.elapsed();

        let model = self.cost_model();
        let t0 = Instant::now();
        let plans = try_enumerate_plans(&graph, &model, self.lut_ops);
        let enumerate = t0.elapsed();

        let t0 = Instant::now();
        let (assignment, selection) = self.assign(&graph, &plans);
        let select = t0.elapsed();

        let options = LowerOptions {
            pack: self.packing.clone(),
            lut_ops: self.lut_ops,
            resource: self.resource.clone(),
            pack_memo: self.pack_memo,
            ..LowerOptions::default()
        };
        let chosen: Vec<gcd2_globalopt::ExecutionPlan> = graph
            .nodes()
            .iter()
            .map(|n| plans.of(n.id)[assignment.choice[n.id.0]])
            .collect();
        let t0 = Instant::now();
        let mut lowered =
            try_lower(&graph, &plans, &assignment, &options).map_err(Gcd2Error::Lower)?;
        let lower_wall = t0.elapsed();
        if self.framework_boundaries {
            // Each operator converts its tensor from and back to the
            // framework's row-major interchange format.
            let mut boundary_cycles = 0u64;
            for node in graph.nodes() {
                if matches!(
                    node.kind,
                    gcd2_cgraph::OpKind::Input | gcd2_cgraph::OpKind::Constant
                ) {
                    continue;
                }
                let layout = plans.of(node.id)[assignment.choice[node.id.0]].layout;
                let (rows, cols) = gcd2_globalopt::matrix_view(&node.shape);
                boundary_cycles += 2 * gcd2_tensor::transform_cycles(
                    rows,
                    cols,
                    gcd2_tensor::Layout::RowMajor,
                    layout,
                );
            }
            let mut block = gcd2_hvx::Block::with_trip_count(
                "framework interchange-format conversions",
                boundary_cycles / 3,
            );
            block.push(gcd2_hvx::Insn::Nop);
            lowered
                .program
                .push(gcd2_hvx::PackedBlock::sequential(&block));
        }

        let mut pack_memo = lowered.pack_memo;
        if let Some(s) = model.packer().memo_stats() {
            pack_memo.merge(s);
        }
        let report = CompileReport {
            rewrite,
            enumerate,
            select,
            degrade: selection.degrade,
            rn_steps: selection.rn_steps,
            lower: lower_wall,
            pack_cpu: lowered.pack_cpu,
            verify_cpu: lowered.verify_cpu,
            total: t_total.elapsed(),
            cost_cache: {
                // The cache outlives the compile; report this compile's
                // share of its traffic.
                let after = model.cache_stats();
                CacheStats {
                    hits: after.hits.saturating_sub(cache_before.hits),
                    misses: after.misses.saturating_sub(cache_before.misses),
                }
            },
            pack_memo,
        };
        let compiled = CompiledModel {
            graph,
            assignment,
            chosen,
            lowered,
            energy: EnergyModel::default(),
            resource: self.resource.clone(),
        };
        Ok((compiled, report))
    }
}

/// The compiler's one panic guard: parsing, admission and the whole
/// pipeline run inside it, so a defect anywhere in them is a
/// [`Gcd2Error::Internal`], never an unwind into the caller.
fn guarded<T>(compile: impl FnOnce() -> Result<T, Gcd2Error>) -> Result<T, Gcd2Error> {
    catch_unwind(AssertUnwindSafe(compile)).unwrap_or_else(|payload| {
        Err(Gcd2Error::Internal {
            message: panic_message(payload.as_ref()),
        })
    })
}

/// What a selection strategy reports beside its assignment.
#[derive(Debug, Default)]
struct SelectionReport {
    degrade: Vec<DegradeEvent>,
    rn_steps: Option<usize>,
}

/// Per-stage wall-clock timings and cache statistics of one
/// [`Compiler::compile_timed`] run.
#[derive(Debug, Clone, Default)]
pub struct CompileReport {
    /// Graph rewrite time (constant folding, fusion).
    pub rewrite: Duration,
    /// Plan enumeration time (includes cost-model kernel generation and
    /// packing on cache misses).
    pub enumerate: Duration,
    /// Global layout/instruction selection time (per-partition
    /// refinement + stitch).
    pub select: Duration,
    /// GCD2's fall to the greedy floor: at most one event, present only
    /// when [`Selection::Gcd2`] hit the [`gcd2_globalopt::MAX_STATES`]
    /// cap (always empty for other strategies, and on every catalog
    /// model).
    pub degrade: Vec<DegradeEvent>,
    /// How many RN (heuristic) steps the PBQP reductions took (None for
    /// non-PBQP strategies). `Some(0)` certifies the assignment optimal
    /// for Equation 1's objective.
    pub rn_steps: Option<usize>,
    /// Lowering wall-clock time (block generation + packing, plus the
    /// verifier when enabled).
    pub lower: Duration,
    /// CPU time spent inside the SDA packer during lowering.
    pub pack_cpu: Duration,
    /// CPU time in the post-lowering verifier (single pass).
    pub verify_cpu: Duration,
    /// End-to-end compile wall clock.
    pub total: Duration,
    /// Hit/miss counters of the sharded kernel-cost cache, for this
    /// compile only. The cache itself persists across compiles of one
    /// [`Compiler`] (and its clones), so a recompile of the same or a
    /// structurally similar model reports mostly hits.
    pub cost_cache: CacheStats,
    /// Hit/miss counters of the structural packing memo (cost model +
    /// lowering packers merged).
    pub pack_memo: CacheStats,
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new()
    }
}

/// A compiled model with its measurement API.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The (rewritten) graph that was compiled.
    pub graph: Graph,
    /// The chosen plan assignment.
    pub assignment: Assignment,
    /// The chosen execution plan per node (indexed by `NodeId`).
    pub chosen: Vec<gcd2_globalopt::ExecutionPlan>,
    /// The lowered, scheduled program with per-operator reports.
    pub lowered: LoweredModel,
    energy: EnergyModel,
    resource: gcd2_hvx::ResourceModel,
}

impl CompiledModel {
    /// Re-runs the full static-analysis pipeline over this compilation's
    /// artifacts (graph, chosen plans, assignment, program) and returns
    /// the findings, regardless of whether lowering already verified.
    pub fn verify(&self) -> gcd2_verify::Report {
        let cx = gcd2_verify::Context::new()
            .with_graph(&self.graph)
            .with_plans(gcd2_verify::PlanView::Chosen(&self.chosen))
            .with_assignment(&self.assignment)
            .with_program(&self.lowered.program)
            .with_resource(self.resource.clone());
        gcd2_verify::Verifier::with_default_passes().run(&cx)
    }

    /// Runs the `gcd2-analyze` abstract interpreter and arena soundness
    /// checker over an inference plan built from this model: proves
    /// per-GEMM accumulator bounds and slot-aliasing safety, or returns
    /// the diagnostics that refute them. Debug builds of
    /// [`CompiledModel::inference_plan`] run this automatically; call it
    /// directly to inspect the [`gcd2_analyze::RangeReport`] or to lint
    /// release-built plans.
    pub fn analyze_plan(&self, plan: &InferencePlan) -> gcd2_analyze::Analysis {
        gcd2_analyze::analyze_plan(&self.graph, plan)
    }

    /// The kernel family chosen for a node.
    pub fn plan_of(&self, id: gcd2_cgraph::NodeId) -> Option<gcd2_globalopt::PlanKind> {
        self.chosen.get(id.0).map(|p| p.kind)
    }

    /// Compiles the host inference plan for this model: frozen schedule,
    /// reusable activation slots, weights materialized from `seed`.
    /// Build once, execute many times; outputs are bit-identical to
    /// [`execute_reference`] with the same seed.
    pub fn inference_plan(&self, seed: u64) -> InferencePlan {
        InferencePlan::build(self, seed)
    }

    /// Fallible form of [`CompiledModel::inference_plan`]: the plan's
    /// own validation surfaces as [`Gcd2Error::Infer`], and construction
    /// runs under a panic guard, so a defective compiled artifact yields
    /// [`Gcd2Error::Internal`] instead of unwinding.
    pub fn try_inference_plan(&self, seed: u64) -> Result<InferencePlan, Gcd2Error> {
        infer::guard_panics(|| InferencePlan::try_build(self, seed)).map_err(Gcd2Error::from)
    }

    /// End-to-end cycles on the simulated DSP.
    pub fn cycles(&self) -> u64 {
        self.lowered.cycles()
    }

    /// End-to-end latency in milliseconds at the simulated clock.
    pub fn latency_ms(&self) -> f64 {
        self.cycles() as f64 / CLOCK_HZ * 1e3
    }

    /// Inference frames per second.
    pub fn fps(&self) -> f64 {
        1e3 / self.latency_ms()
    }

    /// Aggregate execution statistics.
    pub fn stats(&self) -> ExecStats {
        self.lowered.stats()
    }

    /// Slot utilization in `[0, 1]` (the Figure 8 proxy).
    pub fn utilization(&self) -> f64 {
        self.stats().utilization()
    }

    /// Memory bandwidth in bytes/cycle (the Figure 8 proxy).
    pub fn bytes_per_cycle(&self) -> f64 {
        self.stats().bytes_per_cycle()
    }

    /// Average power in Watts under the activity-based energy model.
    pub fn power_w(&self) -> f64 {
        self.energy.power_w(&self.stats())
    }

    /// Inference frames per Watt (the Table V / Figure 13 metric).
    pub fn frames_per_watt(&self) -> f64 {
        self.fps() / self.power_w()
    }

    /// Effective tera-ops (2·MAC) per second achieved, the Section V-B
    /// peak-utilization discussion.
    pub fn tops(&self) -> f64 {
        let macs = self.graph.total_macs() as f64;
        2.0 * macs / (self.cycles() as f64 / CLOCK_HZ) / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_cgraph::{OpKind, TShape};

    fn conv_net(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut prev = g.input("x", TShape::nchw(1, 48, 28, 28));
        for i in 0..n {
            prev = g.add(
                OpKind::Conv2d {
                    out_channels: 48,
                    kernel: (3, 3),
                    stride: (1, 1),
                    padding: (1, 1),
                },
                &[prev],
                format!("conv{i}"),
            );
            prev = g.add(
                OpKind::Act(gcd2_cgraph::Activation::Relu),
                &[prev],
                format!("relu{i}"),
            );
        }
        g
    }

    #[test]
    fn full_compiler_beats_no_opt() {
        let g = conv_net(4);
        let full = Compiler::new().compile(&g);
        let none = Compiler::no_opt().compile(&g);
        let speedup = none.cycles() as f64 / full.cycles() as f64;
        assert!(speedup > 1.2, "end-to-end speedup {speedup:.2} too small");
    }

    #[test]
    fn selection_strategies_are_ordered() {
        let g = conv_net(5);
        let gcd2 = Compiler::new().compile(&g);
        let local = Compiler::new()
            .with_selection(Selection::LocalOptimal)
            .compile(&g);
        let uniform = Compiler::new()
            .with_selection(Selection::Uniform(SimdInstr::Vrmpy))
            .compile(&g);
        assert!(gcd2.cycles() <= local.cycles());
        assert!(gcd2.cycles() <= uniform.cycles());
    }

    #[test]
    fn metrics_are_sane() {
        let g = conv_net(3);
        let m = Compiler::new().compile(&g);
        assert!(m.latency_ms() > 0.0);
        assert!(m.utilization() > 0.0 && m.utilization() <= 1.0);
        assert!(
            m.power_w() > 0.1 && m.power_w() < 10.0,
            "power {}",
            m.power_w()
        );
        assert!(m.tops() > 0.0 && m.tops() < 15.0, "tops {}", m.tops());
        assert!(m.frames_per_watt() > 0.0);
    }

    #[test]
    fn graph_rewrites_fuse_activations() {
        let g = conv_net(3);
        let m = Compiler::new().compile(&g);
        // Fusion removes the standalone relu nodes.
        assert!(m.graph.op_count() < g.op_count());
    }

    #[test]
    fn elementwise_fusion_helps_or_is_neutral() {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 32, 28, 28));
        let y = g.input("y", TShape::nchw(1, 32, 28, 28));
        let a = g.add(OpKind::Add, &[x, y], "add");
        let r = g.add(OpKind::Act(gcd2_cgraph::Activation::Relu), &[a], "relu");
        let _p = g.add(
            OpKind::MaxPool {
                kernel: (2, 2),
                stride: (2, 2),
            },
            &[r],
            "pool",
        );
        let base = Compiler::new().compile(&g);
        let fused = Compiler::new().with_elementwise_fusion(true).compile(&g);
        assert!(
            fused.cycles() < base.cycles(),
            "{} vs {}",
            fused.cycles(),
            base.cycles()
        );
        assert!(fused.graph.op_count() < base.graph.op_count());
    }

    #[test]
    fn exhaustive_matches_gcd2_on_small_graphs() {
        let g = conv_net(4);
        let gcd2 = Compiler::new()
            .with_selection(Selection::Gcd2 { max_ops: 13 })
            .compile(&g);
        let global = Compiler::new()
            .with_selection(Selection::GlobalExhaustive)
            .compile(&g);
        let ratio = gcd2.cycles() as f64 / global.cycles() as f64;
        assert!(ratio <= 1.02, "gcd2 within 2% of global optimal: {ratio}");
    }

    /// The guard passes a result through and turns a panic into an
    /// `Internal` error carrying the panic's message.
    #[test]
    fn the_panic_guard_turns_a_panic_into_an_internal_error() {
        assert!(matches!(guarded(|| Ok(7)), Ok(7)));
        let caught = guarded::<()>(|| panic!("deep in the pipeline"));
        assert!(
            matches!(&caught, Err(Gcd2Error::Internal { message }) if message.contains("deep in the pipeline")),
            "{caught:?}"
        );
    }
}
