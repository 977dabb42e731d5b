//! # gcd2-verify — static analysis over GCD2 compilation artifacts
//!
//! A multi-pass verifier for the intermediate representations the
//! compiler produces on its way from a computational graph to a packed
//! DSP program. Each pass checks one layer's invariants and reports
//! [`Diagnostic`]s into a shared [`Report`]; the [`Verifier`] runs a set
//! of passes over one [`Context`] describing the artifacts at hand.
//!
//! The four standard passes:
//!
//! * [`PacketLegality`] — every VLIW packet respects the slot and
//!   per-unit capacities of the target [`ResourceModel`], packs no hard
//!   dependency, and the stall accounting of `PackedBlock::stats()`
//!   matches an independent recount;
//! * [`RegisterDataflow`] — registers are defined before they are used
//!   (modulo live-ins and loop-carried values) and no definition is
//!   silently overwritten;
//! * [`PlanLegality`] — execution plans pair SIMD instructions with
//!   their Table II layouts, and assignments claim the aggregate cost
//!   they actually incur;
//! * [`GraphInvariants`] — the computational graph is a well-formed DAG
//!   with consistent shape propagation.
//!
//! Passes only inspect the parts of the [`Context`] they understand, so
//! one verifier run can check anything from a lone program to a full
//! compilation (graph + plans + assignment + program):
//!
//! ```
//! use gcd2_verify::{verify_program, Context, Verifier};
//! use gcd2_hvx::{Block, Insn, PackedBlock, Program, ResourceModel, SReg, VReg};
//!
//! let mut block = Block::with_trip_count("copy", 4);
//! block.push(Insn::VLoad { dst: VReg::new(0), base: SReg::new(0), offset: 0 });
//! block.push(Insn::VStore { src: VReg::new(0), base: SReg::new(1), offset: 0 });
//! let program = Program { blocks: vec![PackedBlock::sequential(&block)] };
//!
//! let report = verify_program(&program, &ResourceModel::default());
//! assert!(report.is_clean(), "{report}");
//! ```

pub mod dataflow;
pub mod diag;
pub mod graph;
pub mod infer_view;
pub mod packet;
pub mod plan;

pub use dataflow::RegisterDataflow;
pub use diag::{Diagnostic, Report, Severity};
pub use graph::{infer_shape_checked, GraphInvariants};
pub use infer_view::{ActLayout, GemmFacts, InferPlanView, InferStep, StepRole, NO_SLOT};
pub use packet::PacketLegality;
pub use plan::PlanLegality;

use gcd2_cgraph::Graph;
use gcd2_globalopt::{Assignment, ExecutionPlan, PlanSet};
use gcd2_hvx::{Program, ResourceModel};

/// The execution plans visible to plan-level passes: either the full
/// candidate sets of the optimizer or just the plans a compilation
/// actually chose (one per node).
#[derive(Debug, Clone, Copy)]
pub enum PlanView<'a> {
    /// Every candidate plan of every node, as enumerated.
    Candidates(&'a PlanSet),
    /// The single chosen plan per node, indexed by `NodeId`.
    Chosen(&'a [ExecutionPlan]),
    /// A compiled inference plan, seen through the flattened
    /// [`InferPlanView`] projection. Lowering passes ignore it; the
    /// `gcd2-analyze` passes consume it.
    Inference(&'a dyn InferPlanView),
}

/// The artifacts one verifier run inspects. Passes skip checks whose
/// inputs are absent, so partially filled contexts are fine.
#[derive(Debug, Clone)]
pub struct Context<'a> {
    /// The computational graph.
    pub graph: Option<&'a Graph>,
    /// Execution plans (candidates or chosen).
    pub plans: Option<PlanView<'a>>,
    /// The optimizer's plan assignment.
    pub assignment: Option<&'a Assignment>,
    /// The packed program.
    pub program: Option<&'a Program>,
    /// Packet resource model the program targets.
    pub resource: ResourceModel,
}

impl<'a> Context<'a> {
    /// An empty context on the default resource model.
    pub fn new() -> Self {
        Context {
            graph: None,
            plans: None,
            assignment: None,
            program: None,
            resource: ResourceModel::default(),
        }
    }

    /// Adds the computational graph.
    pub fn with_graph(mut self, graph: &'a Graph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Adds execution plans.
    pub fn with_plans(mut self, plans: PlanView<'a>) -> Self {
        self.plans = Some(plans);
        self
    }

    /// Adds the plan assignment.
    pub fn with_assignment(mut self, assignment: &'a Assignment) -> Self {
        self.assignment = Some(assignment);
        self
    }

    /// Adds the packed program.
    pub fn with_program(mut self, program: &'a Program) -> Self {
        self.program = Some(program);
        self
    }

    /// Targets a specific packet resource model.
    pub fn with_resource(mut self, resource: ResourceModel) -> Self {
        self.resource = resource;
        self
    }
}

impl Default for Context<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// One verification pass over a [`Context`].
pub trait Pass {
    /// Stable pass name, used in diagnostics and for filtering.
    fn name(&self) -> &'static str;
    /// Inspects the context and reports findings.
    fn run(&self, cx: &Context<'_>, report: &mut Report);
}

/// A pass pipeline: registered passes run in order over one context and
/// their findings aggregate into a single [`Report`].
#[derive(Default)]
pub struct Verifier {
    passes: Vec<Box<dyn Pass>>,
}

impl Verifier {
    /// A verifier with no passes.
    pub fn new() -> Self {
        Verifier { passes: Vec::new() }
    }

    /// A verifier with the four standard passes registered.
    pub fn with_default_passes() -> Self {
        Verifier::new()
            .register(GraphInvariants)
            .register(PlanLegality)
            .register(PacketLegality)
            .register(RegisterDataflow)
    }

    /// Registers an additional pass (runs after the existing ones).
    pub fn register(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Names of the registered passes, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every registered pass.
    pub fn run(&self, cx: &Context<'_>) -> Report {
        let mut report = Report::new();
        for pass in &self.passes {
            pass.run(cx, &mut report);
        }
        report
    }
}

/// Runs the standard passes over a complete compilation: the graph, the
/// candidate plans, the chosen assignment, and the packed program.
pub fn verify_all(
    graph: &Graph,
    plans: &PlanSet,
    assignment: &Assignment,
    program: &Program,
    resource: &ResourceModel,
) -> Report {
    let cx = Context::new()
        .with_graph(graph)
        .with_plans(PlanView::Candidates(plans))
        .with_assignment(assignment)
        .with_program(program)
        .with_resource(resource.clone());
    Verifier::with_default_passes().run(&cx)
}

/// Runs only the program-level passes (packet legality and register
/// dataflow) over a packed program.
pub fn verify_program(program: &Program, resource: &ResourceModel) -> Report {
    let cx = Context::new()
        .with_program(program)
        .with_resource(resource.clone());
    Verifier::new()
        .register(PacketLegality)
        .register(RegisterDataflow)
        .run(&cx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_order() {
        let v = Verifier::with_default_passes();
        assert_eq!(
            v.pass_names(),
            vec![
                "GraphInvariants",
                "PlanLegality",
                "PacketLegality",
                "RegisterDataflow"
            ]
        );
    }

    #[test]
    fn empty_context_is_clean() {
        let report = Verifier::with_default_passes().run(&Context::new());
        assert!(report.is_clean());
    }

    #[test]
    fn custom_pass_registers() {
        struct Nag;
        impl Pass for Nag {
            fn name(&self) -> &'static str {
                "Nag"
            }
            fn run(&self, _cx: &Context<'_>, report: &mut Report) {
                report.warning("Nag", "everywhere", "always complains");
            }
        }
        let report = Verifier::new().register(Nag).run(&Context::new());
        assert_eq!(report.warning_count(), 1);
    }
}
