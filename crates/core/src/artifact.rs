//! AOT plan artifacts: serialize a compiled [`InferencePlan`] (plus the
//! graph it came from and compile stats) into the `gcd2-artifact`
//! container, and load it back with every byte treated as hostile.
//!
//! ## Sections
//!
//! | id | name    | payload                                            |
//! |----|---------|----------------------------------------------------|
//! | 1  | META    | label, weight seed, graph op count                 |
//! | 2  | GRAPH   | the graph's canonical text (`gcd2_cgraph::to_text`)|
//! | 3  | PLAN    | schedule, slot arena layout, stored checksum       |
//! | 4  | WEIGHTS | per-GEMM materialized weight matrices              |
//! | 6  | STATS   | compile-time DSP stats (cycles, packets, ...)      |
//!
//! Sections are looked up by id and an id this build does not know is
//! ignored. Id 5 was the advisory tile-hint section of formats 1–4;
//! a GEMM's blocking is now re-derived from its shape at every
//! dispatch and nothing about it is stored.
//!
//! ## Trust model
//!
//! Loading re-derives everything it can and verifies everything it
//! cannot: container checksums catch corruption, the chain checksum
//! binds the section table to the plan integrity checksum, the decoder
//! validates every count/offset/length against caps before allocating,
//! the reconstructed plan must re-hash to its stored PR-5 integrity
//! checksum, its layout labels must be the ones the decoded schedule
//! derives (`crate::layout::select` — a stored assignment is compared,
//! never trusted), and admission re-checks the embedded graph text. What
//! checksums cannot catch — a *forged* artifact whose checksums are
//! self-consistent — is caught at the consumers: the gateway's
//! [`crate::InferServer::register_from_artifact`] re-runs the
//! arena-soundness analyzer on every loaded plan, and
//! [`load_or_compile`] degrades any load failure into a recorded
//! fallback compile, never an abort.

use gcd2_artifact::{
    Artifact, ArtifactCache, ArtifactError, ArtifactWriter, ByteReader, ByteWriter, FORMAT_VERSION,
};
use gcd2_cgraph::{Graph, NodeId};
use gcd2_tensor::MatrixI8;
use gcd2_verify::ActLayout;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::error::Gcd2Error;
use crate::infer::{lap, ConvGeom, GemmPrep, GemmStep, InferencePlan, Scatter, Step, StepKind};
use crate::{CompiledModel, Compiler};

/// Section ids of the plan artifact payload.
pub const SEC_META: u32 = 1;
/// See [`SEC_META`].
pub const SEC_GRAPH: u32 = 2;
/// See [`SEC_META`].
pub const SEC_PLAN: u32 = 3;
/// See [`SEC_META`].
pub const SEC_WEIGHTS: u32 = 4;
/// See [`SEC_META`].
pub const SEC_STATS: u32 = 6;

/// Decoder caps: far above anything the catalog emits, low enough that
/// a forged count cannot drive a pathological allocation.
const MAX_STEPS: u64 = 1 << 20;
const MAX_SLOTS: u64 = 1 << 20;
const MAX_SLOT_BYTES: u64 = 1 << 32;
const MAX_NAME_BYTES: u64 = 4096;
const MAX_IN_SLOTS: u64 = 1 << 16;
const MAX_GEMM_DIM: u64 = 1 << 28;
const MAX_GRAPH_TEXT: u64 = 1 << 24;

/// Compile-time execution statistics carried in the artifact, so a
/// loader can report the model's simulated-DSP profile without
/// recompiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArtifactStats {
    /// Simulated end-to-end DSP cycles.
    pub cycles: u64,
    /// VLIW packets issued.
    pub packets: u64,
    /// Instructions issued.
    pub insns: u64,
    /// Stall cycles.
    pub stall_cycles: u64,
}

/// Everything a successful artifact load yields: the plan ready to
/// execute, the graph it was compiled from (re-parsed and re-admitted,
/// and required by the arena-soundness analyzer), and the metadata
/// sections.
#[derive(Debug)]
pub struct LoadedArtifact {
    /// Free-form label recorded at emit time (usually the model name).
    pub label: String,
    /// The weight seed the plan was built for.
    pub seed: u64,
    /// The re-parsed, re-admitted graph.
    pub graph: Graph,
    /// The reconstructed, integrity-verified plan.
    pub plan: InferencePlan,
    /// Compile-time stats from the STATS section.
    pub stats: ArtifactStats,
    /// Where the load's wall clock went, in the order the stages ran:
    /// `container` (table bounds and section checksums),
    /// `graph+schedule+selection` (re-parse, re-admission, the PLAN
    /// section, the re-derived layout labels), `weights copy`, `pack`
    /// (the resident panels), `integrity` (chain binding and the plan
    /// re-hash). What [`decode`] took beyond their sum is the caller's
    /// to report as unaccounted.
    pub stages: Vec<(&'static str, Duration)>,
}

fn prep_tag(prep: &GemmPrep) -> u8 {
    match prep {
        GemmPrep::Direct => 0,
        GemmPrep::Im2col(_) => 1,
        GemmPrep::Depthwise(_) => 2,
        GemmPrep::Transposed { .. } => 3,
    }
}

fn encode_plan_section(plan: &InferencePlan) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(plan.seed);
    w.u64(plan.input_len as u64);
    w.u64(plan.output_len as u64);
    w.u64(plan.output_slot as u64);
    w.u64(plan.slot_sizes.len() as u64);
    for &s in &plan.slot_sizes {
        w.u64(s as u64);
    }
    w.u64(plan.steps.len() as u64);
    for step in &plan.steps {
        w.u64(step.node.0 as u64);
        w.str(&step.name);
        w.str(&step.op);
        match &step.kind {
            StepKind::Input => w.u8(0),
            StepKind::Constant => w.u8(1),
            StepKind::Gemm(g) => {
                w.u8(2);
                w.u64(g.m as u64);
                w.u64(g.k as u64);
                w.u64(g.n as u64);
                w.u8(g.shift);
                w.u8(prep_tag(&g.prep));
                match &g.prep {
                    GemmPrep::Direct => {}
                    GemmPrep::Im2col(geom) | GemmPrep::Depthwise(geom) => {
                        for v in geom.dims() {
                            w.u64(v as u64);
                        }
                    }
                    GemmPrep::Transposed { c, m } => {
                        w.u64(*c as u64);
                        w.u64(*m as u64);
                    }
                }
                match g.scatter {
                    Scatter::Chw { spatial } => {
                        w.u8(0);
                        w.u64(spatial as u64);
                    }
                    Scatter::DwRows => w.u8(1),
                    Scatter::RowMajor => w.u8(2),
                }
            }
            StepKind::Add => w.u8(3),
            StepKind::Mul => w.u8(4),
            StepKind::Div => w.u8(5),
            StepKind::Pow => w.u8(6),
            StepKind::Passthrough => w.u8(7),
            StepKind::MonotoneLut => w.u8(8),
            StepKind::Softmax { group } => {
                w.u8(9);
                w.u64(*group as u64);
            }
            StepKind::LayerNorm { group } => {
                w.u8(10);
                w.u64(*group as u64);
            }
            StepKind::Pool {
                c,
                h,
                w: pw,
                kernel,
                stride,
                is_max,
            } => {
                w.u8(11);
                for v in [c, h, pw, &kernel.0, &kernel.1, &stride.0, &stride.1] {
                    w.u64(*v as u64);
                }
                w.u8(u8::from(*is_max));
            }
            StepKind::GlobalAvgPool { c, hw } => {
                w.u8(12);
                w.u64(*c as u64);
                w.u64(*hw as u64);
            }
            StepKind::Upsample {
                c,
                h,
                w: uw,
                factor,
            } => {
                w.u8(13);
                for v in [c, h, uw, factor] {
                    w.u64(*v as u64);
                }
            }
            StepKind::Concat => w.u8(14),
        }
        w.u64(step.in_slots.len() as u64);
        for &s in &step.in_slots {
            w.u64(s as u64);
        }
        w.u64(step.out_slot as u64);
        w.u64(step.out_len as u64);
        // The layout labels; a `Rows` in-label on an im2col step is also
        // what says its weight rows are stored `(dy, dx, ch)`. A step's
        // producers and image are the graph section's to say.
        w.u8(step.in_layout as u8);
        w.u8(step.out_layout as u8);
    }
    w.u64(plan.checksum);
    w.finish()
}

fn encode_weights_section(plan: &InferencePlan) -> Vec<u8> {
    let gemms: Vec<&GemmStep> = plan
        .steps
        .iter()
        .filter_map(|s| match &s.kind {
            StepKind::Gemm(g) => Some(g.as_ref()),
            _ => None,
        })
        .collect();
    // Sized exactly, each matrix appended as one run: the section is
    // the weights' size and is written once.
    let mut w = ByteWriter::with_capacity(8 + 16 * gemms.len() + plan.weight_bytes);
    w.u64(gemms.len() as u64);
    for g in gemms {
        w.u64(g.weights.rows() as u64);
        w.u64(g.weights.cols() as u64);
        w.i8s(g.weights.as_slice());
    }
    w.finish()
}

/// Serializes `plan` (and the graph/stats of the model it was built
/// from) into a self-describing artifact. `label` is a free-form tag
/// (typically the model name) surfaced again on load. The bytes are a
/// function of the arguments alone — not of the tier, the process or
/// anything a clock read.
///
/// # Errors
/// [`ArtifactError::Bounds`] if a section exceeds the container caps —
/// not reachable for any plan the compiler can build today.
pub fn encode(
    compiled: &CompiledModel,
    plan: &InferencePlan,
    label: &str,
) -> Result<Vec<u8>, ArtifactError> {
    let mut meta = ByteWriter::new();
    meta.str(label);
    meta.u64(plan.seed());
    meta.u64(compiled.graph.op_count() as u64);

    let stats = compiled.stats();
    let mut stat_w = ByteWriter::new();
    stat_w.u64(stats.cycles);
    stat_w.u64(stats.packets);
    stat_w.u64(stats.insns);
    stat_w.u64(stats.stall_cycles);

    let mut writer = ArtifactWriter::new();
    writer.section(SEC_META, meta.finish());
    writer.section(
        SEC_GRAPH,
        gcd2_cgraph::to_text(&compiled.graph).into_bytes(),
    );
    writer.section(SEC_PLAN, encode_plan_section(plan));
    writer.section(SEC_WEIGHTS, encode_weights_section(plan));
    writer.section(SEC_STATS, stat_w.finish());
    writer.finish(plan.checksum())
}

fn bounds(what: &'static str, value: u64, limit: u64) -> ArtifactError {
    ArtifactError::Bounds { what, value, limit }
}

fn required_section<'a>(art: &Artifact<'a>, id: u32) -> Result<&'a [u8], ArtifactError> {
    art.section(id)
        .ok_or_else(|| bounds("missing section", id as u64, id as u64))
}

fn decode_prep(r: &mut ByteReader<'_>, tag: u8) -> Result<GemmPrep, ArtifactError> {
    Ok(match tag {
        0 => GemmPrep::Direct,
        1 | 2 => {
            let mut v = [0usize; 9];
            for slot in &mut v {
                *slot = r.u64_capped("prep dim", MAX_GEMM_DIM)? as usize;
            }
            let geom = ConvGeom::from_dims(v);
            let (kernel, stride) = (geom.kernel, geom.stride);
            if stride.0 == 0 || stride.1 == 0 || kernel.0 == 0 || kernel.1 == 0 {
                return Err(bounds("prep kernel/stride", 0, 1));
            }
            if tag == 1 {
                GemmPrep::Im2col(geom)
            } else {
                GemmPrep::Depthwise(geom)
            }
        }
        3 => GemmPrep::Transposed {
            c: r.u64_capped("prep c", MAX_GEMM_DIM)? as usize,
            m: r.u64_capped("prep m", MAX_GEMM_DIM)? as usize,
        },
        other => return Err(bounds("prep tag", other as u64, 3)),
    })
}

fn decode_step_kind(r: &mut ByteReader<'_>) -> Result<StepKind, ArtifactError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => StepKind::Input,
        1 => StepKind::Constant,
        2 => {
            let m = r.u64_capped("gemm m", MAX_GEMM_DIM)? as usize;
            let k = r.u64_capped("gemm k", MAX_GEMM_DIM)? as usize;
            let n = r.u64_capped("gemm n", MAX_GEMM_DIM)? as usize;
            let shift = r.u8()?;
            if shift > 63 {
                return Err(bounds("gemm shift", shift as u64, 63));
            }
            let prep_tag = r.u8()?;
            let prep = decode_prep(r, prep_tag)?;
            let scatter = match r.u8()? {
                0 => Scatter::Chw {
                    spatial: r.u64_capped("scatter spatial", MAX_GEMM_DIM)? as usize,
                },
                1 => Scatter::DwRows,
                2 => Scatter::RowMajor,
                other => return Err(bounds("scatter tag", other as u64, 2)),
            };
            // Weights are paired in after the PLAN section decodes; the
            // placeholder is replaced before the plan is handed out.
            StepKind::Gemm(Box::new(GemmStep::new(prep, (m, k, n), shift, scatter)))
        }
        3 => StepKind::Add,
        4 => StepKind::Mul,
        5 => StepKind::Div,
        6 => StepKind::Pow,
        7 => StepKind::Passthrough,
        8 => StepKind::MonotoneLut,
        9 => StepKind::Softmax {
            group: r.u64_capped("softmax group", MAX_SLOT_BYTES)? as usize,
        },
        10 => StepKind::LayerNorm {
            group: r.u64_capped("layernorm group", MAX_SLOT_BYTES)? as usize,
        },
        11 => {
            let mut v = [0usize; 7];
            for slot in &mut v {
                *slot = r.u64_capped("pool dim", MAX_GEMM_DIM)? as usize;
            }
            let is_max = r.u8()? != 0;
            if v[5] == 0 || v[6] == 0 || v[3] == 0 || v[4] == 0 {
                return Err(bounds("pool kernel/stride", 0, 1));
            }
            StepKind::Pool {
                c: v[0],
                h: v[1],
                w: v[2],
                kernel: (v[3], v[4]),
                stride: (v[5], v[6]),
                is_max,
            }
        }
        12 => StepKind::GlobalAvgPool {
            c: r.u64_capped("gap c", MAX_GEMM_DIM)? as usize,
            hw: r.u64_capped("gap hw", MAX_GEMM_DIM)? as usize,
        },
        13 => {
            let mut v = [0usize; 4];
            for slot in &mut v {
                *slot = r.u64_capped("upsample dim", MAX_GEMM_DIM)? as usize;
            }
            StepKind::Upsample {
                c: v[0],
                h: v[1],
                w: v[2],
                factor: v[3],
            }
        }
        14 => StepKind::Concat,
        other => return Err(bounds("step kind tag", other as u64, 14)),
    })
}

fn decode_layout(r: &mut ByteReader<'_>) -> Result<ActLayout, ArtifactError> {
    match r.u8()? {
        0 => Ok(ActLayout::Chw),
        1 => Ok(ActLayout::Rows),
        other => Err(bounds("layout tag", other as u64, 1)),
    }
}

/// Decodes the PLAN section into a plan skeleton (weights still empty)
/// plus the stored integrity checksum.
fn decode_plan_section(bytes: &[u8]) -> Result<InferencePlan, ArtifactError> {
    let mut r = ByteReader::new(bytes);
    let seed = r.u64()?;
    let input_len = r.u64_capped("input len", MAX_SLOT_BYTES)? as usize;
    let output_len = r.u64_capped("output len", MAX_SLOT_BYTES)? as usize;
    let output_slot = r.u64()? as usize;
    let slot_count = r.u64_capped("slot count", MAX_SLOTS)? as usize;
    let mut slot_sizes = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        slot_sizes.push(r.u64_capped("slot size", MAX_SLOT_BYTES)? as usize);
    }
    if output_slot >= slot_count.max(1) {
        return Err(bounds("output slot", output_slot as u64, slot_count as u64));
    }
    let step_count = r.u64_capped("step count", MAX_STEPS)? as usize;
    if step_count == 0 {
        return Err(bounds("step count", 0, 1));
    }
    let mut steps = Vec::with_capacity(step_count);
    for idx in 0..step_count {
        let node = r.u64()? as usize;
        if node != idx {
            return Err(bounds("step node id", node as u64, idx as u64));
        }
        let name = r.str("step name", MAX_NAME_BYTES)?;
        let op = r.str("step op", MAX_NAME_BYTES)?;
        let kind = decode_step_kind(&mut r)?;
        let in_count = r.u64_capped("input slot count", MAX_IN_SLOTS)? as usize;
        let mut in_slots = Vec::with_capacity(in_count);
        for _ in 0..in_count {
            let s = r.u64()? as usize;
            if s >= slot_count {
                return Err(bounds("input slot", s as u64, slot_count as u64));
            }
            in_slots.push(s);
        }
        let out_slot = r.u64()? as usize;
        if out_slot >= slot_count {
            return Err(bounds(
                "output slot index",
                out_slot as u64,
                slot_count as u64,
            ));
        }
        let out_len = r.u64_capped("step out len", MAX_SLOT_BYTES)? as usize;
        if out_len > slot_sizes[out_slot] {
            return Err(bounds(
                "step out len vs slot",
                out_len as u64,
                slot_sizes[out_slot] as u64,
            ));
        }
        let in_layout = decode_layout(&mut r)?;
        let out_layout = decode_layout(&mut r)?;
        steps.push(Step {
            node: NodeId(node),
            name,
            op,
            kind,
            in_slots,
            out_slot,
            out_len,
            // Facts of the graph, paired in from its section.
            inputs: Vec::new(),
            image: None,
            in_layout,
            out_layout,
        });
    }
    let checksum = r.u64()?;
    if !r.is_empty() {
        return Err(bounds("plan trailing bytes", r.remaining() as u64, 0));
    }
    // The plan's output is by construction its last step's output.
    let last = steps.last().map(|s| s.out_len).unwrap_or(0);
    if last != output_len {
        return Err(bounds(
            "output len vs last step",
            output_len as u64,
            last as u64,
        ));
    }
    Ok(InferencePlan {
        steps,
        slot_sizes,
        input_len,
        output_len,
        output_slot,
        seed,
        weight_bytes: 0, // recomputed once weights are paired in
        gemm_macs: 0,
        checksum,
        build_stages: Vec::new(), // a load's stages are `LoadedArtifact::stages`
    })
}

/// Pairs the WEIGHTS section into the plan's GEMM steps, in schedule
/// order, validating each matrix against its step's declared shape.
/// Returns the part of its time that went into packing panels.
fn attach_weights(plan: &mut InferencePlan, bytes: &[u8]) -> Result<Duration, ArtifactError> {
    let mut pack = Duration::ZERO;
    let mut r = ByteReader::new(bytes);
    let declared = r.u64_capped("weight matrix count", MAX_STEPS)? as usize;
    let mut weight_bytes = 0usize;
    let mut gemm_macs = 0u64;
    let mut seen = 0usize;
    for step in &mut plan.steps {
        let StepKind::Gemm(g) = &mut step.kind else {
            continue;
        };
        seen += 1;
        if seen > declared {
            return Err(bounds("weight matrix count", declared as u64, seen as u64));
        }
        let rows = r.u64_capped("weight rows", MAX_GEMM_DIM)? as usize;
        let cols = r.u64_capped("weight cols", MAX_GEMM_DIM)? as usize;
        if rows != g.k || cols != g.n {
            return Err(bounds(
                "weight shape",
                (rows as u64) << 32 | cols as u64,
                (g.k as u64) << 32 | g.n as u64,
            ));
        }
        let Some(len) = rows.checked_mul(cols) else {
            return Err(bounds("weight elems", rows as u64, MAX_GEMM_DIM));
        };
        if len as u64 > MAX_SLOT_BYTES {
            return Err(bounds("weight elems", len as u64, MAX_SLOT_BYTES));
        }
        let raw = r.take(len)?;
        let weights = MatrixI8::from_vec(rows, cols, raw.iter().map(|&b| b as i8).collect());
        let t0 = Instant::now();
        g.set_weights(weights);
        pack += t0.elapsed();
        weight_bytes += len;
        gemm_macs += g.m as u64 * g.k as u64 * g.n as u64;
    }
    if seen != declared {
        return Err(bounds("weight matrix count", declared as u64, seen as u64));
    }
    if !r.is_empty() {
        return Err(bounds("weight trailing bytes", r.remaining() as u64, 0));
    }
    plan.weight_bytes = weight_bytes;
    plan.gemm_macs = gemm_macs;
    Ok(pack)
}

fn decode_stats(bytes: &[u8]) -> Result<ArtifactStats, ArtifactError> {
    let mut r = ByteReader::new(bytes);
    let stats = ArtifactStats {
        cycles: r.u64()?,
        packets: r.u64()?,
        insns: r.u64()?,
        stall_cycles: r.u64()?,
    };
    if !r.is_empty() {
        return Err(bounds("stats trailing bytes", r.remaining() as u64, 0));
    }
    Ok(stats)
}

/// Decodes and fully verifies an artifact: container checksums, chain
/// binding, bounds-checked payloads, graph re-parse + re-admission,
/// plan reconstruction, and the PR-5 integrity re-hash. On success the
/// returned plan is byte-for-byte the plan that was emitted.
///
/// # Errors
/// Container and payload defects surface as
/// [`Gcd2Error::Artifact`]; corrupted-but-checksummed graph text as
/// [`Gcd2Error::Parse`] / [`Gcd2Error::Admission`]; a plan whose
/// re-hash disagrees with its stored checksum as
/// [`ArtifactError::IntegrityMismatch`]. Never panics on any input.
pub fn decode(bytes: &[u8]) -> Result<LoadedArtifact, Gcd2Error> {
    let mut stages = Vec::with_capacity(5);
    let mut since = Instant::now();
    let art = Artifact::decode(bytes).map_err(Gcd2Error::Artifact)?;
    lap(&mut stages, &mut since, "container");

    let mut meta = ByteReader::new(required_section(&art, SEC_META)?);
    let label = meta
        .str("label", MAX_NAME_BYTES)
        .map_err(Gcd2Error::Artifact)?;
    let meta_seed = meta.u64().map_err(Gcd2Error::Artifact)?;
    let _graph_ops = meta.u64().map_err(Gcd2Error::Artifact)?;

    let graph_bytes = required_section(&art, SEC_GRAPH)?;
    if graph_bytes.len() as u64 > MAX_GRAPH_TEXT {
        return Err(Gcd2Error::Artifact(bounds(
            "graph text bytes",
            graph_bytes.len() as u64,
            MAX_GRAPH_TEXT,
        )));
    }
    // Bytes that are not UTF-8 are refused, not repaired into text the
    // parser would then accept.
    let graph_text = std::str::from_utf8(graph_bytes).map_err(|e| {
        Gcd2Error::Artifact(bounds(
            "graph text utf-8",
            e.valid_up_to() as u64,
            graph_bytes.len() as u64,
        ))
    })?;
    let graph = gcd2_cgraph::from_text(graph_text).map_err(Gcd2Error::Parse)?;
    crate::admit::admit(&graph).map_err(Gcd2Error::Admission)?;

    let mut plan =
        decode_plan_section(required_section(&art, SEC_PLAN)?).map_err(Gcd2Error::Artifact)?;
    if plan.seed != meta_seed {
        return Err(Gcd2Error::Artifact(bounds(
            "meta seed",
            meta_seed,
            plan.seed,
        )));
    }
    if plan.steps.len() != graph.nodes().len() {
        return Err(Gcd2Error::Artifact(bounds(
            "steps vs graph nodes",
            plan.steps.len() as u64,
            graph.nodes().len() as u64,
        )));
    }
    // Who produces a step's operands and whether its value is an image
    // come from the graph, and how each value is laid out from the
    // schedule: the stored labels have to be the ones the selection
    // gives it, so a forged artifact cannot put rows where a kernel
    // reads planes.
    for (step, node) in plan.steps.iter_mut().zip(graph.nodes()) {
        (step.inputs, step.image) = Step::graph_facts(node, step.out_len);
    }
    let derived = crate::layout::select(&plan.steps);
    for (step, label) in plan.steps.iter().zip(derived) {
        if (step.in_layout, step.out_layout) != label {
            return Err(Gcd2Error::Artifact(bounds(
                "step layouts vs derived assignment",
                step.node.0 as u64,
                plan.steps.len() as u64,
            )));
        }
    }
    lap(&mut stages, &mut since, "graph+schedule+selection");
    let pack = attach_weights(&mut plan, required_section(&art, SEC_WEIGHTS)?)
        .map_err(Gcd2Error::Artifact)?;
    // One stage's wall clock, split by what `attach_weights` timed.
    let copied = Instant::now();
    stages.push(("weights copy", (copied - since).saturating_sub(pack)));
    stages.push(("pack", pack));
    since = copied;

    // The chain checksum binds the section table to the plan integrity
    // checksum the PLAN payload declares...
    art.verify_chain(plan.checksum)
        .map_err(Gcd2Error::Artifact)?;
    // ...and the reconstructed plan must actually hash to it.
    let got = plan.integrity_checksum();
    if got != plan.checksum {
        return Err(Gcd2Error::Artifact(ArtifactError::IntegrityMismatch {
            expected: plan.checksum,
            got,
        }));
    }
    let stats = decode_stats(required_section(&art, SEC_STATS)?).map_err(Gcd2Error::Artifact)?;
    lap(&mut stages, &mut since, "integrity");

    Ok(LoadedArtifact {
        label,
        seed: plan.seed,
        graph,
        plan,
        stats,
        stages,
    })
}

/// Where a [`ColdStart`] got its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdStartSource {
    /// Decoded from the artifact cache — no compilation ran.
    ArtifactCache,
    /// Compiled from graph text (cache miss or load fallback).
    Compiled,
}

/// A recorded load-degradation event, mirroring the compile budget's
/// `DegradeEvent` idiom: what stage failed and the structured error it
/// failed with, kept alongside the successful fallback result instead
/// of aborting the cold start.
#[derive(Debug, Clone)]
pub struct ColdStartFallback {
    /// Which stage degraded: `"load"` (cache read), `"decode"`
    /// (artifact rejected), or `"store"` (write-back failed).
    pub stage: &'static str,
    /// The structured error, rendered.
    pub detail: String,
}

/// The result of [`load_or_compile`]: a ready plan plus provenance.
#[derive(Debug)]
pub struct ColdStart {
    /// The content-address used in the cache.
    pub key: String,
    /// The ready-to-execute plan.
    pub plan: InferencePlan,
    /// The graph (decoded from the artifact or compiled fresh).
    pub graph: Graph,
    /// Whether the plan was loaded or compiled.
    pub source: ColdStartSource,
    /// Degradation events encountered on the way (empty on the happy
    /// paths; a corrupted artifact records its error here and falls
    /// back to compiling).
    pub fallbacks: Vec<ColdStartFallback>,
    /// Wall-clock spent producing the plan (decode or compile).
    pub elapsed: Duration,
}

/// How long a cache-lock loser polls for the winner's artifact before
/// giving up and compiling anyway (duplicate work beats a deadlock on
/// a crashed winner).
const LOCK_LOSER_POLLS: usize = 10;
const LOCK_LOSER_POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The cache key for (graph text, compiler options, container format
/// version, weight seed) — the exact inputs that determine artifact
/// bytes.
pub fn cache_key(compiler: &Compiler, text: &str, seed: u64) -> String {
    ArtifactCache::content_key(&[
        text.as_bytes(),
        compiler.options_key().as_bytes(),
        &FORMAT_VERSION.to_le_bytes(),
        &seed.to_le_bytes(),
    ])
}

fn try_load(cache: &ArtifactCache, key: &str) -> Result<Option<LoadedArtifact>, ColdStartFallback> {
    // Fault points (and any latent defect) may panic inside the load
    // path; a cold start must degrade to compiling, not abort.
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<_, ColdStartFallback> {
        let bytes = cache.load(key).map_err(|e| ColdStartFallback {
            stage: "load",
            detail: e.to_string(),
        })?;
        let Some(bytes) = bytes else { return Ok(None) };
        decode(&bytes).map(Some).map_err(|e| ColdStartFallback {
            stage: "decode",
            detail: e.to_string(),
        })
    }));
    match outcome {
        Ok(r) => r,
        Err(payload) => Err(ColdStartFallback {
            stage: "load",
            detail: format!(
                "panic during artifact load: {}",
                gcd2_par::panic_message(payload.as_ref())
            ),
        }),
    }
}

/// The cold-start entry point: load the plan from the artifact cache
/// if a valid artifact exists, otherwise compile from `text` and write
/// the artifact back. The contract is **never abort on a bad
/// artifact**: any load failure (I/O error, corruption, version skew,
/// integrity mismatch, even an injected panic) is recorded as a
/// [`ColdStartFallback`] and degrades to a fresh compile. An advisory
/// per-key lock elects one builder among concurrent processes; losers
/// briefly poll for the winner's artifact before compiling anyway.
///
/// # Errors
/// Only compilation itself can fail ([`Gcd2Error`] from parse /
/// admission / plan build) — and then only after every load path has
/// already degraded.
pub fn load_or_compile(
    compiler: &Compiler,
    text: &str,
    seed: u64,
    cache: &ArtifactCache,
    label: &str,
) -> Result<ColdStart, Gcd2Error> {
    let key = cache_key(compiler, text, seed);
    let t0 = Instant::now();
    let mut fallbacks = Vec::new();

    match try_load(cache, &key) {
        Ok(Some(loaded)) => {
            return Ok(ColdStart {
                key,
                plan: loaded.plan,
                graph: loaded.graph,
                source: ColdStartSource::ArtifactCache,
                fallbacks,
                elapsed: t0.elapsed(),
            });
        }
        Ok(None) => {}
        Err(fb) => {
            // A corrupt artifact would fail every future load the same
            // way; drop it so the rebuild below repopulates the key.
            let _ = cache.evict(&key);
            fallbacks.push(fb);
        }
    }

    let lock = cache.try_lock(&key);
    if lock.is_none() {
        // Another process is building this key: poll briefly for its
        // artifact, then compile anyway rather than wait forever.
        for _ in 0..LOCK_LOSER_POLLS {
            std::thread::sleep(LOCK_LOSER_POLL_INTERVAL);
            if let Ok(Some(loaded)) = try_load(cache, &key) {
                return Ok(ColdStart {
                    key,
                    plan: loaded.plan,
                    graph: loaded.graph,
                    source: ColdStartSource::ArtifactCache,
                    fallbacks,
                    elapsed: t0.elapsed(),
                });
            }
        }
    }

    let (compiled, _report) = compiler.try_compile_text(text)?;
    let plan = compiled.try_inference_plan(seed)?;

    // Write-back is best-effort: a failed store (or injected fault) is
    // recorded, never fatal — the plan in hand is already good.
    let store_outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), ArtifactError> {
        let bytes = encode(&compiled, &plan, label)?;
        cache.store(&key, &bytes)?;
        Ok(())
    }));
    match store_outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => fallbacks.push(ColdStartFallback {
            stage: "store",
            detail: e.to_string(),
        }),
        Err(payload) => fallbacks.push(ColdStartFallback {
            stage: "store",
            detail: format!(
                "panic during artifact store: {}",
                gcd2_par::panic_message(payload.as_ref())
            ),
        }),
    }
    drop(lock);

    Ok(ColdStart {
        key,
        plan,
        graph: compiled.graph,
        source: ColdStartSource::Compiled,
        fallbacks,
        elapsed: t0.elapsed(),
    })
}
