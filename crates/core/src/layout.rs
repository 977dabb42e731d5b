//! Host activation layouts, selected — not assumed (DESIGN.md §4f).
//!
//! The paper's thesis is that the layout-transformation cost
//! `TC(ep_i, ep_j)` on an edge is of the same rank as the kernel cost
//! `Cost(ep)` and has to be minimised globally. The host runtime has
//! the same problem one level up: a conv GEMM reads and writes
//! pixel-major rows (`hw × c`, [`ActLayout::Rows`]), the interpreter's
//! tensors are channel-major planes ([`ActLayout::Chw`]), the depthwise
//! kernel, the pools and the elementwise kernels have a form for
//! either, a few kernels only the second — and every disagreement is a
//! transpose.
//! This module states it as the same PBQP instance the compiler solves
//! and hands it to the same solver, [`gcd2_globalopt::pbqp::solve`]:
//!
//! * a node per step, whose options are its admissible
//!   `(in-layout, out-layout)` pairs ([`admits`]);
//! * an option's cost is the **bytes its staging and scatter move**
//!   ([`node_bytes`]) — integers computed from the step's dimensions,
//!   never measured, so one schedule gets one assignment on every host;
//! * an edge costs the value's bytes when the producer's out-layout is
//!   not the consumer's in-layout: the consumer converts it on the way
//!   in (one transpose into arena scratch, `InferencePlan::run_one`).
//!
//! Options are ordered `Chw`-first and the solver breaks ties towards
//! the lower index, so ties go to `Chw`; and the solver's answer is kept
//! only if it moves fewer bytes than labelling everything `Chw`, which
//! every step admits — no schedule is planned worse than that.
//!
//! The assignment is a pure function of the schedule ([`select`]), so
//! whoever holds a plan — `verify_integrity`, the artifact loader — can
//! derive it again and refuse labels that differ.

use crate::infer::{ConvGeom, GemmPrep, GemmStep, Scatter, Step, StepKind};
use gcd2_verify::ActLayout::{self, Chw, Rows};

/// What an assignment costs: the unit the selection minimises, and how
/// many operands are still converted on the way into their step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LayoutCost {
    /// Bytes written by pure layout moves per inference: GEMM operand
    /// staging, CHW scatters, and operand conversions.
    pub bytes: u64,
    /// Operands held in another layout than their step reads.
    pub conversions: usize,
}

/// The `(in, out)` layout pairs step `index` admits, `Chw`-first.
/// `(Chw, Chw)` is always the first: every kernel has its CHW form.
///
/// * a matmul-backed conv GEMM reads rows when its operand is exactly
///   the image its geometry expects and writes rows when its result is
///   one whole image (a ConvTranspose scatter that leaves zeros is
///   not) — independently, so all four pairs;
/// * a depthwise conv and a pool read rows and write rows, together,
///   when operand and result are the whole images of their geometry: a
///   depthwise step has one filter shared by all channels, so in rows
///   it is a 2-D filter over an `h × (w·c)` byte image
///   (`gcd2_kernels::dwconv_rows_into`), and a pool is the row-wise
///   kernel at pixel pitch `c`;
/// * an elementwise step (and a pass-through that keeps the image's
///   shape) is position-blind: rows in, rows out, when every operand
///   and the result are the same image. A binary's second operand may
///   instead be a value with one form ([`two_forms`] is `None` — a
///   squeeze-excite gate's `c × 1`): it is zero-extended, flat CHW
///   element `i` against element `i`, which the rows kernel does as
///   fix-ups ([`short_operand`]);
/// * global average pooling has a column-sum form: rows in, and its
///   `c × 1` result is the same bytes either way;
/// * everything else that is positional in CHW — the input, direct
///   convs, upsampling, concat, softmax, layernorm, a MatMul, any value
///   that is not one image — admits nothing else, and neither does the
///   plan's output.
pub(crate) fn admits(steps: &[Step], index: usize) -> Vec<(ActLayout, ActLayout)> {
    let step = &steps[index];
    let from = &step.inputs;
    let operand = |j: usize| from.get(j).and_then(|&p| steps.get(p)?.image);
    // The one operand is the whole `c × h × w` image and the result
    // the whole image a window over it leaves.
    let windowed = |c: usize, (h, w): (usize, usize), out_px: Option<usize>| {
        let leaves = out_px.map(|px| (c, px));
        from.len() == 1
            && operand(0) == Some((c, h * w))
            && leaves.is_some_and(|i| step.image == Some(i))
    };
    let (rows_in, rows_out, tied) = match &step.kind {
        StepKind::Gemm(g) if g.runs_matmul() && from.len() == 1 => {
            let reads = match g.prep {
                GemmPrep::Transposed { c, m } => Some((c, m)),
                GemmPrep::Im2col(geom) => Some((geom.c, geom.h * geom.w)),
                GemmPrep::Direct | GemmPrep::Depthwise(_) => None,
            };
            let whole = matches!(g.scatter, Scatter::Chw { spatial } if spatial == g.m);
            (
                reads.is_some() && operand(0) == reads,
                whole && step.image == Some((g.n, g.m)),
                false,
            )
        }
        StepKind::Gemm(g) => match g.prep {
            GemmPrep::Depthwise(geom) => {
                let out_px = window_pixels(&geom);
                let both = windowed(geom.c, (geom.h, geom.w), out_px);
                (both, both, true)
            }
            _ => (false, false, false),
        },
        &StepKind::Pool {
            c,
            h,
            w,
            kernel,
            stride,
            ..
        } => {
            let out_px = window_pixels(&ConvGeom {
                c,
                h,
                w,
                kernel,
                stride,
                padding: (0, 0),
            });
            let both = windowed(c, (h, w), out_px);
            (both, both, true)
        }
        StepKind::Add | StepKind::Mul | StepKind::Div => {
            let same = step.image.is_some()
                && operand(0) == step.image
                && (1..from.len())
                    .all(|j| operand(j) == step.image || short_operand(steps, step, j));
            (same, same, true)
        }
        StepKind::Pow | StepKind::MonotoneLut | StepKind::Passthrough => {
            let same = step.image.is_some() && (0..from.len()).all(|j| operand(j) == step.image);
            (same, same, true)
        }
        StepKind::GlobalAvgPool { c, hw } => (operand(0) == Some((*c, *hw)), false, false),
        _ => (false, false, false),
    };
    let rows_out = rows_out && index + 1 != steps.len();
    [(Chw, Chw), (Chw, Rows), (Rows, Chw), (Rows, Rows)]
        .into_iter()
        .filter(|&(i, o)| (i == Chw || rows_in) && (o == Chw || rows_out) && (!tied || i == o))
        .collect()
}

/// Output pixels of `geom`'s window, from dimensions a hostile artifact
/// may have chosen: `None` when the window does not fit the padded map
/// or a stride is 0.
fn window_pixels(geom: &ConvGeom) -> Option<usize> {
    let along = |extent: usize, pad: usize, kernel: usize, stride: usize| {
        Some(
            (extent + 2 * pad)
                .checked_sub(kernel)?
                .checked_div(stride)?
                + 1,
        )
    };
    let out_h = along(geom.h, geom.padding.0, geom.kernel.0, geom.stride.0)?;
    let out_w = along(geom.w, geom.padding.1, geom.kernel.1, geom.stride.1)?;
    Some(out_h * out_w)
}

/// Whether operand `j` of the binary `step` is another value than the
/// step's image with a single form — flat CHW bytes whatever its label:
/// the operand an image held as rows is zero-extended against by
/// fix-ups (`gcd2_kernels::hostops::mul_shift4_rows_into`) instead of
/// position-blind.
pub(crate) fn short_operand(steps: &[Step], step: &Step, j: usize) -> bool {
    let producer = step.inputs.get(j).and_then(|&p| steps.get(p));
    producer.is_some_and(|p| p.image != step.image && two_forms(p).is_none())
}

/// Bytes a GEMM step's staging writes when it reads its operand in
/// `layout`: a pointwise conv's transpose (`m·k`; nothing from rows,
/// which *are* its matrix), an im2col's matrix plus its zero-padded
/// copy of the map (from rows the copy exists only when there is
/// padding). A MatMul and the direct kernels stage nothing.
fn staged_bytes(g: &GemmStep, layout: ActLayout) -> u64 {
    if !g.runs_matmul() {
        return 0;
    }
    match (&g.prep, layout) {
        (GemmPrep::Transposed { .. }, Chw) => product(&[g.m, g.k]),
        (GemmPrep::Im2col(geom), _) => {
            let (ph, pw) = geom.padding;
            let copy = layout == Chw || (ph, pw) != (0, 0);
            let padded = product(&[geom.c, geom.h + 2 * ph, geom.w + 2 * pw]);
            product(&[g.m, g.k]).saturating_add(if copy { padded } else { 0 })
        }
        _ => 0,
    }
}

/// A byte count from dimensions a hostile artifact may have chosen:
/// saturating, so it cannot wrap into a small one.
fn product(dims: &[usize]) -> u64 {
    dims.iter().fold(1, |p, &d| p.saturating_mul(d as u64))
}

/// Bytes a GEMM step's scatter writes when it leaves its result in
/// `layout`: the rows → CHW transpose, or nothing — the multiply wrote
/// finished rows.
fn scattered_bytes(g: &GemmStep, layout: ActLayout) -> u64 {
    match g.scatter {
        Scatter::Chw { spatial } if g.runs_matmul() && layout == Chw => {
            product(&[g.m.min(spatial), g.n])
        }
        _ => 0,
    }
}

/// What `step` itself moves under `(in, out)`.
fn node_bytes(step: &Step, (i, o): (ActLayout, ActLayout)) -> u64 {
    match &step.kind {
        StepKind::Gemm(g) => staged_bytes(g, i) + scattered_bytes(g, o),
        _ => 0,
    }
}

/// The `(channels, pixels)` of `step`'s value when its two layouts are
/// different bytes: an image of one channel or one pixel is the same
/// bytes either way and is never converted.
pub(crate) fn two_forms(step: &Step) -> Option<(usize, usize)> {
    step.image.filter(|&(c, hw)| c > 1 && hw > 1)
}

/// Bytes one conversion of `step`'s value writes.
fn conversion_bytes(step: &Step) -> u64 {
    two_forms(step).map_or(0, |_| step.out_len as u64)
}

/// The producers of `step`'s operands, with their indices.
fn operands<'s>(steps: &'s [Step], step: &'s Step) -> impl Iterator<Item = (&'s Step, usize)> {
    step.inputs.iter().filter_map(|&p| Some((steps.get(p)?, p)))
}

/// What the schedule moves under `labels`, one `(in, out)` per step.
pub(crate) fn cost(steps: &[Step], labels: &[(ActLayout, ActLayout)]) -> LayoutCost {
    let mut total = LayoutCost::default();
    for (step, &label) in steps.iter().zip(labels) {
        total.bytes = total.bytes.saturating_add(node_bytes(step, label));
        for (producer, from) in operands(steps, step) {
            let bytes = conversion_bytes(producer);
            if labels[from].1 != label.0 && bytes > 0 {
                total.bytes = total.bytes.saturating_add(bytes);
                total.conversions += 1;
            }
        }
    }
    total
}

/// The PBQP instance the module docs describe: each step's admissible
/// `(in, out)` pairs, their costs, and the edge matrices between steps
/// that both have a choice.
type LayoutInstance = (
    Vec<Vec<(ActLayout, ActLayout)>>,
    Vec<Vec<u64>>,
    Vec<gcd2_globalopt::pbqp::EdgeMatrix>,
);

fn instance(steps: &[Step]) -> LayoutInstance {
    let options: Vec<Vec<(ActLayout, ActLayout)>> =
        (0..steps.len()).map(|index| admits(steps, index)).collect();
    let mut costs: Vec<Vec<u64>> = steps
        .iter()
        .zip(&options)
        .map(|(step, opts)| opts.iter().map(|&o| node_bytes(step, o)).collect())
        .collect();
    let mut edges = Vec::new();
    for (consumer, step) in steps.iter().enumerate() {
        for (from, producer) in operands(steps, step) {
            let bytes = conversion_bytes(from);
            let (outs, ins) = (&options[producer], &options[consumer]);
            if bytes == 0 || outs.len() == 1 && ins.len() == 1 {
                continue;
            }
            let at = |i: usize, j: usize| if outs[i].1 != ins[j].0 { bytes } else { 0 };
            // A step with one option decides nothing: its edge is a
            // term of its neighbour's own cost, which keeps the
            // instance to the steps that have a choice.
            if outs.len() == 1 {
                for (j, c) in costs[consumer].iter_mut().enumerate() {
                    *c = c.saturating_add(at(0, j));
                }
            } else if ins.len() == 1 {
                for (i, c) in costs[producer].iter_mut().enumerate() {
                    *c = c.saturating_add(at(i, 0));
                }
            } else {
                let matrix = (0..outs.len())
                    .map(|i| (0..ins.len()).map(|j| at(i, j)).collect())
                    .collect();
                edges.push((producer, consumer, matrix));
            }
        }
    }
    (options, costs, edges)
}

/// The layout assignment of a schedule: one `(in, out)` pair per step,
/// chosen by the PBQP reductions over [`instance`], or `Chw` throughout
/// when that moves no more bytes. Depends on the steps' kinds,
/// dimensions, images and producers — never on the labels they carry,
/// nor on the slot assignment.
pub(crate) fn select(steps: &[Step]) -> Vec<(ActLayout, ActLayout)> {
    let (options, costs, edges) = instance(steps);
    let chosen: Vec<(ActLayout, ActLayout)> = gcd2_globalopt::pbqp::solve(costs, edges)
        .choice
        .iter()
        .zip(&options)
        .map(|(&pick, opts)| opts[pick])
        .collect();
    let all_chw = vec![(Chw, Chw); steps.len()];
    if cost(steps, &chosen).bytes < cost(steps, &all_chw).bytes {
        chosen
    } else {
        all_chw
    }
}

/// How many RN (heuristic) steps the reductions take on a schedule's
/// layout instance; 0 certifies [`select`]'s answer optimal in bytes.
pub(crate) fn rn_steps(steps: &[Step]) -> usize {
    let (_, costs, edges) = instance(steps);
    gcd2_globalopt::pbqp::solve(costs, edges).rn_steps
}
