//! AOT plan artifacts: serialize what a compiled [`InferencePlan`] cannot
//! re-derive (the graph it came from, its weights, compile stats) into
//! the `gcd2-artifact` container, and load it back with every byte
//! treated as hostile.
//!
//! ## Sections
//!
//! | id | name    | payload                                            |
//! |----|---------|----------------------------------------------------|
//! | 1  | META    | label, weight seed, plan integrity checksum        |
//! | 2  | GRAPH   | the graph's canonical text (`gcd2_cgraph::to_text`)|
//! | 4  | WEIGHTS | every GEMM's panel as its kernel reads it          |
//! | 6  | STATS   | compile-time DSP stats (cycles, packets, ...)      |
//!
//! Sections are looked up by id and an id this build does not know is
//! ignored. Id 3 was the stored step schedule of formats 1–5 and id 5
//! the advisory tile-hint section of formats 1–4: the schedule is a
//! function of the graph and a GEMM's blocking a function of its shape,
//! so both are re-derived and nothing about either is stored.
//!
//! ## The weights are the panel image
//!
//! WEIGHTS is the plan's weights image (`WeightsLayout` in
//! [`crate::infer`]): a header of `(kind, k, n, offset)` per GEMM, then
//! each GEMM's strip-major quad panel — or a direct kernel's row-major
//! bytes — exactly as the kernel reads it, at a 64-byte-aligned offset
//! (the container starts every payload on a 64-byte boundary of the
//! file). Encoding writes the panels verbatim; loading maps the file and
//! lends each step its region in place, through a shared,
//! reference-counted image — nothing is copied, packed or zero-filled.
//! The plan checksum folds in the image's [`gcd2_artifact::checksum64`],
//! which is the WEIGHTS section checksum the container verified, so a
//! load hashes each weight byte once.
//!
//! ## Trust model
//!
//! The file says which graph and which weights, never what a kernel
//! reads. Two inputs are untrusted: the graph text, which goes through
//! the same `from_text` + [`crate::admit`] every
//! [`Compiler::try_compile_text`] caller faces, and the weights image,
//! held to a schedule the file did not write — the loader builds it from
//! the admitted graph with the builder's own [`InferencePlan::schedule`]
//! (steps, slots, shifts, layout labels), derives the image layout from
//! it, and refuses a header entry of another kind, shape or offset, a
//! non-zero alignment byte, and panel padding packing would not leave.
//! Container checksums catch corruption, the chain checksum binds the
//! section table to the stored plan integrity checksum (checked before a
//! weight is lent), and the derived plan must hash to that checksum — so
//! corruption, a transplanted payload, a forged schedule and an artifact
//! of a build whose selection differed are all one
//! [`ArtifactError::IntegrityMismatch`], which [`load_or_compile`]
//! degrades into a recorded fallback compile, never an abort. What is
//! left to a forger is the weights' values: the gateway's
//! [`crate::InferServer::register_from_artifact`] re-runs the analyzer
//! over every loaded plan, which proves their accumulator ranges.
//!
//! A loaded plan reads its weights from a read-only, private mapping of
//! the cache file for as long as it lives, so it relies on no one
//! writing that file in place. The cache never does: a store is a temp
//! file renamed over the key, an eviction an unlink, and neither touches
//! the inode a mapping holds — a plan keeps executing the bytes it
//! loaded after its entry is evicted or replaced. Only an in-place
//! writer could truncate a mapped file (a later read of a vanished page
//! is a SIGBUS), and none exists in the program. [`decode`] copies the
//! caller's bytes once into an owned image, and a host that cannot map
//! reads the file into the same owned image type.

use gcd2_artifact::{
    Artifact, ArtifactCache, ArtifactError, ArtifactWriter, ByteReader, ByteWriter, Section,
    FORMAT_VERSION,
};
use gcd2_cgraph::Graph;
use gcd2_kernels::{PanelImage, WeightPanel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{panic_message, Gcd2Error};
use crate::image::{ArtifactImage, Via};
use crate::infer::{guard_panics, kind_code, lap, InferencePlan, StepKind, PANEL_ALIGN};
use crate::{CompiledModel, Compiler};

/// Section ids of the plan artifact payload.
pub const SEC_META: u32 = 1;
/// See [`SEC_META`].
pub const SEC_GRAPH: u32 = 2;
/// See [`SEC_META`].
pub const SEC_WEIGHTS: u32 = 4;
/// See [`SEC_META`].
pub const SEC_STATS: u32 = 6;

/// Decoder caps: far above anything the catalog emits, low enough that
/// a forged count cannot drive a pathological allocation.
const MAX_STEPS: u64 = 1 << 20;
const MAX_NAME_BYTES: u64 = 4096;
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
    /// Where the load's wall clock went, file to verified plan, in the
    /// order the stages ran: how the bytes arrived — `map` (the file
    /// mapped read-only), `read` (read into memory where mapping is
    /// unavailable) or `copy` ([`decode`]'s copy of the caller's bytes)
    /// — then `container` (table bounds, every section checksum, the
    /// WEIGHTS one included, which is the one pass over the weights, and
    /// the chain binding), `graph+schedule+selection` (re-parse,
    /// re-admission, the derived schedule and its layout labels) and
    /// `integrity` (the panel table held to the derived layout, the
    /// padding checked, the panels lent, and the plan re-hash). What the
    /// caller measured beyond their sum is its to report as
    /// unaccounted.
    pub stages: Vec<(&'static str, Duration)>,
}

/// The WEIGHTS section: the plan's weights image, every panel written as
/// it lies.
fn encode_weights_section(plan: &InferencePlan) -> Vec<u8> {
    let layout = plan.weights_layout();
    let mut image = vec![0u8; layout.len];
    image[..layout.header.len()].copy_from_slice(&layout.header);
    for (entry, g) in layout.panels.iter().zip(plan.gemm_steps()) {
        let bytes = g.panel.as_bytes();
        image[entry.at..][..bytes.len()].copy_from_slice(bytes);
    }
    image
}

/// Serializes `plan` (and the graph/stats of the model it was built
/// from) into a self-describing artifact. `label` is a free-form tag
/// (typically the model name) surfaced again on load. The bytes are a
/// function of the arguments alone — not of the tier, the process, or
/// whether the plan was built or loaded.
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
    meta.u64(plan.checksum());

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
    writer.section(SEC_WEIGHTS, encode_weights_section(plan));
    writer.section(SEC_STATS, stat_w.finish());
    writer.finish(plan.checksum())
}

fn bounds(what: &'static str, value: u64, limit: u64) -> ArtifactError {
    ArtifactError::Bounds { what, value, limit }
}

fn required_section<'s, 'a>(
    art: &'s Artifact<'a>,
    id: u32,
) -> Result<&'s Section<'a>, ArtifactError> {
    art.sections
        .iter()
        .find(|s| s.id == id)
        .ok_or_else(|| bounds("missing section", id as u64, id as u64))
}

/// Holds the WEIGHTS section to the weights image layout the derived
/// schedule gives — the same count, each panel's kind, shape and
/// offset, zeros in every alignment gap — then lends each GEMM step its
/// panel where it lies in `image`, refusing padding a pack would not
/// leave, and takes the section checksum as the plan's weights digest.
/// An offset is checked for alignment, overlap and range before it is
/// compared with the derived one, so each defect is named.
fn lend_panels(
    plan: &mut InferencePlan,
    image: &Arc<ArtifactImage>,
    weights: &Section<'_>,
) -> Result<(), ArtifactError> {
    let layout = plan.weights_layout();
    let bytes = weights.bytes;
    let mut r = ByteReader::new(bytes);
    let count = r.u64_capped("weight matrix count", MAX_STEPS)?;
    if count != layout.panels.len() as u64 {
        return Err(bounds(
            "weight matrix count",
            count,
            layout.panels.len() as u64,
        ));
    }
    let mut end = layout.header.len() as u64;
    for want in &layout.panels {
        let (kind, k, n, at) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        if kind != kind_code(want.kind) {
            return Err(bounds("weight panel kind", kind, kind_code(want.kind)));
        }
        if (k, n) != (want.k as u64, want.n as u64) {
            return Err(bounds(
                "weight shape",
                k << 32 | n,
                (want.k as u64) << 32 | want.n as u64,
            ));
        }
        if !at.is_multiple_of(PANEL_ALIGN as u64) {
            return Err(bounds("weight panel alignment", at, PANEL_ALIGN as u64));
        }
        if at < end {
            return Err(bounds("weight panel overlap", at, end));
        }
        let len = want.kind.bytes(want.k, want.n) as u64;
        if at.saturating_add(len) > bytes.len() as u64 {
            return Err(bounds(
                "weight panel range",
                at.saturating_add(len),
                bytes.len() as u64,
            ));
        }
        if at != want.at as u64 {
            return Err(bounds("weight panel offset", at, want.at as u64));
        }
        end = at + len;
    }
    if bytes.len() != layout.len {
        return Err(bounds(
            "weight section length",
            bytes.len() as u64,
            layout.len as u64,
        ));
    }
    // Every byte that is neither header nor panel is alignment padding.
    let starts = layout.panels.iter().map(|p| p.at).chain([layout.len]);
    let ends = [layout.header.len()]
        .into_iter()
        .chain(layout.panels.iter().map(|p| p.at + p.kind.bytes(p.k, p.n)));
    for (gap_end, gap_start) in starts.zip(ends) {
        if let Some(at) = bytes[gap_start..gap_end].iter().position(|&b| b != 0) {
            return Err(bounds(
                "weight padding",
                (gap_start + at) as u64,
                gap_end as u64,
            ));
        }
    }

    let lent: Arc<dyn PanelImage> = image.clone();
    let gemms = plan.steps.iter_mut().filter_map(|s| match &mut s.kind {
        StepKind::Gemm(g) => Some(g),
        _ => None,
    });
    for (index, (entry, g)) in layout.panels.iter().zip(gemms).enumerate() {
        let at = weights.offset + entry.at;
        g.panel = WeightPanel::in_image(entry.kind, (entry.k, entry.n), lent.clone(), at)
            .ok_or_else(|| bounds("weight panel alignment", at as u64, 64))?;
        if !g.panel.padding_is_clean() {
            return Err(bounds("weight panel padding", index as u64, 0));
        }
    }
    plan.weights_digest = weights.checksum;
    Ok(())
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

/// Decodes and fully verifies an artifact held in `bytes`, which are
/// copied once into an owned image the loaded plan's panels borrow:
/// container checksums, chain binding, graph re-parse + re-admission,
/// the schedule derived from that graph, the stored weights image held
/// to the layout it derives, and the re-hash of the result against the
/// stored integrity checksum. On success the returned plan is
/// byte-for-byte the plan that was emitted. [`load_file`] maps a file
/// instead.
///
/// # Errors
/// Container and payload defects surface as
/// [`Gcd2Error::Artifact`]; corrupted-but-checksummed graph text as
/// [`Gcd2Error::Parse`] / [`Gcd2Error::Admission`], or — admitted but
/// not schedulable — [`Gcd2Error::Infer`]; a derived plan whose re-hash
/// disagrees with the stored checksum (edited graph or weights, a
/// schedule another build would have derived) as
/// [`ArtifactError::IntegrityMismatch`]. Never panics on any input.
pub fn decode(bytes: &[u8]) -> Result<LoadedArtifact, Gcd2Error> {
    let t0 = Instant::now();
    let image = ArtifactImage::copy_of(bytes);
    decode_image(image, Via::Copy, t0)
}

/// [`decode`] of the artifact file at `path`, mapped read-only (read,
/// where mapping is unavailable or fails) rather than copied: the
/// loaded plan's panels are the file's bytes. The ledger starts with the
/// map or read.
///
/// # Errors
/// As [`decode`]; [`ArtifactError::Io`] if the file cannot be opened,
/// mapped or read, or is not a regular file.
pub fn load_file(path: &Path) -> Result<LoadedArtifact, Gcd2Error> {
    let t0 = Instant::now();
    let (image, via) = ArtifactImage::open(path).map_err(|e| {
        Gcd2Error::Artifact(ArtifactError::Io {
            op: "read",
            message: e.to_string(),
        })
    })?;
    decode_image(image, via, t0)
}

/// The load behind [`decode`] and [`load_file`], over the image that
/// arrived `via` since `since`.
pub(crate) fn decode_image(
    image: ArtifactImage,
    via: Via,
    mut since: Instant,
) -> Result<LoadedArtifact, Gcd2Error> {
    let mut stages = Vec::with_capacity(4);
    lap(&mut stages, &mut since, via.stage());
    let image = Arc::new(image);
    let art = Artifact::decode(image.bytes()).map_err(Gcd2Error::Artifact)?;
    let mut meta = ByteReader::new(required_section(&art, SEC_META)?.bytes);
    let label = meta
        .str("label", MAX_NAME_BYTES)
        .map_err(Gcd2Error::Artifact)?;
    let seed = meta.u64().map_err(Gcd2Error::Artifact)?;
    let stored = meta.u64().map_err(Gcd2Error::Artifact)?;
    // The chain binds the section table to the checksum META declares:
    // a spliced table or a payload transplanted onto another plan is
    // refused here, before a weight is lent.
    art.verify_chain(stored).map_err(Gcd2Error::Artifact)?;
    lap(&mut stages, &mut since, "container");

    let graph_bytes = required_section(&art, SEC_GRAPH)?.bytes;
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
    // The schedule is the builder's, over a graph that passed admission:
    // which slot a step reads, how long its value is, its shift and its
    // layout labels are derived here and appear nowhere in the file.
    let mut plan = guard_panics(|| InferencePlan::schedule(&graph, seed, crate::layout::select))?;
    lap(&mut stages, &mut since, "graph+schedule+selection");

    let weights = required_section(&art, SEC_WEIGHTS)?;
    lend_panels(&mut plan, &image, weights).map_err(Gcd2Error::Artifact)?;
    // The derived schedule and the stored weights must be the plan the
    // writer hashed.
    plan.checksum = plan.integrity_checksum();
    if plan.checksum != stored {
        return Err(Gcd2Error::Artifact(ArtifactError::IntegrityMismatch {
            expected: stored,
            got: plan.checksum,
        }));
    }
    let stats =
        decode_stats(required_section(&art, SEC_STATS)?.bytes).map_err(Gcd2Error::Artifact)?;
    lap(&mut stages, &mut since, "integrity");

    Ok(LoadedArtifact {
        label,
        seed,
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

/// A recorded load-degradation event, mirroring GCD2 selection's
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
    // A latent defect may panic inside the load path; a cold start must
    // degrade to compiling, not abort.
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<_, ColdStartFallback> {
        let t0 = Instant::now();
        let (image, via) = match ArtifactImage::open(&cache.path_for(key)) {
            Ok(opened) => opened,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(ColdStartFallback {
                    stage: "load",
                    detail: ArtifactError::Io {
                        op: "read",
                        message: e.to_string(),
                    }
                    .to_string(),
                })
            }
        };
        decode_image(image, via, t0)
            .map(Some)
            .map_err(|e| ColdStartFallback {
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
                panic_message(payload.as_ref())
            ),
        }),
    }
}

/// The cold-start entry point: load the plan from the artifact cache
/// if a valid artifact exists, otherwise compile from `text` and write
/// the artifact back. The contract is **never abort on a bad
/// artifact**: any load failure (I/O error, corruption, version skew,
/// integrity mismatch, even a panic) is recorded as a
/// [`ColdStartFallback`] and degrades to a fresh compile. Concurrent
/// callers that miss the same key each compile and store: the key fixes
/// the bytes, and [`ArtifactCache::store`]'s atomic rename keeps every
/// reader from seeing a partial file.
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

    let (compiled, _report) = compiler.try_compile_text(text)?;
    let plan = compiled.try_inference_plan(seed)?;

    // Write-back is best-effort: a failed store (or a panic) is
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
                panic_message(payload.as_ref())
            ),
        }),
    }

    Ok(ColdStart {
        key,
        plan,
        graph: compiled.graph,
        source: ColdStartSource::Compiled,
        fallbacks,
        elapsed: t0.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcd2_cgraph::{Activation, OpKind, TShape};

    /// A net with both panel forms: a 3×3 conv wide enough for a GEMM
    /// (a quad panel over a ragged k-tile and strip), then a depthwise
    /// conv and a narrow conv (row-major bytes of direct kernels).
    fn two_forms() -> Graph {
        let mut g = Graph::new();
        let x = g.input("x", TShape::nchw(1, 7, 9, 9));
        let conv = |out_channels, k| OpKind::Conv2d {
            out_channels,
            kernel: (k, k),
            stride: (1, 1),
            padding: (k / 2, k / 2),
        };
        let wide = g.add(conv(20, 3), &[x], "wide");
        let act = g.add(OpKind::Act(Activation::Relu), &[wide], "act");
        let dw = g.add(
            OpKind::DepthwiseConv2d {
                kernel: (3, 3),
                stride: (1, 1),
                padding: (1, 1),
            },
            &[act],
            "dw",
        );
        g.add(conv(5, 1), &[dw], "narrow");
        g
    }

    /// One artifact is one plan through every way its bytes arrive: the
    /// file mapped ([`load_file`]), the caller's bytes copied
    /// ([`decode`]), and the file read into an owned image — the
    /// fallback of a host that cannot map, through its own constructor.
    /// Each gives the built plan's checksum and output bytes, verifies
    /// its panels as they lie, and re-encodes to the same file.
    #[test]
    fn mapped_copied_and_read_loads_are_one_plan() {
        let compiled = Compiler::new().compile(&two_forms());
        let plan = compiled.inference_plan(0x5EED);
        let rows: Vec<bool> = plan
            .gemm_steps()
            .map(|g| g.panel.as_rows().is_some())
            .collect();
        assert!(rows.contains(&true) && rows.contains(&false), "{rows:?}");
        let bytes = encode(&compiled, &plan, "two-forms").expect("encode");
        let dir = std::env::temp_dir().join(format!("gcd2-three-loads-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("two-forms.gcd2art");
        std::fs::write(&path, &bytes).expect("write");

        let mapped = load_file(&path).expect("mapped load");
        let copied = decode(&bytes).expect("decode");
        let file = std::fs::File::open(&path).expect("open");
        let image = ArtifactImage::read(file, bytes.len()).expect("read");
        let read = decode_image(image, Via::Read, Instant::now()).expect("read load");
        let mapping = cfg!(all(target_arch = "x86_64", target_os = "linux"));
        let input: Vec<u8> = (0..plan.input_len()).map(|i| (i * 5 % 16) as u8).collect();
        let want = plan.execute(&input);
        for (loaded, via) in [
            (&mapped, if mapping { "map" } else { "read" }),
            (&copied, "copy"),
            (&read, "read"),
        ] {
            let stages: Vec<_> = loaded.stages.iter().map(|s| s.0).collect();
            assert_eq!(
                stages,
                [via, "container", "graph+schedule+selection", "integrity"],
                "{via}"
            );
            assert_eq!(loaded.plan.checksum(), plan.checksum(), "{via}");
            loaded.plan.verify_integrity().expect(via);
            assert_eq!(loaded.plan.execute(&input), want, "{via}");
            let again = encode(&compiled, &loaded.plan, "two-forms").expect("re-encode");
            assert!(again == bytes, "{via}: re-encoded bytes differ");
        }
        drop((mapped, read));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
