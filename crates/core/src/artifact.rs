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
//! | 4  | WEIGHTS | per-GEMM materialized weight matrices              |
//! | 6  | STATS   | compile-time DSP stats (cycles, packets, ...)      |
//!
//! Sections are looked up by id and an id this build does not know is
//! ignored. Id 3 was the stored step schedule of formats 1–5 and id 5
//! the advisory tile-hint section of formats 1–4: the schedule is a
//! function of the graph and a GEMM's blocking a function of its shape,
//! so both are re-derived and nothing about either is stored.
//!
//! ## Trust model
//!
//! The file says which graph and which weights, never what a kernel
//! reads. Two inputs are untrusted: the graph text, which goes through
//! the same `from_text` + [`crate::admit`] every
//! [`Compiler::try_compile_text`] caller faces, and the weight bytes,
//! shape-checked against a schedule the file did not write — the loader
//! builds it from the admitted graph with the builder's own
//! [`InferencePlan::schedule`] (steps, slots, shifts, layout labels)
//! and only installs the stored matrices into it. Container checksums
//! catch corruption, the chain checksum binds the section table to the
//! stored plan integrity checksum (checked before a weight byte is
//! copied), and the derived plan must re-hash to that checksum — so
//! corruption, a transplanted payload, a forged schedule and an artifact
//! of a build whose selection differed are all one
//! [`ArtifactError::IntegrityMismatch`], which [`load_or_compile`]
//! degrades into a recorded fallback compile, never an abort. What is
//! left to a forger is the weights' values: the gateway's
//! [`crate::InferServer::register_from_artifact`] re-runs the analyzer
//! over every loaded plan, which proves their accumulator ranges.

use gcd2_artifact::{
    Artifact, ArtifactCache, ArtifactError, ArtifactWriter, ByteReader, ByteWriter, FORMAT_VERSION,
};
use gcd2_cgraph::Graph;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::error::{panic_message, Gcd2Error};
use crate::infer::{
    guard_panics, lap, GemmStep, InferencePlan, InstallLedger, StepKind, WeightTile,
};
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
const MAX_SLOT_BYTES: u64 = 1 << 32;
const MAX_NAME_BYTES: u64 = 4096;
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
    /// `container` (table bounds, section checksums, chain binding),
    /// `graph+schedule+selection` (re-parse, re-admission, the derived
    /// schedule and its layout labels), `pack` (the resident panels,
    /// filled from the borrowed section a k-tile at a time),
    /// `integrity` (each matrix's digest, taken as its tiles were
    /// packed, and the plan re-hash). What [`decode`] took beyond their
    /// sum is the caller's to report as unaccounted.
    pub stages: Vec<(&'static str, Duration)>,
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
    // Sized exactly, each matrix appended as its panel reads it back, a
    // k-tile at a time: the section is the weights' size and is written
    // once, and the bytes do not depend on the form a tier packed.
    let mut w = ByteWriter::with_capacity(8 + 16 * gemms.len() + plan.weight_bytes);
    w.u64(gemms.len() as u64);
    let mut tile = Vec::new();
    for g in gemms {
        w.u64(g.k as u64);
        w.u64(g.n as u64);
        g.panel.for_each_ktile(&mut tile, |rows| w.i8s(rows));
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

fn required_section<'a>(art: &Artifact<'a>, id: u32) -> Result<&'a [u8], ArtifactError> {
    art.section(id)
        .ok_or_else(|| bounds("missing section", id as u64, id as u64))
}

/// Installs the WEIGHTS section into the derived plan's GEMM steps, in
/// schedule order, each matrix validated against the shape its step
/// derived and packed from the borrowed section a k-tile at a time.
/// Returns where `install_weights` spent its time.
fn attach_weights(plan: &mut InferencePlan, bytes: &[u8]) -> Result<InstallLedger, ArtifactError> {
    let mut r = ByteReader::new(bytes);
    let declared = r.u64_capped("weight matrix count", MAX_STEPS)? as usize;
    let mut seen = 0usize;
    let ledger = plan.install_weights(|tile: WeightTile<'_>| {
        let g = tile.gemm;
        if tile.rows.start == 0 {
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
        }
        let raw = r.take(tile.bytes.len())?;
        for (w, &b) in tile.bytes.iter_mut().zip(raw) {
            *w = b as i8;
        }
        Ok(())
    })?;
    if seen != declared {
        return Err(bounds("weight matrix count", declared as u64, seen as u64));
    }
    if !r.is_empty() {
        return Err(bounds("weight trailing bytes", r.remaining() as u64, 0));
    }
    Ok(ledger)
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
/// binding, graph re-parse + re-admission, the schedule derived from
/// that graph, the stored weights shape-checked into it, and the re-hash
/// of the result against the stored integrity checksum. On success the
/// returned plan is byte-for-byte the plan that was emitted.
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
    let mut stages = Vec::with_capacity(5);
    let mut since = Instant::now();
    let art = Artifact::decode(bytes).map_err(Gcd2Error::Artifact)?;
    let mut meta = ByteReader::new(required_section(&art, SEC_META)?);
    let label = meta
        .str("label", MAX_NAME_BYTES)
        .map_err(Gcd2Error::Artifact)?;
    let seed = meta.u64().map_err(Gcd2Error::Artifact)?;
    let stored = meta.u64().map_err(Gcd2Error::Artifact)?;
    // The chain binds the section table to the checksum META declares:
    // a spliced table or a payload transplanted onto another plan is
    // refused here, before a weight byte is copied.
    art.verify_chain(stored).map_err(Gcd2Error::Artifact)?;
    lap(&mut stages, &mut since, "container");

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
    // The schedule is the builder's, over a graph that passed admission:
    // which slot a step reads, how long its value is, its shift and its
    // layout labels are derived here and appear nowhere in the file.
    let mut plan = guard_panics(|| InferencePlan::schedule(&graph, seed, crate::layout::select))?;
    lap(&mut stages, &mut since, "graph+schedule+selection");

    let ledger = attach_weights(&mut plan, required_section(&art, SEC_WEIGHTS)?)
        .map_err(Gcd2Error::Artifact)?;
    // The install's wall clock is the pack's — reading a k-tile out of
    // the section is its first half — but for the digests it took
    // while each tile was hot, which are the integrity stage's.
    let installed = Instant::now();
    stages.push(("pack", (installed - since).saturating_sub(ledger.digest)));
    since = installed;

    // The derived schedule and the stored weights must be the plan the
    // writer hashed.
    plan.checksum = plan.integrity_checksum();
    if plan.checksum != stored {
        return Err(Gcd2Error::Artifact(ArtifactError::IntegrityMismatch {
            expected: stored,
            got: plan.checksum,
        }));
    }
    let stats = decode_stats(required_section(&art, SEC_STATS)?).map_err(Gcd2Error::Artifact)?;
    stages.push(("integrity", since.elapsed() + ledger.digest));

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
    // A latent defect may panic inside the load path; a cold start must
    // degrade to compiling, not abort.
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
