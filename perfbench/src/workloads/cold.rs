//! `cold_start`: graph text → first correct answer in a **fresh child
//! process** of this binary, one at a time, so the autotuner, page-ins
//! and lazy CPU detection are truly cold. The primary arm compiles
//! (text → `try_compile_text` → `try_inference_plan` → first
//! `try_execute`); the secondary arm loads the plan through
//! `load_or_compile` from an `ArtifactCache` that set-up populated.
//! Plan build and artifact decode dominate both, not the compile: this
//! is where work moved into plan build must show its cost.

use super::{per_second, RunResult, Samples};
use crate::metrics::{Layers, Probes};
use crate::setup::{ms, Prepared, Tally, WEIGHT_SEED};
use crate::trace::Tracer;
use gcd2::{artifact, load_or_compile, ArtifactCache, ColdStartSource, Compiler};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// The flag that makes this binary run as one cold-start child.
pub const CHILD_FLAG: &str = "--cold-child";
const PATHS: [&str; 2] = ["compile", "artifact"];

fn cache_dir(work_dir: &Path) -> std::path::PathBuf {
    work_dir.join("cache")
}

/// Set-up beyond the shared one: the files a child reads, and an
/// artifact cache holding every model. The cache is emptied first, so
/// repeated set-ups do the same work. Its time is added to `prep`'s.
pub fn stage(prep: &mut Prepared, work_dir: &Path, probes: &mut Probes) {
    let Probes { cal, tr, layers } = probes;
    cal.sample_ms();
    let t0 = Instant::now();
    let tally = stage_files(prep, work_dir, tr, layers);
    let raw_s = t0.elapsed().as_secs_f64();
    let f = cal.factor_to_here();
    prep.tally.merge(tally);
    prep.raw_setup_s += raw_s;
    prep.setup_s += raw_s * f;
}

fn stage_files(prep: &Prepared, work_dir: &Path, tr: &mut Tracer, layers: &mut Layers) -> Tally {
    let mut tally = Tally::default();
    let _ = std::fs::remove_dir_all(cache_dir(work_dir));
    let cache = match ArtifactCache::open(cache_dir(work_dir)) {
        Ok(cache) => cache,
        Err(e) => {
            tally.check(false, || format!("cannot open the artifact cache: {e}"));
            return tally;
        }
    };
    let since = tr.mark();
    let mut bytes = 0usize;
    for (op, m) in prep.models.iter().enumerate() {
        let written = std::fs::write(work_dir.join(format!("{}.gcg", m.name)), &m.text)
            .and_then(|()| std::fs::write(work_dir.join(format!("{}.in", m.name)), &m.inputs[0]));
        tally.check(written.is_ok(), || {
            format!("{}: cannot write the child's files", m.name)
        });

        let s = tr.begin("artifact.load_or_compile", op as u64);
        let stored = load_or_compile(&Compiler::new(), &m.text, WEIGHT_SEED, &cache, &m.name);
        tr.end(s);
        tally.check(
            matches!(&stored, Ok(cs) if cs.source == ColdStartSource::Compiled && cs.fallbacks.is_empty()),
            || format!("{}: could not populate the artifact cache", m.name),
        );

        if tr.on() {
            let s = tr.begin("artifact.encode", op as u64);
            let encoded = artifact::encode(&m.compiled, m.plan(), &m.name);
            tr.end(s);
            let Ok(encoded) = encoded else {
                tally.check(false, || format!("{}: artifact encode failed", m.name));
                continue;
            };
            bytes += encoded.len();
            let s = tr.begin("artifact.decode", op as u64);
            let decoded = artifact::decode(&encoded);
            tr.end(s);
            tally.check(
                matches!(&decoded, Ok(d) if d.plan.checksum() == m.plan().checksum()),
                || format!("{}: decoded plan differs from the encoded one", m.name),
            );
        }
    }
    if tr.on() {
        // Raw: these two are taken inside set-up, between its kernel runs.
        layers.add("artifact.encode_ms", tr.total_ms("artifact.encode", since));
        layers.add("artifact.decode_ms", tr.total_ms("artifact.decode", since));
        layers.add("artifact.bytes", bytes as f64);
    }
    tally
}

pub fn run(prep: &Prepared, seconds: f64, work_dir: &Path, probes: &mut Probes) -> RunResult {
    let Probes { cal, tr, layers } = probes;
    let mut tally = Tally::default();
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let mut samples = [
        Samples::new(prep.models.len()),
        Samples::new(prep.models.len()),
    ];
    cal.sample_ms();
    let start = Instant::now();
    let (mut op, mut rounds_ms) = (0u64, Vec::new());
    while start.elapsed().as_secs_f64() < seconds {
        let round = tr.mark();
        let calibrated = cal.mark() - 1;
        let (mut load_ms, mut fallbacks, mut round_ms) = (0.0, 0.0, 0.0);
        for (i, m) in prep.models.iter().enumerate() {
            for (p, path) in PATHS.iter().enumerate() {
                op += 1;
                let t0 = Instant::now();
                let s = tr.begin("cold.child", op);
                let child = Command::new(&exe)
                    .args([CHILD_FLAG, &m.name, path])
                    .arg(work_dir)
                    .output();
                tr.end(s);
                samples[p].push(i, ms(t0.elapsed()));

                let stages = match &child {
                    Ok(out) if out.status.success() => {
                        parse_stages(&String::from_utf8_lossy(&out.stdout))
                    }
                    _ => Vec::new(),
                };
                let answer = std::fs::read(work_dir.join(format!("{}.{path}.out", m.name)));
                let stage = |name: &str| stages.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
                let clean = *path == "compile"
                    || (stage("loaded") == Some(1.0) && stage("fallbacks") == Some(0.0));
                tally.check(
                    !stages.is_empty() && clean && matches!(&answer, Ok(a) if *a == m.expected[0]),
                    || {
                        format!(
                            "{} ({path}): child failed, fell back, or answered wrong",
                            m.name
                        )
                    },
                );
                let _ = std::fs::remove_file(work_dir.join(format!("{}.{path}.out", m.name)));

                load_ms += stage("artifact.load_or_compile").unwrap_or(0.0);
                fallbacks += stage("fallbacks").unwrap_or(0.0);
                let spans: Vec<(&'static str, Duration)> = STAGE_SPANS
                    .iter()
                    .filter_map(|&name| Some((name, Duration::from_secs_f64(stage(name)? / 1e3))))
                    .collect();
                tr.stages(s, &spans);
                // A child runs for a tenth of a second and more, so the
                // kernel runs after each one, and each is scaled by the
                // runs on either side of it.
                let f = cal.factor_to_here();
                round_ms += samples[p].close_round(f) * f;
            }
        }
        rounds_ms.push(round_ms);
        if tr.on() {
            let f = cal.factor_since(calibrated);
            layers.add("artifact.cache_load_ms", load_ms * f);
            layers.add("artifact.fallbacks", fallbacks);
            // What the child's stages leave of spawn → exit: process
            // start, dynamic loading, file I/O and teardown.
            let residual = tr.unaccounted_ms("cold.child", round);
            layers.add("cold.unaccounted_ms", residual.iter().sum::<f64>() * f);
        }
    }

    let mut tail_ratios = Vec::new();
    samples[0].tail_ratios(&mut tail_ratios);
    samples[1].tail_ratios(&mut tail_ratios);
    let (primary_ms, raw_primary_ms) = samples[0].p50();
    let (secondary_ms, raw_secondary_ms) = samples[1].p50();
    RunResult {
        tally,
        preamble_s: 0.0,
        primary_ms,
        secondary_ms,
        raw_primary_ms,
        raw_secondary_ms,
        throughput: per_second(PATHS.len() * prep.models.len(), &rounds_ms),
        tail_ratios,
    }
}

/// The child's timed stages, in the order they run; each becomes a
/// child span of the `cold.child` span.
const STAGE_SPANS: [&str; 5] = [
    "cold.read_files",
    "core.try_compile_text",
    "infer.try_inference_plan",
    "artifact.load_or_compile",
    "infer.first_execute",
];

/// `name=value` pairs of the child's one output line.
fn parse_stages(line: &str) -> Vec<(String, f64)> {
    line.split_whitespace()
        .filter_map(|pair| {
            let (name, value) = pair.split_once('=')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The child: `perf --cold-child <model> <compile|artifact> <dir>`.
/// Prints its stage times in ms on one line and writes its answer to
/// `<dir>/<model>.<path>.out` for the parent to check.
pub fn child(args: &[String]) -> Result<(), String> {
    let [name, path, dir] = args else {
        return Err(format!(
            "usage: perf {CHILD_FLAG} <model> <compile|artifact> <dir>"
        ));
    };
    let dir = Path::new(dir);
    let mut line = String::new();
    let stage = |name: &str, since: Instant, line: &mut String| {
        line.push_str(&format!("{name}={} ", ms(since.elapsed())));
    };

    let t0 = Instant::now();
    let text =
        std::fs::read_to_string(dir.join(format!("{name}.gcg"))).map_err(|e| e.to_string())?;
    let input = std::fs::read(dir.join(format!("{name}.in"))).map_err(|e| e.to_string())?;
    stage("cold.read_files", t0, &mut line);

    let plan = match path.as_str() {
        "compile" => {
            let t0 = Instant::now();
            let (compiled, _) = Compiler::new()
                .try_compile_text(&text)
                .map_err(|e| e.to_string())?;
            stage("core.try_compile_text", t0, &mut line);
            let t0 = Instant::now();
            let plan = compiled
                .try_inference_plan(WEIGHT_SEED)
                .map_err(|e| e.to_string())?;
            stage("infer.try_inference_plan", t0, &mut line);
            plan
        }
        "artifact" => {
            let t0 = Instant::now();
            let cache = ArtifactCache::open(cache_dir(dir)).map_err(|e| e.to_string())?;
            let cold = load_or_compile(&Compiler::new(), &text, WEIGHT_SEED, &cache, name)
                .map_err(|e| e.to_string())?;
            stage("artifact.load_or_compile", t0, &mut line);
            let loaded = u8::from(cold.source == ColdStartSource::ArtifactCache);
            line.push_str(&format!(
                "loaded={loaded} fallbacks={} ",
                cold.fallbacks.len()
            ));
            cold.plan
        }
        other => return Err(format!("unknown path {other}")),
    };

    let t0 = Instant::now();
    let answer = plan.try_execute(&input).map_err(|e| e.to_string())?;
    stage("infer.first_execute", t0, &mut line);
    std::fs::write(dir.join(format!("{name}.{path}.out")), answer).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(())
}
