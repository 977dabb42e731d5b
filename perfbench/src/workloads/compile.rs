//! `compile_catalog`: graph text → `CompiledModel` for all ten Table IV
//! models, on a fresh compiler (primary) and on a compiler kept across
//! rounds (secondary). The compile layers do all the work and the
//! runtime none; the two arms use the kernel-cost cache as writer and
//! as reader, so a caching gain that taxes the cold path shows.

use super::{per_second, RunResult, Samples};
use crate::metrics::Probes;
use crate::setup::{compile_stages, ms, CompilePass, Prepared, Tally};
use gcd2::{CompiledModel, Compiler};
use std::time::Instant;

/// Span names of the two arms; set-up's compiles are cold ones too.
const COLD: &str = "core.try_compile_text";
const WARM: &str = "core.try_compile_text.warm";

pub fn run(prep: &Prepared, seconds: f64, probes: &mut Probes) -> RunResult {
    let Probes { cal, tr, layers } = probes;
    let mut tally = Tally::default();
    cal.sample_ms();
    let preamble = Instant::now();
    // Each model's persistent compiler has compiled it once before the
    // first timed round.
    let warm: Vec<Compiler> = prep
        .models
        .iter()
        .map(|m| {
            let compiler = Compiler::new();
            let first = compiler.try_compile_text(&m.text);
            tally.check(first.is_ok(), || {
                format!("{}: warm-up compile failed", m.name)
            });
            compiler
        })
        .collect();
    let preamble_s = preamble.elapsed().as_secs_f64();
    let preamble_s = preamble_s * cal.factor_to_here();

    let mut cold_ms = Samples::new(prep.models.len());
    let mut warm_ms = Samples::new(prep.models.len());
    let start = Instant::now();
    let (mut ops, mut rounds_ms) = (0u64, Vec::new());
    while start.elapsed().as_secs_f64() < seconds {
        let round = tr.mark();
        let mut cold_pass = CompilePass::default();
        let mut warm_pass = CompilePass::default();
        // Round-robin over the models inside a round, so host drift
        // hits every model equally.
        for (i, m) in prep.models.iter().enumerate() {
            for (span, compiler, samples, pass) in [
                (COLD, &Compiler::new(), &mut cold_ms, &mut cold_pass),
                (WARM, &warm[i], &mut warm_ms, &mut warm_pass),
            ] {
                ops += 1;
                let t0 = Instant::now();
                let s = tr.begin(span, ops);
                let result = compiler.try_compile_text(&m.text);
                tr.end(s);
                let wall = t0.elapsed();
                match result {
                    Ok((compiled, report)) => {
                        samples.push(i, ms(wall));
                        tr.stages(s, &compile_stages(&report));
                        pass.add(wall, &report);
                        tally.check(same_compile(&compiled, &m.compiled), || {
                            format!("{}: a recompile chose another plan", m.name)
                        });
                    }
                    Err(e) => tally.check(false, || format!("{}: compile failed: {e}", m.name)),
                }
            }
        }
        let f = cal.factor_to_here();
        rounds_ms.push((cold_ms.close_round(f) + warm_ms.close_round(f)) * f);
        if tr.on() {
            cold_pass.record_cold(f, layers);
            layers.add("kernels.cost_cache_hit_rate_warm", warm_pass.hit_rate());
            let residual = tr.unaccounted_ms(COLD, round);
            layers.add("compile.unaccounted_ms", residual.iter().sum::<f64>() * f);
        }
    }

    let mut tail_ratios = Vec::new();
    cold_ms.tail_ratios(&mut tail_ratios);
    warm_ms.tail_ratios(&mut tail_ratios);
    let (primary_ms, raw_primary_ms) = cold_ms.p50();
    let (secondary_ms, raw_secondary_ms) = warm_ms.p50();
    RunResult {
        tally,
        preamble_s,
        primary_ms,
        secondary_ms,
        raw_primary_ms,
        raw_secondary_ms,
        throughput: per_second(2 * prep.models.len(), &rounds_ms),
        tail_ratios,
    }
}

/// Cold and warm compiles must agree with the set-up compile on the
/// simulated cycles and on the chosen plan of every operator.
fn same_compile(a: &CompiledModel, b: &CompiledModel) -> bool {
    a.cycles() == b.cycles() && a.assignment.choice == b.assignment.choice
}
