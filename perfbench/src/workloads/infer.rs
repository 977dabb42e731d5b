//! `infer_gemm` and `infer_dw`: one warm single-shot inference per
//! model per round, reused arena, `ExecOptions::default()` — what a
//! caller of the plan gets. The primary arm is the first model, the
//! secondary the second. `infer_gemm` (resnet-50, tinybert) spends its
//! time in im2col prep and GEMM; `infer_dw` (mobilenet-v3,
//! efficientnet-b0) in depthwise and elementwise kernels, so a change
//! to one family should leave the other workload flat.

use super::{per_second, RunResult, Samples};
use crate::calib::Calibrator;
use crate::metrics::{Layers, Probes};
use crate::setup::{ms, Model, Prepared, Tally};
use crate::stats::{geomean, median, percentile, sorted, Rng};
use gcd2::{ExecOptions, GemmKernelInfo, InferReport};
use gcd2_kernels::{try_matmul_threaded_into, ScratchPool};
use gcd2_tensor::MatrixI8;
use std::time::Instant;

const WARM_UPS: usize = 5;

pub fn run(prep: &Prepared, seconds: f64, probes: &mut Probes) -> RunResult {
    let Probes { cal, tr, layers } = probes;
    let opts = ExecOptions::default();
    let mut tally = Tally::default();
    cal.sample_ms();
    let preamble = Instant::now();
    let mut arenas: Vec<_> = prep.models.iter().map(|m| m.plan().new_arena()).collect();
    let mut out = Vec::new();
    for (m, arena) in prep.models.iter().zip(&mut arenas) {
        for _ in 0..WARM_UPS {
            let r = m
                .plan()
                .try_execute_into(&m.inputs[0], arena, &mut out, &opts);
            tally.check(r.is_ok() && out == m.expected[0], || {
                format!("{}: warm-up answer differs from execute_reference", m.name)
            });
        }
    }
    let preamble_s = preamble.elapsed().as_secs_f64();
    let preamble_s = preamble_s * cal.factor_to_here();

    let mut samples = Samples::new(prep.models.len());
    let mut last_report: Vec<Option<InferReport>> = vec![None; prep.models.len()];
    let start = Instant::now();
    let (mut op, mut rounds_ms) = (0u64, Vec::new());
    while start.elapsed().as_secs_f64() < seconds {
        let round = tr.mark();
        let (mut prep_ms, mut gemm_ms, mut elementwise_ms) = (0.0, 0.0, 0.0);
        for (i, m) in prep.models.iter().enumerate() {
            op += 1;
            let t0 = Instant::now();
            let ok = if tr.on() {
                // The timed entry point returns the stage breakdown the
                // child spans come from.
                let s = tr.begin("infer.try_execute_timed", op);
                let r = m
                    .plan()
                    .try_execute_timed(&m.inputs[0], &mut arenas[i], &opts);
                tr.end(s);
                match r {
                    Ok((answer, report)) => {
                        tr.stages(
                            s,
                            &[
                                ("infer.prep", report.prep),
                                ("infer.gemm", report.gemm),
                                ("infer.elementwise", report.elementwise),
                            ],
                        );
                        prep_ms += ms(report.prep);
                        gemm_ms += ms(report.gemm);
                        elementwise_ms += ms(report.elementwise);
                        last_report[i] = Some(report);
                        answer == m.expected[0]
                    }
                    Err(_) => false,
                }
            } else {
                m.plan()
                    .try_execute_into(&m.inputs[0], &mut arenas[i], &mut out, &opts)
                    .is_ok()
                    && out == m.expected[0]
            };
            samples.push(i, ms(t0.elapsed()));
            tally.check(ok, || {
                format!("{}: answer differs from execute_reference", m.name)
            });
        }
        let f = cal.factor_to_here();
        rounds_ms.push(samples.close_round(f) * f);
        if tr.on() {
            layers.add("infer.prep_ms", prep_ms * f);
            layers.add("infer.gemm_ms", gemm_ms * f);
            layers.add("infer.elementwise_ms", elementwise_ms * f);
            let residual = tr.unaccounted_ms("infer.try_execute_timed", round);
            layers.add("infer.unaccounted_ms", residual.iter().sum::<f64>() * f);
        }
    }

    let scaled = samples.scaled();
    if tr.on() {
        let p90: Vec<f64> = scaled.iter().map(|s| percentile(&sorted(s), 0.9)).collect();
        layers.add("infer.exec_p50_ms", samples.p50().0);
        layers.add("infer.exec_p90_ms", geomean(&p90));
        kernel_layers(&prep.models, &last_report, cal, layers);
    }
    let mut tail_ratios = Vec::new();
    samples.tail_ratios(&mut tail_ratios);
    let raw = samples.raw();
    RunResult {
        tally,
        preamble_s,
        primary_ms: median(&scaled[0]),
        secondary_ms: median(&scaled[1]),
        raw_primary_ms: median(&raw[0]),
        raw_secondary_ms: median(&raw[1]),
        throughput: per_second(prep.models.len(), &rounds_ms),
        tail_ratios,
    }
}

/// GEMM counters of one pass over the models, and direct calls of each
/// model's three largest GEMM shapes.
fn kernel_layers(
    models: &[Model],
    reports: &[Option<InferReport>],
    cal: &mut Calibrator,
    layers: &mut Layers,
) {
    let mut rng = Rng::new(0);
    cal.sample_ms();
    let (mut gemms, mut tuned, mut bytes, mut top3_ms) = (0usize, 0usize, 0usize, 0.0);
    for report in reports.iter().flatten() {
        gemms += report.gemm_kernels.len();
        tuned += report.gemm_kernels.iter().filter(|g| g.tuned).count();
        // Computed from tensor sizes, not measured: each GEMM reads its
        // activations and weights once and writes its output once.
        bytes += report
            .gemm_kernels
            .iter()
            .map(|g| g.m * g.k + g.k * g.n + g.m * g.n)
            .sum::<usize>();
        let mut largest: Vec<&GemmKernelInfo> = report.gemm_kernels.iter().collect();
        largest.sort_by_key(|g| std::cmp::Reverse(g.m * g.k * g.n));
        largest.dedup_by_key(|g| (g.m, g.k, g.n));
        top3_ms += largest
            .iter()
            .take(3)
            .map(|g| time_gemm(g, &mut rng))
            .sum::<f64>();
    }
    let macs: u64 = models.iter().map(|m| m.plan().gemm_macs()).sum();
    let gemm_s = layers.value("infer.gemm_ms") / 1e3;
    layers.add("kernels.isa", gcd2_kernels::detected_isa() as u8 as f64);
    layers.add("kernels.gemm_macs", macs as f64);
    layers.add("kernels.gemm_gmacs_per_s", macs as f64 / 1e9 / gemm_s);
    layers.add("kernels.gemms", gemms as f64);
    layers.add("kernels.tuned_gemms", tuned as f64);
    layers.add("kernels.gemm_top3_ms", top3_ms * cal.factor_to_here());
    layers.add("kernels.computed_bytes", bytes as f64);
}

/// Median of five direct `try_matmul_threaded_into` calls of one shape,
/// after one warm-up, at the default intra-op thread budget.
fn time_gemm(g: &GemmKernelInfo, rng: &mut Rng) -> f64 {
    let a = rng.activations(g.m * g.k);
    let w = MatrixI8::from_fn(g.k, g.n, |_, _| (rng.next_u64() >> 56) as i8);
    let pool = ScratchPool::new();
    let mut out = Vec::new();
    let threads = gcd2_par::default_threads();
    let times: Vec<f64> = (0..6)
        .map(|_| {
            let t0 = Instant::now();
            let r = try_matmul_threaded_into(&a, g.m, g.k, &w, 7, &pool, threads, &mut out);
            std::hint::black_box(&out);
            assert!(r.is_ok(), "direct GEMM {}x{}x{} refused", g.m, g.k, g.n);
            ms(t0.elapsed())
        })
        .collect();
    median(&times[1..])
}
