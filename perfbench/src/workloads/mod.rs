//! The six workloads. README.md records why each was chosen and what
//! the two arms of each are.

pub mod cold;
pub mod compile;
pub mod infer;
pub mod serve;

use crate::metrics::Probes;
use crate::setup::{Prepared, Tally};
use crate::stats::{geomean, median, Rng};
use gcd2_models::ModelId;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileCatalog,
    ColdStart,
    InferGemm,
    InferDw,
    ServeOpen,
    ServeSaturated,
}

/// What the timed part of a workload measured. Times are scaled to the
/// host's reference speed (`calib.rs`) unless named raw.
pub struct RunResult {
    pub tally: Tally,
    /// Untimed work between set-up and the first timed operation
    /// (warm-ups, gateway start, registration); part of `setup_s`.
    pub preamble_s: f64,
    pub primary_ms: f64,
    pub secondary_ms: f64,
    pub raw_primary_ms: f64,
    pub raw_secondary_ms: f64,
    /// Operations per second: of the median round where the workload
    /// runs in rounds ([`per_second`]), of the phase on the gateway.
    pub throughput: f64,
    /// Every timed sample over the median of its own model and arm, so
    /// that samples of unlike models pool into one tail.
    pub tail_ratios: Vec<f64>,
}

/// The timed samples of one arm, per model: raw, and scaled by the
/// calibration factor of the round they were taken in.
pub struct Samples {
    raw: Vec<Vec<f64>>,
    scaled: Vec<Vec<f64>>,
    /// Samples of the round in progress, whose factor is known only
    /// once the kernel has run again after it.
    open: Vec<(usize, f64)>,
}

impl Samples {
    pub fn new(models: usize) -> Samples {
        Samples {
            raw: vec![Vec::new(); models],
            scaled: vec![Vec::new(); models],
            open: Vec::new(),
        }
    }

    pub fn push(&mut self, model: usize, raw_ms: f64) {
        self.open.push((model, raw_ms));
    }

    /// Ends the round: its samples are scaled by `factor`. Returns the
    /// round's raw time.
    pub fn close_round(&mut self, factor: f64) -> f64 {
        let mut round_ms = 0.0;
        for (model, raw_ms) in self.open.drain(..) {
            self.raw[model].push(raw_ms);
            self.scaled[model].push(raw_ms * factor);
            round_ms += raw_ms;
        }
        round_ms
    }

    /// Geomean over the models of each model's median: `(scaled, raw)`.
    pub fn p50(&self) -> (f64, f64) {
        let p50 = |per_model: &[Vec<f64>]| {
            let medians: Vec<f64> = per_model.iter().map(|s| median(s)).collect();
            geomean(&medians)
        };
        (p50(&self.scaled), p50(&self.raw))
    }

    pub fn scaled(&self) -> &[Vec<f64>] {
        &self.scaled
    }

    pub fn raw(&self) -> &[Vec<f64>] {
        &self.raw
    }

    /// Every scaled sample over its own model's median.
    pub fn tail_ratios(&self, into: &mut Vec<f64>) {
        for samples in &self.scaled {
            let p50 = median(samples);
            into.extend(samples.iter().map(|v| v / p50));
        }
    }
}

/// Operations per second when a round of `ops_per_round` takes the
/// median of `rounds_ms` (scaled): a median like the latencies, because
/// one stalled round would move a mean.
pub fn per_second(ops_per_round: usize, rounds_ms: &[f64]) -> f64 {
    ops_per_round as f64 / (median(rounds_ms) / 1e3)
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::CompileCatalog,
        Workload::ColdStart,
        Workload::InferGemm,
        Workload::InferDw,
        Workload::ServeOpen,
        Workload::ServeSaturated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCatalog => "compile_catalog",
            Workload::ColdStart => "cold_start",
            Workload::InferGemm => "infer_gemm",
            Workload::InferDw => "infer_dw",
            Workload::ServeOpen => "serve_open",
            Workload::ServeSaturated => "serve_saturated",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The models the workload visits, round-robin inside a round.
    pub fn models(self) -> &'static [ModelId] {
        match self {
            Workload::CompileCatalog => &ModelId::ALL,
            Workload::ColdStart => &[ModelId::MobileNetV3, ModelId::ResNet50, ModelId::TinyBert],
            Workload::InferGemm => &[ModelId::ResNet50, ModelId::TinyBert],
            Workload::InferDw => &[ModelId::MobileNetV3, ModelId::EfficientNetB0],
            // Three requests in four go to the first model.
            Workload::ServeOpen | Workload::ServeSaturated => {
                &[ModelId::TinyBert, ModelId::MobileNetV3]
            }
        }
    }

    /// Distinct inputs per model. Each costs one `execute_reference` in
    /// set-up (64 ms to 720 ms on the recording host), so only the
    /// gateway workloads, whose requests differ, take more than one.
    pub fn inputs_per_model(self) -> usize {
        match self {
            Workload::ServeOpen | Workload::ServeSaturated => 2,
            _ => 1,
        }
    }

    pub fn builds_plans(self) -> bool {
        self != Workload::CompileCatalog
    }

    /// Everything before the first timed operation. `cold_start` also
    /// stages the files and the artifact cache its children read.
    pub fn prepare(self, work_dir: &Path, rng: &mut Rng, probes: &mut Probes) -> Prepared {
        let mut prep = crate::setup::prepare(
            self.models(),
            self.inputs_per_model(),
            self.builds_plans(),
            rng,
            probes,
        );
        if self == Workload::ColdStart && prep.tally.failed == 0 {
            cold::stage(&mut prep, work_dir, probes);
        }
        prep
    }

    /// Runs the timed part for `seconds`. `work_dir` is where
    /// `cold_start` keeps its files; `rng` is seeded from `--seed`.
    pub fn run(
        self,
        prep: &Prepared,
        seconds: f64,
        work_dir: &Path,
        rng: &mut Rng,
        probes: &mut Probes,
    ) -> RunResult {
        match self {
            Workload::CompileCatalog => compile::run(prep, seconds, probes),
            Workload::ColdStart => cold::run(prep, seconds, work_dir, probes),
            Workload::InferGemm | Workload::InferDw => infer::run(prep, seconds, probes),
            Workload::ServeOpen => serve::run_open(prep, seconds, rng, probes),
            Workload::ServeSaturated => serve::run_saturated(prep, seconds, rng, probes),
        }
    }
}
