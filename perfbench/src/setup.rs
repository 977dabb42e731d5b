//! Set-up shared by every workload: graph text, a checked compile, the
//! plan, and the oracle outputs — everything that must exist before the
//! first timed operation. Its time is the `setup_s` metric, so work a
//! later change moves from the timed path into plan build shows here.

use crate::metrics::{Layers, Probes};
use crate::stats::{geomean, Rng};
use crate::trace::Tracer;
use gcd2::{
    execute_reference, CompileReport, CompiledModel, Compiler, InferencePlan, Selection, Verdict,
};
use gcd2_models::ModelId;
use std::time::{Duration, Instant};

/// The seed the models' weights are materialised from. It is part of
/// the model, not of the traffic: `--seed` varies the inputs and the
/// arrival schedule, never the weights.
pub const WEIGHT_SEED: u64 = 0xC0DE;

pub struct Model {
    pub name: String,
    pub text: String,
    pub compiled: CompiledModel,
    /// Absent on the workload that only compiles.
    pub plan: Option<InferencePlan>,
    pub inputs: Vec<Vec<u8>>,
    /// `execute_reference` of each input: the independent interpreter,
    /// never the plan under test.
    pub expected: Vec<Vec<u8>>,
}

impl Model {
    pub fn plan(&self) -> &InferencePlan {
        self.plan.as_ref().expect("this workload builds plans")
    }
}

/// Operations attempted, failed, and answered correctly within the
/// workload's latency limit (every correct one, where there is none).
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub good: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if ok {
            self.good += 1;
        } else {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.good += other.good;
    }
}

pub struct Prepared {
    pub models: Vec<Model>,
    pub tally: Tally,
    /// Time set-up took, scaled to the reference speed, and raw.
    pub setup_s: f64,
    pub raw_setup_s: f64,
}

impl Prepared {
    /// Geomean of the simulated DSP cycles of the workload's models:
    /// the paper's own result, which repeats exactly.
    pub fn dsp_cycles(&self) -> f64 {
        let cycles: Vec<f64> = self
            .models
            .iter()
            .map(|m| m.compiled.cycles() as f64)
            .collect();
        geomean(&cycles)
    }
}

pub fn model_name(id: ModelId) -> String {
    id.reference().name.to_lowercase()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The stages a `CompileReport` splits a compile into, as child spans.
pub fn compile_stages(report: &CompileReport) -> [(&'static str, Duration); 4] {
    [
        ("cgraph.rewrite", report.rewrite),
        ("globalopt.enumerate", report.enumerate),
        ("globalopt.select", report.select),
        ("codegen.lower", report.lower),
    ]
}

/// Per-pass sums of the compile stages, added to `layers` once a pass
/// over the workload's models is complete.
#[derive(Default)]
pub struct CompilePass {
    total: f64,
    rewrite: f64,
    enumerate: f64,
    select: f64,
    lower: f64,
    pack_cpu: f64,
    hits: u64,
    misses: u64,
    memo_hits: u64,
    memo_misses: u64,
}

impl CompilePass {
    pub fn add(&mut self, wall: Duration, report: &CompileReport) {
        self.total += ms(wall);
        self.rewrite += ms(report.rewrite);
        self.enumerate += ms(report.enumerate);
        self.select += ms(report.select);
        self.lower += ms(report.lower);
        self.pack_cpu += ms(report.pack_cpu);
        self.hits += report.cost_cache.hits;
        self.misses += report.cost_cache.misses;
        self.memo_hits += report.pack_memo.hits;
        self.memo_misses += report.pack_memo.misses;
    }

    pub fn hit_rate(&self) -> f64 {
        share(self.hits, self.hits + self.misses)
    }

    /// Records the pass as one sample of each cold-compile layer
    /// metric, its times scaled by the calibration `factor`.
    pub fn record_cold(&self, factor: f64, layers: &mut Layers) {
        layers.add("compile.total_ms", self.total * factor);
        layers.add("cgraph.rewrite_ms", self.rewrite * factor);
        layers.add("globalopt.enumerate_ms", self.enumerate * factor);
        layers.add("globalopt.select_ms", self.select * factor);
        layers.add("codegen.lower_ms", self.lower * factor);
        layers.add("vliw.pack_cpu_ms", self.pack_cpu * factor);
        layers.add("kernels.cost_cache_hit_rate_cold", self.hit_rate());
        layers.add("kernels.cost_cache_misses", self.misses as f64);
        layers.add(
            "vliw.pack_memo_hit_rate",
            share(self.memo_hits, self.memo_hits + self.memo_misses),
        );
    }
}

pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Builds everything the workload needs for `ids`. With the tracer on,
/// every call into a layer gets a span and the layers' own counters are
/// recorded; a few exact counters cost an extra selection and a
/// local-optimal compile per model, so they are taken in traced runs only.
pub fn prepare(
    ids: &[ModelId],
    inputs_per_model: usize,
    with_plan: bool,
    rng: &mut Rng,
    probes: &mut Probes,
) -> Prepared {
    let Probes { cal, tr, layers } = probes;
    let calibrated = cal.mark();
    cal.sample_ms();
    let mut calibrating = Duration::ZERO;
    let started = Instant::now();
    let since = tr.mark();
    let mut tally = Tally::default();
    let mut models = Vec::with_capacity(ids.len());
    let mut pass = CompilePass::default();
    // Per-pass sums of the counts the calls below return, by layer metric.
    let mut sums: Vec<(&'static str, f64)> = Vec::new();
    let mut sum = |name: &'static str, v: f64| match sums.iter_mut().find(|(n, _)| *n == name) {
        Some((_, s)) => *s += v,
        None => sums.push((name, v)),
    };
    let mut gains = Vec::new();

    for (op, &id) in ids.iter().enumerate() {
        let op = op as u64;
        let name = model_name(id);
        let text = gcd2_cgraph::to_text(&id.build());

        if tr.on() {
            let s = tr.begin("cgraph.from_text", op);
            let parsed = gcd2_cgraph::from_text(&text);
            tr.end(s);
            tally.check(parsed.is_ok(), || {
                format!("{name}: graph text does not parse")
            });
        }

        let compiler = Compiler::new();
        let t0 = Instant::now();
        let s = tr.begin("core.try_compile_text", op);
        let result = compiler.try_compile_text(&text);
        tr.end(s);
        let wall = t0.elapsed();
        let (compiled, report) = match result {
            Ok(ok) => ok,
            Err(e) => {
                tally.check(false, || format!("{name}: compile failed: {e}"));
                continue;
            }
        };
        tr.stages(s, &compile_stages(&report));
        pass.add(wall, &report);
        sum("globalopt.degrade_events", report.degrade.len() as f64);

        let s = tr.begin("verify.verify", op);
        let findings = compiled.verify();
        tr.end(s);
        sum("verify.findings", findings.diagnostics().len() as f64);
        // Warnings are findings to count, errors are failures.
        tally.check(findings.error_count() == 0, || {
            format!(
                "{name}: verifier reported {} error(s)",
                findings.error_count()
            )
        });

        if tr.on() {
            let (_, plans, _) = compiler.select(&id.build());
            let enumerated: usize = compiled
                .graph
                .nodes()
                .iter()
                .map(|n| plans.of(n.id).len())
                .sum();
            sum("globalopt.plans_enumerated", enumerated as f64);
            let local = Compiler::new()
                .with_selection(Selection::LocalOptimal)
                .try_compile_text(&text);
            if let Ok((local, _)) = local {
                gains.push(local.cycles() as f64 / compiled.cycles() as f64);
            }
        }

        let mut model = Model {
            name,
            text,
            compiled,
            plan: None,
            inputs: Vec::new(),
            expected: Vec::new(),
        };
        if with_plan {
            build_plan(
                &mut model,
                inputs_per_model,
                op,
                rng,
                tr,
                &mut tally,
                &mut sum,
            );
        }
        models.push(model);
        // The kernel runs between the models too: set-up is long enough
        // for the host to change state inside it.
        let t0 = Instant::now();
        cal.sample_ms();
        calibrating += t0.elapsed();
    }

    let elapsed_s = (started.elapsed() - calibrating).as_secs_f64();
    let f = cal.factor_since(calibrated);
    if tr.on() {
        pass.record_cold(f, layers);
        let residual = tr.unaccounted_ms("core.try_compile_text", since);
        layers.add("compile.unaccounted_ms", residual.iter().sum::<f64>() * f);
        // The time each layer's calls took this pass, from their spans.
        for (metric, span) in [
            ("cgraph.parse_ms", "cgraph.from_text"),
            ("verify.verify_ms", "verify.verify"),
            ("infer.plan_build_ms", "infer.try_inference_plan"),
            ("infer.integrity_ms", "infer.verify_integrity"),
            ("analyze.analyze_ms", "analyze.analyze_plan"),
            ("infer.first_exec_ms", "infer.first_execute"),
        ] {
            layers.add(metric, tr.total_ms(span, since) * f);
        }
        for (name, v) in sums {
            layers.add(name, v);
        }
        // Exact properties of what was built, summed over the models or,
        // for rates, as their geomean.
        let total = |of: &dyn Fn(&Model) -> f64| models.iter().map(of).sum::<f64>();
        let mean = |of: &dyn Fn(&Model) -> f64| geomean(&models.iter().map(of).collect::<Vec<_>>());
        layers.add("cgraph.text_bytes", total(&|m| m.text.len() as f64));
        layers.add(
            "cgraph.nodes_after_rewrite",
            total(&|m| m.compiled.graph.len() as f64),
        );
        layers.add(
            "globalopt.assignment_cost",
            total(&|m| m.compiled.assignment.cost as f64),
        );
        layers.add("codegen.insns", total(&|m| m.compiled.stats().insns as f64));
        layers.add(
            "codegen.packets",
            total(&|m| m.compiled.stats().packets as f64),
        );
        layers.add("globalopt.gain_vs_local", geomean(&gains));
        layers.add("vliw.slot_utilization", mean(&|m| m.compiled.utilization()));
        layers.add("hvx.cycles", mean(&|m| m.compiled.cycles() as f64));
        layers.add(
            "hvx.bytes_per_cycle",
            mean(&|m| m.compiled.bytes_per_cycle()),
        );
        layers.add("hvx.power_w", mean(&|m| m.compiled.power_w()));
        if with_plan {
            layers.add(
                "infer.weight_bytes",
                total(&|m| m.plan().weight_bytes() as f64),
            );
            layers.add(
                "infer.activation_bytes",
                total(&|m| m.plan().activation_bytes() as f64),
            );
            layers.add("infer.slots", total(&|m| m.plan().slot_count() as f64));
        }
        layers.add("par.compile_threads", Compiler::new().threads() as f64);
        layers.add("par.intra_op_threads", gcd2_par::default_threads() as f64);
    }
    Prepared {
        models,
        tally,
        setup_s: elapsed_s * f,
        raw_setup_s: elapsed_s,
    }
}

/// Plan build, its checks, the oracle outputs and the first execution.
fn build_plan(
    model: &mut Model,
    inputs_per_model: usize,
    op: u64,
    rng: &mut Rng,
    tr: &mut Tracer,
    tally: &mut Tally,
    sum: &mut impl FnMut(&'static str, f64),
) {
    let name = &model.name;
    let s = tr.begin("infer.try_inference_plan", op);
    let plan = model.compiled.try_inference_plan(WEIGHT_SEED);
    tr.end(s);
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            tally.check(false, || format!("{name}: plan build failed: {e}"));
            return;
        }
    };

    let s = tr.begin("infer.verify_integrity", op);
    let intact = plan.verify_integrity();
    tr.end(s);
    tally.check(intact.is_ok(), || {
        format!("{name}: plan integrity check failed")
    });

    let s = tr.begin("analyze.analyze_plan", op);
    let analysis = model.compiled.analyze_plan(&plan);
    tr.end(s);
    let safe = analysis
        .ranges
        .gemms()
        .iter()
        .filter(|g| g.safe_acc_bits <= 16);
    sum("analyze.gemms_16bit_safe", safe.count() as f64);
    tally.check(analysis.verdict() == Verdict::Clean, || {
        format!(
            "{name}: analyzer found the plan unsound: {:?}",
            analysis.diagnostics
        )
    });

    model.inputs = (0..inputs_per_model)
        .map(|_| rng.activations(plan.input_len()))
        .collect();
    let s = tr.begin("oracle.execute_reference", op);
    model.expected = model
        .inputs
        .iter()
        .map(|input| execute_reference(&model.compiled, input, WEIGHT_SEED))
        .collect();
    tr.end(s);

    let s = tr.begin("infer.first_execute", op);
    let first = plan.try_execute(&model.inputs[0]);
    tr.end(s);
    tally.check(
        matches!(&first, Ok(out) if *out == model.expected[0]),
        || format!("{name}: first answer differs from execute_reference"),
    );
    model.plan = Some(plan);
}
