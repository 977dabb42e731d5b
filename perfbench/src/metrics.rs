//! The metric tables — the single list of names the binary prints and
//! `BENCHMARK.json` declares — and the sample store behind the
//! per-layer ones.

use crate::calib::Calibrator;
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// A gated metric: `bound` is the share of the baseline by which it may
/// worsen before a change counts as a regression.
pub struct EndToEnd {
    pub def: MetricDef,
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Every workload reports every one of these; README.md says what each
/// means on each workload. The wall-clock ones carry the widest bound
/// the driver allows: see README.md, "Host noise".
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        def: m("setup_s", "s", "lower"),
        bound: 0.25,
    },
    EndToEnd {
        def: m("primary_p50_ms", "ms", "lower"),
        bound: 0.25,
    },
    EndToEnd {
        def: m("secondary_p50_ms", "ms", "lower"),
        bound: 0.25,
    },
    EndToEnd {
        def: m("throughput_per_s", "1/s", "higher"),
        bound: 0.25,
    },
    EndToEnd {
        def: m("good_share", "share", "higher"),
        bound: 0.05,
    },
    EndToEnd {
        def: m("dsp_cycles", "cycles", "lower"),
        bound: 0.001,
    },
];

/// Per-layer metrics of the traced run, `<module>.<metric>`. A workload
/// that does not exercise a layer reports 0 for it. Times named "per
/// pass" are summed over the workload's models for one visit to each.
/// Like the end-to-end times they are scaled to the host's reference
/// speed (`calib.rs`); only `raw.*` and `host.calibration_ms` are not.
pub const PER_LAYER: [MetricDef; 85] = [
    // Compile layers: per pass, fresh compiler.
    m("cgraph.parse_ms", "ms", "lower"),
    m("cgraph.rewrite_ms", "ms", "lower"),
    m("cgraph.text_bytes", "B", "lower"),
    m("cgraph.nodes_after_rewrite", "count", "lower"),
    m("globalopt.enumerate_ms", "ms", "lower"),
    m("globalopt.select_ms", "ms", "lower"),
    m("globalopt.plans_enumerated", "count", "lower"),
    m("globalopt.assignment_cost", "cycles", "lower"),
    m("globalopt.degrade_events", "count", "lower"),
    m("globalopt.gain_vs_local", "ratio", "higher"),
    m("kernels.cost_cache_hit_rate_cold", "share", "higher"),
    m("kernels.cost_cache_hit_rate_warm", "share", "higher"),
    m("kernels.cost_cache_misses", "count", "lower"),
    m("codegen.lower_ms", "ms", "lower"),
    m("codegen.insns", "count", "lower"),
    m("codegen.packets", "count", "lower"),
    m("vliw.pack_cpu_ms", "ms", "lower"),
    m("vliw.pack_memo_hit_rate", "share", "higher"),
    m("vliw.slot_utilization", "share", "higher"),
    m("verify.verify_ms", "ms", "lower"),
    m("verify.findings", "count", "lower"),
    m("hvx.cycles", "cycles", "lower"),
    m("hvx.bytes_per_cycle", "B/cycle", "higher"),
    m("hvx.power_w", "W", "lower"),
    m("compile.total_ms", "ms", "lower"),
    m("compile.unaccounted_ms", "ms", "lower"),
    m("par.compile_threads", "count", "higher"),
    m("par.intra_op_threads", "count", "higher"),
    // Plan build and artifact layers: per pass.
    m("infer.plan_build_ms", "ms", "lower"),
    m("infer.integrity_ms", "ms", "lower"),
    m("infer.first_exec_ms", "ms", "lower"),
    m("infer.weight_bytes", "B", "lower"),
    m("infer.activation_bytes", "B", "lower"),
    m("infer.slots", "count", "lower"),
    m("analyze.analyze_ms", "ms", "lower"),
    m("analyze.gemms_16bit_safe", "count", "higher"),
    m("artifact.encode_ms", "ms", "lower"),
    m("artifact.decode_ms", "ms", "lower"),
    m("artifact.cache_load_ms", "ms", "lower"),
    m("artifact.bytes", "B", "lower"),
    m("artifact.fallbacks", "count", "lower"),
    m("cold.unaccounted_ms", "ms", "lower"),
    // Warm execution: per pass, except the percentiles.
    m("infer.exec_p50_ms", "ms", "lower"),
    m("infer.exec_p90_ms", "ms", "lower"),
    m("infer.prep_ms", "ms", "lower"),
    m("infer.gemm_ms", "ms", "lower"),
    m("infer.elementwise_ms", "ms", "lower"),
    m("infer.unaccounted_ms", "ms", "lower"),
    m("kernels.isa", "tier", "higher"),
    m("kernels.gemm_macs", "count", "lower"),
    m("kernels.gemm_gmacs_per_s", "GMAC/s", "higher"),
    m("kernels.gemms", "count", "lower"),
    m("kernels.tuned_gemms", "count", "higher"),
    m("kernels.gemm_top3_ms", "ms", "lower"),
    m("kernels.computed_bytes", "B", "lower"),
    // Gateway.
    m("serve.queue_wait_p50_ms", "ms", "lower"),
    m("serve.assembly_p50_ms", "ms", "lower"),
    m("serve.exec_p50_ms", "ms", "lower"),
    m("serve.batches", "count", "lower"),
    m("serve.mean_batch", "count", "higher"),
    m("serve.max_batch", "count", "higher"),
    m("serve.accepted", "count", "higher"),
    m("serve.shed", "count", "lower"),
    m("serve.rejected", "count", "lower"),
    m("serve.retries", "count", "lower"),
    m("serve.hung", "count", "lower"),
    m("serve.lo_p50_ms", "ms", "lower"),
    m("serve.hi_heavy_p50_ms", "ms", "lower"),
    m("serve.p90_ms", "ms", "lower"),
    m("serve.p95_ms", "ms", "lower"),
    m("serve.generator_lag_max_ms", "ms", "lower"),
    m("serve.gateway_overhead_ms", "ms", "lower"),
    m("serve.batch_gain", "ratio", "higher"),
    m("serve.vs_bare_execute", "ratio", "higher"),
    // The run itself.
    m("tail.percentile", "share", "higher"),
    m("tail.over_p50", "ratio", "lower"),
    m("tail.samples", "count", "higher"),
    m("raw.setup_s", "s", "lower"),
    m("raw.primary_p50_ms", "ms", "lower"),
    m("raw.secondary_p50_ms", "ms", "lower"),
    m("host.calibration_ms", "ms", "lower"),
    m("host.cores", "count", "higher"),
    m("host.steal_share", "share", "lower"),
    m("process.peak_rss_mb", "MB", "lower"),
    m("trace_overhead", "ratio", "lower"),
];

/// Samples of the per-layer metrics; each is reported as the median of
/// what was added under its name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    /// # Panics
    /// On a name that is not in [`PER_LAYER`]: a typo would otherwise
    /// vanish from the output without a trace.
    pub fn add(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.entry(name).or_default().push(value);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// What a workload measures with: the calibration kernel, the tracer
/// and the per-layer sample store.
pub struct Probes {
    pub cal: Calibrator,
    pub tr: Tracer,
    pub layers: Layers,
}

impl Probes {
    pub fn new(traced: bool) -> Probes {
        Probes {
            cal: Calibrator::new(),
            tr: Tracer::new(traced),
            layers: Layers::default(),
        }
    }
}

/// One reported number.
pub struct Reading {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A JSON number with all the digits measured; a value that is not a
/// number reads as 0, which no metric here can legitimately be.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn readings_json(readings: &[Reading]) -> String {
    let fields: Vec<String> = readings
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.name,
                json_num(r.value),
                r.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}
