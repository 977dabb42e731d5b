//! Inference-throughput benchmark for the compiled runtime layer.
//!
//! For every catalog model, measures host inference wall-clock in four
//! configurations:
//!
//! * `interp_ms` — the node-by-node interpreter with the cache-blocked
//!   host GEMM (`gcd2::execute_reference`), single-shot. This is the
//!   baseline the headline speedup is computed against: it isolates
//!   what the plan's schedule, slot arena, and staged weights add
//!   beyond the fast GEMM alone;
//! * `plan_ms` — one inference through the precompiled
//!   [`gcd2::InferencePlan`] with a reused arena, on the auto-detected
//!   GEMM kernel tier (the `isa` field records which);
//! * `plan_scalar_ms` — the same plan with the GEMM dispatcher pinned to
//!   the scalar oracle ([`gcd2_kernels::force_isa`]), so the JSON keeps
//!   a per-ISA scalar-vs-SIMD pair and `simd_speedup` their ratio;
//! * `batch_ms[n]` — a whole input batch fanned across `n` worker
//!   threads via `InferencePlan::try_execute_batch`.
//!
//! `gemm_gflops` is the effective GEMM arithmetic rate of the best
//! single-shot plan run (2 ops per MAC).
//!
//! Every path must produce bit-identical outputs (the plan against the
//! interpreter per input, and every thread count against one thread);
//! the `bit_identical` field records the check and the process exits
//! non-zero if it ever fails. Results go to `BENCH_infer.json` and a
//! human-readable table on stdout. `--smoke` runs one small model (for
//! CI).
//!
//! The two super-heavy models (>20 GMACs per inference) run a reduced
//! batch and thread sweep so the full-catalog run stays tractable; the
//! `batch` field records what was actually run.

use gcd2::{execute_reference, Compiler, ExecOptions};
use gcd2_kernels::{detected_isa, force_isa, KernelIsa};
use gcd2_models::ModelId;
use std::time::Instant;

const SEED: u64 = 0xC0DE;
const BATCH: usize = 8;
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
/// Models above this many GEMM MACs per inference get the reduced sweep.
const HEAVY_MACS: u64 = 20_000_000_000;
const HEAVY_BATCH: usize = 2;
const HEAVY_THREAD_COUNTS: [usize; 2] = [1, 4];

struct ModelResult {
    name: String,
    ops: usize,
    gemm_macs: u64,
    batch: usize,
    bit_identical: bool,
    plan_build_ms: f64,
    interp_ms: f64,
    /// The GEMM kernel tier the auto-detected runs dispatched to.
    isa: &'static str,
    plan_ms: f64,
    /// Single-shot plan latency with the dispatcher pinned to the scalar
    /// oracle — the per-ISA counterpart of `plan_ms`.
    plan_scalar_ms: f64,
    /// `plan_scalar_ms / plan_ms`: what the SIMD tier buys end to end.
    simd_speedup: f64,
    /// Effective GEMM arithmetic rate of the best auto-detected
    /// single-shot run, at 2 ops per MAC.
    gemm_gflops: f64,
    batch_ms: Vec<(usize, f64)>,
    /// Batch throughput at the widest sweep point vs the interpreter
    /// running the same inputs one at a time.
    speedup_vs_interp: f64,
    infer_per_s: f64,
}

fn deterministic_input(len: usize, variant: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 7 + 13 * (variant + 1)) % 16) as u8)
        .collect()
}

fn bench_model(id: ModelId, iters: usize) -> ModelResult {
    let graph = id.build();
    let name = id.reference().name.to_lowercase();
    let compiled = Compiler::new().compile(&graph);

    let t0 = Instant::now();
    let plan = compiled.inference_plan(SEED);
    let plan_build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let heavy = plan.gemm_macs() > HEAVY_MACS;
    let batch = if heavy { HEAVY_BATCH } else { BATCH };
    let threads: &[usize] = if heavy {
        &HEAVY_THREAD_COUNTS
    } else {
        &THREAD_COUNTS
    };
    let iters = if heavy { 1 } else { iters };
    let inputs: Vec<Vec<u8>> = (0..batch)
        .map(|b| deterministic_input(plan.input_len(), b))
        .collect();

    // Interpreter baseline + the bit-identity reference outputs.
    let mut interp_ms = f64::INFINITY;
    let mut references: Vec<Vec<u8>> = Vec::new();
    for input in &inputs {
        let t0 = Instant::now();
        references.push(execute_reference(&compiled, input, SEED));
        interp_ms = interp_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Single-inference plan latency (best of `iters`) with a reused
    // arena. A failed execution fails the bit-identity gate like a
    // wrong byte does.
    let opts = ExecOptions::default();
    let mut bit_identical = true;
    let mut arena = plan.new_arena();
    let mut best_single_shot = || {
        let mut out = Vec::new();
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Instant::now();
            let ran = plan.try_execute_into(&inputs[0], &mut arena, &mut out, &opts);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            bit_identical &= ran.is_ok();
        }
        bit_identical &= out == references[0];
        best
    };
    // On the auto-detected kernel tier, then with the dispatcher pinned
    // to the scalar oracle: the per-ISA pair for the JSON, and one more
    // bit-identity check (every tier must produce the same bytes).
    let plan_ms = best_single_shot();
    force_isa(Some(KernelIsa::Scalar));
    let plan_scalar_ms = best_single_shot();
    force_isa(None);

    // Batched execution across the thread sweep; every count must match
    // the interpreter references exactly.
    let mut batch_ms = Vec::new();
    for &n in threads {
        let t0 = Instant::now();
        let outs = plan.try_execute_batch(&inputs, n, &opts);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        bit_identical &= outs
            .iter()
            .map(|r| r.as_ref().ok())
            .eq(references.iter().map(Some));
        batch_ms.push((n, ms));
    }

    let widest = batch_ms.last().map(|&(_, ms)| ms).unwrap_or(f64::NAN);
    ModelResult {
        name,
        ops: graph.op_count(),
        gemm_macs: plan.gemm_macs(),
        batch,
        bit_identical,
        plan_build_ms,
        interp_ms,
        isa: detected_isa().name(),
        plan_ms,
        plan_scalar_ms,
        simd_speedup: plan_scalar_ms / plan_ms,
        gemm_gflops: plan.gemm_macs() as f64 * 2.0 / (plan_ms / 1e3) / 1e9,
        batch_ms,
        speedup_vs_interp: interp_ms * batch as f64 / widest,
        infer_per_s: batch as f64 / (widest / 1e3),
    }
}

fn model_json(r: &ModelResult) -> String {
    let batches: Vec<String> = r
        .batch_ms
        .iter()
        .map(|(n, ms)| format!("\"{n}\": {ms:.3}"))
        .collect();
    format!(
        "    {{\n      \"model\": \"{}\",\n      \"ops\": {},\n      \"gemm_macs\": {},\n      \
         \"batch\": {},\n      \"bit_identical\": {},\n      \"plan_build_ms\": {:.3},\n      \
         \"interp_ms\": {:.3},\n      \"isa\": \"{}\",\n      \
         \"plan_ms\": {:.3},\n      \"plan_scalar_ms\": {:.3},\n      \
         \"simd_speedup\": {:.3},\n      \"gemm_gflops\": {:.3},\n      \
         \"batch_ms\": {{{}}},\n      \
         \"speedup_vs_interp\": {:.3},\n      \"infer_per_s\": {:.3}\n    }}",
        r.name,
        r.ops,
        r.gemm_macs,
        r.batch,
        r.bit_identical,
        r.plan_build_ms,
        r.interp_ms,
        r.isa,
        r.plan_ms,
        r.plan_scalar_ms,
        r.simd_speedup,
        r.gemm_gflops,
        batches.join(", "),
        r.speedup_vs_interp,
        r.infer_per_s,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--quick");
    // Positional args select models by catalog name (diagnostic runs);
    // such filtered runs still overwrite BENCH_infer.json, so regenerate
    // with a full run before committing the artifact.
    let named: Vec<ModelId> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| {
            ModelId::ALL
                .into_iter()
                .find(|id| id.reference().name.eq_ignore_ascii_case(a))
                .unwrap_or_else(|| {
                    eprintln!("unknown model: {a}");
                    std::process::exit(2);
                })
        })
        .collect();
    let (models, iters): (Vec<ModelId>, usize) = if smoke {
        (vec![ModelId::MobileNetV3], 1)
    } else if !named.is_empty() {
        (named, 3)
    } else {
        (ModelId::ALL.to_vec(), 3)
    };

    println!("# Inference throughput: compiled plan + batched execution vs interpreter\n");
    println!("kernel isa: {}\n", detected_isa().name());
    println!(
        "{:<18} {:>5} {:>8} {:>10} {:>10} {:>10} {:>8} {:>10} {:>8} {:>9} {:>6}",
        "model",
        "ops",
        "GMACs",
        "interp ms",
        "scalar ms",
        "plan ms",
        "simd x",
        "GFLOP/s",
        "inf/s",
        "speedup",
        "ident"
    );

    let mut results = Vec::new();
    for id in models {
        let r = bench_model(id, iters);
        println!(
            "{:<18} {:>5} {:>8.2} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x {:>10.2} {:>8.1} {:>8.2}x {:>6}",
            r.name,
            r.ops,
            r.gemm_macs as f64 / 1e9,
            r.interp_ms,
            r.plan_scalar_ms,
            r.plan_ms,
            r.simd_speedup,
            r.gemm_gflops,
            r.infer_per_s,
            r.speedup_vs_interp,
            if r.bit_identical { "yes" } else { "NO" },
        );
        results.push(r);
    }

    let rows: Vec<String> = results.iter().map(model_json).collect();
    let json = format!(
        "{{\n  \"benchmark\": \"infer_throughput\",\n  \"baseline\": \"node-by-node interpreter \
         with the blocked host GEMM (execute_reference), single-shot\",\n  \
         \"seed\": {SEED},\n  \"iterations\": {iters},\n  \"models\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_infer.json", &json).expect("write BENCH_infer.json");
    println!("\nwrote BENCH_infer.json");

    if results.iter().any(|r| !r.bit_identical) {
        eprintln!("ERROR: some execution path diverged from the interpreter reference");
        std::process::exit(1);
    }
}
