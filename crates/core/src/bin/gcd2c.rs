//! `gcd2c` — the command-line compiler driver.
//!
//! Compile one of the evaluation models for the simulated mobile DSP and
//! report what the compiler did:
//!
//! ```sh
//! gcd2c resnet-50
//! gcd2c wdsr-b --selection local --packing soft-to-hard
//! gcd2c tinybert --ops            # per-operator plan table
//! gcd2c efficientnet-b0 --compare # all selection strategies side by side
//! gcd2c resnet-50 --export rn50.gcg # save the graph as text
//! gcd2c ./rn50.gcg                  # compile a graph from a text file
//! gcd2c tinybert --analyze          # static plan analysis, per-GEMM ranges
//! gcd2c --analyze                   # analyze every catalog model
//! gcd2c wdsr-b --emit wdsr.gcd2art  # compile AOT, save the plan artifact
//! gcd2c --load wdsr.gcd2art         # load + verify + smoke the artifact
//! gcd2c wdsr-b --cache-dir ~/.cache/gcd2 # warm-startable compile
//! gcd2c --list
//! ```

use gcd2::{Compiler, Packing, Selection};
use gcd2_models::ModelId;
use std::process::ExitCode;

const USAGE: &str = "usage: gcd2c <model> [options]\n\
         \n\
         options:\n\
           --selection pbqp|gcd2|gcd2-17|local|global|uniform-vmpy|uniform-vmpa|uniform-vrmpy\n\
                       (default pbqp; gcd2 is the paper's GCD2(13))\n\
           --packing   sda|soft-to-hard|soft-to-none|sequential\n\
           --no-lut    disable the division/nonlinearity lookup replacement\n\
           --fusion    enable the elementwise-fusion extension\n\
           --threads N --serve workers (default: the machine's\n\
                       available parallelism); one inference and\n\
                       compilation always run on the calling thread\n\
           --timing    print per-stage compile wall-clock and cache stats,\n\
                       and the plan-build stages of a plan --emit or\n\
                       --infer builds\n\
           --infer N   build the inference plan and run it N times,\n\
                       reporting per-stage/per-op timings and verifying\n\
                       bit-identity against the interpreter\n\
           --serve N   smoke the dynamic-batching serving gateway with\n\
                       N requests, verifying bit-identity and reporting\n\
                       throughput, batching, latency percentiles, and\n\
                       backpressure rejections\n\
           --max-batch B     gateway: most queued requests an idle\n\
                             worker takes as one batch (default 8;\n\
                             1 disables batching)\n\
           --serve-models M1,M2  register extra catalog models and\n\
                             spread the --serve traffic round-robin\n\
                             across all of them\n\
           --analyze   run the static plan analyzer (gcd2-analyze):\n\
                       prove per-GEMM accumulator bounds and arena\n\
                       soundness, print the proven ranges, exit 1 on\n\
                       any finding; as the only argument, analyze the\n\
                       whole model catalog\n\
           --ops       print the per-operator plan table\n\
           --profile   print the hottest operators by cycle share\n\
           --asm N     dump the first N scheduled blocks as assembly\n\
           --export F  write the model graph as text to file F\n\
           --emit F    compile ahead of time and write the versioned,\n\
                       checksummed plan artifact to file F\n\
           --load F    (as the only mode argument) load a plan artifact,\n\
                       re-verify every checksum plus arena soundness,\n\
                       print where the load's time went by stage, and\n\
                       smoke-execute it; exit 1 with a structured\n\
                       error on any corruption, skew, or forgery\n\
           --cache-dir D  content-addressed artifact cache: load the\n\
                       plan from D when a valid artifact exists, else\n\
                       compile and store it crash-safely\n\
           --compare   compile under every selection strategy, cycles\n\
                       against gcd2(13), rn_steps on the pbqp row\n\
           --list      list available models\n\
           --help, -h  print this text";

/// A malformed command line: the usage text on stderr, exit code 2.
fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn parse_model(name: &str) -> Option<ModelId> {
    let norm = name.to_lowercase().replace(['_', ' '], "-");
    ModelId::ALL
        .into_iter()
        .find(|id| id.reference().name.to_lowercase().replace(['_', ' '], "-") == norm)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for id in ModelId::ALL {
            let r = id.reference();
            println!(
                "{:<18} {:>7.2} GMACs  {:>5} ops (paper)",
                r.name.to_lowercase(),
                r.macs / 1e9,
                r.operators
            );
        }
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("--analyze") {
        return analyze_catalog();
    }
    if args.first().map(String::as_str) == Some("--load") {
        let Some(path) = args.get(1) else {
            return usage();
        };
        return load_artifact(path);
    }
    let Some(model_name) = args.first() else {
        return usage();
    };
    // Either a catalog model or a path to a serialized graph.
    let graph_source: Result<gcd2_cgraph::Graph, String> = match parse_model(model_name) {
        Some(model) => Ok(model.build()),
        None => {
            if std::path::Path::new(model_name).exists() {
                std::fs::read_to_string(model_name)
                    .map_err(|e| e.to_string())
                    .and_then(|t| gcd2_cgraph::from_text(&t).map_err(|e| e.to_string()))
            } else {
                Err(format!("unknown model or file '{model_name}' (try --list)"))
            }
        }
    };
    let graph = match graph_source {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut compiler = Compiler::new();
    let mut workers = gcd2_par::default_threads();
    let mut analyze = false;
    let mut show_ops = false;
    let mut show_profile = false;
    let mut compare = false;
    let mut selection = "pbqp".to_string();
    let mut timing = false;
    let mut infer_iters = 0usize;
    let mut serve = 0usize;
    let mut max_batch = 8usize;
    let mut serve_models: Vec<ModelId> = Vec::new();
    let mut asm_blocks = 0usize;
    let mut export: Option<String> = None;
    let mut emit: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--selection" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                let sel = match v.as_str() {
                    "gcd2" => Selection::Gcd2 { max_ops: 13 },
                    "gcd2-17" => Selection::Gcd2 { max_ops: 17 },
                    "local" => Selection::LocalOptimal,
                    "global" => Selection::GlobalExhaustive,
                    "pbqp" => Selection::Pbqp,
                    "uniform-vmpy" => Selection::Uniform(gcd2_kernels::SimdInstr::Vmpy),
                    "uniform-vmpa" => Selection::Uniform(gcd2_kernels::SimdInstr::Vmpa),
                    "uniform-vrmpy" => Selection::Uniform(gcd2_kernels::SimdInstr::Vrmpy),
                    _ => return usage(),
                };
                compiler = compiler.with_selection(sel);
                selection = match sel {
                    Selection::Gcd2 { max_ops } => format!("gcd2({max_ops})"),
                    _ => v.clone(),
                };
            }
            "--packing" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                let pack = match v.as_str() {
                    "sda" => Packing::Sda,
                    "soft-to-hard" => Packing::SoftToHard,
                    "soft-to-none" => Packing::SoftToNone,
                    "sequential" => Packing::Sequential,
                    _ => return usage(),
                };
                compiler = compiler.with_packing(pack);
            }
            "--no-lut" => compiler = compiler.with_lut_ops(false),
            "--fusion" => compiler = compiler.with_elementwise_fusion(true),
            "--threads" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                let Ok(n) = v.parse::<usize>() else {
                    return usage();
                };
                workers = n.max(1);
            }
            "--timing" => timing = true,
            "--infer" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                let Ok(n) = v.parse::<usize>() else {
                    return usage();
                };
                infer_iters = n.max(1);
            }
            "--serve" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                let Ok(n) = v.parse::<usize>() else {
                    return usage();
                };
                serve = n.max(1);
            }
            "--max-batch" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                let Ok(n) = v.parse::<usize>() else {
                    return usage();
                };
                max_batch = n.max(1);
            }
            "--serve-models" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                for name in v.split(',').filter(|s| !s.is_empty()) {
                    let Some(id) = parse_model(name) else {
                        eprintln!("unknown model '{name}' in --serve-models (try --list)");
                        return ExitCode::from(2);
                    };
                    serve_models.push(id);
                }
            }
            "--analyze" => analyze = true,
            "--ops" => show_ops = true,
            "--profile" => show_profile = true,
            "--asm" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                asm_blocks = v.parse().unwrap_or(0);
            }
            "--export" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                export = Some(v.clone());
            }
            "--emit" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                emit = Some(v.clone());
            }
            "--cache-dir" => {
                i += 1;
                let Some(v) = args.get(i) else { return usage() };
                cache_dir = Some(v.clone());
            }
            "--compare" => compare = true,
            _ => return usage(),
        }
        i += 1;
    }

    println!(
        "model {}: {} operators, {:.2} GMACs, {:.2} M params",
        model_name,
        graph.op_count(),
        graph.total_macs() as f64 / 1e9,
        graph.total_params() as f64 / 1e6
    );
    if let Some(path) = export {
        if let Err(e) = std::fs::write(&path, gcd2_cgraph::to_text(&graph)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::from(1);
        }
        println!("exported graph to {path}");
        return ExitCode::SUCCESS;
    }

    if let Some(dir) = &cache_dir {
        const SEED: u64 = 0xC0DE;
        let cache = match gcd2::ArtifactCache::open(dir) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot open artifact cache {dir}: {e}");
                return ExitCode::from(1);
            }
        };
        let text = gcd2_cgraph::to_text(&graph);
        match gcd2::load_or_compile(&compiler, &text, SEED, &cache, model_name) {
            Ok(cold) => {
                println!(
                    "cold start   : {} in {:.2?} (key {})",
                    match cold.source {
                        gcd2::ColdStartSource::ArtifactCache => "loaded from artifact cache",
                        gcd2::ColdStartSource::Compiled => "compiled + stored",
                    },
                    cold.elapsed,
                    cold.key
                );
                for f in &cold.fallbacks {
                    println!("  degraded at {}: {}", f.stage, f.detail);
                }
            }
            Err(e) => {
                eprintln!("cold start failed: {e}");
                return ExitCode::from(1);
            }
        }
    }

    if compare {
        println!(
            "\n{:<14} {:>12} {:>10} {:>12}",
            "selection", "cycles", "ms", "vs gcd2(13)"
        );
        // The first row, gcd2(13), is the base of the ratio column.
        let mut base = None;
        for (name, sel) in [
            ("gcd2(13)", Selection::Gcd2 { max_ops: 13 }),
            ("gcd2(17)", Selection::Gcd2 { max_ops: 17 }),
            ("pbqp", Selection::Pbqp),
            ("local", Selection::LocalOptimal),
            (
                "uniform-vrmpy",
                Selection::Uniform(gcd2_kernels::SimdInstr::Vrmpy),
            ),
        ] {
            let (m, report) = Compiler::new().with_selection(sel).compile_timed(&graph);
            let rn_steps = report
                .rn_steps
                .map_or(String::new(), |n| format!("  rn_steps {n}"));
            println!(
                "{:<14} {:>12} {:>10.3} {:>11.3}x{rn_steps}",
                name,
                m.cycles(),
                m.latency_ms(),
                m.cycles() as f64 / *base.get_or_insert(m.cycles()) as f64
            );
        }
        return ExitCode::SUCCESS;
    }

    // From graph text, as a model arrives from outside: the report's
    // stages then start with parsing it.
    let (compiled, report) = match compiler.try_compile_text(&gcd2_cgraph::to_text(&graph)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("compile failed: {e}");
            return ExitCode::from(1);
        }
    };
    let stats = compiled.stats();
    println!("compiled in {:.2?}", report.total);
    // rn_steps 0: the PBQP reductions took no heuristic step, so the
    // assignment is optimal for Equation 1's objective.
    // A GCD2 compile that hit the state cap names its fall to greedy.
    match (report.rn_steps, report.degrade.first()) {
        (Some(0), _) => println!("  selection    : {selection}, rn_steps 0 (certified optimal)"),
        (Some(n), _) => println!("  selection    : {selection}, rn_steps {n}"),
        (None, Some(event)) => println!("  selection    : {selection}, {event}"),
        (None, None) => println!("  selection    : {selection}"),
    }
    if timing {
        println!("  stage wall-clock:");
        let unaccounted = ("unaccounted", report.unaccounted());
        for (stage, d) in report.stages().into_iter().chain([unaccounted]) {
            println!("    {stage:<11}: {d:>10.2?}");
        }
        println!("  within lower:");
        println!("    pack (misses): {:>10.2?}", report.pack_cpu);
        println!("    verify       : {:>10.2?}", report.verify_cpu);
        println!(
            "  cost cache   : {} hits / {} misses ({:.1} % hit rate)",
            report.cost_cache.hits,
            report.cost_cache.misses,
            100.0 * report.cost_cache.hit_rate()
        );
        println!(
            "  pack memo    : {} hits / {} misses ({:.1} % hit rate), {:.2?} packing on misses",
            report.pack_memo.hits,
            report.pack_memo.misses,
            100.0 * report.pack_memo.hit_rate(),
            report.pack_miss
        );
        for (stage, stats) in [
            ("costing", report.pack_memo_costing),
            ("lowering", report.pack_memo_lowering),
        ] {
            println!(
                "    {stage:<11}: {} hits / {} misses",
                stats.hits, stats.misses
            );
        }
    }
    println!("  cycles       : {}", compiled.cycles());
    println!("  latency      : {:.3} ms", compiled.latency_ms());
    println!("  throughput   : {:.2} TOPS", compiled.tops());
    println!("  packets      : {}", stats.packets);
    println!("  stall cycles : {}", stats.stall_cycles);
    println!("  utilization  : {:.1} %", 100.0 * compiled.utilization());
    println!("  power        : {:.2} W", compiled.power_w());
    println!("  frames/Watt  : {:.1}", compiled.frames_per_watt());
    println!(
        "  transforms   : {:.2} % of cycles",
        100.0 * compiled.lowered.transform_cycles() as f64 / compiled.cycles() as f64
    );

    if let Some(path) = emit {
        const SEED: u64 = 0xC0DE;
        let t0 = std::time::Instant::now();
        let plan = match compiled.try_inference_plan(SEED) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("plan construction failed: {e}");
                return ExitCode::from(1);
            }
        };
        if timing {
            print_stages(
                "plan build",
                plan.build_stages(),
                t0.elapsed(),
                plan.weight_bytes(),
            );
        }
        let bytes = match gcd2::artifact::encode(&compiled, &plan, model_name) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("artifact encode failed: {e}");
                return ExitCode::from(1);
            }
        };
        if let Err(e) = std::fs::write(&path, &bytes) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::from(1);
        }
        println!(
            "emitted {path}: {} bytes, integrity {:#018x}",
            bytes.len(),
            plan.checksum()
        );
        return ExitCode::SUCCESS;
    }

    if analyze {
        const SEED: u64 = 0xC0DE;
        let plan = match compiled.try_inference_plan(SEED) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("plan construction failed: {e}");
                return ExitCode::from(1);
            }
        };
        let analysis = compiled.analyze_plan(&plan);
        println!(
            "\nstatic analysis: {} steps, {} slots — {}",
            plan.steps(),
            plan.slot_count(),
            analysis.verdict()
        );
        println!(
            "{:<26} {:>6} {:>5} {:>22} {:>14} {:>8}",
            "gemm", "k", "shift", "accumulator", "output", "acc-bits"
        );
        for g in analysis.ranges.gemms() {
            println!(
                "{:<26} {:>6} {:>5} {:>22} {:>14} {:>8}",
                truncate(&g.name, 26),
                g.k,
                g.shift,
                g.acc.to_string(),
                g.out.to_string(),
                g.safe_acc_bits
            );
        }
        for d in &analysis.diagnostics {
            println!("  {d}");
        }
        if analysis.verdict() != gcd2::Verdict::Clean {
            return ExitCode::from(1);
        }
    }

    if infer_iters > 0 || serve > 0 {
        const SEED: u64 = 0xC0DE;
        let t0 = std::time::Instant::now();
        let plan = compiled.inference_plan(SEED);
        let build_wall = t0.elapsed();
        println!(
            "\ninference plan: {} steps, {} slots, {:.1} KiB activations, \
             {:.3} GMACs (built in {:.2?})",
            plan.steps(),
            plan.slot_count(),
            plan.activation_bytes() as f64 / 1024.0,
            plan.gemm_macs() as f64 / 1e9,
            build_wall
        );
        let (panels, row_major) = plan.resident_weight_bytes();
        println!(
            "  weights      : {} B, resident {} B = {} B panels + {} B row-major",
            plan.weight_bytes(),
            panels + row_major,
            panels,
            row_major
        );
        if timing {
            print_stages(
                "plan build",
                plan.build_stages(),
                build_wall,
                plan.weight_bytes(),
            );
        }
        let input: Vec<u8> = (0..plan.input_len())
            .map(|i| (i * 7 + 13) as u8 % 16)
            .collect();

        if infer_iters > 0 {
            let mut arena = plan.new_arena();
            let mut best: Option<gcd2::InferReport> = None;
            let mut out = Vec::new();
            for _ in 0..infer_iters {
                let timed =
                    plan.try_execute_timed(&input, &mut arena, &gcd2::ExecOptions::default());
                let (o, report) = match timed {
                    Ok(timed) => timed,
                    Err(e) => {
                        eprintln!("inference failed: {e}");
                        return ExitCode::from(1);
                    }
                };
                out = o;
                if best.as_ref().is_none_or(|b| report.total < b.total) {
                    best = Some(report);
                }
            }
            let report = best.expect("at least one iteration");
            let reference = gcd2::execute_reference(&compiled, &input, SEED);
            println!(
                "  latency      : {:.2?} best of {} ({:.2} GMAC/s)",
                report.total,
                infer_iters,
                plan.gemm_macs() as f64 / report.total.as_secs_f64() / 1e9
            );
            println!("    prep       : {:>10.2?}", report.prep);
            println!("    gemm       : {:>10.2?}", report.gemm);
            println!("    elementwise: {:>10.2?}", report.elementwise);
            if !report.kernel_isa.is_empty() {
                println!("  kernel isa   : {}", report.kernel_isa);
            }
            if !report.gemm_kernels.is_empty() {
                let scalar = report
                    .gemm_kernels
                    .iter()
                    .filter(|gk| gk.isa == gcd2_kernels::KernelIsa::Scalar);
                println!(
                    "  gemm kernels : {} ({} on the scalar tier)",
                    report.gemm_kernels.len(),
                    scalar.count()
                );
                // Each GEMM's wall clock (staging and scatter included)
                // is its operator's entry in `per_op`. `depth` is the
                // AMX tile step's reduction depth (below 64 for a short
                // reduction, which multiplies no zero padding); `panel`
                // (k·n) and `block` (mb·k) are the two quantities the
                // blocking rule weighs to choose `mb`; `stage` is the
                // step's staging wall clock and `a` what the multiply read
                // (`matrix` as it lay or transposed, `view` an im2col view
                // read in place, `im2col` a gathered matrix); `epilogue`
                // names the steps folded into its requantisation.
                for gk in &report.gemm_kernels {
                    let epilogue = plan.epilogue(gk.node);
                    let epilogue = if epilogue.is_empty() {
                        String::new()
                    } else {
                        format!(" epilogue {}", epilogue.join("·"))
                    };
                    let took = report
                        .per_op
                        .iter()
                        .find(|t| t.node == gk.node)
                        .map_or(std::time::Duration::ZERO, |t| t.duration);
                    println!(
                        "    {:<24} {:>5}x{:<5}x{:<5} {:<9} mb={:<4} kb={:<5} {:<8} {:<15} {:<14} {:<10} {:>9.1?} {:>6.0} GMAC/s {:<13} a={:<6}{}",
                        truncate(&gk.name, 24),
                        gk.m,
                        gk.k,
                        gk.n,
                        format!("{}→{}", gk.layouts.0, gk.layouts.1),
                        gk.mb,
                        gk.kb,
                        gk.tile_depth.map_or(String::new(), |d| format!("depth={d}")),
                        format!("panel={:.1}KiB", (gk.k * gk.n) as f64 / 1024.0),
                        format!("block={:.1}KiB", (gk.mb * gk.k) as f64 / 1024.0),
                        gk.isa.name(),
                        took,
                        (gk.m * gk.k * gk.n) as f64 / took.as_secs_f64().max(1e-9) / 1e9,
                        format!("stage={:.1}µs", gk.stage.as_secs_f64() * 1e6),
                        gk.operand.name(),
                        epilogue
                    );
                }
            }
            // The steps that ran as a GEMM's epilogue map: by operator,
            // then each with the GEMM it ran in.
            let folded: Vec<_> = report
                .per_op
                .iter()
                .filter_map(|t| Some((t, t.folded_into?)))
                .collect();
            if !folded.is_empty() {
                let (steps, unread) = plan.folded_steps();
                let mut by_kind: Vec<(&str, usize)> = Vec::new();
                for (t, _) in &folded {
                    match by_kind.iter_mut().find(|(k, _)| *k == t.op) {
                        Some((_, count)) => *count += 1,
                        None => by_kind.push((&t.op, 1)),
                    }
                }
                let by_kind: Vec<String> = by_kind
                    .iter()
                    .map(|(kind, count)| format!("{count} {kind}"))
                    .collect();
                println!(
                    "  folded       : {steps} steps into GEMM requantisation ({}), {unread} constants unread",
                    by_kind.join(", ")
                );
                for (t, gemm) in &folded {
                    let gemm = report
                        .per_op
                        .iter()
                        .find(|g| g.node == *gemm)
                        .map_or("?", |g| g.name.as_str());
                    println!(
                        "    {:<24} {:<22} folded → {}",
                        truncate(&t.name, 24),
                        truncate(&t.op, 22),
                        gemm
                    );
                }
            }
            // The steps that never reach the GEMM dispatcher — depthwise
            // convs, convs too narrow for it and pools: which layout
            // form ran, and how fast.
            if !report.direct_kernels.is_empty() {
                println!("  direct kernels: {}", report.direct_kernels.len());
                for dk in &report.direct_kernels {
                    let Some(t) = report.per_op.iter().find(|t| t.node == dk.node) else {
                        continue;
                    };
                    let rate = match dk.macs {
                        0 => String::new(),
                        macs => format!(
                            "{:>6.0} GMAC/s",
                            macs as f64 / t.duration.as_secs_f64().max(1e-9) / 1e9
                        ),
                    };
                    let line = format!(
                        "    {:<24} {:<22} {:<9} {:>9.1?} {}",
                        truncate(&t.name, 24),
                        truncate(&t.op, 22),
                        format!("{}→{}", dk.layouts.0, dk.layouts.1),
                        t.duration,
                        rate
                    );
                    println!("{}", line.trim_end());
                }
            }
            // What the layout selection chose, in its own unit, beside
            // the all-`Chw` labelling it is only kept for beating. A
            // value with one form (a `c × 1` image, a vector) is the
            // same bytes under either label and is counted apart.
            let (chosen, all_chw) = plan.layout_cost();
            println!(
                "  layouts      : {} of {} two-form values held as rows ({} more have one form), \
                 {} conversions left ({} under all-chw); \
                 predicted {:.2} MB moved per inference vs {:.2} MB all-chw ({:.2} MB no longer transposed)",
                plan.rows_values(),
                plan.two_form_values(),
                plan.steps() - plan.two_form_values(),
                chosen.conversions,
                all_chw.conversions,
                chosen.bytes as f64 / 1e6,
                all_chw.bytes as f64 / 1e6,
                all_chw.bytes.saturating_sub(chosen.bytes) as f64 / 1e6
            );
            println!(
                "  bit-identical: {}",
                if out == reference { "true" } else { "FALSE" }
            );
            // Operator kind = the description up to its parameters
            // ("DWConv2d(3x3, s1)" → "DWConv2d"). A non-GEMM kind also
            // sums its steps' output bytes, for a bytes-per-ns rate.
            type Kind<'a> = (&'a str, usize, std::time::Duration, Option<usize>);
            let mut kinds: Vec<Kind> = Vec::new();
            for t in report.per_op.iter().filter(|t| t.folded_into.is_none()) {
                let kind = t.op.split('(').next().unwrap_or(&t.op);
                match kinds.iter_mut().find(|(k, ..)| *k == kind) {
                    Some((_, steps, total, bytes)) => {
                        *steps += 1;
                        *total += t.duration;
                        *bytes = bytes.zip(t.elementwise_bytes).map(|(a, b)| a + b);
                    }
                    None => kinds.push((kind, 1, t.duration, t.elementwise_bytes)),
                }
            }
            kinds.sort_by_key(|&(_, _, total, _)| std::cmp::Reverse(total));
            println!("  time by operator kind:");
            for (kind, steps, total, bytes) in &kinds {
                let rate = bytes.map_or(String::new(), |b| {
                    format!(
                        "{:>7.2} B/ns",
                        b as f64 / (total.as_secs_f64() * 1e9).max(1e-9)
                    )
                });
                let line = format!(
                    "    {:<16} {:>4} steps {:>10.2?} {:>5.1}% {}",
                    kind,
                    steps,
                    total,
                    100.0 * total.as_secs_f64() / report.total.as_secs_f64(),
                    rate
                );
                println!("{}", line.trim_end());
            }
            let mut by_time: Vec<_> = report
                .per_op
                .iter()
                .filter(|t| t.folded_into.is_none())
                .collect();
            by_time.sort_by_key(|t| std::cmp::Reverse(t.duration));
            println!("  hottest steps:");
            for t in by_time.iter().take(8) {
                println!(
                    "    {:<24} {:<22} {:>10.2?}",
                    truncate(&t.name, 24),
                    truncate(&t.op, 22),
                    t.duration
                );
            }
            if out != reference {
                return ExitCode::from(1);
            }
        }

        if serve > 0 {
            let capacity = (2 * workers * max_batch).max(4);
            let server = gcd2::InferServer::gateway(gcd2::GatewayConfig {
                workers,
                capacity,
                max_batch,
                opts: gcd2::ExecOptions::default(),
                ..gcd2::GatewayConfig::default()
            });
            // The registry: the compiled model, plus any --serve-models
            // catalog extras, with --serve traffic spread round-robin.
            let mut models: Vec<(String, gcd2::InferencePlan)> =
                vec![(model_name.to_lowercase(), plan.clone())];
            for id in &serve_models {
                let name = id.reference().name.to_lowercase();
                if models.iter().any(|(n, _)| n == &name) {
                    continue;
                }
                let extra = Compiler::new().compile(&id.build()).inference_plan(SEED);
                models.push((name, extra));
            }
            for (name, p) in &models {
                if let Err(e) = server.register(name, p.clone()) {
                    eprintln!("failed to register {name}: {e}");
                    return ExitCode::from(1);
                }
            }
            let requests: Vec<(usize, Vec<u8>)> = (0..serve)
                .map(|r| {
                    let which = r % models.len();
                    let input = (0..models[which].1.input_len())
                        .map(|i| ((i * 11 + 5 * (r + 1)) % 16) as u8)
                        .collect();
                    (which, input)
                })
                .collect();
            let t0 = std::time::Instant::now();
            let mut pending: std::collections::VecDeque<(usize, gcd2::InferTicket)> =
                std::collections::VecDeque::new();
            let mut outputs: Vec<Option<Vec<u8>>> = vec![None; serve];
            let mut failures = 0usize;
            for (r, (which, input)) in requests.iter().enumerate() {
                loop {
                    match server.submit_to(&models[*which].0, input.clone(), 0) {
                        Ok(ticket) => {
                            pending.push_back((r, ticket));
                            break;
                        }
                        Err(gcd2::InferError::QueueFull { .. }) => {
                            // Backpressure: drain the oldest pending
                            // request, then retry this submission.
                            if let Some((done, ticket)) = pending.pop_front() {
                                match ticket.wait() {
                                    Ok(out) => outputs[done] = Some(out),
                                    Err(_) => failures += 1,
                                }
                            }
                        }
                        Err(e) => {
                            eprintln!("serve submission failed: {e}");
                            return ExitCode::from(1);
                        }
                    }
                }
            }
            for (r, ticket) in pending {
                match ticket.wait() {
                    Ok(out) => outputs[r] = Some(out),
                    Err(_) => failures += 1,
                }
            }
            let wall = t0.elapsed();
            let model_stats = server.all_model_stats();
            let health = server.health();
            let stats = server.shutdown();
            let mut divergent = 0usize;
            for ((which, input), out) in requests.iter().zip(&outputs) {
                if out.as_deref() != Some(models[*which].1.execute(input).as_slice()) {
                    divergent += 1;
                }
            }
            println!(
                "  serve {serve} across {} model{} via {workers} worker{} \
                 (queue {capacity}, max-batch {max_batch}): \
                 {:.2?} ({:.1} inf/s)",
                models.len(),
                if models.len() == 1 { "" } else { "s" },
                if workers == 1 { "" } else { "s" },
                wall,
                serve as f64 / wall.as_secs_f64()
            );
            println!(
                "  accepted {} / rejected {} (backpressure) / completed {} / failed {} \
                 / {} batches (largest coalesced {})",
                stats.accepted,
                stats.rejected,
                stats.completed,
                stats.failed,
                stats.batches,
                model_stats
                    .iter()
                    .map(|m| m.max_batch_observed)
                    .max()
                    .unwrap_or(0)
            );
            for m in &model_stats {
                println!(
                    "    {:<18} {:>5} reqs in {:>4} batches | queue p50 {:>8.2?} p99 {:>8.2?} \
                     | exec p50 {:>8.2?} p99 {:>8.2?}",
                    truncate(&m.model, 18),
                    m.completed + m.failed,
                    m.batches,
                    m.queue_wait.p50,
                    m.queue_wait.p99,
                    m.execute.p50,
                    m.execute.p99
                );
            }
            let wedged = health.workers.iter().filter(|w| w.wedged).count();
            println!(
                "  health: {} worker{} ({wedged} wedged, {} replaced) | breakers {} \
                 | {} hung / {} breaker-shed / {} abandoned",
                health.workers.len(),
                if health.workers.len() == 1 { "" } else { "s" },
                health.workers_replaced,
                health
                    .breakers
                    .iter()
                    .map(|b| format!("{}={}", truncate(&b.model, 12), b.state))
                    .collect::<Vec<_>>()
                    .join(" "),
                health.hung,
                health.breaker_rejected,
                health.abandoned
            );
            for (seq, event) in &health.events {
                println!("    health[{seq}] {event}");
            }
            println!(
                "  bit-identical: {}",
                if divergent == 0 && failures == 0 {
                    "true"
                } else {
                    "FALSE"
                }
            );
            if divergent > 0 || failures > 0 {
                return ExitCode::from(1);
            }
        }
    }

    if asm_blocks > 0 {
        let mut partial = gcd2_hvx::Program::new();
        for b in compiled.lowered.program.blocks.iter().take(asm_blocks) {
            partial.push(b.clone());
        }
        println!("\n{}", gcd2_hvx::print_program(&partial));
    }

    if show_profile {
        let total = compiled.cycles().max(1) as f64;
        let mut by_cycles: Vec<_> = compiled.lowered.reports.iter().collect();
        by_cycles.sort_by_key(|r| std::cmp::Reverse(r.kernel_cycles + r.transform_cycles));
        println!("\nhottest operators:");
        println!(
            "{:<28} {:<22} {:>12} {:>7}",
            "operator", "plan", "cycles", "share"
        );
        let mut shown = 0.0;
        for r in by_cycles.iter().take(15) {
            let cyc = r.kernel_cycles + r.transform_cycles;
            let share = 100.0 * cyc as f64 / total;
            shown += share;
            println!(
                "{:<28} {:<22} {:>12} {:>6.1}%",
                truncate(&r.name, 28),
                truncate(&r.plan.to_string(), 22),
                cyc,
                share
            );
        }
        println!("(top 15 operators cover {shown:.1}% of cycles)");
    }

    if show_ops {
        println!(
            "\n{:<28} {:<26} {:>12} {:>10}",
            "operator", "plan", "kernel cyc", "xform cyc"
        );
        for r in &compiled.lowered.reports {
            println!(
                "{:<28} {:<26} {:>12} {:>10}",
                truncate(&r.name, 28),
                truncate(&r.plan.to_string(), 26),
                r.kernel_cycles,
                r.transform_cycles
            );
        }
    }
    ExitCode::SUCCESS
}

/// `gcd2c --analyze`: compile every catalog model, build its inference
/// plan, and run the static analyzer over each. One row per model; any
/// diagnostic fails the run.
fn analyze_catalog() -> ExitCode {
    println!(
        "{:<18} {:>6} {:>6} {:>6} {:>9} {:>6}  verdict",
        "model", "steps", "slots", "gemms", "max-bits", "diags"
    );
    let mut failed = 0usize;
    for id in ModelId::ALL {
        let name = id.reference().name.to_lowercase();
        let compiled = Compiler::new().compile(&id.build());
        let plan = match compiled.try_inference_plan(0xC0DE) {
            Ok(p) => p,
            Err(e) => {
                println!("{name:<18} plan construction failed: {e}");
                failed += 1;
                continue;
            }
        };
        let analysis = compiled.analyze_plan(&plan);
        println!(
            "{:<18} {:>6} {:>6} {:>6} {:>9} {:>6}  {}",
            name,
            plan.steps(),
            plan.slot_count(),
            analysis.ranges.gemms().len(),
            analysis.ranges.max_acc_bits(),
            analysis.diagnostics.len(),
            analysis.verdict()
        );
        for d in &analysis.diagnostics {
            println!("    {d}");
        }
        if !analysis.is_clean() {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!("{failed} model(s) failed static analysis");
        return ExitCode::from(1);
    }
    println!("all {} catalog models analyze clean", ModelId::ALL.len());
    ExitCode::SUCCESS
}

/// `gcd2c --load FILE`: the cold-start consumer side. Re-verifies the
/// artifact end to end (container checksums, chain binding, graph
/// re-admission, the schedule derived from it, plan integrity re-hash,
/// the analyzer over the loaded weights) and smoke-executes the loaded
/// plan. Any corruption, version skew, or forgery exits 1 with the
/// structured rejection — never a panic.
fn load_artifact(path: &str) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let t0 = std::time::Instant::now();
    let loaded = match gcd2::artifact::decode(&bytes) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("artifact rejected: {e}");
            return ExitCode::from(1);
        }
    };
    let decode_wall = t0.elapsed();
    let analysis = gcd2_analyze::analyze_plan(&loaded.graph, &loaded.plan);
    println!(
        "loaded {:?} from {path} in {:.2?}: {} steps, {} slots, {:.1} KiB weights, \
         {:.3} GMACs — analyzer {}",
        loaded.label,
        decode_wall,
        loaded.plan.steps(),
        loaded.plan.slot_count(),
        loaded.plan.weight_bytes() as f64 / 1024.0,
        loaded.plan.gemm_macs() as f64 / 1e9,
        analysis.verdict()
    );
    print_stages(
        "load",
        &loaded.stages,
        decode_wall,
        loaded.plan.weight_bytes(),
    );
    println!(
        "  integrity   : {:#018x} (verified)",
        loaded.plan.checksum()
    );
    println!(
        "  compile stat: {} cycles, {} packets, {} stalls",
        loaded.stats.cycles, loaded.stats.packets, loaded.stats.stall_cycles
    );
    if analysis.verdict() == gcd2::Verdict::Unsound {
        eprintln!("artifact rejected: plan fails arena-soundness analysis");
        for d in &analysis.diagnostics {
            eprintln!("    {d}");
        }
        return ExitCode::from(1);
    }
    let input: Vec<u8> = (0..loaded.plan.input_len())
        .map(|i| (i * 7 + 13) as u8 % 16)
        .collect();
    let t0 = std::time::Instant::now();
    let out = loaded.plan.execute(&input);
    println!(
        "  smoke run   : {} output bytes in {:.2?}",
        out.len(),
        t0.elapsed()
    );
    ExitCode::SUCCESS
}

/// Prints a stage ledger in milliseconds: the wall clock the stages
/// were measured inside, each stage, and what they leave of the wall
/// clock as `unaccounted`. A stage that passes over every weight byte
/// once (the plan build's `synthesise`, `pack`, `hash`; the load's
/// `pack`, `integrity`) also gives its rate in weight bytes per ns, so
/// a slow stage reads as a rate as well as a share.
fn print_stages(
    what: &str,
    stages: &[(&'static str, std::time::Duration)],
    wall: std::time::Duration,
    weight_bytes: usize,
) {
    const WEIGHT_STAGES: [&str; 4] = ["synthesise", "pack", "hash", "integrity"];
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    println!("  {what} stages, ms of {:.3} wall:", ms(wall));
    for &(name, d) in stages {
        let rate = if WEIGHT_STAGES.contains(&name) {
            let ns = (d.as_secs_f64() * 1e9).max(1.0);
            format!(" {:>7.2} B/ns", weight_bytes as f64 / ns)
        } else {
            String::new()
        };
        println!("    {name:<25}: {:>9.3}{rate}", ms(d));
    }
    let covered = stages.iter().map(|s| s.1).sum();
    println!(
        "    {:<25}: {:>9.3}",
        "unaccounted",
        ms(wall.saturating_sub(covered))
    );
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}
