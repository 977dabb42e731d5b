//! The inference runtime's hard guarantees, mirrored from the compile
//! side: for catalog models, a batch is its inputs run in turn — over
//! one reused arena, or through a one-worker gateway at every
//! `max_batch` — and each input comes out bit-identical to a fresh
//! arena and to the node-by-node interpreter reference.

use gcd2_repro::compiler::{
    execute_reference, Compiler, ExecOptions, GatewayConfig, InferArena, InferError, InferServer,
    InferTicket, InferencePlan,
};
use gcd2_repro::kernels::{detected_isa, pin_isa, KernelIsa};
use gcd2_repro::models::ModelId;
use std::time::Duration;

const SEED: u64 = 0xBA7C4;

/// The gateway batch bounds under test: batching off, a pair, and more
/// than some batches hold.
const MAX_BATCHES: [usize; 3] = [1, 2, 5];

type Results = Vec<Result<Vec<u8>, InferError>>;

/// Every kernel tier this host can run, the scalar oracle first.
fn tiers() -> impl Iterator<Item = KernelIsa> {
    KernelIsa::ALL.into_iter().filter(|isa| isa.supported())
}

fn batch_inputs(len: usize, batch: usize) -> Vec<Vec<u8>> {
    (0..batch)
        .map(|b| {
            (0..len)
                .map(|i| ((i * 11 + 5 * (b + 1)) % 16) as u8)
                .collect()
        })
        .collect()
}

/// `inputs` run in turn over `arena`.
fn in_turn(
    plan: &InferencePlan,
    arena: &mut InferArena,
    inputs: &[Vec<u8>],
    opts: &ExecOptions,
) -> Results {
    let mut run = |x: &Vec<u8>| {
        let mut out = Vec::new();
        plan.try_execute_into(x, arena, &mut out, opts)
            .map(|()| out)
    };
    inputs.iter().map(&mut run).collect()
}

/// `inputs` through a one-worker gateway that runs at most `max_batch`
/// of them at a time. The worker takes the first input at once and the
/// rest in batches of whatever queued meanwhile, so the shapes follow
/// the threads' timing; the core's scenario table pins them
/// (`tests/gateway_scenarios.rs`), and here no batch exceeds the bound.
fn served(
    plan: &InferencePlan,
    inputs: &[Vec<u8>],
    max_batch: usize,
    opts: ExecOptions,
) -> Results {
    let server = InferServer::gateway(GatewayConfig {
        workers: 1,
        max_batch,
        opts,
        ..GatewayConfig::default()
    });
    server.register("m", plan.clone()).expect("register");
    let tickets: Vec<_> = inputs
        .iter()
        .map(|x| server.submit_to("m", x.clone(), 0).expect("admitted"))
        .collect();
    server.drain();
    let results = tickets.into_iter().map(InferTicket::wait).collect();
    let stats = server.model_stats("m").expect("registered");
    assert!(stats.batches as usize >= inputs.len().div_ceil(max_batch));
    assert!(stats.max_batch_observed as usize <= max_batch.min(inputs.len()));
    server.shutdown();
    results
}

/// Runs the batch-vs-interpreter check for one model: `batch` inputs
/// over a fresh arena each and in turn over one reused arena — with the
/// plan built and run on every tier the host supports — and through the
/// gateway at every [`MAX_BATCHES`] bound equal the interpreter input by
/// input. The gateway's workers run the detected tier.
fn check_model(id: ModelId, batch: usize) {
    let compiled = Compiler::new().compile(&id.build());
    let plan = compiled.inference_plan(SEED);
    let inputs = batch_inputs(plan.input_len(), batch);
    let opts = ExecOptions::default();
    let references: Vec<Vec<u8>> = inputs
        .iter()
        .map(|input| execute_reference(&compiled, input, SEED))
        .collect();
    let mut paths: Vec<(String, Results)> = MAX_BATCHES
        .map(|b| {
            (
                format!("the gateway at max_batch {b}"),
                served(&plan, &inputs, b, opts),
            )
        })
        .into();
    for tier in tiers() {
        let _pin = pin_isa(tier);
        let plan = compiled.inference_plan(SEED);
        let fresh = inputs.iter().map(|x| plan.try_execute(x)).collect();
        let reused = in_turn(&plan, &mut plan.new_arena(), &inputs, &opts);
        paths.push((format!("fresh arenas on {tier}"), fresh));
        paths.push((format!("one arena on {tier}"), reused));
    }
    for (path, outs) in paths {
        assert_eq!(outs.len(), batch, "{id}: output count");
        for (i, (out, reference)) in outs.iter().zip(&references).enumerate() {
            assert_eq!(
                out.as_ref(),
                Ok(reference),
                "{id}: input {i} of {batch} diverges from the interpreter through {path}"
            );
        }
    }
}

/// The fast default subset spans the operator vocabulary: depthwise +
/// squeeze-excite CNN, transformer (LayerNorm/Softmax/Div/Pow), and the
/// multi-scale detector (Upsample/Concat).
#[test]
fn batch_execution_matches_interpreter_on_core_models() {
    for id in [
        ModelId::MobileNetV3,
        ModelId::TinyBert,
        ModelId::EfficientDetD0,
    ] {
        check_model(id, 4);
    }
}

/// The whole catalog, including the two >100-GMAC models — run with
/// `cargo test -- --ignored` (minutes of wall clock; a megapixel
/// model's arena is hundreds of MB, hence batches of two).
#[test]
#[ignore = "full catalog takes minutes; run with --ignored"]
fn batch_execution_matches_interpreter_on_every_catalog_model() {
    for id in ModelId::ALL {
        check_model(id, 2);
    }
}

/// Degenerate batch shapes: the empty batch, a batch of one, and a
/// gateway bound larger than the batch all behave like the plain
/// multi-input path — every path runs the one executor input by input,
/// so each input gets the same bytes or the same error variant from all
/// of them.
#[test]
fn batch_edge_shapes_execute_cleanly() {
    let compiled = Compiler::new().compile(&ModelId::MobileNetV3.build());
    let plan = compiled.inference_plan(SEED);
    let defaults = ExecOptions::default();

    // Empty input list: empty output.
    let empty: Vec<Vec<u8>> = Vec::new();
    assert!(in_turn(&plan, &mut plan.new_arena(), &empty, &defaults).is_empty());

    // B ∈ {1, 2, 5} with a wrong-length input and past a deadline, over
    // fresh arenas and over one reused arena — with the plan built and
    // run on every tier the host supports — and through the gateway at
    // every bound: a batch of one matches single-shot execution, and a
    // bound larger than the batch leaves the results unchanged. The
    // gateway's workers run the detected tier, so it serves the plan
    // built there.
    let inputs = batch_inputs(plan.input_len(), 5);
    let oracle: Vec<Vec<u8>> = inputs
        .iter()
        .map(|x| execute_reference(&compiled, x, SEED))
        .collect();
    let expired = ExecOptions {
        deadline: Some(Duration::ZERO),
    };
    for tier in tiers() {
        let _pin = pin_isa(tier);
        let plan = compiled.inference_plan(SEED);
        for b in [1, 2, 5] {
            for (opts, bad) in [(defaults, Some(0)), (defaults, None), (expired, None)] {
                let mut batch = inputs[..b].to_vec();
                if let Some(i) = bad {
                    batch[i].pop();
                }
                let fresh = |x: &Vec<u8>| {
                    let mut out = Vec::new();
                    plan.try_execute_into(x, &mut plan.new_arena(), &mut out, &opts)
                        .map(|()| out)
                };
                let mut paths = vec![
                    batch.iter().map(fresh).collect(),
                    in_turn(&plan, &mut plan.new_arena(), &batch, &opts),
                ];
                if tier == detected_isa() {
                    paths.extend(MAX_BATCHES.map(|max| served(&plan, &batch, max, opts)));
                }
                assert!(paths.iter().all(|results| results.len() == b));
                for (i, want) in oracle[..b].iter().enumerate() {
                    for r in paths.iter().map(|results| &results[i]) {
                        match r {
                            Err(InferError::InputShape { .. }) => assert_eq!(bad, Some(i)),
                            // A zero deadline can tie a coarse clock tick;
                            // a run that completes is correct.
                            Err(InferError::DeadlineExceeded { .. }) => {
                                assert!(opts.deadline.is_some())
                            }
                            _ => assert!(bad != Some(i) && r.as_ref() == Ok(want), "{r:?}"),
                        }
                    }
                }
            }
        }
    }

    // The timed entry point runs the same core. On resnet-50 every GEMM
    // reaches the dispatcher, so it lists one kernel per convolution
    // plus the classifier, in schedule order, covering exactly the
    // plan's MACs, and its stage times stay inside the total.
    let plan = Compiler::new()
        .compile(&ModelId::ResNet50.build())
        .inference_plan(SEED);
    let input = batch_inputs(plan.input_len(), 1).remove(0);
    let (timed, report) = plan
        .try_execute_timed(&input, &mut plan.new_arena(), &defaults)
        .expect("timed run");
    assert_eq!(timed, plan.execute(&input));
    let gemms: Vec<_> = report
        .gemm_kernels
        .iter()
        .map(|g| (g.node.0, [g.m, g.k, g.n]))
        .collect();
    assert_eq!(gemms.len(), 54);
    assert_eq!(gemms[0], (1, [12544, 147, 64]), "stem.conv");
    assert_eq!(gemms[53].1, [1, 2048, 1000], "fc");
    assert!(gemms.windows(2).all(|w| w[0].0 < w[1].0));
    let macs = gemms
        .iter()
        .map(|(_, mkn)| mkn.iter().product::<usize>() as u64);
    assert_eq!(macs.sum::<u64>(), plan.gemm_macs());
    assert_eq!(report.per_op.len(), plan.steps());
    assert!(report.prep + report.gemm + report.elementwise <= report.total);
}

/// A reused arena never leaks state between inferences — the same
/// inputs run forwards and then backwards over it give the same bytes —
/// and the gateway, whose arenas are reused across batches, gives them
/// too at every bound.
#[test]
fn repeated_batches_are_reproducible() {
    let compiled = Compiler::new().compile(&ModelId::MobileNetV3.build());
    let plan = compiled.inference_plan(SEED);
    let inputs = batch_inputs(plan.input_len(), 6);
    let opts = ExecOptions::default();
    let mut arena = plan.new_arena();
    let first = in_turn(&plan, &mut arena, &inputs, &opts);
    let reversed: Vec<Vec<u8>> = inputs.iter().rev().cloned().collect();
    let mut second = in_turn(&plan, &mut arena, &reversed, &opts);
    second.reverse();
    assert_eq!(first, second, "batch results must not depend on history");
    for max_batch in MAX_BATCHES {
        let served = served(&plan, &inputs, max_batch, opts);
        assert_eq!(served, first, "max_batch {max_batch}");
    }
    // Single-shot execution through a fresh arena agrees with the batch.
    assert_eq!(first[0], Ok(plan.execute(&inputs[0])));
}
