//! The inference runtime's hard guarantees, mirrored from the compile
//! side: for catalog models, the precompiled plan's **batched, parallel**
//! execution is bit-identical to the node-by-node interpreter reference,
//! per input, at every thread count (including the machine's available
//! parallelism) and through the gateway's pooled batch entry.

use gcd2_repro::compiler::{execute_reference, ArenaPool, Compiler, ExecOptions, InferError};
use gcd2_repro::models::ModelId;
use gcd2_repro::par::default_threads;
use std::time::Duration;

const SEED: u64 = 0xBA7C4;

/// Thread counts under test: serial, small, and the session default
/// (available parallelism).
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, default_threads().max(4)];
    counts.dedup();
    counts
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

/// Runs the batch-vs-interpreter check for one model: every prefix of
/// `batch` inputs whose length is in `sizes`, fanned out over each of
/// `thread_counts` and through the gateway's pooled entry, equals the
/// interpreter input by input.
fn check_model(id: ModelId, batch: usize, sizes: &[usize], thread_counts: &[usize]) {
    let graph = id.build();
    let compiled = Compiler::new().compile(&graph);
    let plan = compiled.inference_plan(SEED);
    let inputs = batch_inputs(plan.input_len(), batch);

    // Per-input interpreter references.
    let references: Vec<Vec<u8>> = inputs
        .iter()
        .map(|input| execute_reference(&compiled, input, SEED))
        .collect();

    let (pool, opts) = (ArenaPool::new(), ExecOptions::default());
    for &b in sizes {
        let fanned = thread_counts
            .iter()
            .map(|&t| (t, plan.try_execute_batch(&inputs[..b], t, &opts)));
        // 0 threads: the pooled entry, item by item on this thread.
        let pooled = (0, plan.try_execute_batch_pooled(&inputs[..b], &pool, &opts));
        for (threads, outs) in fanned.chain([pooled]) {
            assert_eq!(outs.len(), b, "{id}: output count");
            for (i, (out, reference)) in outs.iter().zip(&references).enumerate() {
                assert_eq!(
                    out.as_ref(),
                    Ok(reference),
                    "{id}: item {i} of {b} diverges from the interpreter at {threads} threads"
                );
            }
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
        check_model(id, 4, &[4], &thread_counts());
    }
}

/// The whole catalog, including the two >100-GMAC models — run with
/// `cargo test -- --ignored` (minutes of wall clock; a megapixel
/// model's arena is hundreds of MB, hence batches of at most two).
#[test]
#[ignore = "full catalog takes minutes; run with --ignored"]
fn batch_execution_matches_interpreter_on_every_catalog_model() {
    for id in ModelId::ALL {
        check_model(id, 2, &[1, 2], &[1, 4]);
    }
}

/// Degenerate batch shapes: the empty batch, a batch of one, and more
/// threads than items all behave like the plain multi-item path — and
/// every batch-capable entry point runs the one executor item by item,
/// so each item gets the same bytes or the same error variant from all
/// of them.
#[test]
fn batch_edge_shapes_execute_cleanly() {
    let compiled = Compiler::new().compile(&ModelId::MobileNetV3.build());
    let plan = compiled.inference_plan(SEED);
    let defaults = ExecOptions::default();
    let pool = ArenaPool::new();

    // Empty input list: empty output, no worker machinery engaged.
    let empty: Vec<Vec<u8>> = Vec::new();
    assert!(plan.try_execute_batch(&empty, 4, &defaults).is_empty());
    assert!(plan
        .try_execute_batch_pooled(&empty, &pool, &defaults)
        .is_empty());

    // B ∈ {1, 2, 5} with a wrong-length item, on the scalar tier and
    // past a deadline, through all four batch-capable entry points: a
    // batch of one matches single-shot execution at any thread count,
    // and more threads than items leave extra workers idle, results
    // unchanged.
    let inputs = batch_inputs(plan.input_len(), 5);
    let oracle: Vec<Vec<u8>> = inputs
        .iter()
        .map(|x| execute_reference(&compiled, x, SEED))
        .collect();
    let scalar = ExecOptions {
        force_scalar: true,
        ..defaults
    };
    let expired = ExecOptions {
        deadline: Some(Duration::ZERO),
        ..defaults
    };
    for b in [1, 2, 5] {
        for (opts, bad) in [(defaults, Some(0)), (scalar, None), (expired, None)] {
            let mut batch = inputs[..b].to_vec();
            if let Some(i) = bad {
                batch[i].pop();
            }
            let into = |x: &Vec<u8>| {
                let mut out = Vec::new();
                plan.try_execute_into(x, &mut plan.new_arena(), &mut out, &opts)
                    .map(|()| out)
            };
            let paths = [
                batch.iter().map(into).collect(),
                plan.try_execute_batch(&batch, 1, &opts),
                plan.try_execute_batch(&batch, 2, &opts),
                plan.try_execute_batch(&batch, 8, &opts),
                plan.try_execute_batch_pooled(&batch, &pool, &opts),
            ];
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

/// Reused arenas across different inputs never leak state between
/// inferences, and repeated batches are reproducible.
#[test]
fn repeated_batches_are_reproducible() {
    let graph = ModelId::MobileNetV3.build();
    let compiled = Compiler::new().compile(&graph);
    let plan = compiled.inference_plan(SEED);
    let inputs = batch_inputs(plan.input_len(), 6);
    let first = plan.try_execute_batch(&inputs, 4, &ExecOptions::default());
    let second = plan.try_execute_batch(&inputs, 2, &ExecOptions::default());
    assert_eq!(first, second, "batch results must not depend on history");
    // Single-shot execution through a fresh arena agrees with the batch.
    assert_eq!(first[0], Ok(plan.execute(&inputs[0])));
}
