//! Runtime chaos suite: seeded fault injection against the inference
//! runtime and serving layer.
//!
//! The robustness contract of execution: **every** injected-fault run
//! must terminate with either
//!
//! 1. output **bit-identical** to the undisturbed baseline — every
//!    request the fault did not hit, and the hit request's input when it
//!    is submitted again once a transient fault is spent (execution is a
//!    deterministic function of plan, input and kernel tier, so the
//!    gateway never re-runs a request itself), or
//! 2. a clean structured [`InferError`] for the request the fault hit,
//!
//! and a panic must never escape an execution entry point, nor may one
//! poisoned request contaminate the others in its batch. Run with
//! `cargo test --features fault-injection --test runtime_chaos`; the
//! suite is absent from the default (uninstrumented) build.

#![cfg(feature = "fault-injection")]

use gcd2_repro::cgraph::{Activation, Graph, OpKind, TShape};
use gcd2_repro::compiler::{
    Compiler, ExecOptions, GatewayConfig, InferError, InferServer, InferTicket, InferencePlan,
    ServerStats,
};
use gcd2_repro::faults::{arm, chaos_seeds, hits, Armed, FaultKind, FaultPlan};
use std::time::Duration;

/// A small net crossing every runtime fault point: two real GEMMs
/// (`infer.gemm`), a depthwise direct kernel, im2col staging
/// (`infer.prep`), and a tail of elementwise/pool/normalization steps
/// (`infer.elementwise`).
fn chaos_net() -> Graph {
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 4, 12, 12));
    let conv = g.add(
        OpKind::Conv2d {
            out_channels: 8,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[x],
        "conv",
    );
    let relu = g.add(OpKind::Act(Activation::Relu), &[conv], "relu");
    let dw = g.add(
        OpKind::DepthwiseConv2d {
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[relu],
        "dw",
    );
    let pool = g.add(
        OpKind::MaxPool {
            kernel: (2, 2),
            stride: (2, 2),
        },
        &[dw],
        "pool",
    );
    let gap = g.add(OpKind::GlobalAvgPool, &[pool], "gap");
    let flat = g.add(
        OpKind::Reshape {
            shape: TShape::new(vec![1, 8]),
        },
        &[gap],
        "flat",
    );
    let fc = g.add(OpKind::MatMul { n: 6 }, &[flat], "fc");
    g.add(OpKind::Softmax, &[fc], "sm");
    g
}

const SEED: u64 = 0xFA57;
const INPUT_LEN: usize = 4 * 12 * 12;

fn plan() -> InferencePlan {
    Compiler::new().compile(&chaos_net()).inference_plan(SEED)
}

fn batch_inputs(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|s| {
            (0..INPUT_LEN)
                .map(|i| ((i * 3 + s * 7) % 16) as u8)
                .collect()
        })
        .collect()
}

/// Holds the chaos gate with an **empty** plan: serializes against other
/// armed tests so baseline runs neither consume their triggers nor get
/// hit by their faults.
fn quiet() -> Armed {
    arm(FaultPlan::new())
}

/// Fault-free outputs, computed under the quiet gate.
fn baseline(plan: &InferencePlan, inputs: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let _quiet = quiet();
    inputs.iter().map(|i| plan.execute(i)).collect()
}

type Results = Vec<Result<Vec<u8>, InferError>>;

/// `inputs` run in turn over one reused arena: how a batch runs.
fn in_turn(plan: &InferencePlan, inputs: &[Vec<u8>], opts: &ExecOptions) -> Results {
    let mut arena = plan.new_arena();
    let mut run = |x: &Vec<u8>| {
        let mut out = Vec::new();
        plan.try_execute_into(x, &mut arena, &mut out, opts)
            .map(|()| out)
    };
    inputs.iter().map(&mut run).collect()
}

/// A one-worker gateway serving `plan` as `m` whose batches hold at most
/// `max_batch` requests. Its one worker keeps one arena for the plan and
/// runs the requests in the order they were submitted.
fn gateway(plan: &InferencePlan, max_batch: usize, opts: ExecOptions) -> InferServer {
    let server = InferServer::gateway(GatewayConfig {
        workers: 1,
        max_batch,
        opts,
        ..GatewayConfig::default()
    });
    server.register("m", plan.clone()).expect("register");
    server
}

/// `inputs` submitted to `server` in turn; every ticket's result.
fn batch(server: &InferServer, inputs: &[Vec<u8>]) -> Results {
    let tickets: Vec<_> = inputs
        .iter()
        .map(|x| server.submit_to("m", x.clone(), 0).expect("admitted"))
        .collect();
    tickets.into_iter().map(InferTicket::wait).collect()
}

/// `inputs` through a fresh one-worker gateway whose batch bound is
/// `inputs.len()`; every ticket's result and the final counters.
fn served(plan: &InferencePlan, inputs: &[Vec<u8>], opts: ExecOptions) -> (Results, ServerStats) {
    let server = gateway(plan, inputs.len(), opts);
    let results = batch(&server, inputs);
    (results, server.shutdown())
}

/// The contract for a transient fault in the gateway: it fails exactly
/// the request it hit, with an injected `Internal`, every other request
/// is bit-identical, and that input submitted again to the
/// same gateway — the same worker, over the same arena — gives the
/// baseline bytes.
fn assert_fails_one_then_recovers(plan: &InferencePlan, inputs: &[Vec<u8>], fault: FaultPlan) {
    let expect = baseline(plan, inputs);
    let _armed = arm(fault);
    let server = gateway(plan, inputs.len(), ExecOptions::default());
    let results = batch(&server, inputs);
    let failed: Vec<usize> = (0..inputs.len()).filter(|&i| results[i].is_err()).collect();
    let [hit] = failed[..] else {
        panic!("a transient fault fails exactly one request: {results:?}");
    };
    let e = results[hit].as_ref().expect_err("the hit request");
    assert!(matches!(e, InferError::Internal { .. }), "{e:?}");
    assert_injected(e);
    for (i, r) in results.iter().enumerate().filter(|&(i, _)| i != hit) {
        assert_eq!(r.as_ref().expect("not hit"), &expect[i], "request {i}");
    }
    let again = server
        .submit_to("m", inputs[hit].clone(), 0)
        .expect("admitted");
    let stats = server.shutdown();
    assert_eq!(again.wait(), Ok(expect[hit].clone()), "request {hit} again");
    let answered = (stats.completed, stats.failed, stats.retries);
    assert_eq!(answered, (inputs.len() as u64, 1, 0));
}

/// Asserts a structured injected-fault error: `Internal` must carry the
/// injection marker (anything else would be a real defect hiding behind
/// the chaos test).
fn assert_injected(e: &InferError) {
    if let InferError::Internal { message } = e {
        assert!(
            message.contains("injected fault"),
            "non-injected internal error: {message}"
        );
    }
}

#[test]
fn transient_prep_panic_recovers_bit_identical() {
    let fault = FaultPlan::new().once("infer.prep", FaultKind::Panic, 3);
    assert_fails_one_then_recovers(&plan(), &batch_inputs(6), fault);
}

#[test]
fn sticky_gemm_panic_batch_yields_structured_errors() {
    let plan = plan();
    let inputs = batch_inputs(4);
    let _expect = baseline(&plan, &inputs);
    let _armed = arm(FaultPlan::new().sticky("infer.gemm", FaultKind::Panic, 1));
    for r in &in_turn(&plan, &inputs, &ExecOptions::default()) {
        let e = r.as_ref().expect_err("a persistent fault must error");
        assert!(matches!(e, InferError::Internal { .. }), "{e:?}");
        assert_injected(e);
    }
}

#[test]
fn single_shot_transient_gemm_panic_is_structured_then_recovers() {
    let plan = plan();
    let inputs = batch_inputs(1);
    let expect = baseline(&plan, &inputs);
    let _armed = arm(FaultPlan::new().once("infer.gemm", FaultKind::Panic, 1));
    // Single-shot entry points have no retry loop: the caught panic is a
    // structured Internal, and the next call (fault spent) recovers.
    let e = plan.try_execute(&inputs[0]).expect_err("fault fires");
    assert!(matches!(e, InferError::Internal { .. }), "{e:?}");
    assert_injected(&e);
    assert_eq!(
        plan.try_execute(&inputs[0]).expect("fault spent"),
        expect[0]
    );
}

#[test]
fn elementwise_delay_changes_nothing() {
    let plan = plan();
    let inputs = batch_inputs(3);
    let expect = baseline(&plan, &inputs);
    let _armed =
        arm(FaultPlan::new().sticky("infer.elementwise", FaultKind::Delay { millis: 1 }, 1));
    let results = in_turn(&plan, &inputs, &ExecOptions::default());
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.as_ref().expect("delays are benign"), &expect[i]);
    }
}

#[test]
fn deadline_exceeded_is_structured() {
    let plan = plan();
    let inputs = batch_inputs(1);
    let _expect = baseline(&plan, &inputs);
    let _armed =
        arm(FaultPlan::new().sticky("infer.elementwise", FaultKind::Delay { millis: 5 }, 1));
    let opts = ExecOptions {
        deadline: Some(Duration::from_millis(1)),
        ..ExecOptions::default()
    };
    // The input step alone is delayed past the deadline, so the run is
    // abandoned at the next step boundary.
    let e = plan
        .try_execute_into(&inputs[0], &mut plan.new_arena(), &mut Vec::new(), &opts)
        .expect_err("deadline must trip");
    match e {
        InferError::DeadlineExceeded { elapsed, deadline } => {
            assert!(elapsed > deadline);
            assert_eq!(deadline, Duration::from_millis(1));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn deadline_is_a_per_request_backstop_in_the_gateway() {
    let plan = plan();
    let inputs = batch_inputs(3);
    let _expect = baseline(&plan, &inputs);
    let _armed =
        arm(FaultPlan::new().sticky("infer.elementwise", FaultKind::Delay { millis: 5 }, 1));
    let opts = ExecOptions {
        deadline: Some(Duration::from_millis(1)),
        ..ExecOptions::default()
    };
    for r in served(&plan, &inputs, opts).0 {
        assert!(
            matches!(r, Err(InferError::DeadlineExceeded { .. })),
            "{r:?}"
        );
    }
}

/// A request that panics fails alone, answered once, and the others in
/// its batch answer bit-identically. Request 0 holds the one worker busy
/// (its first non-GEMM step sleeps), so requests 1–4 queue and run as
/// one batch.
#[test]
fn gateway_panic_isolates_one_request() {
    let plan = plan();
    let inputs = batch_inputs(5);
    let expect = baseline(&plan, &inputs);
    // Non-GEMM steps of one request, each one `infer.elementwise` hit.
    let per_request = {
        let _quiet = quiet();
        plan.execute(&inputs[0]);
        hits("infer.elementwise")
    };
    // Request 0's first non-GEMM step sleeps; request 2's panics.
    let _armed = arm(FaultPlan::new()
        .once("infer.elementwise", FaultKind::Delay { millis: 100 }, 1)
        .once("infer.elementwise", FaultKind::Panic, 2 * per_request + 1));
    let (results, stats) = served(&plan, &inputs, ExecOptions::default());
    for (i, r) in results.iter().enumerate() {
        if i == 2 {
            let e = r.as_ref().expect_err("request 2 faults");
            assert!(matches!(e, InferError::Internal { .. }), "{e:?}");
            assert_injected(e);
        } else {
            assert_eq!(
                r.as_ref().expect("the others in its batch survive"),
                &expect[i]
            );
        }
    }
    let batches = (stats.batches, stats.batched_requests);
    let answered = (stats.completed, stats.failed, stats.retries);
    assert_eq!((answered, batches), ((4, 1, 0), (2, 4)));
}

/// A worker keeps one arena per plan; a panic while the first request
/// sizes it fails that request, the next request sizes it again, and
/// the first input submitted again runs over that same arena.
#[test]
fn arena_fault_in_the_gateway_recovers_bit_identical() {
    let fault = FaultPlan::new().once("infer.arena", FaultKind::Panic, 1);
    assert_fails_one_then_recovers(&plan(), &batch_inputs(4), fault);
}

#[test]
fn wrong_input_len_is_structured_and_does_not_contaminate() {
    let plan = plan();
    let good = batch_inputs(2);
    let expect = baseline(&plan, &good);
    let _quiet = quiet();
    let e = plan.try_execute(&good[0][..7]).expect_err("shape mismatch");
    assert_eq!(
        e,
        InferError::InputShape {
            expected: INPUT_LEN,
            got: 7
        }
    );
    let mixed = vec![good[0].clone(), vec![9; 3], good[1].clone()];
    let (results, _) = served(&plan, &mixed, ExecOptions::default());
    assert_eq!(results[0].as_ref().expect("healthy item"), &expect[0]);
    assert!(matches!(
        results[1],
        Err(InferError::InputShape {
            expected: INPUT_LEN,
            got: 3
        })
    ));
    assert_eq!(results[2].as_ref().expect("healthy item"), &expect[1]);
}

#[test]
fn cross_plan_arena_is_rejected() {
    let _quiet = quiet();
    let compiled = Compiler::new().compile(&chaos_net());
    let plan_a = compiled.inference_plan(1);
    let plan_b = compiled.inference_plan(2);
    let input = batch_inputs(1).remove(0);
    let mut arena = plan_a.new_arena();
    let mut out = Vec::new();
    plan_a
        .try_execute_into(&input, &mut arena, &mut out, &ExecOptions::default())
        .expect("own arena executes");
    let e = plan_b
        .try_execute_into(&input, &mut arena, &mut out, &ExecOptions::default())
        .expect_err("foreign arena is rejected");
    assert_eq!(
        e,
        InferError::ArenaMismatch {
            plan: plan_b.checksum(),
            arena: plan_a.checksum(),
        }
    );
}

#[test]
fn weight_corruption_is_detected_by_integrity_check() {
    let _quiet = quiet();
    let mut plan = plan();
    plan.verify_integrity().expect("pristine plan verifies");
    plan.chaos_corrupt_weights();
    let e = plan.verify_integrity().expect_err("corruption is caught");
    assert!(matches!(e, InferError::IntegrityViolation { .. }), "{e:?}");
    // Paranoid execution refuses to produce (silently wrong) output.
    let input = batch_inputs(1).remove(0);
    let paranoid = ExecOptions {
        paranoid: true,
        ..ExecOptions::default()
    };
    let e = plan
        .try_execute_into(&input, &mut plan.new_arena(), &mut Vec::new(), &paranoid)
        .expect_err("paranoid execution refuses a corrupt plan");
    assert!(matches!(e, InferError::IntegrityViolation { .. }), "{e:?}");
}

#[test]
fn schedule_tampering_fails_every_paranoid_run() {
    let _quiet = quiet();
    let mut plan = plan();
    plan.chaos_corrupt_schedule();
    let inputs = batch_inputs(3);
    let paranoid = ExecOptions {
        paranoid: true,
        ..ExecOptions::default()
    };
    for r in in_turn(&plan, &inputs, &paranoid) {
        assert!(
            matches!(r, Err(InferError::IntegrityViolation { .. })),
            "{r:?}"
        );
    }
}

#[test]
fn server_backpressure_rejects_cleanly_and_serves_bit_identical() {
    let plan = plan();
    let inputs = batch_inputs(6);
    let expect = baseline(&plan, &inputs);
    // One slow worker (every elementwise step delayed) and a one-slot
    // queue: rapid submissions must hit QueueFull, and everything
    // accepted must still come back bit-identical.
    let _armed =
        arm(FaultPlan::new().sticky("infer.elementwise", FaultKind::Delay { millis: 5 }, 1));
    let server = InferServer::start(plan.clone(), 1, 1, ExecOptions::default());
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for (i, input) in inputs.iter().enumerate() {
        match server.submit(input.clone()) {
            Ok(t) => tickets.push((i, t)),
            Err(InferError::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(
        rejected >= 1,
        "a one-slot queue under a slow worker must reject"
    );
    for (i, ticket) in tickets {
        assert_eq!(
            ticket.wait().expect("accepted requests are served"),
            expect[i]
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected, rejected as u64);
    assert_eq!(stats.accepted + stats.rejected, inputs.len() as u64);
    assert_eq!(stats.completed, stats.accepted);
    assert_eq!(stats.failed, 0);
}

#[test]
fn server_survives_persistent_faults_and_recovers_after() {
    let plan = plan();
    let inputs = batch_inputs(2);
    let expect = baseline(&plan, &inputs);
    let server = InferServer::start(plan.clone(), 1, 4, ExecOptions::default());
    {
        let _armed = arm(FaultPlan::new().sticky("infer.gemm", FaultKind::Panic, 1));
        let e = server
            .infer(inputs[0].clone())
            .expect_err("faulted request errors");
        // The gateway runs each request through the executor's own
        // panic guard, so the caught panic is an Internal error.
        assert!(matches!(e, InferError::Internal { .. }), "{e:?}");
        assert_injected(&e);
    }
    // Disarmed: the same worker (it survived the panic) now serves
    // bit-identically.
    let _quiet = quiet();
    assert_eq!(
        server.infer(inputs[1].clone()).expect("server recovered"),
        expect[1]
    );
    let stats = server.shutdown();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

/// Seed-derived multi-fault plans, through the gateway and then
/// single-shot: the ci.sh runtime chaos gate runs this
/// with two fixed seeds; `GCD2_CHAOS_SEED` adds an extra operator-chosen
/// seed for ad-hoc exploration.
#[test]
fn seeded_runtime_fault_plans_terminate_bit_identical_or_structured() {
    let plan = plan();
    let inputs = batch_inputs(5);
    let expect = baseline(&plan, &inputs);
    for seed in chaos_seeds(&[2024, 7]) {
        let fault_plan = FaultPlan::from_seed(seed);
        let _armed = arm(fault_plan.clone());
        let (results, _) = served(&plan, &inputs, ExecOptions::default());
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(out) => assert_eq!(
                    out, &expect[i],
                    "seed {seed} recovered to different output ({fault_plan:?})"
                ),
                Err(e) => assert_injected(e),
            }
        }
        match plan.try_execute(&inputs[0]) {
            Ok(out) => assert_eq!(out, expect[0], "seed {seed} single-shot diverged"),
            Err(e) => assert_injected(&e),
        }
    }
}
