//! Runtime errors: every structured [`InferError`] a real input or a
//! real plan can cause, single-shot and through the gateway.
//!
//! Execution is a deterministic function of plan, input and kernel tier,
//! so each error here comes from something real — a short input, a
//! foreign arena, tampered weights or schedule, a zero deadline, a full
//! queue — and never from an injected fault. The contract: a bad request
//! ends in a clean structured error and a panic never escapes an entry
//! point; the other requests, and the same arena reused after the error,
//! give output bit-identical to a fresh run.

use gcd2_repro::cgraph::{Activation, Graph, OpKind, TShape};
use gcd2_repro::compiler::{
    Compiler, ExecOptions, GatewayConfig, InferArena, InferError, InferServer, InferTicket,
    InferencePlan, ServerStats,
};
use std::time::Duration;

/// A small net with two real GEMMs, a depthwise direct kernel, im2col
/// staging, and a tail of elementwise, pool and normalization steps.
fn net() -> Graph {
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
    Compiler::new().compile(&net()).inference_plan(SEED)
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

fn zero_deadline() -> ExecOptions {
    ExecOptions {
        deadline: Some(Duration::ZERO),
    }
}

type Results = Vec<Result<Vec<u8>, InferError>>;

/// `inputs` run in turn over one reused arena, as a batch runs, each
/// after the plan's integrity check — the call a caller who wants the
/// check makes before executing.
fn verified_in_turn(plan: &InferencePlan, inputs: &[Vec<u8>]) -> Results {
    let mut arena = plan.new_arena();
    let mut run = |x: &Vec<u8>| {
        plan.verify_integrity()?;
        let mut out = Vec::new();
        plan.try_execute_into(x, &mut arena, &mut out, &ExecOptions::default())
            .map(|()| out)
    };
    inputs.iter().map(&mut run).collect()
}

/// Appended past the plan's input, marks a request for [`runner`]: it
/// holds its worker 100 ms before it runs.
const HOLD: u8 = 0xF0;
/// Appended past the plan's input, marks a request for [`runner`]: it
/// runs under a zero deadline, so it is abandoned once its arena is
/// stamped.
const ABANDON: u8 = 0xF1;

fn marked(input: &[u8], mark: u8) -> Vec<u8> {
    [input, &[mark]].concat()
}

/// The gateway's runner in this suite: a marked input runs without its
/// mark as the mark says; any other input runs as in every gateway.
fn runner(
    plan: &InferencePlan,
    input: &[u8],
    arena: &mut InferArena,
    out: &mut Vec<u8>,
    opts: &ExecOptions,
) -> Result<(), InferError> {
    match input.split_last() {
        Some((&HOLD, rest)) if rest.len() == plan.input_len() => {
            std::thread::sleep(Duration::from_millis(100));
            plan.try_execute_into(rest, arena, out, opts)
        }
        Some((&ABANDON, rest)) if rest.len() == plan.input_len() => {
            plan.try_execute_into(rest, arena, out, &zero_deadline())
        }
        _ => plan.try_execute_into(input, arena, out, opts),
    }
}

/// A one-worker gateway over [`runner`] serving `plan` as `m`. Its one
/// worker keeps one arena for the plan and runs the requests in the
/// order they were submitted.
fn gateway(plan: &InferencePlan, capacity: usize, opts: ExecOptions) -> InferServer {
    let server = InferServer::with_runner(
        GatewayConfig {
            workers: 1,
            capacity,
            opts,
            ..GatewayConfig::default()
        },
        runner,
    );
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

/// `inputs` through a fresh one-worker gateway; every ticket's result
/// and the final counters.
fn served(plan: &InferencePlan, inputs: &[Vec<u8>], opts: ExecOptions) -> (Results, ServerStats) {
    let server = gateway(plan, inputs.len(), opts);
    let results = batch(&server, inputs);
    (results, server.shutdown())
}

#[test]
fn wrong_input_len_is_structured_and_does_not_contaminate() {
    let plan = plan();
    let good = batch_inputs(2);
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
    assert_eq!(
        results[0].as_ref().expect("healthy item"),
        &plan.execute(&good[0])
    );
    assert!(matches!(
        results[1],
        Err(InferError::InputShape {
            expected: INPUT_LEN,
            got: 3
        })
    ));
    assert_eq!(
        results[2].as_ref().expect("healthy item"),
        &plan.execute(&good[1])
    );
}

#[test]
fn cross_plan_arena_is_rejected() {
    let compiled = Compiler::new().compile(&net());
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
    let mut plan = plan();
    plan.verify_integrity().expect("pristine plan verifies");
    plan.chaos_corrupt_weights();
    let e = plan.verify_integrity().expect_err("corruption is caught");
    assert!(matches!(e, InferError::IntegrityViolation { .. }), "{e:?}");
    // Verified execution refuses to produce (silently wrong) output.
    let e = verified_in_turn(&plan, &batch_inputs(1))
        .remove(0)
        .expect_err("verified execution refuses a corrupt plan");
    assert!(matches!(e, InferError::IntegrityViolation { .. }), "{e:?}");
}

#[test]
fn schedule_tampering_fails_every_verified_run() {
    let mut plan = plan();
    plan.chaos_corrupt_schedule();
    for r in verified_in_turn(&plan, &batch_inputs(3)) {
        assert!(
            matches!(r, Err(InferError::IntegrityViolation { .. })),
            "{r:?}"
        );
    }
}

/// The executor's panic guard, under a real panic: a tampered schedule
/// run without the integrity check trips a kernel's output-size assertion
/// in its last step, and every entry point answers `Internal` with that
/// message instead of unwinding into the caller.
#[test]
fn a_panic_in_a_kernel_is_internal_through_every_entry_point() {
    let mut plan = plan();
    plan.chaos_corrupt_schedule();
    let input = batch_inputs(1).remove(0);
    let opts = ExecOptions::default();
    let caught = [
        plan.try_execute(&input).map(drop),
        plan.try_execute_into(&input, &mut plan.new_arena(), &mut Vec::new(), &opts),
        plan.try_execute_timed(&input, &mut plan.new_arena(), &opts)
            .map(drop),
    ];
    for r in caught {
        assert!(
            matches!(&r, Err(InferError::Internal { message }) if message.contains("output size mismatch")),
            "{r:?}"
        );
    }
}

#[test]
fn deadline_is_a_per_request_backstop_in_the_gateway() {
    let plan = plan();
    let (results, stats) = served(&plan, &batch_inputs(3), zero_deadline());
    for r in results {
        assert!(
            matches!(r, Err(InferError::DeadlineExceeded { .. })),
            "{r:?}"
        );
    }
    assert_eq!((stats.completed, stats.failed), (0, 3));
}

/// A zero deadline has passed by the first step boundary, so the run is
/// abandoned there — after it claimed its arena. The next run over that
/// arena, with no deadline, answers what a fresh arena does.
#[test]
fn an_abandoned_run_leaves_its_arena_reusable() {
    let compiled = Compiler::new().compile(&net());
    let (plan, other) = (
        compiled.inference_plan(SEED),
        compiled.inference_plan(SEED + 1),
    );
    let input = batch_inputs(1).remove(0);
    let (mut arena, mut out) = (InferArena::default(), Vec::new());
    match plan.try_execute_into(&input, &mut arena, &mut out, &zero_deadline()) {
        Err(InferError::DeadlineExceeded { elapsed, deadline }) => {
            assert!(elapsed > deadline);
            assert_eq!(deadline, Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let foreign =
        other.try_execute_into(&input, &mut arena, &mut Vec::new(), &ExecOptions::default());
    assert!(
        matches!(foreign, Err(InferError::ArenaMismatch { .. })),
        "the abandoned run stamped the arena: {foreign:?}"
    );
    plan.try_execute_into(&input, &mut arena, &mut out, &ExecOptions::default())
        .expect("the arena is reusable");
    assert_eq!(out, plan.execute(&input));
}

/// The same through a one-worker gateway: the request abandoned at its
/// deadline claimed the worker's arena for the plan, and the next
/// request runs over that arena bit-identically.
#[test]
fn an_abandoned_request_leaves_the_workers_arena_reusable() {
    let plan = plan();
    let input = batch_inputs(1).remove(0);
    let server = gateway(&plan, 4, ExecOptions::default());
    let abandoned = server.infer_on("m", marked(&input, ABANDON), 0);
    assert!(
        matches!(abandoned, Err(InferError::DeadlineExceeded { .. })),
        "{abandoned:?}"
    );
    assert_eq!(
        server.infer_on("m", input.clone(), 0),
        Ok(plan.execute(&input))
    );
    let stats = server.shutdown();
    assert_eq!((stats.completed, stats.failed), (1, 1));
}

/// One worker held busy by the first request and a one-slot queue: the
/// second request queues, every later one is refused `QueueFull`, and
/// everything accepted comes back bit-identical.
#[test]
fn server_backpressure_rejects_cleanly_and_serves_bit_identical() {
    let plan = plan();
    let inputs = batch_inputs(6);
    let server = gateway(&plan, 1, ExecOptions::default());
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for (i, input) in inputs.iter().enumerate() {
        let request = if i == 0 {
            marked(input, HOLD)
        } else {
            input.clone()
        };
        match server.submit_to("m", request, 0) {
            Ok(t) => tickets.push((i, t)),
            Err(InferError::QueueFull { capacity }) => {
                assert_eq!(capacity, 1);
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(rejected, inputs.len() - 2, "one running, one queued");
    for (i, ticket) in tickets {
        assert_eq!(
            ticket.wait().expect("accepted requests are served"),
            plan.execute(&inputs[i])
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.rejected, rejected as u64);
    assert_eq!(stats.accepted + stats.rejected, inputs.len() as u64);
    assert_eq!(stats.completed, stats.accepted);
    assert_eq!(stats.failed, 0);
}
