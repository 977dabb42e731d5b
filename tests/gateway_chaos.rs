//! Gateway chaos suite: seeded fault injection and adversarial load
//! against the dynamic-batching multi-model serving gateway.
//!
//! The robustness contract extends `tests/runtime_chaos.rs` to the
//! gateway layer: **every** ticket the gateway accepts must resolve —
//! to output bit-identical to single-shot execution, or to a clean
//! structured [`InferError`] — under mid-batch panics, registry churn,
//! shed storms, and drain races. A panic inside one request must fail
//! that request alone, a panic in the batch round around the requests
//! exactly that batch's tickets (and no others), and the worker must
//! keep serving. Run with
//! `cargo test --features fault-injection --test gateway_chaos`; the
//! suite is absent from the default (uninstrumented) build.

#![cfg(feature = "fault-injection")]

use gcd2_repro::cgraph::{Graph, OpKind, TShape};
use gcd2_repro::compiler::{
    Compiler, ExecOptions, GatewayConfig, InferError, InferServer, InferencePlan, SupervisorConfig,
};
use gcd2_repro::faults::{arm, chaos_seeds, hits, Armed, FaultKind, FaultPlan, Layer};
use std::time::Duration;

const INPUT_LEN: usize = 32;

/// A two-GEMM net: big enough to cross the `infer.gemm`/`infer.prep`
/// points inside a batch, small enough for storms of requests.
fn gateway_net(n_out: usize, seed: u64) -> InferencePlan {
    let mut g = Graph::new();
    let x = g.input("x", TShape::new(vec![1, INPUT_LEN]));
    let fc1 = g.add(OpKind::MatMul { n: 24 }, &[x], "fc1");
    let fc2 = g.add(OpKind::MatMul { n: n_out }, &[fc1], "fc2");
    g.add(OpKind::Softmax, &[fc2], "sm");
    Compiler::new().compile(&g).inference_plan(seed)
}

fn inputs(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|s| {
            (0..INPUT_LEN)
                .map(|i| ((i * 5 + s * 3) % 16) as u8)
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

fn assert_injected(e: &InferError) {
    if let InferError::Internal { message } = e {
        assert!(
            message.contains("injected fault"),
            "non-injected internal error: {message}"
        );
    }
}

/// Scenario 1: a panic in a batch round (`serve.batch`, which fires once
/// per round, outside the per-request guard) resolves exactly that
/// batch's tickets with structured errors; the next batch — same
/// worker — serves bit-identically.
#[test]
fn mid_batch_panic_isolates_to_that_batchs_tickets() {
    let plan = gateway_net(8, 41);
    let ins = inputs(8);
    let expect: Vec<Vec<u8>> = {
        let _quiet = quiet();
        ins.iter().map(|i| plan.execute(i)).collect()
    };
    let _armed = arm(FaultPlan::new().once("serve.batch", FaultKind::Panic, 1));
    let server = InferServer::gateway(GatewayConfig {
        workers: 1,
        capacity: 64,
        max_batch: 4,
        // Generous: batches dispatch on fill (4 queued), never on age,
        // so the split into [0..4][4..8] is deterministic.
        max_wait: Duration::from_millis(250),
        opts: ExecOptions::default(),
        ..GatewayConfig::default()
    });
    server.register("m", plan).expect("register");
    let tickets: Vec<_> = ins
        .iter()
        .map(|i| server.submit_to("m", i.clone(), 0).expect("admitted"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let r = ticket.wait();
        if i < 4 {
            let e = r.expect_err("first batch took the panic");
            assert!(
                matches!(e, InferError::Internal { .. }),
                "ticket {i}: {e:?}"
            );
            assert_injected(&e);
        } else {
            assert_eq!(
                r.expect("second batch survives its sibling's panic"),
                expect[i],
                "ticket {i}"
            );
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.failed, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.batches, 2);
}

/// Scenario 1b: a panic inside one request of a batch fails that ticket
/// alone; the other three requests of the batch, run over the same arena
/// after it, answer bit-identically. Retries are off, so nothing re-runs.
#[test]
fn a_panic_in_one_request_fails_that_ticket_alone() {
    let plan = gateway_net(8, 48);
    let ins = inputs(4);
    let expect: Vec<Vec<u8>> = {
        let _quiet = quiet();
        ins.iter().map(|i| plan.execute(i)).collect()
    };
    // Non-GEMM steps of one request, each one `infer.elementwise` hit:
    // one more is the second request's first.
    let per_request = {
        let _quiet = quiet();
        plan.execute(&ins[0]);
        hits("infer.elementwise")
    };
    let fault = FaultPlan::new().once("infer.elementwise", FaultKind::Panic, per_request + 1);
    let _armed = arm(fault);
    let server = InferServer::gateway(GatewayConfig {
        workers: 1,
        max_batch: 4,
        // Dispatch on fill: the four requests are one batch.
        max_wait: Duration::from_secs(30),
        supervisor: SupervisorConfig {
            retry_budget: 0,
            ..SupervisorConfig::default()
        },
        ..GatewayConfig::default()
    });
    server.register("m", plan).expect("register");
    let tickets: Vec<_> = ins
        .iter()
        .map(|i| server.submit_to("m", i.clone(), 0).expect("admitted"))
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let r = ticket.wait();
        if i == 1 {
            let e = r.expect_err("the second request took the panic");
            assert!(matches!(e, InferError::Internal { .. }), "{e:?}");
            assert_injected(&e);
        } else {
            assert_eq!(
                r.expect("its batch siblings survive"),
                expect[i],
                "ticket {i}"
            );
        }
    }
    let stats = server.shutdown();
    assert_eq!((stats.batches, stats.completed, stats.failed), (1, 3, 1));
}

/// Scenario 2: checksum-keyed swaps under concurrent load — every
/// request resolves bit-identical to *some* registered plan version,
/// never to a torn mixture, and a stale swap key is refused.
#[test]
fn registry_swap_under_load_stays_bit_identical() {
    let plan_a = gateway_net(8, 42);
    let plan_b = gateway_net(8, 43);
    let ins = inputs(4);
    let (expect_a, expect_b): (Vec<Vec<u8>>, Vec<Vec<u8>>) = {
        let _quiet = quiet();
        (
            ins.iter().map(|i| plan_a.execute(i)).collect(),
            ins.iter().map(|i| plan_b.execute(i)).collect(),
        )
    };
    let _quiet = quiet();
    let server = InferServer::gateway(GatewayConfig {
        workers: 2,
        capacity: 256,
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        opts: ExecOptions::default(),
        ..GatewayConfig::default()
    });
    let sum_a = server.register("m", plan_a.clone()).expect("register");
    std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..3)
            .map(|t| {
                let server = &server;
                let ins = &ins;
                let expect_a = &expect_a;
                let expect_b = &expect_b;
                scope.spawn(move || {
                    for round in 0..40 {
                        let idx = (t + round) % ins.len();
                        match server.infer_on("m", ins[idx].clone(), 0) {
                            Ok(out) => assert!(
                                out == expect_a[idx] || out == expect_b[idx],
                                "request served by neither plan version"
                            ),
                            // Queue-full backpressure is legal under storm.
                            Err(InferError::QueueFull { .. }) => {}
                            Err(e) => panic!("unexpected serve error: {e:?}"),
                        }
                    }
                })
            })
            .collect();
        // Mid-load: a stale key is refused, the real key swaps.
        let stale = server.swap("m", sum_a ^ 0xFF, plan_b.clone());
        assert!(
            matches!(stale, Err(InferError::IntegrityViolation { .. })),
            "{stale:?}"
        );
        let sum_b = server.swap("m", sum_a, plan_b.clone()).expect("keyed swap");
        assert_eq!(sum_b, plan_b.checksum());
        for s in submitters {
            s.join().expect("submitter");
        }
    });
    // After the swap settles, traffic follows the new plan exclusively.
    assert_eq!(
        server.infer_on("m", ins[0].clone(), 0).expect("served"),
        expect_b[0]
    );
    let stats = server.shutdown();
    assert_eq!(stats.failed, 0);
}

/// Scenario 3: a shed storm — floods of ascending priority against a
/// tiny parked queue. Every accepted ticket resolves exactly once
/// (served or shed), lowest priorities go first, and the books balance.
#[test]
fn shed_storm_evicts_lowest_priority_and_answers_everything() {
    let plan = gateway_net(8, 44);
    let ins = inputs(1);
    let expect = {
        let _quiet = quiet();
        plan.execute(&ins[0])
    };
    let _quiet = quiet();
    let server = InferServer::gateway(GatewayConfig {
        workers: 1,
        capacity: 4,
        max_batch: 64,
        // Parks the worker: nothing dispatches until the drain flush,
        // so the storm's shed/reject arithmetic is deterministic.
        max_wait: Duration::from_secs(30),
        opts: ExecOptions::default(),
        ..GatewayConfig::default()
    });
    server.register("m", plan).expect("register");
    let submit = |prio: u8| server.submit_to("m", ins[0].clone(), prio);
    // Fill with priority 0.
    let p0: Vec<_> = (0..4).map(|_| submit(0).expect("fills")).collect();
    // Priority-1 wave: 4 evict the p0s, 4 more bounce off a p1-only queue.
    let p1: Vec<_> = (0..4).map(|_| submit(1).expect("evicts a p0")).collect();
    for _ in 0..4 {
        assert!(matches!(
            submit(1).map(|_| ()),
            Err(InferError::QueueFull { .. })
        ));
    }
    // Priority-2 spike: evicts two p1s.
    let p2: Vec<_> = (0..2).map(|_| submit(2).expect("evicts a p1")).collect();
    // Every p0 was shed, with its own priority in the error.
    for t in p0 {
        assert_eq!(
            t.wait(),
            Err(InferError::Shed {
                priority: 0,
                capacity: 4
            })
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 10, "4 p0 + 4 p1 + 2 p2");
    assert_eq!(stats.rejected, 4);
    assert_eq!(stats.shed, 6, "4 p0 + 2 p1 evicted");
    assert_eq!(stats.completed, 4, "drain serves the surviving queue");
    // Survivors: two p1 and both p2 served bit-identically; two p1 shed.
    let mut p1_shed = 0;
    for t in p1 {
        match t.wait() {
            Ok(out) => assert_eq!(out, expect),
            Err(InferError::Shed {
                priority: 1,
                capacity: 4,
            }) => p1_shed += 1,
            other => panic!("p1 ticket resolved oddly: {other:?}"),
        }
    }
    assert_eq!(p1_shed, 2);
    for t in p2 {
        assert_eq!(t.wait().expect("top priority survives the storm"), expect);
    }
}

/// Scenario 4: a drain racing live submitters — whatever interleaving
/// the race takes, every accepted ticket is answered bit-identically
/// and post-drain submissions are refused with a structured error.
#[test]
fn drain_race_answers_every_accepted_ticket() {
    let plan = gateway_net(8, 45);
    let ins = inputs(4);
    let expect: Vec<Vec<u8>> = {
        let _quiet = quiet();
        ins.iter().map(|i| plan.execute(i)).collect()
    };
    let _quiet = quiet();
    let server = InferServer::gateway(GatewayConfig {
        workers: 2,
        capacity: 1024,
        max_batch: 8,
        max_wait: Duration::from_micros(500),
        opts: ExecOptions::default(),
        ..GatewayConfig::default()
    });
    server.register("m", plan).expect("register");
    let (served, refused) = std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..4)
            .map(|t| {
                let server = &server;
                let ins = &ins;
                let expect = &expect;
                scope.spawn(move || {
                    let mut served = 0u64;
                    let mut refused = 0u64;
                    for round in 0..50 {
                        let idx = (t + round) % ins.len();
                        match server.submit_to("m", ins[idx].clone(), 0) {
                            Ok(ticket) => {
                                // Accepted before (or during) the drain:
                                // must be served, never dropped.
                                assert_eq!(
                                    ticket.wait().expect("accepted => answered"),
                                    expect[idx]
                                );
                                served += 1;
                            }
                            Err(InferError::Draining | InferError::ServerStopped) => refused += 1,
                            Err(e) => panic!("unexpected submit error: {e:?}"),
                        }
                    }
                    (served, refused)
                })
            })
            .collect();
        // Let the storm build, then yank the gate mid-flight.
        std::thread::sleep(Duration::from_millis(2));
        server.drain();
        assert_eq!(
            server.submit_to("m", ins[0].clone(), 0).map(|_| ()),
            Err(InferError::Draining)
        );
        submitters.into_iter().fold((0, 0), |(s, r), h| {
            let (hs, hr) = h.join().expect("submitter");
            (s + hs, r + hr)
        })
    });
    let stats = server.shutdown();
    assert_eq!(stats.accepted, served, "every accepted ticket was served");
    assert_eq!(stats.completed, served);
    assert_eq!(stats.failed, 0);
    assert_eq!(served + refused, 4 * 50);
    assert!(refused >= 1, "the drain landed mid-storm");
}

/// Scenario 5: `serve.registry` faults are contained — a panic surfaces
/// as a structured error (registration refused, gateway alive), a
/// corrupt-cache injection reads as an untrustworthy checksum.
#[test]
fn registry_faults_refuse_admission_structurally() {
    let plan = gateway_net(8, 46);
    let server = InferServer::gateway(GatewayConfig {
        workers: 1,
        ..GatewayConfig::default()
    });
    {
        let _armed = arm(FaultPlan::new().once("serve.registry", FaultKind::Panic, 1));
        let e = server
            .register("m", plan.clone())
            .expect_err("panicking admission refuses");
        assert!(matches!(e, InferError::Internal { .. }), "{e:?}");
        assert_injected(&e);
    }
    {
        let _armed = arm(FaultPlan::new().sticky("serve.registry", FaultKind::CorruptCache, 1));
        let e = server
            .register("m", plan.clone())
            .expect_err("corrupt registry entry refuses");
        assert!(matches!(e, InferError::IntegrityViolation { .. }), "{e:?}");
    }
    // Faults spent/disarmed: the same gateway admits and serves.
    let _quiet = quiet();
    server.register("m", plan.clone()).expect("clean admission");
    let input = inputs(1).remove(0);
    assert_eq!(
        server.infer_on("m", input.clone(), 0).expect("served"),
        plan.execute(&input)
    );
}

/// Seed-derived gateway fault plans: every ticket under randomized
/// gateway + runtime faults resolves bit-identical or structured, and
/// the gateway survives to serve a clean request after disarming.
/// `infer.prep` and `infer.gemm` fire once per request per GEMM however
/// the requests coalesce, so eight requests through the two-GEMM net
/// cross each 16 times — the whole span a gateway seed draws triggers
/// from (seed 7's `infer.prep @11 sticky` lands in the sixth request's
/// first GEMM and fails every staging after it; seed 2024's
/// `infer.gemm @9 sticky` does the same from the fifth request's first
/// multiply).
#[test]
fn seeded_gateway_fault_plans_terminate_bit_identical_or_structured() {
    let plan = gateway_net(8, 47);
    let ins = inputs(8);
    let expect: Vec<Vec<u8>> = {
        let _quiet = quiet();
        ins.iter().map(|i| plan.execute(i)).collect()
    };
    for seed in chaos_seeds(&[2024, 7, 19]) {
        let fault_plan = FaultPlan::from_seed(Layer::Gateway, seed);
        let armed = arm(fault_plan.clone());
        let server = InferServer::gateway(GatewayConfig {
            workers: 2,
            capacity: 64,
            max_batch: 4,
            max_wait: Duration::from_micros(500),
            opts: ExecOptions::default(),
            ..GatewayConfig::default()
        });
        if server.register("m", plan.clone()).is_err() {
            // A registry fault refused admission — structured, done.
            drop(server);
            drop(armed);
            continue;
        }
        let tickets: Vec<_> = ins
            .iter()
            .map(|i| server.submit_to("m", i.clone(), 0))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            match t {
                Ok(ticket) => match ticket.wait() {
                    Ok(out) => assert_eq!(out, expect[i], "seed {seed} diverged ({fault_plan:?})"),
                    Err(e) => assert_injected(&e),
                },
                Err(e) => assert_injected(&e),
            }
        }
        server.shutdown();
        drop(armed);
        // The process (pools, caches, dispatch tables) survives to serve
        // cleanly after the chaos run.
        let _quiet = quiet();
        let clean = InferServer::start(plan.clone(), 1, 8, ExecOptions::default());
        assert_eq!(
            clean.infer(ins[0].clone()).expect("post-chaos sanity"),
            expect[0]
        );
    }
}
