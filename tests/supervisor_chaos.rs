//! Supervisor chaos suite: seeded fault injection against the
//! self-healing layer of the serving gateway.
//!
//! `tests/gateway_chaos.rs` proves the gateway answers every ticket
//! under mid-batch panics; this suite proves the **supervision layer
//! on top of it** — watchdog, circuit breaker, seeded retries, ISA
//! demotion — recovers from the faults that layer exists for, and
//! (just as important) stays invisible when nothing is wrong. The
//! contract per scenario:
//!
//! * a wedged worker is detected, its tickets answered with a
//!   structured [`InferError::Hung`], and a replacement keeps serving
//!   bit-identically — including when the hang lands mid-drain or
//!   races shutdown;
//! * a fault storm trips the model's breaker Open (structured
//!   [`InferError::BreakerOpen`] sheds, no queue traffic), and the
//!   breaker recovers through HalfOpen probes once the storm passes;
//! * transient faults inside the retry budget are retried to an output
//!   **bit-identical** to an undisturbed run; persistent faults
//!   exhaust the budget into a structured error;
//! * kernel-attributed fault bursts demote the model to the bit-exact
//!   scalar tier, and an elapsed quarantine re-promotes it;
//! * seed-derived supervisor fault plans (hangs + panics + delays
//!   across all three layers) always terminate with every ticket
//!   resolved bit-identical or structured;
//! * under healthy traffic every supervision counter stays zero.
//!
//! Run with `cargo test --features fault-injection --test
//! supervisor_chaos`; the suite is absent from the uninstrumented
//! build. `GCD2_CHAOS_SEED` adds a seed to the sweep.

#![cfg(feature = "fault-injection")]

use gcd2_repro::cgraph::{Graph, OpKind, TShape};
use gcd2_repro::compiler::{
    BreakerState, Compiler, ExecOptions, GatewayConfig, HealthEvent, InferError, InferServer,
    InferencePlan, SupervisorConfig,
};
use gcd2_repro::faults::{arm, chaos_seeds, Armed, FaultKind, FaultPlan, Layer};
use std::time::Duration;

const INPUT_LEN: usize = 32;

/// Same two-GEMM net the gateway chaos suite drives: crosses the
/// `infer.gemm`/`infer.prep` points inside a batch, cheap enough that
/// hang deadlines in the tens of milliseconds are generous.
fn supervised_net(n_out: usize, seed: u64) -> InferencePlan {
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

/// Holds the chaos gate with an **empty** plan: serializes against
/// other armed tests so baselines neither consume triggers nor get hit.
fn quiet() -> Armed {
    arm(FaultPlan::new())
}

/// Structured resolutions legal under injected supervisor chaos. The
/// supervisor adds its own structured verdicts (`Hung`, `BreakerOpen`)
/// on top of the runtime's injected panics.
fn assert_injected(e: &InferError) {
    if let InferError::Internal { message } = e {
        assert!(
            message.contains("injected fault"),
            "non-injected internal error: {message}"
        );
    }
}

/// A single-worker gateway with immediate dispatch: every submission
/// becomes its own batch, so per-batch fault triggers and breaker
/// records are deterministic.
fn one_worker(supervisor: SupervisorConfig) -> GatewayConfig {
    GatewayConfig {
        workers: 1,
        capacity: 64,
        max_batch: 1,
        max_wait: Duration::ZERO,
        opts: ExecOptions::default(),
        supervisor,
    }
}

/// Scenario 1: a wedged worker. A `Delay` at `serve.hang` overruns the
/// hang deadline; the watchdog answers the ticket with a structured
/// [`InferError::Hung`], wedges the worker, and spawns a replacement
/// that serves the next request bit-identically.
#[test]
fn hung_batch_is_answered_and_worker_replaced() {
    let plan = supervised_net(8, 71);
    let ins = inputs(2);
    let expect = {
        let _quiet = quiet();
        plan.execute(&ins[1])
    };
    let _armed = arm(FaultPlan::new().once("serve.hang", FaultKind::Delay { millis: 150 }, 1));
    let server = InferServer::gateway(one_worker(SupervisorConfig {
        hang_deadline: Duration::from_millis(25),
        ..SupervisorConfig::default()
    }));
    server.register("m", plan).expect("register");
    let hung = server
        .infer_on("m", ins[0].clone(), 0)
        .expect_err("the watchdog answers the hung batch");
    match &hung {
        InferError::Hung {
            model,
            elapsed,
            deadline,
        } => {
            assert_eq!(model, "m");
            assert_eq!(*deadline, Duration::from_millis(25));
            assert!(*elapsed >= *deadline, "{elapsed:?} < {deadline:?}");
        }
        other => panic!("expected Hung, got {other:?}"),
    }
    // The replacement worker serves the follow-up bit-identically.
    assert_eq!(
        server
            .infer_on("m", ins[1].clone(), 0)
            .expect("replacement serves"),
        expect
    );
    let health = server.health();
    assert!(health.workers.iter().any(|w| w.wedged));
    assert!(health.events.iter().any(
        |(_, e)| matches!(e, HealthEvent::WorkerHung { model, in_flight, .. }
            if model == "m" && *in_flight == 1)
    ));
    assert!(health
        .events
        .iter()
        .any(|(_, e)| matches!(e, HealthEvent::WorkerReplaced { .. })));
    let stats = server.shutdown();
    assert_eq!(stats.hung, 1);
    assert_eq!(stats.workers_replaced, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

/// Scenario 2: a batch that hangs **mid-drain**. The watchdog stays
/// alive until every worker handle is swept, so a hang that lands
/// while the gateway is draining is still answered and the drain
/// completes instead of deadlocking on the wedged thread.
#[test]
fn hung_batch_mid_drain_is_still_answered() {
    let plan = supervised_net(8, 72);
    let ins = inputs(1);
    let _armed = arm(FaultPlan::new().once("serve.hang", FaultKind::Delay { millis: 150 }, 1));
    let server = InferServer::gateway(one_worker(SupervisorConfig {
        hang_deadline: Duration::from_millis(25),
        ..SupervisorConfig::default()
    }));
    server.register("m", plan).expect("register");
    let ticket = server.submit_to("m", ins[0].clone(), 0).expect("admitted");
    // Yank the gate while the worker is (about to be) asleep inside the
    // batch; the watchdog must answer the ticket during the drain.
    server.drain();
    let resolved = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || ticket.wait());
        let stats = server.shutdown();
        assert_eq!(stats.hung, 1);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.failed, 1);
        waiter.join().expect("waiter")
    });
    assert!(
        matches!(resolved, Err(InferError::Hung { .. })),
        "{resolved:?}"
    );
}

/// Scenario 3: shutdown racing a wedged worker. The drain must not
/// block on the hung thread: the watchdog answers its ticket, the
/// handle is detached, and `shutdown` returns well before the wedged
/// batch's sleep elapses.
#[test]
fn watchdog_races_shutdown_without_blocking_on_the_wedged_thread() {
    let plan = supervised_net(8, 73);
    let ins = inputs(1);
    let _armed = arm(FaultPlan::new().once("serve.hang", FaultKind::Delay { millis: 400 }, 1));
    let server = InferServer::gateway(one_worker(SupervisorConfig {
        hang_deadline: Duration::from_millis(20),
        ..SupervisorConfig::default()
    }));
    server.register("m", plan).expect("register");
    let ticket = server.submit_to("m", ins[0].clone(), 0).expect("admitted");
    let t0 = std::time::Instant::now();
    let stats = server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_millis(400),
        "shutdown waited out the wedged batch: {:?}",
        t0.elapsed()
    );
    assert_eq!(stats.hung, 1);
    assert!(matches!(ticket.wait(), Err(InferError::Hung { .. })));
}

/// Scenario 4: a sustained fault storm trips the model's circuit
/// breaker; submissions shed with a structured [`InferError::BreakerOpen`]
/// while Open, and once the storm passes the breaker recovers through
/// HalfOpen probes back to Closed — with the full transition history
/// in the health event log.
#[test]
fn breaker_trips_sheds_and_recovers_through_probes() {
    let plan = supervised_net(8, 74);
    let ins = inputs(1);
    let expect = {
        let _quiet = quiet();
        plan.execute(&ins[0])
    };
    let server = InferServer::gateway(one_worker(SupervisorConfig {
        breaker_window: 4,
        breaker_min_samples: 4,
        breaker_threshold_pct: 50,
        breaker_cooldown: Duration::from_millis(40),
        breaker_probes: 2,
        ..SupervisorConfig::default()
    }));
    server.register("m", plan).expect("register");
    {
        let _storm = arm(FaultPlan::new().sticky("serve.batch", FaultKind::Panic, 1));
        for _ in 0..4 {
            let e = server
                .infer_on("m", ins[0].clone(), 0)
                .expect_err("storm batch fails");
            assert!(matches!(e, InferError::Internal { .. }), "{e:?}");
            assert_injected(&e);
        }
    }
    // Four errors in a four-sample window at a 50% threshold: Open.
    let stats = server.model_stats("m").expect("registered");
    assert_eq!(stats.breaker, BreakerState::Open);
    let shed = server
        .infer_on("m", ins[0].clone(), 0)
        .expect_err("open breaker sheds before queueing");
    match &shed {
        InferError::BreakerOpen { model, retry_after } => {
            assert_eq!(model, "m");
            assert!(*retry_after <= Duration::from_millis(40));
        }
        other => panic!("expected BreakerOpen, got {other:?}"),
    }
    // Storm disarmed, cooldown elapsed: two successful HalfOpen probes
    // close the breaker, and traffic is bit-identical again.
    let _quiet = quiet();
    std::thread::sleep(Duration::from_millis(50));
    for _ in 0..3 {
        assert_eq!(
            server.infer_on("m", ins[0].clone(), 0).expect("recovered"),
            expect
        );
    }
    let stats = server.model_stats("m").expect("registered");
    assert_eq!(stats.breaker, BreakerState::Closed);
    assert_eq!(stats.breaker_rejected, 1);
    let health = server.health();
    for want in ["BreakerOpened", "BreakerHalfOpen", "BreakerClosed"] {
        assert!(
            health.events.iter().any(|(_, e)| match e {
                HealthEvent::BreakerOpened { model } => want == "BreakerOpened" && model == "m",
                HealthEvent::BreakerHalfOpen { model } => want == "BreakerHalfOpen" && model == "m",
                HealthEvent::BreakerClosed { model } => want == "BreakerClosed" && model == "m",
                _ => false,
            }),
            "missing {want} in {:?}",
            health.events
        );
    }
    let totals = server.shutdown();
    assert_eq!(totals.breaker_rejected, 1);
    assert_eq!(totals.completed, 3);
    assert_eq!(totals.failed, 4);
}

/// Scenario 5: a transient fault inside the retry budget. The first
/// attempt panics, the seeded-backoff retry succeeds, and the retried
/// output is **bit-identical** to an undisturbed run — the property
/// that makes retries safe to enable at all.
#[test]
fn transient_fault_is_retried_bit_identical() {
    let plan = supervised_net(8, 75);
    let ins = inputs(1);
    let expect = {
        let _quiet = quiet();
        plan.execute(&ins[0])
    };
    let _armed = arm(FaultPlan::new().once("serve.batch", FaultKind::Panic, 1));
    let server = InferServer::gateway(one_worker(SupervisorConfig {
        retry_budget: 2,
        retry_backoff_base: Duration::from_micros(100),
        ..SupervisorConfig::default()
    }));
    server.register("m", plan).expect("register");
    assert_eq!(
        server
            .infer_on("m", ins[0].clone(), 0)
            .expect("retry absorbs the transient fault"),
        expect
    );
    let health = server.health();
    assert!(health.events.iter().any(
        |(_, e)| matches!(e, HealthEvent::RetrySucceeded { model, attempt }
            if model == "m" && *attempt == 1)
    ));
    let stats = server.shutdown();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.retries_exhausted, 0);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 0);
}

/// Scenario 6: a persistent fault exhausts the retry budget. Every
/// attempt (including injected `serve.retry` failures) burns one of
/// `1 + retry_budget` tries; the caller gets the structured error, the
/// books record the exhaustion, and the gateway keeps serving.
#[test]
fn persistent_fault_exhausts_retry_budget_structurally() {
    let plan = supervised_net(8, 76);
    let ins = inputs(1);
    let expect = {
        let _quiet = quiet();
        plan.execute(&ins[0])
    };
    let server = InferServer::gateway(one_worker(SupervisorConfig {
        retry_budget: 2,
        retry_backoff_base: Duration::from_micros(100),
        ..SupervisorConfig::default()
    }));
    server.register("m", plan).expect("register");
    {
        let _storm = arm(FaultPlan::new().sticky("serve.batch", FaultKind::Panic, 1));
        let e = server
            .infer_on("m", ins[0].clone(), 0)
            .expect_err("every attempt fails");
        assert!(matches!(e, InferError::Internal { .. }), "{e:?}");
        assert_injected(&e);
    }
    let health = server.health();
    assert!(health.events.iter().any(
        |(_, e)| matches!(e, HealthEvent::RetriesExhausted { model, attempts }
            if model == "m" && *attempts == 3)
    ));
    // Storm gone: the same worker serves cleanly.
    let _quiet = quiet();
    assert_eq!(
        server.infer_on("m", ins[0].clone(), 0).expect("serves"),
        expect
    );
    let stats = server.shutdown();
    assert_eq!(stats.retries, 2, "budget of 2 spent on the sticky fault");
    assert_eq!(stats.retries_exhausted, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

/// Scenario 7: kernel-attributed fault bursts demote the model to the
/// bit-exact scalar tier; while quarantined it serves bit-identically
/// on the scalar oracle, and the elapsed quarantine re-promotes it.
#[test]
fn kernel_fault_burst_demotes_to_scalar_and_quarantine_repromotes() {
    let plan = supervised_net(8, 77);
    let ins = inputs(1);
    let expect = {
        let _quiet = quiet();
        plan.execute(&ins[0])
    };
    let server = InferServer::gateway(one_worker(SupervisorConfig {
        demote_after: 2,
        quarantine: Duration::from_millis(300),
        ..SupervisorConfig::default()
    }));
    server.register("m", plan).expect("register");
    {
        let _storm = arm(FaultPlan::new().sticky("infer.gemm", FaultKind::Panic, 1));
        for _ in 0..2 {
            let e = server
                .infer_on("m", ins[0].clone(), 0)
                .expect_err("kernel fault");
            assert_injected(&e);
        }
    }
    // The demotion CAS is the worker's trailing bookkeeping — it runs
    // *after* the failing ticket is answered, so give it a beat.
    let deadline = std::time::Instant::now() + Duration::from_millis(200);
    while !server.model_stats("m").expect("registered").demoted {
        assert!(
            std::time::Instant::now() < deadline,
            "two kernel-attributed faults must demote"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = server.model_stats("m").expect("registered");
    assert_eq!(stats.demotions, 1);
    assert!(stats.kernel_faults >= 2);
    // Quarantined: the scalar oracle serves bit-identically.
    let _quiet = quiet();
    assert_eq!(
        server
            .infer_on("m", ins[0].clone(), 0)
            .expect("scalar tier serves"),
        expect
    );
    assert!(server.model_stats("m").expect("registered").demoted);
    // Quarantine elapses: the next batch re-promotes and still matches.
    std::thread::sleep(Duration::from_millis(350));
    assert_eq!(
        server
            .infer_on("m", ins[0].clone(), 0)
            .expect("re-promoted tier serves"),
        expect
    );
    let stats = server.model_stats("m").expect("registered");
    assert!(!stats.demoted, "quarantine elapsed");
    assert_eq!(stats.kernel_faults, 0, "fault count restarts");
    let health = server.health();
    assert!(health
        .events
        .iter()
        .any(|(_, e)| matches!(e, HealthEvent::Demoted { model, .. } if model == "m")));
    assert!(health
        .events
        .iter()
        .any(|(_, e)| matches!(e, HealthEvent::Repromoted { model } if model == "m")));
    let totals = server.shutdown();
    assert_eq!(totals.demotions, 1);
    assert_eq!(totals.repromotions, 1);
}

/// Scenario 8: seed-derived supervisor fault plans — hangs, panics,
/// and delays across the supervisor, gateway, and runtime layers.
/// Whatever the plan, every ticket resolves bit-identical or
/// structured, and the process survives to serve cleanly afterwards.
/// Eight requests, for the reason the gateway suite's seeded scenario
/// gives: the per-request GEMM points are then crossed 16 times, the
/// span a seed draws triggers from.
#[test]
fn seeded_supervisor_fault_plans_resolve_structured_or_identical() {
    let plan = supervised_net(8, 78);
    let ins = inputs(8);
    let expect: Vec<Vec<u8>> = {
        let _quiet = quiet();
        ins.iter().map(|i| plan.execute(i)).collect()
    };
    for seed in chaos_seeds(&[2024, 7, 19]) {
        let fault_plan = FaultPlan::from_seed(Layer::Supervisor, seed);
        let armed = arm(fault_plan.clone());
        let server = InferServer::gateway(GatewayConfig {
            workers: 2,
            capacity: 64,
            max_batch: 4,
            max_wait: Duration::from_micros(500),
            opts: ExecOptions::default(),
            supervisor: SupervisorConfig {
                // Seeded delays top out at 3ms: a 100ms deadline means
                // the watchdog watches without spurious hang verdicts.
                hang_deadline: Duration::from_millis(100),
                retry_budget: 1,
                retry_backoff_base: Duration::from_micros(100),
                breaker_window: 8,
                breaker_min_samples: 4,
                breaker_threshold_pct: 75,
                breaker_cooldown: Duration::from_millis(5),
                breaker_probes: 1,
                demote_after: 3,
                quarantine: Duration::from_millis(10),
                ..SupervisorConfig::default()
            },
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
        let stats = server.shutdown();
        assert_eq!(
            stats.accepted,
            stats.completed + stats.failed + stats.shed + stats.abandoned,
            "seed {seed}: the books must balance under chaos"
        );
        drop(armed);
        // The process (pools, caches, dispatch tables, scalar pins)
        // survives to serve cleanly after the chaos run.
        let _quiet = quiet();
        let clean = InferServer::start(plan.clone(), 1, 8, ExecOptions::default());
        assert_eq!(
            clean.infer(ins[0].clone()).expect("post-chaos sanity"),
            expect[0]
        );
    }
}

/// Scenario 9: healthy traffic under an **aggressive** supervisor —
/// tight breaker, retries enabled, hair-trigger demotion. With no
/// faults armed, every supervision counter stays zero, the event log
/// stays empty, and outputs are bit-identical: self-healing must cost
/// nothing when nothing is broken.
#[test]
fn healthy_traffic_leaves_the_supervisor_invisible() {
    let _quiet = quiet();
    let plan = supervised_net(8, 79);
    let ins = inputs(4);
    let expect: Vec<Vec<u8>> = ins.iter().map(|i| plan.execute(i)).collect();
    let server = InferServer::gateway(GatewayConfig {
        workers: 2,
        capacity: 64,
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        opts: ExecOptions::default(),
        supervisor: SupervisorConfig {
            hang_deadline: Duration::from_millis(250),
            retry_budget: 2,
            breaker_window: 4,
            breaker_min_samples: 2,
            breaker_threshold_pct: 25,
            demote_after: 1,
            ..SupervisorConfig::default()
        },
    });
    server.register("m", plan).expect("register");
    for round in 0..5 {
        for (i, input) in ins.iter().enumerate() {
            assert_eq!(
                server.infer_on("m", input.clone(), 0).expect("served"),
                expect[i],
                "round {round}"
            );
        }
    }
    let health = server.health();
    assert!(health.events.is_empty(), "{:?}", health.events);
    assert!(health.workers.iter().all(|w| !w.wedged));
    let stats = server.shutdown();
    assert_eq!(stats.completed, 20);
    assert_eq!(
        (
            stats.hung,
            stats.workers_replaced,
            stats.retries,
            stats.retries_exhausted,
            stats.demotions,
            stats.repromotions,
            stats.breaker_rejected,
            stats.abandoned
        ),
        (0, 0, 0, 0, 0, 0, 0, 0)
    );
}
