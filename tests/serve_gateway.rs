//! Gateway determinism gate: dynamic batching is a **scheduling**
//! optimization, never a numerical one.
//!
//! A batch runs its requests one after another through the single-shot
//! executor, over the one arena its worker checked out — so for *any*
//! combination of `max_batch`, `max_wait`, and worker count, whatever
//! arena a request runs on and whatever ran on it before, the gateway
//! must return bytes identical to `InferencePlan::execute`. This suite is
//! the gate on that claim, plus the multi-model scatter (interleaved
//! traffic for different models never cross-contaminates).

use gcd2_repro::cgraph::{Activation, Graph, OpKind, TShape};
use gcd2_repro::compiler::{Compiler, ExecOptions, GatewayConfig, InferServer, InferencePlan};
use std::time::Duration;

const INPUT_LEN: usize = 4 * 10 * 10;

/// A conv net crossing every kind of step: an im2col conv GEMM, a
/// depthwise kernel, elementwise and pool steps, and a final FC.
fn conv_net(seed: u64) -> InferencePlan {
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 4, 10, 10));
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
    let gap = g.add(OpKind::GlobalAvgPool, &[dw], "gap");
    let flat = g.add(
        OpKind::Reshape {
            shape: TShape::new(vec![1, 8]),
        },
        &[gap],
        "flat",
    );
    let fc = g.add(OpKind::MatMul { n: 6 }, &[flat], "fc");
    g.add(OpKind::Softmax, &[fc], "sm");
    Compiler::new().compile(&g).inference_plan(seed)
}

fn inputs(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|s| {
            (0..INPUT_LEN)
                .map(|i| ((i * 7 + s * 11) % 16) as u8)
                .collect()
        })
        .collect()
}

#[test]
fn every_batching_configuration_is_bit_identical_to_single_shot() {
    let plan = conv_net(51);
    let ins = inputs(20);
    let expect: Vec<Vec<u8>> = ins.iter().map(|i| plan.execute(i)).collect();
    // (workers, max_batch, max_wait): batching off, aggressive
    // coalescing, mid-size batches across workers, and age-dominated
    // dispatch. The bytes must not care.
    let configs = [
        (1usize, 1usize, Duration::ZERO),
        (1, 16, Duration::from_millis(5)),
        (2, 4, Duration::from_micros(300)),
        (3, 8, Duration::from_millis(1)),
    ];
    for (workers, max_batch, max_wait) in configs {
        let server = InferServer::gateway(GatewayConfig {
            workers,
            capacity: 256,
            max_batch,
            max_wait,
            opts: ExecOptions::default(),
            ..GatewayConfig::default()
        });
        server.register("m", plan.clone()).expect("register");
        let tickets: Vec<_> = ins
            .iter()
            .map(|i| server.submit_to("m", i.clone(), 0).expect("admitted"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            assert_eq!(
                ticket.wait().expect("served"),
                expect[i],
                "workers={workers} max_batch={max_batch} max_wait={max_wait:?} request {i}"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, ins.len() as u64);
        assert_eq!(stats.failed, 0);
        // No fault is armed, so the self-healing layer must have been
        // invisible.
        let interventions = [
            ("hung", stats.hung),
            ("workers_replaced", stats.workers_replaced),
            ("retries", stats.retries),
            ("demotions", stats.demotions),
            ("breaker_rejected", stats.breaker_rejected),
            ("abandoned", stats.abandoned),
        ];
        for (counter, n) in interventions {
            assert_eq!(n, 0, "workers={workers} max_batch={max_batch}: {counter}");
        }
    }
}

#[test]
fn interleaved_multi_model_traffic_never_cross_contaminates() {
    let plan_a = conv_net(52);
    let plan_b = conv_net(53);
    let ins = inputs(12);
    let server = InferServer::gateway(GatewayConfig {
        workers: 2,
        capacity: 128,
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        opts: ExecOptions::default(),
        ..GatewayConfig::default()
    });
    server.register("a", plan_a.clone()).expect("register a");
    server.register("b", plan_b.clone()).expect("register b");
    // Strictly interleaved submissions: the scheduler must keep each
    // model's batches on that model's plan and arenas.
    let tickets: Vec<_> = ins
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let model = if i % 2 == 0 { "a" } else { "b" };
            (
                i,
                model,
                server.submit_to(model, input.clone(), 0).expect("admitted"),
            )
        })
        .collect();
    for (i, model, ticket) in tickets {
        let expect = if model == "a" {
            plan_a.execute(&ins[i])
        } else {
            plan_b.execute(&ins[i])
        };
        assert_eq!(
            ticket.wait().expect("served"),
            expect,
            "request {i} ({model})"
        );
    }
    let a = server.model_stats("a").expect("a registered");
    let b = server.model_stats("b").expect("b registered");
    assert_eq!(a.completed, 6);
    assert_eq!(b.completed, 6);
    assert_eq!(a.failed + b.failed, 0);
    server.shutdown();
}
