//! Gateway scenarios: the serving gateway's decisions, driven event by
//! event through its sans-I/O core (`gcd2::serve::core`).
//!
//! The core is the gateway minus its threads: every submission, worker
//! result, timer tick, drain and registry change is one
//! `step(now_us, event)` returning the actions the shell would carry
//! out. So each scenario below is one row of a table — a script of
//! events on a logical clock, and the answers, counters, model stats and
//! health events it must produce, payloads included — with no thread, no
//! sleep and no armed fault. A hang is a tick past the hang deadline
//! with no `done`; a failed or transient request is a `done` that
//! carries the error; a late answer is a `done` from a worker the core
//! already replaced. Every step also checks the invariants against what
//! the harness itself saw: no ticket answered twice, the counters match
//! the answers, deadlines lie ahead, and queued work is never stranded.
//!
//! The explorer walks **every** interleaving of submissions, results,
//! ticks, an abandonment and a drain over a few workers and tickets,
//! with a fault at every position it can take, and checks that each
//! path ends drained with every accepted ticket answered exactly once.
//!
//! Under `fault-injection` a short real-thread smoke wedges a worker
//! with an `infer.elementwise` delay, then swaps and drains.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Duration;

use gcd2_repro::compiler::serve::core::{Action, Core, Event, Ran, Work};
use gcd2_repro::compiler::{GatewayConfig, InferError, SupervisorConfig};

/// How a ticket ends, written `=P` (the output of plan `P`: the bytes
/// `[P, label, 0]`; `=P scalar` when it ran pinned to the scalar tier),
/// `!Error` (its submission refused with that error, in full `Debug`) or
/// `Error` (answered with that error).
type Got = String;

/// What a worker thread holds: the batch its last `Run` carried, the
/// requests its last `Run` or `Rerun` named, and whether it is running
/// them (handed work, no `done` posted since).
#[derive(Clone, Debug)]
struct Held {
    plan: u8,
    scalar: bool,
    labels: Vec<u32>,
    requests: Vec<usize>,
    running: bool,
}

/// The shell, minus its threads: steps the core, carries out its
/// actions the way the worker threads and ticket channels would, and
/// checks the invariants after every step. Plans are version numbers,
/// reply handles ticket labels (counted from 1).
#[derive(Clone)]
struct Harness {
    core: Core<u8, u32>,
    now: u64,
    labels: u32,
    /// Ticket number → label, for accepted submissions.
    tickets: BTreeMap<u64, u32>,
    got: BTreeMap<u32, Got>,
    /// Labels whose abandonment the core counted.
    abandoned: BTreeSet<u32>,
    work: BTreeMap<usize, Held>,
    /// What each registry event returned, in full `Debug`.
    registry: Vec<String>,
    /// A model snapshot per `stats` line.
    snapshots: Vec<String>,
    spawned: Vec<usize>,
    exits: Vec<usize>,
}

impl Harness {
    fn new(config: &GatewayConfig) -> Harness {
        let (core, spawns) = Core::new(config);
        let mut h = Harness {
            core,
            now: 0,
            labels: 0,
            tickets: BTreeMap::new(),
            got: BTreeMap::new(),
            abandoned: BTreeSet::new(),
            work: BTreeMap::new(),
            registry: Vec::new(),
            snapshots: Vec::new(),
            spawned: Vec::new(),
            exits: Vec::new(),
        };
        spawns.into_iter().for_each(|a| h.act(a, false));
        h
    }

    /// What `worker` reports for the requests it holds: `ok`, every one
    /// `transient` (a caught panic), a `kernel` panic in the first, or a
    /// malformed input (`shape`) in every one.
    fn ran(&self, worker: usize, outcome: &str) -> Vec<Ran> {
        let Some(held) = self.work.get(&worker) else {
            return Vec::new();
        };
        let result = |n: usize, label: u32| match (outcome, n) {
            ("transient", _) => Err(InferError::Internal {
                message: "panic".into(),
            }),
            ("kernel", 0) => Err(InferError::Internal {
                message: "gemm panic".into(),
            }),
            ("shape", _) => Err(InferError::InputShape {
                expected: 2,
                got: 1,
            }),
            _ => Ok(vec![held.plan, label as u8, u8::from(held.scalar)]),
        };
        let ran = |(n, &request): (usize, &usize)| Ran {
            request,
            result: result(n, held.labels[request]),
            exec_us: 10,
        };
        held.requests.iter().enumerate().map(ran).collect()
    }

    /// The workers whose thread is running work and owes a `done`.
    fn running(&self) -> Vec<usize> {
        let running = self.work.iter().filter(|(_, held)| held.running);
        running.map(|(&worker, _)| worker).collect()
    }

    /// Runs one script line: `<time> <verb> <args..>`, the time in µs or
    /// with an `ms` suffix (the clock never runs backwards).
    fn exec(&mut self, line: &str) {
        let words: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> u64 {
            let w = words[i];
            w.strip_suffix("ms")
                .map_or_else(|| w.parse(), |ms| ms.parse().map(|v: u64| v * 1_000))
                .unwrap_or_else(|_| panic!("bad number in {line:?}"))
        };
        self.now = self.now.max(num(0));
        let name = || words[2].to_string();
        let abandoned = self.core.stats().abandoned;
        let event = match words[1] {
            "register" => Event::Register {
                name: name(),
                plan: num(3) as u8,
                checksum: num(3),
            },
            "swap" => Event::Swap {
                name: name(),
                expected: num(3),
                plan: num(4) as u8,
                checksum: num(4),
            },
            "unregister" => Event::Unregister { name: name() },
            "submit" => {
                self.labels += 1;
                Event::Submit {
                    model: name(),
                    input: vec![self.labels as u8],
                    priority: num(3) as u8,
                    reply: self.labels,
                }
            }
            "abandon" => {
                let label = num(2) as u32;
                let ticket = self.tickets.iter().find(|&(_, &l)| l == label);
                Event::Abandon {
                    ticket: ticket.map_or(0, |(&t, _)| t),
                }
            }
            "done" => {
                let worker = num(2) as usize;
                let ran = self.ran(worker, words[3]);
                if let Some(held) = self.work.get_mut(&worker) {
                    held.running = false;
                }
                Event::Done { worker, ran }
            }
            "tick" => Event::Tick,
            "drain" => Event::Drain,
            "stop" => Event::Stop,
            "stats" => {
                self.snapshots.push(self.snapshot(words[2]));
                return;
            }
            verb => panic!("unknown verb {verb:?}"),
        };
        let submit = words[1] == "submit";
        for action in self.core.step(self.now, event) {
            self.act(action, submit);
        }
        if self.core.stats().abandoned > abandoned {
            self.abandoned.insert(num(2) as u32);
        }
        self.check();
    }

    fn act(&mut self, action: Action<u8, u32>, submit: bool) {
        match action {
            Action::Return(Ok(ticket)) if submit => {
                self.tickets.insert(ticket, self.labels);
            }
            Action::Return(Err(e)) if submit => {
                self.got.insert(self.labels, format!("!{e:?}"));
            }
            Action::Return(r) => self.registry.push(format!("{r:?}")),
            Action::Answer { to, result } => {
                assert!(
                    self.tickets.values().any(|&l| l == to),
                    "{to} never accepted"
                );
                assert!(
                    !self.abandoned.contains(&to),
                    "{to} answered after abandonment"
                );
                let got = match result {
                    Ok(out) => {
                        assert_eq!(out[1], to as u8, "ticket {to} got another's bytes");
                        let pin = if out[2] == 1 { " scalar" } else { "" };
                        format!("={}{pin}", out[0])
                    }
                    Err(e) => format!("{e:?}"),
                };
                assert!(self.got.insert(to, got).is_none(), "{to} answered twice");
            }
            Action::Work { worker, .. } if !self.spawned.contains(&worker) => {
                panic!("work for worker {worker}, never spawned")
            }
            Action::Work { worker, work } => match work {
                Work::Run {
                    plan,
                    inputs,
                    force_scalar,
                } => {
                    let held = Held {
                        plan,
                        scalar: force_scalar,
                        labels: inputs.iter().map(|i| u32::from(i[0])).collect(),
                        requests: (0..inputs.len()).collect(),
                        running: true,
                    };
                    self.work.insert(worker, held);
                }
                Work::Rerun { plan, requests } => {
                    let held = self.work.get_mut(&worker).expect("a rerun of a held batch");
                    assert_eq!(plan, held.plan, "a rerun runs on its batch's plan");
                    held.requests = requests;
                    held.running = true;
                }
                Work::Exit => {
                    self.work.remove(&worker);
                    self.exits.push(worker);
                }
            },
            Action::Spawn { worker } => self.spawned.push(worker),
        }
    }

    /// The invariants every step keeps, checked against what the harness
    /// saw: the counters match the answers and abandonments delivered,
    /// and work not yet answered always has a worker running it or a
    /// deadline that will move it on — otherwise it would wait forever.
    fn check(&self) {
        let s = self.core.stats();
        let answers: Vec<&Got> = self
            .tickets
            .values()
            .filter_map(|l| self.got.get(l))
            .collect();
        let ok = answers.iter().filter(|g| g.starts_with('=')).count() as u64;
        let shed = answers.iter().filter(|g| g.starts_with("Shed")).count() as u64;
        let failed = answers.len() as u64 - ok - shed;
        assert_eq!(
            (s.accepted, s.completed, s.failed, s.shed, s.abandoned),
            (
                self.tickets.len() as u64,
                ok,
                failed,
                shed,
                self.abandoned.len() as u64
            ),
            "books: {s:?}"
        );
        let unsettled = self.tickets.len() - answers.len() - self.abandoned.len();
        let deadline = self.core.next_deadline();
        assert!(
            deadline.is_none_or(|at| at > self.now),
            "a deadline already due"
        );
        assert!(
            unsettled == 0 || deadline.is_some() || !self.running().is_empty(),
            "stranded work at {}: {:?}",
            self.now,
            self.core
        );
    }

    /// `model`'s breaker, demotion and kernel-fault count.
    fn snapshot(&self, model: &str) -> String {
        let m = self.core.model_stats(model).expect("registered");
        let (b, d, k) = (m.breaker, m.demoted, m.kernel_faults);
        format!("{b:?} demoted={d} kernel_faults={k}")
    }
}

/// One row of the table: a gateway, its script, and what the script
/// must produce. `tickets` lists `label: how it ends` (ranges `a-b`
/// allowed), `counters` the non-zero [`gcd2::ServerStats`] fields as
/// `Debug` prints them (every other one must stay zero), `health` the
/// health events in order, `registry` what each registry event returned,
/// and `models` the snapshot each `stats` line took. The other lists are
/// `; `-separated.
struct Scenario {
    name: &'static str,
    config: GatewayConfig,
    script: &'static str,
    tickets: &'static str,
    counters: &'static str,
    health: &'static str,
    registry: &'static str,
    models: &'static str,
}

fn gateway(workers: usize, capacity: usize, max_batch: usize, max_wait_us: u64) -> GatewayConfig {
    GatewayConfig {
        workers,
        capacity,
        max_batch,
        max_wait: Duration::from_micros(max_wait_us),
        ..GatewayConfig::default()
    }
}

/// One worker dispatching every request as soon as it arrives.
fn supervised(supervisor: SupervisorConfig) -> GatewayConfig {
    GatewayConfig {
        supervisor,
        ..gateway(1, 64, 1, 0)
    }
}

fn hang_25ms() -> GatewayConfig {
    supervised(SupervisorConfig {
        hang_deadline: Duration::from_millis(25),
        ..SupervisorConfig::default()
    })
}

fn retry_twice() -> GatewayConfig {
    supervised(SupervisorConfig {
        retry_budget: 2,
        retry_backoff_base: Duration::from_micros(100),
        ..SupervisorConfig::default()
    })
}

const HEALTHY: &str = "Closed demoted=false kernel_faults=0";

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            // Rising priorities against a parked queue of four: the
            // lowest (most recent on ties) goes first, equal priority is
            // backpressured, and the drain serves the survivors.
            name: "shed storm",
            config: gateway(1, 4, 64, 30_000_000),
            script: "0 register m 1 | 1 submit m 0 *4 | 2 submit m 1 *8 | 3 submit m 2 *2 \
                     | 4 drain | 5 done 0 ok | 6 stats m",
            tickets: "1-4: Shed { priority: 0, capacity: 4 }; 5-6: =1; \
                      7-8: Shed { priority: 1, capacity: 4 }; 9-12: !QueueFull { capacity: 4 }; \
                      13-14: =1",
            counters:
                "accepted: 10, rejected: 4, completed: 4, shed: 6, batches: 1, batched_requests: 4",
            health: "",
            registry: "Ok(1)",
            models: HEALTHY,
        },
        Scenario {
            // A submission racing a drain is one step either side of it:
            // before, it is served; after, it is refused — never queued
            // behind workers that have left. A dropped ticket is skipped.
            name: "drain race",
            config: gateway(2, 8, 4, 30_000_000),
            script: "0 register m 1 | 1 submit m 0 *3 | 4 abandon 2 | 5 drain | 6 submit m 0 \
                     | 7 done 0 ok | 8 stop | 9 submit m 0 | 9 register n 2",
            tickets: "1: =1; 3: =1; 4: !Draining; 5: !ServerStopped",
            counters: "accepted: 3, completed: 2, batches: 1, batched_requests: 2, abandoned: 1",
            health: "",
            registry: "Ok(1); Err(ServerStopped)",
            models: "",
        },
        Scenario {
            // No `done` by the hang deadline: the ticket is answered
            // `Hung`, a replacement serves the next request, and the
            // wedged worker's late result changes nothing.
            name: "hung batch",
            config: hang_25ms(),
            script: "0 register m 1 | 0 submit m 0 | 25ms tick | 26ms submit m 0 \
                     | 27ms done 1 ok | 200ms done 0 ok",
            tickets: r#"1: Hung { model: "m", elapsed: 25ms, deadline: 25ms }; 2: =1"#,
            counters:
                "accepted: 2, completed: 1, failed: 1, batches: 2, hung: 1, workers_replaced: 1",
            health: r#"WorkerHung { worker: 0, model: "m", in_flight: 1 }; WorkerReplaced { wedged: 0, replacement: 1 }"#,
            registry: "Ok(1)",
            models: "",
        },
        Scenario {
            // The same hang after the drain began: the timer still
            // answers it, and the replacement leaves at once.
            name: "hung batch mid-drain",
            config: hang_25ms(),
            script: "0 register m 1 | 0 submit m 0 | 1 drain | 25ms tick | 150ms done 0 ok",
            tickets: r#"1: Hung { model: "m", elapsed: 25ms, deadline: 25ms }"#,
            counters: "accepted: 1, failed: 1, batches: 1, hung: 1, workers_replaced: 1",
            health: r#"WorkerHung { worker: 0, model: "m", in_flight: 1 }; WorkerReplaced { wedged: 0, replacement: 1 }"#,
            registry: "Ok(1)",
            models: "",
        },
        Scenario {
            // Four faults in a four-sample window trip the breaker; it
            // sheds at the door, naming the rest of the cooldown, then
            // two probes that succeed close it.
            name: "breaker trip, half-open, close",
            config: supervised(SupervisorConfig {
                breaker_window: 4,
                breaker_min_samples: 4,
                breaker_threshold_pct: 50,
                breaker_cooldown: Duration::from_millis(40),
                breaker_probes: 2,
                ..SupervisorConfig::default()
            }),
            script: "0 register m 1 | 1 submit m 0 | 1 done 0 transient | 2 submit m 0 \
                     | 2 done 0 transient | 3 submit m 0 | 3 done 0 transient | 4 submit m 0 \
                     | 4 done 0 transient | 10 submit m 0 | 10 stats m | 50ms submit m 0 \
                     | 50ms done 0 ok | 51ms submit m 0 | 51ms done 0 ok | 52ms submit m 0 \
                     | 52ms done 0 ok | 52ms stats m",
            tickets: r#"1-4: Internal { message: "panic" }; 5: !BreakerOpen { model: "m", retry_after: 39.994ms }; 6-8: =1"#,
            counters: "accepted: 7, completed: 3, failed: 4, batches: 7, breaker_rejected: 1",
            health: r#"BreakerOpened { model: "m" }; BreakerHalfOpen { model: "m" }; BreakerClosed { model: "m" }"#,
            registry: "Ok(1)",
            models: "Open demoted=false kernel_faults=0; Closed demoted=false kernel_faults=0",
        },
        Scenario {
            // A transient failure inside the budget re-runs after its
            // seeded backoff — a deadline — with the undisturbed output.
            name: "retry to success",
            config: retry_twice(),
            script: "0 register m 1 | 0 submit m 0 | 1 done 0 transient | 1ms tick \
                     | 1ms done 0 ok | 1ms stats m",
            tickets: "1: =1",
            counters: "accepted: 1, completed: 1, batches: 1, retries: 1",
            health: r#"RetrySucceeded { model: "m", attempt: 1 }"#,
            registry: "Ok(1)",
            models: HEALTHY,
        },
        Scenario {
            // A persistent failure burns all `1 + retry_budget` rounds
            // into the structured error; a malformed input is final on
            // its first round.
            name: "retries exhausted",
            config: retry_twice(),
            script: "0 register m 1 | 0 submit m 0 | 1 done 0 transient | 1ms tick \
                     | 1ms done 0 transient | 2ms tick | 2ms done 0 transient | 3ms submit m 0 \
                     | 3ms done 0 shape",
            tickets: r#"1: Internal { message: "panic" }; 2: InputShape { expected: 2, got: 1 }"#,
            counters: "accepted: 2, failed: 2, batches: 2, retries: 2, retries_exhausted: 1",
            health: r#"RetriesExhausted { model: "m", attempts: 3 }"#,
            registry: "Ok(1)",
            models: "",
        },
        Scenario {
            // Two kernel-attributed faults pin the model to the scalar
            // tier (the third run); the quarantine's end is a deadline,
            // and the tick at it restores the vector tiers and clears
            // the fault count.
            name: "demote, re-promote",
            config: supervised(SupervisorConfig {
                demote_after: 2,
                quarantine: Duration::from_millis(300),
                ..SupervisorConfig::default()
            }),
            script: "0 register m 1 | 0 submit m 0 | 1 done 0 kernel | 2 submit m 0 \
                     | 3 done 0 kernel | 3 stats m | 4 submit m 0 | 5 done 0 ok | 300003 tick \
                     | 301ms submit m 0 | 301ms done 0 ok | 301ms stats m",
            tickets: r#"1-2: Internal { message: "gemm panic" }; 3: =1 scalar; 4: =1"#,
            counters:
                "accepted: 4, completed: 2, failed: 2, batches: 4, demotions: 1, repromotions: 1",
            health: r#"Demoted { model: "m", kernel_faults: 2 }; Repromoted { model: "m" }"#,
            registry: "Ok(1)",
            models: "Closed demoted=true kernel_faults=2; Closed demoted=false kernel_faults=0",
        },
        Scenario {
            // A keyed swap while a batch runs: the running batch answers
            // from the old plan, the queued ones from the new; a stale
            // key is refused, and unregister answers what is still queued.
            name: "swap under load",
            config: gateway(1, 8, 2, 1_000),
            script: "0 register m 1 | 0 submit m 0 | 1ms tick | 1001 submit m 0 *2 \
                     | 1003 swap m 9 2 | 1004 swap m 1 2 | 1005 done 0 ok | 1006 submit m 0 \
                     | 1007 unregister m | 1008 done 0 ok",
            tickets: r#"1: =1; 2-3: =2; 4: UnknownModel { model: "m" }"#,
            counters: "accepted: 4, completed: 3, failed: 1, batches: 2, batched_requests: 2",
            health: "",
            registry: "Ok(1); Err(IntegrityViolation { expected: 9, got: 1 }); Ok(2); Ok(2)",
            models: "",
        },
        Scenario {
            // Healthy traffic under a hair-trigger supervisor: batches
            // fill by age, and every supervision counter stays zero.
            name: "healthy traffic",
            config: GatewayConfig {
                supervisor: SupervisorConfig {
                    hang_deadline: Duration::from_millis(250),
                    retry_budget: 2,
                    breaker_window: 4,
                    breaker_min_samples: 2,
                    breaker_threshold_pct: 25,
                    demote_after: 1,
                    ..SupervisorConfig::default()
                },
                ..gateway(2, 64, 4, 200)
            },
            script: "0 register m 1 | 0 submit m 0 *2 | 200 tick | 300 done 0 ok \
                     | 1ms submit m 0 *2 | 1200 tick | 1300 done 0 ok \
                     | 2ms submit m 0 *4 | 2001 done 0 ok | 2001 stats m",
            tickets: "1-8: =1",
            counters: "accepted: 8, completed: 8, batches: 3, batched_requests: 8",
            health: "",
            registry: "Ok(1)",
            models: HEALTHY,
        },
    ]
}

/// Runs a script; `| `-separated lines, each optionally repeated `*N`.
fn run(config: &GatewayConfig, script: &str) -> Harness {
    let mut h = Harness::new(config);
    for line in script.split('|') {
        let (line, times) = match line.split_once('*') {
            Some((line, n)) => (line, n.trim().parse().expect("repeat count")),
            None => (line, 1),
        };
        for _ in 0..times {
            h.exec(line);
        }
    }
    h
}

/// The non-zero `field: value`s of a flat struct's `Debug`.
fn nonzero(debug: &str) -> String {
    let fields = debug
        .split_once(" { ")
        .map_or("", |(_, f)| f.trim_end_matches(" }"));
    let nonzero = fields.split(", ").filter(|f| !f.ends_with(": 0"));
    nonzero.collect::<Vec<_>>().join(", ")
}

/// Expands `a-b: how; c: how` into one `(label, how)` per ticket.
fn expected_tickets(spec: &str) -> Vec<(u32, Got)> {
    let mut out = Vec::new();
    for item in spec.split("; ") {
        let (labels, got) = item.trim().split_once(": ").expect("label: outcome");
        let (a, b) = labels.split_once('-').unwrap_or((labels, labels));
        let (a, b): (u32, u32) = (a.parse().expect("label"), b.parse().expect("label"));
        out.extend((a..=b).map(|l| (l, got.to_string())));
    }
    out
}

#[test]
fn every_scenario_produces_its_answers_counters_and_health_events() {
    for s in scenarios() {
        let h = run(&s.config, s.script);
        let got: Vec<(u32, Got)> = h.got.clone().into_iter().collect();
        assert_eq!(got, expected_tickets(s.tickets), "{}: tickets", s.name);
        let st = h.core.stats();
        assert_eq!(
            nonzero(&format!("{st:?}")),
            s.counters,
            "{}: counters",
            s.name
        );
        // With one model registered, its own counters are the gateway's.
        if let [model] = h.core.models().as_slice() {
            let m = h.core.model_stats(model).expect("registered");
            assert_eq!(
                [
                    m.accepted,
                    m.rejected,
                    m.completed,
                    m.failed,
                    m.shed,
                    m.batches,
                    m.batched_requests,
                    m.retries,
                    m.demotions,
                    m.breaker_rejected,
                    m.abandoned,
                ],
                [
                    st.accepted,
                    st.rejected,
                    st.completed,
                    st.failed,
                    st.shed,
                    st.batches,
                    st.batched_requests,
                    st.retries,
                    st.demotions,
                    st.breaker_rejected,
                    st.abandoned,
                ],
                "{}: model counters",
                s.name
            );
        }
        let events = h.core.health(h.now).events;
        let events: Vec<String> = events.iter().map(|(_, e)| format!("{e:?}")).collect();
        assert_eq!(events.join("; "), s.health, "{}: health events", s.name);
        assert_eq!(h.registry.join("; "), s.registry, "{}: registry", s.name);
        assert_eq!(h.snapshots.join("; "), s.models, "{}: model stats", s.name);
    }
}

/// The hang deadline, `max_wait` and retry rounds are the core's
/// deadlines; it reports the earliest, and `max_wait` only while an idle
/// worker could take the batch.
#[test]
fn timers_are_the_cores_deadlines() {
    let config = GatewayConfig {
        supervisor: SupervisorConfig {
            hang_deadline: Duration::from_millis(50),
            ..SupervisorConfig::default()
        },
        ..gateway(1, 8, 4, 1_000)
    };
    let mut h = run(&config, "0 register m 1");
    assert_eq!(h.core.next_deadline(), None, "nothing is timed");
    h.exec("100 submit m 0");
    assert_eq!(h.core.next_deadline(), Some(1_100), "the batch's max_wait");
    h.exec("1100 tick");
    assert_eq!(h.core.next_deadline(), Some(51_100), "the hang deadline");
    h.exec("2000 submit m 0");
    assert_eq!(h.core.next_deadline(), Some(51_100), "no idle worker");
}

/// The core owns the worker roster: it starts with one `Spawn` per
/// worker, and a hang adds one for the replacement. (The harness also
/// checks that no work goes to a worker never spawned.)
#[test]
fn the_core_spawns_every_worker_it_counts() {
    assert_eq!(run(&gateway(3, 8, 1, 0), "0 tick").spawned, [0, 1, 2]);
    let clamped = run(&gateway(0, 8, 1, 0), "0 tick").spawned;
    assert_eq!(clamped, [0], "zero workers is clamped to one");
    let h = run(&hang_25ms(), "0 register m 1 | 0 submit m 0 | 25ms tick");
    assert_eq!(h.spawned, [0, 1], "a hang spawns the replacement");
}

/// Regression: a submission used to read the drain flag before taking
/// the scheduler lock, so one that passed the check just before a drain
/// could enqueue after every worker had left, and its ticket waited until
/// the server was dropped. As one `Submit` step and one `Drain` step
/// there is no window: after the drain it is refused, before it served.
#[test]
fn a_submission_after_the_drain_step_is_refused_never_stranded() {
    let h = run(
        &gateway(2, 8, 4, 30_000_000),
        "0 register m 1 | 1 drain | 2 submit m 0",
    );
    assert!(h.core.drained(), "idle workers leave at the drain step");
    assert_eq!(h.got.get(&1).map(String::as_str), Some("!Draining"));
    assert_eq!(h.core.stats().accepted, 0);
    let mut h = run(
        &gateway(2, 8, 4, 30_000_000),
        "0 register m 1 | 1 submit m 0 | 1 drain",
    );
    assert_eq!(h.running(), [0], "accepted before the drain: dispatched");
    assert!(!h.core.drained() && h.exits == [1]);
    h.exec("2 done 0 ok");
    assert_eq!(h.got.get(&1).map(String::as_str), Some("=1"));
    assert!(h.core.drained());
}

/// Regression: `drain()` stored its flag without the lock, so it could
/// miss a worker between that worker's check and its wait. The drain
/// step hands every idle worker its `Exit` in the same step — work in a
/// mailbox, not a flag someone must notice — and a busy worker gets its
/// `Exit` in the step that settles its batch.
#[test]
fn the_drain_step_hands_every_idle_worker_its_exit() {
    let mut h = run(
        &gateway(3, 8, 1, 0),
        "0 register m 1 | 0 submit m 0 | 1 drain",
    );
    assert_eq!(h.exits, [1, 2], "both idle workers leave");
    assert!(!h.core.drained(), "worker 0 still owes its batch");
    h.exec("2 done 0 ok");
    assert_eq!(h.exits, [1, 2, 0], "the busy worker leaves when done");
    assert!(h.core.drained());
}

// ---------------------------------------------------------------------
// The explorer: every interleaving, every fault position.

/// The explorer's gateway: small enough that every interleaving is
/// walked, with every mechanism reachable — shedding at capacity 2,
/// batches of 2, one retry round, a breaker that trips and a demotion
/// that pins on faults, and hang deadlines shorter than a quarantine.
fn explorer_config(workers: usize) -> GatewayConfig {
    GatewayConfig {
        supervisor: SupervisorConfig {
            hang_deadline: Duration::from_micros(5_000),
            breaker_window: 2,
            breaker_min_samples: 1,
            breaker_threshold_pct: 50,
            breaker_cooldown: Duration::from_micros(3_000),
            breaker_probes: 1,
            retry_budget: 1,
            retry_backoff_base: Duration::from_micros(100),
            demote_after: 1,
            quarantine: Duration::from_micros(4_000),
            ..SupervisorConfig::default()
        },
        ..gateway(workers, 2, 2, 1_000)
    }
}

/// One node of the walk: the harness, plus the choices its path has
/// spent (the drain, the one abandonment, the faults).
#[derive(Clone)]
struct Node {
    h: Harness,
    drained: bool,
    abandoned: bool,
    faults_left: usize,
}

impl Node {
    fn fingerprint(&self) -> u64 {
        let h = &self.h;
        let mut hasher = DefaultHasher::new();
        format!(
            "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}|{}{}{}",
            h.core,
            h.now,
            h.labels,
            h.tickets,
            h.got,
            h.abandoned,
            h.work,
            self.drained,
            self.abandoned,
            self.faults_left
        )
        .hash(&mut hasher);
        hasher.finish()
    }

    /// Every node one event away: the next submission (priorities
    /// alternate 1 / 0, so shedding happens), the drain, abandoning an
    /// open ticket, each running worker's result (ok, or a transient or
    /// kernel fault while the budget lasts), and a tick to the next
    /// deadline.
    fn successors(&self, tickets: u32) -> Vec<Node> {
        let mut lines = Vec::new();
        let now = self.h.now;
        if self.h.labels < tickets {
            lines.push(format!("{now} submit m {}", (self.h.labels + 1) % 2));
        }
        if !self.drained {
            lines.push(format!("{now} drain"));
        }
        if !self.abandoned {
            let open = self
                .h
                .tickets
                .values()
                .filter(|l| !self.h.got.contains_key(l));
            lines.extend(open.map(|l| format!("{now} abandon {l}")));
        }
        for worker in self.h.running() {
            lines.push(format!("{now} done {worker} ok"));
            if self.faults_left > 0 {
                lines.push(format!("{now} done {worker} transient"));
                lines.push(format!("{now} done {worker} kernel"));
            }
        }
        if let Some(at) = self.h.core.next_deadline() {
            lines.push(format!("{at} tick"));
        }
        let step = |line: String| {
            let mut n = self.clone();
            n.drained |= line.ends_with("drain");
            n.abandoned |= line.contains("abandon");
            if line.ends_with("transient") || line.ends_with("kernel") {
                n.faults_left -= 1;
            }
            n.h.exec(&line);
            n
        };
        lines.into_iter().map(step).collect()
    }

    /// A maximal path's end: everything submitted, the drain issued, no
    /// worker running and nothing timed. The drain must have finished,
    /// and every submission been refused, answered (at most once, which
    /// every step checks) or abandoned.
    fn check_end(&self) {
        let h = &self.h;
        assert!(self.drained);
        assert!(
            h.core.drained(),
            "a drain that never finished: {:?}",
            h.core
        );
        let settled = h.got.len() + h.abandoned.len();
        assert_eq!(settled, h.labels as usize, "a ticket never answered");
    }
}

/// Walks every interleaving of `tickets` submissions over `workers`
/// workers with up to `faults` faulty results; returns the states
/// visited and the longest path.
fn explore(workers: usize, tickets: u32, faults: usize) -> (usize, usize) {
    let root = Node {
        h: run(&explorer_config(workers), "0 register m 1"),
        drained: false,
        abandoned: false,
        faults_left: faults,
    };
    let mut seen = HashSet::new();
    let mut depth_max = 0;
    let mut stack = vec![(root, 0usize)];
    while let Some((node, depth)) = stack.pop() {
        if !seen.insert(node.fingerprint()) {
            continue;
        }
        depth_max = depth_max.max(depth);
        assert!(depth < 200, "a path this long means a livelock");
        let next = node.successors(tickets);
        if next.is_empty() {
            node.check_end();
        }
        stack.extend(next.into_iter().map(|n| (n, depth + 1)));
    }
    (seen.len(), depth_max)
}

#[test]
fn every_interleaving_of_two_workers_and_three_tickets_keeps_the_invariants() {
    let (states, depth) = explore(2, 3, 1);
    println!("explored {states} states, depth {depth}");
    assert!(states > 1_000, "{states} states");
}

/// The largest configuration, which `ci.sh` runs in release and whose
/// state count it prints.
#[test]
#[ignore = "the largest configuration; ci.sh runs it in release"]
fn every_interleaving_of_three_workers_and_four_tickets_keeps_the_invariants() {
    let t0 = std::time::Instant::now();
    let (states, depth) = explore(3, 4, 1);
    println!(
        "explored {states} states, depth {depth}, in {:.2?}",
        t0.elapsed()
    );
}

// ---------------------------------------------------------------------
// Real threads, under fault injection.

#[cfg(feature = "fault-injection")]
mod threads {
    use gcd2_repro::cgraph::{Graph, OpKind, TShape};
    use gcd2_repro::compiler::{
        Compiler, GatewayConfig, InferError, InferServer, InferencePlan, SupervisorConfig,
    };
    use gcd2_repro::faults::{arm, FaultKind, FaultPlan};
    use std::time::{Duration, Instant};

    const INPUT_LEN: usize = 32;

    fn net(seed: u64) -> InferencePlan {
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![1, INPUT_LEN]));
        let fc1 = g.add(OpKind::MatMul { n: 24 }, &[x], "fc1");
        let fc2 = g.add(OpKind::MatMul { n: 8 }, &[fc1], "fc2");
        g.add(OpKind::Softmax, &[fc2], "sm");
        Compiler::new().compile(&g).inference_plan(seed)
    }

    fn input() -> Vec<u8> {
        (0..INPUT_LEN).map(|i| (i * 5 % 16) as u8).collect()
    }

    /// A worker wedged for real — its first elementwise step sleeps far
    /// past the hang deadline — is answered `Hung` and replaced; the
    /// replacement serves a swapped plan bit-identically, and shutdown
    /// detaches the wedged thread instead of waiting out its sleep.
    #[test]
    fn a_wedged_worker_is_replaced_and_the_gateway_swaps_and_drains() {
        let (a, b) = (net(71), net(72));
        let want = {
            let _quiet = arm(FaultPlan::new());
            b.execute(&input())
        };
        let _armed =
            arm(FaultPlan::new().once("infer.elementwise", FaultKind::Delay { millis: 400 }, 1));
        let server = InferServer::gateway(GatewayConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            supervisor: SupervisorConfig {
                hang_deadline: Duration::from_millis(30),
                ..SupervisorConfig::default()
            },
            ..GatewayConfig::default()
        });
        let sum_a = server.register("m", a).expect("register");
        let hung = server.infer_on("m", input(), 0);
        assert!(matches!(hung, Err(InferError::Hung { .. })), "{hung:?}");
        server.swap("m", sum_a, b).expect("keyed swap");
        assert_eq!(server.infer_on("m", input(), 0), Ok(want));
        let health = server.health();
        assert_eq!(health.workers.iter().filter(|w| w.wedged).count(), 1);
        let t0 = Instant::now();
        let stats = server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_millis(300),
            "shutdown waited out the wedged batch: {:?}",
            t0.elapsed()
        );
        assert_eq!(
            (
                stats.hung,
                stats.workers_replaced,
                stats.completed,
                stats.failed
            ),
            (1, 1, 1, 1)
        );
    }

    /// Registry admission re-verifies the plan: real weight corruption
    /// is refused on register and on swap, and the gateway still admits
    /// and serves the clean plan.
    #[test]
    fn a_plan_with_corrupted_weights_is_refused_admission() {
        // Unarmed, but holding the fault gate: another test's armed
        // delay must not land in this one's requests.
        let _quiet = arm(FaultPlan::new());
        let clean = net(46);
        let mut corrupt = clean.clone();
        corrupt.chaos_corrupt_weights();
        let server = InferServer::gateway(GatewayConfig {
            workers: 1,
            ..GatewayConfig::default()
        });
        let refused = server.register("m", corrupt.clone());
        assert!(
            matches!(refused, Err(InferError::IntegrityViolation { .. })),
            "{refused:?}"
        );
        let sum = server
            .register("m", clean.clone())
            .expect("clean admission");
        let swapped = server.swap("m", sum, corrupt);
        assert!(
            matches!(swapped, Err(InferError::IntegrityViolation { .. })),
            "{swapped:?}"
        );
        assert_eq!(
            server.infer_on("m", input(), 0),
            Ok(clean.execute(&input()))
        );
    }
}
