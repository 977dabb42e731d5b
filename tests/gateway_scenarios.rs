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
//! with no `done`; a failed request is a `done` that carries the error,
//! answered once and never run again; a late answer is a `done` from a worker the core
//! already replaced. A batch forms only behind a busy worker, so a
//! script holds its worker busy by withholding that worker's `done`.
//! Every step also checks the invariants against what the harness itself
//! saw: no ticket answered twice, the counters match the answers,
//! deadlines lie ahead, queued work is never stranded, and dispatch is
//! work-conserving — no worker sits idle while a queue holds a request.
//!
//! The explorer walks **every** interleaving of submissions, results,
//! ticks, an abandonment and a drain over a few workers and tickets,
//! with a fault at every position it can take, and checks that each
//! path ends drained with every accepted ticket answered exactly once.
//!
//! On real threads, a test runner stands in for the executor
//! (`InferServer::with_runner`): a marked request holds its worker busy
//! or fails. One wedges the worker, then swaps and drains; one abandons
//! queued tickets by dropping them; one fails a single request of a
//! batch.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Duration;

use gcd2_repro::compiler::serve::core::{Action, Core, Event, Ran, Work};
use gcd2_repro::compiler::{GatewayConfig, InferError, SupervisorConfig};

/// How a ticket ends, written `=P` (the output of plan `P`: the bytes
/// `[P, label]`), `!Error` (its submission refused with that error, in
/// full `Debug`) or `Error` (answered with that error).
type Got = String;

/// What a worker thread holds: the batch its last `Run` carried, and
/// whether it is running it (handed work, no `done` posted since).
#[derive(Clone, Debug)]
struct Held {
    plan: u8,
    labels: Vec<u32>,
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

    /// What `worker` reports for the batch it holds: `ok`, a caught
    /// `panic` in every request, or a panic in the `first` request only.
    fn ran(&self, worker: usize, outcome: &str) -> Vec<Ran> {
        let Some(held) = self.work.get(&worker) else {
            return Vec::new();
        };
        let result = |n: usize, label: u32| match (outcome, n) {
            ("panic", _) | ("first", 0) => Err(InferError::Internal {
                message: "panic".into(),
            }),
            _ => Ok(vec![held.plan, label as u8]),
        };
        let ran = |(n, &label): (usize, &u32)| Ran {
            result: result(n, label),
            exec_us: 10,
        };
        held.labels.iter().enumerate().map(ran).collect()
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
                        format!("={}", out[0])
                    }
                    Err(e) => format!("{e:?}"),
                };
                assert!(self.got.insert(to, got).is_none(), "{to} answered twice");
            }
            Action::Work { worker, .. } if !self.spawned.contains(&worker) => {
                panic!("work for worker {worker}, never spawned")
            }
            Action::Work { worker, work } => match work {
                Work::Run { plan, inputs } => {
                    let held = Held {
                        plan,
                        labels: inputs.iter().map(|i| u32::from(i[0])).collect(),
                        running: true,
                    };
                    self.work.insert(worker, held);
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
    /// work not yet answered always has a worker running it or a
    /// deadline that will move it on — otherwise it would wait forever —
    /// and no live worker is idle while a request is queued.
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
        let running = self.running();
        let in_flight: BTreeSet<u32> = running
            .iter()
            .flat_map(|w| self.work[w].labels.iter().copied())
            .collect();
        let queued = self.tickets.values().any(|l| {
            !self.got.contains_key(l) && !self.abandoned.contains(l) && !in_flight.contains(l)
        });
        let idle = self
            .spawned
            .iter()
            .find(|w| !self.exits.contains(w) && !running.contains(w));
        assert!(
            !queued || idle.is_none(),
            "worker {idle:?} idle beside a queued request at {}: {:?}",
            self.now,
            self.core
        );
    }

    /// `model`'s breaker state and largest batch.
    fn snapshot(&self, model: &str) -> String {
        let m = self.core.model_stats(model).expect("registered");
        format!("{:?}, largest batch {}", m.breaker, m.max_batch_observed)
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

fn gateway(workers: usize, capacity: usize, max_batch: usize) -> GatewayConfig {
    GatewayConfig {
        workers,
        capacity,
        max_batch,
        ..GatewayConfig::default()
    }
}

/// One worker running every request alone.
fn supervised(supervisor: SupervisorConfig) -> GatewayConfig {
    GatewayConfig {
        supervisor,
        ..gateway(1, 64, 1)
    }
}

fn hang_25ms() -> GatewayConfig {
    supervised(SupervisorConfig {
        hang_deadline: Duration::from_millis(25),
        ..SupervisorConfig::default()
    })
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            // Rising priorities against a full queue of four behind the
            // busy worker: the lowest (most recent on ties) goes first,
            // equal priority is backpressured, and the survivors run as
            // one batch once the worker is free.
            name: "shed storm",
            config: gateway(1, 4, 64),
            script: "0 register m 1 | 0 submit m 9 | 1 submit m 0 *4 | 2 submit m 1 *8 \
                     | 3 submit m 2 *2 | 4 drain | 5 done 0 ok | 6 done 0 ok | 7 stats m",
            tickets: "1: =1; 2-5: Shed { priority: 0, capacity: 4 }; 6-7: =1; \
                      8-9: Shed { priority: 1, capacity: 4 }; 10-13: !QueueFull { capacity: 4 }; \
                      14-15: =1",
            counters:
                "accepted: 11, rejected: 4, completed: 5, shed: 6, batches: 2, batched_requests: 4",
            health: "",
            registry: "Ok(1)",
            models: "Closed, largest batch 4",
        },
        Scenario {
            // A submission racing a drain is one step either side of it:
            // before, it is served; after, it is refused — never queued
            // behind workers that have left. A dropped ticket is skipped.
            name: "drain race",
            config: gateway(2, 8, 4),
            script: "0 register m 1 | 1 submit m 0 *5 | 4 abandon 4 | 5 drain | 6 submit m 0 \
                     | 7 done 0 ok | 7 done 1 ok | 8 done 0 ok | 8 stop | 9 submit m 0 \
                     | 9 register n 2",
            tickets: "1-3: =1; 5: =1; 6: !Draining; 7: !ServerStopped",
            counters: "accepted: 5, completed: 4, batches: 3, batched_requests: 2, abandoned: 1",
            health: "",
            registry: "Ok(1); Err(ServerStopped)",
            models: "",
        },
        Scenario {
            // Requests queued behind the busy worker dispatch as one
            // batch of `max_batch` the moment it is free.
            name: "a full queue is one batch",
            config: gateway(1, 64, 8),
            script: "0 register m 1 | 0 submit m 0 | 1 submit m 0 *8 | 2 done 0 ok | 3 done 0 ok \
                     | 3 stats m",
            tickets: "1-9: =1",
            counters: "accepted: 9, completed: 9, batches: 2, batched_requests: 8",
            health: "",
            registry: "Ok(1)",
            models: "Closed, largest batch 8",
        },
        Scenario {
            // A longer queue splits into `max_batch`-sized chunks, the
            // last one short: five queued requests at a bound of two.
            name: "batches are max_batch chunks",
            config: gateway(1, 64, 2),
            script: "0 register m 1 | 0 submit m 0 | 1 submit m 0 *5 | 2 done 0 ok *4 | 2 stats m",
            tickets: "1-6: =1",
            counters: "accepted: 6, completed: 6, batches: 4, batched_requests: 4",
            health: "",
            registry: "Ok(1)",
            models: "Closed, largest batch 2",
        },
        Scenario {
            // A ticket dropped while queued is skipped: it never runs,
            // is never answered, and is counted once, as abandoned.
            name: "abandoned tickets",
            config: gateway(1, 64, 64),
            script: "0 register m 1 | 0 submit m 0 | 1 submit m 0 *3 | 2 abandon 2 \
                     | 3 abandon 4 | 4 drain | 5 done 0 ok | 6 done 0 ok",
            tickets: "1: =1; 3: =1",
            counters: "accepted: 4, completed: 2, batches: 2, abandoned: 2",
            health: "",
            registry: "Ok(1)",
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
            script: "0 register m 1 | 1 submit m 0 | 1 done 0 panic | 2 submit m 0 \
                     | 2 done 0 panic | 3 submit m 0 | 3 done 0 panic | 4 submit m 0 \
                     | 4 done 0 panic | 10 submit m 0 | 10 stats m | 50ms submit m 0 \
                     | 50ms done 0 ok | 51ms submit m 0 | 51ms done 0 ok | 52ms submit m 0 \
                     | 52ms done 0 ok | 52ms stats m",
            tickets: r#"1-4: Internal { message: "panic" }; 5: !BreakerOpen { model: "m", retry_after: 39.994ms }; 6-8: =1"#,
            counters: "accepted: 7, completed: 3, failed: 4, batches: 7, breaker_rejected: 1",
            health: r#"BreakerOpened { model: "m" }; BreakerHalfOpen { model: "m" }; BreakerClosed { model: "m" }"#,
            registry: "Ok(1)",
            models: "Open, largest batch 1; Closed, largest batch 1",
        },
        Scenario {
            // A keyed swap while a batch runs: the running batch answers
            // from the old plan, the queued ones from the new; a stale
            // key is refused, and unregister answers what is still queued.
            name: "swap under load",
            config: gateway(1, 8, 2),
            script: "0 register m 1 | 0 submit m 0 | 1 submit m 0 *2 | 3 swap m 9 2 \
                     | 4 swap m 1 2 | 5 done 0 ok | 6 submit m 0 | 7 unregister m | 8 done 0 ok",
            tickets: r#"1: =1; 2-3: =2; 4: UnknownModel { model: "m" }"#,
            counters: "accepted: 4, completed: 3, failed: 1, batches: 2, batched_requests: 2",
            health: "",
            registry: "Ok(1); Err(IntegrityViolation { expected: 9, got: 1 }); Ok(2); Ok(2)",
            models: "",
        },
        Scenario {
            // Healthy traffic under a hair-trigger supervisor: idle
            // workers take each request at once, a batch forms only while
            // both are busy, and every supervision counter stays zero.
            name: "healthy traffic",
            config: GatewayConfig {
                supervisor: SupervisorConfig {
                    hang_deadline: Duration::from_millis(250),
                    breaker_window: 4,
                    breaker_min_samples: 2,
                    breaker_threshold_pct: 25,
                    ..SupervisorConfig::default()
                },
                ..gateway(2, 64, 4)
            },
            script: "0 register m 1 | 0 submit m 0 *2 | 100 submit m 0 *4 | 200 done 0 ok \
                     | 300 done 1 ok | 400 done 0 ok | 1ms submit m 0 *2 | 1100 done 0 ok \
                     | 1100 done 1 ok | 1100 stats m",
            tickets: "1-8: =1",
            counters: "accepted: 8, completed: 8, batches: 5, batched_requests: 4",
            health: "",
            registry: "Ok(1)",
            models: "Closed, largest batch 4",
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

/// The hang deadline is the core's one timer: it runs from each batch's
/// dispatch, the earliest busy worker's is reported, and a queued
/// request adds none.
#[test]
fn timers_are_the_cores_deadlines() {
    let config = GatewayConfig {
        supervisor: SupervisorConfig {
            hang_deadline: Duration::from_millis(50),
            ..SupervisorConfig::default()
        },
        ..gateway(1, 8, 4)
    };
    let mut h = run(&config, "0 register m 1");
    assert_eq!(h.core.next_deadline(), None, "nothing is timed");
    h.exec("100 submit m 0");
    assert_eq!(h.core.next_deadline(), Some(50_100), "its hang deadline");
    h.exec("2000 submit m 0");
    assert_eq!(h.core.next_deadline(), Some(50_100), "a queued request");
    h.exec("3000 done 0 ok");
    assert_eq!(h.core.next_deadline(), Some(53_000), "the next batch's");
    h.exec("4000 done 0 ok");
    assert_eq!(h.core.next_deadline(), None, "no worker is busy");
}

/// Work-conserving dispatch: a submission to an idle gateway comes back
/// with its `Run` in the same step — no tick, no batching window.
#[test]
fn a_submission_to_an_idle_worker_runs_in_the_same_step() {
    let (mut core, _) = Core::<u8, u32>::new(&gateway(1, 8, 8));
    core.step(
        0,
        Event::Register {
            name: "m".into(),
            plan: 1,
            checksum: 1,
        },
    );
    let submit = Event::Submit {
        model: "m".into(),
        input: vec![7],
        priority: 0,
        reply: 1,
    };
    let run = Work::Run {
        plan: 1,
        inputs: vec![vec![7]],
    };
    let actions = core.step(5, submit);
    assert_eq!(
        actions,
        [
            Action::Return(Ok(1)),
            Action::Work {
                worker: 0,
                work: run
            }
        ]
    );
}

/// The core owns the worker roster: it starts with one `Spawn` per
/// worker, and a hang adds one for the replacement. (The harness also
/// checks that no work goes to a worker never spawned.)
#[test]
fn the_core_spawns_every_worker_it_counts() {
    assert_eq!(run(&gateway(3, 8, 1), "0 tick").spawned, [0, 1, 2]);
    let clamped = run(&gateway(0, 8, 1), "0 tick").spawned;
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
    let h = run(&gateway(2, 8, 4), "0 register m 1 | 1 drain | 2 submit m 0");
    assert!(h.core.drained(), "idle workers leave at the drain step");
    assert_eq!(h.got.get(&1).map(String::as_str), Some("!Draining"));
    assert_eq!(h.core.stats().accepted, 0);
    let mut h = run(&gateway(2, 8, 4), "0 register m 1 | 1 submit m 0 | 1 drain");
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
    let mut h = run(&gateway(3, 8, 1), "0 register m 1 | 0 submit m 0 | 1 drain");
    assert_eq!(h.exits, [1, 2], "both idle workers leave");
    assert!(!h.core.drained(), "worker 0 still owes its batch");
    h.exec("2 done 0 ok");
    assert_eq!(h.exits, [1, 2, 0], "the busy worker leaves when done");
    assert!(h.core.drained());
}

// ---------------------------------------------------------------------
// The explorer: every interleaving, every fault position.

/// The explorer's gateway: small enough that every interleaving is
/// walked, with every mechanism reachable — shedding at capacity 2 and
/// batches of 2 once two requests queue behind busy workers, a breaker
/// that trips on one fault, and hang deadlines longer than its cooldown.
fn explorer_config(workers: usize) -> GatewayConfig {
    GatewayConfig {
        supervisor: SupervisorConfig {
            hang_deadline: Duration::from_micros(5_000),
            breaker_window: 2,
            breaker_min_samples: 1,
            breaker_threshold_pct: 50,
            breaker_cooldown: Duration::from_micros(3_000),
            breaker_probes: 1,
            ..SupervisorConfig::default()
        },
        ..gateway(workers, 2, 2)
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
    /// alternate 0 / 1, so an arrival can shed the one before it), the
    /// drain, abandoning an open ticket, each running worker's result
    /// (ok, or a panic in every request or in the first alone while the
    /// budget lasts), and a tick to the next hang deadline.
    fn successors(&self, tickets: u32) -> Vec<Node> {
        let mut lines = Vec::new();
        let now = self.h.now;
        if self.h.labels < tickets {
            lines.push(format!("{now} submit m {}", self.h.labels % 2));
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
                lines.push(format!("{now} done {worker} panic"));
                lines.push(format!("{now} done {worker} first"));
            }
        }
        if let Some(at) = self.h.core.next_deadline() {
            lines.push(format!("{at} tick"));
        }
        let step = |line: String| {
            let mut n = self.clone();
            n.drained |= line.ends_with("drain");
            n.abandoned |= line.contains("abandon");
            if line.ends_with("panic") || line.ends_with("first") {
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

/// What a walk covered: the states visited, the longest path, and
/// whether any state had shed a request or run a batch of two.
struct Walk {
    states: usize,
    depth: usize,
    shed: bool,
    batched: bool,
}

/// Walks every interleaving of `tickets` submissions over `workers`
/// workers with up to `faults` faulty results.
fn explore(workers: usize, tickets: u32, faults: usize) -> Walk {
    let root = Node {
        h: run(&explorer_config(workers), "0 register m 1"),
        drained: false,
        abandoned: false,
        faults_left: faults,
    };
    let mut seen = HashSet::new();
    let mut walk = Walk {
        states: 0,
        depth: 0,
        shed: false,
        batched: false,
    };
    let mut stack = vec![(root, 0usize)];
    while let Some((node, depth)) = stack.pop() {
        if !seen.insert(node.fingerprint()) {
            continue;
        }
        walk.depth = walk.depth.max(depth);
        let stats = node.h.core.stats();
        walk.shed |= stats.shed > 0;
        walk.batched |= stats.batched_requests > 0;
        assert!(depth < 200, "a path this long means a livelock");
        let next = node.successors(tickets);
        if next.is_empty() {
            node.check_end();
        }
        stack.extend(next.into_iter().map(|n| (n, depth + 1)));
    }
    walk.states = seen.len();
    walk
}

#[test]
fn every_interleaving_of_two_workers_and_three_tickets_keeps_the_invariants() {
    let Walk { states, depth, .. } = explore(2, 3, 1);
    println!("explored {states} states, depth {depth}");
    assert!(states > 1_000, "{states} states");
}

/// One worker, so requests queue behind it: the walk reaches a shed
/// request and a batch of two, which two workers and three tickets
/// cannot.
#[test]
fn every_interleaving_of_one_worker_and_four_tickets_sheds_and_batches() {
    let walk = explore(1, 4, 1);
    println!("explored {} states, depth {}", walk.states, walk.depth);
    assert!(
        walk.shed && walk.batched,
        "shed {}, batched {}",
        walk.shed,
        walk.batched
    );
}

/// The largest configuration, which `ci.sh` runs in release and whose
/// state count it prints.
#[test]
#[ignore = "the largest configuration; ci.sh runs it in release"]
fn every_interleaving_of_three_workers_and_four_tickets_keeps_the_invariants() {
    let t0 = std::time::Instant::now();
    let Walk { states, depth, .. } = explore(3, 4, 1);
    println!(
        "explored {states} states, depth {depth}, in {:.2?}",
        t0.elapsed()
    );
}

// ---------------------------------------------------------------------
// Real threads, through a runner that holds a worker or fails a request.

mod threads {
    use gcd2_repro::cgraph::{Graph, OpKind, TShape};
    use gcd2_repro::compiler::{
        Compiler, ExecOptions, GatewayConfig, InferArena, InferError, InferServer, InferencePlan,
        SupervisorConfig,
    };
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

    /// Appended past the plan's input, marks a request for [`runner`]:
    /// it holds its worker 400 ms before it runs.
    const HOLD: u8 = 0xF0;
    /// Appended past the plan's input, marks a request for [`runner`]:
    /// it fails with `Internal` and runs nothing.
    const FAIL: u8 = 0xF1;

    fn marked(input: &[u8], mark: u8) -> Vec<u8> {
        [input, &[mark]].concat()
    }

    /// The gateway's runner here: a marked input runs without its mark
    /// as the mark says; any other input runs as in every gateway.
    fn runner(
        plan: &InferencePlan,
        input: &[u8],
        arena: &mut InferArena,
        out: &mut Vec<u8>,
        opts: &ExecOptions,
    ) -> Result<(), InferError> {
        match input.split_last() {
            Some((&HOLD, rest)) if rest.len() == plan.input_len() => {
                std::thread::sleep(Duration::from_millis(400));
                plan.try_execute_into(rest, arena, out, opts)
            }
            Some((&FAIL, rest)) if rest.len() == plan.input_len() => Err(InferError::Internal {
                message: "marked to fail".to_string(),
            }),
            _ => plan.try_execute_into(input, arena, out, opts),
        }
    }

    /// With the one worker held busy for real, requests queue: dropping
    /// a queued ticket — outright, or after an inconclusive
    /// `wait_timeout` — abandons its request, which never runs, while a
    /// `wait_timeout` on a kept ticket cancels nothing and the same
    /// ticket's `wait` still gets the answer.
    #[test]
    fn dropping_a_queued_ticket_abandons_it_and_wait_timeout_cancels_nothing() {
        let plan = net(73);
        let want = plan.execute(&input());
        let server = InferServer::with_runner(
            GatewayConfig {
                workers: 1,
                ..GatewayConfig::default()
            },
            runner,
        );
        server.register("m", plan).expect("register");
        let submit = |x| server.submit_to("m", x, 0).expect("admitted");
        let busy = submit(marked(&input(), HOLD));
        let kept = submit(input());
        drop(submit(input()));
        let timed = submit(input());
        let expired = |r| matches!(r, Err(InferError::DeadlineExceeded { .. }));
        assert!(expired(timed.wait_timeout(Duration::from_millis(5))));
        drop(timed);
        assert!(expired(kept.wait_timeout(Duration::from_millis(10))));
        let stats = server.shutdown();
        assert_eq!(busy.wait(), Ok(want.clone()));
        assert_eq!(
            kept.wait(),
            Ok(want),
            "the timed-out wait cancelled nothing"
        );
        let books = (stats.accepted, stats.completed, stats.failed, stats.shed);
        assert_eq!((books, stats.abandoned), ((4, 2, 0, 0), 2), "{stats:?}");
    }

    /// A worker wedged for real — held far past the hang deadline — is
    /// answered `Hung` and replaced; the replacement serves a swapped
    /// plan bit-identically, and shutdown detaches the wedged thread
    /// instead of waiting out its hold.
    #[test]
    fn a_wedged_worker_is_replaced_and_the_gateway_swaps_and_drains() {
        let (a, b) = (net(71), net(72));
        let want = b.execute(&input());
        let server = InferServer::with_runner(
            GatewayConfig {
                workers: 1,
                max_batch: 1,
                supervisor: SupervisorConfig {
                    hang_deadline: Duration::from_millis(30),
                    ..SupervisorConfig::default()
                },
                ..GatewayConfig::default()
            },
            runner,
        );
        let sum_a = server.register("m", a).expect("register");
        let hung = server.infer_on("m", marked(&input(), HOLD), 0);
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

    /// One failed request fails alone. Request 0 holds the one worker,
    /// so requests 1–4 queue and run as one batch, in which request 2
    /// fails; the others answer bit-identically. Request 2's input
    /// submitted again, unmarked, runs on the same worker over the same
    /// arena and answers the baseline bytes.
    #[test]
    fn one_failed_request_fails_alone_and_its_input_then_answers() {
        let plan = net(74);
        let inputs: Vec<Vec<u8>> = (0..5u8)
            .map(|s| input().iter().map(|&x| (x + s) % 16).collect())
            .collect();
        let server = InferServer::with_runner(
            GatewayConfig {
                workers: 1,
                ..GatewayConfig::default()
            },
            runner,
        );
        server.register("m", plan.clone()).expect("register");
        let tickets: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let request = match i {
                    0 => marked(x, HOLD),
                    2 => marked(x, FAIL),
                    _ => x.clone(),
                };
                server.submit_to("m", request, 0).expect("admitted")
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let got = ticket.wait();
            if i == 2 {
                assert!(matches!(got, Err(InferError::Internal { .. })), "{got:?}");
            } else {
                assert_eq!(got, Ok(plan.execute(&inputs[i])), "request {i}");
            }
        }
        assert_eq!(
            server.infer_on("m", inputs[2].clone(), 0),
            Ok(plan.execute(&inputs[2]))
        );
        let stats = server.shutdown();
        let answered = (stats.completed, stats.failed);
        let batches = (stats.batches, stats.batched_requests);
        let replaced = stats.workers_replaced;
        assert_eq!((answered, batches, replaced), ((5, 1), (3, 4), 0));
    }

    /// Registry admission re-verifies the plan: real weight corruption
    /// is refused on register and on swap, and the gateway still admits
    /// and serves the clean plan.
    #[test]
    fn a_plan_with_corrupted_weights_is_refused_admission() {
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
