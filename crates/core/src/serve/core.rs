//! The gateway's decisions as one pure state machine.
//!
//! [`Core`] is everything [`super::InferServer`] decides: the model
//! registry, breaker admission, capacity and priority shedding, the
//! per-model queues and batch readiness (`max_batch` / `max_wait`),
//! dispatch, ticket ownership, hang takeover, the retry decision, ISA
//! demotion and re-promotion, drain, and every counter, histogram and
//! [`HealthEvent`]. It holds no thread, lock or clock. Each call is
//! [`Core::step`]`(now_us, event)` on a logical microsecond clock the
//! caller supplies, and what must happen outside — answer a ticket, hand
//! a worker its work, start a worker's thread — comes back as
//! [`Action`]s; the core owns the worker roster. The core reports its earliest deadline
//! ([`Core::next_deadline`]), so timers are data: the shell sleeps until
//! then and steps an [`Event::Tick`].
//!
//! **Ownership rule.** A ticket's reply handle `T` lives in exactly one
//! place: its model's queue, the in-flight batch of the worker that runs
//! it, or the [`Action::Answer`] that moves it out. Whoever holds it
//! answers it, so a ticket is answered at most once by construction; a
//! worker the core has declared hung no longer holds its batch, and its
//! late [`Event::Done`] finds nothing to answer.
//!
//! The plan type `P` is opaque to the core (the shell passes an
//! `Arc<InferencePlan>`, the scenario tests a number). This module is
//! public only so the scenario harness and the interleaving explorer in
//! `tests/gateway_scenarios.rs` can drive it event by event; it is not a
//! stable interface.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use super::{
    BreakerHealth, GatewayConfig, GatewayHealth, LatencyHistogram, ModelStats, ServerStats,
    WorkerHealth,
};
use crate::error::InferError;
use crate::supervise::{
    counts_as_fault, kernel_attributed, retry_backoff, Admission, BreakerState, CircuitBreaker,
    HealthEvent, HealthLog, SupervisorConfig,
};

/// One input to [`Core::step`].
#[derive(Debug)]
pub enum Event<P, T> {
    /// Add `plan` under `name`; `checksum` is its verified integrity
    /// checksum. Returns the checksum.
    Register {
        /// Registry name.
        name: String,
        /// The plan.
        plan: P,
        /// Its integrity checksum.
        checksum: u64,
    },
    /// Replace `name`'s plan if the current one still hashes to
    /// `expected`. Returns the new checksum.
    Swap {
        /// Registry name.
        name: String,
        /// The checksum the caller believes is registered.
        expected: u64,
        /// The replacement plan.
        plan: P,
        /// Its integrity checksum.
        checksum: u64,
    },
    /// Remove `name`, answering its queued tickets with
    /// [`InferError::UnknownModel`]. Returns the removed checksum.
    Unregister {
        /// Registry name.
        name: String,
    },
    /// A request for `model`; `reply` is where its answer goes. Returns
    /// the ticket number.
    Submit {
        /// Registry name.
        model: String,
        /// The input bytes.
        input: Vec<u8>,
        /// Shed priority (higher survives longer).
        priority: u8,
        /// The reply handle the core owns until it answers.
        reply: T,
    },
    /// The caller dropped `ticket` unsettled: skip it if still queued.
    Abandon {
        /// The ticket number [`Event::Submit`] returned.
        ticket: u64,
    },
    /// A worker finished running the requests its last [`Work`] named.
    Done {
        /// The worker.
        worker: usize,
        /// One entry per request it ran.
        ran: Vec<Ran>,
    },
    /// Time passed: act on every deadline at or before `now_us`.
    Tick,
    /// Refuse new work; answer everything accepted, then retire the
    /// workers.
    Drain,
    /// The drain has finished: refuse everything from now on.
    Stop,
}

/// One request's run, reported in [`Event::Done`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ran {
    /// The request's index in the batch its [`Work::Run`] carried.
    pub request: usize,
    /// Its output, or the structured error it ended in.
    pub result: Result<Vec<u8>, InferError>,
    /// Microseconds the run took.
    pub exec_us: u64,
}

/// What a worker thread does next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Work<P> {
    /// Run a new batch: each input in turn over one arena.
    Run {
        /// The plan to run.
        plan: P,
        /// The batch's inputs, in request order.
        inputs: Vec<Vec<u8>>,
        /// Run on the scalar oracle tier (the model is demoted).
        force_scalar: bool,
    },
    /// Run these requests of the current batch again (a retry round).
    Rerun {
        /// The plan the batch's [`Work::Run`] carried.
        plan: P,
        /// Indices into the last [`Work::Run`]'s inputs.
        requests: Vec<usize>,
    },
    /// Leave the thread.
    Exit,
}

/// One output of [`Core::step`].
#[derive(Debug, PartialEq, Eq)]
pub enum Action<P, T> {
    /// The value the caller of this step gets back (a checksum for the
    /// registry events, a ticket number for [`Event::Submit`]).
    Return(Result<u64, InferError>),
    /// Answer a ticket.
    Answer {
        /// Its reply handle.
        to: T,
        /// The answer.
        result: Result<Vec<u8>, InferError>,
    },
    /// Hand `worker` its next work.
    Work {
        /// The worker.
        worker: usize,
        /// What it does.
        work: Work<P>,
    },
    /// Start a worker thread with this id (one of the first workers, or
    /// a replacement for a hung one).
    Spawn {
        /// The new worker's id.
        worker: usize,
    },
}

/// A queued request.
#[derive(Debug, Clone)]
struct Job<T> {
    ticket: u64,
    input: Vec<u8>,
    priority: u8,
    enqueued_us: u64,
    probe: bool,
    reply: T,
}

/// A dispatched request awaiting its answer.
#[derive(Debug, Clone)]
struct Request<T> {
    reply: T,
    probe: bool,
    result: Result<Vec<u8>, InferError>,
    exec_us: u64,
}

/// A worker's dispatched batch. `rerun_at` is set while the batch waits
/// out a retry backoff (the worker is then not running).
#[derive(Debug, Clone)]
struct InFlight<P, T> {
    model: String,
    serial: u64,
    plan: P,
    dispatched_us: u64,
    attempt: u32,
    rerun_at: Option<u64>,
    pending: Vec<usize>,
    requests: Vec<Request<T>>,
}

#[derive(Debug, Clone)]
enum Slot<P, T> {
    Idle,
    Busy(InFlight<P, T>),
    /// Declared hung while running: its thread still owes a late `Done`.
    Wedged,
    Exited,
}

#[derive(Debug, Clone)]
struct Worker<P, T> {
    slot: Slot<P, T>,
    wedged: bool,
    batches: u64,
}

/// A registered model. `counts` holds its lifetime counters; the
/// fields a snapshot derives (checksum, summaries, breaker, demotion)
/// are filled in by [`Core::model_stats`].
#[derive(Debug, Clone)]
struct Model<P, T> {
    serial: u64,
    plan: P,
    checksum: u64,
    queue: VecDeque<Job<T>>,
    breaker: CircuitBreaker,
    counts: ModelStats,
    queue_wait: LatencyHistogram,
    assembly: LatencyHistogram,
    execute: LatencyHistogram,
    demoted_until: Option<u64>,
}

/// The gateway's state machine; see the module docs.
#[derive(Debug, Clone)]
pub struct Core<P, T> {
    capacity: usize,
    max_batch: usize,
    max_wait_us: u64,
    sup: SupervisorConfig,
    models: BTreeMap<String, Model<P, T>>,
    workers: Vec<Worker<P, T>>,
    next_ticket: u64,
    next_serial: u64,
    draining: bool,
    stopped: bool,
    totals: ServerStats,
    health: HealthLog,
}

/// `d` in whole microseconds, saturating.
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl<P: Clone, T> Core<P, T> {
    /// A core with `config.workers` (at least one) idle workers, ids
    /// `0..workers`, and an empty registry; with it the [`Action::Spawn`]
    /// that starts each worker's thread.
    pub fn new(config: &GatewayConfig) -> (Core<P, T>, Vec<Action<P, T>>) {
        let workers = config.workers.max(1);
        let idle = || Worker {
            slot: Slot::Idle,
            wedged: false,
            batches: 0,
        };
        let spawns = (0..workers).map(|worker| Action::Spawn { worker });
        let core = Core {
            capacity: config.capacity.max(1),
            max_batch: config.max_batch.max(1),
            max_wait_us: micros(config.max_wait),
            sup: config.supervisor,
            models: BTreeMap::new(),
            workers: (0..workers).map(|_| idle()).collect(),
            next_ticket: 0,
            next_serial: 0,
            draining: false,
            stopped: false,
            totals: ServerStats::default(),
            health: HealthLog::new(config.supervisor.health_events),
        };
        (core, spawns.collect())
    }

    /// Applies `event` at logical time `now_us` (non-decreasing across
    /// calls), then acts on every deadline due by `now_us` and
    /// dispatches every batch that is ready to an idle worker.
    pub fn step(&mut self, now_us: u64, event: Event<P, T>) -> Vec<Action<P, T>> {
        let mut out = Vec::new();
        match event {
            Event::Register {
                name,
                plan,
                checksum,
            } => {
                let r = self.register(name, plan, checksum);
                out.push(Action::Return(r));
            }
            Event::Swap {
                name,
                expected,
                plan,
                checksum,
            } => {
                let r = self.swap(&name, expected, plan, checksum);
                out.push(Action::Return(r));
            }
            Event::Unregister { name } => {
                let r = self.unregister(&name, &mut out);
                out.push(Action::Return(r));
            }
            Event::Submit {
                model,
                input,
                priority,
                reply,
            } => {
                let r = self.submit(now_us, model, input, priority, reply, &mut out);
                out.push(Action::Return(r));
            }
            Event::Abandon { ticket } => self.abandon(ticket),
            Event::Done { worker, ran } => self.done(now_us, worker, ran, &mut out),
            Event::Tick => {}
            Event::Drain => self.draining = true,
            Event::Stop => {
                self.draining = true;
                self.stopped = true;
            }
        }
        self.settle(now_us, &mut out);
        out
    }

    /// The earliest logical time at which a [`Event::Tick`] would act:
    /// a busy worker's hang deadline or retry round, a demoted model's
    /// quarantine end, or the `max_wait` of the oldest queued request
    /// when an idle worker could take it. `None` when nothing is timed.
    /// Always later than the `now_us` of the last step.
    pub fn next_deadline(&self) -> Option<u64> {
        let hang_us = micros(self.sup.hang_deadline);
        let busy = self.workers.iter().filter_map(|w| match &w.slot {
            Slot::Busy(f) => {
                let hang = f.dispatched_us.saturating_add(hang_us);
                Some(f.rerun_at.map_or(hang, |at| at.min(hang)))
            }
            _ => None,
        });
        let quarantines = self.models.values().filter_map(|m| m.demoted_until);
        let batch = self
            .workers
            .iter()
            .any(|w| matches!(w.slot, Slot::Idle))
            .then(|| self.oldest())
            .flatten()
            .map(|(_, enqueued)| enqueued.saturating_add(self.max_wait_us));
        busy.chain(quarantines).chain(batch).min()
    }

    /// Whether the drain has finished: nothing queued, and no worker
    /// idle or running a batch the core still owns.
    pub fn drained(&self) -> bool {
        self.models.values().all(|m| m.queue.is_empty())
            && self
                .workers
                .iter()
                .all(|w| matches!(w.slot, Slot::Wedged | Slot::Exited))
    }

    /// Whether `worker` was ever declared hung (its thread is detached,
    /// never joined).
    pub fn wedged(&self, worker: usize) -> bool {
        self.workers.get(worker).is_some_and(|w| w.wedged)
    }

    /// The gateway-wide lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.totals
    }

    /// The registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        self.models.keys().cloned().collect()
    }

    /// One model's counters and latency percentiles.
    pub fn model_stats(&self, name: &str) -> Option<ModelStats> {
        let m = self.models.get(name)?;
        Some(ModelStats {
            checksum: m.checksum,
            queue_wait: m.queue_wait.summary(),
            assembly: m.assembly.summary(),
            execute: m.execute.summary(),
            demoted: m.demoted_until.is_some(),
            breaker: m.breaker.state(),
            ..m.counts.clone()
        })
    }

    /// Worker liveness, breaker postures, the supervision counters and
    /// the retained health events at `now_us`.
    pub fn health(&self, now_us: u64) -> GatewayHealth {
        let workers = self.workers.iter().enumerate().map(|(id, w)| {
            let busy_for = match &w.slot {
                Slot::Busy(f) => Some(Duration::from_micros(
                    now_us.saturating_sub(f.dispatched_us),
                )),
                _ => None,
            };
            WorkerHealth {
                id,
                wedged: w.wedged,
                busy_for,
                batches: w.batches,
            }
        });
        let breakers = self.models.iter().map(|(name, m)| BreakerHealth {
            model: name.clone(),
            state: m.breaker.state(),
            demoted: m.demoted_until.is_some(),
        });
        let t = &self.totals;
        GatewayHealth {
            workers: workers.collect(),
            breakers: breakers.collect(),
            hung: t.hung,
            workers_replaced: t.workers_replaced,
            retries: t.retries,
            retries_exhausted: t.retries_exhausted,
            demotions: t.demotions,
            repromotions: t.repromotions,
            breaker_rejected: t.breaker_rejected,
            abandoned: t.abandoned,
            events: self.health.snapshot(),
        }
    }

    fn accepting(&self) -> Result<(), InferError> {
        if self.stopped {
            Err(InferError::ServerStopped)
        } else if self.draining {
            Err(InferError::Draining)
        } else {
            Ok(())
        }
    }

    fn register(&mut self, name: String, plan: P, checksum: u64) -> Result<u64, InferError> {
        self.accepting()?;
        if self.models.contains_key(&name) {
            return Err(InferError::Internal {
                message: format!("model {name:?} is already registered; use swap"),
            });
        }
        self.next_serial += 1;
        let model = Model {
            serial: self.next_serial,
            plan,
            checksum,
            queue: VecDeque::new(),
            breaker: CircuitBreaker::new(self.sup.breaker_config()),
            counts: ModelStats {
                model: name.clone(),
                checksum,
                ..ModelStats::default()
            },
            queue_wait: LatencyHistogram::default(),
            assembly: LatencyHistogram::default(),
            execute: LatencyHistogram::default(),
            demoted_until: None,
        };
        self.models.insert(name, model);
        Ok(checksum)
    }

    fn swap(
        &mut self,
        name: &str,
        expected: u64,
        plan: P,
        checksum: u64,
    ) -> Result<u64, InferError> {
        self.accepting()?;
        let m = self
            .models
            .get_mut(name)
            .ok_or_else(|| InferError::UnknownModel {
                model: name.to_string(),
            })?;
        if m.checksum != expected {
            return Err(InferError::IntegrityViolation {
                expected,
                got: m.checksum,
            });
        }
        m.plan = plan;
        m.checksum = checksum;
        Ok(checksum)
    }

    fn unregister(&mut self, name: &str, out: &mut Vec<Action<P, T>>) -> Result<u64, InferError> {
        let m = self
            .models
            .remove(name)
            .ok_or_else(|| InferError::UnknownModel {
                model: name.to_string(),
            })?;
        for job in m.queue {
            self.totals.failed += 1;
            out.push(Action::Answer {
                to: job.reply,
                result: Err(InferError::UnknownModel {
                    model: name.to_string(),
                }),
            });
        }
        Ok(m.checksum)
    }

    fn submit(
        &mut self,
        now_us: u64,
        model: String,
        input: Vec<u8>,
        priority: u8,
        reply: T,
        out: &mut Vec<Action<P, T>>,
    ) -> Result<u64, InferError> {
        self.accepting()?;
        let capacity = self.capacity;
        let Some(m) = self.models.get_mut(&model) else {
            return Err(InferError::UnknownModel { model });
        };
        // Breaker admission happens before the request touches a queue:
        // shedding at the front door is the whole point of Open.
        let before = m.breaker.state();
        let admission = m.breaker.admit(now_us);
        if before == BreakerState::Open && m.breaker.state() == BreakerState::HalfOpen {
            self.health.record(HealthEvent::BreakerHalfOpen {
                model: model.clone(),
            });
        }
        let probe = match admission {
            Admission::Admit => false,
            Admission::Probe => true,
            Admission::Reject { retry_after_us } => {
                m.counts.breaker_rejected += 1;
                self.totals.breaker_rejected += 1;
                return Err(InferError::BreakerOpen {
                    model,
                    retry_after: Duration::from_micros(retry_after_us),
                });
            }
        };
        if m.queue.len() >= capacity {
            // Shed the lowest-priority queued request — the most recent
            // one on ties, so older equal-priority work keeps its place —
            // but only for a strictly higher-priority arrival; otherwise
            // the arrival itself is backpressured.
            let victim = m
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(idx, j)| (j.priority, usize::MAX - idx))
                .map(|(idx, j)| (idx, j.priority));
            match victim {
                Some((idx, lowest)) if lowest < priority => {
                    if let Some(evicted) = m.queue.remove(idx) {
                        m.breaker.cancel(evicted.probe);
                        m.counts.shed += 1;
                        self.totals.shed += 1;
                        out.push(Action::Answer {
                            to: evicted.reply,
                            result: Err(InferError::Shed {
                                priority: evicted.priority,
                                capacity,
                            }),
                        });
                    }
                }
                _ => {
                    m.breaker.cancel(probe);
                    m.counts.rejected += 1;
                    self.totals.rejected += 1;
                    return Err(InferError::QueueFull { capacity });
                }
            }
        }
        self.next_ticket += 1;
        m.queue.push_back(Job {
            ticket: self.next_ticket,
            input,
            priority,
            enqueued_us: now_us,
            probe,
            reply,
        });
        m.counts.accepted += 1;
        self.totals.accepted += 1;
        Ok(self.next_ticket)
    }

    fn abandon(&mut self, ticket: u64) {
        for m in self.models.values_mut() {
            if let Some(idx) = m.queue.iter().position(|j| j.ticket == ticket) {
                if let Some(job) = m.queue.remove(idx) {
                    // Never executed: free its breaker admission so a
                    // probe slot cannot leak.
                    m.breaker.cancel(job.probe);
                    m.counts.abandoned += 1;
                    self.totals.abandoned += 1;
                }
                return;
            }
        }
    }

    fn done(&mut self, now_us: u64, worker: usize, ran: Vec<Ran>, out: &mut Vec<Action<P, T>>) {
        let Some(w) = self.workers.get_mut(worker) else {
            return;
        };
        match &mut w.slot {
            Slot::Busy(f) if f.rerun_at.is_none() => {}
            Slot::Wedged => {
                // The late results of a batch already answered as hung.
                w.slot = Slot::Exited;
                out.push(Action::Work {
                    worker,
                    work: Work::Exit,
                });
                return;
            }
            _ => return,
        }
        let Slot::Busy(mut f) = std::mem::replace(&mut w.slot, Slot::Idle) else {
            unreachable!("matched Busy above");
        };
        let kernel_fault = ran
            .iter()
            .any(|r| r.result.as_ref().err().is_some_and(kernel_attributed));
        f.pending.clear();
        for r in ran {
            if let Some(req) = f.requests.get_mut(r.request) {
                if matches!(r.result, Err(InferError::Internal { .. })) {
                    f.pending.push(r.request);
                }
                req.exec_us += r.exec_us;
                req.result = r.result;
            }
        }
        let mut model = self
            .models
            .get_mut(&f.model)
            .filter(|m| m.serial == f.serial);
        if kernel_fault {
            if let Some(m) = model.as_deref_mut() {
                m.counts.kernel_faults += 1;
            }
        }
        // Only transient failures (caught panics) re-run, and only within
        // the budget; any other result is final.
        if !f.pending.is_empty() && f.attempt <= self.sup.retry_budget {
            let backoff =
                retry_backoff(self.sup.retry_seed, f.attempt, self.sup.retry_backoff_base);
            f.attempt += 1;
            f.rerun_at = Some(now_us.saturating_add(micros(backoff)));
            if let Some(m) = model.as_deref_mut() {
                m.counts.retries += 1;
            }
            self.totals.retries += 1;
            self.workers[worker].slot = Slot::Busy(f);
            return;
        }
        if f.pending.is_empty() && f.attempt > 1 {
            self.health.record(HealthEvent::RetrySucceeded {
                model: f.model.clone(),
                attempt: f.attempt - 1,
            });
        } else if !f.pending.is_empty() && self.sup.retry_budget > 0 {
            self.totals.retries_exhausted += 1;
            self.health.record(HealthEvent::RetriesExhausted {
                model: f.model.clone(),
                attempts: f.attempt,
            });
        }
        for req in f.requests {
            let ok = req.result.is_ok();
            if let Some(m) = model.as_deref_mut() {
                m.execute.record(req.exec_us);
                let fault = req.result.as_ref().err().is_some_and(counts_as_fault);
                record_outcome(&mut self.health, m, &f.model, fault, req.probe, now_us);
                if ok {
                    m.counts.completed += 1;
                } else {
                    m.counts.failed += 1;
                }
            }
            if ok {
                self.totals.completed += 1;
            } else {
                self.totals.failed += 1;
            }
            out.push(Action::Answer {
                to: req.reply,
                result: req.result,
            });
        }
        // Enough kernel-attributed faults pin the model to the scalar
        // oracle tier for a quarantine.
        let demote_after = self.sup.demote_after;
        if let Some(m) = model {
            if demote_after > 0
                && m.counts.kernel_faults >= demote_after
                && m.demoted_until.is_none()
            {
                m.demoted_until = Some(now_us.saturating_add(micros(self.sup.quarantine)));
                m.counts.demotions += 1;
                self.totals.demotions += 1;
                self.health.record(HealthEvent::Demoted {
                    model: f.model.clone(),
                    kernel_faults: m.counts.kernel_faults,
                });
            }
        }
    }

    /// Acts on every deadline due by `now_us` — quarantine ends, hang
    /// deadlines, retry rounds — then dispatches ready batches and, when
    /// draining with nothing queued, retires the idle workers.
    fn settle(&mut self, now_us: u64, out: &mut Vec<Action<P, T>>) {
        for (name, m) in &mut self.models {
            if m.demoted_until.is_some_and(|until| until <= now_us) {
                m.demoted_until = None;
                m.counts.kernel_faults = 0;
                self.totals.repromotions += 1;
                self.health.record(HealthEvent::Repromoted {
                    model: name.clone(),
                });
            }
        }
        let hang_us = micros(self.sup.hang_deadline);
        for id in 0..self.workers.len() {
            let Slot::Busy(f) = &mut self.workers[id].slot else {
                continue;
            };
            if now_us.saturating_sub(f.dispatched_us) >= hang_us {
                self.hang(now_us, id, out);
            } else if f.rerun_at.is_some_and(|at| at <= now_us) {
                f.rerun_at = None;
                out.push(Action::Work {
                    worker: id,
                    work: Work::Rerun {
                        plan: f.plan.clone(),
                        requests: f.pending.clone(),
                    },
                });
            }
        }
        while let Some(worker) = self
            .workers
            .iter()
            .position(|w| matches!(w.slot, Slot::Idle))
        {
            if !self.dispatch(now_us, worker, out) {
                break;
            }
        }
        if self.draining && self.models.values().all(|m| m.queue.is_empty()) {
            for (id, w) in self.workers.iter_mut().enumerate() {
                if matches!(w.slot, Slot::Idle) {
                    w.slot = Slot::Exited;
                    out.push(Action::Work {
                        worker: id,
                        work: Work::Exit,
                    });
                }
            }
        }
    }

    /// The model whose front request has waited longest (ties to the
    /// first name), with that request's enqueue time.
    fn oldest(&self) -> Option<(&String, u64)> {
        self.models
            .iter()
            .filter_map(|(name, m)| m.queue.front().map(|j| (name, j.enqueued_us)))
            .min_by_key(|&(_, enqueued)| enqueued)
    }

    /// Hands `worker` the oldest model's batch if it is ready: full at
    /// `max_batch`, aged past `max_wait`, or flushed by a drain.
    fn dispatch(&mut self, now_us: u64, worker: usize, out: &mut Vec<Action<P, T>>) -> bool {
        let Some((name, oldest)) = self.oldest() else {
            return false;
        };
        let name = name.clone();
        let Some(m) = self.models.get_mut(&name) else {
            return false;
        };
        let ready = m.queue.len() >= self.max_batch
            || now_us.saturating_sub(oldest) >= self.max_wait_us
            || self.draining;
        if !ready {
            return false;
        }
        let take = m.queue.len().min(self.max_batch);
        let jobs: Vec<Job<T>> = m.queue.drain(..take).collect();
        m.assembly.record(now_us.saturating_sub(oldest));
        let mut inputs = Vec::with_capacity(jobs.len());
        let mut requests = Vec::with_capacity(jobs.len());
        for job in jobs {
            m.queue_wait.record(now_us.saturating_sub(job.enqueued_us));
            inputs.push(job.input);
            requests.push(Request {
                reply: job.reply,
                probe: job.probe,
                result: Ok(Vec::new()),
                exec_us: 0,
            });
        }
        let size = requests.len() as u64;
        m.counts.batches += 1;
        m.counts.max_batch_observed = m.counts.max_batch_observed.max(size);
        self.totals.batches += 1;
        if size >= 2 {
            m.counts.batched_requests += size;
            self.totals.batched_requests += size;
        }
        let w = &mut self.workers[worker];
        w.batches += 1;
        w.slot = Slot::Busy(InFlight {
            model: name,
            serial: m.serial,
            plan: m.plan.clone(),
            dispatched_us: now_us,
            attempt: 1,
            rerun_at: None,
            pending: Vec::new(),
            requests,
        });
        out.push(Action::Work {
            worker,
            work: Work::Run {
                plan: m.plan.clone(),
                inputs,
                force_scalar: m.demoted_until.is_some(),
            },
        });
        true
    }

    /// Takes `worker`'s overdue batch: answers every ticket with
    /// [`InferError::Hung`], marks the worker wedged, and starts a
    /// replacement so capacity never shrinks.
    fn hang(&mut self, now_us: u64, worker: usize, out: &mut Vec<Action<P, T>>) {
        let w = &mut self.workers[worker];
        let Slot::Busy(f) = std::mem::replace(&mut w.slot, Slot::Wedged) else {
            return;
        };
        w.wedged = true;
        if f.rerun_at.is_some() {
            // Waiting out a retry backoff, not running: nothing will
            // come back from it, so it leaves now.
            w.slot = Slot::Exited;
            out.push(Action::Work {
                worker,
                work: Work::Exit,
            });
        }
        self.totals.hung += 1;
        self.health.record(HealthEvent::WorkerHung {
            worker,
            model: f.model.clone(),
            in_flight: f.requests.len(),
        });
        let elapsed = Duration::from_micros(now_us.saturating_sub(f.dispatched_us));
        let mut model = self
            .models
            .get_mut(&f.model)
            .filter(|m| m.serial == f.serial);
        for req in f.requests {
            self.totals.failed += 1;
            if let Some(m) = model.as_deref_mut() {
                m.counts.failed += 1;
                record_outcome(&mut self.health, m, &f.model, true, req.probe, now_us);
            }
            out.push(Action::Answer {
                to: req.reply,
                result: Err(InferError::Hung {
                    model: f.model.clone(),
                    elapsed,
                    deadline: self.sup.hang_deadline,
                }),
            });
        }
        let replacement = self.workers.len();
        self.workers.push(Worker {
            slot: Slot::Idle,
            wedged: false,
            batches: 0,
        });
        self.totals.workers_replaced += 1;
        self.health.record(HealthEvent::WorkerReplaced {
            wedged: worker,
            replacement,
        });
        out.push(Action::Spawn {
            worker: replacement,
        });
    }
}

/// Feeds one admitted request's outcome to its model's breaker, logging
/// the Open/Closed transitions the record provokes.
fn record_outcome<P, T>(
    health: &mut HealthLog,
    m: &mut Model<P, T>,
    name: &str,
    error: bool,
    probe: bool,
    now_us: u64,
) {
    let before = m.breaker.state();
    m.breaker.record(error, probe, now_us);
    let model = name.to_string();
    match m.breaker.state() {
        after if after == before => {}
        BreakerState::Open => {
            health.record(HealthEvent::BreakerOpened { model });
        }
        BreakerState::Closed => {
            health.record(HealthEvent::BreakerClosed { model });
        }
        // record() never transitions *into* HalfOpen (admit does).
        BreakerState::HalfOpen => {}
    }
}
