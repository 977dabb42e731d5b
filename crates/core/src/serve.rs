//! A dynamic-batching, multi-model serving gateway over
//! [`InferencePlan`].
//!
//! [`InferServer`] serves many plans under caller-chosen names, with
//! hot [`InferServer::register`] / [`InferServer::unregister`] /
//! [`InferServer::swap`] (a swap is keyed on the plan's integrity
//! checksum, so two operators cannot silently race a replacement).
//! Dispatch is work-conserving: an idle worker takes queued work the
//! moment there is any, up to [`GatewayConfig::max_batch`] requests of
//! one model, so requests coalesce into a batch only while every worker
//! is busy. It sheds the lowest-priority queued request to admit a
//! strictly higher-priority one ([`InferError::Shed`], else
//! [`InferError::QueueFull`]), drains gracefully, and supervises itself
//! (DESIGN.md §6h): a hang deadline with worker replacement and a
//! per-model circuit breaker. Outputs are **bit-identical** to
//! single-shot execution for every batch bound and worker count.
//!
//! The gateway is a **sans-I/O core** inside a thin shell (DESIGN.md
//! §6f). Every decision — admission, queueing, dispatch, ticket
//! ownership, hang takeover, drain, every counter and [`HealthEvent`] —
//! is one [`core::Core::step`]`(now_us, event)` over a logical clock. The
//! shell here holds that core under one mutex with one condvar, and owns
//! only what needs I/O:
//!
//! * worker threads that run each request of the batch they are handed
//!   through [`InferencePlan::try_execute_into`] over an arena they keep
//!   per model, then post the results as a `Done` event;
//! * one timer thread that sleeps until the core's next deadline (a busy
//!   worker's hang deadline) and posts a `Tick`;
//! * the channels that deliver each answer to its [`InferTicket`].
//!
//! A request is the panic-isolation unit: the executor's own guard turns
//! a panic into that request's [`InferError::Internal`], and the rest of
//! its batch runs on. Every result is final: running a plan is a
//! deterministic function of the plan, the input and the kernel tier, so
//! the gateway has nothing to retry.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::InferError;
use crate::infer::{ExecOptions, InferArena, InferencePlan};
use crate::supervise::{BreakerState, HealthEvent, SupervisorConfig};

#[doc(hidden)]
pub mod core;

use self::core::{micros, Action, Core, Event, Ran, Work};

/// Gateway sizing knobs. No knob delays a request: an idle worker takes
/// queued work in the step that finds it.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Worker threads draining the scheduler.
    pub workers: usize,
    /// Bound on each model's pending queue (shed/reject above it).
    pub capacity: usize,
    /// Most queued requests of one model an idle worker takes as one
    /// batch; `1` disables batching (every request executes alone, same
    /// code path). A batch holds more than one request only when they
    /// queued while every worker was busy.
    pub max_batch: usize,
    /// Execution options applied to every request; a deadline runs from
    /// the start of each request's run.
    pub opts: ExecOptions,
    /// Self-healing knobs: hang deadline and circuit breakers. The
    /// defaults keep supervision invisible on a healthy gateway (see
    /// [`SupervisorConfig`]).
    pub supervisor: SupervisorConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 2,
            capacity: 64,
            max_batch: 8,
            opts: ExecOptions::default(),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Number of log₂ latency buckets: bucket `i` counts durations in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 is `< 1µs`), so bucket 39
/// tops out above 150 hours — nothing a serving gateway sees saturates.
const HIST_BUCKETS: usize = 40;

/// A log₂ histogram of durations in microseconds. Percentiles are
/// resolved to the **upper bound** of their bucket (conservative: never
/// under-reports).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    pub(crate) fn record(&mut self, us: u64) {
        let idx = ((u64::BITS - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx] += 1;
    }

    /// The histogram reduced to sample count plus p50/p99, for
    /// [`ModelStats`] snapshots.
    pub fn summary(&self) -> LatencySummary {
        let total: u64 = self.buckets.iter().sum();
        let percentile = |q: f64| -> Duration {
            if total == 0 {
                return Duration::ZERO;
            }
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut cum = 0;
            for (idx, &c) in self.buckets.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    // Bucket upper bound: 2^idx µs (idx 0 → 1µs).
                    return Duration::from_micros(1u64 << idx.min(63));
                }
            }
            Duration::from_micros(1u64 << (HIST_BUCKETS - 1))
        };
        LatencySummary {
            count: total,
            p50: percentile(0.50),
            p99: percentile(0.99),
        }
    }
}

/// A [`LatencyHistogram`] snapshot: how many samples, and the p50/p99
/// bucket upper bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median latency (bucket upper bound).
    pub p50: Duration,
    /// 99th-percentile latency (bucket upper bound).
    pub p99: Duration,
}

/// One model's lifetime counters and latency percentiles, snapshot by
/// [`InferServer::model_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Registry name.
    pub model: String,
    /// Integrity checksum of the currently registered plan.
    pub checksum: u64,
    /// Requests admitted to this model's queue.
    pub accepted: u64,
    /// Requests answered with an output.
    pub completed: u64,
    /// Requests answered with a structured error.
    pub failed: u64,
    /// Accepted requests later evicted by higher-priority arrivals.
    pub shed: u64,
    /// Submissions refused outright (queue full, no lower-priority
    /// victim).
    pub rejected: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests that executed in a batch of two or more.
    pub batched_requests: u64,
    /// Largest batch dispatched.
    pub max_batch_observed: u64,
    /// Time from submission to batch dispatch, per request.
    pub queue_wait: LatencySummary,
    /// Time each batch's oldest request waited for a worker, per batch
    /// (from its enqueue to dispatch).
    pub assembly: LatencySummary,
    /// Time each request spent executing.
    pub execute: LatencySummary,
    /// Submissions shed by this model's circuit breaker.
    pub breaker_rejected: u64,
    /// Accepted requests whose tickets were dropped unsettled before
    /// dispatch (skipped, not executed).
    pub abandoned: u64,
    /// The circuit breaker's current state.
    pub breaker: BreakerState,
}

/// Counters of a gateway's lifetime, summed over every model, returned
/// by [`InferServer::shutdown`] and [`InferServer::stats`]. Per-model
/// breakdowns with latency percentiles live in [`ModelStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted to a queue.
    pub accepted: u64,
    /// Requests refused with [`InferError::QueueFull`] (or
    /// [`InferError::Shed`] at submission).
    pub rejected: u64,
    /// Requests that completed with an output.
    pub completed: u64,
    /// Requests that completed with a structured error.
    pub failed: u64,
    /// Accepted requests evicted by higher-priority arrivals.
    pub shed: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests that executed in a batch of two or more.
    pub batched_requests: u64,
    /// Batches declared hung (tickets answered with
    /// [`InferError::Hung`]).
    pub hung: u64,
    /// Replacement workers spawned for wedged ones.
    pub workers_replaced: u64,
    /// Always 0: the gateway does not retry (every result is final). The
    /// field stays because the frozen benchmark's supervisor-idle check
    /// reads it.
    pub retries: u64,
    /// Submissions shed by a circuit breaker
    /// ([`InferError::BreakerOpen`]).
    pub breaker_rejected: u64,
    /// Accepted requests whose tickets were dropped unsettled before
    /// dispatch; skipped, not executed, so
    /// `accepted == completed + failed + shed + abandoned`.
    pub abandoned: u64,
}

/// One worker's liveness in a [`GatewayHealth`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerHealth {
    /// Worker id (monotone; replacements get fresh ids).
    pub id: usize,
    /// Declared hung; its thread is detached.
    pub wedged: bool,
    /// How long the current batch has been executing, if any.
    pub busy_for: Option<Duration>,
    /// Batches this worker has dispatched.
    pub batches: u64,
}

/// One model's supervision posture in a [`GatewayHealth`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerHealth {
    /// Registry name.
    pub model: String,
    /// Circuit-breaker state.
    pub state: BreakerState,
}

/// A point-in-time picture of the gateway's self-healing machinery:
/// worker liveness, breaker states, the supervision counters, and the
/// retained tail of the [`HealthEvent`] ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayHealth {
    /// Every worker ever spawned, wedged ones included, sorted by id.
    pub workers: Vec<WorkerHealth>,
    /// Per-model breaker posture, sorted by model name.
    pub breakers: Vec<BreakerHealth>,
    /// Batches declared hung.
    pub hung: u64,
    /// Replacement workers spawned.
    pub workers_replaced: u64,
    /// Submissions shed by a breaker.
    pub breaker_rejected: u64,
    /// Accepted requests abandoned before dispatch.
    pub abandoned: u64,
    /// The retained `(seq, event)` tail, oldest first; `seq` is global
    /// and monotone, so gaps between polls are detectable.
    pub events: Vec<(u64, HealthEvent)>,
}

/// What a ticket is answered with.
type Reply = Result<Vec<u8>, InferError>;
type Plan = Arc<InferencePlan>;
/// How a worker runs one request: [`InferencePlan::try_execute_into`],
/// unless a test built the gateway with a stand-in.
type Runner = fn(
    &InferencePlan,
    &[u8],
    &mut InferArena,
    &mut Vec<u8>,
    &ExecOptions,
) -> Result<(), InferError>;

/// Everything behind the gateway's one lock: the core, and the I/O
/// state its actions drive.
#[derive(Debug)]
struct Shell {
    core: Core<Plan, Sender<Reply>>,
    /// Each worker's next work, until its thread takes it.
    mail: HashMap<usize, Work<Plan>>,
    /// Every worker thread started, by worker id.
    threads: Vec<(usize, JoinHandle<()>)>,
    /// Tells the timer thread to leave.
    stopping: bool,
}

/// State shared between callers, workers and the timer thread.
#[derive(Debug)]
struct Shared {
    shell: Mutex<Shell>,
    /// Notified whenever a step hands out work, may move the next
    /// deadline, or may finish the drain.
    wake: Condvar,
    /// Origin of the core's logical-µs clock.
    epoch: Instant,
    opts: ExecOptions,
    runner: Runner,
}

impl Shared {
    /// The shell's lock. Nothing panics while holding it except a bug in
    /// the core, and a step leaves the core whole before it returns, so
    /// a poisoned lock still guards consistent state.
    fn lock(&self) -> MutexGuard<'_, Shell> {
        self.shell.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, shell: MutexGuard<'a, Shell>) -> MutexGuard<'a, Shell> {
        self.wake
            .wait(shell)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn now_us(&self) -> u64 {
        micros(self.epoch.elapsed())
    }

    /// Steps the core and carries out its actions. Returns the step's
    /// [`Action::Return`] value, if any.
    fn step(
        self: &Arc<Self>,
        shell: &mut Shell,
        event: Event<Plan, Sender<Reply>>,
    ) -> Option<Result<u64, InferError>> {
        // A tick that hands out nothing changed nothing anyone waits on.
        let wake = !matches!(event, Event::Tick);
        let actions = shell.core.step(self.now_us(), event);
        self.act(shell, actions, wake)
    }

    /// Carries out the core's actions: answers go down their channels,
    /// work into the worker's mailbox, a spawn starts a thread. Notifies
    /// the condvar if `wake` or if any worker got work.
    fn act(
        self: &Arc<Self>,
        shell: &mut Shell,
        actions: Vec<Action<Plan, Sender<Reply>>>,
        mut wake: bool,
    ) -> Option<Result<u64, InferError>> {
        let mut ret = None;
        for action in actions {
            match action {
                Action::Return(r) => ret = Some(r),
                Action::Answer { to, result } => {
                    // A caller that dropped its ticket is not an error.
                    let _ = to.send(result);
                }
                Action::Work { worker, work } => {
                    shell.mail.insert(worker, work);
                    wake = true;
                }
                Action::Spawn { worker } => {
                    shell.threads.push((worker, spawn_worker(self, worker)));
                    wake = true;
                }
            }
        }
        if wake {
            self.wake.notify_all();
        }
        ret
    }

    /// Steps a registry or submit event under the lock and returns its
    /// value.
    fn call(self: &Arc<Self>, event: Event<Plan, Sender<Reply>>) -> Result<u64, InferError> {
        let mut shell = self.lock();
        self.step(&mut shell, event)
            .unwrap_or_else(|| unreachable!("registry and submit events always return"))
    }
}

/// A pending request's receipt: wait on it for the result.
///
/// Dropping a ticket **without settling it** (no [`InferTicket::wait`],
/// no conclusive [`InferTicket::wait_timeout`]) abandons the request:
/// if it is still queued the gateway drops it unexecuted and counts it
/// under [`ServerStats::abandoned`], so a later [`InferServer::drain`]
/// never over-waits for a caller that gave up.
#[derive(Debug)]
pub struct InferTicket {
    rx: Receiver<Reply>,
    ticket: u64,
    server: Weak<Shared>,
    settled: Cell<bool>,
}

impl InferTicket {
    /// Blocks until the request completes.
    ///
    /// # Errors
    /// Returns the request's own [`InferError`], or
    /// [`InferError::ServerStopped`] if the server shut down before
    /// serving it.
    pub fn wait(self) -> Result<Vec<u8>, InferError> {
        let result = self.rx.recv().unwrap_or(Err(InferError::ServerStopped));
        self.settled.set(true);
        result
    }

    /// Blocks until the request completes or `timeout` elapses, so a
    /// caller can bound its own wait instead of blocking forever on a
    /// draining server. The request itself is **not** cancelled — a
    /// later [`InferTicket::wait`] can still pick the result up. Only
    /// dropping the ticket after a timeout abandons the request.
    ///
    /// # Errors
    /// [`InferError::DeadlineExceeded`] when `timeout` elapses first,
    /// [`InferError::ServerStopped`] if the server shut down before
    /// serving the request, or the request's own error.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Vec<u8>, InferError> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => {
                self.settled.set(true);
                result
            }
            Err(RecvTimeoutError::Timeout) => Err(InferError::DeadlineExceeded {
                elapsed: timeout,
                deadline: timeout,
            }),
            Err(RecvTimeoutError::Disconnected) => {
                self.settled.set(true);
                Err(InferError::ServerStopped)
            }
        }
    }
}

impl Drop for InferTicket {
    fn drop(&mut self) {
        if self.settled.get() {
            return;
        }
        if let Some(shared) = self.server.upgrade() {
            let mut shell = shared.lock();
            shared.step(
                &mut shell,
                Event::Abandon {
                    ticket: self.ticket,
                },
            );
        }
    }
}

/// The dynamic-batching multi-model gateway: worker threads and a timer
/// thread around the gateway's [`core::Core`].
#[derive(Debug)]
pub struct InferServer {
    shared: Arc<Shared>,
    timer: Option<JoinHandle<()>>,
}

impl InferServer {
    /// Starts a gateway with an **empty registry**; add models with
    /// [`InferServer::register`].
    pub fn gateway(config: GatewayConfig) -> InferServer {
        InferServer::with_runner(config, InferencePlan::try_execute_into)
    }

    /// [`InferServer::gateway`] whose workers run each request through
    /// `runner` instead of [`InferencePlan::try_execute_into`]: a test's
    /// way to hold a worker busy or fail a chosen request on real
    /// threads.
    #[doc(hidden)]
    pub fn with_runner(config: GatewayConfig, runner: Runner) -> InferServer {
        let (core, spawns) = Core::new(&config);
        let shared = Arc::new(Shared {
            shell: Mutex::new(Shell {
                core,
                mail: HashMap::new(),
                threads: Vec::new(),
                stopping: false,
            }),
            wake: Condvar::new(),
            epoch: Instant::now(),
            opts: config.opts,
            runner,
        });
        shared.act(&mut shared.lock(), spawns, false);
        let timer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || timer_loop(&shared))
        };
        InferServer {
            shared,
            timer: Some(timer),
        }
    }

    /// Registers `plan` under `name` after re-verifying its integrity
    /// checksum; returns that checksum (the key for a later
    /// [`InferServer::swap`]).
    ///
    /// # Errors
    /// [`InferError::IntegrityViolation`] if the plan no longer hashes
    /// to its build-time checksum, [`InferError::Internal`] if `name`
    /// is already registered (swap or unregister it instead), and
    /// [`InferError::Draining`] / [`InferError::ServerStopped`] during
    /// and after shutdown.
    pub fn register(&self, name: &str, plan: InferencePlan) -> Result<u64, InferError> {
        plan.verify_integrity()?;
        self.shared.call(Event::Register {
            name: name.to_string(),
            checksum: plan.checksum(),
            plan: Arc::new(plan),
        })
    }

    /// Registers a model from serialized artifact bytes
    /// ([`crate::artifact::encode`]), with the full hostile-input
    /// gauntlet: the bounds-checked artifact decoder (container
    /// checksums, chain binding, graph re-admission, the schedule
    /// derived from that graph, plan integrity re-hash), then the
    /// analyzer, then the same [`InferServer::register`] admission
    /// every plan gets. An artifact cannot carry a schedule, so what the
    /// analyzer pass guards here is what a *forged* one can still choose
    /// — internally consistent checksums over malicious weights: it
    /// proves every GEMM's accumulator range over the bytes that were
    /// loaded (and re-proves the derived arena, which costs nothing more).
    ///
    /// # Errors
    /// [`InferError::Artifact`] for container/decode rejections,
    /// [`InferError::Internal`] for other decode failures (e.g. the
    /// embedded graph no longer parses or admits),
    /// [`InferError::Unsound`] if the analyzer rejects the decoded
    /// plan, plus every [`InferServer::register`] error.
    pub fn register_from_artifact(&self, name: &str, bytes: &[u8]) -> Result<u64, InferError> {
        let loaded = crate::artifact::decode(bytes).map_err(|e| match e {
            crate::Gcd2Error::Artifact(a) => InferError::Artifact(a),
            other => InferError::Internal {
                message: other.to_string(),
            },
        })?;
        let analysis = gcd2_analyze::analyze_plan(&loaded.graph, &loaded.plan);
        if analysis.verdict() == gcd2_analyze::Verdict::Unsound {
            return Err(InferError::Unsound {
                detail: analysis.to_string(),
            });
        }
        self.register(name, loaded.plan)
    }

    /// Atomically replaces `name`'s plan, **keyed by the integrity
    /// checksum**: the swap only applies if the currently registered
    /// plan still hashes to `expected`, so concurrent operators cannot
    /// silently overwrite each other. Queued requests execute on the
    /// new plan; batches already dispatched finish on the old one.
    /// Returns the new checksum.
    ///
    /// # Errors
    /// [`InferError::UnknownModel`] if `name` is not registered,
    /// [`InferError::IntegrityViolation`] if `expected` does not match
    /// the current plan (stale key) or the new plan fails verification,
    /// plus the [`InferServer::register`] shutdown errors.
    pub fn swap(&self, name: &str, expected: u64, plan: InferencePlan) -> Result<u64, InferError> {
        plan.verify_integrity()?;
        self.shared.call(Event::Swap {
            name: name.to_string(),
            expected,
            checksum: plan.checksum(),
            plan: Arc::new(plan),
        })
    }

    /// Removes `name` from the registry. Requests still queued for it
    /// are answered with [`InferError::UnknownModel`]; a batch already
    /// dispatched finishes normally. Returns the removed plan's
    /// checksum.
    ///
    /// # Errors
    /// [`InferError::UnknownModel`] if `name` is not registered.
    pub fn unregister(&self, name: &str) -> Result<u64, InferError> {
        self.shared.call(Event::Unregister {
            name: name.to_string(),
        })
    }

    /// The registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        self.shared.lock().core.models()
    }

    /// Submits a request for `model` at `priority` (higher survives
    /// shedding longer); returns a ticket to wait on.
    ///
    /// # Errors
    /// [`InferError::UnknownModel`] for an unregistered model;
    /// [`InferError::BreakerOpen`] while the model's circuit breaker is
    /// shedding (cheaper than queueing — the request never allocates a
    /// queue slot); [`InferError::QueueFull`] when the model's queue is
    /// at capacity and holds no strictly-lower-priority victim
    /// (backpressure — retry after draining a ticket);
    /// [`InferError::Draining`] once shutdown has begun and
    /// [`InferError::ServerStopped`] after it completes. A queued
    /// request may later resolve to [`InferError::Shed`] if a
    /// higher-priority submission evicts it.
    pub fn submit_to(
        &self,
        model: &str,
        input: Vec<u8>,
        priority: u8,
    ) -> Result<InferTicket, InferError> {
        let (tx, rx) = channel();
        let ticket = self.shared.call(Event::Submit {
            model: model.to_string(),
            input,
            priority,
            reply: tx,
        })?;
        Ok(InferTicket {
            rx,
            ticket,
            server: Arc::downgrade(&self.shared),
            settled: Cell::new(false),
        })
    }

    /// [`InferServer::submit_to`] and wait: the convenience for callers
    /// without pipelining.
    ///
    /// # Errors
    /// See [`InferServer::submit_to`] and [`InferTicket::wait`].
    pub fn infer_on(
        &self,
        model: &str,
        input: Vec<u8>,
        priority: u8,
    ) -> Result<Vec<u8>, InferError> {
        self.submit_to(model, input, priority)?.wait()
    }

    /// A snapshot of the gateway-wide lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.lock().core.stats()
    }

    /// A point-in-time [`GatewayHealth`] snapshot: worker liveness,
    /// breaker states, supervision counters, and the retained
    /// [`HealthEvent`] tail.
    pub fn health(&self) -> GatewayHealth {
        let now = self.shared.now_us();
        self.shared.lock().core.health(now)
    }

    /// One model's counters and latency percentiles, or `None` if it is
    /// not registered.
    pub fn model_stats(&self, name: &str) -> Option<ModelStats> {
        self.shared.lock().core.model_stats(name)
    }

    /// Every registered model's stats, sorted by name.
    pub fn all_model_stats(&self) -> Vec<ModelStats> {
        let shell = self.shared.lock();
        let names = shell.core.models();
        names
            .iter()
            .filter_map(|name| shell.core.model_stats(name))
            .collect()
    }

    /// Begins a graceful drain without blocking: new submissions are
    /// refused with [`InferError::Draining`] from this point on, but
    /// accepted work keeps executing and every outstanding ticket will
    /// still be answered. Call [`InferServer::shutdown`] (or drop the
    /// server) to wait for the drain to finish.
    pub fn drain(&self) {
        let mut shell = self.shared.lock();
        self.shared.step(&mut shell, Event::Drain);
    }

    /// Stops accepting work, drains every queue (answering all accepted
    /// tickets), joins the workers, and returns the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_and_join();
        self.stats()
    }

    /// Drains, waits until the core reports the drain finished, stops
    /// the core, then joins the timer and every worker that exited. A
    /// worker the core declared hung is detached, never joined: its
    /// tickets were answered at the hang, and its thread leaves when its
    /// batch returns.
    fn stop_and_join(&mut self) {
        let Some(timer) = self.timer.take() else {
            return;
        };
        let threads: Vec<(bool, JoinHandle<()>)> = {
            let mut shell = self.shared.lock();
            self.shared.step(&mut shell, Event::Drain);
            while !shell.core.drained() {
                shell = self.shared.wait(shell);
            }
            self.shared.step(&mut shell, Event::Stop);
            shell.stopping = true;
            self.shared.wake.notify_all();
            let threads = std::mem::take(&mut shell.threads);
            threads
                .into_iter()
                .map(|(id, handle)| (shell.core.wedged(id), handle))
                .collect()
        };
        // The timer and the workers catch their own panics' effects: a
        // join error carries nothing to salvage.
        let _ = timer.join();
        for (wedged, handle) in threads {
            if !wedged {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for InferServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn spawn_worker(shared: &Arc<Shared>, id: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || worker_loop(&shared, id))
}

/// A worker's arenas, one per plan it has run. An entry lives while its
/// plan does: once a swap or an unregister drops the last reference to
/// the plan, the worker drops the arena at its next batch.
type Arenas = Vec<(Weak<InferencePlan>, InferArena)>;

/// One worker: take the work the core put in this worker's mailbox, run
/// it outside the lock, post the results as a `Done` event, until the
/// core hands it [`Work::Exit`]. It keeps one arena per plan, so a warm
/// gateway allocates nothing.
fn worker_loop(shared: &Arc<Shared>, id: usize) {
    let mut arenas = Arenas::new();
    let mut shell = shared.lock();
    loop {
        let Some(work) = shell.mail.remove(&id) else {
            shell = shared.wait(shell);
            continue;
        };
        drop(shell);
        let Work::Run { plan, inputs } = work else {
            return;
        };
        let ran = run(shared.runner, &plan, &inputs, &shared.opts, &mut arenas);
        // Outside the lock: an unregister or a swap may have left this
        // the plan's last reference.
        drop(plan);
        shell = shared.lock();
        shared.step(&mut shell, Event::Done { worker: id, ran });
    }
}

/// Runs `inputs` in turn on `plan` through `runner` over the worker's
/// arena for it, after dropping the arenas of plans that are gone.
fn run(
    runner: Runner,
    plan: &Plan,
    inputs: &[Vec<u8>],
    opts: &ExecOptions,
    arenas: &mut Arenas,
) -> Vec<Ran> {
    arenas.retain(|(plan, _)| plan.strong_count() > 0);
    // A live `Weak` keeps its plan's allocation, so no other plan can
    // share its address.
    let held = arenas
        .iter()
        .position(|(held, _)| std::ptr::eq(held.as_ptr(), Arc::as_ptr(plan)));
    let idx = held.unwrap_or_else(|| {
        arenas.push((Arc::downgrade(plan), InferArena::default()));
        arenas.len() - 1
    });
    let arena = &mut arenas[idx].1;
    inputs
        .iter()
        .map(|input| {
            let t0 = Instant::now();
            let mut out = Vec::new();
            let result = runner(plan, input, arena, &mut out, opts).map(|()| out);
            Ran {
                result,
                exec_us: micros(t0.elapsed()),
            }
        })
        .collect()
}

/// The timer thread: step a `Tick`, then sleep until the core's next
/// deadline or until another step notifies, until the server stops.
fn timer_loop(shared: &Arc<Shared>) {
    let mut shell = shared.lock();
    while !shell.stopping {
        shared.step(&mut shell, Event::Tick);
        shell = match shell.core.next_deadline() {
            Some(at) => {
                let sleep = Duration::from_micros(at.saturating_sub(shared.now_us()));
                let (guard, _) = shared
                    .wake
                    .wait_timeout(shell, sleep)
                    .unwrap_or_else(PoisonError::into_inner);
                guard
            }
            None => shared.wait(shell),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use gcd2_cgraph::{Graph, OpKind, TShape};

    fn tiny_plan() -> InferencePlan {
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![1, 16]));
        let fc = g.add(OpKind::MatMul { n: 8 }, &[x], "fc");
        g.add(OpKind::Softmax, &[fc], "sm");
        Compiler::new().compile(&g).inference_plan(11)
    }

    fn other_plan() -> InferencePlan {
        let mut g = Graph::new();
        let x = g.input("x", TShape::new(vec![1, 16]));
        let fc = g.add(OpKind::MatMul { n: 4 }, &[x], "fc2");
        g.add(OpKind::Softmax, &[fc], "sm");
        Compiler::new().compile(&g).inference_plan(13)
    }

    /// A gateway of `workers` threads serving `plan` as `m`, its queue
    /// bounded at `capacity`.
    fn serving(plan: &InferencePlan, workers: usize, capacity: usize) -> InferServer {
        let server = InferServer::gateway(GatewayConfig {
            workers,
            capacity,
            ..GatewayConfig::default()
        });
        server.register("m", plan.clone()).expect("register");
        server
    }

    #[test]
    fn serves_requests_bit_identical_to_direct_execution() {
        let plan = tiny_plan();
        let server = serving(&plan, 2, 8);
        let inputs: Vec<Vec<u8>> = (0..6)
            .map(|s| (0..16).map(|i| ((i + s * 3) % 16) as u8).collect())
            .collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|input| {
                server
                    .submit_to("m", input.clone(), 0)
                    .expect("queue has room")
            })
            .collect();
        for (input, ticket) in inputs.iter().zip(tickets) {
            assert_eq!(ticket.wait().expect("request served"), plan.execute(input));
        }
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn bad_input_fails_one_request_not_the_server() {
        let plan = tiny_plan();
        let server = serving(&plan, 1, 4);
        let bad = server.infer_on("m", vec![1, 2, 3], 0).unwrap_err();
        assert!(matches!(bad, InferError::InputShape { .. }), "{bad:?}");
        let good: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        assert_eq!(
            server
                .infer_on("m", good.clone(), 0)
                .expect("server still serves"),
            plan.execute(&good)
        );
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let plan = tiny_plan();
        let mut server = serving(&plan, 1, 4);
        server.stop_and_join();
        assert_eq!(
            server.submit_to("m", vec![0; 16], 0).map(|_| ()),
            Err(InferError::ServerStopped)
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let plan = tiny_plan();
        let server = serving(&plan, 1, 0);
        let good: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        assert_eq!(
            server
                .infer_on("m", good.clone(), 0)
                .expect("one slot exists"),
            plan.execute(&good)
        );
    }

    #[test]
    fn registry_add_swap_remove_roundtrip() {
        let server = InferServer::gateway(GatewayConfig {
            workers: 1,
            ..GatewayConfig::default()
        });
        let a = tiny_plan();
        let b = other_plan();
        let input: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        let sum_a = server.register("m", a.clone()).expect("register");
        assert_eq!(sum_a, a.checksum());
        assert_eq!(server.models(), vec!["m".to_string()]);
        assert_eq!(
            server.infer_on("m", input.clone(), 0).expect("served"),
            a.execute(&input)
        );
        // Duplicate add refused; unknown swap refused; stale-key swap
        // refused.
        assert!(server.register("m", b.clone()).is_err());
        assert!(matches!(
            server.swap("ghost", sum_a, b.clone()),
            Err(InferError::UnknownModel { .. })
        ));
        assert!(matches!(
            server.swap("m", sum_a ^ 1, b.clone()),
            Err(InferError::IntegrityViolation { .. })
        ));
        // A keyed swap applies and requests flow to the new plan — over
        // a fresh arena: the pooled one is stamped by the old plan.
        let sum_b = server.swap("m", sum_a, b.clone()).expect("swap");
        assert_eq!(sum_b, b.checksum());
        assert_eq!(
            server.infer_on("m", input.clone(), 0).expect("served"),
            b.execute(&input)
        );
        // Remove: name gone, requests refused.
        assert_eq!(server.unregister("m"), Ok(sum_b));
        assert!(matches!(
            server.submit_to("m", input, 0).map(|_| ()),
            Err(InferError::UnknownModel { .. })
        ));
        assert!(server.models().is_empty());
    }

    /// A burst on one worker: every answer is bit-identical, every
    /// request is timed once, and every batch once. How the burst splits
    /// into batches depends on the threads' timing; the core's scenario
    /// table pins the shapes (`tests/gateway_scenarios.rs`).
    #[test]
    fn a_burst_is_served_bit_identically_and_timed_per_request() {
        let plan = tiny_plan();
        let server = InferServer::gateway(GatewayConfig {
            workers: 1,
            max_batch: 8,
            ..GatewayConfig::default()
        });
        server.register("m", plan.clone()).expect("register");
        let inputs: Vec<Vec<u8>> = (0..24)
            .map(|s| (0..16).map(|i| ((i * 3 + s) % 16) as u8).collect())
            .collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|input| {
                server
                    .submit_to("m", input.clone(), 0)
                    .expect("queue has room")
            })
            .collect();
        for (input, ticket) in inputs.iter().zip(tickets) {
            assert_eq!(ticket.wait().expect("served"), plan.execute(input));
        }
        let stats = server.model_stats("m").expect("registered");
        assert_eq!(stats.completed, 24);
        assert!(
            stats.batches >= 3 && stats.max_batch_observed <= 8,
            "{stats:?}"
        );
        assert_eq!(stats.queue_wait.count, 24);
        assert_eq!(stats.execute.count, 24);
        assert_eq!(stats.assembly.count, stats.batches);
        assert!(stats.execute.p99 >= stats.execute.p50);
        server.shutdown();
    }

    #[test]
    fn a_worker_drops_the_arena_of_a_plan_that_is_gone() {
        let input: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        let (inputs, opts) = ([input.clone()], ExecOptions::default());
        let (a, b) = (Arc::new(tiny_plan()), Arc::new(other_plan()));
        let mut arenas = Arenas::new();
        let runner: Runner = InferencePlan::try_execute_into;
        for plan in [&a, &b, &a] {
            run(runner, plan, &inputs, &opts, &mut arenas);
        }
        assert_eq!(arenas.len(), 2, "one arena per live plan");
        drop(a);
        let ran = run(runner, &b, &inputs, &opts, &mut arenas);
        assert_eq!(arenas.len(), 1, "the unregistered plan's arena is gone");
        assert_eq!(ran[0].result, Ok(b.execute(&input)));
    }

    #[test]
    fn graceful_drain_answers_every_accepted_ticket() {
        let plan = tiny_plan();
        let server = InferServer::gateway(GatewayConfig {
            workers: 2,
            capacity: 128,
            max_batch: 4,
            ..GatewayConfig::default()
        });
        server.register("m", plan.clone()).expect("register");
        let input: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        let tickets: Vec<_> = (0..32)
            .map(|_| server.submit_to("m", input.clone(), 0).expect("admitted"))
            .collect();
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 32);
        assert_eq!(
            stats.completed, 32,
            "drain must answer everything accepted: {stats:?}"
        );
        let expected = plan.execute(&input);
        for ticket in tickets {
            assert_eq!(ticket.wait().expect("answered during drain"), expected);
        }
    }

    #[test]
    fn idle_supervisor_is_invisible_in_health_and_stats() {
        let plan = tiny_plan();
        let server = serving(&plan, 2, 8);
        let input: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        assert_eq!(
            server.infer_on("m", input.clone(), 0).expect("served"),
            plan.execute(&input)
        );
        let health = server.health();
        assert_eq!(health.workers.len(), 2);
        assert!(health.workers.iter().all(|w| !w.wedged));
        assert_eq!(health.breakers.len(), 1);
        assert_eq!(health.breakers[0].state, BreakerState::Closed);
        assert_eq!(
            (
                health.hung,
                health.workers_replaced,
                health.breaker_rejected,
                health.abandoned,
            ),
            (0, 0, 0, 0),
            "a healthy gateway records no supervision activity"
        );
        assert!(health.events.is_empty(), "{:?}", health.events);
        let ms = server.model_stats("m").expect("registered");
        assert_eq!(ms.breaker, BreakerState::Closed);
        assert_eq!(server.shutdown().retries, 0);
    }
}
