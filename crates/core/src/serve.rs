//! A dynamic-batching, multi-model serving gateway over
//! [`InferencePlan`].
//!
//! [`InferServer`] is the deployment-shaped entry point the ROADMAP's
//! "heavy traffic" north star asks for, grown from the PR-5
//! bounded-queue server into a real gateway:
//!
//! * a **model registry** holding many plans under caller-chosen names,
//!   with hot [`InferServer::register`] / [`InferServer::unregister`] /
//!   [`InferServer::swap`] — swaps are compare-and-swapped on the
//!   plan's integrity checksum, so two operators cannot silently race
//!   a replacement;
//! * a **dynamic-batching scheduler**: queued single requests for the
//!   same model are coalesced into one batch, bounded by
//!   [`GatewayConfig::max_batch`] and [`GatewayConfig::max_wait`]. The
//!   worker that takes a batch checks one arena out of the model's pool
//!   and runs the requests over it in turn, each through
//!   [`InferencePlan::try_execute_into`], so coalescing pays the
//!   scheduler hand-off — queue lock, wake-up, arena checkout,
//!   heartbeat — once per batch instead of once per request; outputs
//!   are **bit-identical** to single-shot execution for every
//!   batch/wait/worker configuration;
//! * **per-model bounded queues** with load-shedding priorities: when a
//!   model's queue is full, the lowest-priority queued request is shed
//!   ([`InferError::Shed`]) to admit a strictly higher-priority one,
//!   and equal-priority overflow is rejected with backpressure
//!   ([`InferError::QueueFull`]) exactly as before;
//! * **graceful drain**: shutdown refuses new work
//!   ([`InferError::Draining`]) but answers every accepted ticket
//!   before the workers exit;
//! * **latency histograms** (log₂ buckets): queue wait, batch
//!   assembly, and execute time per model, surfaced as p50/p99 in
//!   [`ModelStats`].
//!
//! Each request runs under the executor's own panic guard: an injected
//! or real panic inside the runtime resolves *that request's* ticket
//! with [`InferError::Internal`], the rest of its batch runs on, and the
//! worker lives on. `gcd2c --serve` smokes this end to end against the
//! single-shot path, and perfbench's `serve_saturated` workload measures
//! the batching win.
//!
//! On top of that sits the **self-healing supervision layer**
//! (DESIGN.md §6h), four cooperating mechanisms built from the pure
//! state machines in [`crate::supervise`]:
//!
//! * a **watchdog thread**: workers stamp a heartbeat before every
//!   batch dispatch; a batch that overruns
//!   [`SupervisorConfig::hang_deadline`] gets its worker marked wedged,
//!   its tickets answered with [`InferError::Hung`], and a replacement
//!   worker spawned — capacity never shrinks, and a wedged thread is
//!   *detached*, never joined, so shutdown cannot block on it;
//! * a **per-model circuit breaker** ([`CircuitBreaker`]): a sliding
//!   error-rate window drives Closed→Open→HalfOpen; Open sheds at
//!   submission with [`InferError::BreakerOpen`] (strictly cheaper than
//!   queueing), HalfOpen admits a bounded number of probes and closes
//!   only when they succeed;
//! * **bounded seeded retries**: the requests of a batch that failed
//!   transiently (a caught panic, injected `infer.*` hits included)
//!   re-run up to [`SupervisorConfig::retry_budget`] more rounds with
//!   deterministic SplitMix64 backoff — a retried request's output is
//!   bit-identical because the executor is deterministic;
//! * **fault-triggered ISA demotion**: after
//!   [`SupervisorConfig::demote_after`] kernel-attributed faults, the
//!   model's batches execute with [`ExecOptions::force_scalar`] (the
//!   bit-exact scalar oracle tier) until a quarantine elapses, then
//!   vector tiers are restored.
//!
//! Every decision lands in a bounded [`HealthLog`] and the counters of
//! [`ServerStats`]; [`InferServer::health`] snapshots the whole picture
//! as a [`GatewayHealth`].

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::InferError;
use crate::infer::{guard_panics, ExecOptions, InferArena, InferencePlan};
use crate::supervise::{
    counts_as_fault, kernel_attributed, retry_backoff, Admission, BreakerState, CircuitBreaker,
    HealthEvent, HealthLog, SupervisorConfig,
};

/// The model name single-model conveniences ([`InferServer::start`],
/// [`InferServer::submit`]) use.
pub const DEFAULT_MODEL: &str = "default";

/// Gateway sizing and batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Worker threads draining the scheduler.
    pub workers: usize,
    /// Bound on each model's pending queue (shed/reject above it).
    pub capacity: usize,
    /// Most requests coalesced into one batch; `1` disables batching
    /// (every request executes alone, same code path).
    pub max_batch: usize,
    /// How long a worker may hold an underfull batch open, measured
    /// from the oldest queued request, before dispatching it anyway.
    pub max_wait: Duration,
    /// Execution options applied to every request; a deadline runs from
    /// the start of each request's run.
    pub opts: ExecOptions,
    /// Self-healing knobs: watchdog, circuit breakers, retries, ISA
    /// demotion. The defaults keep supervision invisible on a healthy
    /// gateway (see [`SupervisorConfig`]).
    pub supervisor: SupervisorConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 2,
            capacity: 64,
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            opts: ExecOptions::default(),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// The channel a request's result goes back on.
type ResultSender = Sender<Result<Vec<u8>, InferError>>;

/// One queued request: the input, its shed priority, its enqueue time
/// (for the queue-wait histogram and batch aging), the channel its
/// result goes back on, plus its supervision tags — whether the
/// breaker admitted it as a HalfOpen probe, and the abandonment flag
/// shared with its [`InferTicket`].
#[derive(Debug)]
struct Job {
    input: Vec<u8>,
    priority: u8,
    enqueued: Instant,
    tx: ResultSender,
    probe: bool,
    abandoned: Arc<AtomicBool>,
}

/// The tickets of one dispatched batch, parked where the watchdog can
/// reach them. Whoever `take()`s the slot's `Option<InFlight>` owns
/// answering these tickets and recording their outcomes — the worker on
/// completion, the watchdog on a hang — so a request is never answered
/// or counted twice.
#[derive(Debug)]
struct InFlight {
    model: String,
    dispatched_us: u64,
    tickets: Vec<(ResultSender, bool)>,
}

/// One worker thread's supervision state. The heartbeat protocol:
/// `busy_since_us` is 0 while idle and the dispatch timestamp (clamped
/// to ≥ 1) while a batch executes; the watchdog wedges a worker whose
/// stamp has aged past the hang deadline.
#[derive(Debug)]
struct WorkerSlot {
    id: usize,
    wedged: AtomicBool,
    busy_since_us: AtomicU64,
    batches: AtomicU64,
    inflight: Mutex<Option<InFlight>>,
}

impl WorkerSlot {
    fn new(id: usize) -> WorkerSlot {
        WorkerSlot {
            id,
            wedged: AtomicBool::new(false),
            busy_since_us: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            inflight: Mutex::new(None),
        }
    }

    fn take_inflight(&self) -> Option<InFlight> {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// Number of log₂ latency buckets: bucket `i` counts durations in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 is `< 1µs`), so bucket 39
/// tops out above 150 hours — nothing a serving gateway sees saturates.
const HIST_BUCKETS: usize = 40;

/// A lock-free log₂ histogram of durations in microseconds. Recording
/// is one relaxed atomic increment; percentiles are resolved to the
/// **upper bound** of their bucket (conservative: never under-reports).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHistogram {
    fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = ((u64::BITS - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// The histogram reduced to sample count plus p50/p99, for
    /// [`ModelStats`] snapshots.
    pub fn summary(&self) -> LatencySummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let percentile = |q: f64| -> Duration {
            if total == 0 {
                return Duration::ZERO;
            }
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut cum = 0;
            for (idx, &c) in counts.iter().enumerate() {
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

/// One model's free list of arenas. A worker checks one out per batch
/// and runs the batch's requests over it in turn, so a warm gateway
/// allocates nothing and the list holds at most one arena per worker.
#[derive(Debug, Default)]
struct ArenaPool(Mutex<Vec<InferArena>>);

impl ArenaPool {
    /// A pooled arena `plan` can run on, or a fresh one when the pool is
    /// empty or its arena was stamped by a plan a swap has replaced.
    fn take(&self, plan: &InferencePlan) -> InferArena {
        let pooled = self.0.lock().unwrap_or_else(PoisonError::into_inner).pop();
        pooled.filter(|arena| plan.fits(arena)).unwrap_or_default()
    }

    fn put(&self, arena: InferArena) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(arena);
    }

    #[cfg(test)]
    fn idle_arenas(&self) -> usize {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// Per-model gateway state: the hot-swappable plan, the arenas its
/// batches run over, and this model's counters and histograms.
#[derive(Debug)]
struct ModelState {
    plan: RwLock<Arc<InferencePlan>>,
    pool: ArenaPool,
    accepted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch_observed: AtomicU64,
    queue_wait: LatencyHistogram,
    assembly: LatencyHistogram,
    execute: LatencyHistogram,
    breaker: Mutex<CircuitBreaker>,
    /// Kernel-attributed faults since the last (re-)promotion; trips
    /// demotion at [`SupervisorConfig::demote_after`].
    kernel_faults: AtomicU64,
    retries: AtomicU64,
    demotions: AtomicU64,
    breaker_rejected: AtomicU64,
    abandoned: AtomicU64,
    /// 0 = not demoted; otherwise the logical-µs timestamp at which
    /// quarantine ends and vector tiers are restored.
    demoted_until_us: AtomicU64,
}

impl ModelState {
    fn new(plan: InferencePlan, sup: &SupervisorConfig) -> ModelState {
        ModelState {
            plan: RwLock::new(Arc::new(plan)),
            pool: ArenaPool::default(),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            max_batch_observed: AtomicU64::new(0),
            queue_wait: LatencyHistogram::default(),
            assembly: LatencyHistogram::default(),
            execute: LatencyHistogram::default(),
            breaker: Mutex::new(CircuitBreaker::new(sup.breaker_config())),
            kernel_faults: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            breaker_rejected: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            demoted_until_us: AtomicU64::new(0),
        }
    }

    fn current_plan(&self) -> Arc<InferencePlan> {
        Arc::clone(&self.plan.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn breaker_state(&self) -> BreakerState {
        self.breaker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .state()
    }

    fn cancel_admission(&self, probe: bool) {
        self.breaker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .cancel(probe);
    }
}

/// One model's lifetime counters and latency percentiles, snapshot by
/// [`InferServer::model_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Time the dispatching worker held the batch open, per batch
    /// (from its oldest request's enqueue to dispatch).
    pub assembly: LatencySummary,
    /// Time each request spent executing, its retry rounds summed.
    pub execute: LatencySummary,
    /// Retry attempts spent on this model's batches.
    pub retries: u64,
    /// Submissions shed by this model's circuit breaker.
    pub breaker_rejected: u64,
    /// Accepted requests whose tickets were dropped unsettled before
    /// dispatch (skipped, not executed).
    pub abandoned: u64,
    /// Kernel-attributed faults since the last (re-)promotion.
    pub kernel_faults: u64,
    /// Times this model was demoted to the scalar tier.
    pub demotions: u64,
    /// Whether the model is currently demoted (scalar-pinned).
    pub demoted: bool,
    /// The circuit breaker's current state.
    pub breaker: BreakerState,
}

/// Scheduler state: every model's pending queue, under one lock with
/// one condvar (workers re-scan on wake, so a single notify-all per
/// event is enough for correctness).
#[derive(Debug, Default)]
struct SchedState {
    queues: HashMap<String, VecDeque<Job>>,
}

/// State shared between submitters, workers, and the watchdog.
#[derive(Debug)]
struct Shared {
    registry: RwLock<HashMap<String, Arc<ModelState>>>,
    sched: Mutex<SchedState>,
    available: Condvar,
    /// Shutdown has begun: refuse new work, finish accepted work.
    draining: AtomicBool,
    /// Workers have exited; the server is fully stopped.
    stopped: AtomicBool,
    capacity: usize,
    max_batch: usize,
    max_wait: Duration,
    opts: ExecOptions,
    sup: SupervisorConfig,
    /// Origin of the gateway's logical-µs clock (breaker timestamps,
    /// heartbeats, quarantine deadlines).
    epoch: Instant,
    /// Every worker ever spawned (wedged slots stay, flagged).
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    /// Joinable worker handles; replacements spawned by the watchdog
    /// are appended here so `stop_and_join` sweeps them too.
    handles: Mutex<Vec<(Arc<WorkerSlot>, JoinHandle<()>)>>,
    next_worker: AtomicUsize,
    /// Set under its mutex to park the watchdog; the condvar makes the
    /// stop prompt instead of waiting out a scan interval.
    watchdog_park: Mutex<bool>,
    watchdog_cv: Condvar,
    health: HealthLog,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    hung: AtomicU64,
    workers_replaced: AtomicU64,
    retries: AtomicU64,
    retries_exhausted: AtomicU64,
    demotions: AtomicU64,
    repromotions: AtomicU64,
    breaker_rejected: AtomicU64,
    abandoned: AtomicU64,
}

impl Shared {
    fn lock_sched(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn model(&self, name: &str) -> Option<Arc<ModelState>> {
        self.registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// Microseconds since the gateway started — the logical clock every
    /// supervision timestamp uses.
    fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
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
    /// Batches the watchdog declared hung (tickets answered with
    /// [`InferError::Hung`]).
    pub hung: u64,
    /// Replacement workers spawned for wedged ones.
    pub workers_replaced: u64,
    /// Retry attempts spent across all models.
    pub retries: u64,
    /// Batches with a request still failing transiently after every
    /// round of a non-zero retry budget.
    pub retries_exhausted: u64,
    /// Models demoted to the scalar tier (lifetime count).
    pub demotions: u64,
    /// Demoted models whose quarantine elapsed (vector tiers restored).
    pub repromotions: u64,
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
    /// Declared hung by the watchdog; its thread is detached.
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
    /// Whether the model is currently demoted to the scalar tier.
    pub demoted: bool,
}

/// A point-in-time picture of the gateway's self-healing machinery:
/// worker liveness, breaker states, the supervision counters, and the
/// retained tail of the [`HealthEvent`] ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayHealth {
    /// Every worker ever spawned, wedged ones included, sorted by id.
    pub workers: Vec<WorkerHealth>,
    /// Per-model breaker/demotion posture, sorted by model name.
    pub breakers: Vec<BreakerHealth>,
    /// Batches declared hung.
    pub hung: u64,
    /// Replacement workers spawned.
    pub workers_replaced: u64,
    /// Retry attempts spent.
    pub retries: u64,
    /// Batches that exhausted a non-zero retry budget.
    pub retries_exhausted: u64,
    /// Demotions to the scalar tier.
    pub demotions: u64,
    /// Quarantines elapsed.
    pub repromotions: u64,
    /// Submissions shed by a breaker.
    pub breaker_rejected: u64,
    /// Accepted requests abandoned before dispatch.
    pub abandoned: u64,
    /// The retained `(seq, event)` tail, oldest first; `seq` is global
    /// and monotone, so gaps between polls are detectable.
    pub events: Vec<(u64, HealthEvent)>,
}

/// A pending request's receipt: wait on it for the result.
///
/// Dropping a ticket **without settling it** (no [`InferTicket::wait`],
/// no conclusive [`InferTicket::wait_timeout`]) abandons the request:
/// if it is still queued at dispatch time the gateway skips executing
/// it and counts it under [`ServerStats::abandoned`], so a later
/// [`InferServer::drain`] never over-waits for a caller that gave up.
#[derive(Debug)]
pub struct InferTicket {
    rx: Receiver<Result<Vec<u8>, InferError>>,
    abandoned: Arc<AtomicBool>,
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
        if !self.settled.get() {
            self.abandoned.store(true, Ordering::Release);
        }
    }
}

/// The dynamic-batching multi-model gateway: `workers` threads
/// coalescing per-model queues into batch executions, plus a watchdog
/// thread supervising their heartbeats.
#[derive(Debug)]
pub struct InferServer {
    shared: Arc<Shared>,
    watchdog: Option<JoinHandle<()>>,
}

impl InferServer {
    /// Starts a gateway with an **empty registry**; add models with
    /// [`InferServer::register`].
    pub fn gateway(config: GatewayConfig) -> InferServer {
        let shared = Arc::new(Shared {
            registry: RwLock::new(HashMap::new()),
            sched: Mutex::new(SchedState::default()),
            available: Condvar::new(),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            capacity: config.capacity.max(1),
            max_batch: config.max_batch.max(1),
            max_wait: config.max_wait,
            opts: config.opts,
            sup: config.supervisor,
            epoch: Instant::now(),
            slots: Mutex::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
            next_worker: AtomicUsize::new(0),
            watchdog_park: Mutex::new(false),
            watchdog_cv: Condvar::new(),
            health: HealthLog::new(config.supervisor.health_events),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            hung: AtomicU64::new(0),
            workers_replaced: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            retries_exhausted: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            repromotions: AtomicU64::new(0),
            breaker_rejected: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
        });
        for _ in 0..config.workers.max(1) {
            spawn_worker(&shared);
        }
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(&shared))
        };
        InferServer {
            shared,
            watchdog: Some(watchdog),
        }
    }

    /// Starts `workers` threads serving one `plan` (registered as
    /// [`DEFAULT_MODEL`]) with a queue bounded at `capacity` — the
    /// historical single-model constructor, now a gateway with default
    /// batching knobs.
    pub fn start(
        plan: InferencePlan,
        workers: usize,
        capacity: usize,
        opts: ExecOptions,
    ) -> InferServer {
        let server = InferServer::gateway(GatewayConfig {
            workers,
            capacity,
            opts,
            ..GatewayConfig::default()
        });
        let state = ModelState::new(plan, &server.shared.sup);
        server
            .shared
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(DEFAULT_MODEL.to_string(), Arc::new(state));
        server
    }

    /// Registers `plan` under `name` after re-verifying its integrity
    /// checksum; returns that checksum (the key for a later
    /// [`InferServer::swap`]). Hosts the `serve.registry` fault point.
    ///
    /// # Errors
    /// [`InferError::IntegrityViolation`] if the plan no longer hashes
    /// to its build-time checksum, [`InferError::Internal`] if `name`
    /// is already registered (swap or unregister it instead) or the
    /// registry fault point injects a panic, and
    /// [`InferError::Draining`] / [`InferError::ServerStopped`] during
    /// and after shutdown.
    pub fn register(&self, name: &str, plan: InferencePlan) -> Result<u64, InferError> {
        self.check_accepting()?;
        let checksum = registry_admission(&plan)?;
        let mut registry = self
            .shared
            .registry
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if registry.contains_key(name) {
            return Err(InferError::Internal {
                message: format!("model {name:?} is already registered; use swap"),
            });
        }
        registry.insert(
            name.to_string(),
            Arc::new(ModelState::new(plan, &self.shared.sup)),
        );
        Ok(checksum)
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
        self.check_accepting()?;
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
    /// new plan; batches already dispatched finish on the old one
    /// (their workers hold its `Arc`). Returns the new checksum.
    ///
    /// # Errors
    /// [`InferError::UnknownModel`] if `name` is not registered,
    /// [`InferError::IntegrityViolation`] if `expected` does not match
    /// the current plan (stale key) or the new plan fails verification,
    /// plus the [`InferServer::register`] shutdown errors.
    pub fn swap(&self, name: &str, expected: u64, plan: InferencePlan) -> Result<u64, InferError> {
        self.check_accepting()?;
        let checksum = registry_admission(&plan)?;
        let state = self
            .shared
            .model(name)
            .ok_or_else(|| InferError::UnknownModel {
                model: name.to_string(),
            })?;
        let mut slot = state.plan.write().unwrap_or_else(PoisonError::into_inner);
        let current = slot.checksum();
        if current != expected {
            return Err(InferError::IntegrityViolation {
                expected,
                got: current,
            });
        }
        *slot = Arc::new(plan);
        Ok(checksum)
    }

    /// Removes `name` from the registry. Requests still queued for it
    /// are answered with [`InferError::UnknownModel`]; a batch already
    /// dispatched finishes normally. Returns the removed plan's
    /// checksum.
    ///
    /// # Errors
    /// [`InferError::UnknownModel`] if `name` is not registered.
    pub fn unregister(&self, name: &str) -> Result<u64, InferError> {
        let state = {
            let mut registry = self
                .shared
                .registry
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            registry
                .remove(name)
                .ok_or_else(|| InferError::UnknownModel {
                    model: name.to_string(),
                })?
        };
        let orphans = {
            let mut sched = self.shared.lock_sched();
            sched.queues.remove(name).unwrap_or_default()
        };
        for job in orphans {
            // An orphan never executed: free its breaker admission so a
            // probe slot cannot leak.
            state.cancel_admission(job.probe);
            state.failed.fetch_add(1, Ordering::Relaxed);
            self.shared.failed.fetch_add(1, Ordering::Relaxed);
            let _ = job.tx.send(Err(InferError::UnknownModel {
                model: name.to_string(),
            }));
        }
        Ok(state.current_plan().checksum())
    }

    /// The registered model names, sorted.
    pub fn models(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shared
            .registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Submits a request for [`DEFAULT_MODEL`] at priority 0.
    ///
    /// # Errors
    /// See [`InferServer::submit_to`].
    pub fn submit(&self, input: Vec<u8>) -> Result<InferTicket, InferError> {
        self.submit_to(DEFAULT_MODEL, input, 0)
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
        self.check_accepting()?;
        let state = self
            .shared
            .model(model)
            .ok_or_else(|| InferError::UnknownModel {
                model: model.to_string(),
            })?;
        // Breaker admission happens before the request touches a queue:
        // shedding at the front door is the whole point of Open.
        let probe = {
            let mut breaker = state.breaker.lock().unwrap_or_else(PoisonError::into_inner);
            let before = breaker.state();
            let admission = breaker.admit(self.shared.now_us());
            let after = breaker.state();
            drop(breaker);
            if before == BreakerState::Open && after == BreakerState::HalfOpen {
                self.shared.health.record(HealthEvent::BreakerHalfOpen {
                    model: model.to_string(),
                });
            }
            match admission {
                Admission::Admit => false,
                Admission::Probe => true,
                Admission::Reject { retry_after_us } => {
                    state.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                    self.shared.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(InferError::BreakerOpen {
                        model: model.to_string(),
                        retry_after: Duration::from_micros(retry_after_us),
                    });
                }
            }
        };
        let (tx, rx) = channel();
        let abandoned = Arc::new(AtomicBool::new(false));
        let job = Job {
            input,
            priority,
            enqueued: Instant::now(),
            tx,
            probe,
            abandoned: Arc::clone(&abandoned),
        };
        {
            let mut sched = self.shared.lock_sched();
            let queue = sched.queues.entry(model.to_string()).or_default();
            if queue.len() >= self.shared.capacity {
                // Shed the lowest-priority queued request — the most
                // recent one on ties, so older equal-priority work keeps
                // its place — but only for a strictly higher-priority
                // arrival; otherwise the arrival itself is backpressured.
                let victim = queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(idx, j)| (j.priority, usize::MAX - idx))
                    .map(|(idx, j)| (idx, j.priority));
                match victim {
                    Some((idx, lowest)) if lowest < priority => {
                        if let Some(evicted) = queue.remove(idx) {
                            state.cancel_admission(evicted.probe);
                            state.shed.fetch_add(1, Ordering::Relaxed);
                            self.shared.shed.fetch_add(1, Ordering::Relaxed);
                            let _ = evicted.tx.send(Err(InferError::Shed {
                                priority: evicted.priority,
                                capacity: self.shared.capacity,
                            }));
                        }
                    }
                    _ => {
                        state.cancel_admission(probe);
                        state.rejected.fetch_add(1, Ordering::Relaxed);
                        self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                        return Err(InferError::QueueFull {
                            capacity: self.shared.capacity,
                        });
                    }
                }
            }
            queue.push_back(job);
        }
        state.accepted.fetch_add(1, Ordering::Relaxed);
        self.shared.accepted.fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_all();
        Ok(InferTicket {
            rx,
            abandoned,
            settled: Cell::new(false),
        })
    }

    /// Submit-and-wait convenience for callers without pipelining.
    ///
    /// # Errors
    /// See [`InferServer::submit`] and [`InferTicket::wait`].
    pub fn infer(&self, input: Vec<u8>) -> Result<Vec<u8>, InferError> {
        self.submit(input)?.wait()
    }

    /// [`InferServer::infer`] against a named model at a priority.
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
        let s = &self.shared;
        ServerStats {
            accepted: s.accepted.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            batched_requests: s.batched_requests.load(Ordering::Relaxed),
            hung: s.hung.load(Ordering::Relaxed),
            workers_replaced: s.workers_replaced.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            retries_exhausted: s.retries_exhausted.load(Ordering::Relaxed),
            demotions: s.demotions.load(Ordering::Relaxed),
            repromotions: s.repromotions.load(Ordering::Relaxed),
            breaker_rejected: s.breaker_rejected.load(Ordering::Relaxed),
            abandoned: s.abandoned.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time [`GatewayHealth`] snapshot: worker liveness,
    /// breaker states, supervision counters, and the retained
    /// [`HealthEvent`] tail.
    pub fn health(&self) -> GatewayHealth {
        let s = &self.shared;
        let now = s.now_us();
        let mut workers: Vec<WorkerHealth> = s
            .slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|slot| {
                let busy = slot.busy_since_us.load(Ordering::Acquire);
                WorkerHealth {
                    id: slot.id,
                    wedged: slot.wedged.load(Ordering::Acquire),
                    busy_for: (busy != 0).then(|| Duration::from_micros(now.saturating_sub(busy))),
                    batches: slot.batches.load(Ordering::Relaxed),
                }
            })
            .collect();
        workers.sort_by_key(|w| w.id);
        let breakers = self
            .models()
            .into_iter()
            .filter_map(|name| {
                let state = s.model(&name)?;
                let until = state.demoted_until_us.load(Ordering::Acquire);
                Some(BreakerHealth {
                    model: name,
                    state: state.breaker_state(),
                    demoted: until != 0 && now < until,
                })
            })
            .collect();
        GatewayHealth {
            workers,
            breakers,
            hung: s.hung.load(Ordering::Relaxed),
            workers_replaced: s.workers_replaced.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            retries_exhausted: s.retries_exhausted.load(Ordering::Relaxed),
            demotions: s.demotions.load(Ordering::Relaxed),
            repromotions: s.repromotions.load(Ordering::Relaxed),
            breaker_rejected: s.breaker_rejected.load(Ordering::Relaxed),
            abandoned: s.abandoned.load(Ordering::Relaxed),
            events: s.health.snapshot(),
        }
    }

    /// One model's counters and latency percentiles, or `None` if it is
    /// not registered.
    pub fn model_stats(&self, name: &str) -> Option<ModelStats> {
        let state = self.shared.model(name)?;
        Some(snapshot_model(&self.shared, name, &state))
    }

    /// Every registered model's stats, sorted by name.
    pub fn all_model_stats(&self) -> Vec<ModelStats> {
        self.models()
            .into_iter()
            .filter_map(|name| self.model_stats(&name))
            .collect()
    }

    /// Begins a graceful drain without blocking: new submissions are
    /// refused with [`InferError::Draining`] from this point on, but
    /// accepted work keeps executing and every outstanding ticket will
    /// still be answered. Call [`InferServer::shutdown`] (or drop the
    /// server) to wait for the drain to finish.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.available.notify_all();
    }

    /// Stops accepting work, drains every queue (answering all accepted
    /// tickets), joins the workers, and returns the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop_and_join();
        self.stats()
    }

    fn check_accepting(&self) -> Result<(), InferError> {
        if self.shared.stopped.load(Ordering::Acquire) {
            return Err(InferError::ServerStopped);
        }
        if self.shared.draining.load(Ordering::Acquire) {
            return Err(InferError::Draining);
        }
        Ok(())
    }

    fn stop_and_join(&mut self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.available.notify_all();
        // Poll-join: a wedged worker may be blocked arbitrarily long
        // inside a hung batch, and the watchdog may spawn replacements
        // mid-drain. Each pass joins finished workers, *detaches*
        // wedged ones (their tickets were already answered by the
        // watchdog; the thread exits on its own when the batch
        // returns), and keeps waiting on live ones. The watchdog stays
        // running until every handle is swept so a batch that hangs
        // during the drain still gets answered and replaced.
        loop {
            let pending: Vec<(Arc<WorkerSlot>, JoinHandle<()>)> = {
                let mut handles = self
                    .shared
                    .handles
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                std::mem::take(&mut *handles)
            };
            if pending.is_empty() {
                break;
            }
            let mut keep = Vec::new();
            for (slot, handle) in pending {
                if slot.wedged.load(Ordering::Acquire) {
                    drop(handle); // detach: never block shutdown on a hung thread
                } else if handle.is_finished() {
                    // Worker bodies are panic-guarded per request; a join
                    // failure would be an unwind-in-unwind. Nothing to
                    // salvage from it.
                    let _ = handle.join();
                } else {
                    keep.push((slot, handle));
                }
            }
            let waiting = !keep.is_empty();
            self.shared
                .handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(keep);
            if waiting {
                // Re-notify each pass: closes the (pre-existing) missed
                // wakeup window between a worker's drain check and its
                // condvar wait.
                self.shared.available.notify_all();
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        {
            let mut park = self
                .shared
                .watchdog_park
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *park = true;
            self.shared.watchdog_cv.notify_all();
        }
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
        self.shared.stopped.store(true, Ordering::Release);
    }
}

impl Drop for InferServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Admission control for registry mutations: hosts the `serve.registry`
/// fault point (a corrupt-cache injection reads as a checksum the
/// registry cannot trust; a panic is caught into
/// [`InferError::Internal`]), then re-verifies the plan end to end.
fn registry_admission(plan: &InferencePlan) -> Result<u64, InferError> {
    let fired = catch_unwind(AssertUnwindSafe(|| gcd2_faults::fire("serve.registry")));
    match fired {
        Ok(gcd2_faults::Injection::CorruptCache) => {
            return Err(InferError::IntegrityViolation {
                expected: plan.checksum(),
                got: plan.checksum() ^ 0xBAD_CAFE,
            })
        }
        Ok(_) => {}
        Err(p) => {
            return Err(InferError::Internal {
                message: gcd2_par::panic_message(p.as_ref()),
            })
        }
    }
    plan.verify_integrity()?;
    Ok(plan.checksum())
}

fn snapshot_model(shared: &Shared, name: &str, state: &ModelState) -> ModelStats {
    let until = state.demoted_until_us.load(Ordering::Acquire);
    ModelStats {
        model: name.to_string(),
        checksum: state.current_plan().checksum(),
        accepted: state.accepted.load(Ordering::Relaxed),
        completed: state.completed.load(Ordering::Relaxed),
        failed: state.failed.load(Ordering::Relaxed),
        shed: state.shed.load(Ordering::Relaxed),
        rejected: state.rejected.load(Ordering::Relaxed),
        batches: state.batches.load(Ordering::Relaxed),
        batched_requests: state.batched_requests.load(Ordering::Relaxed),
        max_batch_observed: state.max_batch_observed.load(Ordering::Relaxed),
        queue_wait: state.queue_wait.summary(),
        assembly: state.assembly.summary(),
        execute: state.execute.summary(),
        retries: state.retries.load(Ordering::Relaxed),
        breaker_rejected: state.breaker_rejected.load(Ordering::Relaxed),
        abandoned: state.abandoned.load(Ordering::Relaxed),
        kernel_faults: state.kernel_faults.load(Ordering::Relaxed),
        demotions: state.demotions.load(Ordering::Relaxed),
        demoted: until != 0 && shared.now_us() < until,
        breaker: state.breaker_state(),
    }
}

/// Spawns one worker thread, registering its slot and handle with the
/// shared state; returns the new worker's id. Used both at startup and
/// by the watchdog to replace a wedged worker.
fn spawn_worker(shared: &Arc<Shared>) -> usize {
    let id = shared.next_worker.fetch_add(1, Ordering::Relaxed);
    let slot = Arc::new(WorkerSlot::new(id));
    shared
        .slots
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Arc::clone(&slot));
    let handle = {
        let shared = Arc::clone(shared);
        let slot = Arc::clone(&slot);
        std::thread::spawn(move || worker_loop(&shared, &slot))
    };
    shared
        .handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push((slot, handle));
    id
}

/// One scheduler worker: pick the model whose oldest request has waited
/// longest, hold its batch open until it fills or ages out, execute it
/// as one batch, scatter results to tickets. Runs until drain
/// is requested **and** every queue is empty, so accepted work is
/// always answered — or until the watchdog wedges it.
fn worker_loop(shared: &Shared, slot: &WorkerSlot) {
    loop {
        if slot.wedged.load(Ordering::Acquire) {
            // The watchdog declared this worker hung, answered its
            // tickets, and spawned a replacement; exit quietly.
            return;
        }
        let Some((name, jobs)) = next_batch(shared) else {
            return;
        };
        execute_batch(shared, slot, &name, jobs);
    }
}

/// The watchdog thread: scan worker heartbeats every
/// [`SupervisorConfig::effective_watchdog_interval`], parked promptly
/// through its condvar at shutdown.
fn watchdog_loop(shared: &Arc<Shared>) {
    let interval = shared.sup.effective_watchdog_interval();
    let mut park = shared
        .watchdog_park
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    loop {
        if *park {
            return;
        }
        let (guard, _) = shared
            .watchdog_cv
            .wait_timeout(park, interval)
            .unwrap_or_else(PoisonError::into_inner);
        park = guard;
        if *park {
            return;
        }
        drop(park);
        watchdog_scan(shared);
        park = shared
            .watchdog_park
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// One watchdog pass: wedge every worker whose heartbeat has aged past
/// the hang deadline, answer its in-flight tickets with
/// [`InferError::Hung`], and spawn a replacement so capacity never
/// shrinks. Taking the slot's `InFlight` is the ownership handoff: a
/// worker that finishes its batch after losing the race finds `None`
/// and discards its results.
fn watchdog_scan(shared: &Arc<Shared>) {
    let deadline_us = u64::try_from(shared.sup.hang_deadline.as_micros()).unwrap_or(u64::MAX);
    let now = shared.now_us();
    let slots: Vec<Arc<WorkerSlot>> = shared
        .slots
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    for slot in slots {
        if slot.wedged.load(Ordering::Acquire) {
            continue;
        }
        let busy = slot.busy_since_us.load(Ordering::Acquire);
        if busy == 0 || now.saturating_sub(busy) < deadline_us {
            continue;
        }
        let Some(inflight) = slot.take_inflight() else {
            // The batch finished between the heartbeat read and here.
            continue;
        };
        slot.wedged.store(true, Ordering::Release);
        shared.hung.fetch_add(1, Ordering::Relaxed);
        shared.health.record(HealthEvent::WorkerHung {
            worker: slot.id,
            model: inflight.model.clone(),
            in_flight: inflight.tickets.len(),
        });
        let elapsed = Duration::from_micros(now.saturating_sub(inflight.dispatched_us));
        let state = shared.model(&inflight.model);
        for (tx, probe) in inflight.tickets {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            if let Some(state) = &state {
                state.failed.fetch_add(1, Ordering::Relaxed);
                record_outcome(shared, state, &inflight.model, true, probe);
            }
            let _ = tx.send(Err(InferError::Hung {
                model: inflight.model.clone(),
                elapsed,
                deadline: shared.sup.hang_deadline,
            }));
        }
        let replacement = spawn_worker(shared);
        shared.workers_replaced.fetch_add(1, Ordering::Relaxed);
        shared.health.record(HealthEvent::WorkerReplaced {
            wedged: slot.id,
            replacement,
        });
    }
}

/// Feeds one admitted request's outcome to its model's breaker,
/// logging the Open/Closed transitions the record provokes.
fn record_outcome(shared: &Shared, state: &ModelState, model: &str, error: bool, probe: bool) {
    let mut breaker = state.breaker.lock().unwrap_or_else(PoisonError::into_inner);
    let before = breaker.state();
    breaker.record(error, probe, shared.now_us());
    let after = breaker.state();
    drop(breaker);
    if before != after {
        match after {
            BreakerState::Open => {
                shared.health.record(HealthEvent::BreakerOpened {
                    model: model.to_string(),
                });
            }
            BreakerState::Closed => {
                shared.health.record(HealthEvent::BreakerClosed {
                    model: model.to_string(),
                });
            }
            // record() never transitions *into* HalfOpen (admit does).
            BreakerState::HalfOpen => {}
        }
    }
}

/// Blocks until a batch is ready (returning it) or the gateway has
/// drained (returning `None`). A batch is ready when its model's queue
/// reaches `max_batch`, its oldest request has waited `max_wait`, or
/// the gateway is draining (flush immediately).
fn next_batch(shared: &Shared) -> Option<(String, Vec<Job>)> {
    let mut sched = shared.lock_sched();
    loop {
        let oldest_model = sched
            .queues
            .iter()
            .filter_map(|(name, q)| q.front().map(|job| (job.enqueued, name)))
            .min_by_key(|&(enqueued, _)| enqueued)
            .map(|(enqueued, name)| (enqueued, name.clone()));
        let Some((oldest, name)) = oldest_model else {
            if shared.draining.load(Ordering::Acquire) {
                return None;
            }
            sched = shared
                .available
                .wait(sched)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        let len = sched.queues.get(&name).map_or(0, VecDeque::len);
        let age = oldest.elapsed();
        let ready = len >= shared.max_batch
            || age >= shared.max_wait
            || shared.draining.load(Ordering::Acquire);
        if !ready {
            let (guard, _) = shared
                .available
                .wait_timeout(sched, shared.max_wait.saturating_sub(age))
                .unwrap_or_else(PoisonError::into_inner);
            sched = guard;
            continue;
        }
        if let Some(queue) = sched.queues.get_mut(&name) {
            let take = queue.len().min(shared.max_batch);
            let jobs: Vec<Job> = queue.drain(..take).collect();
            if !jobs.is_empty() {
                return Some((name, jobs));
            }
        }
    }
}

/// Executes one popped batch under supervision: skips abandoned
/// requests, applies ISA demotion, stamps the heartbeat and parks the
/// tickets where the watchdog can reach them, runs the attempt loop
/// (the `serve.hang`/`serve.batch`/`serve.retry` fault points and the
/// round's panic guard live inside it), then — if the watchdog didn't take the
/// batch away — records outcomes and answers every ticket.
fn execute_batch(shared: &Shared, slot: &WorkerSlot, name: &str, jobs: Vec<Job>) {
    let dispatched = Instant::now();
    let Some(state) = shared.model(name) else {
        // Unregistered between enqueue and dispatch (unregister races a
        // worker that had already popped): answer, don't execute.
        for job in jobs {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            let _ = job.tx.send(Err(InferError::UnknownModel {
                model: name.to_string(),
            }));
        }
        return;
    };
    // A ticket dropped unsettled abandoned its request: skip it (its
    // breaker admission is cancelled, never recorded) so a drain can't
    // over-wait executing work nobody will read.
    let mut live = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.abandoned.load(Ordering::Acquire) {
            state.cancel_admission(job.probe);
            state.abandoned.fetch_add(1, Ordering::Relaxed);
            shared.abandoned.fetch_add(1, Ordering::Relaxed);
        } else {
            live.push(job);
        }
    }
    if live.is_empty() {
        return;
    }
    if let Some(first) = live.iter().map(|j| j.enqueued).min() {
        state.assembly.record(dispatched.duration_since(first));
    }
    let mut inputs = Vec::with_capacity(live.len());
    let mut tickets = Vec::with_capacity(live.len());
    for job in live {
        state
            .queue_wait
            .record(dispatched.duration_since(job.enqueued));
        inputs.push(job.input);
        tickets.push((job.tx, job.probe));
    }
    let size = tickets.len() as u64;
    state.batches.fetch_add(1, Ordering::Relaxed);
    shared.batches.fetch_add(1, Ordering::Relaxed);
    slot.batches.fetch_add(1, Ordering::Relaxed);
    state.max_batch_observed.fetch_max(size, Ordering::Relaxed);
    if size >= 2 {
        state.batched_requests.fetch_add(size, Ordering::Relaxed);
        shared.batched_requests.fetch_add(size, Ordering::Relaxed);
    }
    let plan = state.current_plan();
    // ISA demotion: a quarantined model executes on the bit-exact
    // scalar oracle tier; an elapsed quarantine re-promotes (one worker
    // wins the CAS and resets the fault count).
    let mut opts = shared.opts;
    let until = state.demoted_until_us.load(Ordering::Acquire);
    if until != 0 {
        if shared.now_us() < until {
            opts.force_scalar = true;
        } else if state
            .demoted_until_us
            .compare_exchange(until, 0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            state.kernel_faults.store(0, Ordering::Relaxed);
            shared.repromotions.fetch_add(1, Ordering::Relaxed);
            shared.health.record(HealthEvent::Repromoted {
                model: name.to_string(),
            });
        }
    }
    // Heartbeat + ownership handoff point: from here until the worker
    // takes the InFlight back, the watchdog may claim this batch.
    let dispatched_us = shared.now_us().max(1);
    slot.busy_since_us.store(dispatched_us, Ordering::Release);
    {
        let mut inflight = slot.inflight.lock().unwrap_or_else(PoisonError::into_inner);
        *inflight = Some(InFlight {
            model: name.to_string(),
            dispatched_us,
            tickets,
        });
    }
    let outcomes = run_attempts(shared, &state, name, &plan, &inputs, &opts);
    let taken = slot.take_inflight();
    slot.busy_since_us.store(0, Ordering::Release);
    let Some(inflight) = taken else {
        // The watchdog declared this batch hung and already answered
        // (and counted) every ticket; discard the late results. The
        // wedged flag ends this worker at the top of its loop.
        return;
    };
    for ((tx, probe), (result, exec)) in inflight.tickets.into_iter().zip(outcomes) {
        state.execute.record(exec);
        let fault = result.as_ref().err().is_some_and(counts_as_fault);
        record_outcome(shared, &state, name, fault, probe);
        if result.is_ok() {
            state.completed.fetch_add(1, Ordering::Relaxed);
            shared.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            state.failed.fetch_add(1, Ordering::Relaxed);
            shared.failed.fetch_add(1, Ordering::Relaxed);
        }
        // A caller that dropped its ticket is not an error.
        let _ = tx.send(result);
    }
    // Demotion trigger: enough kernel-attributed faults pin the model
    // to scalar for a quarantine (one worker wins the CAS).
    let demote_after = shared.sup.demote_after;
    if demote_after > 0
        && state.kernel_faults.load(Ordering::Relaxed) >= demote_after
        && state.demoted_until_us.load(Ordering::Acquire) == 0
    {
        let quarantine_us = u64::try_from(shared.sup.quarantine.as_micros()).unwrap_or(u64::MAX);
        let until = shared.now_us().saturating_add(quarantine_us).max(1);
        if state
            .demoted_until_us
            .compare_exchange(0, until, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            state.demotions.fetch_add(1, Ordering::Relaxed);
            shared.demotions.fetch_add(1, Ordering::Relaxed);
            shared.health.record(HealthEvent::Demoted {
                model: name.to_string(),
                kernel_faults: state.kernel_faults.load(Ordering::Relaxed),
            });
        }
    }
}

/// A request's result, and the time its executions took (summed over
/// attempts).
type Outcome = (Result<Vec<u8>, InferError>, Duration);

/// The attempt rounds of one batch, over one arena checked out of the
/// model's pool. A round fires `serve.hang` and `serve.batch` once, then
/// runs each request still pending through
/// [`InferencePlan::try_execute_into`] in turn. A caught panic is an
/// [`InferError::Internal`] for what it hit: one request when it came
/// from inside that request's run, every pending one when it came from
/// the round around them. Only those transient requests are re-run, up
/// to `retry_budget` more rounds with deterministic seeded backoff in
/// between; any other result — an output, or a structured error like a
/// bad input shape — is final. The executor is deterministic, so a
/// retried success is bit-identical to an undisturbed first attempt.
fn run_attempts(
    shared: &Shared,
    state: &ModelState,
    name: &str,
    plan: &InferencePlan,
    inputs: &[Vec<u8>],
    opts: &ExecOptions,
) -> Vec<Outcome> {
    let mut arena = state.pool.take(plan);
    let mut outcomes: Vec<Outcome> = inputs
        .iter()
        .map(|_| (Ok(Vec::new()), Duration::ZERO))
        .collect();
    let mut pending: Vec<usize> = (0..inputs.len()).collect();
    let attempts_allowed = 1 + shared.sup.retry_budget;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let mut round = Ok(());
        if attempt > 1 {
            state.retries.fetch_add(1, Ordering::Relaxed);
            shared.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(retry_backoff(
                shared.sup.retry_seed,
                attempt - 1,
                shared.sup.retry_backoff_base,
            ));
            // The retry path has its own fault point; an injected panic
            // here burns the round without reaching the runtime.
            round = guard_panics(|| {
                let _ = gcd2_faults::fire("serve.retry");
                Ok(())
            });
        }
        // `serve.hang` models a wedged worker: a Delay injection here
        // overruns the hang deadline while the heartbeat is stamped,
        // which is exactly what the watchdog looks for.
        let round = round.and_then(|()| {
            guard_panics(|| {
                let _ = gcd2_faults::fire("serve.hang");
                let _ = gcd2_faults::fire("serve.batch");
                Ok(())
            })
        });
        for &i in &pending {
            let t0 = Instant::now();
            let result = round.clone().and_then(|()| {
                let mut out = Vec::new();
                plan.try_execute_into(&inputs[i], &mut arena, &mut out, opts)
                    .map(|()| out)
            });
            outcomes[i] = (result, outcomes[i].1 + t0.elapsed());
        }
        let failed = |i: &usize| outcomes[*i].0.as_ref().err();
        if pending.iter().filter_map(failed).any(kernel_attributed) {
            state.kernel_faults.fetch_add(1, Ordering::Relaxed);
        }
        pending.retain(|&i| matches!(outcomes[i].0, Err(InferError::Internal { .. })));
        if pending.is_empty() {
            if attempt > 1 {
                shared.health.record(HealthEvent::RetrySucceeded {
                    model: name.to_string(),
                    attempt: attempt - 1,
                });
            }
            break;
        }
        if attempt >= attempts_allowed {
            if shared.sup.retry_budget > 0 {
                shared.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                shared.health.record(HealthEvent::RetriesExhausted {
                    model: name.to_string(),
                    attempts: attempt,
                });
            }
            break;
        }
    }
    state.pool.put(arena);
    outcomes
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

    #[test]
    fn serves_requests_bit_identical_to_direct_execution() {
        let plan = tiny_plan();
        let server = InferServer::start(plan.clone(), 2, 8, ExecOptions::default());
        let inputs: Vec<Vec<u8>> = (0..6)
            .map(|s| (0..16).map(|i| ((i + s * 3) % 16) as u8).collect())
            .collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|input| server.submit(input.clone()).expect("queue has room"))
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
        let server = InferServer::start(plan.clone(), 1, 4, ExecOptions::default());
        let bad = server.infer(vec![1, 2, 3]).unwrap_err();
        assert!(matches!(bad, InferError::InputShape { .. }), "{bad:?}");
        let good: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        assert_eq!(
            server.infer(good.clone()).expect("server still serves"),
            plan.execute(&good)
        );
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let plan = tiny_plan();
        let mut server = InferServer::start(plan, 1, 4, ExecOptions::default());
        server.stop_and_join();
        assert_eq!(
            server.submit(vec![0; 16]).map(|_| ()),
            Err(InferError::ServerStopped)
        );
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let plan = tiny_plan();
        let server = InferServer::start(plan.clone(), 1, 0, ExecOptions::default());
        let good: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        assert_eq!(
            server.infer(good.clone()).expect("one slot exists"),
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

    #[test]
    fn coalesces_queued_requests_into_batches_bit_identically() {
        let plan = tiny_plan();
        // One worker held busy by a tiny max_wait ensures queued
        // requests pile up and dispatch together.
        let server = InferServer::gateway(GatewayConfig {
            workers: 1,
            capacity: 64,
            max_batch: 8,
            max_wait: Duration::from_millis(5),
            opts: ExecOptions::default(),
            supervisor: SupervisorConfig::default(),
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
            stats.batches < 24 && stats.max_batch_observed >= 2,
            "requests must coalesce: {} batches, max {}",
            stats.batches,
            stats.max_batch_observed
        );
        assert_eq!(stats.queue_wait.count, 24);
        assert_eq!(stats.execute.count, 24);
        assert!(stats.assembly.count >= 1);
        assert!(stats.execute.p99 >= stats.execute.p50);
        server.shutdown();
    }

    #[test]
    fn a_batch_runs_its_requests_over_one_pooled_arena() {
        let plan = tiny_plan();
        // One worker and a batch that dispatches on fill: the eight
        // requests run as one batch.
        let server = InferServer::gateway(GatewayConfig {
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_secs(30),
            ..GatewayConfig::default()
        });
        server.register("m", plan.clone()).expect("register");
        let inputs: Vec<Vec<u8>> = (0..8)
            .map(|s| (0..16).map(|i| ((i * 5 + s) % 16) as u8).collect())
            .collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|x| server.submit_to("m", x.clone(), 0).expect("admitted"))
            .collect();
        for (x, ticket) in inputs.iter().zip(tickets) {
            assert_eq!(ticket.wait().expect("served"), plan.execute(x));
        }
        let stats = server.model_stats("m").expect("registered");
        assert_eq!((stats.batches, stats.max_batch_observed), (1, 8));
        let state = server.shared.model("m").expect("registered");
        assert_eq!(state.pool.idle_arenas(), 1, "one arena per batch");
        server.shutdown();
    }

    #[test]
    fn full_queue_sheds_lowest_priority_first() {
        // No workers draining: gateway with zero registered... workers
        // must idle, so park them on an empty registry while we fill a
        // queue directly through a registered model with a stopped...
        // Simplest: capacity 2, and submissions faster than the single
        // worker can drain are not deterministic — instead use a
        // draining-free window by submitting while workers wait on
        // max_wait. A generous max_wait keeps the batch open long
        // enough to observe shedding deterministically.
        let plan = tiny_plan();
        let server = InferServer::gateway(GatewayConfig {
            workers: 1,
            capacity: 2,
            max_batch: 64,
            max_wait: Duration::from_secs(5),
            opts: ExecOptions::default(),
            supervisor: SupervisorConfig::default(),
        });
        server.register("m", plan.clone()).expect("register");
        let input: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        let t_low = server.submit_to("m", input.clone(), 1).expect("admitted");
        let _t_mid = server.submit_to("m", input.clone(), 5).expect("admitted");
        // Queue is full. An equal-priority arrival is backpressured…
        assert!(matches!(
            server.submit_to("m", input.clone(), 1).map(|_| ()),
            Err(InferError::QueueFull { .. })
        ));
        // …a higher-priority arrival evicts the lowest-priority one.
        let t_high = server.submit_to("m", input.clone(), 9).expect("admitted");
        assert_eq!(
            t_low.wait(),
            Err(InferError::Shed {
                priority: 1,
                capacity: 2
            })
        );
        assert_eq!(t_high.wait().expect("served"), plan.execute(&input));
        let stats = server.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn graceful_drain_answers_every_accepted_ticket() {
        let plan = tiny_plan();
        let server = InferServer::gateway(GatewayConfig {
            workers: 2,
            capacity: 128,
            max_batch: 4,
            max_wait: Duration::from_millis(50),
            opts: ExecOptions::default(),
            supervisor: SupervisorConfig::default(),
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
    fn abandoned_tickets_settle_accounting_and_skip_execution() {
        let plan = tiny_plan();
        // Park the only worker on a long max_wait so submissions queue
        // up; the drain flush dispatches them all at once.
        let server = InferServer::gateway(GatewayConfig {
            workers: 1,
            max_batch: 64,
            max_wait: Duration::from_secs(30),
            ..GatewayConfig::default()
        });
        server.register("m", plan.clone()).expect("register");
        let input: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        let kept = server.submit_to("m", input.clone(), 0).expect("admitted");
        // Dropping a ticket outright abandons its request…
        drop(server.submit_to("m", input.clone(), 0).expect("admitted"));
        // …and so does dropping it after an inconclusive wait_timeout.
        let timed = server.submit_to("m", input.clone(), 0).expect("admitted");
        assert!(matches!(
            timed.wait_timeout(Duration::from_millis(5)),
            Err(InferError::DeadlineExceeded { .. })
        ));
        drop(timed);
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 3);
        assert_eq!(stats.abandoned, 2, "{stats:?}");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(
            stats.accepted,
            stats.completed + stats.failed + stats.shed + stats.abandoned,
            "every accepted request must be accounted exactly once: {stats:?}"
        );
        assert_eq!(kept.wait().expect("served"), plan.execute(&input));
    }

    #[test]
    fn idle_supervisor_is_invisible_in_health_and_stats() {
        let plan = tiny_plan();
        let server = InferServer::start(plan.clone(), 2, 8, ExecOptions::default());
        let input: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        assert_eq!(
            server.infer(input.clone()).expect("served"),
            plan.execute(&input)
        );
        let health = server.health();
        assert_eq!(health.workers.len(), 2);
        assert!(health.workers.iter().all(|w| !w.wedged));
        assert_eq!(health.breakers.len(), 1);
        assert_eq!(health.breakers[0].state, BreakerState::Closed);
        assert!(!health.breakers[0].demoted);
        assert_eq!(
            (
                health.hung,
                health.workers_replaced,
                health.retries,
                health.retries_exhausted,
                health.demotions,
                health.repromotions,
                health.breaker_rejected,
                health.abandoned,
            ),
            (0, 0, 0, 0, 0, 0, 0, 0),
            "a healthy gateway records no supervision activity"
        );
        assert!(health.events.is_empty(), "{:?}", health.events);
        let ms = server.model_stats(DEFAULT_MODEL).expect("registered");
        assert_eq!(ms.breaker, BreakerState::Closed);
        assert!(!ms.demoted);
        assert_eq!(ms.kernel_faults, 0);
        server.shutdown();
    }

    #[test]
    fn wait_timeout_bounds_the_callers_wait() {
        let plan = tiny_plan();
        let server = InferServer::gateway(GatewayConfig {
            workers: 1,
            max_batch: 64,
            // Deliberately park the only worker: nothing dispatches
            // until the drain flush.
            max_wait: Duration::from_secs(30),
            ..GatewayConfig::default()
        });
        server.register("m", plan.clone()).expect("register");
        let input: Vec<u8> = (0..16).map(|i| (i % 16) as u8).collect();
        let ticket = server.submit_to("m", input.clone(), 0).expect("admitted");
        let bounded = ticket.wait_timeout(Duration::from_millis(10));
        assert!(
            matches!(bounded, Err(InferError::DeadlineExceeded { .. })),
            "{bounded:?}"
        );
        // The request was not cancelled: drain still answers it, and the
        // same ticket can pick the result up after the timeout.
        let handle = std::thread::spawn(move || ticket.wait());
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(
            handle.join().expect("waiter thread"),
            Ok(plan.execute(&input))
        );
    }
}
